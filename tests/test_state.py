"""Tests for ColoringState: palettes, slack, adoption invariants (§2.2)."""

import re

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.state import ColoringState, ImproperColoring, count_distinct_colors
from repro.graphs.generators import complete_graph, gnp_graph
from repro.simulator.network import BroadcastNetwork

from tests.helpers import brute_force_proper


class TestBasics:
    def test_initially_uncolored(self, triangle_net):
        state = ColoringState(triangle_net)
        assert state.num_uncolored() == 3
        assert not state.is_complete()
        assert state.is_proper()  # vacuously

    def test_num_colors_default_delta_plus_one(self, triangle_net):
        assert ColoringState(triangle_net).num_colors == 3

    def test_num_colors_override(self, triangle_net):
        assert ColoringState(triangle_net, num_colors=10).num_colors == 10

    def test_empty_graph_defaults(self):
        state = ColoringState(BroadcastNetwork((3, [])))
        assert state.num_colors == 1


class TestAdopt:
    def test_adopt_records_colors(self, path_net):
        state = ColoringState(path_net)
        state.adopt(np.array([0, 2]), np.array([1, 1]))
        assert state.colors[0] == 1 and state.colors[2] == 1
        assert state.num_uncolored() == 2

    def test_monotonicity_enforced(self, path_net):
        state = ColoringState(path_net)
        state.adopt(np.array([0]), np.array([0]))
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0]), np.array([1]))

    def test_rejects_conflict_with_colored_neighbor(self, path_net):
        state = ColoringState(path_net)
        state.adopt(np.array([0]), np.array([1]))
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([1]), np.array([1]))

    def test_rejects_conflict_within_batch(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0, 1]), np.array([2, 2]))

    def test_names_the_first_offending_edge_in_csr_order(self):
        # Two offending edges in an unsorted batch that reads only its own
        # rows: the message names the edge a scan over every edge meets
        # first, (1, 0), not the one in the batch's first row, (2, 3).
        net = BroadcastNetwork((10, [(i, i + 1) for i in range(9)]))
        state = ColoringState(net)
        state.adopt(np.array([0, 3]), np.array([1, 0]))
        with pytest.raises(ImproperColoring, match=r"edge \(1, 0\)"):
            state.adopt(np.array([2, 1]), np.array([0, 1]))

    def test_rejects_out_of_range_color(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0]), np.array([3]))
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0]), np.array([-1]))

    def test_rejects_duplicate_nodes(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0, 0]), np.array([0, 1]))

    def test_rejects_duplicate_at_end_of_unsorted_batch(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ImproperColoring, match="duplicate"):
            state.adopt(np.array([2, 0, 1, 2]), np.array([0, 1, 2, 0]))
        assert state.num_uncolored() == 3

    def test_batch_is_all_or_nothing(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ImproperColoring):
            state.adopt(np.array([0, 1]), np.array([0, 0]))
        assert state.num_uncolored() == 3  # nothing applied

    def test_empty_adopt_noop(self, triangle_net):
        state = ColoringState(triangle_net)
        state.adopt(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert state.num_uncolored() == 3

    def test_length_mismatch(self, triangle_net):
        state = ColoringState(triangle_net)
        with pytest.raises(ValueError):
            state.adopt(np.array([0]), np.array([0, 1]))

    def test_nonadjacent_same_color_ok(self, path_net):
        state = ColoringState(path_net)
        state.adopt(np.array([0, 2]), np.array([0, 0]))
        assert state.is_proper()


def _whole(net, nodes):
    """Whether the rows of ``nodes`` hold more than half of the 2m pairs,
    so ``adopt`` scans the undirected edges first."""
    return 2 * int(net.degrees[nodes].sum()) > net.indices.size


def _first_offending_pair(net, colors, nodes):
    """The message of the first monochromatic directed pair, in CSR
    order, whose source is in ``nodes``: the edge a scan of the batch's
    rows names."""
    src, dst = net.edge_src, net.indices
    touched = np.zeros(net.n, dtype=bool)
    touched[nodes] = True
    bad = np.flatnonzero(touched[src] & (colors[src] >= 0) & (colors[src] == colors[dst]))
    return None if not bad.size else f"edge ({src[bad[0]]}, {dst[bad[0]]})"


class TestWholeGraphBatch:
    """A batch whose rows hold more than half of the pairs is checked by one
    pass over the undirected edges; only a monochromatic edge that touches
    it sends it to the row scan, which names the edge."""

    # Path 0-1-...-9 with node 3 colored 0 first; the rest alternate 1, 2.
    BASE = {v: 1 + v % 2 for v in range(10) if v != 3}

    @pytest.mark.parametrize(
        "small,edge",
        [({4: 0}, "(4, 3)"), ({8: 1, 9: 1}, "(8, 9)")],
        ids=["old-color", "within-batch"],
    )
    def test_names_the_edge_a_gathered_batch_names(self, small, edge):
        net = BroadcastNetwork((10, [(i, i + 1) for i in range(9)]))
        messages = []
        for batch in (small, {**self.BASE, **small}):
            state = ColoringState(net)
            state.adopt(np.array([3]), np.array([0]))
            nodes = np.array(sorted(batch))
            assert _whole(net, nodes) == (batch is not small)
            with pytest.raises(ImproperColoring) as err:
                state.adopt(nodes, np.array([batch[v] for v in nodes]))
            assert state.num_uncolored() == 9  # nothing applied
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"edge {edge}" in messages[1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_names_the_first_offending_edge_in_csr_order(self, seed):
        """A batch of every uncolored node, after a few proper adoptions,
        colored greedily and then given up to two conflicts (a node takes
        a neighbor's color): it is accepted iff no pair in its rows is
        monochromatic, and a refusal names the first such pair in CSR
        order."""
        rng = np.random.default_rng(seed)
        net = BroadcastNetwork(gnp_graph(40, 0.15, seed=seed % 50))
        state = ColoringState(net)
        pre = rng.permutation(net.n)[: rng.integers(0, net.n // 4 + 1)]
        for v in pre:  # a proper partial coloring of a few nodes
            state.adopt(np.array([v]), state.palette(int(v))[:1])
        nodes = rng.permutation(state.uncolored_nodes())
        proposal = state.colors.copy()
        for v in nodes:
            nb = proposal[net.neighbors(v)]
            proposal[v] = np.setdiff1d(np.arange(state.num_colors), nb)[0]
        for v in rng.choice(nodes, size=rng.integers(0, 3)):
            nb = net.neighbors(v)
            if nb.size:
                proposal[v] = proposal[rng.choice(nb)]
        colors = proposal[nodes]
        want = _first_offending_pair(net, proposal, nodes)
        event("whole" if _whole(net, nodes) else "gathered")
        event("refused" if want else "accepted")
        before = state.colors.copy()
        if want is None:
            state.adopt(nodes, colors)
            assert np.array_equal(state.colors, proposal)
        else:
            with pytest.raises(ImproperColoring, match=re.escape(want)):
                state.adopt(nodes, colors)
            assert np.array_equal(state.colors, before)

    def test_monochromatic_edge_off_the_batch_does_not_refuse_it(self):
        net = BroadcastNetwork((10, [(i, i + 1) for i in range(9)]))
        state = ColoringState(net, num_colors=3)
        state.adopt(np.array([0, 5]), np.array([0, 0]))
        net.apply_delta(insert_edges=np.array([[0, 5]]))  # now monochromatic
        nodes = np.array([1, 2, 3, 4, 6, 7, 8, 9])
        colors = np.array([1, 2, 1, 2, 1, 2, 1, 2])
        assert _whole(net, nodes)
        clash = state.colors.copy()
        with pytest.raises(ImproperColoring, match=r"edge \(4, 5\)"):
            state.adopt(nodes, np.where(nodes == 4, 0, colors))
        assert np.array_equal(state.colors, clash)
        state.adopt(nodes, colors)
        assert state.num_uncolored() == 0
        assert not state.is_proper()  # the edge (0, 5) is still monochromatic


class TestIsProper:
    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_directed_scan(self, seed, delta):
        """The undirected scan gives the directed scan's verdict on random
        colorings, also after a topology change has replaced the cached
        edge list."""
        rng = np.random.default_rng(seed)
        net = BroadcastNetwork(gnp_graph(40, 0.1, seed=seed % 50))
        state = ColoringState(net)
        state.is_proper()  # caches the undirected edge list
        if delta:
            und = net.undirected_edges()
            gone = und[rng.random(len(und)) < 0.3]
            new = rng.integers(0, net.n, size=(rng.integers(0, 40), 2))
            net.apply_delta(insert_edges=new, delete_edges=gone)
        for _ in range(5):
            width = int(rng.integers(1, 3 * net.n))
            state.colors = rng.integers(-1, width, size=net.n)
            src, dst = net.edge_src, net.indices
            c = state.colors
            want = not ((c[src] >= 0) & (c[src] == c[dst])).any()
            assert state.is_proper() == want


class TestPalettes:
    def test_palette_full_when_uncolored(self, triangle_net):
        state = ColoringState(triangle_net)
        assert state.palette(0).tolist() == [0, 1, 2]

    def test_palette_shrinks(self, triangle_net):
        state = ColoringState(triangle_net)
        state.adopt(np.array([1]), np.array([2]))
        assert state.palette(0).tolist() == [0, 1]

    def test_palette_sizes_vectorized_matches(self, small_gnp_net):
        state = ColoringState(small_gnp_net)
        rng = np.random.default_rng(0)
        # Color a random independent-ish set properly via greedy.
        for v in range(0, small_gnp_net.n, 3):
            pal = state.palette(v)
            if pal.size:
                state.adopt(np.array([v]), np.array([pal[0]]))
        sizes = state.palette_sizes()
        for v in range(small_gnp_net.n):
            assert sizes[v] == state.palette(v).size

    def test_neighbor_color_set(self, path_net):
        state = ColoringState(path_net)
        state.adopt(np.array([0, 2]), np.array([1, 2]))
        assert state.neighbor_color_set(1) == {1, 2}
        assert state.neighbor_color_set(3) == {2}


class TestDegreesAndSlack:
    def test_uncolored_degrees_initial(self, triangle_net):
        state = ColoringState(triangle_net)
        assert state.uncolored_degrees().tolist() == [2, 2, 2]

    def test_uncolored_degrees_after_coloring(self, triangle_net):
        state = ColoringState(triangle_net)
        state.adopt(np.array([0]), np.array([0]))
        assert state.uncolored_degrees().tolist() == [2, 1, 1]

    def test_slack_definition(self, path_net):
        state = ColoringState(path_net)
        # path: Δ=2, palette 3 colors; d̂ = degree initially.
        # slack(v) = |Ψ(v)| − d̂(v).
        expected = [3 - 1, 3 - 2, 3 - 2, 3 - 1]
        assert state.slack().tolist() == expected

    def test_slack_grows_when_neighbors_share_color(self):
        # star: center 0 with 4 leaves; leaves pairwise nonadjacent.
        net = BroadcastNetwork((5, [(0, i) for i in range(1, 5)]))
        state = ColoringState(net)
        before = state.slack()[0]
        state.adopt(np.array([1, 2]), np.array([0, 0]))  # same color twice
        after = state.slack()[0]
        # center lost 1 palette color but 2 uncolored neighbors.
        assert after == before + 1


class TestVerification:
    def test_verify_passes_on_proper(self, triangle_net):
        state = ColoringState(triangle_net)
        state.adopt(np.array([0, 1, 2]), np.array([0, 1, 2]))
        state.verify()
        assert state.is_complete()
        assert state.count_colors_used() == 3

    def test_count_colors_empty(self, triangle_net):
        assert ColoringState(triangle_net).count_colors_used() == 0

    @given(
        st.lists(
            st.one_of(st.integers(-2, 12), st.integers(-1, 10**12)),
            max_size=30,
        )
    )
    def test_distinct_colors_match_unique(self, values):
        """The bincount count equals a sort-based count, also when one
        color lies far beyond the array's length."""
        colors = np.array(values, dtype=np.int64)
        used = colors[colors >= 0]
        assert count_distinct_colors(colors) == np.unique(used).size

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_random_greedy_always_proper(self, seed):
        net = BroadcastNetwork(gnp_graph(30, 0.2, seed=seed % 100))
        state = ColoringState(net)
        rng = np.random.default_rng(seed)
        order = rng.permutation(net.n)
        for v in order:
            pal = state.palette(int(v))
            assert pal.size > 0  # Δ+1 colors always suffice greedily
            state.adopt(np.array([v]), np.array([pal[0]]))
        state.verify()
        assert brute_force_proper(net, state.colors)
