"""Tests for the broadcast network substrate (repro.simulator.network)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.families import make_graph
from repro.simulator.metrics import RoundMetrics
from repro.simulator.network import MAX_NODES, BandwidthExceeded, BroadcastNetwork
from tests.helpers import one_per_round_charge


def edges_strategy(max_n=12):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.integers(min_value=0, max_value=n - 1),
                ),
                max_size=30,
            ),
        )
    )


class TestConstruction:
    def test_from_pair(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2)]))
        assert net.n == 3
        assert net.m == 2
        assert net.delta == 2

    def test_from_networkx(self):
        import networkx as nx

        g = nx.path_graph(5)
        net = BroadcastNetwork(g)
        assert net.n == 5
        assert net.m == 4

    def test_self_loops_dropped(self):
        net = BroadcastNetwork((3, [(0, 0), (0, 1)]))
        assert net.m == 1

    def test_parallel_edges_collapse(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 0), (0, 1)]))
        assert net.m == 1

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            BroadcastNetwork((2, [(0, 5)]))

    def test_empty_graph(self):
        net = BroadcastNetwork((4, []))
        assert net.m == 0
        assert net.delta == 0
        assert net.neighbors(0).size == 0

    def test_degrees_and_neighbors_consistent(self):
        net = BroadcastNetwork((4, [(0, 1), (0, 2), (0, 3)]))
        assert net.degree(0) == 3
        assert sorted(net.neighbors(0).tolist()) == [1, 2, 3]
        assert net.degree(1) == 1

    def test_has_edge(self):
        net = BroadcastNetwork((5, [(0, 1), (0, 3), (2, 3)]))
        assert net.has_edge(0, 1) and net.has_edge(1, 0)
        assert net.has_edge(0, 3) and net.has_edge(3, 2)
        assert not net.has_edge(0, 2)
        assert not net.has_edge(0, 4)  # past the end of row 0
        assert not net.has_edge(4, 0)  # an isolated node's empty row

    @given(edges_strategy())
    @settings(max_examples=30, deadline=None)
    def test_has_edge_matches_edge_set(self, graph):
        net = BroadcastNetwork(graph)
        edges = {(int(u), int(v)) for u, v in net.undirected_edges()}
        for u in range(net.n):
            for v in range(net.n):
                assert net.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)

    @given(edges_strategy())
    @settings(max_examples=30, deadline=None)
    def test_csr_symmetry(self, graph):
        net = BroadcastNetwork(graph)
        for v in range(net.n):
            for u in net.neighbors(v):
                assert v in net.neighbors(int(u))

    @given(edges_strategy(), st.integers(0, 3), st.booleans())
    @settings(max_examples=settings.default.max_examples // 2, deadline=None)
    def test_single_sort_construction_matches_reference(
        self, graph, isolated, as_array
    ):
        """The key-sort CSR build (one sort of ``src·n + dst``, edges
        deduped in sorted order, ``_und_edges`` = the src < dst half) must
        reproduce the reference construction: np.unique over
        canonicalized pairs + a lexsort of both directions.  The input
        has self-loops, duplicates in both orientations and isolated top
        ids, and comes as an int64 array or as a list of pairs."""
        n, pairs = graph
        pairs = (
            pairs
            + [(v, u) for u, v in pairs[::2]]
            + [(u, u) for u, _ in pairs[:2]]
        )
        n += isolated
        net = BroadcastNetwork(
            (n, np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs)
        )
        edges = np.array(
            [(u, v) for u, v in pairs if u != v], dtype=np.int64
        ).reshape(-1, 2)
        if edges.size:
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            und = np.unique(np.stack([lo, hi], axis=1), axis=0)
            src = np.concatenate([und[:, 0], und[:, 1]])
            dst = np.concatenate([und[:, 1], und[:, 0]])
            order = np.lexsort((dst, src))
            src, dst = src[order], dst[order]
        else:
            und = edges
            src = dst = np.empty(0, dtype=np.int64)
        degrees = np.bincount(src, minlength=n)
        assert np.array_equal(net.undirected_edges(), und)
        assert net.undirected_edges().dtype == np.int64
        assert net.undirected_edges().flags.c_contiguous
        assert np.array_equal(net.edge_src, src)
        assert np.array_equal(net.indices, dst)
        assert np.array_equal(net.degrees, degrees)
        assert np.array_equal(net.indptr, np.concatenate([[0], np.cumsum(degrees)]))
        assert net.delta == int(degrees.max())
        assert net.m == und.shape[0]
        assert net.indices.dtype == net.indptr.dtype == np.int64

    def test_refuses_n_beyond_pair_key_range(self):
        # Pair keys u·n + v must fit int64: a larger n is refused, named,
        # before any O(n) array is allocated.
        with pytest.raises(ValueError, match=f"n = {2**40} exceeds {MAX_NODES}"):
            BroadcastNetwork((2**40, [(0, 1)]))
        assert (MAX_NODES - 1) * MAX_NODES + MAX_NODES - 1 <= np.iinfo(np.int64).max
        assert (MAX_NODES + 1) ** 2 - 1 > np.iinfo(np.int64).max

    def test_und_edges_sorted_and_neighbors_sorted(self):
        net = BroadcastNetwork((6, [(4, 1), (2, 0), (1, 0), (5, 2), (2, 1)]))
        und = net.undirected_edges()
        assert (und[:, 0] < und[:, 1]).all()
        key = und[:, 0] * 6 + und[:, 1]
        assert (np.diff(key) > 0).all()
        for v in range(net.n):
            nbrs = net.neighbors(v)
            assert (np.diff(nbrs) > 0).all() if nbrs.size > 1 else True


class TestRowEdges:
    """``row_edges(nodes)`` is the edge view every node-set kernel scans:
    a membership filter over it keeps the same pairs, in the same order,
    as the same filter over ``(edge_src, indices)``."""

    @staticmethod
    def assert_filter_matches(net, nodes):
        member = np.zeros(net.n, dtype=bool)
        member[nodes] = True
        src, dst = net.row_edges(nodes)
        keep = member[src]
        ref = member[net.edge_src]
        np.testing.assert_array_equal(src[keep], net.edge_src[ref])
        np.testing.assert_array_equal(dst[keep], net.indices[ref])
        volume = int(net.degrees[nodes].sum())
        if 2 * volume <= net.indices.size:
            # At most half the pairs: exactly the set's rows.
            assert src.size == volume and keep.all()
        else:
            # Past the half-volume switch: the arrays themselves.
            assert src is net.edge_src and dst is net.indices

    @staticmethod
    def node_sets(net, rng):
        """Empty, single, isolated, all, random, and the two sets on
        either side of the half-volume switch (a random order's prefixes
        whose volume is the last at most m and the first above it)."""
        n = net.n
        sets = [
            np.empty(0, dtype=np.int64),
            np.array([int(rng.integers(n))]),
            np.flatnonzero(net.degrees == 0),
            np.arange(n),
            np.flatnonzero(rng.random(n) < 0.3),
        ]
        order = rng.permutation(n)
        cum = np.cumsum(net.degrees[order])
        cut = int(np.searchsorted(cum, net.m, side="right"))
        sets.append(np.sort(order[:cut]))
        if cut < n:
            sets.append(np.sort(order[: cut + 1]))
        return sets

    @given(
        family=st.sampled_from(["gnp", "geometric", "planted"]),
        n=st.integers(min_value=8, max_value=120),
        seed=st.integers(min_value=0, max_value=10_000),
        deltas=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_filter_matches_full_arrays(self, family, n, seed, deltas):
        n0, edges = make_graph(family, n, 6.0, seed)
        # Three isolated nodes past the generator's range.
        net = BroadcastNetwork((n0 + 3, edges))
        rng = np.random.default_rng(seed)
        for _ in range(deltas + 1):
            for nodes in self.node_sets(net, rng):
                self.assert_filter_matches(net, nodes)
            und = net.undirected_edges()
            net.apply_delta(
                rng.integers(0, n0, size=(int(rng.integers(0, 12)), 2)),
                und[rng.random(und.shape[0]) < 0.2],
            )

    def test_switch_is_at_half_the_pairs(self):
        # A path 0-1-2-3-4: 8 directed pairs; degrees 1, 2, 2, 2, 1.
        net = BroadcastNetwork((5, [(i, i + 1) for i in range(4)]))
        src, dst = net.row_edges(np.array([0, 1, 4]))  # 4 of 8 pairs
        assert src.tolist() == [0, 1, 1, 4]
        assert dst.tolist() == [1, 0, 2, 3]
        src, dst = net.row_edges(np.array([0, 1, 2]))  # 5 of 8 pairs
        assert src is net.edge_src and dst is net.indices

    def test_undirected_edges_cached_until_the_topology_changes(self):
        net = BroadcastNetwork((4, [(0, 1), (1, 2)]))
        first = net.undirected_edges()
        assert net.undirected_edges() is first
        net.apply_delta(insert_edges=np.array([[2, 3]]))
        assert net.undirected_edges().tolist() == [[0, 1], [1, 2], [2, 3]]
        assert net.m == 3


class TestSubgraphDegrees:
    def test_all_members(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        mask = np.ones(3, dtype=bool)
        assert net.subgraph_degrees(mask).tolist() == [2, 2, 2]

    def test_partial_members(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        mask = np.array([True, False, True])
        assert net.subgraph_degrees(mask).tolist() == [1, 2, 1]

    def test_no_members(self):
        net = BroadcastNetwork((3, [(0, 1)]))
        assert net.subgraph_degrees(np.zeros(3, dtype=bool)).sum() == 0


# Every send path that charges a broadcast, as (bits per message, send).
# apply_delta's announcements cost ⌈log₂ n⌉ + 1 = 5 bits on 16 nodes.
SEND_PATHS = {
    "vector-round": (9, lambda net: net.account_vector_round(3, 9, phase="p")),
    "vector-rounds": (
        9,
        lambda net: net.account_vector_round(3, 9, phase="p", rounds=4),
    ),
    "apply-delta": (
        5,
        lambda net: net.apply_delta(
            insert_edges=[(1, 2)], delete_edges=[(0, 1)], phase="p"
        ),
    ),
}


class TestBroadcastRound:
    """Charging a broadcast round: the bandwidth cap on every send path."""

    def test_vector_round_bandwidth_enforced(self):
        net = BroadcastNetwork((2, [(0, 1)]), bandwidth_bits=8)
        with pytest.raises(BandwidthExceeded):
            net.account_vector_round(1, 9)

    @pytest.mark.parametrize("path", sorted(SEND_PATHS))
    def test_cap_on_every_send_path(self, path):
        bits, send = SEND_PATHS[path]
        graph = (16, [(0, 1), (3, 4)])

        over = BroadcastNetwork(graph, bandwidth_bits=bits - 1)
        over.account_vector_round(2, 1, phase="before")
        report = over.metrics.report()
        indptr, indices = over.indptr.copy(), over.indices.copy()
        with pytest.raises(BandwidthExceeded):
            send(over)
        assert over.metrics.report() == report
        assert np.array_equal(over.indptr, indptr)
        assert np.array_equal(over.indices, indices)

        at_cap = BroadcastNetwork(graph, bandwidth_bits=bits)
        send(at_cap)
        assert at_cap.metrics.max_message_bits == bits
        assert at_cap.metrics.phases["p"].max_message_bits == bits


class TestPackedAnnouncements:
    """apply_delta's charge, recomputed from the entries each live
    endpoint of an applied change packs into its broadcasts."""

    @staticmethod
    def packed_messages(initial, ins, dels, silent, per_message):
        """Each live sender's broadcasts, built entry by entry: node →
        list of messages, each a list of at most ``per_message``
        (neighbor, add) entries (all of a node's in one when ``None``).
        Also returns the source of every applied directed change."""
        def key(u, v):
            return (min(u, v), max(u, v))

        before = {key(u, v) for u, v in initial if u != v}
        deleted = {key(u, v) for u, v in dels if u != v} & before
        inserted = {key(u, v) for u, v in ins if u != v} - (before - deleted)
        entries: dict[int, list] = {}
        senders = []
        for add, side in ((False, deleted), (True, inserted)):
            for u, v in side:
                for a, b in ((u, v), (v, u)):
                    senders.append(a)
                    if a not in silent:
                        entries.setdefault(a, []).append((b, add))
        sent = {}
        for node, items in entries.items():
            k = per_message or len(items)
            sent[node] = [items[i : i + k] for i in range(0, len(items), k)]
        return sent, senders

    @given(st.data())
    @settings(max_examples=settings.default.max_examples, deadline=None)
    def test_charge_recomputed_from_payload(self, data):
        n = data.draw(st.integers(min_value=1, max_value=40))
        pair = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        # Duplicates, self-loops, no-op changes and unsorted, repeated
        # silent nodes come with the draws.
        initial = data.draw(st.lists(pair, max_size=80))
        live = [e for e in initial if e[0] != e[1]]
        dels = data.draw(st.lists(pair, max_size=10))
        if live:
            dels += data.draw(st.lists(st.sampled_from(live), max_size=25))
        ins = data.draw(st.lists(pair, max_size=30))
        departed = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        silent = set(departed)
        entry = math.ceil(math.log2(max(n, 2))) + 1  # one (neighbor, add) entry
        cap = data.draw(st.none() | st.integers(min_value=1, max_value=6 * entry))
        per_message = None if cap is None else max(cap // entry, 1)
        sent, senders = self.packed_messages(initial, ins, dels, silent, per_message)
        messages = [msg for msgs in sent.values() for msg in msgs]

        net = BroadcastNetwork((n, initial), bandwidth_bits=cap)
        net.account_vector_round(2, 1, phase="before")
        report = net.metrics.report()
        indptr, indices, delta = net.indptr.copy(), net.indices.copy(), net.delta

        def send():
            return net.apply_delta(
                np.array(ins).reshape(-1, 2),
                np.array(dels).reshape(-1, 2),
                phase="p",
                silent_nodes=np.array(departed, dtype=np.int64),
            )

        if cap is not None and cap < entry and messages:
            # A cap below one entry refuses the batch before it changes
            # anything.
            with pytest.raises(BandwidthExceeded):
                send()
            assert net.metrics.report() == report
            assert np.array_equal(net.indptr, indptr)
            assert np.array_equal(net.indices, indices)
            assert net.delta == delta
            return

        rep = send()
        rounds = max(map(len, sent.values()), default=0)
        payload = sum(map(len, messages)) * entry
        widest = max(map(len, messages), default=0) * entry
        assert rep.entry_bits == entry
        assert (rep.rounds, rep.messages) == (rounds, len(messages))
        assert (rep.payload_bits, rep.max_message_bits) == (payload, widest)
        if cap is not None:
            assert widest <= cap
        if per_message == 1:
            assert (rep.rounds, rep.messages, rep.payload_bits) == (
                one_per_round_charge(n, senders, silent)
            )
        after = net.metrics.report()
        for field, value in (
            ("rounds", rounds), ("messages", len(messages)), ("total_bits", payload)
        ):
            assert after["total"][field] - report["total"][field] == value
        if messages:
            assert after["p"] == {
                "rounds": rounds,
                "messages": len(messages),
                "total_bits": payload,
                "max_message_bits": widest,
            }
        else:
            assert "p" not in after


class TestVectorCollectives:
    def test_neighbor_sum(self):
        net = BroadcastNetwork((3, [(0, 1), (1, 2), (0, 2)]))
        out = net.neighbor_sum(np.array([1, 2, 4]))
        assert out.tolist() == [6, 5, 3]

    @given(edges_strategy())
    @settings(max_examples=25, deadline=None)
    def test_neighbor_sum_matches_bruteforce(self, graph):
        net = BroadcastNetwork(graph)
        vals = np.arange(net.n, dtype=np.int64)
        out = net.neighbor_sum(vals)
        for v in range(net.n):
            assert out[v] == sum(vals[u] for u in net.neighbors(v))


class TestSharedMetrics:
    def test_external_metrics_object(self):
        metrics = RoundMetrics()
        net = BroadcastNetwork((2, [(0, 1)]), metrics=metrics)
        net.account_vector_round(2, 4, phase="p")
        assert metrics.rounds_in("p") == 1
        assert metrics.total_bits == 8
