"""Integer hash families and b-bit minwise fingerprints.

The BCONGEST almost-clique decomposition (Lemma 2.5, implemented per
[FGH+23]'s strategy) needs every pair of adjacent nodes to estimate the
similarity of their neighborhoods from broadcast-size sketches.  We use
b-bit minwise hashing: per sample ``j`` a shared hash ``h_j`` (the top 32
bits of splitmix64) orders the vertex universe; each node's fingerprint is
the low ``b`` bits of the minimum hash over its closed neighborhood.  One
kernel computes them: per chunk of samples it hashes a node-major grid,
starts each node's minima from its own hash row, and folds its
neighbors in one slot at a time (a slot pass per neighbor rank, rows
sorted by degree), with hubs folding the rest of their rows in one
reduceat.  It serves :func:`minwise_fingerprints`, for every node or
for a node subset; a subset's rows are gathered and hashed over the
universe its closed neighborhoods span.
:func:`pack_fingerprints` packs the samples ⌊64/b⌋ per uint64 word, one
field at a time, for the SWAR similarity estimator.
Two nodes' fingerprints agree with probability ``J + (1-J)·2^{-b}`` where
``J`` is the Jaccard similarity of the closed neighborhoods — the
standard estimator, which
:func:`repro.decomposition.minhash.estimate_edge_similarity` inverts.

Since ``b`` is constant, ``Θ(log n)`` samples fit into one ``O(log n)``-bit
broadcast, giving the O(ε⁻⁴) round count of Lemma 2.5.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.simulator.network import gather_csr_rows

__all__ = [
    "hash_u64",
    "hash_array_u64",
    "mix_u64",
    "minwise_fingerprints",
    "pack_fingerprints",
    "packed_words_per_node",
]

_MASK64 = (1 << 64) - 1
# splitmix64 constants — a well-tested 64-bit mixer.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def hash_u64(value: int, salt: int = 0) -> int:
    """Deterministic 64-bit hash (splitmix64 finalizer) of ``value`` under
    ``salt``.  Pure-python scalar version of :func:`hash_array_u64`."""
    z = (int(value) + _GAMMA * (int(salt) + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix_u64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over an (any-shape) uint64 array.  The
    building block shared by :func:`hash_array_u64` and the counter-mode
    batch expansion in :mod:`repro.hashing.prg`."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z = z ^ (z >> np.uint64(31))
    return z


def hash_array_u64(values: np.ndarray, salt: int = 0) -> np.ndarray:
    """Vectorized splitmix64 over an int array (returns uint64)."""
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + np.uint64((_GAMMA * (int(salt) + 1)) & _MASK64)
    return mix_u64(z)


# Per-chunk hash budget of the fingerprint kernel: a chunk of Tc samples
# is sized so its node-major ``(|ids|, Tc)`` uint32 hash grid stays around
# this many bytes.  Chosen by a sweep of 256 KiB–4 MiB over the graphs the
# sketch serves: none ran slower than at 4 MiB (DESIGN.md §4).
_CHUNK_BYTES = 512 << 10
# The hash grid is mixed in row blocks of about this many bytes of uint64
# lanes, so the splitmix temporaries stay cache-sized.
_HASH_BLOCK_BYTES = 1 << 18
# Slot passes stop at the first slot that covers fewer hash lanes
# (rows × Tc) than this; rows still longer fold their remaining
# neighbors in one reduceat, so a hub costs O(1) numpy calls, not Δ.
_SLOT_MIN_LANES = 1 << 12


def _hash_grid(ids: np.ndarray, salts: np.ndarray) -> np.ndarray:
    """The node-major ``(|ids|, |salts|)`` uint32 grid of the top 32 bits
    of splitmix64 of each id under each salt (as in :func:`hash_array_u64`,
    salt s enters as the additive offset γ·(s + 1))."""
    grid = np.empty((ids.size, salts.size), dtype=np.uint32)
    offsets = (salts + np.uint64(1)) * np.uint64(_GAMMA)
    rows = max(1, _HASH_BLOCK_BYTES // (8 * salts.size))
    for r in range(0, ids.size, rows):
        with np.errstate(over="ignore"):
            block = mix_u64(ids[r : r + rows, None] + offsets)
        grid[r : r + rows] = block >> np.uint64(32)
    return grid


class _SlotPlan(NamedTuple):
    """How the kernel folds a CSR's rows.  Rows run in ``order``, by
    degree (descending, stable), so the rows with an s-th neighbor are
    always a prefix of it."""

    order: np.ndarray
    """Row ids in fold order."""
    slots: list[np.ndarray]
    """Pass s: the s-th neighbor of each of rows ``order[:slots[s].size]``."""
    tail: np.ndarray
    """The hubs' neighbors past the last pass, row after row.  The hubs
    are rows ``order[:tail_starts.size]``."""
    tail_starts: np.ndarray
    """Offset of each hub's run in ``tail``."""


def _slot_plan(indptr: np.ndarray, indices: np.ndarray, chunk: int) -> _SlotPlan:
    """The slot passes and the hub tail for chunks of ``chunk`` samples."""
    deg = np.diff(indptr)
    order = np.argsort(-deg, kind="stable")
    deg = deg[order]
    start = indptr[:-1][order]
    # widths[s]: rows with degree > s, i.e. with a neighbor in slot s.
    widths = deg.size - np.cumsum(np.bincount(deg))[:-1]
    passes = int(np.count_nonzero(widths * chunk >= _SLOT_MIN_LANES))
    slots = [indices[start[:w] + s] for s, w in enumerate(widths[:passes].tolist())]
    hubs = widths[passes] if passes < widths.size else 0
    lens = deg[:hubs] - passes
    tail = gather_csr_rows(indptr, indices, order[:hubs], skip=passes)
    return _SlotPlan(order, slots, tail, np.cumsum(lens) - lens)


def _closed_row_fingerprints(
    ids: np.ndarray,
    heads: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    num_samples: int,
    bits: int,
    salt: int,
) -> np.ndarray:
    """The one fingerprint kernel: ``(T, rows)`` b-bit minwise fingerprints
    of the closed rows ``[heads[r], indices[indptr[r]:indptr[r+1]]...]``.

    ``ids`` are the node ids of a hash universe; ``heads`` and ``indices``
    are positions into it.  Per chunk of Tc samples the kernel hashes the
    node-major ``(|ids|, Tc)`` grid (:func:`_hash_grid`), starts every
    row's minima from its head's hash row, and folds one neighbor slot at
    a time: with rows sorted by degree, slot s touches a prefix of them,
    so each pass gathers whole grid rows and takes an in-place
    elementwise minimum.  Once a slot covers fewer than
    ``_SLOT_MIN_LANES`` lanes, the rows still longer (hubs) fold their
    remaining neighbors with one axis-0 ``minimum.reduceat``, so a hub
    costs O(1) numpy calls per chunk instead of one per slot.
    """
    fps = np.empty((num_samples, heads.size), dtype=np.uint16)
    mask = np.uint32((1 << bits) - 1)
    base = int(salt) * int(num_samples)
    chunk = int(np.clip(_CHUNK_BYTES // (4 * ids.size), 1, num_samples))
    plan = _slot_plan(indptr, indices, chunk)
    heads = heads[plan.order]
    hubs = plan.tail_starts.size
    # The hubs fold ``step`` samples at a time, so their gather stays
    # within about one hash grid however long their rows are.
    step = max(1, ids.size * chunk // max(plan.tail.size, 1))
    for j0 in range(0, num_samples, chunk):
        j1 = min(j0 + chunk, num_samples)
        h = _hash_grid(ids, np.arange(base + j0, base + j1, dtype=np.uint64))
        acc = h.take(heads, axis=0)
        lanes = np.empty_like(acc)
        for nbr in plan.slots:
            # mode="clip" (a no-op: every index is in range) lets take
            # write straight into ``lanes`` instead of a buffered copy.
            got = h.take(nbr, axis=0, out=lanes[: nbr.size], mode="clip")
            np.minimum(acc[: nbr.size], got, out=acc[: nbr.size])
        for c in range(0, j1 - j0, step):
            cols = slice(c, c + step)
            rest = h[:, cols].take(plan.tail, axis=0)
            rest = np.minimum.reduceat(rest, plan.tail_starts, axis=0)
            np.minimum(acc[:hubs, cols], rest, out=acc[:hubs, cols])
        acc &= mask
        fps[j0:j1, plan.order] = acc.T
    return fps


def _node_fingerprints(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    nodes: np.ndarray,
    num_samples: int,
    bits: int,
    salt: int,
) -> np.ndarray:
    """The kernel on a node subset: ``(T, |nodes|)`` fingerprints whose
    column i is node ``nodes[i]``'s column of the all-nodes call.

    The listed rows are gathered as a sub-CSR (one fancy gather of their
    adjacency).  Their closed neighborhoods N[nodes] are marked in a
    length-n mask, whose nonzero positions are the hash universe; ids
    are renumbered into it through a dense position map, except when the
    universe is all of V, where ids already are positions.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    if nodes.size and (nodes.min() < 0 or nodes.max() >= n):
        raise ValueError(f"node id out of range [0, {n})")
    if nodes.size == 0 or num_samples == 0:
        return np.empty((num_samples, nodes.size), dtype=np.uint16)
    deg = indptr[nodes + 1] - indptr[nodes]
    sub_indptr = np.concatenate(([0], np.cumsum(deg)))
    nb = gather_csr_rows(indptr, indices, nodes)
    spanned = np.zeros(n, dtype=bool)
    spanned[nodes] = True
    spanned[nb] = True
    universe = np.flatnonzero(spanned)
    if universe.size < n:
        pos = np.cumsum(spanned) - 1
        nodes, nb = pos[nodes], pos[nb]
    return _closed_row_fingerprints(
        universe.astype(np.uint64), nodes, sub_indptr, nb, num_samples, bits, salt
    )


def minwise_fingerprints(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    num_samples: int,
    bits: int,
    salt: int = 0,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """b-bit minwise fingerprints of the *closed* neighborhoods.

    The sample loop is batched: a chunk of Tc hash functions is one
    splitmix64 evaluation over an ``(n, Tc)`` node×salt grid.  Each node's
    minima start from its own hash row; one slot pass per neighbor rank
    then gathers the s-th neighbor's row for every node that has one
    (rows sorted by degree, so those are a prefix) and takes an in-place
    elementwise minimum, and hubs fold the rest of their rows in one
    ``minimum.reduceat`` (see :func:`_closed_row_fingerprints`).

    With ``nodes`` the same kernel runs on those nodes' rows only,
    hashing just the universe their closed neighborhoods span, so the
    cost is ``O(T · |N[nodes]| + T · Σ deg(nodes))`` instead of
    ``O(T · (n + m))``.  Each fingerprint is a pure function of
    ``(salt, sample, N[v])``, so the columns equal the all-nodes call's.

    Hashes are the top 32 bits of splitmix64: halving the lane width
    halves gather traffic through the hot path, and at simulable n the
    probability that a 32-bit tie involves two distinct neighborhood
    members in any sample is ≈ |N[u] ∪ N[v]|²/2³³ — negligible against
    the 2^{-b} collision floor the estimator already debiases.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency of the graph.
    n:
        Number of nodes.
    num_samples:
        Number of independent hash functions (T).
    bits:
        Fingerprint width b (1..16).
    salt:
        Base salt; sample j uses ``salt*num_samples + j``.
    nodes:
        Node ids to fingerprint, in any order; None for every node.

    Returns
    -------
    ``(T, n)`` uint16 array of fingerprints, or with ``nodes`` a
    ``(T, |nodes|)`` one whose column i is node ``nodes[i]``'s.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    if nodes is not None:
        return _node_fingerprints(indptr, indices, n, nodes, num_samples, bits, salt)
    if n == 0 or num_samples == 0:
        return np.empty((num_samples, n), dtype=np.uint16)
    ids = np.arange(n, dtype=np.int64)
    return _closed_row_fingerprints(
        ids.astype(np.uint64), ids, indptr, indices, num_samples, bits, salt
    )


def packed_words_per_node(num_samples: int, bits: int) -> int:
    """Words per node of the packed layout: ⌈T / ⌊64/b⌋⌉."""
    fields = 64 // bits
    return -(-int(num_samples) // fields)


def pack_fingerprints(fps: np.ndarray, bits: int) -> np.ndarray:
    """Pack a ``(T, n)`` b-bit fingerprint matrix into ``(n, words)``
    uint64 words, ⌊64/b⌋ samples per word, node-major so each node's row
    is contiguous (per-edge XOR in the SWAR estimator streams two rows).

    Sample j lands in word ``j // fields`` at bit offset
    ``(j % fields) * bits``; unused tail fields (and the ``64 % b``
    leftover bits when b ∤ 64) stay zero, so XOR-ing two packed rows
    yields zero in every non-sample field.  Field f's samples
    ``fps[f::fields]`` are shifted and OR-ed into a word-major
    ``(words, n)`` array in one pass, so no temporary is larger than
    ``(words, n)``; the result is its C-contiguous transpose.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    num_samples, n = fps.shape
    fields = 64 // bits
    words = packed_words_per_node(num_samples, bits)
    if fps.size and int(fps.max()) >> bits:
        raise ValueError(f"fingerprint value exceeds {bits} bits")
    packed = np.zeros((words, n), dtype=np.uint64)
    for f in range(min(fields, num_samples)):
        field = fps[f::fields].astype(np.uint64)
        field <<= np.uint64(f * bits)
        packed[: field.shape[0]] |= field
    return np.ascontiguousarray(packed.T)
