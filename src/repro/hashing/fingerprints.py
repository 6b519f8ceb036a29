"""Integer hash families and b-bit minwise fingerprints.

The BCONGEST almost-clique decomposition (Lemma 2.5, implemented per
[FGH+23]'s strategy) needs every pair of adjacent nodes to estimate the
similarity of their neighborhoods from broadcast-size sketches.  We use
b-bit minwise hashing: per sample ``j`` a shared hash ``h_j`` (the top 32
bits of splitmix64) orders the vertex universe; each node's fingerprint is
the low ``b`` bits of the minimum hash over its closed neighborhood.  One
kernel computes them, batched over sample chunks and gathered through
closed rows ``[v, N(v)...]``; it serves both the from-scratch
:func:`minwise_fingerprints` and the delta-aware
:func:`refresh_minwise_fingerprints`.  :func:`pack_fingerprints` packs
the samples ⌊64/b⌋ per uint64 word for the SWAR similarity estimator.
Two nodes' fingerprints agree with probability ``J + (1-J)·2^{-b}`` where
``J`` is the Jaccard similarity of the closed neighborhoods — the
standard estimator, which
:func:`repro.decomposition.minhash.estimate_edge_similarity` inverts.

Since ``b`` is constant, ``Θ(log n)`` samples fit into one ``O(log n)``-bit
broadcast, giving the O(ε⁻⁴) round count of Lemma 2.5.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "hash_u64",
    "hash_array_u64",
    "mix_u64",
    "minwise_fingerprints",
    "refresh_minwise_fingerprints",
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


# Per-chunk gather budget of the fingerprint kernel: a chunk of samples
# is sized so its gathered ``(Tc, nnz + rows)`` hash temporary stays
# around this many bytes.  Larger budgets were no faster and raised peak
# memory on the dense benchmark graph (DESIGN.md §4).
_CHUNK_BYTES = 4 << 20


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
    are positions into it.  Each row is laid out with its node at its head,
    so every row is non-empty and one axis-1 ``minimum.reduceat`` folds a
    whole chunk of samples.  Per chunk of Tc samples, the splitmix64 grid
    over ``(Tc, |ids|)`` is one vectorized mix (salt j enters as the
    additive offset γ·(salt_j + 1)); its top 32 bits are gathered through
    the closed rows, min-folded, and masked to ``bits``.
    """
    rows = heads.size
    fps = np.empty((num_samples, rows), dtype=np.uint16)
    starts = indptr[:-1] + np.arange(rows)
    closed = np.insert(indices, indptr[:-1], heads)
    mask = np.uint32((1 << bits) - 1)
    base = int(salt) * int(num_samples)
    chunk = int(np.clip(_CHUNK_BYTES // (4 * closed.size), 1, num_samples))
    for j0 in range(0, num_samples, chunk):
        j1 = min(j0 + chunk, num_samples)
        salts = np.arange(base + j0 + 1, base + j1 + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            h64 = mix_u64(ids[None, :] + salts[:, None] * np.uint64(_GAMMA))
        h = (h64 >> np.uint64(32)).astype(np.uint32)
        mins = np.minimum.reduceat(h.take(closed, axis=1), starts, axis=1)
        fps[j0:j1] = mins & mask
    return fps


def minwise_fingerprints(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    num_samples: int,
    bits: int,
    salt: int = 0,
) -> np.ndarray:
    """b-bit minwise fingerprints of the *closed* neighborhoods.

    The sample loop is batched: a chunk of Tc hash functions is one
    vectorized splitmix64 evaluation over a ``(Tc, n)`` salt×node grid,
    gathered through the closed rows ``[v, N(v)...]`` of the CSR and
    folded by one axis-1 ``minimum.reduceat`` (see
    :func:`_closed_row_fingerprints`).

    Hashes are the top 32 bits of splitmix64: halving the lane width
    halves gather traffic through the hot path, and at simulable n the
    probability that a 32-bit tie involves two distinct neighborhood
    members in any sample is ≈ |N[u] ∪ N[v]|²/2³³ — negligible against
    the 2^{-b} collision floor the estimator already debiases.

    Parameters
    ----------
    indptr, indices:
        CSR adjacency of the graph.
    num_samples:
        Number of independent hash functions (T).
    bits:
        Fingerprint width b (1..16).
    salt:
        Base salt; sample j uses ``salt*num_samples + j``.

    Returns
    -------
    ``(T, n)`` uint16 array of fingerprints.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    if n == 0 or num_samples == 0:
        return np.empty((num_samples, n), dtype=np.uint16)
    nodes = np.arange(n, dtype=np.int64)
    return _closed_row_fingerprints(
        nodes.astype(np.uint64), nodes, indptr, indices, num_samples, bits, salt
    )


def refresh_minwise_fingerprints(
    indptr: np.ndarray,
    indices: np.ndarray,
    n: int,
    num_samples: int,
    bits: int,
    salt: int,
    fps: np.ndarray,
    nodes: np.ndarray,
) -> np.ndarray:
    """Recompute only ``nodes``' columns of a ``(T, n)`` fingerprint
    matrix in place — byte-identical to a fresh
    :func:`minwise_fingerprints` call on the current CSR, restricted to
    the listed nodes.

    This is the delta-aware sketch maintenance path: a node's fingerprint
    is a pure function of ``(salt, sample, N[v])``, so after a topology
    delta only nodes whose *closed* neighborhood changed need re-hashing.
    The same kernel as :func:`minwise_fingerprints` runs over the
    sub-universe of the listed nodes and their current neighbors, so the
    cost is ``O(T · (|nodes| + Σ deg(nodes)))`` instead of
    ``O(T · (n + m))``.

    ``fps`` must have shape ``(num_samples, n)`` and dtype uint16, and
    ``salt``/``num_samples``/``bits`` must match the call that built it.
    Returns ``fps`` (mutated in place) for chaining.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    if fps.shape != (num_samples, n):
        raise ValueError(f"fps shape {fps.shape} != ({num_samples}, {n})")
    nodes = np.unique(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes[0] < 0 or nodes[-1] >= n):
        raise ValueError(f"node id out of range [0, {n})")
    if nodes.size == 0 or num_samples == 0:
        return fps
    # The listed nodes' rows as a sub-CSR (one fancy gather of their
    # adjacency), renumbered into the universe they and their neighbors span.
    deg = indptr[nodes + 1] - indptr[nodes]
    sub_indptr = np.concatenate(([0], np.cumsum(deg)))
    idx = np.arange(sub_indptr[-1], dtype=np.int64) + np.repeat(
        indptr[nodes] - sub_indptr[:-1], deg
    )
    nb = np.asarray(indices[idx], dtype=np.int64)
    universe = np.union1d(nodes, nb)
    fps[:, nodes] = _closed_row_fingerprints(
        universe.astype(np.uint64),
        np.searchsorted(universe, nodes),
        sub_indptr,
        np.searchsorted(universe, nb),
        num_samples,
        bits,
        salt,
    )
    return fps


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
    yields zero in every non-sample field.
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    num_samples, n = fps.shape
    fields = 64 // bits
    words = packed_words_per_node(num_samples, bits)
    if fps.size and int(fps.max()) >> bits:
        raise ValueError(f"fingerprint value exceeds {bits} bits")
    padded = np.zeros((n, words * fields), dtype=np.uint64)
    padded[:, :num_samples] = fps.T
    shifts = (np.arange(fields, dtype=np.uint64) * np.uint64(bits))[None, None, :]
    return np.bitwise_or.reduce(
        padded.reshape(n, words, fields) << shifts, axis=2
    )
