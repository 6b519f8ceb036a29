"""Shared plain-Python test helpers (not fixtures)."""

from __future__ import annotations

import numpy as np

from repro.decomposition.acd import SPARSE, AlmostCliqueDecomposition, _build
from repro.decomposition.minhash import compute_sketches, estimate_edge_similarity
from repro.simulator.network import BroadcastNetwork
from repro.simulator.rng import SeedSequencer


def brute_force_proper(net: BroadcastNetwork, colors: np.ndarray) -> bool:
    """O(m) reference propriety check used to cross-validate the library's
    own verifiers."""
    for u, v in net.undirected_edges():
        if colors[u] >= 0 and colors[u] == colors[v]:
            return False
    return True


def clique_leftover_count(colors: np.ndarray, members: np.ndarray) -> int:
    return int((colors[members] < 0).sum())


def unpacked_edge_similarity(net: BroadcastNetwork, sketch) -> np.ndarray:
    """Reference ACD similarity estimator: compare the raw (T × m)
    fingerprint gather per edge, then debias exactly as
    :func:`repro.decomposition.minhash.estimate_edge_similarity` does.
    The oracle the packed SWAR estimator must match bit for bit."""
    edges = net.undirected_edges()
    if edges.size == 0:
        return np.empty(0, dtype=np.float64)
    fps = sketch.fingerprints
    eq = fps[:, edges[:, 0]] == fps[:, edges[:, 1]]
    matches = eq.sum(axis=0, dtype=np.int64)
    rate = matches / sketch.samples
    floor = 2.0 ** (-sketch.bits_per_sample)
    return np.clip((rate - floor) / (1.0 - floor), 0.0, 1.0)


def all_nodes_decomposition(net: BroadcastNetwork, cfg, sketch=None):
    """Reference ACD: fingerprint every node (or take ``sketch``, which
    must cover every node), estimate every edge, then build.  The oracle
    that :func:`repro.decomposition.acd.decompose_distributed` (without
    ``sketch``) and :func:`~repro.decomposition.acd.decompose_from_sketch`
    (with it), which read only the edges around the dense candidates,
    must match in labels, rounds and bits."""
    if net.m == 0:
        return AlmostCliqueDecomposition(
            labels=np.full(net.n, SPARSE, dtype=np.int64), eps=cfg.eps
        )
    if sketch is None:
        salt = SeedSequencer(cfg.seed).derive_seed("acd-hash") % (1 << 31)
        sketch = compute_sketches(
            net, cfg.acd_minhash_samples, cfg.acd_minhash_bits, salt=salt
        )
    similarity = estimate_edge_similarity(net, sketch)
    return _build(net, similarity, cfg, rounds_used=sketch.rounds_used)
