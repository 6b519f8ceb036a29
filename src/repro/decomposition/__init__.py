"""Sparse-dense decomposition (§2.1 of the paper).

* :mod:`repro.decomposition.sparsity` — exact sparsity ζ_v (Definition 2.1)
  via per-edge triangle counting on the CSR.
* :mod:`repro.decomposition.minhash` — BCONGEST similarity sketches
  (b-bit minwise hashing with round/bit accounting).
* :mod:`repro.decomposition.acd` — the ε-almost-clique decomposition
  (Definition 2.2): a centralized exact reference and the distributed
  broadcast protocol in the style of [FGH+23] (Lemma 2.5).
* :mod:`repro.decomposition.validation` — property checker for Def. 2.2
  plus the Lemma 2.4 audit.
"""

from repro.decomposition.sparsity import local_sparsity, triangle_counts
from repro.decomposition.acd import (
    AlmostCliqueDecomposition,
    decompose_exact,
    decompose_distributed,
)
from repro.decomposition.validation import validate_decomposition, DecompositionReport

__all__ = [
    "local_sparsity",
    "triangle_counts",
    "AlmostCliqueDecomposition",
    "decompose_exact",
    "decompose_distributed",
    "validate_decomposition",
    "DecompositionReport",
]
