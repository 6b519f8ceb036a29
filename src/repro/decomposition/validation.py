"""Validation of Definition 2.2 and the Lemma 2.4 audit.

The validator is the single arbiter of decomposition quality used by tests
and experiments: given any labeling it checks

  (1)  V_sparse nodes are Ω(ε²Δ)-sparse (constant exposed as a parameter,
       since the paper's Ω hides one);
  (2a) |K| ≤ (1+ε)Δ;
  (2b) |N(v) ∩ K| ≥ (1−ε)Δ for every member v;
  (2c) |N(v) ∩ K| ≤ (1−ε/2)Δ for every non-member v;

and, as the Lemma 2.4 audit, that every member v of a clique is
(ε/2 · e_v)-sparse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.decomposition.acd import AlmostCliqueDecomposition, _outsider_counts, _own_counts
from repro.decomposition.sparsity import local_sparsity
from repro.simulator.network import BroadcastNetwork

__all__ = ["DecompositionReport", "validate_decomposition"]


@dataclass
class DecompositionReport:
    """Violation counts per property; ``ok`` when all are zero."""

    n: int
    num_cliques: int
    sparse_count: int
    violations_sparsity: int = 0  # property (1)
    violations_size: int = 0  # property (2a)
    violations_member_degree: int = 0  # property (2b)
    violations_outsider_degree: int = 0  # property (2c)
    lemma_2_4_violations: int = 0
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.violations_sparsity == 0
            and self.violations_size == 0
            and self.violations_member_degree == 0
            and self.violations_outsider_degree == 0
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "num_cliques": self.num_cliques,
            "sparse_count": self.sparse_count,
            "violations_sparsity": self.violations_sparsity,
            "violations_size": self.violations_size,
            "violations_member_degree": self.violations_member_degree,
            "violations_outsider_degree": self.violations_outsider_degree,
            "lemma_2_4_violations": self.lemma_2_4_violations,
            "ok": self.ok,
        }


def validate_decomposition(
    net: BroadcastNetwork,
    acd: AlmostCliqueDecomposition,
    sparsity_constant: float = 1.0 / 64.0,
    check_sparsity: bool = True,
    check_lemma_2_4: bool = True,
    max_details: int = 20,
) -> DecompositionReport:
    """Check Definition 2.2 for ``acd`` on ``net``.

    ``sparsity_constant`` is the hidden constant of property (1): sparse
    nodes must have ζ_v ≥ sparsity_constant · ε² · Δ.  Pass
    ``check_sparsity=False`` to skip the (expensive, centralized) triangle
    counting when only the structural properties matter.
    """
    labels = acd.labels
    eps = acd.eps
    delta = max(net.delta, 1)
    n = net.n
    report = DecompositionReport(
        n=n,
        num_cliques=acd.num_cliques,
        sparse_count=int((labels < 0).sum()),
    )
    own = _own_counts(net, labels)
    k = acd.num_cliques

    # (2a) clique sizes.
    if k:
        sizes = np.bincount(labels[labels >= 0], minlength=k)
        over = np.flatnonzero(sizes > (1.0 + eps) * delta)
        report.violations_size = int(over.size)
        for c in over[:max_details]:
            report.details.append(f"clique {c} has size {sizes[c]} > (1+eps)Δ")

    # (2b) member inside-degrees.
    member = labels >= 0
    if member.any() and k:
        mem_idx = np.flatnonzero(member)
        bad = own[mem_idx] < (1.0 - eps) * delta
        report.violations_member_degree = int(bad.sum())
        for v in mem_idx[bad][:max_details]:
            report.details.append(
                f"node {v} in clique {labels[v]} has inside degree below (1-eps)Δ"
            )

    # (2c) outsider inside-degrees.
    if k:
        v_arr, c_arr, cnt_arr = _outsider_counts(net, labels, k)
        bad_mask = cnt_arr > (1.0 - eps / 2.0) * delta
        report.violations_outsider_degree = int(bad_mask.sum())
        for v, c in list(zip(v_arr[bad_mask], c_arr[bad_mask]))[:max_details]:
            report.details.append(
                f"outsider {v} sees more than (1-eps/2)Δ of clique {c}"
            )

    sparsity = None
    if check_sparsity and (labels < 0).any():
        sparsity = local_sparsity(net)
        threshold = sparsity_constant * eps * eps * delta
        sparse_idx = np.flatnonzero(labels < 0)
        bad = sparsity[sparse_idx] < threshold
        report.violations_sparsity = int(bad.sum())
        for v in sparse_idx[bad][:max_details]:
            report.details.append(
                f"sparse node {v} has sparsity {sparsity[v]:.2f} < {threshold:.2f}"
            )

    if check_lemma_2_4 and k:
        if sparsity is None:
            sparsity = local_sparsity(net)
        # e_v = |N(v) \ K| for members.
        mem_idx = np.flatnonzero(member)
        ev = net.degrees[mem_idx] - own[mem_idx]
        # Lemma 2.4: members are (eps/2 · e_v)-sparse.
        bad = sparsity[mem_idx] + 1e-9 < (eps / 2.0) * ev
        report.lemma_2_4_violations = int(bad.sum())
        for v in mem_idx[bad][:max_details]:
            report.details.append(f"member {v} violates the Lemma 2.4 sparsity bound")

    return report
