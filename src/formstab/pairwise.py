"""Two-agent subformation analysis.

Each edge (i, j), taken alone as a two-agent formation, is stable exactly
when (A_i, B_i) is stabilizable and the equations B_i N = A_j - A_i and
B_i kt = A_i d_ij are solvable.  Pairwise stability neither implies nor is
implied by stability of the whole formation; `cross_compare` classifies an
instance by which of the four agreement/disagreement patterns it exhibits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import criterion as _criterion
from .errors import FormationValidationError
from .linalg import (
    DEFAULT_TOLERANCES,
    LinearSolveReport,
    StabilizabilityResult,
    Tolerances,
)
from .model import FormationSpec, LevelDecomposition

__all__ = [
    "EdgeAnalysis",
    "PairwiseReport",
    "CrossComparison",
    "analyze_pairs",
    "cross_compare",
    "BOTH_STABLE",
    "BOTH_UNSTABLE",
    "PAIRS_STABLE_FORMATION_UNSTABLE",
    "FORMATION_STABLE_PAIR_UNSTABLE",
]

BOTH_STABLE = "both-stable"
BOTH_UNSTABLE = "both-unstable"
PAIRS_STABLE_FORMATION_UNSTABLE = "pairs-stable-formation-unstable"
FORMATION_STABLE_PAIR_UNSTABLE = "formation-stable-pair-unstable"


@dataclass(frozen=True)
class EdgeAnalysis:
    """Stability analysis of one two-agent subformation: ``stable`` when
    the PBH test passed and both equations are solvable."""

    edge: tuple
    stabilizable: StabilizabilityResult
    gain_solve: LinearSolveReport  # B_i N = A_j - A_i
    offset_solve: LinearSolveReport  # B_i kt = A_i d_ij

    @property
    def stable(self) -> bool:
        return bool(self.stabilizable) and self.gain_solve.solvable and self.offset_solve.solvable

    def to_dict(self):
        return {
            "edge": list(self.edge),
            "stabilizable": self.stabilizable.stabilizable,
            "witness": None
            if self.stabilizable.witness is None
            else [self.stabilizable.witness.real, self.stabilizable.witness.imag],
            "gain_equation": self.gain_solve.to_dict(),
            "offset_equation": self.offset_solve.to_dict(),
            "stable": self.stable,
        }


@dataclass(frozen=True)
class PairwiseReport:
    edges: tuple

    @property
    def all_stable(self) -> bool:
        return all(e.stable for e in self.edges)

    def entry(self, key) -> EdgeAnalysis:
        for e in self.edges:
            if e.edge == tuple(key):
                return e
        raise KeyError(f"edge {key} not in report")

    def to_dict(self):
        return {"edges": [e.to_dict() for e in self.edges]}

    def format_table(self) -> str:
        lines = ["pairwise subformation verdicts:"]
        for e in self.edges:
            mark = "stable" if e.stable else "UNSTABLE"
            lines.append(
                f"  edge {e.edge}: {mark}  stabilizable={e.stabilizable.stabilizable}"
                f"  gain rel.residual={e.gain_solve.relative_residual:.3e}"
                f"  offset rel.residual={e.offset_solve.relative_residual:.3e}"
            )
        return "\n".join(lines)


def analyze_pairs(
    spec: FormationSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> PairwiseReport:
    """Analyze every edge as an isolated two-agent formation.

    Independent of the global level decomposition: the follower's offset
    equation uses the edge displacement d_ij directly.  The PBH tests run
    as one stack over the edges' followers, and each follower's equations
    as one least-squares solve; the results are bitwise those of per-item
    calls.  A wrong-shaped agent matrix or a NaN or inf raises `validate`'s violations.
    """
    if spec._wrong_shapes or spec._non_finite:
        raise FormationValidationError(spec._wrong_shapes + spec._non_finite)
    followers = sorted({e.i for e in spec.edges})
    stab = _criterion._pbh(spec, followers, tol)
    return _analyze_edges(spec, dict(zip(followers, stab)), tol)


def _analyze_edges(spec: FormationSpec, stab: dict, tol: Tolerances) -> PairwiseReport:
    """Edge analyses from per-follower PBH verdicts ``stab`` (id -> result),
    with one solve per follower over all of its edges' equations and the
    residuals of every edge's equations as stacks (`linalg._solve_stack`)."""
    by_follower = {}
    for k, e in enumerate(spec.edges):
        by_follower.setdefault(e.i, []).append(k)
    order = [k for edges in by_follower.values() for k in edges]
    starts = np.cumsum([0] + [len(edges) for edges in by_follower.values()]).tolist()
    ends_i, ends_j = spec.edge_ends
    i, j = ends_i[order], ends_j[order]
    A, d = spec.A_stack, spec.d_rows[order]
    with np.errstate(over="ignore", invalid="ignore"):  # the solves name an overflow
        solves = _criterion._follower_solves(
            list(by_follower), spec.B_stack[i], (A[j] - A[i], (A[i] @ d[:, :, None])[:, :, 0]),
            starts, tol)
    solves = dict(zip(order, solves))
    return PairwiseReport(edges=tuple(
        EdgeAnalysis(e.key, stab[e.i], *solves[k]) for k, e in enumerate(spec.edges)
    ))


@dataclass(frozen=True)
class CrossComparison:
    """Whole-formation verdict vs. the conjunction of pairwise verdicts;
    both verdicts and their agreement ``pattern`` derive from the two
    reports."""

    criterion: _criterion.CriterionReport
    pairwise: PairwiseReport

    @property
    def formation_stable(self) -> bool:
        return self.criterion.stable

    @property
    def pairs_all_stable(self) -> bool:
        return self.pairwise.all_stable

    @property
    def pattern(self) -> str:
        f_ok, p_ok = self.formation_stable, self.pairs_all_stable
        if f_ok and p_ok:
            return BOTH_STABLE
        if not f_ok and not p_ok:
            return BOTH_UNSTABLE
        if p_ok:
            return PAIRS_STABLE_FORMATION_UNSTABLE
        return FORMATION_STABLE_PAIR_UNSTABLE

    def to_dict(self):
        return {
            "pattern": self.pattern,
            "formation_stable": self.formation_stable,
            "pairs_all_stable": self.pairs_all_stable,
            "criterion": self.criterion.to_dict(),
            "pairwise": self.pairwise.to_dict(),
        }


def cross_compare(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CrossComparison:
    """Classify the instance by formation-vs-pairwise (dis)agreement.

    The pairwise analysis reuses the criterion's PBH verdicts; both sides
    evaluate per-instance stacks (see `check` and `analyze_pairs`), with
    results bitwise those of per-item calls.
    """
    rep = _criterion.check(spec, decomp, tol)
    pw = _analyze_edges(spec, {c.node: c.result for c in rep.condition1}, tol)
    return CrossComparison(criterion=rep, pairwise=pw)
