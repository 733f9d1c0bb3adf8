"""Construction of stabilizing follower controllers.

Once the criterion report says an instance is stable, every admissible
control law decomposes into: a stabilizing own-state gain S_i, the
aggregate gain N_i and offset kt_i solving the criterion's linear
equations, and a split of N_i - S_i over the follower's parents.
`synthesize` builds the default member of that family, `state_only_controller`
the state-only form available to multi-leader formations, and
`enumerate_family` samples the family along all three degrees of freedom
(own-state gains inside the closed-form gain margin, which keeps a zero gain
zero; kernel moves of the equation solutions; split weights).  It certifies
that each sample is a member; it does not cover the family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .controllers import ControllerSet, assemble_controller
from .criterion import CriterionReport, verify_controller
from .errors import NotStableError, SynthesisFailure
from .linalg import DEFAULT_TOLERANCES, Tolerances, stabilize
from .model import FormationSpec, LevelDecomposition

__all__ = [
    "SplitStrategy",
    "PARENT_ONLY",
    "UNIFORM",
    "synthesize",
    "state_only_controller",
    "enumerate_family",
]


@dataclass(frozen=True)
class SplitStrategy:
    """How the aggregate parent gain N_i - S_i is split over parents.

    ``parent_only`` puts all of it on the designated parent (minimal
    communication: each follower listens to one agent), ``uniform``
    spreads it evenly, ``custom`` uses explicit per-follower weight maps
    (parent -> finite weight, summing to 1).
    """

    tag: str = "parent_only"
    weights: dict = field(default_factory=dict)  # follower -> {parent: weight}

    def __post_init__(self):
        if self.tag not in ("parent_only", "uniform", "custom"):
            raise ValueError(f"unknown split strategy {self.tag!r}")

    def resolve(self, spec: FormationSpec, decomp: LevelDecomposition) -> dict:
        """Per-follower weight maps over *all* parents (absent = 0)."""
        out = {}
        for i in decomp.followers():
            parents = spec.parents(i)
            if self.tag == "parent_only":
                w = {s: 0.0 for s in parents}
                w[decomp.parent[i]] = 1.0
            elif self.tag == "uniform":
                w = {s: 1.0 / len(parents) for s in parents}
            else:
                if i not in self.weights:
                    raise ValueError(f"custom strategy is missing weights for follower {i}")
                unknown = set(self.weights[i]) - set(parents)
                if unknown:
                    raise ValueError(
                        f"weights for follower {i} reference non-parents {sorted(unknown)}"
                    )
                w = {s: float(self.weights[i].get(s, 0.0)) for s in parents}
                for s, ws in w.items():
                    if not np.isfinite(ws):
                        raise ValueError(f"weight of parent {s} for follower {i} is {ws}")
                total = sum(w.values())
                if abs(total - 1.0) > 1e-12:
                    raise ValueError(
                        f"weights for follower {i} sum to {total}, expected 1"
                    )
            out[i] = w
        return out


PARENT_ONLY = SplitStrategy("parent_only")
UNIFORM = SplitStrategy("uniform")


def _require_stable(report: CriterionReport):
    if not report.stable:
        raise NotStableError(
            "instance is unstable per the criterion report; nothing to synthesize"
        )


def _solutions(report: CriterionReport) -> tuple[dict, dict]:
    """The gain-equation solutions N_i and kt_i of the report, by follower."""
    cond2 = report.condition2
    return {c.node: c.N for c in cond2}, {c.node: c.k_tilde for c in cond2}


def _assembled(spec, decomp, S, N, kt, weights, tol) -> tuple:
    """The controller built from its parts, and its one verification."""
    ctrl = assemble_controller(decomp, spec.n, spec.m, S, N, kt, weights)
    return ctrl, verify_controller(spec, decomp, ctrl, tol)


def _passed(member) -> tuple:
    """``member`` if its verification passed; else `SynthesisFailure` naming
    both defects and every follower loop that is not Hurwitz."""
    ver = member[1]
    if not ver.passed:
        loops = "".join(f"; follower {i} loop not Hurwitz, abscissa {h.spectral_abscissa:.3e}"
                        for i, h in sorted(ver.follower_hurwitz.items()) if not h.is_hurwitz)
        raise SynthesisFailure(
            f"controller failed verification (matrix defect {ver.max_matrix_defect:.3e}, "
            f"offset defect {ver.max_offset_defect:.3e}{loops})")
    return member


def synthesize(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    report: CriterionReport,
    strategy: SplitStrategy = PARENT_ONLY,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ControllerSet:
    """Build the default stabilizing controller for a stable instance: the
    family's member 0 (see `enumerate_family`), split by ``strategy``.

    S_i comes from `stabilize` on (A_i, B_i) (the Riccati gain, with a
    Bass-shift fallback), N_i and kt_i are the report's minimum-norm
    equation solutions, the parent gains follow ``strategy``, and the
    offsets k_i close the construction identities.  The result is
    re-verified before being returned.
    """
    return _enumerate_family(spec, decomp, report, 1, None, tol, strategy)[0][0]


def state_only_controller(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    report: CriterionReport,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ControllerSet:
    """State-only controller u_i = N_i (x_i + D_i) + kt_i.

    Available whenever all leader matrices coincide with a Hurwitz A_ref
    (always true for stable multi-leader instances): choosing S_i = N_i
    makes the follower's closed loop equal A_ref and zeroes every parent
    gain, so followers need neither parent states nor leader inputs.
    """
    _require_stable(report)
    if not report.condition4.hurwitz.is_hurwitz:
        raise NotStableError(
            "state-only form needs a Hurwitz reference leader matrix"
        )
    N, kt = _solutions(report)
    weights = PARENT_ONLY.resolve(spec, decomp)
    return _passed(_assembled(spec, decomp, dict(N), N, kt, weights, tol))[0]


def enumerate_family(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    report: CriterionReport,
    count: int,
    rng=0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[ControllerSet]:
    """Sample ``count`` members of the admissible controller family.

    Member 0 is the deterministic `synthesize` output with the default
    parent-only split.  Further members draw, per follower:

    * the gain L S_i inside the closed-form gain margin of S_i, so zero
      stays zero: L = I + c (G G^T + H - H^T), G and H standard normal
      m x m, c in [0.1, 1], has L + L^T >= 2I; the Riccati gain needs >= I
      (the LQR margin), the Bass gain >= 2I,
    * a random kernel move of the equation solutions: N_i + V R and
      kt_i + V r with V an orthonormal basis of null(B_i), possibly
      empty — every such move solves the same equations exactly,
    * random simplex split weights over the parents.

    A member's one verification is its only Hurwitz test; should roundoff
    break the margin, the failing followers take their default gain and
    are verified again.  Members are certified; the samples do not cover
    the family.  Same seed (or generator state) in, same controllers out.
    """
    return [ctrl for ctrl, _ in _enumerate_family(spec, decomp, report, count, rng, tol)]


def _enumerate_family(spec, decomp, report, count, rng, tol, split=PARENT_ONLY) -> list:
    """`enumerate_family`, as (controller, verification) pairs, with member
    0 split by ``split``; a one-member family draws no random numbers."""
    _require_stable(report)
    if count < 1:
        raise ValueError("count must be at least 1")
    followers = decomp.followers()
    base_S = {i: stabilize(spec.agent(i).A, spec.agent(i).B, tol) for i in followers}
    N0, kt0 = _solutions(report)
    out = [_passed(_assembled(spec, decomp, base_S, N0, kt0, split.resolve(spec, decomp), tol))]
    if count == 1:
        return out
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    # orthonormal bases of null(B_i): directions invisible to the follower's input
    kernels = {i: scipy.linalg.null_space(spec.agent(i).B) for i in followers}

    for _ in range(count - 1):
        S, N, kt, weights = {}, {}, {}, {}
        for i in followers:
            G, H = rng.standard_normal((2, spec.m, spec.m))
            S[i] = base_S[i] + rng.uniform(0.1, 1.0) * (G @ G.T + H - H.T) @ base_S[i]
            V = kernels[i]
            N[i] = N0[i] + V @ rng.standard_normal((V.shape[1], spec.n))
            kt[i] = kt0[i] + V @ rng.standard_normal(V.shape[1])
            parents = spec.parents(i)
            if len(parents) == 1:
                weights[i] = {parents[0]: 1.0}
            else:
                w = rng.dirichlet(np.ones(len(parents)))
                weights[i] = {s: float(ws) for s, ws in zip(parents, w)}
        member = _assembled(spec, decomp, S, N, kt, weights, tol)
        failed = [i for i, h in member[1].follower_hurwitz.items() if not h.is_hurwitz]
        if failed:  # roundoff broke what the margin promises: the base gain
            S.update((i, base_S[i]) for i in failed)
            member = _assembled(spec, decomp, S, N, kt, weights, tol)
        out.append(_passed(member))
    return out
