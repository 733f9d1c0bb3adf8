"""Construction of stabilizing follower controllers.

Once the criterion report says an instance is stable, every admissible
control law decomposes into: a stabilizing own-state gain S_i, the
aggregate gain N_i and offset kt_i solving the criterion's linear
equations, and a split of N_i - S_i over the follower's parents.
`synthesize` builds the default member of that family, `state_only_controller`
the state-only form available to multi-leader formations, and
`enumerate_family` samples the family along all three degrees of freedom
(gain perturbations, kernel moves of the equation solutions, split weights).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .controllers import ControllerSet, assemble_controller
from .criterion import CriterionReport, verify_controller
from .errors import NotStableError, SynthesisFailure
from .linalg import DEFAULT_TOLERANCES, Tolerances, is_hurwitz, stabilize
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


def _verified(spec, decomp, S, N, kt, weights, tol) -> tuple:
    """Assemble the controller from its parts and verify it; returns the
    controller and its `ControllerVerification`, and raises
    `SynthesisFailure` with both defects when verification fails."""
    ctrl = assemble_controller(decomp, spec.n, spec.m, S, N, kt, weights)
    ver = verify_controller(spec, decomp, ctrl, tol)
    if not ver.passed:
        raise SynthesisFailure(
            f"controller failed verification (matrix defect "
            f"{ver.max_matrix_defect:.3e}, offset defect {ver.max_offset_defect:.3e})"
        )
    return ctrl, ver


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
    return _verified(spec, decomp, dict(N), N, kt, PARENT_ONLY.resolve(spec, decomp), tol)[0]


_GAIN_TRIES = 50


def _perturbed_gain(A, B, S_base, rng, tol):
    """Random Hurwitz-preserving perturbation of a stabilizing gain;
    falls back to the base gain after ``_GAIN_TRIES`` rejections."""
    scale = 0.3 * (1.0 + float(np.linalg.norm(S_base, "fro")))
    for _ in range(_GAIN_TRIES):
        cand = S_base + scale * rng.uniform(0.1, 1.0) * rng.standard_normal(S_base.shape)
        if is_hurwitz(A + B @ cand, tol).is_hurwitz:
            return cand
    return S_base


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

    * a random Hurwitz-preserving perturbation of the default gain S_i,
    * a random kernel move of the equation solutions: N_i + V R and
      kt_i + V r with V an orthonormal basis of null(B_i) — every such
      move solves the same equations exactly,
    * random simplex split weights over the parents.

    Every sampled controller is re-verified; the sampler guarantees
    membership in the family, not coverage of it.  Same seed (or
    generator state) in, same controllers out.
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
    out = [_verified(spec, decomp, base_S, N0, kt0, split.resolve(spec, decomp), tol)]
    if count == 1:
        return out
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    # orthonormal bases of null(B_i): directions invisible to the follower's input
    kernels = {i: scipy.linalg.null_space(spec.agent(i).B) for i in followers}

    for _ in range(count - 1):
        S, N, kt, weights = {}, {}, {}, {}
        for i in followers:
            ag = spec.agent(i)
            S[i] = _perturbed_gain(ag.A, ag.B, base_S[i], rng, tol)
            V = kernels[i]
            if V.shape[1] > 0:
                N[i] = N0[i] + V @ rng.standard_normal((V.shape[1], spec.n))
                kt[i] = kt0[i] + V @ rng.standard_normal(V.shape[1])
            else:
                N[i] = N0[i]
                kt[i] = kt0[i]
            parents = spec.parents(i)
            if len(parents) == 1:
                weights[i] = {parents[0]: 1.0}
            else:
                w = rng.dirichlet(np.ones(len(parents)))
                weights[i] = {s: float(ws) for s, ws in zip(parents, w)}
        out.append(_verified(spec, decomp, S, N, kt, weights, tol))
    return out
