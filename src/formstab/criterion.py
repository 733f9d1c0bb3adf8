"""Internal-stability decision for linear formations.

A weakly connected acyclic formation of linear agents admits affine
follower controls with an input-to-state error bound exactly when

  1. every follower pair (A_i, B_i) is stabilizable,
  2. for every follower the linear equations B_i N_i = A_ref - A_i and
     B_i kt_i = A_i D_i are solvable (A_ref is the reference leader's
     state matrix),
  3. every edge displacement satisfies d_ij = D_i - D_j, and
  4. when there is more than one leader: all leader state matrices
     coincide and that common matrix is Hurwitz.

`check` evaluates all four with numeric evidence and never short-circuits;
`verify_controller` tests a user-supplied control law against the same
algebra; `classify` tags the instance with the special-case family it
falls into (multi-leader, or in-tree where condition 3 is vacuous).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controllers import ControllerSet, _check_structure, _fold
from .linalg import (
    DEFAULT_TOLERANCES,
    HurwitzReport,
    LinearSolveReport,
    StabilizabilityResult,
    Tolerances,
    _FloatRangeError,
    _frobenius_norms,
    _hurwitz_reports,
    _solve_stack,
    _sorted_eigenvalues,
    is_hurwitz,
    is_stabilizable,
)
from .model import FormationSpec, LevelDecomposition

__all__ = [
    "StabilizabilityCheck",
    "GainEquationCheck",
    "DisplacementCheck",
    "LeaderConsistencyCheck",
    "CriterionReport",
    "ControllerVerification",
    "check",
    "verify_controller",
    "classify",
    "CASE_NONE",
    "CASE_MULTI_LEADER",
    "CASE_IN_TREE",
]

CASE_NONE = "none"
CASE_MULTI_LEADER = "multi_leader"
CASE_IN_TREE = "in_tree"


@dataclass(frozen=True)
class StabilizabilityCheck:
    """Condition 1 for one follower."""

    node: int
    result: StabilizabilityResult
    implied: bool  # condition follows from 2 + 4 in the multi-leader case

    @property
    def passed(self) -> bool:
        return self.result.stabilizable or self.implied

    def to_dict(self):
        return {
            "node": self.node,
            "stabilizable": self.result.stabilizable,
            "witness": None
            if self.result.witness is None
            else [self.result.witness.real, self.result.witness.imag],
            "implied": self.implied,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class GainEquationCheck:
    """Condition 2 for one follower: solvability of the aggregate-gain and
    offset equations, with the minimum-norm solutions N_i and kt_i."""

    node: int
    gain_solve: LinearSolveReport  # B_i N_i = A_ref - A_i
    offset_solve: LinearSolveReport  # B_i kt_i = A_i D_i

    @property
    def passed(self) -> bool:
        return self.gain_solve.solvable and self.offset_solve.solvable

    @property
    def N(self) -> np.ndarray:
        return self.gain_solve.solution

    @property
    def k_tilde(self) -> np.ndarray:
        return self.offset_solve.solution

    def to_dict(self):
        return {
            "node": self.node,
            "gain_equation": self.gain_solve.to_dict(),
            "offset_equation": self.offset_solve.to_dict(),
            "passed": self.passed,
        }


@dataclass(frozen=True)
class DisplacementCheck:
    """Condition 3 for one edge: defect d_ij - (D_i - D_j)."""

    edge: tuple
    defect: np.ndarray
    defect_norm: float
    passed: bool

    def to_dict(self):
        return {
            "edge": list(self.edge),
            "defect": self.defect.tolist(),
            "defect_norm": self.defect_norm,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class LeaderConsistencyCheck:
    """Condition 4: leader matrices equal and Hurwitz.  Binding only with
    more than one leader (one ``defects`` entry each); for a single leader
    the Hurwitz report is kept as information (the formation can be
    stable around an unstable leader), and ``passed`` is vacuously true."""

    defects: dict  # leader id -> ||A_i - A_ref||_F
    hurwitz: HurwitzReport
    passed: bool

    @property
    def binding(self) -> bool:
        return len(self.defects) > 1

    def to_dict(self):
        return {
            "defects": {str(i): d for i, d in sorted(self.defects.items())},
            "hurwitz": self.hurwitz.to_dict(),
            "binding": self.binding,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class CriterionReport:
    """Full evidence for the stability verdict of one instance; the
    verdict is the conjunction of every condition's ``passed``."""

    condition1: tuple
    condition2: tuple
    condition3: tuple
    condition4: LeaderConsistencyCheck
    applicable_corollary: str
    reference_leader: int
    scale: float

    @property
    def stable(self) -> bool:
        conditions = self.condition1 + self.condition2 + self.condition3
        return self.condition4.passed and all(c.passed for c in conditions)

    @property
    def overall(self) -> str:
        return "stable" if self.stable else "unstable"

    @property
    def condition3_vacuous(self) -> bool:
        return self.applicable_corollary == CASE_IN_TREE

    def gain_solution(self, i: int) -> GainEquationCheck:
        for entry in self.condition2:
            if entry.node == i:
                return entry
        raise KeyError(f"node {i} is not a follower of this instance")

    def to_dict(self):
        return {
            "overall": self.overall,
            "applicable_corollary": self.applicable_corollary,
            "reference_leader": self.reference_leader,
            "scale": self.scale,
            "condition1": [c.to_dict() for c in self.condition1],
            "condition2": [c.to_dict() for c in self.condition2],
            "condition3": [c.to_dict() for c in self.condition3],
            "condition3_vacuous": self.condition3_vacuous,
            "condition4": self.condition4.to_dict(),
        }

    def format_table(self) -> str:
        """Human-readable condition-by-condition summary."""
        lines = [f"verdict: {self.overall}  (corollary: {self.applicable_corollary})"]
        lines.append("condition 1 (follower stabilizability):")
        for c in self.condition1:
            mark = "pass" if c.passed else "FAIL"
            extra = " [implied]" if c.implied and not c.result.stabilizable else ""
            wit = "" if c.result.witness is None else f"  witness={c.result.witness:.6g}"
            lines.append(f"  node {c.node}: {mark}{extra}{wit}")
        lines.append("condition 2 (gain/offset equations):")
        for c in self.condition2:
            mark = "pass" if c.passed else "FAIL"
            lines.append(
                f"  node {c.node}: {mark}  gain rel.residual={c.gain_solve.relative_residual:.3e}"
                f"  offset rel.residual={c.offset_solve.relative_residual:.3e}"
            )
        vac = "  (vacuous: in-tree)" if self.condition3_vacuous else ""
        lines.append(f"condition 3 (displacement consistency):{vac}")
        for c in self.condition3:
            mark = "pass" if c.passed else "FAIL"
            lines.append(
                f"  edge {c.edge}: {mark}  defect_norm={c.defect_norm:.3e}"
                f"  defect={np.array2string(c.defect, precision=6)}"
            )
        c4 = self.condition4
        role = "binding" if c4.binding else "informational"
        mark = "pass" if c4.passed else "FAIL"
        lines.append(f"condition 4 (leader consistency, {role}): {mark}")
        for i, d in sorted(c4.defects.items()):
            lines.append(f"  leader {i}: ||A_i - A_ref||_F = {d:.3e}")
        lines.append(
            f"  reference leader {self.reference_leader}: "
            f"spectral abscissa {c4.hurwitz.spectral_abscissa:.6g} "
            f"({'Hurwitz' if c4.hurwitz.is_hurwitz else 'not Hurwitz'})"
        )
        return "\n".join(lines)


def classify(spec: FormationSpec, decomp: LevelDecomposition) -> str:
    """Special-case tag: multi_leader (more than one leader), in_tree
    (single leader, every follower has exactly one parent), or none."""
    if decomp.l0 > 1:
        return CASE_MULTI_LEADER
    if all(len(spec.parents(i)) == 1 for i in decomp.followers()):
        return CASE_IN_TREE
    return CASE_NONE


def _defect_scale(d: np.ndarray, A_ref: np.ndarray) -> float:
    """1 + ||A_ref||_F + max ||d_ij||, the scale of the defect tolerances of
    conditions 3 and 4 and of `verify_controller`.  Raises `ValueError`
    when it overflows, since every defect would pass against an infinite
    scale."""
    with np.errstate(over="ignore"):
        max_d = float(np.max(_frobenius_norms(d), initial=0.0))
        scale = 1.0 + float(np.linalg.norm(A_ref, "fro")) + max_d
    if not math.isfinite(scale):
        raise ValueError(
            "the defect scale 1 + ||A_ref||_F + max ||d_ij|| overflows: the "
            "reference leader's matrix or a displacement is too large for the float range"
        )
    return scale


def _pbh(spec: FormationSpec, nodes, tol: Tolerances) -> tuple:
    """`is_stabilizable` of the pairs (A_i, B_i) of ``nodes``, as one stack.
    A pair too large for the float range is a `ValueError` naming its node."""
    rows = np.array(nodes, dtype=int) - 1
    try:
        return is_stabilizable(spec.A_stack[rows], spec.B_stack[rows], tol)
    except _FloatRangeError as exc:
        raise ValueError(f"follower {nodes[exc.item]}: {exc}") from None


def _follower_solves(followers, B, blocks, starts, tol: Tolerances) -> tuple:
    """`_solve_stack` of the followers' equations, follower t owning the
    units ``starts[t]:starts[t + 1]``; data too large for the float range
    is a `ValueError` naming the first follower whose equations overflow."""
    try:
        return _solve_stack(B, blocks, starts, tol)
    except _FloatRangeError as exc:
        raise ValueError(f"follower {followers[exc.item]}: {exc}") from None


def check(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CriterionReport:
    """Evaluate the full stability criterion, never short-circuiting.

    All four conditions are computed for every follower/edge/leader so the
    report carries complete evidence; the verdict is their conjunction.
    Condition 4 binds only when there is more than one leader.  In the
    multi-leader case with conditions 2 and 4 passing, condition 1 is
    implied (take S_i = N_i) and reported as such, though the PBH test is
    still run for diagnostics.

    Each fact is evaluated over a per-instance stack, with results bitwise
    those of per-item calls: one PBH test over all followers, one
    least-squares solve per follower for both of its equations, the
    residuals of all of those as stacks (`linalg._solve_stack`), and one
    norm computation over all edge defects; conditions 2 and 3 index the
    decomposition's offset stack ``offset_rows``.  Data so large that the
    defect scale, a follower's PBH test or its equations overflow raises
    `ValueError` naming the cause.
    """
    ref = decomp.renumbering[0]
    A_ref = spec.agent(ref).A
    scale = _defect_scale(spec.d_rows, A_ref)
    special_case = classify(spec, decomp)
    followers = decomp.followers()
    offsets = decomp.offset_rows

    stab_results = _pbh(spec, followers, tol)
    rows = np.array(followers, dtype=int) - 1
    A_f = spec.A_stack[rows]
    with np.errstate(over="ignore", invalid="ignore"):  # the solves name an overflow
        rhs = (A_ref - A_f, (A_f @ offsets[rows, :, None])[:, :, 0])
        solves = _follower_solves(followers, spec.B_stack[rows], rhs,
                                  range(len(followers) + 1), tol)
    cond2 = tuple(
        GainEquationCheck(node=i, gain_solve=gain, offset_solve=offset)
        for i, (gain, offset) in zip(followers, solves)
    )
    cond2_ok = all(c.passed for c in cond2)

    ends_i, ends_j = spec.edge_ends
    defects = spec.d_rows - (offsets[ends_i] - offsets[ends_j])
    cond3 = tuple(
        DisplacementCheck(
            edge=key,
            defect=defect,
            defect_norm=float(norm),
            passed=bool(norm <= tol.eps_solve * scale),
        )
        for key, defect, norm in zip(spec.edge_keys, defects, _frobenius_norms(defects))
    )

    leaders = sorted(decomp.leaders)
    leader_A = spec.A_stack[np.array(leaders) - 1]
    defects = dict(zip(leaders, _frobenius_norms(leader_A - A_ref).tolist()))
    hw = is_hurwitz(A_ref, tol)
    cond4_ok = decomp.l0 == 1 or (
        hw.is_hurwitz and all(d <= tol.eps_solve * scale for d in defects.values())
    )
    cond4 = LeaderConsistencyCheck(defects=defects, hurwitz=hw, passed=cond4_ok)

    implied = special_case == CASE_MULTI_LEADER and cond2_ok and cond4_ok
    cond1 = tuple(
        StabilizabilityCheck(node=i, result=result, implied=implied)
        for i, result in zip(followers, stab_results)
    )
    return CriterionReport(
        condition1=cond1,
        condition2=cond2,
        condition3=cond3,
        condition4=cond4,
        applicable_corollary=special_case,
        reference_leader=ref,
        scale=scale,
    )


@dataclass(frozen=True)
class ControllerVerification:
    """Result of checking a concrete control law against the closed-loop
    matching equations: M_i = A_i + B_i N_i and
    m_i = B_i kt_i - A_i D_i must agree across every edge, and every
    follower's own-state closed loop must be Hurwitz."""

    max_matrix_defect: float
    max_offset_defect: float
    edge_matrix_defects: dict
    edge_offset_defects: dict
    follower_hurwitz: dict  # follower id -> HurwitzReport for A_i + B_i S_i
    passed: bool
    scale: float

    def to_dict(self):
        return {
            "max_matrix_defect": self.max_matrix_defect,
            "max_offset_defect": self.max_offset_defect,
            "edge_matrix_defects": {str(e): d for e, d in self.edge_matrix_defects.items()},
            "edge_offset_defects": {str(e): d for e, d in self.edge_offset_defects.items()},
            "follower_hurwitz": {
                str(i): h.to_dict() for i, h in sorted(self.follower_hurwitz.items())
            },
            "passed": self.passed,
            "scale": self.scale,
        }


def verify_controller(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    ctrl: ControllerSet,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ControllerVerification:
    """Check a control law against the necessary closed-loop identities.

    Computes M_i = A_i + B_i (S_i + sum_s K_is) and
    m_i = B_i (k_i - S_i D_i - sum_s K_is D_s) - A_i D_i for every agent
    (leaders use zero gains) and reports the worst mismatch across edges.
    The aggregate gain and offset are derived from the law (S, K, k) that
    `simulate` runs; the controller's stored ``k_tilde`` is not trusted.
    Passes when both defects stay within eps_solve * scale and every
    *follower* closed loop A_i + B_i S_i is Hurwitz — leader matrices are
    exempt, since a single-leader formation may be stable around an
    unstable leader.  A controller that does not fit the instance (dims,
    follower ids, gain or offset shapes, or parent keys) raises
    `ValueError`, as does a defect scale that overflows.

    The controller's stacks (`ControllerSet._stacks`) give the follower
    ids, the (follower, parent) pairs, S, k, the parent gains and N, so an
    assembled controller is never walked follower by follower, and the
    decomposition's ``offset_rows`` gives every D_i; the sums over a
    follower's parents are slot-ordered folds (`controllers._fold`),
    which are Python's sequential sums bit for bit.  The products
    A_i + B_i N_i, B_i kt_i - A_i D_i and A_i + B_i S_i are stacked
    matmuls over the followers, the Hurwitz tests one stack and the edge
    defects one norm computation; the results are bitwise those of
    per-item calls.  A NaN defect fails the check, and so does a closed
    loop A_i + B_i S_i that is not finite: its report has a NaN abscissa
    and is not Hurwitz.
    """
    _check_structure(spec, decomp, ctrl)
    scale = _defect_scale(spec.d_rows, spec.agent(decomp.renumbering[0]).A)

    law = ctrl._stacks
    k, n = len(law.followers), spec.n
    A, B, rows = spec.A_stack, spec.B_stack, np.array(law.followers, dtype=int) - 1
    A_f, B_f = A[rows], B[rows]
    offsets = decomp.offset_rows.reshape(spec.l, n, 1)
    KD = _fold(law.K @ offsets[law.parents - 1], law.rows, law.slots, k)
    kt = law.k[:, :, None] - law.S @ offsets[rows] - KD
    M = A.copy()  # a leader's gains are zero
    M[rows] = A_f + B_f @ law.N
    mvec = -A @ offsets
    mvec[rows] = B_f @ kt - A_f @ offsets[rows]
    loops = A_f + B_f @ law.S
    finite = np.isfinite(loops).all(axis=(1, 2))  # a NaN or inf loop has no spectrum
    spectra = np.full((k, n), np.nan, dtype=complex)
    spectra[finite] = _sorted_eigenvalues(loops[finite])
    hurwitz = dict(zip(law.followers, _hurwitz_reports(spectra, tol)))

    ends_i, ends_j = spec.edge_ends
    matrix_defects = _frobenius_norms(M[ends_i] - M[ends_j])
    offset_defects = _frobenius_norms(mvec[ends_i] - mvec[ends_j])
    edge_M = dict(zip(spec.edge_keys, matrix_defects.tolist()))
    edge_m = dict(zip(spec.edge_keys, offset_defects.tolist()))

    # np.max, unlike max(), propagates a NaN defect, which then fails
    max_M = float(np.max(matrix_defects, initial=0.0))
    max_m = float(np.max(offset_defects, initial=0.0))
    passed = (
        max_M <= tol.eps_solve * scale
        and max_m <= tol.eps_solve * scale
        and all(h.is_hurwitz for h in hurwitz.values())
    )
    return ControllerVerification(
        max_matrix_defect=max_M,
        max_offset_defect=max_m,
        edge_matrix_defects=edge_M,
        edge_offset_defects=edge_m,
        follower_hurwitz=hurwitz,
        passed=passed,
        scale=scale,
    )
