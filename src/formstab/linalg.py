"""Dense linear-algebra kernels: eigenvalues, Hurwitz and stabilizability
tests, rank-aware matrix-equation solves, stabilizing-gain synthesis, and
exponential decay certificates.

All routines are pure functions over value inputs and safe to call from
concurrent tasks.  Tolerances are collected in a single `Tolerances` record
so front-ends can thread one configuration object through every check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    CertificateError,
    ConvergenceFailure,
    NotStabilizableError,
    RateTooAggressive,
    SynthesisFailure,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "HurwitzReport",
    "LinearSolveReport",
    "StabilizabilityResult",
    "ExpEnvelope",
    "eigenvalues",
    "spectral_abscissa",
    "is_hurwitz",
    "solve_matrix_equation",
    "matrix_rank",
    "controllability_matrix",
    "is_stabilizable",
    "stabilize",
    "exp_envelope",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used by every verdict in the package.

    eps_solve : relative Frobenius residual below which a linear matrix
        equation counts as solvable.
    eps_hurwitz : stability margin; a matrix is Hurwitz when its spectral
        abscissa is below ``-eps_hurwitz``, and an eigenvalue takes part in
        the PBH test when its real part is at least ``-eps_hurwitz``.
    rank_cutoff : multiplier c in the singular-value rank cutoff
        ``c * max(shape) * machine_eps * sigma_max``.
    """

    eps_solve: float = 1e-8
    eps_hurwitz: float = 1e-9
    rank_cutoff: float = 1.0

    def __post_init__(self):
        if self.eps_solve <= 0 or self.eps_hurwitz <= 0 or self.rank_cutoff <= 0:
            raise ValueError("all tolerances must be positive")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class HurwitzReport:
    """Stability verdict for a square matrix."""

    spectral_abscissa: float
    eigenvalues: tuple
    is_hurwitz: bool
    margin: float

    def to_dict(self):
        return {
            "spectral_abscissa": self.spectral_abscissa,
            "eigenvalues": [[z.real, z.imag] for z in self.eigenvalues],
            "is_hurwitz": self.is_hurwitz,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class LinearSolveReport:
    """Minimum-norm least-squares solve of B X = C with a solvability verdict.

    ``solvable`` holds exactly when ``relative_residual <= eps_solve`` where
    ``relative_residual = ||B X - C||_F / (1 + ||C||_F)``.
    """

    solution: np.ndarray
    residual_norm: float
    relative_residual: float
    solvable: bool
    rank_B: int

    def to_dict(self):
        return {
            "solution": self.solution.tolist(),
            "residual_norm": self.residual_norm,
            "relative_residual": self.relative_residual,
            "solvable": self.solvable,
            "rank_B": self.rank_B,
        }


@dataclass(frozen=True)
class StabilizabilityResult:
    """PBH verdict for a pair (A, B); falsy when some unstable mode is
    unreachable, with the offending eigenvalue attached as ``witness``."""

    stabilizable: bool
    witness: complex | None = None

    def __bool__(self):
        return self.stabilizable


@dataclass(frozen=True)
class ExpEnvelope:
    """Certified bound ||exp(t A)|| <= C * exp(-alpha * t) for all t >= 0."""

    C: float
    alpha: float


class _FloatRangeError(ValueError):
    """A stacked kernel got finite input but computed a non-finite result:
    the data of stack item ``item`` (and of its block ``block``, for
    `_solve_stack`) is too large for the float range."""

    def __init__(self, item: int, what: str, block: int | None = None):
        self.item, self.block = int(item), block
        super().__init__(f"{what} overflows: the data is too large for the float range")


def _finite(X: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``X``, checked to hold no NaN or inf before LAPACK sees it."""
    if not np.isfinite(X).all():
        raise ValueError(f"{name} must not contain infs or NaNs")
    return X


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {A.shape}")
    return A


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a real square matrix.

    LAPACK's real eigenvalue routine returns complex eigenvalues as exact
    conjugate pairs.  Results are sorted by (real part, imaginary part)
    for reproducibility.

    Raises
    ------
    ValueError
        If A has non-finite entries.
    ConvergenceFailure
        If the QR iteration does not converge.
    """
    A = _as_matrix(A)
    n, m = A.shape
    if n != m:
        raise ValueError("matrix must be square")
    return _sorted_eigenvalues(A)


def _sorted_eigenvalues(A: np.ndarray) -> np.ndarray:
    """`eigenvalues` of a square matrix, or of each matrix of a stack of
    shape (k, n, n) as the k rows of a (k, n) array, bitwise those of k
    separate calls.  eigvals rejects a NaN or inf itself, so the input is
    scanned for them only on that error path."""
    try:
        eigs = np.linalg.eigvals(A).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(A).all():
            raise ValueError("matrix must not contain infs or NaNs") from None
        raise ConvergenceFailure(str(exc)) from exc
    if eigs.ndim > 1:
        # eigvals drops the imaginary parts only when the whole stack is
        # real; a single call drops them for each real spectrum
        real = np.all(eigs.imag == 0, axis=-1)
        eigs[real] = eigs[real].real
    return np.sort(eigs, axis=-1, kind="stable")


def spectral_abscissa(A) -> float:
    """max Re(lambda) over the spectrum of A."""
    return float(np.max(eigenvalues(A).real))


def is_hurwitz(A, tol: Tolerances = DEFAULT_TOLERANCES) -> HurwitzReport:
    """Test whether all eigenvalues of A lie in the open left half-plane.

    The verdict uses a strict margin: Hurwitz iff the spectral abscissa is
    below ``-tol.eps_hurwitz``.
    """
    return _hurwitz_reports(eigenvalues(A)[None], tol)[0]


def _hurwitz_reports(eigs: np.ndarray, tol: Tolerances) -> tuple:
    """`is_hurwitz` of each row of the (k, n) stack of sorted spectra
    ``eigs``, from one maximum over the stack; a NaN row is not Hurwitz."""
    abscissas = np.max(eigs.real, axis=-1, initial=-np.inf).tolist()
    eps = tol.eps_hurwitz
    return tuple(HurwitzReport(a, tuple(e), a < -eps, eps) for a, e in zip(abscissas, eigs))


def _is_block_triangular_hurwitz(A, n: int, tol: Tolerances) -> HurwitzReport:
    """`is_hurwitz` of a block-lower-triangular matrix with n-by-n diagonal
    blocks, from one stacked eigenvalue computation over those blocks.

    The spectrum of such a matrix is the union of its diagonal blocks'
    spectra.  Small blocks give their eigenvalues more accurately than the
    dense QR iteration gives those of a strongly non-normal whole, and at
    a fraction of its cost.  Raises `ValueError` on non-finite entries, as
    `is_hurwitz` does, and when a block above the diagonal is nonzero.
    ``tol`` has no default, so that no verdict falls back to it silently.
    """
    A = _as_matrix(A)
    k = len(A) // n
    if A.shape != (k * n, k * n):
        raise ValueError(f"expected a square matrix of {n}-by-{n} blocks, got shape {A.shape}")
    _finite(A)  # off the diagonal blocks too
    if any(A[r : r + n, r + n :].any() for r in range(0, k * n, n)):
        raise ValueError("matrix is not block lower triangular")
    blocks = A.reshape(k, n, k, n)[np.arange(k), :, np.arange(k), :]
    union = _sorted_eigenvalues(blocks).reshape(1, -1)
    return _hurwitz_reports(np.sort(union, kind="stable"), tol)[0]


def solve_matrix_equation(B, C, tol: Tolerances = DEFAULT_TOLERANCES) -> LinearSolveReport:
    """Minimum-norm least-squares solution X of B X = C.

    Parameters
    ----------
    B : (n, m) array_like
    C : (n, k) or (n,) array_like
        Right-hand side; a vector RHS yields a vector solution.

    Returns
    -------
    LinearSolveReport
        Infeasibility is a report state (``solvable=False``), never an error.

    Raises
    ------
    ValueError
        If B or C holds a NaN or inf, or if the residual or ``||C||``
        overflows: the data is too large for the float range.

    A one-unit, one-block call of `_solve_stack`, which the criterion and
    the pairwise analysis call with every equation of an instance at
    once; their reports are bitwise those of separate calls.
    """
    B = _finite(_as_matrix(B), "B")
    C = _finite(np.asarray(C, dtype=float), "C")
    with np.errstate(over="ignore", invalid="ignore"):
        return _solve_stack(B[None], (C[None],), (0, 1), tol)[0][0]


def _solve_stack(B, blocks, starts, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """`solve_matrix_equation` of B_u X = C_u for every unit u of the
    stack ``B`` (U, n, m) and each right-hand side C of the unit's
    ``blocks``, which are stacks (U, n, w), or (U, n) for vectors.  Returns
    one tuple of reports per unit, one report per block.

    The units ``starts[t]:starts[t + 1]`` form item t and share its B: one
    least-squares solve per item over the right-hand sides of its units,
    column-stacked unit by unit and block by block.  The residual
    ``||B X_k - C_k||`` and ``||C_k||`` of every block of every unit are
    then taken per block position as stacks: one matmul over contiguous
    copies of the X_k (a per-unit gemm or gemv, as ``B @ X_k`` is), and
    one `_frobenius_norms` each (a per-unit dot product in the order of
    ``np.linalg.norm``: C order for the residual, memory order for C_k).
    A block sliced out of the whole product ``B X - C`` can differ from a
    separate solve's residual in the last bit, so that product is never
    formed.

    A B that holds a NaN or inf raises `ValueError` ("infs or NaNs"), and
    an item whose right-hand sides do (one overflowed as it was formed) is
    not solved: LAPACK never sees them.  A residual or ``||C_k||`` that
    is not finite (C_k overflowed, or the norms do) raises
    `_FloatRangeError` naming the first such block in unit order: its
    ``item``, and as ``block`` its index among the blocks of that item.
    Callers run it under ``np.errstate(over="ignore", invalid="ignore")``,
    once around all of their solves, so that no warning leaks.
    """
    stacks = []
    for C in blocks:
        if C.ndim not in (2, 3) or C.shape[:2] != B.shape[:2]:
            raise ValueError(f"row counts must match: B is {B.shape[1:]}, C is {C.shape[1:]}")
        stacks.append(C[:, :, None] if C.ndim == 2 else C)
    units, n, m = B.shape
    if not units:
        return ()
    rhs = np.concatenate(stacks, axis=2)
    width = rhs.shape[2]
    _finite(B, "B")
    finite = np.isfinite(rhs).all(axis=(1, 2))
    X, rank = np.zeros((units, m, width)), np.empty(units, dtype=int)
    for a, b in zip(starts[:-1], starts[1:]):
        if not finite[a:b].all():  # its ||C_k|| is not finite, and is named below
            continue
        Xt, _, rank[a:b], _ = np.linalg.lstsq(
            B[a], rhs[a:b].transpose(1, 0, 2).reshape(n, (b - a) * width), rcond=None
        )
        X[a:b] = Xt.reshape(m, b - a, width).transpose(1, 0, 2)

    solutions, residual, c_norm, end = [], [], [], 0
    for C in stacks:
        start, end = end, end + C.shape[2]
        Xk = np.ascontiguousarray(X[:, :, start:end])
        solutions.append(Xk)
        residual.append(_frobenius_norms(B @ Xk - C))
        c_norm.append(_frobenius_norms(C if C.flags.c_contiguous else
                                       [c.ravel(order="K") for c in C]))
    residual, c_norm = np.array(residual).T, np.array(c_norm).T  # (units, blocks)
    bad = ~np.isfinite(residual + c_norm)
    if bad.any():
        u, k = np.argwhere(bad)[0].tolist()
        t = int(np.searchsorted(starts, u, side="right")) - 1
        raise _FloatRangeError(t, "the residual or the right-hand side of B X = C",
                               block=(u - starts[t]) * len(stacks) + k)

    rel = residual / (1.0 + c_norm)
    vector = [C.ndim == 2 for C in blocks]
    return tuple(
        tuple(
            LinearSolveReport(Xk[u, :, 0] if vec else Xk[u], r, q, ok, rk)
            for Xk, vec, r, q, ok in zip(solutions, vector, res_u, rel_u, ok_u)
        )
        for u, (rk, res_u, rel_u, ok_u) in enumerate(zip(
            rank.tolist(), residual.tolist(), rel.tolist(), (rel <= tol.eps_solve).tolist()
        ))
    )


def _frobenius_norms(Z) -> np.ndarray:
    """Frobenius norm of each item of the stack Z, bitwise
    ``np.linalg.norm`` of each item: both take the square root of one BLAS
    dot product of the item's entries in C order."""
    Z = np.ascontiguousarray(Z, dtype=float)
    f = Z.reshape(len(Z), 1, Z[:1].size)
    return np.sqrt(np.matmul(f, f.transpose(0, 2, 1))[:, 0, 0])


def matrix_rank(M, tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Numerical rank from singular values.

    Cutoff is ``tol.rank_cutoff * max(shape) * eps * sigma_max``.
    """
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    return int(_ranks(np.linalg.svd(M, compute_uv=False), M.shape, tol))


def _ranks(s, shape, tol: Tolerances):
    """Count of the descending singular values ``s`` of a matrix of the
    given shape above the cutoff ``tol.rank_cutoff * max(shape) * eps *
    sigma_max``; for a stack of such matrices, one count per row of ``s``."""
    cutoff = tol.rank_cutoff * max(shape[-2:]) * np.finfo(float).eps * s[..., :1]
    return np.sum(s > cutoff, axis=-1)


def controllability_matrix(A, B) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B] stacked horizontally."""
    A = _as_matrix(A)
    B = _as_matrix(B)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def is_stabilizable(A, B, tol: Tolerances = DEFAULT_TOLERANCES):
    """PBH test: (A, B) is stabilizable iff rank [A - lambda I, B] = n for
    every eigenvalue lambda of A with Re(lambda) >= -eps_hurwitz.

    A and B may also be stacks of k pairs, of shapes (k, n, n) and
    (k, n, m); the result is then a tuple of k verdicts, bitwise those of
    k separate calls.  Either way the pairs are evaluated as one stack:
    one eigenvalue computation, and one singular-value computation over
    every pencil at an eigenvalue on or right of the margin.  A failing
    verdict names the first failing eigenvalue in sorted order.  A finite
    pair whose pencil at such an eigenvalue, or the pencil's singular
    values, overflow raises `_FloatRangeError` (a `ValueError`) naming its
    item, and leaks no warning; a NaN or inf in A or B is a `ValueError`.
    """
    A = np.asarray(A, dtype=float)
    B = _finite(np.asarray(B, dtype=float))  # eigvals rejects a NaN or inf in A
    single = A.ndim == 2
    if single:
        A, B = A[None], B[None]
    if A.ndim != 3 or B.ndim != 3 or A.shape[2] != A.shape[1] or B.shape[:2] != A.shape[:2]:
        raise ValueError("A must be n x n and B must be n x m")
    results = _pbh_results(A, B, tol)
    return results[0] if single else results


def _pbh_results(A: np.ndarray, B: np.ndarray, tol: Tolerances) -> tuple:
    """PBH verdicts of the pairs of the stacks A (k, n, n) and B (k, n, m)."""
    k, n = A.shape[:2]
    eigs = _sorted_eigenvalues(A)
    item, col = np.nonzero(eigs.real >= -tol.eps_hurwitz)  # by item, then in sorted order
    witness = {}
    if len(item):
        lam = eigs[item, col]
        with np.errstate(over="ignore", invalid="ignore"):
            pencils = np.concatenate(
                [A[item] - lam[:, None, None] * np.eye(n), B[item].astype(complex)], axis=2
            )
        if not np.isfinite(pencils).all():  # an eigenvalue, or A - zI, overflowed
            bad = ~np.isfinite(pencils).all(axis=(1, 2))
            raise _FloatRangeError(item[bad][0], "the PBH pencil [A - zI, B]")
        s = np.linalg.svd(pencils, compute_uv=False)
        if not np.isfinite(s).all():
            bad = ~np.isfinite(s).all(axis=-1)
            raise _FloatRangeError(item[bad][0], "a singular value of the PBH pencil [A - zI, B]")
        ranks = _ranks(s, pencils.shape, tol)
        for i, z in zip(item[ranks < n], lam[ranks < n]):
            witness.setdefault(int(i), complex(z))
    return tuple(
        StabilizabilityResult(False, witness=witness[i]) if i in witness
        else StabilizabilityResult(True)
        for i in range(k)
    )


def _bass_gain(A, B, tol: Tolerances) -> np.ndarray:
    """Bass shift gain on the controllable block of a staircase split.

    V spans the controllable subspace (leading left singular vectors of
    the controllability matrix), A1 = V^T A V and B1 = V^T B.  With
    beta = ||A||_F + 1 solve (A1 + beta I) P + P (A1 + beta I)^T =
    2 B1 B1^T and take S = -B1^T pinv(P) V^T; the uncontrollable block is
    left alone (it must already be Hurwitz for a stabilizable pair).
    Places every controllable closed-loop eigenvalue at Re = -beta, which
    can demand very large gains for single-input systems.
    """
    n, m = B.shape
    K = controllability_matrix(A, B)
    U, s, _ = np.linalg.svd(K)
    V = U[:, : int(_ranks(s, K.shape, tol))]
    r = V.shape[1]
    if r == 0:
        return np.zeros((m, n))
    A1 = V.T @ A @ V
    B1 = V.T @ B
    beta = np.linalg.norm(A, "fro") + 1.0
    P = scipy.linalg.solve_continuous_lyapunov(A1 + beta * np.eye(r), 2.0 * B1 @ B1.T)
    P = 0.5 * (P + P.T)
    return -(B1.T @ np.linalg.pinv(P)) @ V.T


_LWORK = {}  # (LAPACK wrapper, operand shapes) -> the workspace its query returns


def _queried(f, *args, **kwargs):
    """The LAPACK wrapper ``f`` called with the workspace that its own
    ``lwork=-1`` query returns, as scipy calls it.  The query depends on
    the operand shapes only, so it runs once per (wrapper, shapes)."""
    key = (f, tuple(np.shape(a) for a in args if isinstance(a, np.ndarray)))
    lwork = _LWORK.get(key)
    if lwork is None:
        lwork = _LWORK[key] = f(*args, lwork=-1, **kwargs)[-2][0].real.astype(np.int_)
    return f(*args, lwork=lwork, **kwargs)


def _riccati(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``scipy.linalg.solve_continuous_are(A, B, I, I)`` through LAPACK
    directly: the same bits, exceptions and `LinAlgWarning`.

    These are scipy's steps without its validation and wrappers, which
    cost more than half of a small solve: the pencil (H, J), symplectic
    balancing (``dgebal``, skipped when every power-of-2 scale is 1), QR
    deflation (``dgeqrf``, ``dorgqr``), the QZ form (``dgges``) reordered
    for the left half-plane (``dtgsen``), then ``lu`` as ``dgetrf``, the
    condition test as U's singular-value ratio, two ``dtrtrs`` solves and
    the symmetry test with 1-norms as column sums.  Operand layouts and
    workspaces are scipy's: BLAS and LAPACK block their arithmetic by
    layout and workspace, so another choice can move the last bits of P.
    Each workspace query runs once per (routine, shapes) (`_queried`).
    The triangular solves read L and U in place from ``dgetrf``'s packed
    factor, which holds both: ``dtrtrs`` reads only the triangle it is
    told to, and the unit diagonal of L not at all.  Only the condition
    test needs U alone.
    """
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise ValueError("array must not contain infs or NaNs")
    n, m = B.shape
    H = np.zeros((2 * n + m, 2 * n + m))
    H[:n, :n], H[:n, 2 * n :] = A, B
    H[n : 2 * n, :n], H[n : 2 * n, n : 2 * n] = -np.eye(n), -A.conj().T
    H[2 * n :, n : 2 * n], H[2 * n :, 2 * n :] = B.conj().T, np.eye(m)
    J = np.zeros((2 * n + m, 2 * n + m))
    np.fill_diagonal(J[: 2 * n, : 2 * n], 1.0)

    M = np.abs(H) + np.abs(J)
    np.fill_diagonal(M, 0.0)
    sca = lapack.dgebal(M, scale=1, permute=0)[3]
    if not (sca == 1).all():  # scipy's allclose test: the scales are powers of 2
        sca = np.log2(sca)
        s = np.round((sca[n : 2 * n] - sca[:n]) / 2)
        sca = 2 ** np.concatenate((s, -s, sca[2 * n :]))
        elwisescale = sca[:, None] * np.reciprocal(sca)
        H *= elwisescale
        J *= elwisescale

    qr, tau = _queried(lapack.dgeqrf, np.asarray_chkfinite(H[:, -m:]))[:2]
    q = np.empty((2 * n + m, 2 * n + m))
    q[:, :m] = qr
    q = _queried(lapack.dorgqr, q, tau, overwrite_a=1)[0]
    H = q[:, m:].conj().T.dot(H[:, : 2 * n])
    J = q[: 2 * n, m:].conj().T.dot(J[: 2 * n, : 2 * n])

    AA, BB, _, alphar, alphai, beta, Q, Z, _, info = _queried(
        lapack.dgges, lambda x: None, H, J, overwrite_a=True, overwrite_b=True, sort_t=0
    )
    if 0 < info <= 2 * n:
        warnings.warn(f"the QZ iteration failed (dgges info {info})", scipy.linalg.LinAlgWarning)
    elif info > 2 * n:
        raise np.linalg.LinAlgError(f"dgges failed with info {info}")
    alpha, lhp = alphar + alphai * 1.0j, np.zeros(2 * n, dtype=bool)
    finite = beta != 0  # an infinite eigenvalue is not selected
    lhp[finite] = np.real(alpha[finite] / beta[finite]) < 0.0
    u, info = lapack.dtgsen(lhp, AA, BB, Q, Z, ijob=0, lwork=8 * n + 16, liwork=1)[6::5]
    if info == 1:
        raise ValueError("reordering the QZ form failed: the pencil is too ill-conditioned")

    u00, u10 = u[:n, :n], u[n:, :n]
    lu, piv = lapack.dgetrf(np.asarray_chkfinite(u00))[:2]  # scipy's lu, as P, L, U
    rows = list(range(n))
    for k, p in enumerate(piv.tolist()):  # P from the row swaps, in order
        rows[k], rows[p] = rows[p], rows[k]
    up = np.zeros((n, n))
    up[rows, range(n)] = 1.0
    uu = lu.copy()
    for r in range(1, n):
        uu[r, :r] = 0.0
    sv = np.linalg.svd(uu, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[0] / sv[-1]  # np.linalg.cond, which counts a NaN ratio as infinite
    if np.isnan(cond) or 1 / cond < np.spacing(1.0):
        raise np.linalg.LinAlgError("Failed to find a finite solution.")
    y, info = lapack.dtrtrs(lu.T, np.asarray_chkfinite(u10.T), lower=1)  # U^T y = u10^T
    if info:
        raise np.linalg.LinAlgError("singular matrix in the triangular solve")
    y = lapack.dtrtrs(lu.T, y, unitdiag=1)[0]  # L^T; unit diagonal: never singular
    x = y.conj().T.dot(up.conj().T)
    x *= sca[:n, None] * sca[:n]

    u_sym = u00.conj().T.dot(u10)
    n_u_sym = np.abs(u_sym).sum(0).max()  # the 1-norms of np.linalg.norm
    u_sym = u_sym - u_sym.conj().T
    if np.abs(u_sym).sum(0).max() > np.max([np.spacing(1000.0), 0.1 * n_u_sym]):
        raise np.linalg.LinAlgError("the Hamiltonian pencil has eigenvalues too close to the axis")
    return (x + x.conj().T) / 2


def stabilize(A, B, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Compute a gain S such that A + B S is Hurwitz.

    Primary construction: the Riccati gain S = -B^T P with P the
    stabilizing solution of A^T P + P A - P B B^T P + I = 0, which exists
    for every stabilizable pair and keeps gains moderate without
    user-chosen pole locations.  P comes from `_riccati`, scipy's CARE
    algorithm run through LAPACK directly: bitwise
    ``solve_continuous_are(A, B, I, I)``, raising where it raises (a
    property test pins both), so the Bass fallback below takes over on
    exactly the pairs it did with scipy's solver.  When the Riccati solve
    fails numerically, or its gain fails the Hurwitz check, the Bass shift
    construction is used as a fallback.  In floating point the solve does
    fail on some stabilizable pairs: a stable uncontrollable mode within
    about 1e-8 of the imaginary axis, or an unstable mode reachable only
    through a tiny input direction; the fallback gain passes on such pairs.  Either way
    the closed loop is re-verified before the gain is handed back.  When
    neither gain passes but A itself is Hurwitz, the zero gain is returned:
    on a nearly uncontrollable pair the Bass gain can push a weakly
    controllable mode near the axis across it.  A Hurwitz A + B S already
    certifies that (A, B) is stabilizable, so the PBH test runs only when
    no gain passes, to name the cause of the failure.

    Raises
    ------
    NotStabilizableError
        If no gain passes and the PBH test fails (witness eigenvalue
        attached).
    SynthesisFailure
        If no gain passes although the pair is stabilizable.
    """
    A = _as_matrix(A)
    B = _as_matrix(B)
    n, m = B.shape
    if np.any(B):
        try:
            P = _riccati(A, B)
        except (np.linalg.LinAlgError, ValueError):
            pass
        else:
            S = -B.T @ P
            if is_hurwitz(A + B @ S, tol).is_hurwitz:
                return S

    S = _bass_gain(A, B, tol)
    if is_hurwitz(A + B @ S, tol).is_hurwitz:
        return S
    if is_hurwitz(A, tol).is_hurwitz:
        return np.zeros((m, n))
    verdict = is_stabilizable(A, B, tol)
    if not verdict:
        raise NotStabilizableError(verdict.witness)
    raise SynthesisFailure("closed loop failed the Hurwitz check after gain synthesis")


def _lyapunov_constant(A, alpha: float) -> float:
    """C = sqrt(cond(P)) with P solving (A + alpha I)^T P + P (A + alpha I) = -I.

    For A + alpha I Hurwitz, the Lyapunov function x^T P x decays at rate
    2*alpha along x' = A x, so ||exp(t A)|| <= C exp(-alpha t) for t >= 0.

    Raises `CertificateError` if P is not positive definite.
    """
    n = A.shape[0]
    P = scipy.linalg.solve_continuous_lyapunov((A + alpha * np.eye(n)).T, -np.eye(n))
    P = 0.5 * (P + P.T)
    w = np.linalg.eigvalsh(P)
    if w[0] <= 0:
        raise CertificateError("Lyapunov solution is not positive definite")
    return float(np.sqrt(w[-1] / w[0]))


def exp_envelope(A, alpha: float) -> ExpEnvelope:
    """Decay certificate ||exp(t A)|| <= C exp(-alpha t) for a Hurwitz matrix.

    C = sqrt(cond(P)) where P solves (A + alpha I)^T P + P (A + alpha I) = -I;
    the Lyapunov function x^T P x then decays at rate 2*alpha, which yields
    the operator-norm bound.  The certificate is cross-checked by sampling
    ||exp(t A)|| on 200 points of [0, 20/alpha].

    Raises
    ------
    RateTooAggressive
        If alpha >= -spectral_abscissa(A).
    CertificateError
        If the Lyapunov solution is not positive definite or the sampled
        norms violate the certified bound (numerical failure).
    """
    A = _as_matrix(A)
    n = A.shape[0]
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    abscissa = spectral_abscissa(A)
    if alpha >= -abscissa:
        raise RateTooAggressive(
            f"requested rate {alpha} but spectral abscissa is {abscissa}"
        )

    C = _lyapunov_constant(A, alpha)

    # sample the bound: successive products of the one-step propagator
    samples = 200
    step = (20.0 / alpha) / (samples - 1)
    F = scipy.linalg.expm(step * A)
    E = np.eye(n)
    for k in range(samples):
        t = k * step
        if np.linalg.norm(E, 2) > C * np.exp(-alpha * t) * (1.0 + 1e-6):
            raise CertificateError(
                f"certificate violated at t={t}: "
                f"||exp(tA)||={np.linalg.norm(E, 2)} > {C * np.exp(-alpha * t)}"
            )
        E = F @ E
    return ExpEnvelope(C=C, alpha=float(alpha))
