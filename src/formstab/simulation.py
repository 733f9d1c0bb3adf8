"""Closed-loop simulation and trajectory-level verification.

Propagates the coupled agent dynamics under a follower control law and
free leader inputs on a fixed-step grid, records the states in one
time-contiguous array, derives edge errors and follower inputs from them on
access, and offers three trajectory checks.  Inputs without
breakpoints whose signals have a linear generator (zero, constant,
sinusoid) are propagated exactly by matrix exponentials (integrator
``"expm"``); any other input goes through classic Runge-Kutta steps aligned
to its breakpoints (integrator ``"rk4"``).  The checks:

* `fit_envelope` certifies per-edge constants (C, alpha, beta) of the
  exponential-plus-input-gain error bound
  ||z_ij(t)|| <= C exp(-alpha t) ||z(0)|| + beta * sum_leaders sup ||u||
  from the closed loop and checks it on the grid,
* `chain_residual` evaluates the algebraic identity relating a follower's
  errors toward two of its parents through their parent chains,
* `error_dynamics_check` compares finite-difference derivatives of the
  edge errors against their closed-form linear dynamics, through one term
  per agent.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .controllers import ControllerSet, control_input
from .errors import (
    NonFiniteStateError,
    NotSiblingParentsError,
    StepTooLargeError,
)
from .linalg import _lyapunov_constant, is_hurwitz
from .model import FormationSpec, LevelDecomposition

__all__ = [
    "LeaderSignal",
    "ZeroSignal",
    "ConstantSignal",
    "SinusoidSignal",
    "PiecewiseConstantSignal",
    "SimulationTrace",
    "EnvelopeFit",
    "simulate",
    "ideal_initial_states",
    "fit_envelope",
    "chain_residual",
    "error_dynamics_check",
    "write_trace_csv",
]


# ---------------------------------------------------------------------------
# Leader input signals.  Each knows its exact running sup-norm so the
# envelope check never relies on grid sampling of the input.


class LeaderSignal:
    """Base class for exogenous leader inputs on [0, T]."""

    is_zero = False

    def value(self, t: float) -> np.ndarray:
        raise NotImplementedError

    def left_value(self, t: float) -> np.ndarray:
        """Left limit at t; differs from value(t) only for discontinuous
        signals (used by the integrator at segment ends)."""
        return self.value(t)

    def running_sup(self, t: float) -> float:
        """sup over [0, t] of ||u(tau)||, in closed form."""
        raise NotImplementedError

    def breakpoints(self, T: float) -> tuple:
        """Discontinuity times inside (0, T) the integrator must land on."""
        return ()

    def generator(self):
        """(S, H, w0) with u(t) = H w(t), w' = S w, w(0) = w0, or None when
        the signal has no such linear generator."""
        return None


class ZeroSignal(LeaderSignal):
    is_zero = True

    def __init__(self, m: int):
        self.m = int(m)

    def value(self, t):
        return np.zeros(self.m)

    def running_sup(self, t):
        return 0.0


class ConstantSignal(LeaderSignal):
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self._norm = float(np.linalg.norm(self.c))

    def value(self, t):
        return self.c

    def running_sup(self, t):
        return self._norm

    def generator(self):
        return np.zeros((1, 1)), self.c[:, None], np.ones(1)


class SinusoidSignal(LeaderSignal):
    """u(t) = amplitude * sin(omega t + phase), amplitude an m-vector."""

    def __init__(self, amplitude, omega: float, phase: float = 0.0):
        self.amplitude = np.asarray(amplitude, dtype=float)
        self.omega = float(omega)
        self.phase = float(phase)
        self._norm = float(np.linalg.norm(self.amplitude))

    def value(self, t):
        return self.amplitude * math.sin(self.omega * t + self.phase)

    def running_sup(self, t):
        a = self._norm
        if self.omega == 0.0:
            return a * abs(math.sin(self.phase))
        lo, hi = sorted((self.phase, self.phase + self.omega * t))
        # |sin| peaks at odd multiples of pi/2; is one inside [lo, hi]?
        k = math.ceil((lo - math.pi / 2.0) / math.pi)
        if math.pi / 2.0 + k * math.pi <= hi:
            return a
        return a * max(abs(math.sin(lo)), abs(math.sin(hi)))

    def generator(self):
        # w = [sin(omega t + phase), cos(omega t + phase)]
        S = np.array([[0.0, self.omega], [-self.omega, 0.0]])
        H = np.column_stack([self.amplitude, np.zeros_like(self.amplitude)])
        return S, H, np.array([math.sin(self.phase), math.cos(self.phase)])


class PiecewiseConstantSignal(LeaderSignal):
    """values[k] on [times[k], times[k+1]); times[0] must be 0.

    Discontinuous, hence outside the continuous admissible class for
    leaders; integration steps align to the breakpoints so every step sees
    a continuous right-hand side.
    """

    def __init__(self, times, values):
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.ndim != 1 or len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("first breakpoint must be t=0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self._running_max = np.maximum.accumulate(
            [float(np.linalg.norm(v)) for v in self.values]
        )

    def _segment(self, t: float, left: bool = False) -> int:
        side = "left" if left else "right"
        k = int(np.searchsorted(self.times, t, side=side)) - 1
        return min(max(k, 0), len(self.values) - 1)

    def value(self, t):
        return self.values[self._segment(t)]

    def left_value(self, t):
        return self.values[self._segment(t, left=True)]

    def running_sup(self, t):
        return float(self._running_max[self._segment(t)])

    def breakpoints(self, T):
        return tuple(float(t) for t in self.times if 0.0 < t < T)


# ---------------------------------------------------------------------------


class _OnAccess(Mapping):
    """Read-only mapping over fixed keys whose values are computed on every
    access, as ``compute(key, rows)`` for a row index or slice, and never
    stored."""

    def __init__(self, keys, compute):
        self._keys = dict.fromkeys(keys)
        self._compute = compute

    def __getitem__(self, key):
        return self.rows(key, slice(None))

    def rows(self, key, rows):
        if key not in self._keys:
            raise KeyError(key)
        return self._compute(key, rows)

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _rows(values: Mapping, key, rows) -> np.ndarray:
    """values[key][rows], computing only those rows when the values are
    derived on access."""
    if isinstance(values, _OnAccess):
        return values.rows(key, rows)
    return values[key][rows]


@dataclass(frozen=True)
class SimulationTrace:
    """Closed-loop trajectory on a (possibly breakpoint-refined) time grid.

    ``states``/``inputs`` are keyed by agent id, ``errors`` by edge key;
    every value has one row per grid point.  The states are stored once,
    as one C-contiguous (agents, n, grid points) array with agents in
    renumbering order: ``states[i]`` is the transposed view of agent i's
    (n, grid points) slab, so each state component is contiguous in time.
    Nothing else of that size is stored.  ``errors`` is a read-only mapping
    that computes z_ij = x_i - x_j + d_ij from the states when an edge is
    read, and ``inputs`` holds the leader inputs and computes a follower's
    control input when it is read; read each value once and keep it if it
    is needed again.  ``metadata["integrator"]`` names the propagation:
    ``"expm"`` (exact, breakpoint-free inputs with linear generators) or
    ``"rk4"`` (every other input).  ``closed_loop`` is the pair
    ``(M, G)`` of the integrated system y' = M y + c + sum_a G[a] u_a(t):
    the stacked closed-loop matrix with agents in renumbering order, and
    the input map per leader id.  ``free_errors`` is always None; it is
    kept because the benchmark's per-layer counters read it.
    """

    times: np.ndarray
    states: dict
    errors: Mapping
    inputs: Mapping
    metadata: dict
    signals: dict
    closed_loop: tuple
    free_errors: dict | None = None

    def initial_error_norm(self) -> float:
        """||z(0)|| of all edge errors stacked; reads only the first row."""
        first = (_rows(self.errors, e, 0) for e in self.errors)
        return math.sqrt(sum(float(z @ z) for z in first))


def ideal_initial_states(decomp: LevelDecomposition, x0) -> dict:
    """Initial states x_i(0) = x0 - D_i, which zero every edge error."""
    x0 = np.asarray(x0, dtype=float)
    return {i: x0 - decomp.cumulative_offset[i] for i in decomp.renumbering}


def _closed_loop_blocks(spec, decomp, ctrl):
    """Stacked closed-loop matrix, constant offset, and leader input map.

    Returns (order, pos, M, c, leader_cols) where order is the
    renumbering, pos maps agent id -> first row of its state block, M is
    the (n*l, n*l) closed-loop matrix, c the constant drift, and
    leader_cols maps leader id -> (n*l, m) injection matrix.
    """
    n = spec.n
    order = list(decomp.renumbering)
    pos = {i: k * n for k, i in enumerate(order)}
    dim = n * len(order)
    M = np.zeros((dim, dim))
    c = np.zeros(dim)
    leader_cols = {}
    for i in order:
        ag = spec.agent(i)
        r = pos[i]
        fc = ctrl.followers.get(i)
        if fc is None:
            M[r : r + n, r : r + n] = ag.A
            leader_cols[i] = np.zeros((dim, spec.m))
            leader_cols[i][r : r + n, :] = ag.B
        else:
            M[r : r + n, r : r + n] = ag.A + ag.B @ fc.S
            for s, Ks in fc.K.items():
                M[r : r + n, pos[s] : pos[s] + n] += ag.B @ Ks
            c[r : r + n] = ag.B @ fc.k
    return order, pos, M, c, leader_cols


def _grid_resolution(T: float) -> float:
    """Grid points closer than this are one point."""
    return 1e-12 * max(T, 1.0)


def _build_grid(T: float, dt: float, breakpoints) -> np.ndarray:
    n_full = int(math.floor(T / dt + 1e-12))
    times = [k * dt for k in range(n_full + 1)]
    if T - times[-1] > _grid_resolution(T):
        times.append(T)
    times.extend(b for b in breakpoints)
    times = sorted(set(times))
    # drop near-duplicates from breakpoint merging
    out = [times[0]]
    for t in times[1:]:
        if t - out[-1] > _grid_resolution(T):
            out.append(t)
    out[-1] = min(out[-1], T)
    return np.asarray(out)


def _integrate(M, c, forcing, times, y0):
    """Fixed-step RK4 over the given grid for ydot = M y + c + sum G_s u_s(t).

    ``forcing`` lists (G_s, signal) for the nonzero leader inputs, and y is
    ``y0`` flattened.  Returns the (len(times), dim) trajectory as the
    transposed view of a C-contiguous array of shape
    ``y0.shape + (len(times),)``.  `simulate` uses it (integrator
    ``"rk4"``) for inputs with breakpoints or without a linear generator;
    the grid lands on every breakpoint, so each step sees a continuous
    right-hand side.
    """
    out = np.empty(y0.shape + (len(times),))
    flat = out.reshape(-1, len(times))
    y = y0.reshape(-1)
    flat[:, 0] = y

    def rhs(t, y, end=False):
        dy = M @ y + c
        for G, sig in forcing:
            dy += G @ (sig.left_value(t) if end else sig.value(t))
        return dy

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is detected below
        for step in range(len(times) - 1):
            a, b = times[step], times[step + 1]
            h = b - a
            k1 = rhs(a, y)
            k2 = rhs(a + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(a + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(b, y + h * k3, end=True)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(y)):
                raise NonFiniteStateError(b)
            flat[:, step + 1] = y
    return flat.T


def _expm_increment(X: np.ndarray) -> np.ndarray:
    """e^X - I, accurate relative to ||X||: X phi_1(X), with phi_1(X) the
    top-right block of expm([[X, I], [0, 0]])."""
    k = X.shape[0]
    W = np.zeros((2 * k, 2 * k))
    W[:k, :k] = X
    W[:k, k:] = np.eye(k)
    return X @ scipy.linalg.expm(W)[:k, k:]


def _propagate(M, c, generators, times, y0, dt):
    """Exact propagation over a uniform-step grid of ydot = M y + c +
    sum G_s u_s(t), every u_s the output of a linear generator.

    ``generators`` lists (G_s, (S_s, H_s, w0_s)) for the nonzero leader
    inputs, as `LeaderSignal.generator` gives them.

    The augmented state z = [y; 1; w_s...] obeys z' = A z with
    A = [[M, c, G_s H_s...], [0, 0, 0], [0, 0, S_s...]], so each step is
    z <- z + (e^{hA} - I) z, with one increment per distinct step length:
    ``dt``, and the short last step when T/dt is not an integer (Van Loan,
    IEEE TAC 1978).  y is ``y0`` flattened.  Returns the trajectory as
    `_integrate` does; raises `NonFiniteStateError` at the first grid time
    with a non-finite state.
    """
    dim = y0.size
    size = dim + 1 + sum(S.shape[0] for _, (S, _, _) in generators)
    A = np.zeros((size, size))
    A[:dim, :dim] = M
    A[:dim, dim] = c
    z = np.empty(size)
    z[:dim] = y0.reshape(-1)
    z[dim] = 1.0
    r = dim + 1
    for G, (S, H, w0) in generators:
        k = S.shape[0]
        A[:dim, r : r + k] = G @ H
        A[r : r + k, r : r + k] = S
        z[r : r + k] = w0
        r += k

    uniform = _expm_increment(dt * A)
    last = times[-1] - times[-2]
    if abs(last - dt) <= _grid_resolution(times[-1]):
        final = uniform
    else:
        final = _expm_increment(last * A)
    out = np.empty(y0.shape + (len(times),))
    flat = out.reshape(dim, len(times))
    flat[:, 0] = z[:dim]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is detected below
        for step in range(len(times) - 2):
            z = z + uniform @ z
            flat[:, step + 1] = z[:dim]
        z = z + final @ z
        flat[:, -1] = z[:dim]
    bad = ~np.isfinite(flat).all(axis=0)
    if bad.any():
        raise NonFiniteStateError(float(times[int(np.argmax(bad))]))
    return flat.T


def simulate(
    spec: FormationSpec,
    decomp: LevelDecomposition,
    ctrl: ControllerSet,
    x0: dict,
    signals: dict | None = None,
    T: float = 20.0,
    dt: float | None = None,
) -> SimulationTrace:
    """Propagate the closed-loop formation and record its trajectory.

    Parameters
    ----------
    x0 : dict
        Initial state per agent id (n-vectors).
    signals : dict, optional
        LeaderSignal per leader id; omitted leaders get the zero input.
    T, dt : float
        Horizon and step.  Default dt = min(1e-2, 0.1 / (1 + max ||A_i +
        B_i S_i||_F)); an explicit dt with dt * max||A_i + B_i S_i||_F > 1
        raises `StepTooLargeError`.

    The stacked system is propagated jointly (its coupling is lower
    triangular in renumbering order) on the grid k * dt, plus T.  When no
    signal has a breakpoint in (0, T) and every nonzero signal has a linear
    generator (`ConstantSignal`, `SinusoidSignal`), the trajectory is exact
    up to roundoff: one matrix exponential per step length (integrator
    ``"expm"``).  Otherwise classic RK4 steps land exactly on the signal
    breakpoints, so each step sees a continuous right-hand side (integrator
    ``"rk4"``).  ``metadata["integrator"]`` names the one used.

    Both integrators write one C-contiguous (agents, n, grid points) array,
    which the trace's per-agent state views share; edge errors and follower
    inputs are not evaluated here but when the trace's mappings are read
    (see `SimulationTrace`).
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    n = spec.n
    order, pos, M, c, leader_cols = _closed_loop_blocks(spec, decomp, ctrl)

    sig_map = {}
    for i in sorted(decomp.leaders):
        sig_map[i] = ZeroSignal(spec.m)
    if signals:
        for i, sig in signals.items():
            if i not in sig_map:
                raise ValueError(f"agent {i} is not a leader; it cannot take a free input")
            sig_map[i] = sig

    # diagonal blocks of M are the A_i and A_i + B_i S_i of the step cap
    worst = max(float(np.linalg.norm(M[r : r + n, r : r + n], "fro")) for r in pos.values())
    if dt is None:
        dt = min(1e-2, 0.1 / (1.0 + worst))
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt >= T:
        raise ValueError("dt must be smaller than T")
    if dt * worst > 1.0:
        raise StepTooLargeError(
            f"dt={dt} exceeds stability cap 1/max||A_cl||_F = {1.0 / worst:.3e}"
        )

    breaks = []
    for sig in sig_map.values():
        breaks.extend(sig.breakpoints(T))
    times = _build_grid(T, dt, breaks)

    y0 = np.empty((len(order), n))
    for k, i in enumerate(order):
        xi = np.asarray(x0[i], dtype=float)
        if xi.shape != (n,):
            raise ValueError(f"x0[{i}] has shape {xi.shape}, expected ({n},)")
        y0[k] = xi

    forcing = [(G, sig_map[s]) for s, G in leader_cols.items() if not sig_map[s].is_zero]
    generators = [(G, sig.generator()) for G, sig in forcing]
    exact = not breaks and all(gen is not None for _, gen in generators)
    if exact:
        traj = _propagate(M, c, generators, times, y0, dt)
    else:
        traj = _integrate(M, c, forcing, times, y0)

    slab = traj.T.reshape(len(order), n, len(times))  # a view of the one stored array
    states = {i: slab[k].T for k, i in enumerate(order)}
    offsets = {e.key: e.d for e in spec.edges}
    errors = _OnAccess(
        offsets,
        lambda e, rows: states[e[0]][rows] - states[e[1]][rows] + offsets[e],
    )
    leader_inputs = {i: np.array([sig.value(t) for t in times]) for i, sig in sig_map.items()}
    inputs = _OnAccess(
        order,
        lambda i, rows: leader_inputs[i][rows] if i in leader_inputs
        else control_input(ctrl, i, states)[rows],
    )

    return SimulationTrace(
        times=times,
        states=states,
        errors=errors,
        inputs=inputs,
        metadata={"integrator": "expm" if exact else "rk4", "dt": float(dt), "T": float(T)},
        signals=sig_map,
        closed_loop=(M, leader_cols),
    )


# ---------------------------------------------------------------------------
# Envelope fit


@dataclass(frozen=True)
class EnvelopeFit:
    """Certified per-edge constants of the error bound and its grid check.

    Every edge carries the same certified decay rate ``alpha``; it is 0.0,
    and the fit fails, when the error system is not Hurwitz.
    ``degenerate`` marks the vacuous case of zero initial error and zero
    inputs, where ``alpha`` is None on every edge.
    """

    C: dict
    alpha: dict
    beta: dict
    passed: bool
    max_violation: float
    degenerate: bool
    z0_norm: float
    tolerance: float

    def to_dict(self):
        return {
            "C": {str(e): v for e, v in self.C.items()},
            "alpha": {str(e): v for e, v in self.alpha.items()},
            "beta": {str(e): v for e, v in self.beta.items()},
            "passed": self.passed,
            "max_violation": self.max_violation,
            "degenerate": self.degenerate,
            "z0_norm": self.z0_norm,
            "tolerance": self.tolerance,
        }


def fit_envelope(trace: SimulationTrace, decomp: LevelDecomposition) -> EnvelopeFit:
    """Certify the exponential-plus-input-gain bound and check it on a trace.

    Error coordinates: with y = x + D (D the cumulative offsets), xi = T y
    stacks e_i = y_i - y_{leader_reach(i)} for each follower and
    w_a = y_a - y_ref for each leader other than the reference leader
    (first in the renumbering); the edge errors are z = R xi.  With P the
    0/1 right inverse of T that maps xi to y - y_ref, a verified controller
    gives xi' = M_e xi + G_e u with M_e = T M P and G_e = T G, which is
    block-lower-triangular with the Hurwitz diagonal blocks A_i + B_i S_i.  With alpha = -spectral_abscissa(M_e) / 2 and the
    Lyapunov constant C of `linalg.exp_envelope`, ||exp(t M_e)|| <=
    C e^{-alpha t}, so every edge obeys

        ||z_ij(t)|| <= C_ij e^{-alpha t} ||z(0)|| + beta_ij U(t),
        C_ij = ||R_ij|| C / sigma_min(R),
        beta_ij = ||R_ij|| C max_a ||G_e,a|| / alpha,

    where U(t) sums the exact running sups of the leader inputs (no grid
    sampling) and the max runs over leaders with a nonzero signal.  Each
    edge is checked on the grid against its bound plus the float
    resolution 64 eps (1 + max_k ||x_k(t)||) of the recorded errors.  The
    fit fails when some excess is above 1e-6 * (1 + ||z(0)||), or when
    M_e is not Hurwitz; then alpha is 0.0 and each edge's growth is
    measured against its initial error.
    """
    times = trace.times
    edges = decomp.edge_order(trace.errors)
    z0n = trace.initial_error_norm()
    tol = 1e-6 * (1.0 + z0n)

    U = np.array(
        [sum(sig.running_sup(t) for sig in trace.signals.values()) for t in times]
    )
    have_input = bool(U[-1] > 0.0)

    if z0n <= 1e-300 and not have_input and all(
        not np.any(trace.errors[e]) for e in edges
    ):
        return EnvelopeFit(
            C={e: 0.0 for e in edges},
            alpha={e: None for e in edges},
            beta={e: 0.0 for e in edges},
            passed=True,
            max_violation=0.0,
            degenerate=True,
            z0_norm=z0n,
            tolerance=tol,
        )
    if not edges:  # a lone leader under an input has no error to bound
        return EnvelopeFit({}, {}, {}, True, 0.0, False, z0n, tol)

    # T = T1 kron I and P = P1 kron I; z_ij = y_i - y_j, so R = r kron I
    # with row (i, j) of r the difference of rows i and j of P1
    M, G = trace.closed_loop
    order = decomp.renumbering
    col = {i: k for k, i in enumerate(order)}
    ref = order[0]
    T1 = np.zeros((len(order) - 1, len(order)))
    P1 = np.zeros((len(order), len(order) - 1))
    for i in order[1:]:
        anchor = ref if i in decomp.leaders else decomp.leader_reach[i]
        T1[col[i] - 1, col[i]] = 1.0
        T1[col[i] - 1, col[anchor]] = -1.0
        P1[col[i], col[i] - 1] = 1.0
        if anchor != ref:
            P1[col[i], col[anchor] - 1] = 1.0
    r = P1[[col[i] for i, _ in edges]] - P1[[col[j] for _, j in edges]]
    eye = np.eye(M.shape[0] // len(order))
    T = np.kron(T1, eye)
    M_e = T @ M @ np.kron(P1, eye)

    hurwitz = is_hurwitz(M_e)
    if hurwitz.is_hurwitz:
        alpha = -0.5 * hurwitz.spectral_abscissa
        C = _lyapunov_constant(M_e, alpha)
        gain = max(
            (float(np.linalg.norm(T @ G[a], 2))
             for a, sig in trace.signals.items() if sig.running_sup(times[-1]) > 0.0),
            default=0.0,
        )
        row_norms = np.linalg.norm(r, axis=1)
        s_min = float(np.linalg.svd(r, compute_uv=False)[-1])
        C_map = {e: float(w) * C / s_min for e, w in zip(edges, row_norms)}
        b_map = {e: float(w) * C * gain / alpha for e, w in zip(edges, row_norms)}
    else:
        # no decay: anchor the envelope at t=0 so the growth shows up as a
        # reported violation
        alpha = 0.0
        C_map = {
            e: float(np.linalg.norm(_rows(trace.errors, e, 0))) / z0n if z0n > 0 else 1.0
            for e in edges
        }
        b_map = dict.fromkeys(edges, 0.0)

    state_norm = np.zeros(len(times))
    for x in trace.states.values():
        np.maximum(state_norm, np.linalg.norm(x, axis=1), out=state_norm)
    floor = 64.0 * np.finfo(float).eps * (1.0 + state_norm)
    decay = np.exp(-alpha * times) * z0n

    max_violation = -math.inf
    for e in edges:
        z = np.linalg.norm(trace.errors[e], axis=1)
        envelope = C_map[e] * decay + b_map[e] * U + floor
        max_violation = max(max_violation, float(np.max(z - envelope)))

    return EnvelopeFit(
        C=C_map,
        alpha=dict.fromkeys(edges, alpha),
        beta=b_map,
        passed=bool(hurwitz.is_hurwitz and max_violation <= tol),
        max_violation=max_violation,
        degenerate=False,
        z0_norm=z0n,
        tolerance=tol,
    )


# ---------------------------------------------------------------------------
# Trajectory identities


def chain_residual(
    trace: SimulationTrace,
    decomp: LevelDecomposition,
    edge: tuple,
    s: int,
) -> np.ndarray:
    """Residual norms of the two-parent chain identity along a trace.

    For a follower i with parents j and s, the error toward s equals the
    error toward j plus the telescoped difference of the two parent-chain
    error sums plus the difference of the reached leaders' states:

        z_is = z_ij + R_js(z) + x_{l_j} - x_{l_s}.

    Returns ||lhs - rhs|| per grid point.  Requires displacement
    consistency (criterion condition 3) to be meaningful.
    """
    i, j = edge
    parents = {key[1] for key in trace.errors if key[0] == i}
    if j not in parents or s not in parents:
        raise NotSiblingParentsError(
            f"nodes {j} and {s} are not both parents of {i} (parents: {sorted(parents)})"
        )

    def chain_sum(start):
        chain = decomp.parent_chain(start)
        total = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            total = total + trace.errors[(a, b)]
        return total

    R = chain_sum(j) - chain_sum(s)
    lj = decomp.leader_reach[j]
    ls = decomp.leader_reach[s]
    leader_diff = trace.states[lj] - trace.states[ls]
    resid = trace.errors[(i, s)] - trace.errors[(i, j)] - R - leader_diff
    return np.linalg.norm(resid, axis=1)


def error_dynamics_check(
    trace: SimulationTrace,
    spec: FormationSpec,
    decomp: LevelDecomposition,
    ctrl: ControllerSet,
) -> float:
    """Worst defect between finite-difference error derivatives and the
    closed-form error dynamics

        zdot_ij = A_ref z_ij - B_i sum_s K_is z_is
                  + B_j sum_v K_jv z_jv - [j leader] B_j u_j(t)

    evaluated at interior grid points with the 3-point nonuniform central
    difference FD.  Expected to shrink as O(dt^2) on smooth inputs.

    With z_ij = x_i - x_j + d_ij and i always a follower, the defect of
    edge (i, j) is Q_i - Q_j - A_ref d_ij, where each agent a carries one
    term

        Q_a = FD(x_a) - A_ref x_a + P_a - [a leader] B_a u_a,
        P_a = B_a sum_s K_as z_as  (zero for a leader).

    The Q_a are formed once per agent, in the trace's time-contiguous
    layout (one row per state component), so each edge costs one
    difference and one norm; the closed-loop matrix is not used.
    """
    times = trace.times
    if len(times) < 3:
        return 0.0
    A_ref = spec.agent(decomp.renumbering[0]).A
    interior = slice(1, -1)

    # 3-point nonuniform central-difference weights, one per interior point
    h0 = times[1:-1] - times[:-2]
    h1 = times[2:] - times[1:-1]
    w_prev = -h1 / (h0 * (h0 + h1))
    w_mid = (h1 - h0) / (h0 * h1)
    w_next = h0 / (h1 * (h0 + h1))

    Q = {}
    for a in spec.nodes:
        x = trace.states[a].T  # (n, grid points)
        q = w_prev * x[:, :-2] + w_mid * x[:, 1:-1] + w_next * x[:, 2:]
        q -= A_ref @ x[:, 1:-1]
        fc = ctrl.followers.get(a)
        if fc is not None:
            Ba = spec.agent(a).B
            for s, Ks in fc.K.items():
                q += (Ba @ Ks) @ _rows(trace.errors, (a, s), interior).T
        if a in decomp.leaders:
            q -= spec.agent(a).B @ _rows(trace.inputs, a, interior).T
        Q[a] = q

    worst = 0.0
    for e in spec.edges:
        defect = np.linalg.norm(Q[e.i] - Q[e.j] - (A_ref @ e.d)[:, None], axis=0)
        worst = max(worst, float(np.max(defect)))
    return worst


# ---------------------------------------------------------------------------
# Export


_CSV_BLOCK = 64  # rows formatted per stacked block; bounds the extra memory


def write_trace_csv(trace: SimulationTrace, decomp: LevelDecomposition, path) -> None:
    """Write the trace as CSV: time, per-agent state columns x_<id>[k],
    then per-edge error columns z_<i>_<j>[k].  Agents follow renumbering
    order; edges sort by their endpoints' renumbered indices.  Floats use
    repr so rewrites of the same trace are byte-identical.  Edge errors
    are computed block by block, so no full edge array is held."""
    order = list(decomp.renumbering)
    edge_order = decomp.edge_order(trace.errors)
    n = next(iter(trace.states.values())).shape[1]

    header = ["time"]
    for i in order:
        header.extend(f"x_{i}[{k}]" for k in range(1, n + 1))
    for (i, j) in edge_order:
        header.extend(f"z_{i}_{j}[{k}]" for k in range(1, n + 1))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(trace.times), _CSV_BLOCK):
            rows = slice(start, start + _CSV_BLOCK)
            block = np.hstack(
                [trace.times[rows, None]]
                + [trace.states[i][rows] for i in order]
                + [_rows(trace.errors, e, rows) for e in edge_order]
            )
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())
