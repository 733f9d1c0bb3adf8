"""Closed-loop simulation and trajectory-level verification.

Propagates the coupled agent dynamics under a follower control law and
free leader inputs on a fixed-step grid, records the states in one
time-contiguous array, derives edge errors and follower inputs from them on
access, and offers three trajectory checks.  Inputs whose signals have a
linear generator (every built-in signal: zero, constant, sinusoid and
piecewise constant, whose generator restarts at each breakpoint) are
propagated exactly by matrix exponentials (integrator ``"expm"``); a
signal without one makes the run take classic Runge-Kutta steps aligned
to the breakpoints (integrator ``"rk4"``).  The checks:

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

from .controllers import ControllerSet, _check_structure, control_input
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

    def sample(self, times) -> np.ndarray:
        """value(t) at each of the times, one row each.  Built-in signals
        compute it at once, bitwise equal to `value`; a subclass may do the
        same for speed."""
        return np.array([self.value(t) for t in times])

    def running_sups(self, times) -> np.ndarray:
        """running_sup(t) at each of the times, as `sample` is to `value`."""
        return np.array([self.running_sup(t) for t in times], dtype=float)

    def breakpoints(self, T: float) -> tuple:
        """Discontinuity times inside (0, T) the integrator must land on."""
        return ()

    def generator(self):
        """(S, H, w0) with u(t) = H w(t), w' = S w, w(0) = w0, or None when
        the signal has no such linear generator.

        For a signal with breakpoints, w is its value (S is m-by-m and
        H = I_m): at each breakpoint b the state restarts at w(b) = value(b)
        and then follows w' = S w again.  The restart happens at the grid
        point the breakpoint sits on, or at the point it was merged into
        when it lay within grid resolution of one.  `simulate` counts a
        generator of any other form on a signal with breakpoints as none.
        """
        return None


class ZeroSignal(LeaderSignal):
    is_zero = True

    def __init__(self, m: int):
        self.m = int(m)

    def value(self, t):
        return np.zeros(self.m)

    def running_sup(self, t):
        return 0.0

    def sample(self, times):
        return np.zeros((len(times), self.m))

    def running_sups(self, times):
        return np.zeros(len(times))


class ConstantSignal(LeaderSignal):
    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self._norm = float(np.linalg.norm(self.c))

    def value(self, t):
        return self.c

    def running_sup(self, t):
        return self._norm

    def sample(self, times):
        return np.repeat(self.c[None], len(times), axis=0)

    def running_sups(self, times):
        return np.full(len(times), self._norm)

    def generator(self):
        return np.zeros((1, 1)), self.c[:, None], np.ones(1)


def _sines(arg: np.ndarray) -> np.ndarray:
    """math.sin of each element of a 1-d array."""
    return np.fromiter(map(math.sin, arg), float, len(arg))


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

    # The grid-wide forms repeat the scalar arithmetic elementwise and take
    # each sine from math.sin, so they equal `value` and `running_sup`
    # bitwise whatever sine numpy's build uses.

    def sample(self, times):
        arg = self.omega * np.asarray(times, dtype=float) + self.phase
        return _sines(arg)[:, None] * self.amplitude

    def running_sups(self, times):
        a = self._norm
        if self.omega == 0.0:
            return np.full(len(times), a * abs(math.sin(self.phase)))
        end = self.phase + self.omega * np.asarray(times, dtype=float)
        lo, hi = np.minimum(self.phase, end), np.maximum(self.phase, end)
        k = np.ceil((lo - math.pi / 2.0) / math.pi)
        rest = ~(math.pi / 2.0 + k * math.pi <= hi)  # no peak inside [lo, hi]
        sups = np.full(len(end), a)
        sups[rest] = a * np.maximum(np.abs(_sines(lo[rest])), np.abs(_sines(hi[rest])))
        return sups

    def generator(self):
        # w = [sin(omega t + phase), cos(omega t + phase)]
        S = np.array([[0.0, self.omega], [-self.omega, 0.0]])
        H = np.column_stack([self.amplitude, np.zeros_like(self.amplitude)])
        return S, H, np.array([math.sin(self.phase), math.cos(self.phase)])


class PiecewiseConstantSignal(LeaderSignal):
    """values[k] on [times[k], times[k+1]); times[0] must be 0.

    Discontinuous, hence outside the continuous admissible class for
    leaders.  Its generator is w' = 0, u = w, restarted with the new value
    at every breakpoint, so `simulate` propagates it exactly piece by piece;
    the grid lands on every breakpoint.
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

    def _segment(self, t, left: bool = False):
        """Index of the value on at time t, or at each of the times t."""
        k = np.searchsorted(self.times, t, side="left" if left else "right") - 1
        return np.clip(k, 0, len(self.values) - 1)

    def value(self, t):
        return self.values[self._segment(t)]

    def left_value(self, t):
        return self.values[self._segment(t, left=True)]

    def running_sup(self, t):
        return float(self._running_max[self._segment(t)])

    def sample(self, times):
        return self.values[self._segment(times)]

    def running_sups(self, times):
        return self._running_max[self._segment(times)]

    def breakpoints(self, T):
        return tuple(float(t) for t in self.times if 0.0 < t < T)

    def generator(self):
        m = self.values.shape[1]
        return np.zeros((m, m)), np.eye(m), self.values[0].copy()


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
    read, and ``inputs`` one that samples a leader's signal
    (`LeaderSignal.sample`) or computes a follower's control input when it
    is read; read each value once and keep it if it is needed again.
    ``metadata["integrator"]`` names the propagation: ``"expm"`` (exact,
    every signal with a linear generator) or ``"rk4"`` (some signal
    without one).  ``closed_loop`` is the pair
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
    """The points k * dt in [0, T], plus T and the breakpoints; a point within
    grid resolution of the last point kept is dropped."""
    res = _grid_resolution(T)
    grid = np.arange(int(math.floor(T / dt + 1e-12)) + 1) * dt
    extra = [T] if T - grid[-1] > res else []
    times = np.unique(np.concatenate([grid, extra, np.asarray(breakpoints, dtype=float)]))
    # only a point within res of its predecessor can be dropped; it is
    # compared with the last point kept before it
    keep = np.ones(len(times), dtype=bool)
    anchor = times[0]
    for k in np.flatnonzero(np.diff(times) <= res) + 1:
        if keep[k - 1]:
            anchor = times[k - 1]
        keep[k] = times[k] - anchor > res
    times = times[keep]
    times[-1] = min(times[-1], T)
    return times


def _integrate(M, c, forcing, times, y0):
    """Fixed-step RK4 over the given grid for ydot = M y + c + sum G_s u_s(t).

    ``forcing`` lists (G_s, signal) for the nonzero leader inputs, and y is
    ``y0`` flattened.  Returns the (len(times), dim) trajectory as the
    transposed view of a C-contiguous array of shape
    ``y0.shape + (len(times),)``.  `simulate` uses it (integrator
    ``"rk4"``) when some signal has no linear generator; the grid lands on
    every breakpoint, so each step sees a continuous right-hand side.
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


# Taylor series below are scaled to a 1-norm of at most _THETA and cut where
# the remainder falls below unit roundoff (see `_taylor_terms`).
_THETA = 0.5


def _taylor_terms(theta: float) -> int:
    """Least m with theta^m / (m + 1)! <= 2^-53: the terms of the series
    of e^Y - I that keep its remainder below unit roundoff relative to
    ||Y|| for ||Y|| <= theta <= 1; applied to a vector z, below unit
    roundoff relative to ||z||."""
    m, bound = 1, theta / 2.0
    while bound > 2.0**-53:
        m += 1
        bound *= theta / (m + 1)
    return m


def _norm1(X: np.ndarray) -> float:
    return float(np.abs(X).sum(axis=0).max())


def _taylor_increment(Y: np.ndarray, Z: np.ndarray, terms: int) -> np.ndarray:
    """sum over 1 <= j <= terms of Y^j Z / j!: the series of (e^Y - I) Z."""
    term = Y @ Z
    total = term.copy()
    for j in range(2, terms + 1):
        term = (Y @ term) / j
        total += term
    return total


def _expm_increment(X: np.ndarray) -> np.ndarray:
    """e^X - I, accurate relative to ||X||, at the size of X.

    The Taylor series of e^Y - I at Y = X / 2^s, with s the least scaling
    that brings ||Y||_1 under `_THETA`, then s doublings D <- D (D + 2I),
    since e^{2Y} - I = (e^Y - I)(e^Y + I).  The doublings stop once D is
    non-finite, as it then stays.
    """
    s = max(0, math.frexp(_norm1(X) / _THETA)[1])
    Y = np.ldexp(X, -s)
    D = _taylor_increment(Y, np.eye(len(X)), _taylor_terms(min(_norm1(Y), _THETA)))
    for _ in range(s):
        if not np.isfinite(D).all():
            break
        D = D @ D + 2.0 * D
    return D


def _step_on_vector(A: np.ndarray, norm: float, h: float, z: np.ndarray) -> np.ndarray:
    """z + (e^{hA} - I) z; ``norm`` is ||A||_1.

    Truncated Taylor series of the increment applied to the vector, on the
    fewest 2^s equal substeps whose 1-norm is under `_THETA` (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 2011).  The substeps grow in number with
    h ||A||_1; past ``len(z)`` of them, one matrix increment
    `_expm_increment`, whose cost grows with log h ||A||_1 only, is cheaper
    and is applied instead.  The counts depend on h ||A||_1 alone, never
    on z; a non-finite A takes one substep and yields a non-finite z.
    """
    count = 2 ** max(0, math.frexp(h * norm / _THETA)[1])
    if count > len(z):
        return z + _expm_increment(h * A) @ z
    sub = h / count
    Y = sub * A
    terms = _taylor_terms(min(sub * norm, _THETA))
    for _ in range(count):
        z = z + _taylor_increment(Y, z, terms)
    return z


def _propagate(M, c, generators, times, y0, dt, T):
    """Exact propagation of ydot = M y + c + sum G_s u_s(t) over the grid,
    every u_s the output of a linear generator.

    ``generators`` lists (G_s, signal, (S_s, H_s, w0_s)) for the nonzero
    leader inputs, the last as `LeaderSignal.generator` gives it.

    The augmented state z = [y; sigma; w_s...] obeys z' = A z with
    A = [[M, c / sigma, G_s H_s...], [0, 0, 0], [0, 0, S_s...]] (Van Loan,
    IEEE TAC 1978).  The constant coordinate sigma is the power of two that
    brings the column c / sigma to the 1-norm of M, so that a large drift
    does not inflate ||h A||_1.  A step of length ``dt`` is
    z <- z + D z with the one increment D = e^{dt A} - I; any other step
    (beside a breakpoint, or the short last one) is applied to the vector
    by `_step_on_vector`.  At the grid point of each breakpoint of signal
    s, w_s restarts at the signal's new value (see
    `LeaderSignal.generator`).  y is ``y0`` flattened.  Returns the
    trajectory as `_integrate` does; raises `NonFiniteStateError` at the
    first grid time with a non-finite state.
    """
    dim = y0.size
    size = dim + 1 + sum(gen[0].shape[0] for _, _, gen in generators)
    norm_m, norm_c = _norm1(M), float(np.abs(c).sum())
    sigma = math.ldexp(1.0, math.frexp(norm_c / norm_m)[1]) if norm_c > norm_m > 0 else 1.0
    A = np.zeros((size, size))
    A[:dim, :dim] = M
    A[:dim, dim] = c / sigma
    z = np.empty(size)
    z[:dim] = y0.reshape(-1)
    z[dim] = sigma
    restarts = {}
    r = dim + 1
    for G, sig, (S, H, w0) in generators:
        k = S.shape[0]
        A[:dim, r : r + k] = G @ H
        A[r : r + k, r : r + k] = S
        z[r : r + k] = w0
        breaks = sig.breakpoints(T)
        for b, value in zip(breaks, sig.sample(breaks)):
            at = int(np.searchsorted(times, b, side="right")) - 1
            restarts.setdefault(at, []).append((r, value))
        r += k

    increment = _expm_increment(dt * A)
    norm = _norm1(A)
    h = np.diff(times)
    other = set(np.flatnonzero(np.abs(h - dt) > _grid_resolution(times[-1])).tolist())
    out = np.empty(y0.shape + (len(times),))
    flat = out.reshape(dim, len(times))
    flat[:, 0] = z[:dim]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is detected below
        for step in range(len(times) - 1):
            for r, value in restarts.get(step, ()):
                z[r : r + len(value)] = value
            if step in other:
                z = _step_on_vector(A, norm, float(h[step]), z)
            else:
                z = z + increment @ z
            flat[:, step + 1] = z[:dim]
    bad = ~np.isfinite(flat).all(axis=0)
    if bad.any():
        raise NonFiniteStateError(float(times[int(np.argmax(bad))]))
    return flat.T


def _generator(sig: LeaderSignal, m: int, T: float):
    """``sig.generator()``, or None when the signal has breakpoints in
    (0, T) but its generator state is not its value (S of shape (m, m) and
    H = I_m), since `_propagate` restarts that state with the value."""
    gen = sig.generator()
    if gen is not None and sig.breakpoints(T):
        S, H, _ = gen
        if np.shape(S) != (m, m) or not np.array_equal(H, np.eye(m)):
            return None
    return gen


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
    triangular in renumbering order) on the grid k * dt, plus T and the
    signal breakpoints in (0, T).  When every nonzero signal has a linear
    generator (all built-in signals: `ConstantSignal`, `SinusoidSignal`,
    `PiecewiseConstantSignal`), the trajectory is exact up to roundoff:
    one matrix exponential increment for the steps of length dt, the other
    steps applied to the state vector, and the generator states restarted
    at the breakpoints (integrator ``"expm"``, see `_propagate`).  A signal
    without a generator, or with breakpoints and a generator whose state is
    not its value, makes the whole run take classic RK4 steps, which
    land on every breakpoint so each step sees a continuous right-hand side
    (integrator ``"rk4"``).  ``metadata["integrator"]`` names the one used.

    Both integrators write one C-contiguous (agents, n, grid points) array,
    which the trace's per-agent state views share; edge errors and the
    leader and follower inputs are not evaluated here but when the trace's
    mappings are read (see `SimulationTrace`).  The built-in signals are
    evaluated only through their grid-wide methods.

    A controller that does not fit the instance (see
    `verify_controller`) or a leader signal whose values are not m-vectors
    raises `ValueError`.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    _check_structure(spec, decomp, ctrl)
    n = spec.n
    order, pos, M, c, leader_cols = _closed_loop_blocks(spec, decomp, ctrl)

    sig_map = {}
    for i in sorted(decomp.leaders):
        sig_map[i] = ZeroSignal(spec.m)
    if signals:
        for i, sig in signals.items():
            if i not in sig_map:
                raise ValueError(f"agent {i} is not a leader; it cannot take a free input")
            width = np.shape(sig.sample(np.zeros(1)))[1:]
            if width != (spec.m,):
                raise ValueError(
                    f"signal of leader {i} has values of shape {width}, expected ({spec.m},)"
                )
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
    generators = [(G, sig, _generator(sig, spec.m, T)) for G, sig in forcing]
    exact = all(gen is not None for _, _, gen in generators)
    if exact:
        traj = _propagate(M, c, generators, times, y0, dt, T)
    else:
        traj = _integrate(M, c, forcing, times, y0)

    slab = traj.T.reshape(len(order), n, len(times))  # a view of the one stored array
    states = {i: slab[k].T for k, i in enumerate(order)}
    offsets = {e.key: e.d for e in spec.edges}
    errors = _OnAccess(
        offsets,
        lambda e, rows: states[e[0]][rows] - states[e[1]][rows] + offsets[e],
    )

    def leader_input(i, rows):
        t = times[rows]
        return sig_map[i].sample(np.reshape(t, -1)).reshape(np.shape(t) + (spec.m,))

    inputs = _OnAccess(
        order,
        lambda i, rows: leader_input(i, rows) if i in sig_map
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
    sampling, `LeaderSignal.running_sups`) and the max runs over leaders
    with a nonzero signal.  Each edge is checked on the grid against its
    bound plus the float resolution 64 eps (1 + max_k ||x_k(t)||) of the
    recorded errors.  The fit fails when some excess is above
    1e-6 * (1 + ||z(0)||), or when M_e is not Hurwitz; then alpha is 0.0
    and each edge's growth is measured against its initial error.  An edge
    whose norms overflow has a NaN excess, which counts as an infinite
    violation.
    """
    times = trace.times
    edges = decomp.edge_order(trace.errors)
    z0n = trace.initial_error_norm()
    tol = 1e-6 * (1.0 + z0n)

    # zero signals add nothing to U; the others are added in signal order
    U = np.zeros(len(times))
    driven = []  # leaders whose input is nonzero somewhere on the grid
    for a, sig in trace.signals.items():
        if not sig.is_zero:
            sups = sig.running_sups(times)
            U += sups
            if sups[-1] > 0.0:
                driven.append(a)
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
        gain = max((float(np.linalg.norm(T @ G[a], 2)) for a in driven), default=0.0)
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

    # a growing trace can overflow the norms to inf, and inf - inf is NaN:
    # such an excess counts as +inf, whatever the edge order
    with np.errstate(over="ignore", invalid="ignore"):
        state_norm = np.zeros(len(times))
        for x in trace.states.values():
            np.maximum(state_norm, np.linalg.norm(x, axis=1), out=state_norm)
        floor = 64.0 * np.finfo(float).eps * (1.0 + state_norm)
        decay = np.exp(-alpha * times) * z0n

        max_violation = -math.inf
        for e in edges:
            z = np.linalg.norm(trace.errors[e], axis=1)
            envelope = C_map[e] * decay + b_map[e] * U + floor
            excess = float(np.max(z - envelope))
            max_violation = max(max_violation, math.inf if math.isnan(excess) else excess)

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
    difference and one norm; the closed-loop matrix is not used.  A gain
    K_as that is exactly zero and a zero leader input add exact zeros, so
    their terms are left out; on a finite trace the result is the same.
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
                if Ks.any():
                    q += (Ba @ Ks) @ _rows(trace.errors, (a, s), interior).T
        if a in decomp.leaders and not trace.signals[a].is_zero:
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
