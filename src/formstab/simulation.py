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
  errors toward two of its parents through their parent chains; on a
  trace, whose errors derive from its states, it checks displacement
  consistency (criterion condition 3), not the trajectory,
* `error_dynamics_check` compares finite-difference derivatives of the
  edge errors against their closed-form linear dynamics, through one term
  per agent: of the two identities, the one that tests the trajectory.

One kernel, `_edge_tiles`, forms every edge vector r_i - r_j + o_ij, in
tiles of at most `BUDGET` values or one edge.  `fit_envelope` and
`error_dynamics_check` find their largest edge norm with `_largest_excess`:
a bound from one pass over the agents says where an edge can set the
maximum, only there is the edge formed, and the result has the bits of the
full scan.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import shutil
import signal
import tempfile
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .controllers import ControllerSet, _check_structure, control_input
from .errors import (
    NonDecayError,
    NonFiniteStateError,
    NotSiblingParentsError,
    StepTooLargeError,
    TraceWriteError,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    _is_block_triangular_hurwitz,
    _lyapunov_constant,
)
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
# Norms past the square root of the float range.  A square overflows from
# |x| ~ 1.34e154, so where a sum of squares is inf but the entries are finite
# the norm is taken again after an exact power-of-two scaling; other norms
# keep the bits of the root of their sum of squares.


def _scaled_norms(z: np.ndarray) -> np.ndarray:
    """The 2-norm of each column of z, each column scaled by the power of
    two of its largest magnitude before it is squared and scaled back
    after: finite wherever the norm is below the float maximum."""
    _, e = np.frexp(np.max(np.abs(z), axis=0))
    y = np.ldexp(z, -e)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return np.ldexp(np.sqrt(np.add.reduce(y * y, 0)), e)


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` bitwise, or `_scaled_norms` of the entries of
    v where that overflows with every entry finite."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(v))
    if math.isinf(norm) and np.isfinite(v).all():
        return float(_scaled_norms(np.reshape(v, (-1, 1)))[0])
    return norm


# ---------------------------------------------------------------------------
# Leader input signals.  Each knows its exact running sup-norm so the
# envelope check never relies on grid sampling of the input.


class LeaderSignal:
    """Base class for exogenous leader inputs on [0, T].  A subclass defines
    `value` and `running_sup`; the grid-wide methods loop over them."""

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
        compute it at once and read `value` from it; a subclass may compute
        it at once for speed."""
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


class _BuiltinSignal(LeaderSignal):
    """A built-in signal: its parameters are finite, and its values and
    running sups have one form each, the grid-wide `sample` and
    `running_sups`, which `value` and `running_sup` read at one time."""

    def value(self, t):
        # as quiet as Python float arithmetic: omega * t may overflow and
        # 0 * inf is NaN; `sample` then returns a NaN or math.sin raises
        with np.errstate(over="ignore", invalid="ignore"):
            return self.sample(np.array([t], dtype=float))[0]

    def running_sup(self, t):
        return float(self.running_sups(np.array([t], dtype=float))[0])

    def _finite(self, name, value) -> np.ndarray:
        """``value`` as a float array; a NaN or infinite entry raises
        `ValueError` naming the parameter."""
        arr = np.asarray(value, dtype=float)
        if not np.isfinite(arr).all():
            raise ValueError(f"{type(self).__name__} {name} must be finite, got {arr.tolist()}")
        return arr

    def _finite_norm(self, name, v) -> float:
        """`_norm` of v; a norm past the float range raises `ValueError`
        naming the parameter."""
        norm = _norm(v)
        if math.isinf(norm):
            raise ValueError(f"{type(self).__name__} {name} {v.tolist()} overflows its norm")
        return norm


class ConstantSignal(_BuiltinSignal):
    def __init__(self, c):
        self.c = self._finite("value", c)
        self._norm = self._finite_norm("value", self.c)

    def sample(self, times):
        return np.repeat(self.c[None], len(times), axis=0)

    def running_sups(self, times):
        return np.full(len(times), self._norm)

    def generator(self):
        return np.zeros((1, 1)), self.c[:, None], np.ones(1)


class ZeroSignal(ConstantSignal):
    """The zero constant on m channels, marked so that its terms are skipped."""

    is_zero = True

    def __init__(self, m: int):
        super().__init__(np.zeros(m))


def _sines(arg: np.ndarray) -> np.ndarray:
    """math.sin of each element of a 1-d array."""
    return np.fromiter(map(math.sin, arg), float, len(arg))


class SinusoidSignal(_BuiltinSignal):
    """u(t) = amplitude * sin(omega t + phase), amplitude an m-vector."""

    def __init__(self, amplitude, omega: float, phase: float = 0.0):
        self.amplitude = self._finite("amplitude", amplitude)
        self.omega = float(self._finite("omega", omega))
        self.phase = float(self._finite("phase", phase))
        self._norm = self._finite_norm("amplitude", self.amplitude)

    # `sample` takes each sine from math.sin, so its bits are libm's
    # whatever sine numpy's build uses.

    def sample(self, times):
        arg = self.omega * np.asarray(times, dtype=float) + self.phase
        return _sines(arg)[:, None] * self.amplitude

    def running_sups(self, times):
        a = self._norm
        if self.omega == 0.0:
            return np.full(len(times), a * abs(math.sin(self.phase)))
        with np.errstate(over="ignore"):  # an infinite end holds a peak
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


class PiecewiseConstantSignal(_BuiltinSignal):
    """values[k] on [times[k], times[k+1]); times[0] must be 0.

    Discontinuous, hence outside the continuous admissible class for
    leaders.  Its generator is w' = 0, u = w, restarted with the new value
    at every breakpoint, so `simulate` propagates it exactly piece by piece;
    the grid lands on every breakpoint.
    """

    def __init__(self, times, values):
        self.times = self._finite("times", times)
        self.values = self._finite("values", values)
        if self.times.ndim != 1 or len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")
        if len(self.times) == 0 or self.times[0] != 0.0:
            raise ValueError("first breakpoint must be t=0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        self._running_max = np.maximum.accumulate(
            [self._finite_norm("value", v) for v in self.values]
        )

    def _segment(self, times, side="right"):
        """Index of the value on at each of the times (just before, on side="left")."""
        k = np.searchsorted(self.times, times, side=side) - 1
        return np.clip(k, 0, len(self.values) - 1)

    def left_value(self, t):
        return self.values[self._segment(t, side="left")]

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
    access, as ``compute(key)``, and never stored."""

    def __init__(self, keys, compute):
        self._keys = dict.fromkeys(keys)
        self._compute = compute

    def __getitem__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        return self._compute(key)

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


# The most values an edge tile holds unless it is one edge, and a block of CSV
# rows unless it is one row: the one bound on the memory that forming edge
# errors adds.  At T=20 a tile over the whole grid of the l=45 benchmark
# formations holds one edge.
BUDGET = 2**14


def _edge_tiles(rows, ends, offsets, cols=slice(None)):
    """Each edge's z_ij = r_i - r_j + o_ij at the grid columns ``cols``, in
    tiles: yields (edges, z), z of shape (edges, n, columns) for the edges
    ``ends[edges]``.  ``rows`` holds one (n, columns) row r_a per agent,
    ``ends`` the places in ``rows`` of each edge's ends and ``offsets`` its
    o_ij, one row per edge; ``cols`` is a slice, one column or an
    increasing index array, read as a slice where it is contiguous.

    A tile holds max(1, BUDGET // (n columns)) edges: one edge subtracts
    its two rows, views at a slice; more stack the rows of the agents they
    touch and gather from the stack.  Each entry is one subtraction and one
    addition, whatever the tiling.  The tiles of a call share one buffer:
    read each before drawing the next."""
    if not isinstance(cols, slice):
        cols = np.atleast_1d(cols)
        if len(cols) and cols[-1] - cols[0] == len(cols) - 1:
            cols = slice(int(cols[0]), int(cols[-1]) + 1)
    n, count = len(rows[0]), rows[0][:1, cols].shape[1]
    per = max(1, BUDGET // (n * count))
    buf = np.empty((min(per, len(ends)), n, count))
    for start in range(0, len(ends), per):
        edges = slice(start, start + per)
        pairs = ends[edges]
        z = buf[: len(pairs)]
        if len(pairs) == 1:
            np.subtract(rows[pairs[0, 0]][:, cols], rows[pairs[0, 1]][:, cols], out=z[0])
        else:
            touched = np.zeros(len(rows), dtype=bool)
            touched[pairs] = True
            stack = np.stack([rows[a][:, cols] for a in np.flatnonzero(touched)])
            at = (np.cumsum(touched) - 1)[pairs]  # places in the stack
            np.take(stack, at[:, 0], axis=0, out=z)
            z -= stack[at[:, 1]]
        z += offsets[edges][:, :, None]
        yield edges, z


def _squares_by_rows(z: np.ndarray) -> np.ndarray:
    """The sum of squares of each column of each edge of the tile z, as
    (edges, columns), z squared in place.  The squares are added row by
    row, the order numpy's reduction over the rows of an array wider than
    one column takes, so a sum has the same bits whatever tile it is in (a
    reduction over one column is summed pairwise from 9 rows on)."""
    z *= z
    total = z[:, 0]
    for r in range(1, z.shape[1]):
        total += z[:, r]
    return total


@dataclass(frozen=True)
class SimulationTrace:
    """Closed-loop trajectory on a (possibly breakpoint-refined) time grid.

    ``states``/``inputs`` are keyed by agent id, ``displacements`` (the
    read-only d_ij, the trace's one record of its edges) and ``errors`` by
    edge key in the spec's order; every value has one row per grid point.
    The states are stored once, as one C-contiguous (agents, n, grid
    points) array with agents in renumbering order: ``states[i]`` is the
    transposed view of agent i's (n, grid points) slab, so each state
    component is contiguous in time.  Nothing else of that size is stored.
    ``errors`` is no field but a read-only mapping built once per trace
    that forms z_ij with `_edge_tiles` when an edge is read, so a trace
    rebuilt with other states has their errors; ``inputs`` samples a
    leader's signal (`LeaderSignal.sample`) or computes a follower's
    control input when it is read.  Read each value once and keep it if it
    is needed again.  ``metadata["integrator"]`` names the propagation:
    ``"expm"`` (exact, every signal with a linear generator) or ``"rk4"``
    (some signal without one).  ``closed_loop`` is the pair ``(M, G)`` of
    the integrated system y' = M y + c + sum_a G[a] u_a(t): the stacked
    closed-loop matrix with agents in renumbering order, and the input map
    per leader id.  ``free_errors`` is always None: a class attribute, not
    a field, which the benchmark's per-layer counters read.
    """

    times: np.ndarray
    states: dict
    displacements: Mapping
    inputs: Mapping
    metadata: dict
    signals: dict
    closed_loop: tuple
    free_errors = None

    @cached_property
    def _gather(self) -> tuple:
        """(rows, ends, offsets) of `_edge_tiles` for the edges in the order
        of ``displacements``, and each edge's place in it; built once."""
        at = {a: k for k, a in enumerate(self.states)}
        place = {e: k for k, e in enumerate(self.displacements)}
        rows = [x.T for x in self.states.values()]
        d = np.array(list(self.displacements.values()), dtype=float).reshape(-1, len(rows[0]))
        return rows, np.array([at[a] for e in place for a in e], np.intp).reshape(-1, 2), d, place

    @cached_property
    def errors(self) -> Mapping:
        # closes over the gather, not the trace: no reference cycle
        rows, ends, d, place = self._gather
        return _OnAccess(place, lambda e: next(_edge_tiles(
            rows, ends[[place[e]]], d[[place[e]]]))[1][0].T)

    def initial_error_norm(self) -> float:
        """||z(0)|| of all edge errors stacked, from the states' first
        column; finite up to the float range (see `_scaled_norms`)."""
        rows, ends, d, _ = self._gather
        z0 = np.empty(d.shape)
        for edges, z in _edge_tiles(rows, ends, d, 0):
            z0[edges] = z[:, :, 0]
        with np.errstate(over="ignore"):
            sq = sum(float(z @ z) for z in z0)
        if math.isinf(sq):
            return float(_scaled_norms(z0.reshape(-1, 1))[0])
        return math.sqrt(sq)


def ideal_initial_states(decomp: LevelDecomposition, x0) -> dict:
    """Initial states x_i(0) = x0 - D_i, which zero every edge error."""
    x0 = np.asarray(x0, dtype=float)
    return {i: x0 - decomp.cumulative_offset[i] for i in decomp.renumbering}


def _closed_loop_blocks(spec, decomp, ctrl):
    """Stacked closed-loop matrix, constant offset, and leader input map.

    Returns (M, c, leader_cols), agents' state blocks in renumbering order
    (block ``decomp.position[i]`` is agent i's): M is the (n*l, n*l)
    closed-loop matrix, c the constant drift, and leader_cols maps leader
    id -> (n*l, m) injection matrix.  The follower blocks A_i + B_i S_i,
    B_i K_is and B_i k_i are stacked matmuls over the controller's stacks,
    bitwise the per-agent products.
    """
    l, n, law = spec.l, spec.n, ctrl._stacks
    M, c = np.zeros((l * n, l * n)), np.zeros(l * n)
    blocks, drift = M.reshape(l, n, l, n), c.reshape(l, n)  # views
    pos = np.empty(l + 1, dtype=int)
    pos[list(decomp.renumbering)] = np.arange(l)
    rows = np.array(law.followers, dtype=int) - 1
    A_f, B_f, r = spec.A_stack[rows], spec.B_stack[rows], pos[rows + 1]
    blocks[r, :, r] = A_f + B_f @ law.S
    blocks[r[law.rows], :, pos[law.parents]] += B_f[law.rows] @ law.K
    drift[r] = (B_f @ law.k[:, :, None])[:, :, 0]
    leader_cols = {}
    for i in decomp.renumbering[:decomp.l0]:
        blocks[pos[i], :, pos[i]] = spec.agent(i).A
        leader_cols[i] = np.zeros((l * n, spec.m))
        leader_cols[i].reshape(l, n, spec.m)[pos[i]] = spec.agent(i).B
    return M, c, leader_cols


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


def _integrate(M, c, forcing, times, out):
    """Fixed-step RK4 over the given grid for ydot = M y + c + sum G_s u_s(t).

    ``forcing`` lists (G_s, signal) for the nonzero leader inputs.  The
    steps fill the (dim, len(times)) trajectory ``out`` from y(0) in its
    column 0, and go on past an overflow.  `simulate` uses it (integrator
    ``"rk4"``) when some signal has no linear generator; the grid lands on
    every breakpoint, so each step sees a continuous right-hand side.
    """
    y = out[:, 0].copy()

    def rhs(t, y, end=False):
        dy = M @ y + c
        for G, sig in forcing:
            dy += G @ (sig.left_value(t) if end else sig.value(t))
        return dy

    for step, (a, b) in enumerate(zip(times[:-1], times[1:]), 1):
        h = b - a
        k1 = rhs(a, y)
        k2 = rhs(a + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(a + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(b, y + h * k3, end=True)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[:, step] = y


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


def _taylor_increment(Y: np.ndarray, Z: np.ndarray, terms: int) -> np.ndarray:
    """sum over 1 <= j <= terms of Y^j Z / j!: the series of (e^Y - I) Z."""
    term = Y @ Z
    total = term.copy()
    for j in range(2, terms + 1):
        term = (Y @ term) / j
        total += term
    return total


def _expm_increment(X: np.ndarray, count: int = 1) -> list:
    """[D_0, ..., D_{count-1}] with D_j = e^{2^j X} - I, at the size of X;
    D_0 = e^X - I is accurate relative to ||X||.

    The Taylor series of e^Y - I at Y = X / 2^s, with s the least scaling
    that brings ||Y||_1 under `_THETA`, then doublings D <- D (D + 2I),
    since e^{2Y} - I = (e^Y - I)(e^Y + I): s of them give D_0, and each
    further one the next D_j.  D_0 is always returned, non-finite once a
    doubling overflows, as it then stays; the list ends before the first
    non-finite D_j after it.
    """
    s = max(0, math.frexp(float(np.linalg.norm(X, 1)) / _THETA)[1])
    Y = np.ldexp(X, -s)
    terms = _taylor_terms(min(float(np.linalg.norm(Y, 1)), _THETA))
    D = _taylor_increment(Y, np.eye(len(X)), terms)
    for _ in range(s):
        if not np.isfinite(D).all():
            break
        D = D @ D + 2.0 * D
    powers = [D]
    while len(powers) < count:
        D = D @ D + 2.0 * D
        if not np.isfinite(D).all():
            break
        powers.append(D)
    return powers


# Blocks of `_propagate` hold at most 2^_MAX_DOUBLINGS dt steps.  A block
# filled by doubling holds at least _MIN_BLOCK: narrower ones take single
# steps.  With one OpenBLAS thread on an x86-64 core, doubled blocks of 8 to
# 24 steps took up to 1.8 times as long as single steps at augmented size
# 394; from 32 steps on they were faster at sizes 181, 394 and 701.  Blocks
# carried forward by e^{2^J dt A} - I take one product each, whatever
# their width.
_MAX_DOUBLINGS = 7
_MIN_BLOCK = 32


def _content_key(X: np.ndarray) -> tuple:
    """(shape, blake2b digest of the bytes) of a float array: a key for what
    it holds, not for which object holds it."""
    return X.shape, hashlib.blake2b(np.ascontiguousarray(X)).digest()


# Held while a store of closed-loop facts below is read or filled, so that
# threads keep its bound.
_stores_lock = threading.Lock()

# The closed loop `_propagate` stepped last, keyed by `_content_key(dt * A)`
# and the count J + 1, with its increments [D_0, D_1, ...] once it has been
# stepped twice in a row, None before: a loop stepped once leaves no matrix
# held.
_increments: dict = {}


def _step_increments(X: np.ndarray, count: int) -> list:
    """The increments [D_0, D_1, ...] of ``_expm_increment(X, count)``:
    `_propagate` asks for J + 1 of them, the J that fill a block by
    doubling and D_J, which carries a block forward.  They are kept from
    the second of a run of calls with the same X and count and reused for
    the rest of it.  A miss empties the store before it builds, so one set
    at most is held."""
    key = (*_content_key(X), count)
    with _stores_lock:
        seen = key in _increments
        powers = _increments.get(key)
        if powers is None:
            _increments.clear()
            powers = _expm_increment(X, count)
            _increments[key] = powers if seen else None
    return powers


def _block_doublings(size: int, steps: int, longest: int) -> int:
    """Doublings J per block of `_propagate`: `_MAX_DOUBLINGS`, or 0 for
    single steps only.

    J is 0 when the ``longest`` run of dt steps is narrower than
    `_MIN_BLOCK`, so that no run would take a block, or when
    J * size > 2 * ``steps`` (the dt steps of the whole grid, which share
    the increments), that is, when the grid has fewer than 3.5 times
    ``size`` dt steps.  The J increments beyond D_0 cost one size-square
    matrix product each, which the blocks save back over a few times
    ``size`` steps: with one OpenBLAS thread on an x86-64 core, building
    D_0 and stepping one run of N steps took as long with J = 7 as with
    J = 0 at N = 1 times size for sizes 93 and 701 and 2.5 to 3 times size
    for 181 and 394, and less time at every size from 3.5 times size on.
    """
    if longest < _MIN_BLOCK or _MAX_DOUBLINGS * size > 2 * steps:
        return 0
    return _MAX_DOUBLINGS


def _dt_run(powers: list, blocks: tuple, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Take one step z <- z + D_0 z per column of ``out``, write the first
    ``len(out)`` entries of each new z into its column, and return the last z.

    The steps go in blocks of up to 2^J columns, 2^J the width of the two
    scratch arrays ``blocks``, with J <= len(powers).  A block's first
    column is z + D_0 z, the product a single step takes; the doubling with
    D_j = ``powers[j]`` then fills the next 2^j columns with one matrix
    product, column 2^j + i being column i plus D_j times column i
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 2011).  A run of at least two
    blocks, when ``powers`` holds D_J = e^{2^J dt A} - I, fills only its
    first block so: each later block is the previous one plus D_J times it,
    one product of width 2^J per block (the last one narrower).  When
    z + D_0 z equals z bitwise, every later step would return z too, so
    the rest of the run is filled with z.  Steps that would make a doubled
    block narrower than `_MIN_BLOCK` (all of them for J < 5) are taken one
    at a time.
    """
    block, spare = blocks
    dim, count = out.shape
    most = block.shape[1]
    J = most.bit_length() - 1
    carry = most >= _MIN_BLOCK and len(powers) > J and count >= 2 * most
    done = 0
    while done < count:
        width = min(most, count - done)
        if carry and done:
            cols = np.matmul(powers[J], block[:, :width], out=spare[:, :width])
            block[:, :width] += cols
        else:
            first = z + powers[0] @ z
            if width < _MIN_BLOCK:
                out[:, done] = first[:dim]
                z = first
                done += 1
                continue
            if first.tobytes() == z.tobytes():
                out[:, done:] = z[:dim, None]
                break
            block[:, 0] = first
            filled = 1
            for D in powers:
                if filled == width:
                    break
                q = min(filled, width - filled)
                cols = np.matmul(D, block[:, :q], out=block[:, filled : filled + q])
                cols += block[:, :q]
                filled += q
        out[:, done : done + width] = block[:dim, :width]
        z = block[:, width - 1].copy()
        done += width
    return z


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
        return z + _expm_increment(h * A)[0] @ z
    sub = h / count
    Y = sub * A
    terms = _taylor_terms(min(sub * norm, _THETA))
    for _ in range(count):
        z = z + _taylor_increment(Y, z, terms)
    return z


def _propagate(M, c, generators, times, out, dt, T):
    """Exact propagation of ydot = M y + c + sum G_s u_s(t) over the grid,
    every u_s the output of a linear generator.

    ``generators`` lists (G_s, signal, (S_s, H_s, w0_s)) for the nonzero
    leader inputs, the last as `LeaderSignal.generator` gives it.

    The augmented state z = [y; sigma; w_s...] obeys z' = A z with
    A = [[M, c / sigma, G_s H_s...], [0, 0, 0], [0, 0, S_s...]] (Van Loan,
    IEEE TAC 1978).  The constant coordinate sigma is the power of two that
    brings the column c / sigma to the 1-norm of M, so that a large drift
    does not inflate ||h A||_1.  A step of length ``dt`` is
    z <- z + D_0 z with the one increment D_0 = e^{dt A} - I; any other
    step (beside a breakpoint, or the short last one) is applied to the
    vector by `_step_on_vector`.  At the grid point of each breakpoint of
    signal s, w_s restarts at the signal's new value (see
    `LeaderSignal.generator`).

    The dt steps between two steps of other lengths, restarts or the ends
    of the grid form a run, which `_dt_run` takes in blocks of 2^J steps,
    with the J + 1 increments D_j = e^{2^j dt A} - I, j <= J, of
    `_expm_increment`.  A run's first block is filled by doubling, one
    matrix product per D_j, j < J; each later block of a run of at least
    two blocks is the previous one plus D_J times it, one product of width
    2^J.  That replaces one matrix-vector product per step.  J comes from
    the augmented size and the runs (`_block_doublings`).  J = 0, a run
    shorter than 32 steps and the last few steps of a run shorter than two
    blocks step one at a time.  ``out`` is filled as `_integrate` fills it.

    A generator S with S + S^T = 0 exactly (a sinusoid's, or any other
    signal's) is a rotation, but at a large omega dt, omega = ||S||_2, its
    computed block of I + D_0 is not one.  When that block's 2-norm, taken
    over all the dt steps of the grid, would push the generator state past
    the float range, `StepTooLargeError` names dt and omega before any
    step is taken.

    The increments depend on dt * A and J alone, so `_step_increments`
    keeps the set of the last (dt * A, J + 1) stepped twice in a row, keyed
    by the content of dt * A, not by the object that holds it, and returns
    it again while the same pair comes back: one set at most, about 31 MB
    at l=175 (size 701) and 2.1 MB at l=45 (size 181).  A kept set holds
    the bits a fresh build returns in the same process, so the trajectory
    bytes do not change.
    """
    dim = len(out)
    size = dim + 1 + sum(gen[0].shape[0] for _, _, gen in generators)
    norm_m, norm_c = float(np.linalg.norm(M, 1)), float(np.abs(c).sum())
    sigma = math.ldexp(1.0, math.frexp(norm_c / norm_m)[1]) if norm_c > norm_m > 0 else 1.0
    A = np.zeros((size, size))
    A[:dim, :dim] = M
    A[:dim, dim] = c / sigma
    z = np.empty(size)
    z[:dim] = out[:, 0]
    z[dim] = sigma
    restarts = {}
    rotations = []  # (rows, S) of the skew-symmetric generators
    r = dim + 1
    for G, sig, (S, H, w0) in generators:
        k = S.shape[0]
        A[:dim, r : r + k] = G @ H
        A[r : r + k, r : r + k] = S
        z[r : r + k] = w0
        if np.array_equal(S, -S.T):
            rotations.append((slice(r, r + k), S))
        breaks = sig.breakpoints(T)
        for b, value in zip(breaks, sig.sample(breaks)):
            at = int(np.searchsorted(times, b, side="right")) - 1
            restarts.setdefault(at, []).append((r, value))
        r += k

    norm = float(np.linalg.norm(A, 1))
    h = np.diff(times)
    other = set(np.flatnonzero(np.abs(h - dt) > _grid_resolution(times[-1])).tolist())
    # runs of dt steps end at a step of another length, at a restart and at
    # the end of the grid
    ends = sorted({*other, *restarts, len(h)})
    starts = [0] + [b + (b in other) for b in ends[:-1]]
    longest = max(b - a for a, b in zip(starts, ends))
    steps = len(h) - len(other)
    J = _block_doublings(size, steps, longest)
    powers = _step_increments(dt * A, J + 1)
    if not np.isfinite(powers[0]).all():
        raise StepTooLargeError(
            f"dt={dt} is too large a step for the inputs: the step increment "
            f"e^(dt A) - I overflows at ||dt A||_1 = {dt * norm:.3e}"
        )
    for rows, S in rotations:
        growth = float(np.linalg.norm(np.eye(len(S)) + powers[0][rows, rows], 2))
        if growth > 1.0 and steps * math.log(growth) > math.log(np.finfo(float).max):
            raise StepTooLargeError(
                f"dt={dt} is too large a step for the sinusoid of "
                f"omega={np.linalg.norm(S, 2):g}: the "
                f"computed e^(dt S) of its generator is not a rotation but grows its "
                f"state {growth:.3e}-fold per step, past the float range in {steps} steps"
            )
    width = 2 ** min(J, len(powers))
    blocks = (np.empty((size, width), order="F"), np.empty((size, width), order="F"))
    for start, end in zip(starts, ends):
        z = _dt_run(powers, blocks, z, out[:, start + 1 : end + 1])
        for r, value in restarts.get(end, ()):
            z[r : r + len(value)] = value
        if end in other:
            z = _step_on_vector(A, norm, float(h[end]), z)
            out[:, end + 1] = z[:dim]


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
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SimulationTrace:
    """Propagate the closed-loop formation and record its trajectory.

    Parameters
    ----------
    x0 : dict
        Initial state per agent id (finite n-vectors).
    signals : dict, optional
        LeaderSignal per leader id; omitted leaders get the zero input.
    T, dt : float
        Horizon and step, finite.  Default dt = min(1e-2, 0.1 / (1 +
        max ||A_i + B_i S_i||_F)), a `ValueError` naming it for a T not longer
        than it.  The ``"expm"`` integrator is exact at any dt, so dt is
        then only the grid's resolution; an ``"rk4"`` run with
        dt * max||A_i + B_i S_i||_F > 1 raises `StepTooLargeError`, as does
        a dt whose step increment overflows (a sinusoid of huge omega, or
        an input map G H that overflows).
    tol : Tolerances
        Its ``eps_hurwitz`` is the margin of the error-loop verdict that
        names the cause of an overflow, as in `fit_envelope`.

    The stacked system is propagated jointly (its coupling is lower
    triangular in renumbering order) on the grid k * dt, plus T and the
    signal breakpoints in (0, T).  When every nonzero signal has a linear
    generator (all built-in signals: `ConstantSignal`, `SinusoidSignal`,
    `PiecewiseConstantSignal`), the trajectory is exact up to roundoff:
    one matrix exponential increment for the steps of length dt, the other
    steps applied to the state vector, and the generator states restarted
    at the breakpoints (integrator ``"expm"``, see `_propagate`).  Runs of
    at least 32 dt steps, on a grid with at least 3.5 times the augmented
    size in dt steps, go in blocks of up to 128 steps.  A run's first block
    is filled by doubling with the increments of 1, 2, ... 64 steps, one
    matrix-matrix product per doubling; each later block of a run of at
    least 256 steps is the previous one plus the increment of 128 steps
    times it, one product per block; neither takes one matrix-vector
    product per step.  From the second call in a row on one closed loop
    with the same dt and inputs, the increments are reused, keyed by the
    content of the augmented matrix, and one set of eight stays held after
    the call returns (about 31 MB at l=175); the trajectory bytes are
    those of a fresh process at the same BLAS thread count.  A dt at which
    the computed step of a rotation generator (S + S^T = 0, as a
    sinusoid's) is no rotation, and would carry its generator state past
    the float range, raises `StepTooLargeError`.  A
    signal without a generator, or with breakpoints and a generator whose
    state is not its value, makes the whole run take classic RK4 steps,
    which land on every breakpoint so each step sees a continuous
    right-hand side (integrator ``"rk4"``).  ``metadata["integrator"]`` names the one used.

    Both integrators fill one C-contiguous (agents, n, grid points) array
    from the initial states in its first column, and neither stops at an
    overflow: one scan afterwards raises at the first non-finite grid time,
    `NonDecayError` if the error loop is not Hurwitz (the verdict
    `fit_envelope` takes), else `NonFiniteStateError`, for the horizon.
    The trace's per-agent state views share that
    array; edge errors and the leader and follower inputs are not evaluated
    here but when the trace's mappings are read (see `SimulationTrace`).
    The built-in signals are evaluated only through their grid-wide methods.

    A controller that does not fit the instance (see `verify_controller`)
    or whose closed loop is not finite (named by its first such agent,
    before any step), a leader signal whose values are not m-vectors, a
    non-finite T or dt, or a missing or non-finite initial state raises
    `ValueError`.
    """
    if not math.isfinite(T):
        raise ValueError(f"horizon T must be finite, got {T}")
    if T <= 0:
        raise ValueError("horizon T must be positive")
    _check_structure(spec, decomp, ctrl)
    n = spec.n
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        M, c, leader_cols = _closed_loop_blocks(spec, decomp, ctrl)
    order = decomp.renumbering
    finite = np.isfinite(M).all(axis=1) & np.isfinite(c)
    if not finite.all():
        raise ValueError(
            f"the closed loop of agent {order[int(np.argmin(finite)) // n]} is not "
            "finite: a gain or matrix entry is NaN or infinite, or overflows"
        )

    sig_map = {i: ZeroSignal(spec.m) for i in sorted(decomp.leaders)}
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

    # diagonal blocks of M are the A_i and A_i + B_i S_i of the default dt and
    # the RK4 step cap
    worst = max(float(np.linalg.norm(M[r : r + n, r : r + n], "fro")) for r in range(0, len(M), n))
    if dt is None:
        dt = min(1e-2, 0.1 / (1.0 + worst))
        if dt >= T:
            raise ValueError(f"T={T} is not longer than the default step dt={dt:.6g}: "
                             "give a smaller dt")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt >= T:
        raise ValueError("dt must be smaller than T")

    forcing = [(G, sig_map[s]) for s, G in leader_cols.items() if not sig_map[s].is_zero]
    generators = [(G, sig, _generator(sig, spec.m, T)) for G, sig in forcing]
    exact = all(gen is not None for _, _, gen in generators)
    if not exact and dt * worst > 1.0:  # an explicit method's stability rule
        raise StepTooLargeError(
            f"dt={dt} exceeds the RK4 stability cap 1/max||A_cl||_F = {1.0 / worst:.3e}"
        )

    breaks = []
    for sig in sig_map.values():
        breaks.extend(sig.breakpoints(T))
    times = _build_grid(T, dt, breaks)

    slab = np.empty((len(order), n, len(times)))
    for k, i in enumerate(order):
        if i not in x0:
            raise ValueError(f"x0 has no initial state for agent {i}")
        xi = np.asarray(x0[i], dtype=float)
        if xi.shape != (n,):
            raise ValueError(f"x0[{i}] has shape {xi.shape}, expected ({n},)")
        if not np.isfinite(xi).all():
            raise ValueError(f"initial state x0[{i}] is not finite: {xi.tolist()}")
        slab[k, :, 0] = xi

    traj = slab.reshape(-1, len(times))  # a view: the integrators fill the slab
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is detected below
        if exact:
            _propagate(M, c, generators, times, traj, dt, T)
        else:
            _integrate(M, c, forcing, times, traj)
    bad = ~np.isfinite(traj).all(axis=0)
    if bad.any():
        loop = _is_block_triangular_hurwitz(M[n:, n:], n, tol)
        cause = NonFiniteStateError if loop.is_hurwitz else NonDecayError
        raise cause(float(times[int(np.argmax(bad))]), T, loop)

    states = {i: slab[k].T for k, i in enumerate(order)}
    inputs = _OnAccess(
        order,
        lambda i: sig_map[i].sample(times) if i in sig_map else control_input(ctrl, i, states),
    )

    return SimulationTrace(
        times=times,
        states=states,
        displacements=MappingProxyType(dict(zip(spec.edge_keys, spec.d_rows))),
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


def _error_coordinates(M: np.ndarray, decomp: LevelDecomposition, edges: list):
    """(T, M_e, r) of the error coordinates xi = T y of `fit_envelope`:
    M_e = T M P is the error loop, and row (i, j) of r maps xi to the
    edge error, z_ij = (r kron I)_ij xi."""
    # T = T1 kron I and P = P1 kron I; z_ij = y_i - y_j, so R = r kron I
    # with row (i, j) of r the difference of rows i and j of P1
    order, col = decomp.renumbering, decomp.position
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
    return T, T @ M @ np.kron(P1, eye), r


# Lyapunov constants C of the last few (M_e, alpha) `fit_envelope` certified,
# keyed by `_content_key(M_e)` and alpha; the oldest goes first.
_CERTIFICATES = 8
_certificates: dict = {}


def _certified_constant(M_e: np.ndarray, alpha: float) -> float:
    """``_lyapunov_constant(M_e, alpha)``, solved once per error loop.  A
    `CertificateError` propagates and leaves nothing stored."""
    key = (*_content_key(M_e), alpha)
    with _stores_lock:
        C = _certificates.get(key)
        if C is None:
            C = _lyapunov_constant(M_e, alpha)
            if len(_certificates) >= _CERTIFICATES:
                del _certificates[next(iter(_certificates))]
            _certificates[key] = C
    return C


def _mend_overflow(norms: np.ndarray, groups: list, arrays) -> None:
    """Take the infinite entries of ``norms`` again with `_scaled_norms`.

    Row k of ``norms`` is the largest column norm of the (n, grid points)
    arrays of group k, as the root of their largest squared norm, which is
    inf where a square overflowed.  ``arrays(cols)`` yields those arrays
    at the grid columns ``cols``, the one in group ``groups[p]`` p-th; the
    largest of their scaled norms replaces each infinite entry, and every
    finite entry keeps its bits."""
    over = np.flatnonzero(np.isinf(norms).any(axis=0))
    if over.size:
        largest = np.zeros((len(norms), len(over)))
        for k, z in zip(groups, arrays(over)):
            np.maximum(largest[k], _scaled_norms(z), out=largest[k])
        norms[:, over] = np.where(np.isinf(norms[:, over]), largest, norms[:, over])


def _largest_norms(rows: list) -> np.ndarray:
    """max_a ||r_a(t)|| at each grid column t of the per-agent (n, grid
    points) rows r_a: the root of the largest sum of squares, which
    `_mend_overflow` takes again where a square overflowed."""
    buf = np.empty(rows[0].shape)
    sq, peak = np.empty(buf.shape[1]), np.zeros(buf.shape[1])
    for r in rows:
        np.multiply(r, r, out=buf)
        np.maximum(peak, np.add.reduce(buf, 0, out=sq), out=peak)
    norms = np.sqrt(peak, out=peak)
    _mend_overflow(norms[None], [0] * len(rows), lambda cols: (r[:, cols] for r in rows))
    return norms


def _peak_squares(tiles, peak: np.ndarray) -> np.ndarray:
    """``peak`` raised, column by column, to the largest sum of squares of
    an edge of the `_edge_tiles` ``tiles``; no tile is held on return."""
    for _, z in tiles:
        sq = _squares_by_rows(z)
        np.maximum(peak, sq[0] if len(sq) == 1 else np.max(sq, axis=0), out=peak)
    return peak


def _norm_bound(rows: list, ends: np.ndarray, offsets: np.ndarray, anchors: np.ndarray,
                X: np.ndarray) -> np.ndarray:
    """The bound b(t) = 2 u(t) + max ||delta|| + s(t) of `_largest_excess`
    on every computed edge norm, each w_a formed as an edge error; inf at
    every column when a square may overflow."""
    n = len(rows[0])
    to_ref = np.column_stack([np.arange(1, len(rows)), np.zeros(len(rows) - 1, np.intp)])
    bound = _peak_squares(_edge_tiles(rows, to_ref, anchors[1:] - anchors[0]), np.zeros(len(X)))
    delta_max = max(float(np.max(np.linalg.norm(z[:, :, 0], axis=1)))
                    for _, z in _edge_tiles(-anchors[:, :, None], ends, offsets))
    c_max, o_max = (float(np.max(np.linalg.norm(v, axis=1))) for v in (anchors, offsets))
    np.sqrt(bound, out=bound)
    bound *= 2.0
    bound += delta_max
    bound += (4 * n + 24) * np.finfo(float).eps * (1.0 + X + c_max + o_max)
    if not np.max(bound) < 2.0 ** 511:  # a square may overflow: the whole grid
        bound.fill(math.inf)
    return bound


def _largest_excess(rows: list, ends: np.ndarray, offsets: np.ndarray, anchors: np.ndarray,
                    group: np.ndarray, env: np.ndarray, X: np.ndarray) -> float:
    """The largest excess ||z_ij(t)|| - env_k(t) over the edges (i, j) and
    the grid columns t, as the full scan of every edge at every column
    computes it, bit for bit.  z_ij = r_i - r_j + o_ij is formed by
    `_edge_tiles` from the per-agent (n, grid points) ``rows`` r_a, the
    edges' ``ends`` and their ``offsets`` o_ij; k = ``group[p]`` is the
    envelope of the p-th edge, ``env[k]`` its row, ``anchors`` holds one
    n-vector c_a per agent, in the order of the rows, and ``X`` is
    X(t) = max_a ||r_a(t)|| (`_largest_norms`).  A NaN excess reads as
    inf, and a norm whose square overflows (from about 1.34e154) while its
    entries are finite is taken again scaled by a power of two
    (`_mend_overflow`).

    An edge is formed only where it can set the largest excess.  With
    w_a = (r_a + c_a) - (r_ref + c_ref), ref the first agent (w_ref = 0),
    and delta_ij = o_ij - (c_i - c_j), every z_ij = w_i - w_j + delta_ij,
    so one pass over the agents, u(t) = max_a ||w_a(t)||, bounds every edge:

        ||z_ij(t)|| <= b(t) = 2 u(t) + max ||delta|| + s(t),
        s(t) = (4n + 24) eps (1 + X(t) + max ||c_a|| + max ||o_ij||).

    The slack s makes b dominate the computed norm, not only the exact one.
    With the unit roundoff u' = eps / 2: a formed fl(fl(r_i - r_j) + o_ij)
    is within 4.02 u' X + u' max||o|| of z_ij; w_a and delta_ij are formed
    within 4.02 u' (X + max||c||) and 2.01 u' (max||o|| + 2 max||c||); and
    a computed norm of n entries is within rho = (n/2 + 1.01) u' of the
    norm of its formed vector.  So the computed ||z_ij|| exceeds the
    computed 2 u + max||delta|| by at most 2.03 rho (4X + 6 max||c|| +
    max||o||) + 12.07 u' (X + max||c|| + max||o||) <= (3.05n + 12.2) eps
    (X + max||c|| + max||o||), and rounding the sum b costs 6.05 eps
    (X + max||c|| + max||o||) more: (4n + 24) eps also covers the roundoff
    of X and of s itself.  Any anchors give a valid bound; anchors that
    keep every w_a small make it tight.  A rounded subtraction is
    monotone, so ub_k(t) = b(t) - env_k(t) bounds envelope k's computed
    excess at t.  The exact excess of every envelope at the column where
    ub peaks, every edge formed at that one column, is one the full scan
    computes, a lower bound LB of the largest; a column with ub_k(t) < LB
    cannot hold it.  Envelope k's edges are then formed at its candidate
    columns, those where not ub_k < LB (a NaN counts), in tiles that hold
    many edges when the columns are few.
    Its other columns keep a zero peak, whose excess -env_k(t) is below
    the computed one there, below LB.  Where a square may overflow (b
    reaches 2^511, or is NaN: a non-finite row) b is taken as inf, so
    every edge is formed over the whole grid and `_mend_overflow` sees the
    full scan's columns.  Never more edge columns are formed than by the
    full scan, plus the LB column, and each column's squares are summed
    row by row (`_squares_by_rows`), in the full-width reduction's order:
    the result keeps the full scan's bits.
    """
    ub = _norm_bound(rows, ends, offsets, anchors, X) - env

    # LB: the exact excess of every envelope at the column where ub peaks
    at = int(np.argmax(ub)) % len(X)
    norms = [np.sqrt(_squares_by_rows(z)[:, 0]) for _, z in _edge_tiles(rows, ends, offsets, at)]
    lb = np.max(np.concatenate(norms) - env[group, at])

    # the exact pass, over each envelope's columns where not ub < LB
    peaks = np.zeros(env.shape)  # largest squared norm
    for k in range(len(env)):
        cols = np.flatnonzero(~(ub[k] < lb))
        if cols.size:
            mine = group == k
            peaks[k, cols] = _peak_squares(_edge_tiles(rows, ends[mine], offsets[mine], cols),
                                           np.zeros(cols.size))
    # sqrt and subtraction are monotone and correctly rounded: the largest
    # excess of an envelope is that of its worst edge, bit for bit
    excess = np.sqrt(peaks, out=peaks)
    _mend_overflow(excess, group, lambda cols: (
        e for _, z in _edge_tiles(rows, ends, offsets, cols) for e in z))
    excess -= env
    worst = float(np.max(excess))
    return math.inf if math.isnan(worst) else worst


def fit_envelope(
    trace: SimulationTrace,
    decomp: LevelDecomposition,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EnvelopeFit:
    """Certify the exponential-plus-input-gain bound and check it on a trace.

    Error coordinates: with y = x + D (D the cumulative offsets), xi = T y
    stacks e_i = y_i - y_{leader_reach(i)} for each follower and
    w_a = y_a - y_ref for each leader other than the reference leader
    (first in the renumbering); the edge errors are z = R xi.  With P the
    0/1 right inverse of T that maps xi to y - y_ref, a verified controller
    gives xi' = M_e xi + G_e u with M_e = T M P and G_e = T G.  M_e is
    block-lower-triangular, and its diagonal blocks are those of M for
    every agent but the reference leader: A_i + B_i S_i for a follower,
    A_a for another leader.  So the Hurwitz verdict and
    alpha = -spectral_abscissa(M_e) / 2 come from the eigenvalues of those
    n-by-n blocks, read off M without the reference leader's rows and
    columns (`linalg._is_block_triangular_hurwitz`, with the margin
    ``tol.eps_hurwitz``).  Only a Hurwitz loop builds M_e, for C from one
    dense Lyapunov solve on M_e (`linalg._lyapunov_constant`), which
    certifies ||exp(t M_e)|| <= C e^{-alpha t}.  So every edge obeys

        ||z_ij(t)|| <= C_ij e^{-alpha t} ||z(0)|| + beta_ij U(t),
        C_ij = ||R_ij|| C / sigma_min(R),
        beta_ij = ||R_ij|| C max_a ||G_e,a|| / alpha,

    where U(t) sums the exact running sups of the leader inputs (no grid
    sampling, `LeaderSignal.running_sups`) and the max runs over leaders
    with a nonzero signal.  Each edge is checked on the grid against its
    bound plus the float resolution 64 eps (1 + X(t)), X(t) = max_a
    ||x_a(t)||; edges with equal (C_ij, beta_ij) share an envelope
    env_k(t).  The check is `_largest_excess` of the state rows x_a, the
    offsets d_ij and the anchors D_a, whose delta_ij = d_ij - (D_i - D_j)
    is the condition-3 defect, under those envelopes: it forms an edge's
    error only where the edge can set the largest excess, and returns the
    full scan's bits.  Every norm, ||z(0)|| included, is finite up to the
    float range (`_mend_overflow`).  The fit fails when some excess is
    above 1e-6 * (1 + ||z(0)||), or when M_e is not Hurwitz; then alpha is
    0.0 and each edge's growth is measured against its initial error.  A
    NaN excess (a state or error past the float range, or a NaN) counts as
    an infinite violation.  The bound holds for all t >= 0, so a horizon
    too short for the transient to die out cannot make a fit fail.

    C belongs to the closed loop, not to the trace: the process keeps the
    constants of the last few error loops, keyed by the content of M_e
    (a digest of its bytes) and alpha, so a fit of another trace of the same
    loop skips the solve and returns the same bits.  A solve that raises
    `CertificateError` is not kept.
    """
    times = trace.times
    edges = decomp.edge_order(trace.displacements)
    z0n = trace.initial_error_norm()
    allowed = 1e-6 * (1.0 + z0n)

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
    disp = trace.displacements
    rows, ends, d, _ = trace._gather

    if z0n <= 1e-300 and not have_input and not any(
        z.any() for _, z in _edge_tiles(rows, ends, d)
    ):
        return EnvelopeFit(
            C={e: 0.0 for e in edges},
            alpha={e: None for e in edges},
            beta={e: 0.0 for e in edges},
            passed=True,
            max_violation=0.0,
            degenerate=True,
            z0_norm=z0n,
            tolerance=allowed,
        )
    if not edges:  # a lone leader under an input has no error to bound
        return EnvelopeFit({}, {}, {}, True, 0.0, False, z0n, allowed)

    M, G = trace.closed_loop
    n = M.shape[0] // len(decomp.renumbering)
    hurwitz = _is_block_triangular_hurwitz(M[n:, n:], n, tol)
    if hurwitz.is_hurwitz:
        T, M_e, r = _error_coordinates(M, decomp, edges)
        alpha = -0.5 * hurwitz.spectral_abscissa
        C = _certified_constant(M_e, alpha)
        gain = max((float(np.linalg.norm(T @ G[a], 2)) for a in driven), default=0.0)
        row_norms = np.linalg.norm(r, axis=1)
        s_min = float(np.linalg.svd(r, compute_uv=False)[-1])
        C_map = {e: float(w) * C / s_min for e, w in zip(edges, row_norms)}
        b_map = {e: float(w) * C * gain / alpha for e, w in zip(edges, row_norms)}
    else:
        # no decay: anchor the envelope at t=0 so the growth shows up as a
        # reported violation
        alpha = 0.0
        first = dict(zip(disp, (_norm(z) for _, tile in _edge_tiles(rows, ends, d, 0)
                                for z in tile)))
        C_map = {e: first[e] / z0n if z0n > 0 else 1.0 for e in edges}
        b_map = dict.fromkeys(edges, 0.0)

    # a square past the float range is mended by `_mend_overflow`; a state or
    # error past it overflows the norms to inf, and inf - inf is NaN: such an
    # excess counts as +inf, whatever the edge order
    with np.errstate(over="ignore", invalid="ignore"):
        state_norm = _largest_norms(rows)
        floor = 64.0 * np.finfo(float).eps * (1.0 + state_norm)
        decay = np.exp(-alpha * times) * z0n
        # C_ij and beta_ij scale one certificate by the few distinct norms
        # ||R_ij||, so edges share their envelopes C_ij decay + beta_ij U + floor
        envelopes = {}  # (C_ij, beta_ij) -> its row of env
        group = [envelopes.setdefault((C_map[e], b_map[e]), len(envelopes)) for e in disp]
        env = np.empty((len(envelopes), len(times)))
        for (C_ij, b_ij), k in envelopes.items():
            env[k] = C_ij * decay + b_ij * U + floor
        anchors = np.array([decomp.cumulative_offset[a] for a in trace.states])
        max_violation = _largest_excess(rows, ends, d, anchors, np.array(group), env, state_norm)

    return EnvelopeFit(
        C=C_map,
        alpha=dict.fromkeys(edges, alpha),
        beta=b_map,
        passed=bool(hurwitz.is_hurwitz and max_violation <= allowed),
        max_violation=max_violation,
        degenerate=False,
        z0_norm=z0n,
        tolerance=allowed,
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

    Returns ||lhs - rhs|| per grid point.  The errors of a trace derive
    from its states, z_ij = x_i - x_j + d_ij, so the sums telescope and the
    residual is ||(d_is - d_ij) - (D_j - D_s)||, the condition-3 defect,
    plus roundoff, whatever the states are: the identity checks the
    displacements, not the trajectory, which `error_dynamics_check` tests.

    Once the two parent chains meet they share every edge down to the
    leader, and those edges cancel in R_js = S_j - S_s, so the sums stop
    where the chains meet.  A norm whose square overflows while the
    residual is finite is taken again scaled by a power of two
    (`_mend_overflow`), so it is finite up to the float range.
    """
    i, j = edge
    if (i, j) not in trace.errors or (i, s) not in trace.errors:
        parents = sorted(key[1] for key in trace.errors if key[0] == i)
        raise NotSiblingParentsError(
            f"nodes {j} and {s} are not both parents of {i} (parents: {parents})"
        )

    chain_j, chain_s = decomp.parent_chain(j), decomp.parent_chain(s)
    on_s = set(chain_s)
    meet = next((a for a in chain_j if a in on_s), None)

    def chain_sum(chain):
        total = np.zeros_like(trace.states[i])  # the layout of the errors
        for a, b in zip(chain, chain[1:]):
            if a == meet:
                break
            total += trace.errors[(a, b)]
        return total

    # resid = z_is - z_ij - R - (x_lj - x_ls), R = S_j - S_s, in that order
    R = chain_sum(chain_j)
    R -= chain_sum(chain_s)
    resid = trace.errors[(i, s)] - trace.errors[(i, j)]
    resid -= R
    resid -= trace.states[decomp.leader_reach[j]] - trace.states[decomp.leader_reach[s]]
    with np.errstate(over="ignore"):  # a square past the float range is mended
        sq = np.add.reduce(resid * resid, 1)
        norms = np.sqrt(sq, out=sq)
        _mend_overflow(norms[None], [0], lambda cols: (resid[cols].T,))
    return norms


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
    layout (one row per state component), the B_a K_as as one stacked
    matmul over the controller's stacks, and each tile of gain edges z_as
    (`_edge_tiles`, from the state rows) takes one stacked product over
    every interior column; the tiles are dropped before the defect pass.
    The largest defect norm is `_largest_excess` of the rows Q_a, the
    offsets -A_ref d_ij and the anchors -A_ref D_a, whose delta_ij is
    A_ref times the condition-3 defect, under one envelope env = 0: it
    forms an edge's defect only where the edge can set the maximum, and
    returns the full scan's bits, finite up to the float range; a NaN
    defect gives inf.  A gain K_as that is exactly zero and a zero leader
    input add exact zeros, so their terms are left out on a finite trace.
    A controller that does not fit the instance raises `ValueError`.
    """
    _check_structure(spec, decomp, ctrl)
    times = trace.times
    if len(times) < 3 or not spec.edges:
        return 0.0
    A_ref = spec.agent(decomp.renumbering[0]).A
    interior = slice(1, -1)
    rows, ends, d, place = trace._gather

    # 3-point nonuniform central-difference weights, one per interior point
    h0 = times[1:-1] - times[:-2]
    h1 = times[2:] - times[1:-1]
    w_prev = -h1 / (h0 * (h0 + h1))
    w_mid = (h1 - h0) / (h0 * h1)
    w_next = h0 / (h1 * (h0 + h1))

    with np.errstate(over="ignore", invalid="ignore"):  # a growing trace's defects overflow
        Q = {}
        for a, x in zip(trace.states, rows):
            q = w_prev * x[:, :-2]
            q += w_mid * x[:, 1:-1]
            q += w_next * x[:, 2:]
            q -= A_ref @ x[:, 1:-1]
            if a in decomp.leaders and not trace.signals[a].is_zero:
                q -= spec.agent(a).B @ trace.signals[a].sample(times[interior]).T
            Q[a] = q
        del h0, h1, w_prev, w_mid, w_next  # room for the gain tiles
        # P_a of each follower, whose Q_a has no input term, in gain order
        law = ctrl._stacks
        used = law.K.any(axis=(1, 2))
        ids = np.array(law.followers, dtype=int)[law.rows[used]]
        BK = spec.B_stack[ids - 1] @ law.K[used]
        gains = [place[g] for g in zip(ids.tolist(), law.parents[used].tolist())]
        for edges, z in _edge_tiles(rows, ends[gains], d[gains], interior):
            for a, P_as in zip(ids[edges].tolist(), np.matmul(BK[edges], z, out=z)):
                Q[a] += P_as
        z = P_as = None  # no gain tile is held through the defect pass

        Q = list(Q.values())
        anchors = np.array([-(A_ref @ decomp.cumulative_offset[a]) for a in trace.states])
        offsets = np.array([-(A_ref @ spec.displacement(*e)) for e in place])
        return _largest_excess(Q, ends, offsets, anchors, np.zeros(len(ends), np.intp),
                               np.broadcast_to(0.0, (1, len(times) - 2)), _largest_norms(Q))


# ---------------------------------------------------------------------------
# Export


_CSV_FORK_VALUES = 20_000  # fewest values in a chunk worth a forked worker


def _csv_workers(values: int) -> int:
    """Chunks to format a trace of `values` numbers in: one per CPU this
    process may run on, none with fewer than _CSV_FORK_VALUES values, and
    one where fork or the CPU affinity is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), values // _CSV_FORK_VALUES))


def _fork_rows(write_rows, part, lo: int, hi: int) -> int:
    """Fork a child that writes rows [lo, hi) into the file `part` and exits
    with status 0 on success; returns its pid.  The child never returns
    into the caller and never flushes a buffer it inherited."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            with open(part.fileno(), "w", encoding="utf-8", newline="\n", closefd=False) as out:
                write_rows(out, lo, hi)
            status = 0
        finally:
            os._exit(status)
    return pid


def write_trace_csv(trace: SimulationTrace, decomp: LevelDecomposition, path) -> None:
    """Write the trace as CSV: time, per-agent state columns x_<id>[k],
    then per-edge error columns z_<i>_<j>[k].  Agents follow renumbering
    order; edges sort by their endpoints' renumbered indices.  Floats use
    repr so rewrites of the same trace are byte-identical.  The rows go in
    blocks of at most `BUDGET` values (one row at least), each forming its
    edge errors with `_edge_tiles`, in the forked children too, so no full
    edge array is held.

    The rows go in contiguous chunks, one per CPU the process may run on
    (fewer for a short trace).  Forked children format every chunk but the
    first into unnamed temporary files next to `path` while this process
    formats the first; the parts are then appended in order.  A row's text
    depends only on its values, so the bytes do not depend on the number
    of CPUs.  If a child fails or formatting raises, every child is reaped,
    the partial file is removed and `TraceWriteError` is raised."""
    order = list(decomp.renumbering)
    edge_order = decomp.edge_order(trace.displacements)
    rows, ends, d, place = trace._gather
    pick = [place[e] for e in edge_order]
    ends, d = ends[pick], d[pick]
    n = len(rows[0])

    header = ["time"]
    for i in order:
        header.extend(f"x_{i}[{k}]" for k in range(1, n + 1))
    for (i, j) in edge_order:
        header.extend(f"z_{i}_{j}[{k}]" for k in range(1, n + 1))

    per_block = max(1, BUDGET // len(header))

    def write_rows(fh, lo, hi):
        for start in range(lo, hi, per_block):
            cols = slice(start, min(start + per_block, hi))
            errors = np.empty((cols.stop - cols.start, len(d), n))
            for edges, z in _edge_tiles(rows, ends, d, cols):
                errors[:, edges] = z.transpose(2, 0, 1)
            block = np.hstack(
                [trace.times[cols, None]]
                + [trace.states[i][cols] for i in order]
                + [errors.reshape(len(errors), -1)]
            )
            fh.writelines(",".join(map(repr, row)) + "\n" for row in block.tolist())

    steps = len(trace.times)
    workers = _csv_workers(steps * len(header))
    cuts = [steps * k // workers for k in range(workers + 1)]
    chunks = list(zip(cuts, cuts[1:]))
    folder = os.path.dirname(os.path.abspath(path))
    pids, parts = [], []  # pids of the children not yet reaped
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(",".join(header) + "\n")
            for lo, hi in chunks[1:]:
                parts.append(tempfile.TemporaryFile(dir=folder))
                pids.append(_fork_rows(write_rows, parts[-1], lo, hi))
            write_rows(fh, *chunks[0])
            for lo, hi in chunks[1:]:
                status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
                del pids[0]
                if status:
                    raise TraceWriteError(
                        f"worker for trace rows {lo}-{hi - 1} exited with status {status}")
            fh.flush()
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, fh.buffer)
    except BaseException as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        if isinstance(exc, Exception) and not isinstance(exc, TraceWriteError):
            raise TraceWriteError(f"trace {os.fspath(path)} not written: {exc}") from exc
        raise
    finally:
        for part in parts:
            part.close()
