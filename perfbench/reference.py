"""Matrix-exponential reference for closed-loop trajectories.

Built only from public spec and controller data (agent matrices, per-follower
S, K, k), in input node order, so it shares no code with the integrator it
checks.  Leader inputs are described by the benchmark's own plans:

* `Steps(times, values)`: values[k] on [times[k], times[k+1]), times[0] = 0;
* `Sine(amplitude, omega, phase)`: amplitude * sin(omega t + phase).

A sinusoid becomes exact through a 2-state oscillator appended to the state;
steps are exact because the propagation restarts at every step time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg


@dataclass(frozen=True)
class Steps:
    times: tuple
    values: tuple


@dataclass(frozen=True)
class Sine:
    amplitude: tuple
    omega: float
    phase: float


def stacked_closed_loop(spec, ctrl):
    """(M, c, G) of ydot = M y + c + sum_s G[s] u_s, blocks in node order 1..l."""
    n = spec.n
    dim = n * spec.l
    M = np.zeros((dim, dim))
    c = np.zeros(dim)
    G = {}
    for i in range(1, spec.l + 1):
        ag = spec.agents[i - 1]
        r = (i - 1) * n
        fc = ctrl.followers.get(i)
        if fc is None:
            M[r : r + n, r : r + n] = ag.A
            G[i] = np.zeros((dim, spec.m))
            G[i][r : r + n] = ag.B
            continue
        M[r : r + n, r : r + n] = ag.A + ag.B @ fc.S
        for s, Ks in fc.K.items():
            q = (s - 1) * n
            M[r : r + n, q : q + n] += ag.B @ Ks
        c[r : r + n] = ag.B @ fc.k
    return M, c, G


class TrajectoryReference:
    """Exact states at fixed sample times, for any initial state.

    States are affine in y0: y(t_k) = Phi_k y0 + f_k.  Phi_k and f_k are
    computed once per (controller, input plans, sample times).
    """

    def __init__(self, spec, ctrl, plans: dict, sample_times):
        M, c, G = stacked_closed_loop(spec, ctrl)
        self.n, self.l = spec.n, spec.l
        dim = M.shape[0]
        sines = sorted(s for s, p in plans.items() if isinstance(p, Sine))
        steps = {s: p for s, p in plans.items() if isinstance(p, Steps)}
        osc = {s: dim + 2 * k for k, s in enumerate(sines)}
        one = dim + 2 * len(sines)
        size = one + 1

        base = np.zeros((size, size))
        base[:dim, :dim] = M
        base[:dim, one] = c
        for s in sines:
            p = plans[s]
            o = osc[s]
            base[:dim, o] = G[s] @ np.asarray(p.amplitude, dtype=float)  # u = a * sin
            base[o, o + 1] = p.omega  # d sin = omega cos
            base[o + 1, o] = -p.omega  # d cos = -omega sin

        def step_value(plan, t):
            k = int(np.searchsorted(plan.times, t, side="right")) - 1
            return np.asarray(plan.values[max(k, 0)], dtype=float)

        self.times = np.asarray(sample_times, dtype=float)
        cuts = {float(t) for t in self.times}
        for p in steps.values():
            cuts.update(float(t) for t in p.times if 0.0 < t < self.times[-1])
        cuts = sorted(cuts | {0.0})

        # z = [y; oscillators; 1]; y0 enters through Z's leading identity block
        Z = np.zeros((size, dim + 1))
        Z[:dim, :dim] = np.eye(dim)
        for s in sines:
            Z[osc[s], dim] = np.sin(plans[s].phase)
            Z[osc[s] + 1, dim] = np.cos(plans[s].phase)
        Z[one, dim] = 1.0
        wanted = {float(t): k for k, t in enumerate(self.times)}
        self._phi = np.empty((len(self.times), dim, dim))
        self._f = np.empty((len(self.times), dim))
        if 0.0 in wanted:
            self._phi[wanted[0.0]], self._f[wanted[0.0]] = Z[:dim, :dim], Z[:dim, dim]
        for a, b in zip(cuts[:-1], cuts[1:]):
            A = base.copy()
            for s, p in steps.items():
                A[:dim, one] += G[s] @ step_value(p, a)
            Z = scipy.linalg.expm(A * (b - a)) @ Z
            if b in wanted:
                k = wanted[b]
                self._phi[k], self._f[k] = Z[:dim, :dim], Z[:dim, dim]

    def states(self, x0: dict) -> np.ndarray:
        """(samples, l*n) exact stacked states for initial states x0[i]."""
        y0 = np.concatenate([np.asarray(x0[i], dtype=float) for i in range(1, self.l + 1)])
        return self._phi @ y0 + self._f


def stacked_states(states: dict, rows, l: int) -> np.ndarray:
    """Rows of a per-agent state record, stacked in node order 1..l."""
    return np.hstack([np.asarray(states[i])[rows] for i in range(1, l + 1)])


def relative_error(simulated: np.ndarray, exact: np.ndarray) -> float:
    """Worst over sample times of ||sim - exact|| / max(1, ||exact||)."""
    diff = np.linalg.norm(simulated - exact, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(exact, axis=1))
    return float(np.max(diff / scale))
