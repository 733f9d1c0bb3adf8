"""Closed-loop integration, envelope fitting, and trajectory identities."""

import dataclasses
import gc
import math
import os
import tempfile
import tracemalloc
import types
import warnings
import weakref
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formstab import (
    AgentDynamics,
    ConstantSignal,
    ControllerSet,
    UNIFORM,
    Edge,
    FormationSpec,
    LeaderSignal,
    NonDecayError,
    NonFiniteStateError,
    NotSiblingParentsError,
    PiecewiseConstantSignal,
    SinusoidSignal,
    StepTooLargeError,
    Tolerances,
    TraceWriteError,
    ZeroSignal,
    chain_residual,
    check,
    decompose,
    enumerate_family,
    error_dynamics_check,
    fit_envelope,
    ideal_initial_states,
    is_hurwitz,
    simulate,
    spectral_abscissa,
    state_only_controller,
    synthesize,
    write_trace_csv,
)
import formstab.simulation
from formstab.controllers import assemble_controller, controller_from_dict, controller_to_dict
from formstab.linalg import DEFAULT_TOLERANCES, _is_block_triangular_hurwitz
from formstab.simulation import _closed_loop_blocks, _error_coordinates
from formstab.instances import (
    demo_instance,
    random_feasible_formation,
    two_leader_fork,
)


class _NoGenerator(PiecewiseConstantSignal):
    """A piecewise-constant input that offers no generator, as any
    `LeaderSignal` subclass may: `simulate` takes RK4 for it."""

    def generator(self):
        return None


class _SwitchedSinusoid(SinusoidSignal):
    """A sinusoid whose amplitude triples at t = 0.4.  Its generator state
    [sin, cos] is not its value, so a restart with the value cannot carry
    the switch: `simulate` takes RK4 for it."""

    def _scale(self, t, left=False):
        return 3.0 if (t > 0.4 if left else t >= 0.4) else 1.0

    def value(self, t):
        return self._scale(t) * super().value(t)

    def left_value(self, t):
        return self._scale(t, left=True) * super().value(t)

    def breakpoints(self, T):
        return (0.4,) if 0.4 < T else ()


class _Rotation(LeaderSignal):
    """sin(omega t) on one channel from the generator [[0, omega], [-omega,
    0]]: a sinusoid offered by a custom signal, not a `SinusoidSignal`."""

    def __init__(self, omega):
        self.omega = omega

    def value(self, t):
        return np.array([math.sin(self.omega * t)])

    def generator(self):
        S = np.array([[0.0, self.omega], [-self.omega, 0.0]])
        return S, np.array([[1.0, 0.0]]), np.array([0.0, 1.0])


def _single_agent(A):
    A = np.asarray(A, dtype=float)
    spec = FormationSpec(
        n=A.shape[0],
        m=1,
        agents=(AgentDynamics(A=A, B=np.zeros((A.shape[0], 1))),),
        edges=(),
    )
    return spec, decompose(spec), ControllerSet(n=A.shape[0], m=1, followers={})


def _count_increments(monkeypatch):
    """Record the number of increments D_0, D_1, ... each `simulate` call
    on the exact path builds for its blocks of dt steps."""
    from formstab import simulation

    built = []
    increments = simulation._expm_increment

    def counted(X, count=1):
        out = increments(X, count)
        built.append(len(out))
        return out

    monkeypatch.setattr(simulation, "_expm_increment", counted)
    return built


def _run_blocks(powers, z0, count):
    """(out, last z) of `_dt_run` on one run of ``count`` dt steps from z0,
    with the scratch blocks `_propagate` gives it for ``powers``."""
    from formstab import simulation

    width = 2 ** min(simulation._MAX_DOUBLINGS, len(powers))
    blocks = tuple(np.empty((len(z0), width), order="F") for _ in range(2))
    out = np.empty((len(z0), count))
    with np.errstate(over="ignore", invalid="ignore"):
        return out, simulation._dt_run(powers, blocks, z0, out)


class _CountedIncrement(np.ndarray):
    """An increment D_j that records (j, width of the other factor) for each
    matrix product it is the left factor of; width 0 for a vector."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[0] is self:
            other = inputs[1]
            self.products.append((self.index, other.shape[1] if other.ndim == 2 else 0))
        plain = [x.view(np.ndarray) if isinstance(x, _CountedIncrement) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _counted(powers, products):
    """``powers`` as `_CountedIncrement` views that log into ``products``."""
    counted = []
    for j, D in enumerate(powers):
        view = D.view(_CountedIncrement)
        view.index, view.products = j, products
        counted.append(view)
    return counted


def _augmented_oracle(spec, dec, ctrl, x0, times, steps=None, sine=None):
    """The states at each grid time, in renumbering order, from one expm of
    the augmented system (Van Loan) from the last restart to that time.

    ``steps`` = (leader, breaks, values) drives a leader with a piecewise-
    constant input whose generator restarts at each breakpoint; ``sine`` =
    (leader, amplitude, omega, phase) drives one with a sinusoid."""
    (M, c, G), order = _closed_loop_blocks(spec, dec, ctrl), dec.renumbering
    dim, m = M.shape[0], spec.m
    A = np.zeros((dim + 1 + m + 2,) * 2)
    A[:dim, :dim], A[:dim, dim] = M, c
    z = np.concatenate([np.concatenate([x0[i] for i in order]), [1.0], np.zeros(m + 2)])
    breaks, values = [0.0], np.zeros((1, m))
    if steps is not None:
        leader, breaks, values = steps
        A[:dim, dim + 1 : dim + 1 + m] = G[leader]
        z[dim + 1 : dim + 1 + m] = values[0]
    if sine is not None:
        leader, amp, omega, phase = sine
        A[:dim, -2] = G[leader] @ amp
        A[-2:, -2:] = [[0.0, omega], [-omega, 0.0]]
        z[-2:] = [math.sin(phase), math.cos(phase)]
    oracle = np.empty((len(times), dim))
    start, piece = 0.0, 0
    for k, t in enumerate(times):
        if piece + 1 < len(breaks) and t >= breaks[piece + 1]:
            z = scipy.linalg.expm((breaks[piece + 1] - start) * A) @ z
            piece += 1
            start = breaks[piece]
            z[dim + 1 : dim + 1 + m] = values[piece]
        oracle[k] = (scipy.linalg.expm((t - start) * A) @ z)[:dim]
    return oracle


def _destabilized(chain, chain_decomp, ctrl):
    """Flip the sign of the first follower's own gain; breaks its closed
    loop's Hurwitz property while keeping the matching identities."""
    S = {i: ctrl.gains(i).S for i in (2, 3)}
    S[2] = -S[2]
    assert not is_hurwitz(chain.agent(2).A + chain.agent(2).B @ S[2]).is_hurwitz
    N = {i: ctrl.gains(i).N for i in (2, 3)}
    kt = {i: ctrl.gains(i).k_tilde for i in (2, 3)}
    w = {i: {chain_decomp.parent[i]: 1.0} for i in (2, 3)}
    return assemble_controller(chain_decomp, 2, 1, S, N, kt, w)


@pytest.fixture(scope="module")
def loops():
    """Small two-leader formations with synthesized controllers: their own
    Hurwitz leaders ("decaying"), and the same leaders shifted by +2.5 I,
    so that the loop grows ("growing")."""
    out = {"decaying": [], "growing": []}
    for seed in (7, 8, 10, 11):
        spec = random_feasible_formation(rng=seed, max_nodes=8, multi_leader_prob=1.0)
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        out["decaying"].append((spec, dec, ctrl))
        shifted = {i: spec.agent(i).A + 2.5 * np.eye(spec.n) for i in dec.leaders}
        assert not any(is_hurwitz(A).is_hurwitz for A in shifted.values())
        grown = dataclasses.replace(spec, agents=tuple(
            dataclasses.replace(spec.agent(i), A=shifted[i]) if i in shifted else spec.agent(i)
            for i in spec.nodes))
        out["growing"].append((grown, decompose(grown), ctrl))
    return out


@pytest.fixture(scope="module")
def chain_ctrl(chain, chain_decomp, chain_report):
    return synthesize(chain, chain_decomp, chain_report)


class TestSignals:
    def test_base_signal_defines_no_values(self):
        sig = LeaderSignal()
        with pytest.raises(NotImplementedError):
            sig.value(0.0)
        with pytest.raises(NotImplementedError):
            sig.running_sup(0.0)
        assert sig.generator() is None and sig.breakpoints(1.0) == ()

    def test_zero(self):
        sig = ZeroSignal(2)
        assert np.array_equal(sig.value(3.0), [0.0, 0.0])
        assert sig.running_sup(5.0) == 0.0
        assert sig.is_zero

    def test_constant(self):
        sig = ConstantSignal([3.0, 4.0])
        assert sig.running_sup(0.0) == pytest.approx(5.0)
        assert sig.running_sup(7.0) == pytest.approx(5.0)

    @pytest.mark.parametrize("omega,phase,t", [
        (2.0, 0.0, 0.3),     # before the first peak
        (2.0, 0.0, 1.0),     # past the first peak
        (1.0, 2.0, 0.5),     # nonzero phase
        (0.0, 0.7, 9.0),     # frozen sinusoid
        (3.0, -1.0, 4.0),
        (-1.0, 2.0, 0.5),    # negative omega: the argument sweeps down from the phase
        (-3.0, 0.3, 0.2),
    ])
    def test_sinusoid_running_sup_matches_dense_sampling(self, omega, phase, t):
        amp = np.array([1.0, -2.0])
        sig = SinusoidSignal(amp, omega, phase)
        taus = np.linspace(0.0, t, 200_001)
        brute = max(np.linalg.norm(sig.value(tau)) for tau in taus)
        exact = sig.running_sup(t)
        assert exact >= brute - 1e-9
        assert exact <= brute + 1e-6 * (1.0 + brute)

    def test_running_sup_reads_the_norm_taken_at_construction(self, monkeypatch):
        amp = np.array([1.0, -2.0])
        sine, const = SinusoidSignal(amp, 2.0, 0.3), ConstantSignal(amp)
        norm = float(np.linalg.norm(amp))

        def recomputed(*args, **kwargs):
            raise AssertionError("running_sup recomputed the norm")

        monkeypatch.setattr(np.linalg, "norm", recomputed)
        assert sine.running_sup(5.0) == norm  # the peak is inside [0.3, 10.3]
        assert sine.running_sup(0.1) == norm * abs(math.sin(0.5))
        assert const.running_sup(5.0) == norm

    def test_piecewise(self):
        sig = PiecewiseConstantSignal([0.0, 1.0, 2.0], [[1.0], [-3.0], [0.5]])
        assert sig.value(0.5) == pytest.approx(1.0)
        assert sig.value(1.0) == pytest.approx(-3.0)  # right-continuous
        assert sig.left_value(1.0) == pytest.approx(1.0)
        assert sig.running_sup(0.5) == pytest.approx(1.0)
        assert sig.running_sup(1.5) == pytest.approx(3.0)
        assert sig.running_sup(9.0) == pytest.approx(3.0)
        assert sig.breakpoints(10.0) == (1.0, 2.0)
        assert sig.breakpoints(1.5) == (1.0,)

    def test_piecewise_running_sup_is_the_prefix_max(self):
        times = [0.0, 1.0, 2.0, 3.5]
        values = [[0.5, 0.0], [3.0, 4.0], [-1.0, 1.0], [0.0, 6.0]]
        sig = PiecewiseConstantSignal(times, values)
        norms = [float(np.linalg.norm(v)) for v in values]
        for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 9.0):
            k = max(int(np.searchsorted(times, t, side="right")) - 1, 0)
            assert sig.running_sup(t) == max(norms[: k + 1])

    def test_piecewise_validation(self):
        with pytest.raises(ValueError):
            PiecewiseConstantSignal([0.5, 1.0], [[1.0], [2.0]])
        with pytest.raises(ValueError, match="^times and values must have equal length$"):
            PiecewiseConstantSignal([0.0, 1.0], [[1.0]])
        with pytest.raises(ValueError):
            PiecewiseConstantSignal([0.0, 0.0], [[1.0], [2.0]])

    @pytest.mark.parametrize("build,message", [
        (lambda: ConstantSignal([math.inf]), "ConstantSignal value must be finite, got [inf]"),
        (lambda: SinusoidSignal([1.0], math.nan), "SinusoidSignal omega must be finite, got nan"),
        (lambda: SinusoidSignal([1.0], 1.0, -math.inf),
         "SinusoidSignal phase must be finite, got -inf"),
        (lambda: SinusoidSignal([math.nan, 1.0], 1.0),
         "SinusoidSignal amplitude must be finite, got [nan, 1.0]"),
        (lambda: PiecewiseConstantSignal([0.0, 1.0], [[1.0], [math.nan]]),
         "PiecewiseConstantSignal values must be finite, got [[1.0], [nan]]"),
        (lambda: PiecewiseConstantSignal([0.0, 1.0], [[1.0], [math.inf]]),
         "PiecewiseConstantSignal values must be finite, got [[1.0], [inf]]"),
        (lambda: PiecewiseConstantSignal([0.0, math.nan], [[1.0], [2.0]]),
         "PiecewiseConstantSignal times must be finite, got [0.0, nan]"),
        (lambda: PiecewiseConstantSignal([0.0, math.inf], [[1.0], [2.0]]),
         "PiecewiseConstantSignal times must be finite, got [0.0, inf]"),
    ], ids=["const_inf", "sin_nan_omega", "sin_inf_phase", "sin_nan_amplitude",
            "piecewise_nan_value", "piecewise_inf_value", "piecewise_nan_break",
            "piecewise_inf_break"])
    def test_non_finite_parameter_is_named(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("build", [
        lambda: ConstantSignal([1.7e308, 1.7e308]),
        lambda: SinusoidSignal([1.7e308, -1.7e308], 2.0),
        lambda: PiecewiseConstantSignal([0.0, 1.0], [[1.0, 1.0], [-1.7e308, 1.7e308]]),
    ], ids=["constant", "sinusoid", "piecewise"])
    def test_norm_that_overflows_is_rejected(self, build):
        with pytest.raises(ValueError, match="overflows its norm$"):
            build()

    @pytest.mark.parametrize("v,norm", [
        ([1e308, 1.0], 1e308), ([1e200], 1e200), ([-1e300], 1e300),
        ([3.0 * 2.0**700, -4.0 * 2.0**700], 5.0 * 2.0**700), ([1e200] * 4, 2e200),
    ], ids=["one_and_1e308", "1e200", "minus_1e300", "three_four_five", "four_1e200"])
    def test_norm_past_the_square_root_of_the_range_is_accepted(self, v, norm):
        # the squares overflow, the norms do not: they are taken scaled
        assert ConstantSignal(v).running_sup(0.0) == norm
        assert SinusoidSignal(v, 1.0).running_sup(2.0) == norm
        assert PiecewiseConstantSignal([0.0, 1.0], [[0.0] * len(v), v]).running_sup(1.0) == norm

    @pytest.mark.parametrize("v", [[3.0, 4.0], [1e150, -1e150], [1e-170, 2e-170], [0.1] * 7])
    def test_finite_norm_is_bitwise_numpys(self, v):
        norm = float(np.linalg.norm(np.array(v)))
        assert ConstantSignal(v).running_sup(0.0) == norm
        assert SinusoidSignal(v, 1.0).running_sup(2.0) == norm  # the peak is inside [0, 2]
        assert PiecewiseConstantSignal([0.0], [v]).running_sup(0.0) == norm

    @pytest.mark.parametrize("omega", [1.7e308, -1.7e308])
    def test_running_sups_where_omega_t_overflows(self, omega):
        # omega * t is infinite at t = 2: the range holds a peak, and the
        # suite's warning filter fails on an overflow warning
        sups = SinusoidSignal([1.0], omega).running_sups([0.0, 0.5, 2.0])
        assert sups.tolist() == [0.0, 1.0, 1.0]

    def test_scalar_value_is_as_quiet_as_float_arithmetic(self):
        # omega * t overflows and 0 * inf is NaN without a RuntimeWarning; a
        # sine of an infinite argument is math.sin's own ValueError
        frozen = SinusoidSignal([1.0, -3.0], 0.0, 0.7)
        assert np.isnan(frozen.value(math.inf)).all()
        assert np.isnan(frozen.left_value(-math.inf)).all()
        with pytest.raises(ValueError, match="^math domain error$"):
            SinusoidSignal([2.0], 1e12, 1.1).value(1e300)

    def test_piecewise_scalar_values_are_bitwise_the_grid_values(self):
        breaks = np.array([0.0, 0.3, 1.0 / 3.0, 2.0, 7.25])
        sig = PiecewiseConstantSignal(breaks, np.arange(10.0).reshape(5, 2) - 4.5)
        probes = [-1.0, -0.0, np.inf, -np.inf, 1e300, np.nan]
        for b in breaks:
            probes += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        for t in probes:
            t = float(t)
            assert sig.value(t).tobytes() == sig.sample(np.array([t]))[0].tobytes(), t
            # left_value: the value on just before t, as searchsorted reads it
            k = int(np.searchsorted(breaks, t, side="left")) - 1
            expected = sig.values[min(max(k, 0), len(breaks) - 1)]
            assert sig.left_value(t).tobytes() == expected.tobytes(), t
        # at NaN both read the last value
        assert sig.value(math.nan).tobytes() == sig.values[-1].tobytes()
        assert sig.left_value(math.nan).tobytes() == sig.values[-1].tobytes()


_TIMES = st.lists(st.floats(0.0, 50.0), max_size=30)
_VECTORS = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3)


def _assert_grid_methods_match_scalar(sig, times):
    """sample / running_sups equal the scalar methods stacked, bitwise."""
    times = [0.0] + list(times)
    grid = np.array(times)
    stacked = np.stack([sig.value(t) for t in times])
    sups = np.array([sig.running_sup(t) for t in times])
    sampled, sampled_sups = sig.sample(grid), sig.running_sups(grid)
    assert sampled.shape == stacked.shape and sampled.tobytes() == stacked.tobytes()
    assert sampled_sups.shape == sups.shape and sampled_sups.tobytes() == sups.tobytes()


class TestGridSignals:
    """The grid-wide signal methods are the scalar ones, bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(c=_VECTORS, times=_TIMES)
    def test_zero_and_constant(self, c, times):
        _assert_grid_methods_match_scalar(ZeroSignal(len(c)), times)
        _assert_grid_methods_match_scalar(ConstantSignal(c), times)

    @settings(max_examples=200, deadline=None)
    @given(
        amplitude=_VECTORS,
        omega=st.one_of(st.just(0.0), st.floats(-6.0, 6.0)),
        phase=st.one_of(
            st.floats(-10.0, 10.0),
            # next to an odd multiple of pi/2
            st.tuples(st.integers(-6, 6), st.integers(-3, 3)).map(
                lambda kj: (math.pi / 2.0 + kj[0] * math.pi) + kj[1] * 1e-15
            ),
        ),
        times=_TIMES,
    )
    def test_sinusoid(self, amplitude, omega, phase, times):
        sig = SinusoidSignal(amplitude, omega, phase)
        if omega != 0.0:  # the times at which the argument meets a peak of |sin|
            times = times + [
                t for k in range(-3, 12)
                if 0.0 <= (t := (math.pi / 2.0 + k * math.pi - phase) / omega) <= 100.0
            ]
        _assert_grid_methods_match_scalar(sig, times)

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.floats(1e-3, 5.0), max_size=8),
        data=st.data(),
        times=_TIMES,
    )
    def test_piecewise_constant(self, steps, data, times):
        m = data.draw(st.integers(1, 3))
        breaks = np.concatenate([[0.0], np.cumsum(steps)])
        values = data.draw(st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m),
            min_size=len(breaks), max_size=len(breaks)))
        sig = PiecewiseConstantSignal(breaks, values)
        # the breakpoints exactly, and points past the last one
        times = times + breaks.tolist() + [breaks[-1] + 1.0, breaks[-1] + 100.0]
        _assert_grid_methods_match_scalar(sig, times)


class TestSimulate:
    def test_matrix_exponential_oracle(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        spec, dec, ctrl = _single_agent(A)
        x0 = np.array([1.0, -1.0])
        tr = simulate(spec, dec, ctrl, {1: x0}, T=3.0, dt=1e-3)
        exact = scipy.linalg.expm(3.0 * A) @ x0
        assert np.linalg.norm(tr.states[1][-1] - exact) <= 1e-10

    def test_rk4_convergence_order(self):
        # the RK4 routine that breakpoint inputs take
        from formstab.simulation import _integrate

        A = np.array([[0.0, 4.0], [-9.0, -2.0]])
        x0 = np.array([1.0, -0.5])
        exact = scipy.linalg.expm(2.0 * A) @ x0
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            times = np.linspace(0.0, 2.0, round(2.0 / dt) + 1)
            traj = np.empty((2, len(times)))
            traj[:, 0] = x0
            _integrate(A, np.zeros(2), [], times, traj)
            errs.append(np.linalg.norm(traj[:, -1] - exact))
        orders = [np.log2(errs[k] / errs[k + 1]) for k in range(2)]
        assert min(orders) >= 3.8

    @pytest.mark.parametrize("scale", [1e-9, 0.18, 3.0, 40.0])
    def test_expm_increment_matches_the_augmented_exponential(self, scale):
        # e^X - I as X phi_1(X), phi_1(X) the top-right block of
        # expm([[X, I], [0, 0]]); 3 and 40 take doublings
        from formstab.simulation import _expm_increment

        rng = np.random.default_rng(8)
        X = scale * rng.standard_normal((30, 30)) / np.sqrt(30)
        W = np.zeros((60, 60))
        W[:30, :30], W[:30, 30:] = X, np.eye(30)
        oracle = X @ scipy.linalg.expm(W)[:30, 30:]
        assert np.max(np.abs(_expm_increment(X)[0] - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_expm_increment_memory_stays_at_a_few_matrices(self):
        # k = 701 is the augmented size at l=175, n=4; one k-square matrix
        # is 3.9 MB
        from formstab.simulation import _expm_increment

        k = 701
        X = 0.18 * np.random.default_rng(0).standard_normal((k, k)) / k
        tracemalloc.start()
        try:
            (D,) = _expm_increment(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert D.shape == (k, k)
        assert peak <= 32e6

    def test_ideal_initial_states_keep_errors_at_zero(
        self, chain, chain_decomp, chain_ctrl
    ):
        # the identity is scale-free; verified at a scale where the
        # leader's exp(2t) growth keeps roundoff under the tolerance
        rng = np.random.default_rng(5)
        x0_vec = 1e-13 * rng.standard_normal(2)
        tr = simulate(
            chain, chain_decomp, chain_ctrl,
            ideal_initial_states(chain_decomp, x0_vec), T=20.0,
        )
        worst = max(float(np.linalg.norm(z, axis=1).max()) for z in tr.errors.values())
        assert worst <= 1e-9 * (1.0 + np.linalg.norm(x0_vec))

    def test_limit_of_free_response_is_minus_offset(
        self, chain, chain_decomp, chain_ctrl
    ):
        tr = simulate(
            chain, chain_decomp, chain_ctrl,
            {i: np.zeros(2) for i in chain.nodes}, T=40.0,
        )
        for i in chain.nodes:
            gap = np.linalg.norm(tr.states[i][-1] + chain_decomp.cumulative_offset[i])
            assert gap <= 1e-4

    def test_errors_recomputable_from_states(self, chain, chain_decomp, chain_ctrl):
        rng = np.random.default_rng(2)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=2.0)
        for e in chain.edges:
            recon = tr.states[e.i] - tr.states[e.j] + e.d
            assert np.max(np.abs(recon - tr.errors[e.key])) <= 1e-12
        assert np.all(np.diff(tr.times) > 0)
        assert tr.metadata["integrator"] == "expm"

    def test_recorded_inputs_match_control_law(self, chain, chain_decomp, chain_ctrl):
        from formstab import control_input

        rng = np.random.default_rng(3)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)
        k = len(tr.times) // 2
        states_k = {i: tr.states[i][k] for i in chain.nodes}
        for i in (2, 3):
            assert np.allclose(tr.inputs[i][k], control_input(chain_ctrl, i, states_k))
        assert np.allclose(tr.inputs[1], 0.0)

    def test_follower_inputs_are_evaluated_only_when_read(
        self, chain, chain_decomp, chain_ctrl, monkeypatch
    ):
        import formstab.simulation as simulation

        calls = []
        real = simulation.control_input

        def counted(ctrl, i, states):
            calls.append(i)
            return real(ctrl, i, states)

        monkeypatch.setattr(simulation, "control_input", counted)
        x0 = {i: np.ones(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)
        assert calls == []
        assert list(tr.inputs) == list(chain_decomp.renumbering)
        tr.inputs[3]
        assert calls == [3]

    def test_step_too_large(self, chain, chain_decomp, chain_ctrl):
        # the stability cap of an explicit method binds the RK4 runs only
        with pytest.raises(StepTooLargeError, match="exceeds the RK4 stability cap"):
            simulate(chain, chain_decomp, chain_ctrl, {i: np.zeros(2) for i in chain.nodes},
                     signals={1: _NoGenerator([0.0, 4.0], [[1.0], [2.0]])}, T=10.0, dt=1.0)

    @pytest.mark.parametrize("dt", [0.05, 0.25, 0.5, 1.0])
    def test_exact_integrator_takes_a_step_above_the_rk4_cap(self, dt):
        # triangle's RK4 cap is dt = 4.030e-02; the exact integrator carries
        # the states of a fine grid at the times both grids share
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        x0 = {i: np.random.default_rng(0).standard_normal(spec.n) for i in spec.nodes}
        fine = simulate(spec, dec, ctrl, x0, T=20.0, dt=0.0025)
        coarse = simulate(spec, dec, ctrl, x0, T=20.0, dt=dt)
        assert coarse.metadata["integrator"] == "expm"
        k = np.searchsorted(fine.times, coarse.times - 1e-9)
        assert np.max(np.abs(fine.times[k] - coarse.times)) <= 1e-12
        F = np.concatenate([x[k] for x in fine.states.values()], axis=1)
        C = np.concatenate(list(coarse.states.values()), axis=1)
        assert np.max(np.linalg.norm(C - F, axis=1) / np.linalg.norm(F, axis=1)) <= 1e-12
        assert fit_envelope(coarse, dec).passed

    @pytest.mark.parametrize("omega,norm", [(1e302, "1.000e+300"), (1e308, "1.000e+306")])
    def test_step_increment_that_overflows_names_the_step(self, chain, chain_decomp,
                                                          chain_ctrl, omega, norm):
        # dt passes the step cap, but the sinusoid's generator makes ||dt A||_1
        # so large that e^(dt A) - I overflows
        with pytest.raises(StepTooLargeError) as exc:
            simulate(chain, chain_decomp, chain_ctrl, {i: np.zeros(2) for i in chain.nodes},
                     signals={1: SinusoidSignal([1.0], omega)}, T=1.0, dt=1e-2)
        assert str(exc.value) == (
            "dt=0.01 is too large a step for the inputs: the step increment "
            f"e^(dt A) - I overflows at ||dt A||_1 = {norm}")

    @pytest.mark.parametrize("omega,growth", [(1e19, "1.239e+01"), (1e21, "9.219e+186")])
    def test_sinusoid_whose_computed_rotation_grows_names_the_step(self, monkeypatch, omega,
                                                                   growth):
        # e^(dt A) - I is finite, but its sinusoid block is no rotation: over
        # the 516 dt steps of T=2 it would push the generator state past the
        # float range, which would read as the horizon's fault
        from formstab import simulation

        runs = []
        monkeypatch.setattr(simulation, "_dt_run", lambda *args: runs.append(1))
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        x0 = {i: np.ones(spec.n) for i in spec.nodes}
        with pytest.raises(StepTooLargeError) as exc:
            simulate(spec, dec, ctrl, x0, signals={1: SinusoidSignal([1.0], omega)}, T=2.0)
        assert str(exc.value) == (
            f"dt=0.0038736707454286954 is too large a step for the sinusoid of "
            f"omega={omega:g}: the computed e^(dt S) of its generator is not a rotation "
            f"but grows its state {growth}-fold per step, past the float range in 516 steps")
        assert runs == []

    def test_custom_rotation_generator_that_grows_names_the_step(self):
        # the sinusoid's rotation offered by a custom signal: its computed
        # step grows the generator state as the sinusoid's does, which would
        # read as the horizon's fault (a non-finite state at t=1.592)
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        x0 = {i: np.ones(spec.n) for i in spec.nodes}
        with pytest.raises(StepTooLargeError) as exc:
            simulate(spec, dec, ctrl, x0, signals={1: _Rotation(1e19)}, T=2.0)
        assert str(exc.value) == (
            "dt=0.0038736707454286954 is too large a step for the sinusoid of "
            "omega=1e+19: the computed e^(dt S) of its generator is not a rotation "
            "but grows its state 1.239e+01-fold per step, past the float range in 516 steps")

    def test_non_finite_state_of_a_decaying_error_loop_names_the_horizon(self):
        # the stable triangle's leader grows like exp(2t): at T=400 its state
        # leaves the float range while the errors decay
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(spec, dec, ctrl, x0, T=400.0)
        assert type(exc.value) is NonFiniteStateError
        assert exc.value.error_loop.is_hurwitz
        assert exc.value.time == 355.65333215004483
        assert str(exc.value) == (
            "T=400.0 exceeds the float range of the leaders' own growth: non-finite "
            "state at t=355.65333215004483, while the error loop decays")

    def test_overflow_diagnosis_takes_the_given_tolerances(self):
        # the triangle's error loop has abscissa -1.28: Hurwitz at the
        # default margin, not at eps_hurwitz = 2, so the same overflow is a
        # non-decay there
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        with pytest.raises(NonDecayError) as exc:
            simulate(spec, dec, ctrl, x0, T=400.0, tol=Tolerances(eps_hurwitz=2.0))
        loop = exc.value.error_loop
        assert loop.margin == 2.0 and not loop.is_hurwitz
        assert loop.spectral_abscissa == pytest.approx(-1.2758, abs=1e-4)

    def test_non_finite_state_of_a_growing_error_loop_is_non_decay(self):
        spec, dec, ctrl = _destabilized_triangle()
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        with pytest.raises(NonDecayError) as exc:
            simulate(spec, dec, ctrl, x0, T=400.0, dt=0.01)
        loop = exc.value.error_loop
        assert not loop.is_hurwitz
        # the verdict `fit_envelope` takes on the same closed loop
        M = _closed_loop_blocks(spec, dec, ctrl)[0]
        M_e = _error_coordinates(M, dec, [])[1]
        assert loop == _is_block_triangular_hurwitz(M_e, spec.n, DEFAULT_TOLERANCES)
        assert exc.value.time == 38.95
        assert str(exc.value) == (
            f"non-decay: the error loop is not Hurwitz (spectral abscissa "
            f"{loop.spectral_abscissa:.3e}); non-finite state at t=38.95")

    def test_non_finite_state_reports_first_bad_time(
        self, chain, chain_decomp, chain_ctrl
    ):
        # zero input: the exact path
        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        huge = {i: 1e300 * np.ones(2) for i in chain.nodes}
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(chain, chain_decomp, bad, huge, T=40.0)
        assert 0.0 < exc.value.time < 40.0

    def test_non_finite_state_on_the_rk4_path(self, chain, chain_decomp, chain_ctrl):
        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        huge = {i: 1e300 * np.ones(2) for i in chain.nodes}
        steps = {1: _NoGenerator([0.0, 0.5], [[0.0], [1.0]])}
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(chain, chain_decomp, bad, huge, signals=steps, T=40.0)
        assert 0.0 < exc.value.time < 40.0

    def test_rk4_overflow_reports_the_first_non_finite_grid_time(
        self, chain, chain_decomp, chain_ctrl
    ):
        # RK4 steps on past the overflow to T; the reported time is the first
        # non-finite grid point, and the run that stops one grid point
        # earlier on the same grid stays finite
        from formstab.simulation import _build_grid

        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        huge = {i: 1e300 * np.ones(2) for i in chain.nodes}
        steps = {1: _NoGenerator([0.0, 0.5], [[0.0], [1.0]])}
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(chain, chain_decomp, bad, huge, signals=steps, T=40.0, dt=1e-2)
        times = _build_grid(40.0, 1e-2, steps[1].breakpoints(40.0))
        k = int(np.flatnonzero(times == exc.value.time)[0])
        assert 1 < k < len(times) - 1
        tr = simulate(chain, chain_decomp, bad, huge, signals=steps, T=times[k - 1], dt=1e-2)
        assert tr.metadata["integrator"] == "rk4"
        assert np.array_equal(tr.times, times[:k])
        assert all(np.isfinite(x).all() for x in tr.states.values())

    @pytest.mark.parametrize("kw,message", [
        ({"T": math.inf}, "horizon T must be finite, got inf"),
        ({"T": math.nan}, "horizon T must be finite, got nan"),
        ({"T": 1.0, "dt": math.nan}, "dt must be finite, got nan"),
        ({"T": 1.0, "dt": math.inf}, "dt must be finite, got inf"),
        ({"T": 0.0}, "horizon T must be positive"),
        ({"T": -1.0}, "horizon T must be positive"),
        ({"T": 1.0, "dt": 0.0}, "dt must be positive"),
        ({"T": 1.0, "dt": -0.1}, "dt must be positive"),
        ({"T": 1.0, "dt": 1.0}, "dt must be smaller than T"),
    ], ids=["T_inf", "T_nan", "dt_nan", "dt_inf", "T_zero", "T_negative", "dt_zero",
            "dt_negative", "dt_not_below_T"])
    def test_rejects_a_non_finite_horizon_or_step(self, chain, chain_decomp, chain_ctrl,
                                                  kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate(chain, chain_decomp, chain_ctrl,
                     {i: np.zeros(2) for i in chain.nodes}, **kw)

    def test_rejects_a_missing_initial_state(self, chain, chain_decomp, chain_ctrl):
        x0 = {i: np.zeros(2) for i in chain.nodes if i != 3}
        with pytest.raises(ValueError, match="^x0 has no initial state for agent 3$"):
            simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)

    @pytest.mark.parametrize("x2,message", [
        ([math.nan, 1.0], r"^initial state x0\[2\] is not finite: \[nan, 1.0\]$"),
        ([math.inf, 1.0], r"^initial state x0\[2\] is not finite: \[inf, 1.0\]$"),
        ([1.0, 2.0, 3.0], r"^x0\[2\] has shape \(3,\), expected \(2,\)$"),
    ], ids=["nan", "inf", "wrong_shape"])
    def test_rejects_a_non_finite_initial_state(self, chain, chain_decomp, chain_ctrl,
                                                x2, message):
        # an input error, not a state that blew up at t=0
        x0 = {i: np.zeros(2) for i in chain.nodes}
        x0[2] = np.array(x2)
        with pytest.raises(ValueError, match=message):
            simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)

    def test_non_finite_state_on_the_exact_path_with_breakpoints(
        self, chain, chain_decomp, chain_ctrl
    ):
        # a breakpoint every 0.013 splits nearly every step of 0.01, so the
        # overflow happens on short steps; the run that stops one grid point
        # earlier stays finite
        from formstab.simulation import _build_grid

        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        huge = {i: 1e300 * np.ones(2) for i in chain.nodes}
        breaks = 0.013 * np.arange(2400)
        steps = {1: PiecewiseConstantSignal(breaks, np.cos(breaks)[:, None])}
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(chain, chain_decomp, bad, huge, signals=steps, T=30.0, dt=1e-2)
        first_bad = exc.value.time
        assert 0.0 < first_bad < 30.0
        times = _build_grid(30.0, 1e-2, steps[1].breakpoints(30.0))
        k = int(np.flatnonzero(times == first_bad)[0])
        tr = simulate(chain, chain_decomp, bad, huge, signals=steps, T=times[k - 1], dt=1e-2)
        assert tr.metadata["integrator"] == "expm"
        assert np.array_equal(tr.times, times[:k])
        assert all(np.isfinite(x).all() for x in tr.states.values())

    def test_non_finite_state_on_a_pure_dt_run(self, chain, chain_decomp, chain_ctrl,
                                               monkeypatch):
        # T = 4000 dt and no breakpoints: every step has length dt, so the
        # overflow happens inside blocks of doubled steps; the reported time
        # is the first non-finite grid point, and the run that stops one
        # grid point earlier stays finite
        from formstab import simulation

        built = _count_increments(monkeypatch)
        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        huge = {i: 1e300 * np.ones(2) for i in chain.nodes}
        times = simulation._build_grid(40.0, 1e-2, ())
        assert np.all(np.abs(np.diff(times) - 1e-2) <= simulation._grid_resolution(40.0))
        with pytest.raises(NonFiniteStateError) as exc:
            simulate(chain, chain_decomp, bad, huge, T=40.0, dt=1e-2)
        assert built == [simulation._MAX_DOUBLINGS + 1]  # blocks of 128 steps
        k = int(np.flatnonzero(times == exc.value.time)[0])
        assert 0 < k < len(times) - 1
        tr = simulate(chain, chain_decomp, bad, huge, T=times[k - 1], dt=1e-2)
        assert tr.metadata["integrator"] == "expm"
        assert np.array_equal(tr.times, times[:k])
        assert all(np.isfinite(x).all() for x in tr.states.values())

    def test_blocked_steps_match_expm_at_each_grid_time(self, monkeypatch):
        # steps with breakpoints inside blocks of 128 dt steps (0.437 and
        # 1.2003 off the grid, 2.0 on it), a sinusoid on the second leader
        # and a short last step (T = 2.957)
        from formstab import simulation

        built = _count_increments(monkeypatch)
        spec = random_feasible_formation(rng=3, max_nodes=12, multi_leader_prob=1.0)
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        first, second = sorted(dec.leaders)[:2]
        m = spec.m
        breaks = [0.0, 0.437, 1.2003, 2.0]
        values = np.outer([0.6, -1.1, 0.3, 0.9], np.linspace(1.0, -0.5, m))
        amp, omega, phase = np.linspace(0.7, -0.2, m), 2.3, 0.4
        signals = {first: PiecewiseConstantSignal(breaks, values),
                   second: SinusoidSignal(amp, omega, phase)}
        rng = np.random.default_rng(6)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        T, dt = 2.957, 1e-2
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=T, dt=dt)
        assert tr.metadata["integrator"] == "expm"
        assert built == [simulation._MAX_DOUBLINGS + 1]  # blocks of 128 steps
        assert tr.times[-1] - tr.times[-2] < dt
        oracle = _augmented_oracle(spec, dec, ctrl, x0, tr.times, steps=(first, breaks, values),
                                   sine=(second, amp, omega, phase))
        got = np.hstack([tr.states[i] for i in dec.renumbering])
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @settings(max_examples=30, deadline=None)
    @given(
        loop=st.sampled_from(["decaying", "growing"]),
        seed=st.integers(0, 3),
        blocks=st.integers(1, 3),
        offset=st.sampled_from([-1, 0, 1]),
        inputs=st.sampled_from(["none", "steps", "sine", "both"]),
        dt=st.floats(5e-3, 2e-2),
        at=st.floats(0.05, 0.95),
        omega=st.floats(0.3, 6.0),
        x0_seed=st.integers(0, 2**32 - 1),
    )
    def test_runs_around_whole_blocks_match_expm(self, loops, loop, seed, blocks, offset,
                                                 inputs, dt, at, omega, x0_seed):
        # runs of 128 k - 1, 128 k and 128 k + 1 dt steps, on block-lower-
        # triangular loops whose leaders decay or grow, under no input, a
        # steps input with one breakpoint, a sinusoid, or both
        spec, dec, ctrl = loops[loop][seed]
        first, second = sorted(dec.leaders)
        steps = sine = None
        signals = {}
        T = (blocks * 2**formstab.simulation._MAX_DOUBLINGS + offset) * dt
        if inputs in ("steps", "both"):
            values = np.outer([0.8, -1.3], np.linspace(1.0, -0.5, spec.m))
            steps = (first, [0.0, at * T], values)
            signals[first] = PiecewiseConstantSignal(*steps[1:])
        if inputs in ("sine", "both"):
            sine = (second, np.linspace(0.6, -0.3, spec.m), omega, 0.7)
            signals[second] = SinusoidSignal(*sine[1:])
        rng = np.random.default_rng(x0_seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=T, dt=dt)
        assert tr.metadata["integrator"] == "expm"
        oracle = _augmented_oracle(spec, dec, ctrl, x0, tr.times, steps=steps, sine=sine)
        got = np.hstack([tr.states[i] for i in dec.renumbering])
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    def test_large_augmented_size_builds_no_power_beyond_the_step(self, monkeypatch):
        # doubled increments cost one size-square product each; with few dt
        # steps next to the size (701 next to 258 at l=175, T=1) none is built
        from formstab import simulation

        assert simulation._block_doublings(701, 258, 258) == 0
        assert simulation._block_doublings(181, 4483, 4483) == simulation._MAX_DOUBLINGS
        # J is 0 below 3.5 times the size in dt steps
        assert simulation._block_doublings(181, 633, 633) == 0
        assert simulation._block_doublings(181, 634, 634) == simulation._MAX_DOUBLINGS
        # J is 0 or 7: no run of 32 steps, no block
        assert simulation._block_doublings(181, 4483, 31) == 0
        assert simulation._block_doublings(181, 4483, 32) == simulation._MAX_DOUBLINGS
        built = _count_increments(monkeypatch)
        spec, dec, ctrl = _single_agent(-np.eye(60))
        x0 = {1: np.ones(60)}
        short = simulate(spec, dec, ctrl, x0, T=0.2, dt=1e-2)
        long = simulate(spec, dec, ctrl, x0, T=20.0, dt=1e-2)
        assert built == [1, simulation._MAX_DOUBLINGS + 1]
        for tr in (short, long):
            exact = np.exp(-tr.times)[:, None] * np.ones(60)
            assert np.max(np.abs(tr.states[1] - exact)) <= 1e-13

    def test_steps_that_would_make_a_narrow_block_go_one_at_a_time(self):
        # blocks narrower than 32 steps run below single-step speed, so a
        # short run, and the last steps of a run shorter than two blocks,
        # take the single-step product z + D_0 z bit for bit
        from formstab import simulation

        rng = np.random.default_rng(2)
        k = 12
        A = rng.standard_normal((k, k)) - 3.0 * np.eye(k)
        powers = simulation._expm_increment(1e-2 * A, simulation._MAX_DOUBLINGS + 1)
        z0 = rng.standard_normal(k)

        def single(z, count):
            cols = np.empty((k, count))
            for t in range(count):
                z = z + powers[0] @ z
                cols[:, t] = z
            return cols

        out, z = _run_blocks(powers, z0, 31)
        assert out.tobytes() == single(z0, 31).tobytes()
        assert z.tobytes() == out[:, -1].tobytes()
        _, z128 = _run_blocks(powers, z0, 128)
        out, z = _run_blocks(powers, z0, 134)  # a block of 128, then 6 single steps
        assert out[:, 128:].tobytes() == single(z128, 6).tobytes()
        assert z.tobytes() == out[:, -1].tobytes()
        # 200: blocks of 128 and 72; 300: blocks of 128, carried by 128 and 44
        for count in (134, 200, 300):
            out, _ = _run_blocks(powers, z0, count)
            ref = single(z0, count)
            assert not np.array_equal(out[:, :128], ref[:, :128])
            assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("blocks,rest", [(2, 0), (3, 0), (5, 0), (3, 77), (4, 1)])
    def test_a_long_run_takes_one_wide_product_per_later_block(self, blocks, rest):
        # the first block is doubled from D_0 ... D_6; each later one is the
        # previous block plus D_7 times it, the last one as narrow as the
        # steps left
        from formstab import simulation

        J = simulation._MAX_DOUBLINGS
        rng = np.random.default_rng(3)
        k = 9
        A = rng.standard_normal((k, k)) - 3.0 * np.eye(k)
        powers = simulation._expm_increment(1e-2 * A, J + 1)
        assert len(powers) == J + 1
        count = blocks * 2**J + rest
        products = []
        z0 = rng.standard_normal(k)
        out, z = _run_blocks(_counted(powers, products), z0, count)
        first = [(0, 0)] + [(j, 2**j) for j in range(J)]
        later = [(J, 2**J)] * (blocks - 1) + ([(J, rest)] if rest else [])
        assert products == first + later
        exact = np.column_stack([scipy.linalg.expm(1e-2 * t * A) @ z0
                                 for t in range(1, count + 1)])
        assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))
        assert z.tobytes() == out[:, -1].tobytes()

    def test_an_overflowing_carry_increment_keeps_doubling_blocks(self):
        # a mode of rate 8 per step that the state does not excite: D_6 holds
        # e^512 - 1, D_7 would hold e^1024 - 1 and overflows, so every
        # block of a long run is doubled from its own first column
        from formstab import simulation

        J = simulation._MAX_DOUBLINGS
        X = np.diag([8.0, -1e-2, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            powers = simulation._expm_increment(X, J + 1)
        assert len(powers) == J and np.isfinite(powers[-1]).all()
        products = []
        z0 = np.array([0.0, 1.0, 2.0])
        out, z = _run_blocks(_counted(powers, products), z0, 3 * 2**J)
        doubled = [(0, 0)] + [(j, 2**j) for j in range(J)]
        assert products == doubled * 3
        assert not out[0].any() and (out[2] == 2.0).all()
        exact = np.exp(-1e-2 * np.arange(1, 3 * 2**J + 1))
        assert np.max(np.abs(out[1] - exact)) <= 1e-13
        assert z.tobytes() == out[:, -1].tobytes()

    @pytest.mark.parametrize("gain", [np.inf, 1e308], ids=["infinite", "overflowing"])
    def test_non_finite_closed_loop_is_rejected_before_any_step(
        self, chain, chain_decomp, chain_ctrl, monkeypatch, gain
    ):
        # a coupling gain off the diagonal blocks, which the step cap reads;
        # 1e308 is finite, but B_3 = [1, 2] times it overflows
        built = _count_increments(monkeypatch)
        fc = chain_ctrl.followers[3]
        K = {s: np.full_like(Ks, gain) for s, Ks in fc.K.items()}
        bad = dataclasses.replace(chain_ctrl, followers={
            **chain_ctrl.followers, 3: dataclasses.replace(fc, K=K)})
        steps = {1: PiecewiseConstantSignal([0.0, 0.004], [[1.0], [2.0]])}
        with pytest.raises(ValueError) as exc:
            simulate(chain, chain_decomp, bad, {i: np.ones(2) for i in chain.nodes},
                     signals=steps, T=1.0, dt=1e-2)
        assert str(exc.value) == (
            "the closed loop of agent 3 is not finite: a gain or matrix entry "
            "is NaN or infinite, or overflows")
        assert built == []

    def test_input_map_that_overflows_names_the_step(self):
        # the closed loop is finite, but the leader's B times the sinusoid's
        # amplitude, the input map G H of the generator, overflows
        spec = FormationSpec(n=2, m=1, edges=(), agents=(
            AgentDynamics(A=-np.eye(2), B=np.array([[1e160], [0.0]])),))
        ctrl = ControllerSet(n=2, m=1, followers={})
        with pytest.raises(StepTooLargeError) as exc:
            simulate(spec, decompose(spec), ctrl, {1: np.zeros(2)},
                     signals={1: SinusoidSignal([1e150], 1.0)}, T=1.0, dt=1e-2)
        assert str(exc.value) == (
            "dt=0.01 is too large a step for the inputs: the step increment "
            "e^(dt A) - I overflows at ||dt A||_1 = inf")

    def test_huge_finite_gain_beside_a_breakpoint(self, chain, chain_decomp, chain_ctrl):
        # a coupling gain of 1e300 passes the step cap; the steps beside the
        # breakpoint have h ||A||_1 near 1e298, which one matrix increment
        # covers in about 1000 doublings.  The states stay finite (the
        # coupling is lower triangular) and agree with RK4.
        fc = chain_ctrl.followers[3]
        K = {s: np.full_like(Ks, 1e300) for s, Ks in fc.K.items()}
        huge = dataclasses.replace(chain_ctrl, followers={
            **chain_ctrl.followers, 3: dataclasses.replace(fc, K=K)})
        x0 = {i: np.ones(2) for i in chain.nodes}
        runs = [simulate(chain, chain_decomp, huge, x0, T=1.0, dt=1e-2,
                         signals={1: cls([0.0, 0.004], [[1.0], [2.0]])})
                for cls in (PiecewiseConstantSignal, _NoGenerator)]
        assert [tr.metadata["integrator"] for tr in runs] == ["expm", "rk4"]
        for i in chain.nodes:
            exact, rk4 = runs[0].states[i], runs[1].states[i]
            assert np.isfinite(exact).all()
            assert np.max(np.abs(exact - rk4)) <= 1e-6 * np.max(np.abs(rk4))

    def test_high_frequency_sinusoid_on_a_short_last_step(self):
        # omega = 1e12 and T/dt = 142.9: the short last step has
        # h ||A||_1 near 1e10.  The input moves the states by about 2 / omega.
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        leader = sorted(dec.leaders)[0]
        x0 = {i: np.ones(2) for i in spec.nodes}
        free = simulate(spec, dec, ctrl, x0, T=1.0, dt=7e-3)
        tr = simulate(spec, dec, ctrl, x0, signals={leader: SinusoidSignal([1.0], 1e12)},
                      T=1.0, dt=7e-3)
        assert tr.metadata["integrator"] == "expm"
        assert tr.times[-1] - tr.times[-2] < 7e-3
        assert max(np.max(np.abs(tr.states[i] - free.states[i])) for i in spec.nodes) <= 1e-11

    @pytest.mark.parametrize("h", [1e-3, 0.7, 1e12, 1e300])
    def test_step_on_vector_takes_at_most_its_size_in_series(self, h, monkeypatch):
        # past len(z) substeps one matrix increment replaces them, so the
        # work stays bounded however large h ||A||_1 is
        from formstab import simulation

        calls = []
        series = simulation._taylor_increment
        monkeypatch.setattr(simulation, "_taylor_increment",
                            lambda *args: calls.append(1) or series(*args))
        A = np.random.default_rng(5).standard_normal((6, 6))
        z = np.ones(6)
        with np.errstate(over="ignore", invalid="ignore"):
            out = simulation._step_on_vector(A, float(np.linalg.norm(A, 1)), h, z)
        assert 1 <= len(calls) <= 6
        if h < 1.0:
            exact = scipy.linalg.expm(h * A) @ z
            assert np.max(np.abs(out - exact)) <= 1e-13 * np.max(np.abs(exact))

    def test_breakpoints_with_a_generator_state_other_than_the_value_take_rk4(self):
        # the oracle takes one expm of the augmented system [y; 1; sin; cos]
        # per grid time, restarted with the tripled amplitude at 0.4
        from formstab.simulation import _closed_loop_blocks

        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        (M, c, G), order = _closed_loop_blocks(spec, dec, ctrl), dec.renumbering
        leader = sorted(dec.leaders)[0]
        omega, phase = 1.7, 0.4
        x0 = {i: np.ones(2) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, T=1.0, dt=1e-2,
                      signals={leader: _SwitchedSinusoid([0.8], omega, phase)})
        assert tr.metadata["integrator"] == "rk4"
        dim = M.shape[0]
        A = np.zeros((dim + 3, dim + 3))
        A[:dim, :dim], A[:dim, dim] = M, c
        A[dim + 1, dim + 2], A[dim + 2, dim + 1] = omega, -omega
        before, after = A.copy(), A
        before[:dim, dim + 1] = G[leader] @ [0.8]
        after[:dim, dim + 1] = G[leader] @ [2.4]
        z0 = np.concatenate([np.concatenate([x0[i] for i in order]),
                             [1.0, np.sin(phase), np.cos(phase)]])
        z_switch = scipy.linalg.expm(0.4 * before) @ z0
        exact = np.array([
            (scipy.linalg.expm(t * before) @ z0 if t <= 0.4
             else scipy.linalg.expm((t - 0.4) * after) @ z_switch)[:dim]
            for t in tr.times])
        sim = np.hstack([tr.states[i] for i in order])
        assert np.max(np.abs(sim - exact)) <= 1e-8 * np.max(np.abs(exact))

    @pytest.mark.parametrize("kind", ["zero", "const", "sine"])
    @pytest.mark.parametrize("dt", [1e-2, 7e-3])  # T/dt = 300 and 428.6: a short last step
    def test_exact_path_matches_augmented_exponential(self, kind, dt):
        # two leaders, one of them driven, and a follower with an offset; the
        # oracle takes one expm of the whole augmented system per grid time
        from formstab.simulation import _closed_loop_blocks

        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        (M, c, G), order = _closed_loop_blocks(spec, dec, ctrl), dec.renumbering
        leader = sorted(dec.leaders)[0]
        if kind == "zero":
            signals, gen, w0 = None, np.zeros((0, 0)), np.zeros(0)
        elif kind == "const":
            signals = {leader: ConstantSignal([0.8])}
            gen, w0 = np.zeros((1, 1)), np.ones(1)
            inject = G[leader] @ [[0.8]]
        else:
            omega, phase = 1.7, 0.4
            signals = {leader: SinusoidSignal([0.8], omega, phase)}
            gen = np.array([[0.0, omega], [-omega, 0.0]])
            w0 = np.array([np.sin(phase), np.cos(phase)])
            inject = G[leader] @ [[0.8, 0.0]]
        dim, k = M.shape[0], gen.shape[0]
        A = np.zeros((dim + 1 + k, dim + 1 + k))
        A[:dim, :dim], A[:dim, dim] = M, c
        if k:
            A[:dim, dim + 1 :], A[dim + 1 :, dim + 1 :] = inject, gen

        rng = np.random.default_rng(3)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        z0 = np.concatenate([np.concatenate([x0[i] for i in order]), [1.0], w0])
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=3.0, dt=dt)
        assert tr.metadata["integrator"] == "expm"
        sim = np.hstack([tr.states[i] for i in order])
        exact = np.array([scipy.linalg.expm(t * A)[:dim] @ z0 for t in tr.times])
        assert np.max(np.abs(sim - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("case", ["on_grid", "near_grid", "past_T", "two_leaders",
                                      "steps+sine"])
    @pytest.mark.parametrize("dt", [1e-2, 7e-3])  # 7e-3: a short last step
    def test_piecewise_exact_path_matches_per_segment_exponentials(self, case, dt):
        # two leaders and a follower with an offset; on each piece of the
        # inputs the oracle takes one expm of the augmented system per grid
        # time, from the state at the piece's first grid point
        from formstab.simulation import _closed_loop_blocks

        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        (M, c, G), order = _closed_loop_blocks(spec, dec, ctrl), dec.renumbering
        first, second = sorted(dec.leaders)
        T, on_grid = 3.0, 137 * dt
        pieces = {
            "on_grid": [0.0, 0.4, on_grid, 2.2],
            "near_grid": [0.0, on_grid + 1e-12, 1.5],  # merged into 137 dt
            "past_T": [0.0, 5.0],
            "two_leaders": [0.0, 0.4, on_grid, 2.2],
            "steps+sine": [0.0, 0.4, 1.3, 2.9],
        }[case]
        signals = {first: PiecewiseConstantSignal(pieces, 0.5 - np.arange(len(pieces))[:, None])}
        if case == "two_leaders":
            signals[second] = PiecewiseConstantSignal([0.0, 0.4, 1.1, 2.95],
                                                      [[0.3], [-1.2], [0.9], [2.0]])
        omega, phase = 1.7, 0.4
        if case == "steps+sine":
            signals[second] = SinusoidSignal([0.8], omega, phase)
        dim = M.shape[0]
        base = np.zeros((dim + 3, dim + 3))  # [y; 1; sin; cos]
        base[:dim, :dim], base[:dim, dim] = M, c
        base[dim + 1, dim + 2], base[dim + 2, dim + 1] = omega, -omega
        if case == "steps+sine":
            base[:dim, dim + 1] = G[second] @ [0.8]

        rng = np.random.default_rng(4)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=T, dt=dt)
        assert tr.metadata["integrator"] == "expm"
        times = tr.times
        if case == "near_grid":
            assert on_grid in times and not any(0.0 < t - on_grid < 1e-9 for t in times)
        y0 = np.concatenate([x0[i] for i in order])
        z = np.concatenate([y0, [1.0, np.sin(phase), np.cos(phase)]])
        exact = [z[:dim]]
        held = None
        for a, b in zip(times[:-1], times[1:]):
            # the inputs on this step: their values at its midpoint
            u = {s: sig.value(0.5 * (a + b)) for s, sig in signals.items()
                 if isinstance(sig, PiecewiseConstantSignal)}
            if held is None or any(not np.array_equal(u[s], held[s]) for s in u):
                held, start, z_start = u, a, z
                A = base.copy()
                for s, v in u.items():
                    A[:dim, dim] += G[s] @ v
            z = scipy.linalg.expm((b - start) * A) @ z_start
            exact.append(z[:dim])
        exact = np.array(exact)
        sim = np.hstack([tr.states[i] for i in order])
        assert np.max(np.abs(sim - exact)) <= 1e-12 * np.max(np.abs(exact))

    @pytest.mark.parametrize("signal,integrator", [
        (None, "expm"),
        (ZeroSignal(1), "expm"),
        (ConstantSignal([0.5]), "expm"),
        (SinusoidSignal([0.5], omega=2.0), "expm"),
        (_NoGenerator([0.0, 0.4], [[1.0], [-1.0]]), "rk4"),
        (_NoGenerator([0.0], [[1.0]]), "rk4"),  # no breakpoint
        (_NoGenerator([0.0, 5.0], [[1.0], [-1.0]]), "rk4"),  # breakpoint past T
        (PiecewiseConstantSignal([0.0, 0.4], [[1.0], [-1.0]]), "expm"),
        (PiecewiseConstantSignal([0.0], [[1.0]]), "expm"),
        (PiecewiseConstantSignal([0.0, 5.0], [[1.0], [-1.0]]), "expm"),
    ])
    def test_integrator_follows_the_input(self, chain, chain_decomp, chain_ctrl,
                                          signal, integrator):
        x0 = {i: np.ones(2) for i in chain.nodes}
        signals = None if signal is None else {1: signal}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, signals=signals, T=1.0)
        assert tr.metadata["integrator"] == integrator
        # one time-contiguous slab; states[i] views agent i's (n, steps) block
        slab = tr.states[1].base
        assert slab.flags.c_contiguous and slab.shape == (3, 2, len(tr.times))
        assert all(tr.states[i].base is slab and tr.states[i].T.flags.c_contiguous
                   and np.shares_memory(tr.states[i], slab[k])
                   for k, i in enumerate(chain_decomp.renumbering))

    def test_piecewise_signal_steps_align_to_breakpoints(self):
        # one stable controlled leader under a discontinuous input; the
        # segment-exact solution is the oracle
        A = np.array([[-1.0, 0.5], [0.0, -2.0]])
        B = np.array([[1.0], [1.0]])
        spec = FormationSpec(n=2, m=1, agents=(AgentDynamics(A=A, B=B),), edges=())
        dec = decompose(spec)
        ctrl = ControllerSet(n=2, m=1, followers={})
        sig = PiecewiseConstantSignal([0.0, 0.737, 1.5], [[1.0], [-2.0], [0.3]])
        x0 = np.array([0.2, -0.1])
        tr = simulate(spec, dec, ctrl, {1: x0}, signals={1: sig}, T=2.0, dt=1e-2)

        x = x0.copy()
        prev = 0.0
        for b, u in ((0.737, 1.0), (1.5, -2.0), (2.0, 0.3)):
            h = b - prev
            E = scipy.linalg.expm(h * A)
            x = E @ x + np.linalg.solve(A, (E - np.eye(2)) @ (B @ [u])).ravel()
            prev = b
        assert np.linalg.norm(tr.states[1][-1] - x) <= 1e-8
        assert any(abs(t - 0.737) < 1e-12 for t in tr.times)

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_matches_the_pointwise_construction(self, seed):
        # the loop that built the grid before it was vectorized: the points
        # k * dt, T, the breakpoints, and a point within resolution of the
        # last point kept dropped
        from formstab.simulation import _build_grid, _grid_resolution

        def by_loop(T, dt, breakpoints):
            n_full = int(math.floor(T / dt + 1e-12))
            times = [k * dt for k in range(n_full + 1)]
            if T - times[-1] > _grid_resolution(T):
                times.append(T)
            times.extend(breakpoints)
            times = sorted(set(times))
            out = [times[0]]
            for t in times[1:]:
                if t - out[-1] > _grid_resolution(T):
                    out.append(t)
            out[-1] = min(out[-1], T)
            return np.asarray(out)

        rng = np.random.default_rng(seed)
        T = float(rng.choice([1.0, 3.0, 20.0]))
        dt = float(rng.choice([1e-2, 7e-3, 4.46e-3]))
        res = 1e-12 * T
        grid = np.arange(int(T / dt)) * dt
        breaks = list(rng.uniform(0.0, T, 30))
        breaks += list(rng.choice(grid, 10) + rng.uniform(-2.0, 2.0, 10) * res)  # near grid points
        breaks += [breaks[0] + 0.6 * res, breaks[0] + 1.2 * res, breaks[1] + 0.5 * res]  # chains
        breaks += [T - 0.5 * res, T - 3.0 * res, 0.5 * res]
        breaks = [b for b in breaks if 0.0 < b < T]
        for points in ([], breaks):
            new, old = _build_grid(T, dt, points), by_loop(T, dt, points)
            assert new.tobytes() == old.tobytes()

    def test_zero_leader_inputs_are_filled_without_evaluating_the_signal(
        self, chain, chain_decomp, chain_ctrl, monkeypatch
    ):
        calls = []
        original = ZeroSignal.value

        def counting(sig, t):
            calls.append(t)
            return original(sig, t)

        monkeypatch.setattr(ZeroSignal, "value", counting)
        x0 = {i: np.ones(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)
        assert calls == []
        # as one evaluation per grid point gave it
        pointwise = np.array([original(tr.signals[1], t) for t in tr.times])
        assert tr.inputs[1].tobytes() == pointwise.tobytes()

    def test_rejects_signal_on_follower(self, chain, chain_decomp, chain_ctrl):
        with pytest.raises(ValueError):
            simulate(chain, chain_decomp, chain_ctrl,
                     {i: np.zeros(2) for i in chain.nodes},
                     signals={2: ConstantSignal([1.0])}, T=1.0)

    @pytest.mark.parametrize("sig", [
        ConstantSignal([1.0, 2.0]),
        PiecewiseConstantSignal([0.0, 0.5], [[1.0, 2.0], [0.0, 1.0]]),
    ], ids=["constant", "piecewise"])
    def test_rejects_signal_of_the_wrong_width(self, chain, chain_decomp, chain_ctrl, sig):
        match = r"leader 1 has values of shape \(2,\), expected \(1,\)"
        with pytest.raises(ValueError, match=match):
            simulate(chain, chain_decomp, chain_ctrl,
                     {i: np.zeros(2) for i in chain.nodes}, signals={1: sig}, T=1.0)

    def test_stacked_system_is_block_lower_triangular(self, good_triangle):
        # coupling only reaches downward in level order
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)
        ctrl = synthesize(good_triangle, dec, rep)
        M = _closed_loop_blocks(good_triangle, dec, ctrl)[0]
        n, pos = good_triangle.n, dec.position
        for i in dec.renumbering:
            for j in dec.renumbering:
                if pos[j] > pos[i]:
                    block = M[n * pos[i] : n * pos[i] + n, n * pos[j] : n * pos[j] + n]
                    assert not block.any()


@pytest.fixture(scope="module")
def cascade():
    spec = random_feasible_formation(rng=4, max_nodes=50, max_n=4, max_m=2,
                                     multi_leader_prob=0)
    dec = decompose(spec)
    return spec, dec, synthesize(spec, dec, check(spec, dec))


class TestTraceStorage:
    """The trace stores its states once; everything else derives from them."""

    def test_free_errors_is_no_field(self):
        # always None: a class attribute, which no caller can set
        trace_cls = formstab.simulation.SimulationTrace
        assert "free_errors" not in {f.name for f in dataclasses.fields(trace_cls)}
        assert trace_cls.free_errors is None

    def test_memory_stays_near_the_state_bytes(self, cascade):
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        warm = simulate(spec, dec, ctrl, x0, T=1.0)  # first-call allocations
        fit_envelope(warm, dec)
        error_dynamics_check(warm, spec, dec, ctrl)
        del warm
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tr = simulate(spec, dec, ctrl, x0, T=5.0)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            fit_envelope(tr, dec)
            error_dynamics_check(tr, spec, dec, ctrl)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        state_bytes = sum(x.nbytes for x in tr.states.values())
        assert held <= 2 * state_bytes
        assert peak <= 4 * state_bytes

    def test_rebuilt_trace_follows_its_states(self, tmp_path):
        # every reader of the edge errors reads the states the trace holds,
        # not those of the trace it was rebuilt from
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(5)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, T=2.0)
        assert len(tr.errors) == len(spec.edges)  # built on the old states
        new = {i: x + rng.standard_normal(x.shape) for i, x in tr.states.items()}
        rebuilt = dataclasses.replace(tr, states=new)
        z = {(i, j): new[i] - new[j] + spec.displacement(i, j) for i, j in spec.edge_keys}
        plain = types.SimpleNamespace(times=tr.times, signals=tr.signals, states=new, errors=z)

        assert list(rebuilt.errors) == list(spec.edge_keys)
        for e, z_e in z.items():
            assert rebuilt.errors[e].tobytes() == z_e.tobytes()
        write_trace_csv(rebuilt, dec, tmp_path / "rebuilt.csv")
        columns = _csv_columns(tmp_path / "rebuilt.csv")
        for (i, j), z_e in z.items():
            for k in range(spec.n):
                assert columns[f"z_{i}_{j}[{k + 1}]"].tobytes() == z_e[:, k].tobytes()
        for i, j, s in _sibling_pairs(spec, dec):
            got = chain_residual(rebuilt, dec, (i, j), s)
            assert got.tobytes() == _chain_residual_by_sums(plain, dec, (i, j), s).tobytes()
        z0 = math.sqrt(sum(float(z_e[0] @ z_e[0]) for z_e in z.values()))
        assert rebuilt.initial_error_norm() == z0 != tr.initial_error_norm()
        fit = fit_envelope(rebuilt, dec)
        assert fit.z0_norm == z0
        assert fit.max_violation == _max_violation_by_norms(plain, dec, fit)

    def test_errors_hold_no_reference_to_the_trace(self):
        # a trace whose errors were read is freed by reference counting, with
        # no cycle for the cyclic collector to find
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        tr = simulate(spec, dec, ctrl, {i: np.ones(spec.n) for i in spec.nodes}, T=1.0)
        assert tr.errors is tr.errors  # built once
        assert np.isfinite(next(iter(tr.errors.values()))).all()
        freed = weakref.ref(tr)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del tr
            assert freed() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("case", ["cascade", "forced_fork"])
    def test_layout_does_not_change_numbers(self, cascade, tmp_path, case):
        # the same trace with C-contiguous state copies and stored inputs
        if case == "cascade":
            spec, dec, ctrl = cascade
            signals = None
        else:
            spec, dec, rep = _stable_fork()
            ctrl = synthesize(spec, dec, rep)
            signals = {s: SinusoidSignal([0.8], omega=1.7, phase=0.3)
                       for s in sorted(dec.leaders)}
        rng = np.random.default_rng(1)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=5.0)
        assert isinstance(tr.errors, Mapping) and isinstance(tr.inputs, Mapping)
        assert list(tr.errors) == [e.key for e in spec.edges]
        with pytest.raises(TypeError):
            tr.errors[spec.edges[0].key] = 0.0
        with pytest.raises(KeyError):
            tr.errors[(0, 0)]
        plain = dataclasses.replace(
            tr,
            states={i: np.ascontiguousarray(x) for i, x in tr.states.items()},
            inputs=dict(tr.inputs),
        )
        for k, z in tr.errors.items():
            assert plain.errors[k].tobytes() == np.ascontiguousarray(z).tobytes()
        assert fit_envelope(tr, dec) == fit_envelope(plain, dec)
        write_trace_csv(tr, dec, tmp_path / "derived.csv")
        write_trace_csv(plain, dec, tmp_path / "stored.csv")
        assert (tmp_path / "derived.csv").read_bytes() == (tmp_path / "stored.csv").read_bytes()


class _Saturating(LeaderSignal):
    """u(t) = c (1 - e^{-t}): a custom signal with only the scalar methods,
    and no generator, so `simulate` takes RK4 for it."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)
        self.calls = 0

    def value(self, t):
        self.calls += 1
        return self.c * -math.expm1(-t)

    def running_sup(self, t):
        return float(np.linalg.norm(self.c)) * -math.expm1(-max(t, 0.0))


class _ScalarOnly(LeaderSignal):
    """Forwards the scalar methods and the breakpoints of a signal, and
    nothing else: no generator and no grid-wide methods of its own."""

    def __init__(self, sig):
        self.sig = sig

    def value(self, t):
        return self.sig.value(t)

    def left_value(self, t):
        return self.sig.left_value(t)

    def running_sup(self, t):
        return self.sig.running_sup(t)

    def breakpoints(self, T):
        return self.sig.breakpoints(T)


def _signal_kinds(m):
    return {
        "zero": ZeroSignal(m),
        "constant": ConstantSignal(np.linspace(0.5, -0.4, m)),
        "sinusoid": SinusoidSignal(np.linspace(0.8, -0.3, m), omega=-1.7, phase=0.3),
        "piecewise": PiecewiseConstantSignal(
            [0.0, 0.3, 1.1, 2.05], np.outer([0.4, -1.0, 0.7, 0.2], np.ones(m))),
        "custom": _Saturating(np.linspace(0.6, 0.1, m)),
    }


class TestLeaderInputs:
    """Leader inputs are sampled from their signals when read."""

    @pytest.mark.parametrize("kind", ["zero", "constant", "sinusoid", "piecewise", "custom"])
    def test_reads_match_the_array_a_run_once_stored(self, kind):
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        first, second = sorted(dec.leaders)
        sig = _signal_kinds(spec.m)[kind]
        rng = np.random.default_rng(3)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals={first: sig}, T=2.5)
        # the arrays `simulate` stored per leader before inputs were read lazily
        stored = {first: np.array([sig.value(t) for t in tr.times]),
                  second: np.zeros((len(tr.times), spec.m))}
        for a, old in stored.items():
            got = tr.inputs[a]
            assert got.shape == old.shape
            assert got.tobytes() == old.tobytes()
            # the interior rows `error_dynamics_check` samples
            interior = tr.signals[a].sample(tr.times[1:-1])
            assert interior.tobytes() == old[1:-1].tobytes()

    def test_custom_signal_runs_through_the_scalar_methods(self):
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        sig = {s: _Saturating([0.6 + 0.2 * k]) for k, s in enumerate(sorted(dec.leaders))}
        rng = np.random.default_rng(5)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals=sig, T=4.0)
        assert tr.metadata["integrator"] == "rk4"
        fit = fit_envelope(tr, dec)
        assert fit.passed and any(b > 0 for b in fit.beta.values())
        defect = error_dynamics_check(tr, spec, dec, ctrl)
        dt = tr.metadata["dt"]
        peak = max(float(np.max(np.abs(x))) for x in tr.states.values())
        assert defect <= 1e3 * dt * dt * (1.0 + peak)
        assert abs(defect - _error_dynamics_per_edge(tr, spec, dec, ctrl)) <= 1e-12 * (1.0 + peak)
        assert all(s.calls > len(tr.times) for s in sig.values())

    @pytest.mark.parametrize("kind", ["sinusoid", "piecewise"])
    def test_rk4_run_with_a_builtin_signal_matches_its_scalar_methods(self, kind):
        # a custom signal without a generator makes the run take RK4, which
        # evaluates the built-in on the other leader through its scalar
        # methods; wrapping it so that only those are left changes no bit
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        first, second = sorted(dec.leaders)
        kinds = _signal_kinds(spec.m)
        custom, builtin = kinds["custom"], kinds[kind]
        rng = np.random.default_rng(11)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        runs = [simulate(spec, dec, ctrl, x0, signals={first: custom, second: sig}, T=2.5)
                for sig in (builtin, _ScalarOnly(builtin))]
        assert [tr.metadata["integrator"] for tr in runs] == ["rk4", "rk4"]
        assert runs[0].times.tobytes() == runs[1].times.tobytes()
        for i in spec.nodes:
            assert runs[0].states[i].tobytes() == runs[1].states[i].tobytes()
        assert runs[0].inputs[second].tobytes() == runs[1].inputs[second].tobytes()
        assert fit_envelope(runs[0], dec) == fit_envelope(runs[1], dec)

    @pytest.mark.parametrize("pair", [("constant", "sinusoid"), ("piecewise", "zero")])
    def test_builtin_signals_take_no_scalar_calls(self, monkeypatch, pair):
        spec = random_feasible_formation(rng=0, max_nodes=12, multi_leader_prob=1.0)
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        kinds = _signal_kinds(spec.m)
        signals = {a: kinds[kind] for a, kind in zip(sorted(dec.leaders), pair)}
        rng = np.random.default_rng(8)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        calls = []
        for cls in (ZeroSignal, ConstantSignal, SinusoidSignal, PiecewiseConstantSignal):
            for name in ("value", "left_value", "running_sup"):
                original = getattr(cls, name)
                monkeypatch.setattr(
                    cls, name,
                    lambda sig, t, _f=original, _n=name: calls.append(_n) or _f(sig, t),
                )
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=3.0)
        assert tr.metadata["integrator"] == "expm"
        assert calls == []
        assert fit_envelope(tr, dec).passed
        assert calls == []


class TestEnvelope:
    def test_decay_run_passes_with_positive_rates(
        self, chain, chain_decomp, chain_ctrl
    ):
        rng = np.random.default_rng(42)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=6.0)
        fit = fit_envelope(tr, chain_decomp)
        assert fit.passed and not fit.degenerate
        assert all(a is not None and a > 0 for a in fit.alpha.values())
        assert all(b == 0.0 for b in fit.beta.values())
        assert fit.max_violation <= fit.tolerance

    def test_identically_zero_trace_is_vacuous(self, chain, chain_decomp, chain_ctrl):
        tr = simulate(chain, chain_decomp, chain_ctrl,
                      ideal_initial_states(chain_decomp, np.zeros(2)), T=5.0)
        fit = fit_envelope(tr, chain_decomp)
        assert fit.passed and fit.degenerate
        assert all(a is None for a in fit.alpha.values())

    def test_zero_input_run_evaluates_no_running_sup(
        self, chain, chain_decomp, chain_ctrl, monkeypatch
    ):
        calls = []
        original = ZeroSignal.running_sup

        def counting(sig, t):
            calls.append(t)
            return original(sig, t)

        rng = np.random.default_rng(42)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=6.0)
        monkeypatch.setattr(ZeroSignal, "running_sup", counting)
        fit = fit_envelope(tr, chain_decomp)
        assert fit.passed and all(b == 0.0 for b in fit.beta.values())
        assert calls == []

    def test_lone_leader_under_input_has_nothing_to_bound(self):
        spec, dec, ctrl = _single_agent([[-1.0]])
        tr = simulate(spec, dec, ctrl, {1: np.ones(1)},
                      signals={1: ConstantSignal([1.0])}, T=1.0)
        fit = fit_envelope(tr, dec)
        assert fit.passed and not fit.degenerate and fit.C == {}

    @pytest.mark.parametrize("x0_seed", [0, 1])
    def test_cascade_transient_peaking_mid_horizon_passes(self, cascade, x0_seed):
        # l=45, depth 24: the cascaded errors peak near t=11 and then decay
        # slowly; x0 drawn as `formstab simulate --seed` draws it
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(x0_seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        fit = fit_envelope(simulate(spec, dec, ctrl, x0, T=20.0), dec)
        assert fit.passed
        assert fit.max_violation <= fit.tolerance

    def test_destabilized_controller_fails(self, chain, chain_decomp, chain_ctrl):
        bad = _destabilized(chain, chain_decomp, chain_ctrl)
        rng = np.random.default_rng(42)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, bad, x0, T=6.0)
        fit = fit_envelope(tr, chain_decomp)
        assert not fit.passed
        assert fit.max_violation > fit.tolerance

    def test_trace_past_the_square_root_of_the_range_fails_with_its_violation(self):
        # each own gain S replaced by 5 - S: the states grow past 1e154, so
        # the squares of the edge and state norms overflow, but not the norms
        spec = demo_instance("triangle")
        dec = decompose(spec)
        doc = controller_to_dict(synthesize(spec, dec, check(spec, dec)))
        for fc in doc["followers"].values():
            fc["S"] = (5.0 - np.asarray(fc["S"])).tolist()
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, controller_from_dict(doc), x0, T=20.0)
        assert max(float(np.max(np.abs(x))) for x in tr.states.values()) > 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_envelope(tr, dec)
        assert not fit.passed
        assert 1e150 < fit.max_violation < math.inf
        with np.errstate(over="ignore"):
            assert repr(fit.max_violation) == repr(_max_violation_by_norms(tr, dec, fit))

    def test_violation_past_the_square_root_of_the_range_fails_the_fit(self):
        # at T=180 the squared state norm of the unstable leader overflows on
        # the last grid points, where it made the floor inf
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, T=180.0)
        assert float(np.max(np.abs(tr.states[1][-1]))) > 1e155
        assert fit_envelope(tr, dec).passed
        states = {i: x.copy() for i, x in tr.states.items()}
        states[3][-1] += 1e150
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_envelope(dataclasses.replace(tr, states=states), dec)
        assert not fit.passed and 1e149 < fit.max_violation < math.inf

    def test_forced_run_bounds_input_contribution(self):
        # stable two-leader instance driven by sinusoids: the bound's
        # input term must absorb the steady response
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        rng = np.random.default_rng(7)
        x0 = {i: rng.standard_normal(2) for i in spec.nodes}
        sig = {s: SinusoidSignal([0.8], omega=1.7, phase=0.3) for s in sorted(dec.leaders)}
        tr = simulate(spec, dec, ctrl, x0, signals=sig, T=12.0)
        fit = fit_envelope(tr, dec)
        assert fit.passed
        assert all(a is not None and a > 0 for a in fit.alpha.values())
        assert any(b > 0 for b in fit.beta.values())

    def test_forced_run_superposes_free_and_input_responses(self):
        # one propagation is linear: a forced run's errors are the
        # zero-input run's plus those of the forced run from ideal states
        spec = random_feasible_formation(rng=3, max_nodes=12, multi_leader_prob=1.0)
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(11)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        first, *rest = sorted(dec.leaders)
        sig = {first: ConstantSignal(np.full(spec.m, -0.7))}
        sig.update({s: SinusoidSignal(np.ones(spec.m), omega=1.1) for s in rest})
        forced = simulate(spec, dec, ctrl, x0, signals=sig, T=4.0)
        free = simulate(spec, dec, ctrl, x0, T=4.0)
        driven = simulate(spec, dec, ctrl, ideal_initial_states(dec, np.zeros(spec.n)),
                          signals=sig, T=4.0)
        assert np.array_equal(forced.times, free.times)
        assert np.array_equal(forced.times, driven.times)
        for key, z in forced.errors.items():
            gap = np.max(np.abs(free.errors[key] + driven.errors[key] - z))
            assert gap <= 1e-12 * np.max(np.abs(z))
        assert any(np.max(np.abs(z)) > 1e-3 for z in driven.errors.values())
        assert forced.free_errors is None

    def test_forced_run_from_ideal_states_costs_only_the_input_term(self):
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        sig = {s: ConstantSignal([0.5]) for s in sorted(dec.leaders)}
        tr = simulate(spec, dec, ctrl, ideal_initial_states(dec, np.zeros(2)),
                      signals=sig, T=8.0)
        fit = fit_envelope(tr, dec)
        assert fit.passed and not fit.degenerate
        assert fit.z0_norm <= 1e-12


def _stable_fork():
    base = two_leader_fork()
    # same instance with agreeing displacements: stable multi-leader case
    spec = FormationSpec(
        n=2, m=1, agents=base.agents,
        edges=(Edge(3, 1, [2.0, 0.0]), Edge(3, 2, [2.0, 0.0])),
    )
    dec = decompose(spec)
    rep = check(spec, dec)
    assert rep.stable
    return spec, dec, rep


class TestChainResidual:
    def test_residual_past_the_square_root_of_the_range_is_finite(self):
        # the destabilized triangle at T=30: states up to 2e238, residuals
        # up to 2e187, whose squares overflow
        spec, dec, bad = _destabilized_triangle()
        x0 = {i: np.random.default_rng(0).standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, bad, x0, T=30.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resid = chain_residual(tr, dec, (3, 1), 2)
        assert np.isfinite(resid).all() and resid.max() > 1e154
        with np.errstate(over="ignore"):
            assert resid.tobytes() == _chain_residual_by_sums(tr, dec, (3, 1), 2).tobytes()

    def test_triangle_identity_holds(self, good_triangle):
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)
        ctrl = synthesize(good_triangle, dec, rep)
        rng = np.random.default_rng(9)
        x0 = {i: rng.standard_normal(2) for i in good_triangle.nodes}
        tr = simulate(good_triangle, dec, ctrl, x0, T=6.0)
        resid = chain_residual(tr, dec, (3, 1), 2)
        assert resid.shape == tr.times.shape
        assert float(resid.max()) <= 1e-9

    def test_distinct_leaders_term(self):
        spec, dec, rep = _stable_fork()
        ctrl = synthesize(spec, dec, rep)
        rng = np.random.default_rng(11)
        x0 = {i: rng.standard_normal(2) for i in spec.nodes}
        sig = {s: SinusoidSignal([0.6], omega=2.0) for s in sorted(dec.leaders)}
        tr = simulate(spec, dec, ctrl, x0, signals=sig, T=6.0)
        resid = chain_residual(tr, dec, (3, 1), 2)
        assert float(resid.max()) <= 1e-9

    def test_in_tree_has_no_sibling_parents(self, chain, chain_decomp, chain_ctrl):
        tr = simulate(chain, chain_decomp, chain_ctrl,
                      {i: np.zeros(2) for i in chain.nodes}, T=1.0)
        with pytest.raises(NotSiblingParentsError):
            chain_residual(tr, chain_decomp, (3, 2), 1)

    def test_identity_checks_the_displacements_not_the_trajectory(self, cascade):
        # a trace derives its errors from its states, z_ij = x_i - x_j + d_ij,
        # so the chain sums telescope whatever the states are: on states
        # overwritten with noise the residual stays at roundoff, while the
        # error-dynamics check, which does test the dynamics, fails
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, T=5.0)
        peak = max(float(np.max(np.abs(x))) for x in tr.states.values())
        for x in tr.states.values():
            x[...] = rng.uniform(-peak, peak, x.shape)
        pairs = _sibling_pairs(spec, dec)
        assert len(pairs) >= 10
        floor = 64.0 * np.finfo(float).eps * (1.0 + peak)
        for i, j, s in pairs:
            assert float(np.max(chain_residual(tr, dec, (i, j), s))) <= floor
        assert error_dynamics_check(tr, spec, dec, ctrl) > 1.0


def _error_dynamics_per_edge(trace, spec, decomp, ctrl):
    """Reference form of `error_dynamics_check`: finite differences of each
    edge error against A_ref z_ij - P_i + P_j - [j leader] B_j u_j."""
    times = trace.times
    A_ref = spec.agent(decomp.renumbering[0]).A
    P = dict.fromkeys(spec.nodes, 0.0)
    for i, fc in ctrl.followers.items():
        Bi = spec.agent(i).B
        P[i] = sum(trace.errors[(i, s)] @ (Bi @ Ks).T for s, Ks in fc.K.items())
    h0 = times[1:-1] - times[:-2]
    h1 = times[2:] - times[1:-1]
    w_prev = (-h1 / (h0 * (h0 + h1)))[:, None]
    w_mid = ((h1 - h0) / (h0 * h1))[:, None]
    w_next = (h0 / (h1 * (h0 + h1)))[:, None]
    worst = 0.0
    for (i, j), z in trace.errors.items():
        rhs = z @ A_ref.T - P[i] + P[j]
        if j in decomp.leaders:
            rhs = rhs - trace.inputs[j] @ spec.agent(j).B.T
        dzdt = w_prev * z[:-2] + w_mid * z[1:-1] + w_next * z[2:]
        worst = max(worst, float(np.max(np.linalg.norm(dzdt - rhs[1:-1], axis=1))))
    return worst


def _error_dynamics_every_term(trace, spec, decomp, ctrl):
    """`error_dynamics_check` with every term, before it skipped the gains
    K_as that are exactly zero and the leaders whose input is zero; each
    norm as `_row_norms` takes it."""
    times = trace.times
    A_ref = spec.agent(decomp.renumbering[0]).A
    h0 = times[1:-1] - times[:-2]
    h1 = times[2:] - times[1:-1]
    w_prev = -h1 / (h0 * (h0 + h1))
    w_mid = (h1 - h0) / (h0 * h1)
    w_next = h0 / (h1 * (h0 + h1))
    Q = {}
    for a in spec.nodes:
        x = trace.states[a].T
        q = w_prev * x[:, :-2] + w_mid * x[:, 1:-1] + w_next * x[:, 2:]
        q -= A_ref @ x[:, 1:-1]
        fc = ctrl.followers.get(a)
        if fc is not None:
            Ba = spec.agent(a).B
            for s, Ks in fc.K.items():
                q += (Ba @ Ks) @ trace.errors[(a, s)][1:-1].T
        if a in decomp.leaders:
            q -= spec.agent(a).B @ trace.inputs[a][1:-1].T
        Q[a] = q
    worst = 0.0
    for e in spec.edges:
        defect = _row_norms((Q[e.i] - Q[e.j] - (A_ref @ e.d)[:, None]).T)
        worst = max(worst, float(np.max(defect)))
    return worst


class TestErrorDynamics:
    @pytest.mark.parametrize("forced", [False, True])
    def test_skipping_zero_terms_keeps_the_value(self, forced):
        spec = random_feasible_formation(rng=4, max_nodes=22, multi_leader_prob=1.0)
        dec = decompose(spec)
        rep = check(spec, dec)
        controllers = {
            "parent-only": synthesize(spec, dec, rep),
            "uniform": synthesize(spec, dec, rep, strategy=UNIFORM),
            "state-only": state_only_controller(spec, dec, rep),
        }
        first, second = sorted(dec.leaders)
        signals = None
        if forced:  # the second leader keeps the zero input
            signals = {first: SinusoidSignal(np.linspace(0.5, -0.7, spec.m), 1.3, 0.4)}
        rng = np.random.default_rng(2)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        zero_gains = 0
        for ctrl in controllers.values():
            zero_gains += sum(not Ks.any() for fc in ctrl.followers.values()
                              for Ks in fc.K.values())
            tr = simulate(spec, dec, ctrl, x0, signals=signals, T=2.0)
            got = error_dynamics_check(tr, spec, dec, ctrl)
            assert got == _error_dynamics_every_term(tr, spec, dec, ctrl)
        assert zero_gains > 0

    def test_nan_defect_reads_as_infinite(self):
        # max(worst, sqrt(nan)) kept the old worst, so NaN states of a
        # follower gave a finite defect while the envelope reported inf
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, T=1.0)
        states = {i: x.copy() for i, x in tr.states.items()}
        states[3][...] = np.nan
        broken = dataclasses.replace(tr, states=states)
        assert math.isfinite(error_dynamics_check(tr, spec, dec, ctrl))
        assert error_dynamics_check(broken, spec, dec, ctrl) == math.inf
        assert fit_envelope(broken, dec).max_violation == math.inf

    def test_controller_that_does_not_fit_is_named(self, chain, chain_decomp, chain_ctrl):
        tr = simulate(chain, chain_decomp, chain_ctrl, {i: np.ones(2) for i in chain.nodes},
                      T=1.0)
        fc = chain_ctrl.followers[2]
        bad = dataclasses.replace(chain_ctrl, followers={
            **chain_ctrl.followers, 2: dataclasses.replace(fc, S=np.zeros((1, 3)))})
        with pytest.raises(ValueError, match=r"^follower 2: S has shape \(1, 3\)$"):
            error_dynamics_check(tr, chain, chain_decomp, bad)

    @pytest.mark.parametrize("case", ["chain", "two_parent_triangle", "forced_fork",
                                      "random_sine"])
    def test_per_agent_form_matches_the_per_edge_form(
        self, chain, chain_decomp, chain_ctrl, good_triangle, case
    ):
        signals = None
        if case == "chain":
            spec, dec, ctrl = chain, chain_decomp, chain_ctrl
        else:
            if case == "two_parent_triangle":
                spec = good_triangle
                dec = decompose(spec)
                rep = check(spec, dec)
            elif case == "forced_fork":
                spec, dec, rep = _stable_fork()
            else:  # l=20, two leaders, 74 edges
                spec = random_feasible_formation(rng=4, max_nodes=22, multi_leader_prob=1.0)
                dec = decompose(spec)
                rep = check(spec, dec)
            ctrl = synthesize(spec, dec, rep)
            if case != "two_parent_triangle":
                signals = {s: SinusoidSignal(np.linspace(0.5, -0.7, spec.m), 1.3 + k, 0.4)
                           for k, s in enumerate(sorted(dec.leaders))}
        rng = np.random.default_rng(6)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=3.0)
        peak = max(float(np.max(np.linalg.norm(x, axis=1))) for x in tr.states.values())
        got = error_dynamics_check(tr, spec, dec, ctrl)
        assert abs(got - _error_dynamics_per_edge(tr, spec, dec, ctrl)) <= 1e-12 * (1.0 + peak)

    def _trace(self, chain, chain_decomp, chain_ctrl, dt):
        rng = np.random.default_rng(0)
        x0 = {
            i: -chain_decomp.cumulative_offset[i] + 0.1 * rng.standard_normal(2)
            for i in chain.nodes
        }
        return simulate(chain, chain_decomp, chain_ctrl, x0, T=2.0, dt=dt)

    def test_defect_small_and_second_order(self, chain, chain_decomp, chain_ctrl):
        d1 = error_dynamics_check(
            self._trace(chain, chain_decomp, chain_ctrl, 1e-3),
            chain, chain_decomp, chain_ctrl,
        )
        d2 = error_dynamics_check(
            self._trace(chain, chain_decomp, chain_ctrl, 5e-4),
            chain, chain_decomp, chain_ctrl,
        )
        assert d1 <= 1e-4
        assert d1 / d2 >= 3.5

    @pytest.mark.parametrize("case", ["two_parent_triangle", "forced_fork"])
    def test_second_order_on_multi_parent_and_forced(self, good_triangle, case):
        # follower 3 of the triangle has parents 1 and 2 (2 is a follower);
        # the fork's follower tracks two leaders driven by sinusoids
        if case == "two_parent_triangle":
            spec, dec = good_triangle, decompose(good_triangle)
            rep, signals = check(spec, dec), None
        else:
            spec, dec, rep = _stable_fork()
            signals = {s: SinusoidSignal([0.7], omega=1.5, phase=0.2)
                       for s in sorted(dec.leaders)}
        ctrl = synthesize(spec, dec, rep)
        rng = np.random.default_rng(0)
        x0 = {i: -dec.cumulative_offset[i] + 0.1 * rng.standard_normal(spec.n)
              for i in spec.nodes}
        d1, d2 = (
            error_dynamics_check(
                simulate(spec, dec, ctrl, x0, signals=signals, T=2.0, dt=dt),
                spec, dec, ctrl,
            )
            for dt in (1e-3, 5e-4)
        )
        assert d1 <= 1e-4
        assert d1 / d2 >= 3.5

    def test_two_point_grid_has_no_interior_defect(self):
        # T - dt is below the grid resolution, so T adds no point
        spec, dec, ctrl = _single_agent([[-0.5, 0.0], [0.0, -0.25]])
        tr = simulate(spec, dec, ctrl, {1: np.ones(2)}, T=1.0, dt=1.0 - 1e-13)
        assert tr.times.tolist() == [0.0, 1.0 - 1e-13]
        assert error_dynamics_check(tr, spec, dec, ctrl) == 0.0

    def test_defect_past_the_square_root_of_the_range_is_finite(self):
        # the destabilized triangle at T=20: states up to 7e158, defects
        # whose squares overflow; the norm is taken scaled, as the fit takes it
        spec, dec, bad = _destabilized_triangle()
        x0 = {i: np.random.default_rng(0).standard_normal(spec.n) for i in spec.nodes}
        tr = simulate(spec, dec, bad, x0, T=20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            defect = error_dynamics_check(tr, spec, dec, bad)
        assert 1e154 < defect < math.inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert defect == _error_dynamics_every_term(tr, spec, dec, bad)

    def test_zero_trace_zero_defect(self, chain, chain_decomp, chain_ctrl):
        tr = simulate(chain, chain_decomp, chain_ctrl,
                      ideal_initial_states(chain_decomp, np.zeros(2)), T=1.0)
        assert error_dynamics_check(tr, chain, chain_decomp, chain_ctrl) <= 1e-12


def _csv_columns(path):
    """{header name: column} of a trace CSV, each float parsed back."""
    with open(path) as fh:
        header, *lines = fh.read().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return dict(zip(header.split(","), rows.T))


class TestCsvExport:
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(["zero", "constant", "sinusoid"]))
    @settings(max_examples=6, deadline=None)
    def test_error_columns_are_the_state_differences(self, seed, kind):
        spec = random_feasible_formation(rng=seed, max_nodes=8, multi_leader_prob=0.5)
        dec = decompose(spec)
        rep = check(spec, dec)
        assume(rep.stable)
        ctrl = synthesize(spec, dec, rep)
        rng = np.random.default_rng(seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        signals = {s: _signal_kinds(spec.m)[kind] for s in sorted(dec.leaders)}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=0.5)
        assert list(tr.errors) == list(spec.edge_keys)
        with tempfile.TemporaryDirectory() as folder:
            for workers in (1, 2, 3):
                path = os.path.join(folder, f"trace{workers}.csv")
                with mock.patch.object(formstab.simulation, "_csv_workers",
                                       lambda _, w=workers: w):
                    write_trace_csv(tr, dec, path)
                columns = _csv_columns(path)
                for e in spec.edges:
                    for k in range(spec.n):
                        z = tr.states[e.i][:, k] - tr.states[e.j][:, k] + e.d[k]
                        assert columns[f"z_{e.i}_{e.j}[{k + 1}]"].tobytes() == z.tobytes()

    def test_header_and_determinism(self, tmp_path, chain, chain_decomp, chain_ctrl):
        rng = np.random.default_rng(1)
        x0 = {i: rng.standard_normal(2) for i in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=1.0)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(tr, chain_decomp, p1)
        write_trace_csv(tr, chain_decomp, p2)
        assert p1.read_bytes() == p2.read_bytes()

        lines = p1.read_text().splitlines()
        assert lines[0] == (
            "time,x_1[1],x_1[2],x_2[1],x_2[2],x_3[1],x_3[2],"
            "z_2_1[1],z_2_1[2],z_3_2[1],z_3_2[2]"
        )
        assert len(lines) == len(tr.times) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert np.allclose(first[1:3], tr.states[1][0])
        assert np.allclose(first[7:9], tr.errors[(2, 1)][0])

    @pytest.fixture(scope="class")
    def triangle_traces(self):
        """The bundled triangle at T=20, above the fork threshold, and at a
        horizon of two grid points, fewer rows than workers."""
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(3)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        long = simulate(spec, dec, ctrl, x0, T=20.0)
        tr = simulate(spec, dec, ctrl, x0, T=0.02, dt=0.01)
        short = dataclasses.replace(
            tr, times=tr.times[:2],
            states={i: x[:2] for i, x in tr.states.items()},
        )
        columns = 1 + spec.n * (spec.l + len(spec.edges))
        assert len(long.times) * columns >= 2 * formstab.simulation._CSV_FORK_VALUES
        assert len(short.times) == 2
        return dec, long, short

    def test_bytes_do_not_depend_on_worker_count(self, tmp_path, monkeypatch, triangle_traces):
        dec, long, short = triangle_traces
        for name, tr in (("long", long), ("short", short)):
            written = []
            for workers in (1, 2, 3):
                monkeypatch.setattr(formstab.simulation, "_csv_workers", lambda _, w=workers: w)
                path = tmp_path / f"{name}{workers}.csv"
                write_trace_csv(tr, dec, path)
                written.append(path.read_bytes())
            assert written[0].count(b"\n") == len(tr.times) + 1
            assert written[1] == written[0] and written[2] == written[0]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_worker_without_cpu_affinity(self, tmp_path, monkeypatch, triangle_traces):
        dec, long, _ = triangle_traces
        write_trace_csv(long, dec, tmp_path / "free.csv")
        monkeypatch.delattr(os, "sched_getaffinity")
        assert formstab.simulation._csv_workers(10**9) == 1
        write_trace_csv(long, dec, tmp_path / "one.csv")
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "free.csv").read_bytes()

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_write_reaps_workers_and_leaves_no_file(
            self, tmp_path, monkeypatch, triangle_traces, failing):
        dec, long, _ = triangle_traces
        parent, kernel = os.getpid(), formstab.simulation._edge_tiles

        def kernel_failing_in_one_process(*args, **kwargs):
            if (os.getpid() == parent) == (failing == "parent"):
                raise MemoryError("formatting failed")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(formstab.simulation, "_csv_workers", lambda _: 3)
        monkeypatch.setattr(formstab.simulation, "_edge_tiles", kernel_failing_in_one_process)
        path = tmp_path / "x_trace.csv"
        with pytest.raises(TraceWriteError) as info:
            write_trace_csv(long, dec, path)
        assert isinstance(info.value, OSError)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# The error loop of `fit_envelope` and the array work of the trace checks


def _stable_instances():
    """Stable bundled instances and generated ones with one and with several
    leaders."""
    specs = {name: demo_instance(name) for name in ("example2", "triangle")}
    for prob in (0.0, 1.0):
        for seed in (1, 2, 3):
            specs[f"random{seed}-p{prob:g}"] = random_feasible_formation(
                rng=seed, max_nodes=12, multi_leader_prob=prob)
    return specs


_STABLE = _stable_instances()


def _controllers(spec):
    dec = decompose(spec)
    rep = check(spec, dec)
    assert rep.stable
    ctrls = {"synthesize": synthesize(spec, dec, rep)}
    if rep.condition4.hurwitz.is_hurwitz:  # state-only needs a Hurwitz A_ref
        ctrls["state-only"] = state_only_controller(spec, dec, rep)
    for k, ctrl in enumerate(enumerate_family(spec, dec, rep, count=4)):
        ctrls[f"family{k}"] = ctrl
    return dec, ctrls


def _error_loop(spec, dec, ctrl):
    """The stacked closed loop M and the error loop M_e that `fit_envelope`
    certifies."""
    M = _closed_loop_blocks(spec, dec, ctrl)[0]
    _, M_e, _ = _error_coordinates(M, dec, dec.edge_order([e.key for e in spec.edges]))
    return M, M_e


def _destabilized_triangle():
    """triangle with each own gain S replaced by 5 - S."""
    spec = demo_instance("triangle")
    dec = decompose(spec)
    doc = controller_to_dict(synthesize(spec, dec, check(spec, dec)))
    for fc in doc["followers"].values():
        fc["S"] = (5.0 - np.asarray(fc["S"])).tolist()
    return spec, dec, controller_from_dict(doc)


class TestErrorLoopBlocks:
    """M_e is block-lower-triangular, and its diagonal blocks are M's for
    every agent but the reference leader, so its spectrum is theirs."""

    @pytest.mark.parametrize("name", sorted(_STABLE))
    def test_diagonal_blocks_are_the_closed_loop_blocks(self, name):
        spec = _STABLE[name]
        dec, ctrls = _controllers(spec)
        n, k = spec.n, spec.l - 1
        for ctrl in ctrls.values():
            M, M_e = _error_loop(spec, dec, ctrl)
            blocks = M_e.reshape(k, n, k, n)
            for r in range(k):
                assert not blocks[r, :, r + 1 :, :].any()
                # M_e's block r is agent r + 1 in the renumbering
                p = (r + 1) * n
                assert np.array_equal(blocks[r, :, r, :], M[p : p + n, p : p + n])

    @pytest.mark.parametrize("name", sorted(_STABLE) + ["cascade"])
    def test_block_abscissa_matches_the_dense_one(self, name, cascade):
        if name == "cascade":
            spec, dec, ctrl = cascade
            ctrls = {"synthesize": ctrl}
        else:
            spec = _STABLE[name]
            dec, ctrls = _controllers(spec)
        for ctrl in ctrls.values():
            _, M_e = _error_loop(spec, dec, ctrl)
            dense = spectral_abscissa(M_e)
            blocks = _is_block_triangular_hurwitz(M_e, spec.n, DEFAULT_TOLERANCES)
            assert abs(blocks.spectral_abscissa - dense) <= 1e-10 * abs(dense)
            assert blocks.is_hurwitz == is_hurwitz(M_e).is_hurwitz

    def test_destabilized_loop_fails_the_fit_with_zero_rate(self):
        spec, dec, bad = _destabilized_triangle()
        _, M_e = _error_loop(spec, dec, bad)
        blocks = _is_block_triangular_hurwitz(M_e, spec.n, DEFAULT_TOLERANCES)
        assert not blocks.is_hurwitz and not is_hurwitz(M_e).is_hurwitz
        assert abs(blocks.spectral_abscissa - spectral_abscissa(M_e)) <= (
            1e-10 * abs(blocks.spectral_abscissa))
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        fit = fit_envelope(simulate(spec, dec, bad, x0, T=6.0), dec)
        assert not fit.passed
        assert set(fit.alpha.values()) == {0.0}


def _row_norms(a):
    """``np.linalg.norm(a, axis=1)``, each row whose squares overflow taken
    again divided by the power of two of its largest magnitude."""
    norms = np.linalg.norm(a, axis=1)
    for k in np.flatnonzero(np.isinf(norms) & np.isfinite(a).all(axis=1)):
        e = math.frexp(float(np.max(np.abs(a[k]))))[1]
        norms[k] = np.ldexp(np.linalg.norm(np.ldexp(a[k : k + 1], -e), axis=1)[0], e)
    return norms


def _max_violation_by_norms(trace, decomp, fit):
    """The grid check of `fit_envelope` with its constants given, as it was
    written before its envelopes were shared between edges: one norm
    (`_row_norms`) and one envelope per edge."""
    times = trace.times
    alpha = next(iter(fit.alpha.values()))
    U = np.zeros(len(times))
    for sig in trace.signals.values():
        if not sig.is_zero:
            U += sig.running_sups(times)
    state_norm = np.zeros(len(times))
    for x in trace.states.values():
        np.maximum(state_norm, _row_norms(x), out=state_norm)
    floor = 64.0 * np.finfo(float).eps * (1.0 + state_norm)
    decay = np.exp(-alpha * times) * fit.z0_norm
    worst = -math.inf
    for e in decomp.edge_order(trace.errors):
        z = _row_norms(trace.errors[e])
        envelope = fit.C[e] * decay + fit.beta[e] * U + floor
        excess = float(np.max(z - envelope))
        worst = max(worst, math.inf if math.isnan(excess) else excess)
    return worst


def _chain_residual_by_sums(trace, decomp, edge, s, full=False):
    """`chain_residual` as it was written before it summed in place: each
    parent chain summed down to the node where the two chains meet, or to
    its leader with ``full``; each norm as `_row_norms` takes it."""
    i, j = edge
    chain_j, chain_s = decomp.parent_chain(j), decomp.parent_chain(s)
    meet = None if full else next((a for a in chain_j if a in chain_s), None)

    def chain_sum(chain):
        total = 0.0
        for a, b in zip(chain[:-1], chain[1:]):
            if a == meet:
                break
            total = total + trace.errors[(a, b)]
        return total

    R = chain_sum(chain_j) - chain_sum(chain_s)
    leader_diff = trace.states[decomp.leader_reach[j]] - trace.states[decomp.leader_reach[s]]
    resid = trace.errors[(i, s)] - trace.errors[(i, j)] - R - leader_diff
    return _row_norms(resid)


def _sibling_pairs(spec, dec):
    return [(i, spec.parents(i)[0], spec.parents(i)[1])
            for i in dec.followers() if len(spec.parents(i)) >= 2]


def _check_runs(cascade):
    """(spec, dec, ctrl, trace) on a zero-input cascade (l=45), sinusoid and
    piecewise-constant inputs on two leaders, and a destabilized loop."""
    spec, dec, ctrl = cascade
    rng = np.random.default_rng(4)
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    yield spec, dec, ctrl, simulate(spec, dec, ctrl, x0, T=2.0)
    spec = random_feasible_formation(rng=4, max_nodes=22, multi_leader_prob=1.0)
    dec = decompose(spec)
    ctrl = synthesize(spec, dec, check(spec, dec))
    kinds = _signal_kinds(spec.m)
    first, second = sorted(dec.leaders)
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    signals = {first: kinds["sinusoid"], second: kinds["piecewise"]}
    yield spec, dec, ctrl, simulate(spec, dec, ctrl, x0, signals=signals, T=3.0)
    spec, dec, bad = _destabilized_triangle()
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    yield spec, dec, bad, simulate(spec, dec, bad, x0, T=6.0)


def _counted_edge_columns(monkeypatch, trace=None, of_states=True):
    """The list to which `_edge_tiles` appends the edge-columns (edges
    times grid columns) of each tile it forms.  With a ``trace``, only the
    tiles of its edges count: read from its state rows (``of_states``) or
    else from other per-agent rows, the error-dynamics terms Q_a; the
    differences to the first agent that bound the edge norms and the
    anchor rows do not."""
    reads, kernel = [], formstab.simulation._edge_tiles
    if trace is not None:
        states, ends = trace._gather[:2]
        edges = set(map(tuple, ends.tolist()))

    def counted_kernel(rows, ends, offsets, cols=slice(None)):
        counted = trace is None or (isinstance(rows, list) and (rows is states) == of_states
                                    and set(map(tuple, ends.tolist())) <= edges)
        for span, z in kernel(rows, ends, offsets, cols):
            if counted:
                reads.append(z.shape[0] * z.shape[2])
            yield span, z

    monkeypatch.setattr(formstab.simulation, "_edge_tiles", counted_kernel)
    return reads


class TestTraceChecksArrayWork:
    """The trace checks compute what the per-edge formulas they replaced
    computed, bit for bit, and write to no array they did not allocate."""

    def test_grid_check_and_chain_residual_match_the_plain_formulas(self, cascade):
        for spec, dec, ctrl, tr in _check_runs(cascade):
            fit = fit_envelope(tr, dec)
            assert fit.max_violation == _max_violation_by_norms(tr, dec, fit)
            pairs = _sibling_pairs(spec, dec)
            for i, j, s in pairs:
                got = chain_residual(tr, dec, (i, j), s)
                assert got.tobytes() == _chain_residual_by_sums(tr, dec, (i, j), s).tobytes()
            assert pairs or spec.l == 3

    def test_chain_residual_reads_only_the_edges_before_the_chains_meet(
            self, cascade, monkeypatch):
        # the edges the two parent chains share cancel in S_j - S_s, so
        # they are not read, and the full sums agree to roundoff
        shared = 0
        reads = _counted_edge_columns(monkeypatch)
        for spec, dec, ctrl, tr in _check_runs(cascade):
            peak = max(float(np.max(np.abs(x))) for x in tr.states.values())
            for i, j, s in _sibling_pairs(spec, dec):
                chain_j, chain_s = dec.parent_chain(j), dec.parent_chain(s)
                tail = [a for a in chain_j if a in chain_s]
                reads.clear()
                got = chain_residual(tr, dec, (i, j), s)
                # both chains down to where they meet, z_ij and z_is, each
                # over the whole grid
                edges = len(chain_j) + len(chain_s) - 2 * max(len(tail) - 1, 0)
                assert sum(reads) == edges * len(tr.times)
                shared += max(len(tail) - 1, 0)
                full = _chain_residual_by_sums(tr, dec, (i, j), s, full=True)
                assert np.max(np.abs(got - full)) <= 1e-12 * peak
        assert shared > 0

    def test_edge_errors_are_the_difference_plus_offset(self, cascade):
        for spec, _, _, tr in _check_runs(cascade):
            assert list(tr.displacements) == list(tr.errors) == list(spec.edge_keys)
            for e in spec.edges:
                z = tr.errors[e.key]
                for rows in (slice(None), 0, -1, slice(1, -1)):
                    old = tr.states[e.i][rows] - tr.states[e.j][rows] + e.d
                    assert z[rows].tobytes() == old.tobytes()
            # the kernel at a slice, an index array (contiguous or not) and
            # one column, with every edge in one tile and one edge a tile
            rows, ends, d, _ = tr._gather
            keys = list(tr.displacements)
            for budget in (formstab.simulation.BUDGET, 1, 10**9):
                for cols in (slice(1, -1), np.array([0, 3, 4, len(tr.times) - 1]),
                             np.arange(2, 9), np.array([5]), 5):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(formstab.simulation, "BUDGET", budget)
                        formed = [(span, z.copy()) for span, z in
                                  formstab.simulation._edge_tiles(rows, ends, d, cols)]
                    assert sum(len(z) for _, z in formed) == len(keys)
                    assert (budget != 1) or {len(z) for _, z in formed} == {1}
                    for span, z in formed:
                        for e, part in zip(keys[span], z):
                            grid = tr.errors[e][[cols] if isinstance(cols, int) else cols]
                            assert part.T.tobytes() == grid.tobytes()
            # a 3-point grid: one interior column
            short = dataclasses.replace(tr, times=tr.times[:3],
                                        states={i: x[:3] for i, x in tr.states.items()})
            rows, ends, d, _ = short._gather
            for span, z in formstab.simulation._edge_tiles(rows, ends, d, slice(1, -1)):
                for (i, j), part in zip(keys[span], z):
                    old = short.states[i][1:2] - short.states[j][1:2] + tr.displacements[(i, j)]
                    assert part.T.tobytes() == old.tobytes()

    def test_checks_leave_stored_arrays_untouched(self, cascade, tmp_path):
        for spec, dec, ctrl, tr in _check_runs(cascade):
            stored = dataclasses.replace(
                tr,
                states={i: x.copy() for i, x in tr.states.items()},
                inputs=dict(tr.inputs),
            )
            before = {name: {k: v.tobytes() for k, v in getattr(stored, name).items()}
                      for name in ("states", "errors", "inputs")}
            fit_envelope(stored, dec)
            error_dynamics_check(stored, spec, dec, ctrl)
            for i, j, s in _sibling_pairs(spec, dec):
                chain_residual(stored, dec, (i, j), s)
            stored.initial_error_norm()
            write_trace_csv(stored, dec, tmp_path / "stored.csv")
            for name, arrays in before.items():
                assert {k: v.tobytes() for k, v in getattr(stored, name).items()} == arrays

    def test_state_row_kernel_matches_the_mapping_forms(self, cascade):
        # the checks compute the edge errors from the state rows; the forms
        # that read them through `errors` give the same bits, on the trace
        # and on a copy whose states are separate C-contiguous arrays
        tri, tri_dec, bad = _destabilized_triangle()
        x0 = {i: np.random.default_rng(0).standard_normal(tri.n) for i in tri.nodes}
        overflowing = (tri, tri_dec, bad, simulate(tri, tri_dec, bad, x0, T=20.0))
        for spec, dec, ctrl, tr in [*_check_runs(cascade), overflowing]:
            fit = fit_envelope(tr, dec)
            first = {e: z[0] for e, z in tr.errors.items()}
            z0 = math.sqrt(sum(float(z @ z) for z in first.values()))
            with np.errstate(over="ignore", invalid="ignore"):
                violation = _max_violation_by_norms(tr, dec, fit)
                defect = _error_dynamics_every_term(tr, spec, dec, ctrl)
            assert repr((fit.z0_norm, tr.initial_error_norm())) == repr((z0, z0))
            assert repr(fit.max_violation) == repr(violation)
            if set(fit.alpha.values()) == {0.0}:  # anchored at the initial errors
                assert repr(fit.C) == repr({e: float(np.linalg.norm(first[e])) / z0
                                            for e in fit.C})
            assert repr(error_dynamics_check(tr, spec, dec, ctrl)) == repr(defect)
            plain = dataclasses.replace(
                tr,
                states={i: np.ascontiguousarray(x) for i, x in tr.states.items()},
            )
            assert repr(fit_envelope(plain, dec).to_dict()) == repr(fit.to_dict())
            assert repr(plain.initial_error_norm()) == repr(z0)
            assert repr(error_dynamics_check(plain, spec, dec, ctrl)) == repr(defect)
        # the fit and the defect take the norms past the square root of the
        # float range
        assert 1e150 < fit.max_violation < math.inf and 1e154 < defect < math.inf


def _fit_matches_the_full_scan(trace, dec):
    """`fit_envelope` on the trace, whose ``max_violation`` must be the full
    scan's (`_max_violation_by_norms`) by repr and whose verdict must be
    the one that violation gives."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_envelope(trace, dec)
    with np.errstate(over="ignore", invalid="ignore"):
        violation = _max_violation_by_norms(trace, dec, fit)
    assert repr(fit.max_violation) == repr(violation)
    assert fit.passed == (set(fit.alpha.values()) != {0.0} and violation <= fit.tolerance)
    return fit


def _bundled_run(name, T, x0=None):
    spec = demo_instance(name)
    dec = decompose(spec)
    ctrl = synthesize(spec, dec, check(spec, dec))
    if x0 is None:
        rng = np.random.default_rng(0)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    return simulate(spec, dec, ctrl, x0, T=T), dec


def _cancelling_run():
    """example2's chain 3 -> 2 -> 1 with d_21 = (a, 0) and d_32 = (b, 0),
    whose sum D_3 = fl(a + b) rounds, on two grid columns: at t=0 every
    state is x_i = -D_i, at t=1000 the followers are moved by +-rho.  There
    every computed w_a = y_a - y_1 and delta_ij is 0 or 8.9e-16, while the
    computed z_32, formed by cancellation, is 3.6e-15: twice the bound
    2 max ||w_a|| + max ||delta|| without its slack."""
    base = demo_instance("example2")
    dec = decompose(base)
    ctrl = synthesize(base, dec, check(base, dec))
    tr = simulate(base, dec, ctrl, {i: np.ones(base.n) for i in base.nodes}, T=1.0)
    a, b, rho = 2.5799177363489507, 24.96055663101087, -9.43269269772958e-16
    spec = dataclasses.replace(base, edges=(Edge(2, 1, [a, 0.0]), Edge(3, 2, [b, 0.0])))
    dec = decompose(spec)
    D = dec.cumulative_offset
    shift = {1: 0.0, 2: rho, 3: -rho}
    states = {i: np.array([-D[i], -D[i] + [shift[i], 0.0]]) for i in spec.nodes}
    tr = dataclasses.replace(tr, times=np.array([0.0, 1000.0]), states=states, displacements=(
        types.MappingProxyType(dict(zip(spec.edge_keys, spec.d_rows)))))
    w = [np.linalg.norm(states[i][1] - states[1][1] + (D[i] - D[1])) for i in spec.nodes]
    delta = [np.linalg.norm(-D[i] + D[j] + d) for (i, j), d in tr.displacements.items()]
    assert np.linalg.norm(tr.errors[(3, 2)][1]) == 2 * (2 * max(w) + max(delta)) > 0
    return tr, dec


def _defect_run():
    """example2 at T=20 whose trace carries d_32 + (1, 0): a condition-3
    defect delta_32 = (1, 0) that every z_32 carries, above the decayed
    envelope at the end of the horizon."""
    tr, dec = _bundled_run("example2", 20.0)
    disp = dict(tr.displacements)
    disp[(3, 2)] = disp[(3, 2)] + [1.0, 0.0]
    return dataclasses.replace(tr, displacements=types.MappingProxyType(disp)), dec


def _with_nan_state(trace, dec):
    states = {i: x.copy() for i, x in trace.states.items()}
    states[dec.renumbering[-1]][len(trace.times) // 2, 0] = np.nan
    return dataclasses.replace(trace, states=states)


class TestEnvelopePruning:
    """The grid check forms edge errors only where a one-pass bound says
    the largest excess can be, and returns the full scan's bits."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 60),
        multi_leader=st.booleans(),
        kind=st.sampled_from(["zero", "sinusoid", "piecewise", "constant"]),
        scale=st.floats(-3.0, 3.0),
        T=st.sampled_from([3.0, 20.0]),
        x0_seed=st.integers(0, 2**32 - 1),
    )
    def test_pruned_check_matches_the_full_scan(self, seed, multi_leader, kind, scale, T,
                                                x0_seed):
        # the error-dynamics check runs the same bounded pass on its defects
        spec = random_feasible_formation(rng=seed, max_nodes=30,
                                         multi_leader_prob=float(multi_leader))
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        rng = np.random.default_rng(x0_seed)
        x0 = {i: 10.0**scale * rng.standard_normal(spec.n) for i in spec.nodes}
        signals = {a: _signal_kinds(spec.m)[kind] for a in dec.leaders}
        tr = simulate(spec, dec, ctrl, x0, signals=signals, T=T)
        _fit_matches_the_full_scan(tr, dec)
        assert repr(error_dynamics_check(tr, spec, dec, ctrl)) == repr(
            _error_dynamics_every_term(tr, spec, dec, ctrl))

    @pytest.mark.parametrize("case", [
        "triangle-20", "triangle-150", "triangle-300", "example2-20", "example2-150",
        "example2-300", "destabilized", "nan-state", "huge-x0", "cancelling", "defect"])
    def test_fixed_runs_match_the_full_scan(self, case):
        if case == "destabilized":  # states up to 7e158: every slice is the grid
            spec, dec, bad = _destabilized_triangle()
            x0 = {i: np.random.default_rng(0).standard_normal(spec.n) for i in spec.nodes}
            tr = simulate(spec, dec, bad, x0, T=20.0)
        elif case == "nan-state":
            tr, dec = _bundled_run("example2", 20.0)
            tr = _with_nan_state(tr, dec)
        elif case == "huge-x0":
            tr, dec = _bundled_run("triangle", 2.0, {1: np.array([1e200, 0.0]),
                                                    2: np.zeros(2), 3: np.zeros(2)})
        elif case == "cancelling":
            tr, dec = _cancelling_run()
        elif case == "defect":
            tr, dec = _defect_run()
        else:
            name, T = case.split("-")
            tr, dec = _bundled_run(name, float(T))
        fit = _fit_matches_the_full_scan(tr, dec)
        assert (case == "nan-state") == (fit.max_violation == math.inf)
        assert (case in ("destabilized", "nan-state", "defect")) == (not fit.passed)

    @pytest.mark.parametrize("n", [2, 4, 9, 12])
    def test_a_column_sums_its_squares_as_the_full_width_reduction(self, n):
        # a slice may be one column wide, where numpy's own reduction over
        # the rows is pairwise from 9 rows on
        z = np.random.default_rng(n).standard_normal((n, 7)) * 10.0 ** np.arange(-3, 4)
        full = np.add.reduce(z * z, 0)
        for c in range(7):
            one = formstab.simulation._squares_by_rows(z[None, :, c : c + 1].copy())
            assert one.tobytes() == full[c : c + 1].tobytes()
        # and in a tile of several edges
        tile = formstab.simulation._squares_by_rows(np.stack([z, 2.0 * z, z]))
        assert tile[2].tobytes() == tile[0].tobytes() == full.tobytes()

    def test_grid_check_reads_at_most_one_percent_of_the_edge_columns(
            self, cascade, monkeypatch):
        # the benchmark's op: the l=45 cascade at T=20 under zero input
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(0)
        tr = simulate(spec, dec, ctrl, {i: rng.standard_normal(spec.n) for i in spec.nodes},
                      T=20.0)
        reads = _counted_edge_columns(monkeypatch, tr)
        fit = fit_envelope(tr, dec)
        monkeypatch.undo()
        assert 0 < sum(reads) <= 0.01 * len(spec.edges) * len(tr.times)
        assert fit.passed
        assert repr(fit.max_violation) == repr(_max_violation_by_norms(tr, dec, fit))


class TestErrorDynamicsPruning:
    """The error-dynamics check finds its largest defect with the envelope
    check's bounded pass: it forms an edge's defect only where the bound
    says the maximum can be, and returns the full scan's bits."""

    def test_reads_at_most_one_percent_of_the_defect_columns(self, cascade, monkeypatch):
        # the benchmark's op: the l=45 cascade at T=20 under zero input
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(0)
        tr = simulate(spec, dec, ctrl, {i: rng.standard_normal(spec.n) for i in spec.nodes},
                      T=20.0)
        reads = _counted_edge_columns(monkeypatch, tr, of_states=False)
        got = error_dynamics_check(tr, spec, dec, ctrl)
        monkeypatch.undo()
        assert 0 < sum(reads) <= 0.01 * len(spec.edges) * (len(tr.times) - 2)
        assert repr(got) == repr(_error_dynamics_every_term(tr, spec, dec, ctrl))

    def test_holds_the_terms_two_rows_and_one_tile(self, cascade):
        # the benchmark's op: past the Q_a rows, the gain terms hold a tile
        # and its product, one (n, interior) row each at T=20, and drop them
        # before the defect pass, which holds one tile budget at most
        spec, dec, ctrl = cascade
        rng = np.random.default_rng(0)
        tr = simulate(spec, dec, ctrl, {i: rng.standard_normal(spec.n) for i in spec.nodes},
                      T=20.0)
        error_dynamics_check(tr, spec, dec, ctrl)  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            error_dynamics_check(tr, spec, dec, ctrl)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        row = spec.n * (len(tr.times) - 2) * 8
        assert peak <= (spec.l + 2) * row + 8 * formstab.simulation.BUDGET

    def test_driven_leaders_read_far_fewer_than_the_full_scan(self, monkeypatch):
        # a piecewise-constant input sets the largest defects at its
        # breakpoints, a sinusoid drives the other leader
        spec = random_feasible_formation(rng=4, max_nodes=22, multi_leader_prob=1.0)
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        kinds = _signal_kinds(spec.m)
        first, second = sorted(dec.leaders)
        rng = np.random.default_rng(0)
        tr = simulate(spec, dec, ctrl, {i: rng.standard_normal(spec.n) for i in spec.nodes},
                      signals={first: kinds["piecewise"], second: kinds["sinusoid"]}, T=3.0)
        reads = _counted_edge_columns(monkeypatch, tr, of_states=False)
        got = error_dynamics_check(tr, spec, dec, ctrl)
        monkeypatch.undo()
        assert 0 < sum(reads) <= 0.01 * len(spec.edges) * (len(tr.times) - 2)
        assert repr(got) == repr(_error_dynamics_every_term(tr, spec, dec, ctrl))


def _tiling_runs(cascade):
    """(spec, dec, ctrl, trace): the l=45 cascade at T=20 under zero input,
    a two-leader l=45 run at T=20 under 40 steps and a sinusoid, and the
    bundled triangle at T=300, whose edge squares overflow."""
    spec, dec, ctrl = cascade
    rng = np.random.default_rng(0)
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    yield spec, dec, ctrl, simulate(spec, dec, ctrl, x0, T=20.0)
    spec = random_feasible_formation(rng=4, max_nodes=50, max_n=4, max_m=2,
                                     multi_leader_prob=1.0)
    dec = decompose(spec)
    ctrl = synthesize(spec, dec, check(spec, dec))
    first, second = sorted(dec.leaders)[:2]
    steps = PiecewiseConstantSignal(np.r_[0.0, np.sort(rng.uniform(0.0, 20.0, 40))],
                                    rng.standard_normal((41, spec.m)))
    sine = SinusoidSignal(rng.standard_normal(spec.m), omega=1.3, phase=0.4)
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    yield spec, dec, ctrl, simulate(spec, dec, ctrl, x0, signals={first: steps, second: sine},
                                    T=20.0)
    spec = demo_instance("triangle")
    dec = decompose(spec)
    ctrl = synthesize(spec, dec, check(spec, dec))
    x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
    yield spec, dec, ctrl, simulate(spec, dec, ctrl, x0, T=300.0)


class TestEdgeTiles:
    """Every edge error is formed in tiles of `_edge_tiles`, at most BUDGET
    values or one edge each, and no tiling changes a bit."""

    def test_tiling_never_changes_bits(self, cascade, tmp_path, monkeypatch):
        kernel, mend = formstab.simulation._edge_tiles, formstab.simulation._mend_overflow
        for k, (spec, dec, ctrl, tr) in enumerate(_tiling_runs(cascade)):
            # the CSV of 300 rows, from both ends of the grid, and a 3-point
            # grid, whose gain products are one column wide
            rows = np.r_[0:150, len(tr.times) - 150 : len(tr.times)]
            cut = dataclasses.replace(tr, times=tr.times[rows],
                                      states={i: x[rows] for i, x in tr.states.items()})
            short = dataclasses.replace(tr, times=tr.times[:3],
                                        states={i: x[:3] for i, x in tr.states.items()},
                                        inputs={a: tr.inputs[a][:3] for a in dec.leaders})
            every = len(spec.edges) * spec.n * len(tr.times)  # every edge in one tile
            got = []
            for budget in (formstab.simulation.BUDGET, 1, every):
                tiles, mended = set(), []

                def sized(rows, ends, offsets, cols=slice(None)):
                    for span, z in kernel(rows, ends, offsets, cols):
                        tiles.add(len(z) == 1 or z.size <= budget)
                        yield span, z

                def recorded(norms, groups, arrays):
                    mended.append(len(groups) == len(spec.edges) and np.isinf(norms).any())
                    return mend(norms, groups, arrays)

                with monkeypatch.context() as patch:
                    patch.setattr(formstab.simulation, "BUDGET", budget)
                    patch.setattr(formstab.simulation, "_edge_tiles", sized)
                    patch.setattr(formstab.simulation, "_mend_overflow", recorded)
                    fit = fit_envelope(tr, dec)
                    defect = error_dynamics_check(tr, spec, dec, ctrl)
                    assert repr(error_dynamics_check(short, spec, dec, ctrl)) == repr(
                        _error_dynamics_every_term(short, spec, dec, ctrl))
                    write_trace_csv(cut, dec, tmp_path / "cut.csv")
                assert tiles == {True}
                assert any(mended) == (spec.l == 3)  # the triangle's squares overflow
                got.append((repr(fit.to_dict()), repr(defect),
                            (tmp_path / "cut.csv").read_bytes()))
            assert got[1] == got[0] and got[2] == got[0]


def _empty_stores():
    formstab.simulation._certificates.clear()
    formstab.simulation._increments.clear()


class TestClosedLoopReuse:
    """`fit_envelope` solves for C once per error loop and `_propagate`
    builds the dt increments once per run of calls on one closed loop; what
    they reuse is keyed by the matrices' content and equals, bit for bit,
    what a fresh computation returns."""

    @staticmethod
    def _run(spec, dec, ctrl, x0):
        tr = simulate(spec, dec, ctrl, x0, T=5.0)
        states = b"".join(x.tobytes() for x in tr.states.values())
        fit = repr(fit_envelope(tr, dec).to_dict())
        return states, fit, repr(error_dynamics_check(tr, spec, dec, ctrl))

    @staticmethod
    def _count_solves(monkeypatch):
        from formstab import simulation

        solves = []
        solve = simulation._lyapunov_constant

        def counted(A, alpha):
            solves.append(alpha)
            return solve(A, alpha)

        monkeypatch.setattr(simulation, "_lyapunov_constant", counted)
        return solves

    def test_reused_constant_and_increments_match_fresh_runs(self, cascade, monkeypatch):
        from formstab import simulation

        spec, dec, ctrl = cascade
        x0s = [{i: np.random.default_rng(seed).standard_normal(spec.n) for i in spec.nodes}
               for seed in range(3)]
        fresh = []
        for x0 in x0s:
            _empty_stores()
            fresh.append(self._run(spec, dec, ctrl, x0))
        _empty_stores()
        built = _count_increments(monkeypatch)
        solves = self._count_solves(monkeypatch)
        reused = [self._run(spec, dec, ctrl, x0) for x0 in x0s]
        assert reused == fresh
        # C is solved for once; the increments are built on the first two
        # steppings of the loop and kept from the second
        assert len(solves) == 1
        assert built == [simulation._MAX_DOUBLINGS + 1] * 2

    @staticmethod
    def _moved_by_one_ulp(decomp, ctrl):
        """ctrl with one gain entry moved up by one ulp.  A gain toward the
        reference leader drops out of the error loop, so the moved gain is
        one toward another parent."""
        ref = decomp.renumbering[0]
        i, s = next((i, s) for i in decomp.followers() for s in ctrl.gains(i).K if s != ref)
        fc = ctrl.gains(i)
        K = {p: np.array(g) for p, g in fc.K.items()}
        K[s][0, 0] = np.nextafter(K[s][0, 0], np.inf)
        return ControllerSet(ctrl.n, ctrl.m, {**ctrl.followers, i: dataclasses.replace(fc, K=K)})

    def test_gain_moved_by_one_ulp_misses_both_stores(self, chain, chain_decomp,
                                                      chain_ctrl, monkeypatch):
        solves = self._count_solves(monkeypatch)
        moved = self._moved_by_one_ulp(chain_decomp, chain_ctrl)
        x0 = {a: np.ones(chain.n) for a in chain.nodes}
        order = (chain_ctrl, chain_ctrl, moved, moved, chain_ctrl, moved)
        runs = [self._run(chain, chain_decomp, ctrl, x0) for ctrl in order]
        assert len(solves) == 2
        assert solves[0] == solves[1]  # the same rate: only the key's digest differs
        assert runs[0][0] != runs[2][0]
        for ctrl, got in zip(order, runs):
            _empty_stores()
            assert self._run(chain, chain_decomp, ctrl, x0) == got

    def test_failed_certificate_is_solved_again(self, chain, chain_decomp, chain_ctrl,
                                                monkeypatch):
        from formstab import CertificateError, simulation

        solve = simulation._lyapunov_constant
        calls = []

        def failing_once(A, alpha):
            calls.append(alpha)
            if len(calls) == 1:
                raise CertificateError("Lyapunov solution is not positive definite")
            return solve(A, alpha)

        monkeypatch.setattr(simulation, "_lyapunov_constant", failing_once)
        x0 = {a: np.ones(chain.n) for a in chain.nodes}
        tr = simulate(chain, chain_decomp, chain_ctrl, x0, T=2.0)
        with pytest.raises(CertificateError):
            fit_envelope(tr, chain_decomp)
        assert simulation._certificates == {}
        assert fit_envelope(tr, chain_decomp).passed
        assert fit_envelope(tr, chain_decomp).passed
        assert len(calls) == 2

    def test_at_most_one_increments_set_is_held(self, cascade, chain, chain_decomp,
                                                chain_ctrl):
        from formstab import simulation

        def held():
            return [v for v in simulation._increments.values() if v is not None]

        spec, dec, ctrl = cascade
        x0 = {i: np.ones(spec.n) for i in spec.nodes}
        simulate(spec, dec, ctrl, x0, T=5.0)
        assert held() == []  # a loop stepped once leaves no matrix held
        simulate(spec, dec, ctrl, x0, T=5.0)
        (first,) = held()
        size = first[0].shape[0]
        x0 = {a: np.ones(chain.n) for a in chain.nodes}
        for _ in range(2):
            simulate(chain, chain_decomp, chain_ctrl, x0, T=5.0)
            assert len(simulation._increments) == 1
            assert len(held()) <= 1
        (second,) = held()
        assert second[0].shape[0] < size

    def test_threads_keep_the_bounds_and_the_bits(self, chain, chain_decomp, chain_ctrl):
        import sys
        import threading

        from formstab import simulation

        loops = (chain_ctrl, self._moved_by_one_ulp(chain_decomp, chain_ctrl))
        x0 = {a: np.ones(chain.n) for a in chain.nodes}
        fresh = []
        for ctrl in loops:
            _empty_stores()
            fresh.append(self._run(chain, chain_decomp, ctrl, x0))
        _empty_stores()
        problems = []

        def work(w):
            try:
                for r in range(6):
                    k = (w + r // 2) % 2
                    if self._run(chain, chain_decomp, loops[k], x0) != fresh[k]:
                        problems.append(f"thread {w} run {r}: bits differ")
                    if len(simulation._increments) > 1:
                        problems.append(f"thread {w} run {r}: two increments sets")
            except Exception as exc:  # reported below, not lost with the thread
                problems.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert problems == []
        assert len(simulation._certificates) == 2


def _blocks_per_agent(spec, dec, ctrl):
    """`_closed_loop_blocks` one agent and one parent gain at a time."""
    l, n, pos = spec.l, spec.n, dec.position
    M, c = np.zeros((l * n, l * n)), np.zeros(l * n)
    blocks, drift = M.reshape(l, n, l, n), c.reshape(l, n)
    leader_cols = {}
    for i in dec.renumbering:
        ag, r, fc = spec.agent(i), pos[i], ctrl.followers.get(i)
        if fc is None:
            blocks[r, :, r] = ag.A
            leader_cols[i] = np.zeros((l * n, spec.m))
            leader_cols[i].reshape(l, n, spec.m)[r] = ag.B
        else:
            blocks[r, :, r] = ag.A + ag.B @ fc.S
            for s, Ks in fc.K.items():
                blocks[r, :, pos[s]] += ag.B @ Ks
            drift[r] = ag.B @ fc.k
    return M, c, leader_cols


class TestClosedLoopFromStacks:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_bitwise_the_per_agent_blocks(self, seed):
        # random gains with -0.0 entries and zero split weights; one
        # controller assembled from its stacks, one rebuilt from its followers
        rng = np.random.default_rng(seed)
        spec = random_feasible_formation(seed, max_nodes=20, max_n=4, max_m=3,
                                         multi_leader_prob=0.3)
        dec = decompose(spec)
        followers = dec.followers()
        S = {i: rng.standard_normal((spec.m, spec.n)) for i in followers}
        N = {i: rng.standard_normal((spec.m, spec.n)) for i in followers}
        for i in followers[::2]:
            S[i][0], N[i][-1] = -0.0, S[i][-1]  # N_i - S_i has a zero row
        kt = {i: rng.standard_normal(spec.m) for i in followers}
        weights = {}
        for i in followers:
            w = rng.dirichlet(np.ones(len(spec.parents(i))))
            w[rng.random(len(w)) < 0.3] = 0.0
            weights[i] = dict(zip(spec.parents(i), w.tolist()))
        ctrl = assemble_controller(dec, spec.n, spec.m, S, N, kt, weights)
        for law in (ctrl, controller_from_dict(controller_to_dict(ctrl))):
            (M, c, G), (M_ref, c_ref, G_ref) = (_closed_loop_blocks(spec, dec, law),
                                                _blocks_per_agent(spec, dec, law))
            assert (M.tobytes(), c.tobytes()) == (M_ref.tobytes(), c_ref.tobytes())
            assert [(i, g.tobytes()) for i, g in G.items()] == [
                (i, g.tobytes()) for i, g in G_ref.items()]
