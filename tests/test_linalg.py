"""Numerical kernels: eigenvalues, Hurwitz/stabilizability tests, solves,
gain synthesis, decay certificates."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formstab import (
    CertificateError,
    ConvergenceFailure,
    NotStabilizableError,
    RateTooAggressive,
    SynthesisFailure,
    Tolerances,
    controllability_matrix,
    eigenvalues,
    exp_envelope,
    is_hurwitz,
    is_stabilizable,
    matrix_rank,
    solve_matrix_equation,
    spectral_abscissa,
    stabilize,
)
from formstab import decompose
from formstab import linalg as linalg_module
from formstab.instances import (
    random_controllable_pair,
    random_dag_formation,
    random_feasible_formation,
    three_agent_chain,
)
from formstab.linalg import (
    DEFAULT_TOLERANCES,
    HurwitzReport,
    LinearSolveReport,
    StabilizabilityResult,
    _FloatRangeError,
    _frobenius_norms,
    _hurwitz_reports,
    _is_block_triangular_hurwitz,
    _riccati,
    _solve_blocks,
    _sorted_eigenvalues,
)

CHAIN = three_agent_chain()
A1, A2, A3 = (CHAIN.agent(i).A for i in (1, 2, 3))
B1, B2, B3 = (CHAIN.agent(i).B for i in (1, 2, 3))


class TestEigenvalues:
    def test_diagonal(self):
        assert np.allclose(sorted(eigenvalues(np.diag([1.0, 2.0])).real), [1.0, 2.0])

    def test_identity_multiplicity(self):
        eigs = eigenvalues(np.eye(2))
        assert np.allclose(eigs, [1.0, 1.0])

    def test_hand_oracle_characteristic_polynomial(self):
        # [[0,-1],[-2,0]]: lambda^2 - 2 = 0, roots +-sqrt(2)
        eigs = eigenvalues(np.array([[0.0, -1.0], [-2.0, 0.0]]))
        assert np.allclose(sorted(eigs.real), [-math.sqrt(2), math.sqrt(2)])
        assert np.allclose(eigs.imag, 0.0)

    def test_complex_pair(self):
        eigs = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sorted(e.imag for e in eigs), [-1.0, 1.0])
        assert np.allclose([e.real for e in eigs], 0.0)

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_trace_and_determinant_invariants(self, seed, n):
        A = np.random.default_rng(seed).standard_normal((n, n))
        eigs = eigenvalues(A)
        assert len(eigs) == n
        tr = float(np.trace(A))
        assert abs(np.sum(eigs).real - tr) <= 1e-9 * (1.0 + abs(tr))
        assert abs(np.sum(eigs).imag) <= 1e-9
        det = float(np.linalg.det(A))
        prod = np.prod(eigs)
        assert abs(prod - det) <= 1e-6 * (1.0 + abs(det))
        conjugates = set(np.conj(eigs).tolist())
        assert all(z in conjugates for z in eigs.tolist() if z.imag != 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # eigvals finds them; the kernel names them, single or stacked, and
        # warns nothing
        single = np.array([[1.0, bad], [0.0, 2.0]])
        stack = np.array([-np.eye(2), single])
        for call, A in ((eigenvalues, single), (_sorted_eigenvalues, stack)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(ValueError) as exc:
                    call(A)
            assert str(exc.value) == "matrix must not contain infs or NaNs"
            assert caught == []

    def test_lapack_non_convergence_is_convergence_failure(self, monkeypatch):
        def no_convergence(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceFailure):
            eigenvalues(np.eye(2))
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            _sorted_eigenvalues(np.array([-np.eye(2), np.eye(2)]))

    @pytest.mark.parametrize("A,message", [
        (np.ones(3), "expected a 2-d matrix, got shape (3,)"),
        (np.ones((2, 3)), "matrix must be square"),
    ], ids=["vector", "non_square"])
    def test_shape_rejected(self, A, message):
        with pytest.raises(ValueError) as exc:
            eigenvalues(A)
        assert str(exc.value) == message


class TestHurwitz:
    def test_negative_identity(self):
        rep = is_hurwitz(-np.eye(2))
        assert rep.is_hurwitz and rep.spectral_abscissa == pytest.approx(-1.0)

    def test_unstable_diagonal_leader_matrix(self):
        rep = is_hurwitz(A1)
        assert not rep.is_hurwitz
        assert rep.spectral_abscissa == pytest.approx(2.0)

    def test_saddle_is_not_hurwitz(self):
        rep = is_hurwitz(A3)
        assert not rep.is_hurwitz
        assert rep.spectral_abscissa == pytest.approx(math.sqrt(2))

    def test_margin_semantics(self):
        # abscissa at exactly -margin is not strictly inside
        tol = Tolerances(eps_hurwitz=1e-3)
        assert not is_hurwitz(np.diag([-1e-3, -1.0]), tol).is_hurwitz
        assert is_hurwitz(np.diag([-2e-3, -1.0]), tol).is_hurwitz


def _block_lower_triangular(seed, n, k, shift=0.0):
    rng = np.random.default_rng(seed)
    A = np.tril(rng.standard_normal((n * k, n * k)), k=-1)
    for r in range(0, n * k, n):
        A[r : r + n, r : r + n] = rng.standard_normal((n, n)) - shift * np.eye(n)
    return A


class TestBlockTriangularHurwitz:
    @given(seed=st.integers(0, 100_000), n=st.integers(1, 4), k=st.integers(1, 6),
           shift=st.sampled_from([0.0, 3.0]))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_dense_test(self, seed, n, k, shift):
        A = _block_lower_triangular(seed, n, k, shift)
        dense = is_hurwitz(A)
        blocks = _is_block_triangular_hurwitz(A, n, DEFAULT_TOLERANCES)
        assert blocks.is_hurwitz == dense.is_hurwitz
        assert blocks.spectral_abscissa == pytest.approx(dense.spectral_abscissa, rel=1e-8, abs=1e-10)
        assert len(blocks.eigenvalues) == n * k

    def test_margin_semantics(self):
        tol = Tolerances(eps_hurwitz=1e-3)
        A = np.array([[-1.0, 0.0], [5.0, -1e-3]])
        assert not _is_block_triangular_hurwitz(A, 1, tol).is_hurwitz
        A[1, 1] = -2e-3
        assert _is_block_triangular_hurwitz(A, 1, tol).is_hurwitz

    @pytest.mark.parametrize("at", [(0, 0), (3, 0)], ids=["diagonal", "below"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, at, bad):
        A = _block_lower_triangular(0, 2, 2, 3.0)
        A[at] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _is_block_triangular_hurwitz(A, 2, DEFAULT_TOLERANCES)

    def test_nonzero_block_above_the_diagonal_rejected(self):
        A = _block_lower_triangular(0, 2, 3, 3.0)
        A[1, 4] = 1e-300
        with pytest.raises(ValueError, match="not block lower triangular"):
            _is_block_triangular_hurwitz(A, 2, DEFAULT_TOLERANCES)

    def test_size_not_a_multiple_of_the_block_rejected(self):
        with pytest.raises(ValueError, match="2-by-2 blocks"):
            _is_block_triangular_hurwitz(-np.eye(3), 2, DEFAULT_TOLERANCES)

    def test_lapack_non_convergence_is_convergence_failure(self, monkeypatch):
        def no_convergence(A):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceFailure):
            _is_block_triangular_hurwitz(-np.eye(4), 2, DEFAULT_TOLERANCES)


class TestSolveMatrixEquation:
    def test_chain_follower_gain_equation(self):
        rep = solve_matrix_equation(B2, A1 - A2)
        assert rep.solvable
        assert np.allclose(rep.solution, [[1.0, 1.0]])
        assert rep.relative_residual <= 1e-12

    def test_chain_pairwise_infeasible(self):
        rep = solve_matrix_equation(B3, A2 - A3)
        assert not rep.solvable
        assert rep.relative_residual > 1e-2

    def test_zero_system(self):
        rep = solve_matrix_equation(np.zeros((2, 1)), np.zeros((2, 2)))
        assert rep.solvable
        assert np.allclose(rep.solution, 0.0)
        assert rep.rank_B == 0

    def test_vector_rhs_round_trip(self):
        rep = solve_matrix_equation(B2, A2 @ np.array([2.0, 1.0]))
        assert rep.solvable and rep.solution.shape == (1,)
        assert rep.solution[0] == pytest.approx(-1.0)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            solve_matrix_equation(np.zeros((2, 1)), np.zeros((3, 1)))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_consistent_systems_solve_to_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        n, m, k = (int(x) for x in rng.integers(1, 5, 3))
        B = rng.standard_normal((n, m))
        X0 = rng.standard_normal((m, k))
        C = B @ X0
        rep = solve_matrix_equation(B, C)
        assert rep.solvable
        assert np.linalg.norm(B @ rep.solution - C) <= 1e-8 * (1 + np.linalg.norm(C))
        # minimum-norm solution never beats the generating one
        assert np.linalg.norm(rep.solution) <= np.linalg.norm(X0) + 1e-9


class TestStabilizability:
    def test_chain_follower_is_stabilizable(self):
        assert is_stabilizable(A2, B2)

    def test_unstable_with_zero_input_matrix(self):
        res = is_stabilizable(np.diag([1.0, 2.0]), np.zeros((2, 1)))
        assert not res
        assert res.witness == pytest.approx(1.0)

    def test_hurwitz_with_zero_input_matrix(self):
        assert is_stabilizable(np.diag([-1.0, -2.0]), np.zeros((2, 1)))

    def test_stabilizable_but_not_controllable(self):
        A = np.diag([-1.0, 1.0])
        B = np.array([[0.0], [1.0]])
        assert is_stabilizable(A, B)
        assert np.linalg.matrix_rank(controllability_matrix(A, B)) == 1

    def test_unstable_uncontrollable_mode(self):
        A = np.diag([1.0, 2.0])
        B = np.array([[1.0], [0.0]])
        res = is_stabilizable(A, B)
        assert not res and res.witness == pytest.approx(2.0)

    def test_mode_inside_the_margin_counts_as_unstable(self):
        # exactly stabilizable: the uncontrollable mode -1e-9 is stable; but
        # the PBH margin is inclusive (Re lambda >= -eps_hurwitz), so at the
        # default eps_hurwitz = 1e-9 that mode is the witness
        A = np.diag([1.0, -1e-9])
        B = np.array([[1.0], [0.0]])
        res = is_stabilizable(A, B)
        assert not res and res.witness == -1e-9
        with pytest.raises(NotStabilizableError) as exc:
            stabilize(A, B)
        assert exc.value.witness == -1e-9
        assert is_stabilizable(A, B, Tolerances(eps_hurwitz=1e-10))

    def test_singular_values_that_overflow_name_their_item(self, monkeypatch):
        # no finite pencil has been seen to overflow LAPACK's singular values,
        # so the overflow is forced on the last pencil, the second item's
        svd = np.linalg.svd

        def overflowing(a, *args, **kwargs):
            s = svd(a, *args, **kwargs)
            s[-1] = np.inf
            return s

        monkeypatch.setattr(np.linalg, "svd", overflowing)
        A = np.stack([np.diag([1.0, 2.0])] * 2)
        B = np.stack([np.array([[1.0], [0.0]])] * 2)
        with pytest.raises(_FloatRangeError, match="^a singular value of the PBH pencil") as exc:
            is_stabilizable(A, B)
        assert exc.value.item == 1

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_controllability_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        A, B = random_controllable_pair(rng, n, m)
        assert matrix_rank(controllability_matrix(A, B)) == n
        assert is_stabilizable(A, B)


class TestStabilize:
    def test_chain_followers(self):
        for A, B in ((A2, B2), (A3, B3)):
            S = stabilize(A, B)
            assert is_hurwitz(A + B @ S).is_hurwitz

    def test_hurwitz_input_is_fine(self):
        A = np.diag([-1.0, -2.0])
        B = np.array([[1.0], [3.0]])
        S = stabilize(A, B)
        assert is_hurwitz(A + B @ S).is_hurwitz

    def test_zero_b_on_hurwitz_matrix_gives_zero_gain(self):
        S = stabilize(-np.eye(3), np.zeros((3, 2)))
        assert np.array_equal(S, np.zeros((2, 3)))

    def test_not_stabilizable_raises_with_witness(self):
        with pytest.raises(NotStabilizableError) as exc:
            stabilize(np.diag([1.0, 2.0]), np.zeros((2, 1)))
        assert exc.value.witness == pytest.approx(1.0)

    def test_uncontrollable_unstable_mode_raises_with_witness(self):
        # the mode at 2 is unreachable from B: both gains leave it in place
        with pytest.raises(NotStabilizableError) as exc:
            stabilize(np.diag([1.0, 2.0]), np.array([[1.0], [0.0]]))
        assert exc.value.witness == pytest.approx(2.0)

    def test_stabilizable_uncontrollable_pair(self):
        A = np.diag([-0.5, 3.0])
        B = np.array([[0.0], [1.0]])
        S = stabilize(A, B)
        assert is_hurwitz(A + B @ S).is_hurwitz

    def test_returns_the_riccati_gain(self):
        A, B = random_controllable_pair(7, 4, 2)
        P = scipy.linalg.solve_continuous_are(A, B, np.eye(4), np.eye(2))
        assert np.array_equal(stabilize(A, B), -B.T @ P)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        scale=st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]),
        family=st.sampled_from(["plain", "zeroed_input_column", "skew_symmetric_A", "tiny_B"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_riccati_is_bitwise_scipys_solver(self, seed, n, m, scale, family):
        # scipy raises on about one pair in eight of these families
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) * scale
        B = rng.standard_normal((n, m)) * rng.choice([1e-3, 1.0, 1e3])
        if family == "zeroed_input_column":
            B[:, rng.integers(m)] = 0.0
        elif family == "skew_symmetric_A":
            A = A - A.T
        elif family == "tiny_B":
            B *= 1e-8
        assert _care_outcome(_riccati, A, B) == _care_outcome(_scipy_care, A, B)

    # 3-4-5 rotation of [[1, 1, 0], [1, 2, 1], [0, 0, -1e-8]], B = e2: the mode
    # at -1e-8 is uncontrollable yet inside the Hurwitz margin
    _R = np.array([[0.6, 0.0, -0.8], [0.0, 1.0, 0.0], [0.8, 0.0, 0.6]])
    _A0 = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 0.0, -1e-8]])

    @pytest.mark.parametrize("A,B", [
        (np.array([[0.6, 1.5], [0.8, 0.4]]), np.array([[1.4e-7], [-1e-7]])),
        (_R @ _A0 @ _R.T, _R @ np.array([[0.0], [1.0], [0.0]])),
        (np.array([[0.0, 1.0], [-1.0, 0.0]]), np.zeros((2, 1))),
    ], ids=["weakly_reachable_unstable_mode", "uncontrollable_mode_near_the_axis",
            "undamped_oscillator_without_input"])
    def test_riccati_raises_what_scipys_solver_raises(self, A, B):
        expected = _care_outcome(_scipy_care, A, B)
        assert isinstance(expected, type) and issubclass(expected, Exception)
        assert _care_outcome(_riccati, A, B) is expected

    @pytest.mark.parametrize("info,raised", [
        (1, scipy.linalg.LinAlgWarning),  # a failed QZ iteration, 1 <= info <= N
        (5, np.linalg.LinAlgError),  # info = N + 1: the deflated pencil of a 2-state pair has N = 4
    ], ids=["qz_iteration_failed", "other_failure"])
    def test_failed_qz_step(self, monkeypatch, info, raised):
        dgges = linalg_module.lapack.dgges
        monkeypatch.setattr(linalg_module.lapack, "dgges",
                            lambda *args, **kwargs: (*dgges(*args, **kwargs)[:-1], info))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as pyproject.toml sets it
            with pytest.raises(raised):
                _riccati(A2, B2)
        if raised is np.linalg.LinAlgError:  # the Bass gain takes over
            assert is_hurwitz(A2 + B2 @ stabilize(A2, B2)).is_hurwitz

    @pytest.mark.parametrize("A,B", [
        # controllable, but the unstable mode at 1.6 is reached through 1.2e-8
        (np.array([[0.6, 1.5], [0.8, 0.4]]), np.array([[1.4e-7], [-1e-7]])),
        (_R @ _A0 @ _R.T, _R @ np.array([[0.0], [1.0], [0.0]])),
    ], ids=["weakly_reachable_unstable_mode", "uncontrollable_mode_near_the_axis"])
    def test_stabilizable_pair_the_riccati_solve_fails_on(self, A, B):
        # scipy's Riccati solver raises on both pairs; the Bass fallback
        # gives the gain
        S = stabilize(A, B)
        assert is_hurwitz(A + B @ S).is_hurwitz

    def test_stabilizable_pair_both_gains_fail_on_is_a_synthesis_failure(self, monkeypatch):
        # no pair is known on which both gains fail while A is not Hurwitz,
        # so both are made to fail
        def no_riccati(A, B):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(linalg_module, "_riccati", no_riccati)
        monkeypatch.setattr(linalg_module, "_bass_gain", lambda A, B, tol: np.zeros((1, 2)))
        with pytest.raises(SynthesisFailure, match="failed the Hurwitz check"):
            stabilize(A2, B2)

    def test_hurwitz_pair_both_gains_fail_on_gets_the_zero_gain(self):
        # B = [[B1], [1e-8 B2]] with A22 at -1e-8: the Riccati solve raises
        # and the Bass gain moves a mode to +2.6e-9, but A is Hurwitz
        A = np.array([
            [-3.0, -1.0, -1.0, 2.0],
            [2.0, -2.0, -2.0, 2.0],
            [0.0, 0.0, -1e-8, 2.0],
            [0.0, 0.0, 0.0, -1e-8],
        ])
        B = np.array([[-2.0], [0.0], [-1e-8], [0.0]])
        assert np.array_equal(stabilize(A, B), np.zeros((1, 4)))

    @given(seed=st.integers(0, 100_000), margin=st.sampled_from([1e-6, 1e-3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_stabilizable_uncontrollable_pairs_closed_loop_hurwitz(self, seed, margin):
        # an orthogonal similarity of [[A11, A12], [0, A22]], [[B1], [0]]
        # with (A11, B1) controllable and A22 Hurwitz by ``margin``
        rng = np.random.default_rng(seed)
        r, q, m = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        A11, B1 = random_controllable_pair(rng, r, m)
        A22 = rng.standard_normal((q, q))
        A22 -= (spectral_abscissa(A22) + margin) * np.eye(q)
        A = np.block([[A11, rng.standard_normal((r, q))], [np.zeros((q, r)), A22]])
        B = np.vstack([B1, np.zeros((q, m))])
        Q, _ = np.linalg.qr(rng.standard_normal((r + q, r + q)))
        A, B = Q @ A @ Q.T, Q @ B
        S = stabilize(A, B)
        assert is_hurwitz(A + B @ S).is_hurwitz

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_random_controllable_pairs_closed_loop_hurwitz(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        A, B = random_controllable_pair(rng, n, m)
        S = stabilize(A, B)
        assert is_hurwitz(A + B @ S).is_hurwitz


def _scipy_care(A, B):
    return scipy.linalg.solve_continuous_are(A, B, np.eye(len(A)), np.eye(B.shape[1]))


def _care_outcome(solve, A, B):
    """The bytes of P, or the class of what the solve raised, with warnings
    turned into errors."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = solve(A, B)
    except (ValueError, np.linalg.LinAlgError, Warning) as exc:
        return type(exc)
    return P.dtype, P.shape, P.tobytes()


class TestRiccatiBranches:
    """Explicit pairs that reach each branch at the end of `_riccati`, each
    bitwise scipy's solver.  Spies on the LAPACK wrappers show the branch
    taken; scipy's outcome is taken before they are installed."""

    @staticmethod
    def _spy(monkeypatch, name):
        seen = []
        f = getattr(linalg_module.lapack, name)

        def spy(*args, **kwargs):
            seen.append(f(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(linalg_module.lapack, name, spy)
        return seen

    def _outcomes(self, monkeypatch, A, B):
        expected = _care_outcome(_scipy_care, A, B)
        balanced = self._spy(monkeypatch, "dgebal")
        factored = self._spy(monkeypatch, "dgetrf")
        got = _care_outcome(_riccati, A, B)
        return expected, got, balanced[0][3], factored[0]

    def test_unit_scales_skip_the_rescaling_and_the_lu_pivots(self, monkeypatch):
        A, B = np.array([[0.0, 1.0], [-2.0, -3.0]]), np.array([[0.0], [1.0]])
        expected, got, scales, (_, piv, info) = self._outcomes(monkeypatch, A, B)
        assert (scales == 1).all()
        assert info == 0 and piv.tolist() != list(range(len(piv)))  # a row swap
        assert isinstance(got, tuple) and got == expected

    def test_power_of_two_scales_rescale(self, monkeypatch):
        A, B = np.array([[0.0, 1.0], [-2.0, -3.0]]), np.array([[0.0], [1e3]])
        expected, got, scales, _ = self._outcomes(monkeypatch, A, B)
        assert not (scales == 1).all()
        assert np.array_equal(np.exp2(np.round(np.log2(scales))), scales)
        assert isinstance(got, tuple) and got == expected

    def test_non_finite_input_raises_what_scipys_solver_raises(self):
        A, B = np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[1.0], [1.0]])
        assert _care_outcome(_riccati, A, B) is _care_outcome(_scipy_care, A, B) is ValueError

    def test_failed_reordering_raises_value_error(self, monkeypatch):
        dtgsen = linalg_module.lapack.dtgsen
        monkeypatch.setattr(linalg_module.lapack, "dtgsen",
                            lambda *args, **kwargs: (*dtgsen(*args, **kwargs)[:-1], 1))
        with pytest.raises(ValueError, match="reordering the QZ form failed"):
            _riccati(A2, B2)
        assert is_hurwitz(A2 + B2 @ stabilize(A2, B2)).is_hurwitz  # the Bass gain

    def test_singular_triangular_solve_raises_linalg_error(self, monkeypatch):
        dtrtrs = linalg_module.lapack.dtrtrs
        monkeypatch.setattr(linalg_module.lapack, "dtrtrs",
                            lambda *args, **kwargs: (dtrtrs(*args, **kwargs)[0], 1))
        with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
            _riccati(A2, B2)

    def test_singular_u00_raises_linalg_error(self, monkeypatch):
        # no input and unstable modes: the stable subspace of the pencil has
        # no graph form, and u00 is exactly singular
        A, B = np.diag([1.0, 2.0]), np.zeros((2, 1))
        expected, got, _, (_, _, info) = self._outcomes(monkeypatch, A, B)
        assert info > 0
        assert got is expected is np.linalg.LinAlgError


class TestExpEnvelope:
    def test_negative_identity_tight(self):
        env = exp_envelope(-np.eye(2), 0.5)
        assert env.C == pytest.approx(1.0, abs=1e-9)
        assert env.alpha == 0.5

    def test_non_normal_transient_growth(self):
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        env = exp_envelope(A, 0.5)
        # sampled oracle: the transient really does exceed the asymptote
        ts = np.linspace(0.0, 10.0, 200)
        sampled = max(
            np.linalg.norm(scipy.linalg.expm(t * A), 2) * math.exp(0.5 * t) for t in ts
        )
        assert sampled > 1.0
        assert env.C >= sampled / (1.0 + 1e-6)
        assert env.C > 1.0

    def test_rate_too_aggressive(self):
        with pytest.raises(RateTooAggressive):
            exp_envelope(np.diag([-0.1, -1.0]), 0.2)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(RateTooAggressive):
            exp_envelope(np.diag([0.5, -1.0]), 0.1)

    def test_indefinite_lyapunov_solution_raises(self, monkeypatch):
        monkeypatch.setattr(
            scipy.linalg, "solve_continuous_lyapunov", lambda a, q: np.diag([1.0, -1.0])
        )
        with pytest.raises(CertificateError, match="positive definite"):
            exp_envelope(-np.eye(2), 0.5)

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_non_positive_rate_rejected(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be positive$"):
            exp_envelope(-np.eye(2), alpha)

    def test_constant_below_the_sampled_norm_raises(self, monkeypatch):
        monkeypatch.setattr(linalg_module, "_lyapunov_constant", lambda A, alpha: 0.5)
        with pytest.raises(CertificateError, match="^certificate violated at t=0.0: "):
            exp_envelope(-np.eye(2), 0.5)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_certificate_samples_hold(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        R = rng.standard_normal((n, n))
        A = R - (spectral_abscissa(R) + 0.5 + rng.uniform(0, 1)) * np.eye(n)
        alpha = 0.5 * -spectral_abscissa(A)
        env = exp_envelope(A, alpha)
        assert env.C >= 1.0
        for t in np.linspace(0.0, 20.0 / alpha, 50):
            norm = np.linalg.norm(scipy.linalg.expm(t * A), 2)
            assert norm <= env.C * math.exp(-alpha * t) * (1.0 + 1e-6)


class TestRank:
    def test_chain_controllability_ranks(self):
        assert matrix_rank(controllability_matrix(A2, B2)) == 2
        assert matrix_rank(controllability_matrix(A3, B3)) == 2

    def test_rank_deficient(self):
        assert matrix_rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1

    def test_empty_matrix(self):
        assert matrix_rank(np.zeros((0, 3))) == 0


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(eps_solve=0.0)
    with pytest.raises(ValueError):
        Tolerances(eps_hurwitz=-1.0)


# ---------------------------------------------------------------------------
# The stacked kernels against plain per-item references, bit for bit.  The
# references are the one-call-per-item arithmetic the kernels replace.


def _ref_eigenvalues(A):
    """Eigenvalues lexsorted by (real, imag): one array for a matrix, one
    row per matrix of a stack, as `_sorted_eigenvalues` once sorted them."""
    eigs = np.linalg.eigvals(A).astype(complex)
    if eigs.ndim > 1:
        real = np.all(eigs.imag == 0, axis=-1)
        eigs[real] = eigs[real].real
        return np.take_along_axis(eigs, np.lexsort((eigs.imag, eigs.real), axis=-1), axis=-1)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def _ref_hurwitz(A, tol=DEFAULT_TOLERANCES):
    eigs = _ref_eigenvalues(A)
    abscissa = float(np.max(eigs.real))
    return HurwitzReport(abscissa, tuple(eigs), bool(abscissa < -tol.eps_hurwitz), tol.eps_hurwitz)


def _ref_pbh(A, B, tol=DEFAULT_TOLERANCES):
    n = len(A)
    for lam in _ref_eigenvalues(A):
        if lam.real < -tol.eps_hurwitz:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B.astype(complex)])
        s = np.linalg.svd(pencil, compute_uv=False)
        cutoff = tol.rank_cutoff * max(pencil.shape) * np.finfo(float).eps * s[0]
        if int(np.sum(s > cutoff)) < n:
            return StabilizabilityResult(False, witness=complex(lam))
    return StabilizabilityResult(True)


def _ref_solve(B, C, tol=DEFAULT_TOLERANCES):
    C2 = C[:, None] if C.ndim == 1 else C
    X, _, rank, _ = np.linalg.lstsq(B, C2, rcond=None)
    residual = float(np.linalg.norm(B @ X - C2))
    rel = residual / (1.0 + float(np.linalg.norm(C2)))
    return LinearSolveReport(X[:, 0] if C.ndim == 1 else X, residual, rel,
                             bool(rel <= tol.eps_solve), int(rank))


def _bits(value):
    """A string that tells apart any two different floats, -0.0 and 0.0 too."""
    if isinstance(value, (HurwitzReport, LinearSolveReport)):
        value = value.to_dict()
    if isinstance(value, StabilizabilityResult):
        value = (value.stabilizable, value.witness)
    return repr(value)


def _stacks(spec):
    """Every follower's (A, B), and the right-hand sides `check` and
    `analyze_pairs` solve against each follower's B."""
    decomp = decompose(spec)
    A_ref = spec.agent(decomp.renumbering[0]).A
    D = decomp.cumulative_offset
    followers = decomp.followers()
    rhs = {
        i: [A_ref - spec.agent(i).A, spec.agent(i).A @ D[i]]
        + [C for e in spec.edges if e.i == i
           for C in (spec.agent(e.j).A - spec.agent(i).A, spec.agent(i).A @ e.d)]
        for i in followers
    }
    A = np.array([spec.agent(i).A for i in followers])
    B = np.array([spec.agent(i).B for i in followers])
    return A, B, rhs


def _ref_union(blocks):
    """The reference block-diagonal spectrum: every block's eigenvalues
    from one stacked call, lexsorted as one array."""
    eigs = np.linalg.eigvals(blocks).astype(complex).reshape(-1)
    return eigs[np.lexsort((eigs.imag, eigs.real))]


def _spectral_item(rng, n):
    """A matrix from a family with exact ties, zero or purely imaginary
    eigenvalues, or a generic one."""
    family = rng.integers(5)
    if family == 0:  # integer
        return rng.integers(-3, 4, (n, n)).astype(float)
    if family == 1:  # skew-symmetric
        X = rng.standard_normal((n, n)) if rng.integers(2) else rng.integers(-3, 4, (n, n))
        return X - X.T
    if family == 2:  # a zero column
        X = rng.standard_normal((n, n))
        X[:, rng.integers(n)] = 0.0
        return X
    if family == 3:  # integer diagonal
        return np.diag(rng.integers(-2, 3, n).astype(float))
    return rng.standard_normal((n, n))


_INSTANCES = st.one_of(
    st.builds(lambda s: random_feasible_formation(s, max_nodes=12), st.integers(0, 10_000)),
    st.builds(lambda s: random_dag_formation(s, max_nodes=12, n=3, m=1), st.integers(0, 10_000)),
)


class TestStackedKernels:
    @given(spec=_INSTANCES)
    @settings(max_examples=12, deadline=None)
    def test_pbh_stack_is_bitwise_per_pair(self, spec):
        A, B, _ = _stacks(spec)
        B[::2] = 0.0  # mix in failing pairs, some with several failing modes
        stacked = is_stabilizable(A, B)
        assert [_bits(r) for r in stacked] == [_bits(_ref_pbh(a, b)) for a, b in zip(A, B)]

    @given(spec=_INSTANCES)
    @settings(max_examples=12, deadline=None)
    def test_hurwitz_stack_is_bitwise_per_matrix(self, spec):
        A, B, _ = _stacks(spec)
        for stack in (A, A - 3.0 * np.eye(A.shape[1])):
            reports = _hurwitz_reports(_sorted_eigenvalues(stack), DEFAULT_TOLERANCES)
            assert [_bits(r) for r in reports] == [_bits(_ref_hurwitz(a)) for a in stack]

    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), n=st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_stable_sort_is_bitwise_the_lexsort(self, seed, k, n):
        rng = np.random.default_rng(seed)
        stack = np.array([_spectral_item(rng, n) for _ in range(k)])
        assert _sorted_eigenvalues(stack).tobytes() == _ref_eigenvalues(stack).tobytes()
        for a in stack:
            assert eigenvalues(a).tobytes() == _ref_eigenvalues(a).tobytes()
            assert _bits(is_hurwitz(a)) == _bits(_ref_hurwitz(a))
        union = _ref_union(stack)
        abscissa = float(np.max(union.real))
        eps = DEFAULT_TOLERANCES.eps_hurwitz
        expected = HurwitzReport(abscissa, tuple(union), abscissa < -eps, eps)
        block = _is_block_triangular_hurwitz(scipy.linalg.block_diag(*stack), n, DEFAULT_TOLERANCES)
        assert _bits(block) == _bits(expected)
        assert np.array(block.eigenvalues).tobytes() == union.tobytes()

    @given(spec=_INSTANCES)
    @settings(max_examples=12, deadline=None)
    def test_block_solve_is_bitwise_per_block(self, spec):
        A, B, rhs = _stacks(spec)
        for b, blocks in zip(B, rhs.values()):
            reports = _solve_blocks(b, blocks)
            assert [_bits(r) for r in reports] == [_bits(_ref_solve(b, C)) for C in blocks]

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 6), rows=st.integers(1, 9),
           cols=st.integers(1, 9))
    @settings(max_examples=30, deadline=None)
    @example(seed=0, k=2, rows=4, cols=4)  # an einsum sum of squares differs here
    def test_norms_are_bitwise_linalg_norm(self, seed, k, rows, cols):
        Z = np.random.default_rng(seed).standard_normal((k, rows, cols))
        for stack in (Z, Z[:, :, 0]):  # matrices, and strided vectors
            expected = [float(np.linalg.norm(z)) for z in stack]
            assert _frobenius_norms(stack).tolist() == expected

    def test_uncontrollable_pair_names_its_first_failing_mode(self):
        A = np.array([np.diag([2.0, 1.0, -1.0]), np.diag([-3.0, 3.0, 0.5])])
        B = np.array([[[0.0], [0.0], [1.0]], [[0.0], [0.0], [1.0]]])
        first, second = is_stabilizable(A, B)
        assert not first and first.witness == 1.0
        assert not second and second.witness == 3.0
        assert [_bits(r) for r in (first, second)] == [_bits(_ref_pbh(a, b)) for a, b in zip(A, B)]

    def test_zero_input_matrix(self):
        A = np.array([np.diag([1.0, 2.0]), np.diag([-1.0, -2.0]), [[0.0, 1.0], [-1.0, 0.0]]])
        results = is_stabilizable(A, np.zeros((3, 2, 1)))
        assert [bool(r) for r in results] == [False, True, False]
        assert results[0].witness == 1.0 and results[2].witness == -1j
        report = _solve_blocks(np.zeros((2, 1)), (np.eye(2), np.ones(2)))
        assert [_bits(r) for r in report] == [
            _bits(_ref_solve(np.zeros((2, 1)), C)) for C in (np.eye(2), np.ones(2))]

    def test_empty_stacks(self):
        assert is_stabilizable(np.zeros((0, 2, 2)), np.zeros((0, 2, 1))) == ()
        assert _hurwitz_reports(_sorted_eigenvalues(np.zeros((0, 2, 2))), DEFAULT_TOLERANCES) == ()
        assert _frobenius_norms(np.zeros((0, 2))).shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        A = np.array([-np.eye(2), -np.eye(2)])
        A[1, 0, 1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            is_stabilizable(A, np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="infs or NaNs"):
            _sorted_eigenvalues(A)
        with pytest.raises(ValueError):
            _solve_blocks(A[1], (np.eye(2), np.ones(2)))

    def test_finite_data_that_overflows_names_its_item(self):
        # the second pair's eigenvalue 2e308 overflows; the third's pencil
        # A - zI at z = 1e308 overflows
        A = np.array([-np.eye(2), np.full((2, 2), 1e308), np.diag([-1.7e308, 1e308])])
        with pytest.raises(_FloatRangeError, match="float range") as exc:
            is_stabilizable(A, np.ones((3, 2, 1)))
        assert exc.value.item == 1
        with pytest.raises(_FloatRangeError, match="PBH pencil .* float range") as exc:
            is_stabilizable(A[::2], np.ones((2, 2, 1)))
        assert exc.value.item == 1
        # ||C|| of the second block overflows, though B X = C is solvable
        with np.errstate(over="ignore"), pytest.raises(_FloatRangeError, match="float range") as exc:
            _solve_blocks(np.ones((2, 1)), (np.eye(2), np.full((2, 2), 1e200)))
        assert exc.value.item == 1
        with pytest.raises(_FloatRangeError, match="float range"):
            solve_matrix_equation(np.ones((2, 1)), np.full((2, 2), 1e200))

    @pytest.mark.parametrize("layout", ["C", "F", "column"])
    def test_block_norms_are_bitwise_linalg_norm(self, layout):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 2))
        C = rng.standard_normal((5, 3))
        C = {"C": C, "F": np.asfortranarray(C), "column": C[:, 1]}[layout]
        assert [_bits(r) for r in _solve_blocks(B, (C, 2 * C))] == [
            _bits(_ref_solve(B, C)), _bits(_ref_solve(B, 2 * C))]

    def test_first_overflowing_block_is_named(self):
        huge = np.full((2, 2), 1e200)
        with np.errstate(over="ignore"):
            for blocks, item in (((huge, np.eye(2)), 0),
                                 ((np.eye(2), np.full(2, 1e300), huge), 1)):
                with pytest.raises(_FloatRangeError, match="float range") as exc:
                    _solve_blocks(np.ones((2, 1)), blocks)
                assert exc.value.item == item

    def test_stack_shapes_must_agree(self):
        with pytest.raises(ValueError, match="n x m"):
            is_stabilizable(np.zeros((2, 2, 2)), np.zeros((3, 2, 1)))
