"""Controller construction: default synthesis, the state-only form,
control evaluation, and family sampling."""

import dataclasses

import numpy as np
import pytest

from formstab import (
    ControllerSet,
    DEFAULT_TOLERANCES,
    MissingStateError,
    NotStableError,
    PARENT_ONLY,
    SplitStrategy,
    SynthesisFailure,
    UNIFORM,
    check,
    control_input,
    controller_from_dict,
    controller_to_dict,
    state_only_controller,
    decompose,
    enumerate_family,
    is_hurwitz,
    synthesize,
    verify_controller,
)
from formstab import linalg as linalg_module
from formstab import synthesis as synthesis_module
from formstab.instances import random_feasible_formation


class TestSynthesize:
    def test_parent_only_structure(self, chain, chain_decomp, chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        for i in (2, 3):
            fc = ctrl.gains(i)
            parent = chain_decomp.parent[i]
            assert set(fc.K) == {parent}
            assert np.allclose(fc.K[parent], fc.N - fc.S, atol=1e-12)
            D = chain_decomp.cumulative_offset
            expected_k = fc.k_tilde + fc.S @ D[i] + fc.K[parent] @ D[parent]
            assert np.allclose(fc.k, expected_k, atol=1e-12)
            assert is_hurwitz(chain.agent(i).A + chain.agent(i).B @ fc.S).is_hurwitz

    def test_construction_identities(self, chain, chain_decomp, chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        D = chain_decomp.cumulative_offset
        for i, fc in ctrl.followers.items():
            assert np.allclose(sum(fc.K.values()), fc.N - fc.S, atol=1e-12)
            recon = fc.k_tilde + fc.S @ D[i] + sum(Ks @ D[s] for s, Ks in fc.K.items())
            assert np.allclose(fc.k, recon, atol=1e-12)

    def test_uniform_equals_parent_only_for_single_parent(
        self, chain, chain_decomp, chain_report
    ):
        a = synthesize(chain, chain_decomp, chain_report)
        b = synthesize(chain, chain_decomp, chain_report, UNIFORM)
        for i in (2, 3):
            assert np.allclose(a.gains(i).K[chain_decomp.parent[i]],
                               b.gains(i).K[chain_decomp.parent[i]])

    def test_refuses_unstable_instance(self, bad_triangle):
        dec = decompose(bad_triangle)
        rep = check(bad_triangle, dec)
        with pytest.raises(NotStableError):
            synthesize(bad_triangle, dec, rep)

    def test_custom_weights(self, good_triangle):
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)
        strategy = SplitStrategy("custom", weights={3: {1: 0.25, 2: 0.75}, 2: {1: 1.0}})
        ctrl = synthesize(good_triangle, dec, rep, strategy)
        fc = ctrl.gains(3)
        assert np.allclose(fc.K[1], 0.25 * (fc.N - fc.S), atol=1e-12)
        assert np.allclose(fc.K[2], 0.75 * (fc.N - fc.S), atol=1e-12)
        assert verify_controller(good_triangle, dec, ctrl).passed

    def test_custom_weights_validation(self, good_triangle):
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)
        with pytest.raises(ValueError):
            synthesize(good_triangle, dec, rep,
                       SplitStrategy("custom", weights={3: {1: 0.5, 2: 0.75}, 2: {1: 1.0}}))
        with pytest.raises(ValueError):
            SplitStrategy("sideways")

    @pytest.mark.parametrize("weights,message", [
        ({3: {1: 0.5, 2: 0.5}}, "custom strategy is missing weights for follower 2"),
        ({3: {1: 0.5, 2: 0.5}, 2: {1: 1.0, 3: 0.5}},
         "weights for follower 2 reference non-parents [3]"),
    ], ids=["missing_follower", "non_parent"])
    def test_custom_weights_name_their_fault(self, good_triangle, weights, message):
        dec = decompose(good_triangle)
        with pytest.raises(ValueError) as exc:
            SplitStrategy("custom", weights=weights).resolve(good_triangle, dec)
        assert str(exc.value) == message


class TestNoRepeatedPbhTest:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_synthesize_runs_no_pbh_test(self, monkeypatch, seed):
        # check() already ran PBH per follower; a Hurwitz A + B S certifies
        # stabilizability, so synthesis needs no second test
        spec = random_feasible_formation(seed, max_nodes=15)
        dec = decompose(spec)
        rep = check(spec, dec)
        matrices = []  # every A that reaches the stacked PBH kernel
        original = linalg_module._pbh_results

        def counting(A, B, tol):
            matrices.extend(A)
            return original(A, B, tol)

        monkeypatch.setattr(linalg_module, "_pbh_results", counting)
        ctrl = synthesize(spec, dec, rep)
        assert verify_controller(spec, dec, ctrl).passed
        assert matrices == []


def _stable_multi_leader():
    for seed in range(80):
        spec = random_feasible_formation(seed)
        dec = decompose(spec)
        if dec.l0 > 1:
            return spec, dec, check(spec, dec)
    pytest.fail("no multi-leader draw")


class TestVerificationFailure:
    def test_every_construction_raises_with_both_defects(self, monkeypatch):
        # all three constructors share one assemble-and-verify step
        real = synthesis_module.verify_controller

        def failing(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), passed=False)

        monkeypatch.setattr(synthesis_module, "verify_controller", failing)
        spec, dec, rep = _stable_multi_leader()
        for build in (
            lambda: synthesize(spec, dec, rep),
            lambda: state_only_controller(spec, dec, rep),
            lambda: enumerate_family(spec, dec, rep, 3),
        ):
            with pytest.raises(SynthesisFailure, match="matrix defect .* offset defect"):
                build()


class TestStateOnlyForm:
    def test_state_only_form(self):
        spec, dec, rep = _stable_multi_leader()
        ctrl = state_only_controller(spec, dec, rep)
        D = dec.cumulative_offset
        for i, fc in ctrl.followers.items():
            assert np.allclose(fc.S, fc.N, atol=1e-12)
            for Ks in fc.K.values():
                assert np.allclose(Ks, 0.0, atol=1e-12)
            assert np.allclose(fc.k, fc.N @ D[i] + fc.k_tilde, atol=1e-10)
        assert verify_controller(spec, dec, ctrl).passed

    def test_needs_no_parent_states(self):
        spec, dec, rep = _stable_multi_leader()
        ctrl = state_only_controller(spec, dec, rep)
        i = dec.followers()[0]
        x = np.ones(spec.n)
        u = control_input(ctrl, i, {i: x})  # parent states deliberately absent
        fc = ctrl.gains(i)
        assert np.allclose(u, fc.N @ x + fc.k)

    def test_refused_without_hurwitz_reference(self, chain, chain_decomp, chain_report):
        with pytest.raises(NotStableError):
            state_only_controller(chain, chain_decomp, chain_report)


class TestControlInput:
    def test_ideal_states_give_derived_offset(self, chain, chain_decomp, chain_report):
        # at x_i = -D_i the parent terms cancel and u_i reduces to kt_i
        ctrl = synthesize(chain, chain_decomp, chain_report)
        states = {i: -chain_decomp.cumulative_offset[i] for i in chain.nodes}
        for i in (2, 3):
            u = control_input(ctrl, i, states)
            assert np.allclose(u, ctrl.gains(i).k_tilde, atol=1e-12)

    def test_stacked_rows_match_row_by_row(self, good_triangle):
        spec = good_triangle
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec), UNIFORM)
        rng = np.random.default_rng(4)
        rows = {i: rng.standard_normal((5, spec.n)) for i in spec.nodes}
        for i in dec.followers():
            stacked = control_input(ctrl, i, rows)
            assert stacked.shape == (5, spec.m)
            for r in range(5):
                one = control_input(ctrl, i, {s: x[r] for s, x in rows.items()})
                assert np.allclose(stacked[r], one, rtol=1e-14, atol=1e-14)

    def test_zero_controller(self, chain):
        zero = ControllerSet(n=2, m=1, followers={})
        assert np.array_equal(control_input(zero, 2, {}), np.zeros(1))

    def test_missing_state(self, chain, chain_decomp, chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        with pytest.raises(MissingStateError):
            control_input(ctrl, 3, {3: np.zeros(2)})
        with pytest.raises(MissingStateError):
            control_input(ctrl, 3, {2: np.zeros(2)})


class TestFamily:
    @pytest.mark.parametrize("split", [PARENT_ONLY, UNIFORM], ids=["parent_only", "uniform"])
    def test_synthesize_is_member_zero(self, good_triangle, split):
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)
        family = synthesis_module._enumerate_family(
            good_triangle, dec, rep, 4, 7, DEFAULT_TOLERANCES, split)
        expected = controller_to_dict(synthesize(good_triangle, dec, rep, split))
        assert controller_to_dict(family[0][0]) == expected
        if split is PARENT_ONLY:
            public = enumerate_family(good_triangle, dec, rep, 4, rng=7)
            assert controller_to_dict(public[0]) == expected
        else:  # the two-parent follower makes the splits differ
            assert expected != controller_to_dict(synthesize(good_triangle, dec, rep))

    def test_synthesize_sets_up_no_sampler(self, good_triangle, monkeypatch):
        dec = decompose(good_triangle)
        rep = check(good_triangle, dec)

        def refused(*args, **kwargs):
            raise AssertionError("synthesize set up the family sampler")

        monkeypatch.setattr(synthesis_module.scipy.linalg, "null_space", refused)
        monkeypatch.setattr(synthesis_module.np.random, "default_rng", refused)
        assert verify_controller(good_triangle, dec, synthesize(good_triangle, dec, rep)).passed

    def test_single_sample_equals_default(self, chain, chain_decomp, chain_report):
        only = enumerate_family(chain, chain_decomp, chain_report, 1, rng=7)
        base = synthesize(chain, chain_decomp, chain_report)
        assert len(only) == 1
        for i in (2, 3):
            assert np.allclose(only[0].gains(i).S, base.gains(i).S)
            assert np.allclose(only[0].gains(i).k, base.gains(i).k)

    def test_ten_members_all_verify_with_distinct_gains(
        self, chain, chain_decomp, chain_report
    ):
        family = enumerate_family(chain, chain_decomp, chain_report, 10, rng=3)
        assert len(family) == 10
        for ctrl in family:
            assert verify_controller(chain, chain_decomp, ctrl).passed
        s2 = [tuple(np.round(c.gains(2).S.ravel(), 9)) for c in family]
        assert len(set(s2)) >= 2

    def test_rejected_draws_fall_back_to_the_base_gain(
        self, chain, chain_decomp, chain_report, monkeypatch
    ):
        rejecting = dataclasses.replace(is_hurwitz(-np.eye(1)), is_hurwitz=False)
        monkeypatch.setattr(synthesis_module, "is_hurwitz", lambda *args: rejecting)
        family = enumerate_family(chain, chain_decomp, chain_report, 3, rng=2)
        for ctrl in family[1:]:
            for i in (2, 3):
                assert np.array_equal(ctrl.gains(i).S, family[0].gains(i).S)

    def test_determinism(self, chain, chain_decomp, chain_report):
        a = enumerate_family(chain, chain_decomp, chain_report, 4, rng=11)
        b = enumerate_family(chain, chain_decomp, chain_report, 4, rng=11)
        for ca, cb in zip(a, b):
            for i in (2, 3):
                assert np.array_equal(ca.gains(i).S, cb.gains(i).S)
                assert np.array_equal(ca.gains(i).N, cb.gains(i).N)
                assert np.array_equal(ca.gains(i).k, cb.gains(i).k)

    def test_full_column_rank_input_pins_gain(self, chain, chain_decomp, chain_report):
        # null(B_i) = {0} for the chain followers, so N_i never varies
        family = enumerate_family(chain, chain_decomp, chain_report, 6, rng=5)
        for ctrl in family[1:]:
            for i in (2, 3):
                assert np.allclose(ctrl.gains(i).N, family[0].gains(i).N, atol=1e-12)

    def test_kernel_directions_vary_the_gain(self):
        # wide input matrix with a nontrivial kernel: the family moves N_i
        # without moving B_i N_i
        from formstab import AgentDynamics, Edge, FormationSpec

        A1 = np.diag([1.0, -1.0])
        B = np.array([[1.0, 1.0], [0.0, 0.0]])  # rank 1, null = span (1, -1)
        N = np.array([[0.5, 0.0], [0.0, 0.5]])
        A2 = A1 - B @ N
        spec = FormationSpec(
            n=2,
            m=2,
            agents=(
                AgentDynamics(A=A1, B=np.eye(2)),
                AgentDynamics(A=A2, B=B),
            ),
            edges=(Edge(2, 1, [1.0, 0.0]),),
        )
        dec = decompose(spec)
        rep = check(spec, dec)
        assert rep.stable
        family = enumerate_family(spec, dec, rep, 5, rng=2)
        Ns = [ctrl.gains(2).N for ctrl in family]
        assert any(not np.allclose(Ns[0], Nk) for Nk in Ns[1:])
        for Nk in Ns:
            assert np.allclose(B @ Nk, B @ Ns[0], atol=1e-10)


class TestControllerSerialization:
    def test_round_trip_lossless(self, chain, chain_decomp, chain_report, tmp_path):
        from formstab import load_controller, save_controller

        ctrl = synthesize(chain, chain_decomp, chain_report)
        path = tmp_path / "ctrl.json"
        save_controller(ctrl, path)
        back = load_controller(path)
        for i in (2, 3):
            a, b = ctrl.gains(i), back.gains(i)
            assert np.array_equal(a.S, b.S)
            assert np.array_equal(a.k, b.k)
            assert np.array_equal(a.N, b.N)
            assert np.array_equal(a.k_tilde, b.k_tilde)
            assert set(a.K) == set(b.K)
            for s in a.K:
                assert np.array_equal(a.K[s], b.K[s])

    def test_dict_round_trip(self, chain, chain_decomp, chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        again = controller_from_dict(controller_to_dict(ctrl))
        assert np.array_equal(again.gains(3).S, ctrl.gains(3).S)
