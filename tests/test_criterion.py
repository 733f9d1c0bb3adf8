"""Stability criterion: the four conditions, classification, controller
verification, and the by-construction feasibility oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formstab import (
    AgentDynamics,
    ControllerSet,
    Edge,
    FollowerController,
    FormationSpec,
    SynthesisFailure,
    analyze_pairs,
    check,
    classify,
    controller_from_dict,
    controller_to_dict,
    cross_compare,
    decompose,
    synthesize,
    verify_controller,
)
from formstab.instances import (
    random_feasible_formation,
    random_in_tree_formation,
)
from formstab.pairwise import BOTH_STABLE


class TestChainInstance:
    def test_stable_with_expected_solutions(self, chain, chain_report):
        rep = chain_report
        assert rep.overall == "stable" and rep.stable
        assert np.allclose(rep.gain_solution(2).N, [[1.0, 1.0]], atol=1e-8)
        assert np.allclose(rep.gain_solution(3).N, [[1.0, 1.0]], atol=1e-8)
        assert rep.gain_solution(2).k_tilde[0] == pytest.approx(-1.0, abs=1e-8)
        assert rep.gain_solution(3).k_tilde[0] == pytest.approx(-4.0, abs=1e-8)

    def test_gain_solution_of_a_leader_is_a_key_error(self, chain_report):
        with pytest.raises(KeyError, match="node 1 is not a follower of this instance"):
            chain_report.gain_solution(1)

    def test_in_tree_classification(self, chain, chain_decomp, chain_report):
        assert classify(chain, chain_decomp) == "in_tree"
        assert chain_report.applicable_corollary == "in_tree"
        assert chain_report.condition3_vacuous
        assert all(c.passed for c in chain_report.condition3)

    def test_leader_report_informational_only(self, chain_report):
        # single leader: its unstable matrix must not flip the verdict
        c4 = chain_report.condition4
        assert not c4.binding
        assert not c4.hurwitz.is_hurwitz
        assert c4.passed
        assert chain_report.stable

    def test_never_short_circuits(self, chain_report):
        assert len(chain_report.condition1) == 2
        assert len(chain_report.condition2) == 2
        assert len(chain_report.condition3) == 2

    def test_serialization_shape(self, chain_report):
        data = chain_report.to_dict()
        assert data["overall"] == "stable"
        assert len(data["condition2"]) == 2
        table = chain_report.format_table()
        assert "verdict: stable" in table and "condition 4" in table


class TestFollowerDataTooLargeForFloats:
    # example 2 with one follower's A replaced by finite but huge entries
    @staticmethod
    def _with_follower_A(chain, i, A):
        agents = list(chain.agents)
        agents[i - 1] = AgentDynamics(A=A, B=chain.agent(i).B)
        return FormationSpec(n=2, m=1, agents=tuple(agents), edges=chain.edges)

    @pytest.mark.parametrize("A3", [
        # A_3 = A_ref - B_3 [1e200, 1e200]: the gain equation is exactly
        # solvable, but its residual and right-hand side norms overflow
        lambda chain: chain.agent(1).A - chain.agent(3).B @ np.array([[1e200, 1e200]]),
        # A_3 D_3 overflows as the offset equation is built
        lambda chain: np.diag([-1e308, -1e308]),
    ], ids=["solvable_gain_equation", "offset_product"])
    def test_follower_equation_that_overflows_is_named(self, chain, A3):
        spec = self._with_follower_A(chain, 3, A3(chain))
        for analysis in (lambda: check(spec, decompose(spec)), lambda: analyze_pairs(spec)):
            with pytest.raises(ValueError, match="^follower 3: .* float range"):
                analysis()

    def test_pbh_test_that_overflows_is_named(self, chain):
        # the eigenvalue 2e308 of A_2 overflows
        spec = self._with_follower_A(chain, 2, np.full((2, 2), 1e308))
        with pytest.raises(ValueError, match="^follower 2: the PBH pencil .* float range"):
            check(spec, decompose(spec))


class TestBadTriangle:
    def test_unstable_with_exact_defect(self, bad_triangle):
        dec = decompose(bad_triangle)
        rep = check(bad_triangle, dec)
        assert rep.overall == "unstable"
        failed = [c for c in rep.condition3 if not c.passed]
        assert [c.edge for c in failed] == [(3, 1)]
        d = bad_triangle.displacement(3, 1)
        assert np.max(np.abs(failed[0].defect + d)) <= 1e-12

    def test_other_conditions_pass(self, bad_triangle):
        rep = check(bad_triangle, decompose(bad_triangle))
        assert all(c.passed for c in rep.condition1)
        assert all(c.passed for c in rep.condition2)

    def test_defect_scale_that_overflows_is_an_error_not_a_pass(self, bad_triangle):
        # scaled by 1e200 the displacements stay finite, but the scale
        # 1 + ||A_ref|| + max ||d_ij|| overflows, and against an infinite
        # scale the (3, 1) defect would pass condition 3
        spec = FormationSpec(
            n=2, m=1, agents=bad_triangle.agents,
            edges=tuple(Edge(e.i, e.j, e.d * 1e200) for e in bad_triangle.edges))
        with pytest.raises(ValueError, match="defect scale"):
            check(spec, decompose(spec))


class TestFork:
    def test_unstable_via_displacement_only(self, fork):
        dec = decompose(fork)
        rep = check(fork, dec)
        assert not rep.stable
        assert rep.applicable_corollary == "multi_leader"
        assert all(c.passed for c in rep.condition1)
        assert all(c.passed for c in rep.condition2)
        assert [c.edge for c in rep.condition3 if not c.passed] == [(3, 1)]
        assert rep.condition4.binding and rep.condition4.passed

    def test_leader_mismatch_fails_condition4(self, fork):
        agents = list(fork.agents)
        agents[1] = AgentDynamics(A=np.diag([-1.0, -3.0]), B=agents[1].B)
        spec = FormationSpec(n=2, m=1, agents=tuple(agents), edges=fork.edges)
        rep = check(spec, decompose(spec))
        assert not rep.condition4.passed
        assert rep.condition4.defects[2] > 0.1

    def test_condition1_implied_on_feasible_multi_leader(self):
        for seed in range(60):
            spec = random_feasible_formation(seed)
            dec = decompose(spec)
            if dec.l0 > 1:
                rep = check(spec, dec)
                assert rep.stable
                assert all(c.implied for c in rep.condition1)
                return
        pytest.fail("no multi-leader draw in 60 seeds")


class TestClassify:
    def test_chain_fork_triangle(self, chain, fork, good_triangle):
        assert classify(chain, decompose(chain)) == "in_tree"
        assert classify(fork, decompose(fork)) == "multi_leader"
        assert classify(good_triangle, decompose(good_triangle)) == "none"


class TestFeasibilityOracle:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_by_construction_instances_are_stable(self, seed):
        spec = random_feasible_formation(seed)
        rep = check(spec, decompose(spec))
        assert rep.stable

    def test_rejected_follower_draws_are_redrawn(self, monkeypatch):
        # a near-singular A_i and a failed gain synthesis each make the
        # generator draw the follower again; the instance stays stable
        from formstab import instances

        calls = {"svd": 0, "stabilize": 0}
        svd, stabilize = np.linalg.svd, instances.stabilize

        def near_singular_first(a, *args, **kwargs):
            calls["svd"] += 1
            return np.array([1.0, 0.0]) if calls["svd"] == 1 else svd(a, *args, **kwargs)

        def failing_first(A, B, *args):
            calls["stabilize"] += 1
            if calls["stabilize"] == 1:
                raise SynthesisFailure("refused")
            return stabilize(A, B, *args)

        monkeypatch.setattr(np.linalg, "svd", near_singular_first)
        monkeypatch.setattr(instances, "stabilize", failing_first)
        spec = random_feasible_formation(0)
        monkeypatch.undo()
        assert calls["svd"] >= 3 and calls["stabilize"] >= 2
        assert check(spec, decompose(spec)).stable

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_in_tree_condition3_never_fails(self, seed):
        spec = random_in_tree_formation(seed)
        rep = check(spec, decompose(spec))
        assert all(c.passed for c in rep.condition3)
        assert rep.condition3_vacuous


class TestRenumberingInvariance:
    def test_permuted_chain_same_content(self, chain, chain_report):
        # relabel 1->3, 2->1, 3->2: edges (1,3),(2,1); report keys follow
        perm = {1: 3, 2: 1, 3: 2}
        agents = [None] * 3
        for old, new in perm.items():
            agents[new - 1] = chain.agent(old)
        spec = FormationSpec(
            n=2,
            m=1,
            agents=tuple(agents),
            edges=tuple(Edge(perm[e.i], perm[e.j], e.d) for e in chain.edges),
        )
        rep = check(spec, decompose(spec))
        assert rep.overall == chain_report.overall
        assert rep.applicable_corollary == chain_report.applicable_corollary
        for old in (2, 3):
            orig = chain_report.gain_solution(old)
            new = rep.gain_solution(perm[old])
            assert np.allclose(new.N, orig.N, atol=1e-12)
            assert np.allclose(new.k_tilde, orig.k_tilde, atol=1e-12)


class TestVerifyController:
    def test_synthesized_controller_passes(self, chain, chain_decomp, chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        ver = verify_controller(chain, chain_decomp, ctrl)
        assert ver.passed
        assert ver.max_matrix_defect <= 1e-10
        assert ver.max_offset_defect <= 1e-10

    def test_defect_scale_that_overflows_is_an_error(self, chain, chain_decomp,
                                                      chain_report):
        ctrl = synthesize(chain, chain_decomp, chain_report)
        huge = FormationSpec(
            n=2, m=1, agents=chain.agents,
            edges=tuple(Edge(e.i, e.j, e.d * 1e200) for e in chain.edges))
        with pytest.raises(ValueError, match="defect scale"):
            verify_controller(huge, decompose(huge), ctrl)

    def test_zero_controller_fails(self, chain, chain_decomp):
        zero = ControllerSet(
            n=2,
            m=1,
            followers={
                i: FollowerController(
                    S=np.zeros((1, 2)),
                    K={s: np.zeros((1, 2)) for s in chain.parents(i)},
                    k=np.zeros(1),
                    k_tilde=np.zeros(1),
                )
                for i in (2, 3)
            },
        )
        ver = verify_controller(chain, chain_decomp, zero)
        assert not ver.passed
        # closed-loop matrices differ across the (2, 1) edge: A_2 != A_1
        assert ver.edge_matrix_defects[(2, 1)] == pytest.approx(
            np.linalg.norm(chain.agent(2).A - chain.agent(1).A)
        )

    def test_stored_aggregate_gain_is_not_trusted(self, chain, chain_decomp, chain_report):
        # zero K_21 and write an N that contradicts the law: the loaded N is
        # derived from S and K, and the law simulate runs no longer matches
        # the criterion's aggregate gain
        data = controller_to_dict(synthesize(chain, chain_decomp, chain_report))
        doc = data["followers"]["2"]
        doc["K"]["1"] = [[0.0, 0.0]]
        doc["N"] = [[7.0, -3.0]]
        tampered = controller_from_dict(data)
        assert np.array_equal(tampered.gains(2).N, np.array(doc["S"]) + np.array(doc["K"]["1"]))
        ver = verify_controller(chain, chain_decomp, tampered)
        assert not ver.passed
        assert ver.edge_matrix_defects[(2, 1)] > 1.0

    @pytest.mark.parametrize("field", ["K", "k"])
    def test_nan_gain_or_offset_fails(self, good_triangle, field):
        # the edges are (2, 1), (3, 2), (3, 1): the first defect stays
        # finite, and a NaN after it must still fail the check
        dec = decompose(good_triangle)
        data = controller_to_dict(synthesize(good_triangle, dec, check(good_triangle, dec)))
        if field == "K":
            data["followers"]["3"]["K"]["2"][0][0] = float("nan")
        else:
            data["followers"]["3"]["k"][0] = float("nan")
        ver = verify_controller(good_triangle, dec, controller_from_dict(data))
        assert not ver.passed
        assert ver.edge_offset_defects[(2, 1)] == 0.0
        assert np.isnan(ver.max_offset_defect)
        assert np.isnan(ver.max_matrix_defect) == (field == "K")

    def test_nan_own_state_gain_fails_and_raises_nothing(self, good_triangle):
        dec = decompose(good_triangle)
        ctrl = synthesize(good_triangle, dec, check(good_triangle, dec))
        data = controller_to_dict(ctrl)
        data["followers"]["3"]["S"][0][0] = float("nan")
        ver = verify_controller(good_triangle, dec, controller_from_dict(data))
        assert not ver.passed
        loop = ver.follower_hurwitz[3]
        assert np.isnan(loop.spectral_abscissa) and not loop.is_hurwitz
        clean = verify_controller(good_triangle, dec, ctrl)
        assert ver.follower_hurwitz[2] == clean.follower_hurwitz[2]

    def test_single_agent_vacuous(self):
        spec = FormationSpec(
            n=1,
            m=1,
            agents=(AgentDynamics(A=[[-1.0]], B=[[1.0]]),),
            edges=(),
        )
        dec = decompose(spec)
        ver = verify_controller(spec, dec, ControllerSet(n=1, m=1, followers={}))
        assert ver.passed
        assert ver.max_matrix_defect == 0.0 and ver.max_offset_defect == 0.0

    def test_single_agent_has_empty_stacks(self):
        # no follower and no edge: every stacked kernel gets an empty stack
        spec = FormationSpec(n=2, m=1, agents=(AgentDynamics(A=np.eye(2), B=[[0.0], [1.0]]),),
                             edges=())
        dec = decompose(spec)
        rep = check(spec, dec)
        assert rep.stable and rep.condition1 == rep.condition2 == rep.condition3 == ()
        assert rep.scale == 1.0 + np.sqrt(2.0)
        cross = cross_compare(spec, dec)
        assert cross.pattern == BOTH_STABLE and analyze_pairs(spec).edges == ()
        ctrl = synthesize(spec, dec, rep)
        assert verify_controller(spec, dec, ctrl).follower_hurwitz == {}

    def test_dimension_mismatch(self, chain, chain_decomp):
        with pytest.raises(ValueError):
            verify_controller(chain, chain_decomp, ControllerSet(n=3, m=1, followers={}))

    @pytest.mark.parametrize("edit,message", [
        (lambda fc: fc["K"].update({"1": [[1.0, 2.0, 3.0]]}),
         "follower 2: K for parent 1 has shape (1, 3)"),
        (lambda fc: fc.update(k=[1.0, 2.0]), "follower 2: k has shape (2,)"),
    ], ids=["K", "k"])
    def test_wrong_shaped_parent_gain_or_offset_is_named(self, good_triangle, edit, message):
        dec = decompose(good_triangle)
        data = controller_to_dict(synthesize(good_triangle, dec, check(good_triangle, dec)))
        edit(data["followers"]["2"])
        with pytest.raises(ValueError) as excinfo:
            verify_controller(good_triangle, dec, controller_from_dict(data))
        assert str(excinfo.value) == message
