"""Two-agent subformation analysis and formation-vs-pairwise comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formstab import (
    AgentDynamics,
    Edge,
    FormationSpec,
    FormationValidationError,
    analyze_pairs,
    check,
    cross_compare,
    decompose,
    formation_from_dict,
    formation_to_dict,
    solve_matrix_equation,
    validate,
)
from formstab import linalg as linalg_module
from formstab.instances import random_feasible_formation
from formstab.pairwise import (
    BOTH_STABLE,
    BOTH_UNSTABLE,
    FORMATION_STABLE_PAIR_UNSTABLE,
    PAIRS_STABLE_FORMATION_UNSTABLE,
)


class TestAnalyzePairs:
    def test_bad_triangle_all_pairs_stable(self, bad_triangle):
        rep = analyze_pairs(bad_triangle)
        assert rep.all_stable
        for entry in rep.edges:
            assert np.allclose(entry.gain_solve.solution, 0.0, atol=1e-12)
            assert entry.offset_solve.solution[0] == pytest.approx(1.0)

    def test_chain_edges(self, chain):
        rep = analyze_pairs(chain)
        assert rep.entry((2, 1)).stable
        bad = rep.entry((3, 2))
        assert not bad.stable
        assert not bad.gain_solve.solvable and bad.gain_solve.relative_residual > 1e-2
        assert not bad.offset_solve.solvable and bad.offset_solve.relative_residual > 1e-2

    def test_entry_of_a_missing_edge_is_a_key_error(self, chain):
        with pytest.raises(KeyError, match=r"edge \(1, 2\) not in report"):
            analyze_pairs(chain).entry((1, 2))

    def test_trivial_identical_agents_zero_displacement(self):
        ag = AgentDynamics(A=-np.eye(2), B=[[1.0], [0.0]])
        spec = FormationSpec(n=2, m=1, agents=(ag, ag), edges=(Edge(2, 1, [0.0, 0.0]),))
        rep = analyze_pairs(spec)
        entry = rep.entry((2, 1))
        assert entry.stable
        assert np.allclose(entry.gain_solve.solution, 0.0, atol=1e-12)
        assert np.allclose(entry.offset_solve.solution, 0.0, atol=1e-12)

    @pytest.mark.parametrize("where,value", [
        (("agents", 2, "B"), np.nan), (("agents", 0, "A"), np.nan), (("edges", 0, "d"), np.inf),
    ], ids=["B_3", "A_1", "d_21"])
    def test_non_finite_data_raises_validates_violations(self, chain, capfd, where, value):
        # an unvalidated spec: its NaN or inf used to read as an overflow
        doc = formation_to_dict(chain)
        kind, idx, key = where
        row = doc[kind][idx][key]
        (row if kind == "edges" else row[0])[0] = value
        spec = formation_from_dict(doc)
        with pytest.raises(FormationValidationError) as exc:
            analyze_pairs(spec)
        assert exc.value.kinds() == {"non_finite"}
        with pytest.raises(FormationValidationError) as validated:
            validate(spec)
        assert exc.value.violations == validated.value.violations
        assert "DLASCL" not in capfd.readouterr().err

    def test_wrong_shaped_matrix_raises_validates_violation(self, chain):
        # an unvalidated spec: stacking its matrices used to raise numpy's
        # unnamed "inhomogeneous shape" ValueError
        doc = formation_to_dict(chain)
        doc["agents"][2]["B"] = [[1.0, 0.0], [2.0, 0.0]]
        spec = formation_from_dict(doc)
        with pytest.raises(FormationValidationError) as exc:
            analyze_pairs(spec)
        assert [str(v) for v in exc.value.violations] == [
            "dimension_mismatch: agent 3: B has shape (2, 2), expected (2, 1)"]
        with pytest.raises(FormationValidationError) as validated:
            validate(spec)
        assert exc.value.violations == validated.value.violations

    def test_numbering_invariance(self, chain):
        perm = {1: 2, 2: 3, 3: 1}
        agents = [None] * 3
        for old, new in perm.items():
            agents[new - 1] = chain.agent(old)
        permuted = FormationSpec(
            n=2, m=1, agents=tuple(agents),
            edges=tuple(Edge(perm[e.i], perm[e.j], e.d) for e in chain.edges),
        )
        orig = {e.edge: e.stable for e in analyze_pairs(chain).edges}
        new = {e.edge: e.stable for e in analyze_pairs(permuted).edges}
        assert new == {(perm[i], perm[j]): v for (i, j), v in orig.items()}


class TestCrossCompare:
    def test_bad_triangle_pattern(self, bad_triangle):
        res = cross_compare(bad_triangle, decompose(bad_triangle))
        assert res.pattern == PAIRS_STABLE_FORMATION_UNSTABLE

    def test_chain_pattern(self, chain, chain_decomp):
        res = cross_compare(chain, chain_decomp)
        assert res.pattern == FORMATION_STABLE_PAIR_UNSTABLE

    def test_feasible_in_tree_both_stable(self):
        for seed in range(30):
            spec = random_feasible_formation(seed)
            dec = decompose(spec)
            if dec.l0 == 1 and all(len(spec.parents(i)) == 1 for i in dec.followers()):
                res = cross_compare(spec, dec)
                # reference-leader matrices equal the parent chain's only if
                # parents are leaders; both verdicts need not agree in
                # general, but formation stability is guaranteed
                assert res.formation_stable
                return
        pytest.skip("no single-leader in-tree draw in 30 seeds")

    def test_both_stable_two_level_star(self):
        # followers hang directly off the single leader with consistent
        # dynamics: pairwise and formation verdicts coincide
        rng = np.random.default_rng(3)
        A1 = rng.standard_normal((2, 2))
        agents = [AgentDynamics(A=A1, B=rng.standard_normal((2, 1)))]
        edges = []
        D = {1: np.zeros(2)}
        for i in (2, 3):
            B = rng.standard_normal((2, 1))
            N = rng.standard_normal((1, 2))
            A = A1 - B @ N
            kt = rng.standard_normal(1)
            D[i] = np.linalg.solve(A, B @ kt)
            agents.append(AgentDynamics(A=A, B=B))
            edges.append(Edge(i, 1, D[i] - D[1]))
        spec = FormationSpec(n=2, m=1, agents=tuple(agents), edges=tuple(edges))
        res = cross_compare(spec, decompose(spec))
        assert res.pattern == BOTH_STABLE

    def test_both_unstable(self, bad_triangle):
        # break agent 3 so the (3, *) pairs and the formation both fail
        agents = list(bad_triangle.agents)
        agents[2] = AgentDynamics(A=np.diag([1.0, 2.0]), B=np.zeros((2, 1)))
        spec = FormationSpec(n=2, m=1, agents=tuple(agents), edges=bad_triangle.edges)
        res = cross_compare(spec, decompose(spec))
        assert res.pattern == BOTH_UNSTABLE


class TestAgreementWithCriterion:
    def test_leader_parent_edges_coincide_with_criterion_equation(self):
        # two-level star: every edge's parent is the reference leader, so
        # the pairwise gain equation is literally the criterion's
        rng = np.random.default_rng(8)
        A1 = rng.standard_normal((3, 3))
        agents = [AgentDynamics(A=A1, B=rng.standard_normal((3, 2)))]
        edges = []
        for i in (2, 3, 4):
            B = rng.standard_normal((3, 2))
            agents.append(AgentDynamics(A=A1 - B @ rng.standard_normal((2, 3)), B=B))
            edges.append(Edge(i, 1, rng.standard_normal(3)))
        spec = FormationSpec(n=3, m=2, agents=tuple(agents), edges=tuple(edges))
        dec = decompose(spec)
        crit = check(spec, dec)
        pw = analyze_pairs(spec)
        for i in (2, 3, 4):
            a = crit.gain_solution(i).gain_solve
            b = pw.entry((i, 1)).gain_solve
            assert np.allclose(a.solution, b.solution, atol=1e-10)
            assert a.solvable == b.solvable

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_pairwise_gain_matches_direct_solve(self, seed):
        spec = random_feasible_formation(seed)
        pw = analyze_pairs(spec)
        for e in spec.edges:
            direct = solve_matrix_equation(
                spec.agent(e.i).B, spec.agent(e.j).A - spec.agent(e.i).A
            )
            assert pw.entry(e.key).gain_solve.solvable == direct.solvable


class TestOnePbhTestPerFollower:
    @pytest.fixture
    def pbh_matrices(self, monkeypatch):
        """Every A that reaches the stacked PBH kernel, in order."""
        seen = []
        original = linalg_module._pbh_results

        def counting(A, B, tol):
            seen.extend(A)
            return original(A, B, tol)

        monkeypatch.setattr(linalg_module, "_pbh_results", counting)
        return seen

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_analyze_pairs_tests_each_follower_once(self, pbh_matrices, seed):
        spec = random_feasible_formation(seed, max_nodes=15)
        followers = sorted({e.i for e in spec.edges})
        assert len(spec.edges) > len(followers)
        analyze_pairs(spec)
        assert [A.tobytes() for A in pbh_matrices] == [
            spec.agent(i).A.tobytes() for i in followers]

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_cross_compare_adds_no_pbh_test_to_check(self, pbh_matrices, seed):
        spec = random_feasible_formation(seed, max_nodes=15)
        dec = decompose(spec)
        check(spec, dec)
        assert [A.tobytes() for A in pbh_matrices] == [
            spec.agent(i).A.tobytes() for i in dec.followers()]
        by_check = len(pbh_matrices)
        res = cross_compare(spec, dec)
        assert len(pbh_matrices) - by_check == by_check
        direct = analyze_pairs(spec)
        assert {e.edge: e.stable for e in res.pairwise.edges} == {
            e.edge: e.stable for e in direct.edges
        }
