"""`assemble_controller` and `verify_controller` against per-follower
reference loops, byte for byte.

The references are the one-follower-at-a-time arithmetic that the stacked
code replaces: each follower's products are formed on its own, each
Hurwitz test is a separate `is_hurwitz` call and each edge defect a
separate `np.linalg.norm`.  The sums over a follower's parents are
sequential Python sums in both.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from formstab import (
    AgentDynamics,
    ControllerSet,
    FollowerController,
    FormationSpec,
    check,
    controller_to_dict,
    decompose,
    enumerate_family,
    is_hurwitz,
    verify_controller,
)
from formstab import synthesis
from formstab.controllers import assemble_controller
from formstab.criterion import _defect_scale
from formstab.instances import (
    random_dag_formation,
    random_feasible_formation,
    random_in_tree_formation,
)
from formstab.linalg import DEFAULT_TOLERANCES


def _ref_aggregate(S, K, k, i, D):
    return S + sum(K.values()), k - S @ D[i] - sum(Ks @ D[s] for s, Ks in K.items())


def _ref_assemble(decomp, n, m, S, N, k_tilde, split_weights):
    D = decomp.cumulative_offset
    followers = {}
    for i in decomp.followers():
        Si = np.asarray(S[i], dtype=float)
        Ni = np.asarray(N[i], dtype=float)
        kti = np.asarray(k_tilde[i], dtype=float)
        K = {s: w * (Ni - Si) for s, w in split_weights[i].items()}
        ki = kti + Si @ D[i] + sum(Ks @ D[s] for s, Ks in K.items())
        _, kt_i = _ref_aggregate(Si, K, ki, i, D)
        followers[i] = FollowerController(S=Si, K=K, k=ki, k_tilde=kt_i)
    return ControllerSet(n=n, m=m, followers=followers)


def _ref_verify(spec, decomp, ctrl, tol=DEFAULT_TOLERANCES):
    d = np.array([e.d for e in spec.edges]).reshape(len(spec.edges), spec.n)
    scale = _defect_scale(d, spec.agent(decomp.renumbering[0]).A)
    D = decomp.cumulative_offset
    M, mvec, hurwitz = {}, {}, {}
    for i in spec.nodes:
        ag = spec.agent(i)
        fc = ctrl.followers.get(i)
        if fc is None:
            M[i], mvec[i] = ag.A, -ag.A @ D[i]
        else:
            N, kt = _ref_aggregate(fc.S, fc.K, fc.k, i, D)
            M[i], mvec[i] = ag.A + ag.B @ N, ag.B @ kt - ag.A @ D[i]
            hurwitz[i] = is_hurwitz(ag.A + ag.B @ fc.S, tol)
    edge_M = {e.key: float(np.linalg.norm(M[e.i] - M[e.j])) for e in spec.edges}
    edge_m = {e.key: float(np.linalg.norm(mvec[e.i] - mvec[e.j])) for e in spec.edges}
    max_M = max(edge_M.values(), default=0.0)
    max_m = max(edge_m.values(), default=0.0)
    return {
        "max_matrix_defect": max_M,
        "max_offset_defect": max_m,
        "edge_matrix_defects": {str(e): v for e, v in edge_M.items()},
        "edge_offset_defects": {str(e): v for e, v in edge_m.items()},
        "follower_hurwitz": {str(i): h.to_dict() for i, h in sorted(hurwitz.items())},
        "passed": max_M <= tol.eps_solve * scale and max_m <= tol.eps_solve * scale
        and all(h.is_hurwitz for h in hurwitz.values()),
        "scale": scale,
    }


def _bytes(ctrl):
    """repr of the controller document: tells apart any two floats, -0.0 too."""
    return repr(controller_to_dict(ctrl))


def _random_parts(spec, decomp, rng):
    """Random gains, solutions and simplex split weights, with -0.0 entries."""
    followers = decomp.followers()
    S = {i: rng.standard_normal((spec.m, spec.n)) for i in followers}
    N = {i: rng.standard_normal((spec.m, spec.n)) for i in followers}
    kt = {i: rng.standard_normal(spec.m) for i in followers}
    for i in followers[::2]:
        S[i][0] = -0.0
        N[i][:, 0] = -0.0
        N[i][-1] = S[i][-1]  # N_i - S_i has zero rows, and zero weights give -0.0
        kt[i][0] = -0.0
    weights = {}
    for i in followers:
        w = rng.dirichlet(np.ones(len(spec.parents(i))))
        w[rng.random(len(w)) < 0.2] = 0.0
        weights[i] = dict(zip(spec.parents(i), w.tolist()))
    return S, N, kt, weights


_KINDS = {
    "feasible": lambda s: random_feasible_formation(s, max_nodes=14),
    "more_inputs_than_states": lambda s: random_feasible_formation(s, max_nodes=10, max_n=2,
                                                                   max_m=4),
    "multi_leader": lambda s: random_feasible_formation(s, max_nodes=12, multi_leader_prob=1.0),
    "many_parents": lambda s: random_feasible_formation(s, max_nodes=30, max_n=2, max_m=1),
    "scalar_in_tree": lambda s: random_in_tree_formation(s, max_nodes=8, n=1, m=2),
    "scalar_dag": lambda s: random_dag_formation(s, max_nodes=10, n=1, m=2),
    "dag": lambda s: random_dag_formation(s, max_nodes=12, n=3, m=1),
}


class TestStackedControllerCode:
    @given(kind=st.sampled_from(sorted(_KINDS)), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    @example(kind="many_parents", seed=2)  # a follower with 16 parents, two leaders
    @example(kind="scalar_in_tree", seed=0)  # n = 1, m = 2, stable
    @example(kind="more_inputs_than_states", seed=0)  # n = 2, m = 4
    def test_bitwise_the_per_follower_loops(self, kind, seed):
        spec = _KINDS[kind](seed)
        decomp = decompose(spec)
        parts = _random_parts(spec, decomp, np.random.default_rng(seed))
        args = (decomp, spec.n, spec.m, *parts)
        ctrl = assemble_controller(*args)
        assert _bytes(ctrl) == _bytes(_ref_assemble(*args))
        assert repr(verify_controller(spec, decomp, ctrl).to_dict()) == repr(
            _ref_verify(spec, decomp, ctrl))

        report = check(spec, decomp)
        if not report.stable:
            return
        assembled = []

        def spy(*args):
            ctrl = assemble_controller(*args)
            assert _bytes(ctrl) == _bytes(_ref_assemble(*args))
            assembled.append(ctrl)
            return ctrl

        with mock.patch.object(synthesis, "assemble_controller", spy):
            family = enumerate_family(spec, decomp, report, count=3, rng=seed)
        assert [_bytes(c) for c in family] == [_bytes(c) for c in assembled]
        for member in family:
            assert repr(verify_controller(spec, decomp, member).to_dict()) == repr(
                _ref_verify(spec, decomp, member))

    def test_leader_only_spec(self):
        spec = FormationSpec(n=2, m=1, agents=(AgentDynamics(A=-np.eye(2), B=[[1.0], [0.0]]),),
                             edges=())
        decomp = decompose(spec)
        args = (decomp, 2, 1, {}, {}, {}, {})
        ctrl = assemble_controller(*args)
        assert _bytes(ctrl) == _bytes(_ref_assemble(*args))
        assert repr(verify_controller(spec, decomp, ctrl).to_dict()) == repr(
            _ref_verify(spec, decomp, ctrl))
