"""`assemble_controller` and `verify_controller` against per-follower
reference loops, byte for byte.

The references are the one-follower-at-a-time arithmetic that the stacked
code replaces: each follower's products are formed on its own, each
Hurwitz test is a separate `is_hurwitz` call and each edge defect a
separate `np.linalg.norm`.  The sums over a follower's parents are
sequential Python sums in the references and slot-ordered folds in the
stacked code.  The instances reach followers with 8 and more parents,
where `np.add.reduce` along a contiguous axis regroups a sum, and -0.0
gain entries, which a sum that does not start from zero keeps.
"""

import dataclasses
from functools import cached_property
from itertools import count
from unittest import mock

import numpy as np
import pytest
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
    controller_from_dict,
    enumerate_family,
    is_hurwitz,
    simulate,
    verify_controller,
)
from formstab import synthesis
from formstab.controllers import _fold, assemble_controller
from formstab.criterion import _defect_scale
from formstab.instances import (
    consistent_triangle,
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


def _ref_N(ctrl):
    """Each follower's N_i = S_i + sum_s K_is, ascending ids, as one array."""
    laws = [ctrl.followers[i] for i in sorted(ctrl.followers)]
    return np.array([fc.S + sum(fc.K.values()) for fc in laws]).reshape(-1, ctrl.m, ctrl.n)


def _wide(seed):
    """The first feasible formation from ``seed`` on with a follower of at
    least 8 parents."""
    for s in count(seed):
        spec = random_feasible_formation(s, max_nodes=30, max_n=2, max_m=2)
        if max(len(spec.parents(e.i)) for e in spec.edges) >= 8:
            return spec


_KINDS = {
    "feasible": lambda s: random_feasible_formation(s, max_nodes=14),
    "more_inputs_than_states": lambda s: random_feasible_formation(s, max_nodes=10, max_n=2,
                                                                   max_m=4),
    "multi_leader": lambda s: random_feasible_formation(s, max_nodes=12, multi_leader_prob=1.0),
    "many_parents": lambda s: random_feasible_formation(s, max_nodes=30, max_n=2, max_m=1),
    "scalar_in_tree": lambda s: random_in_tree_formation(s, max_nodes=8, n=1, m=2),
    "scalar_dag": lambda s: random_dag_formation(s, max_nodes=10, n=1, m=2),
    "dag": lambda s: random_dag_formation(s, max_nodes=12, n=3, m=1),
    "wide": _wide,
}


class TestStackedControllerCode:
    @given(kind=st.sampled_from(sorted(_KINDS)), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    @example(kind="many_parents", seed=2)  # a follower with 16 parents, two leaders
    @example(kind="scalar_in_tree", seed=0)  # n = 1, m = 2, stable
    @example(kind="more_inputs_than_states", seed=0)  # n = 2, m = 4
    @example(kind="wide", seed=0)
    def test_bitwise_the_per_follower_loops(self, kind, seed):
        spec = _KINDS[kind](seed)
        decomp = decompose(spec)
        parts = _random_parts(spec, decomp, np.random.default_rng(seed))
        args = (decomp, spec.n, spec.m, *parts)
        ctrl = assemble_controller(*args)
        assert _bytes(ctrl) == _bytes(_ref_assemble(*args))
        assert ctrl._stacks.N.tobytes() == _ref_N(ctrl).tobytes()
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
            assert member._stacks.N.tobytes() == _ref_N(member).tobytes()
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


class TestSlotOrderedFold:
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    @example(seed=1, count=1)
    def test_bitwise_the_sequential_sum(self, seed, count):
        # up to 16 terms per follower, with exact cancellations, -0.0, inf and NaN
        rng = np.random.default_rng(seed)
        degrees = rng.integers(1, 17, count)
        pool = np.array([-0.0, 0.0, 1.0, -1.0, 1e-300, np.inf, np.nan, 0.1, 3.0, -3.0])
        terms = [np.where(rng.random((d, 2)) < 0.5, rng.choice(pool, (d, 2)),
                          rng.standard_normal((d, 2))) for d in degrees]
        rows = np.repeat(np.arange(count), degrees)
        slots = np.concatenate([np.arange(d) for d in degrees])
        with np.errstate(invalid="ignore"):  # inf - inf
            folded = _fold(np.concatenate(terms), rows, slots, count)
            expected = np.array([sum(t) for t in terms])
        assert folded.tobytes() == expected.tobytes()

    def test_an_all_negative_zero_sum_is_positive_zero(self):
        # sum() starts from 0, so a sum of -0.0 terms is +0.0
        terms = np.full((3, 1), -0.0)
        folded = _fold(terms, np.zeros(3, dtype=int), np.arange(3), 1)
        assert folded.tobytes() == np.array([sum(terms)]).tobytes() == np.zeros((1, 1)).tobytes()


class TestFrozenController:
    @pytest.fixture
    def triangle(self):
        spec = consistent_triangle()
        decomp = decompose(spec)
        report = check(spec, decomp)
        return spec, decomp, synthesis.synthesize(spec, decomp, report)

    def test_followers_cannot_be_changed(self, triangle):
        spec, decomp, ctrl = triangle
        before = repr(verify_controller(spec, decomp, ctrl).to_dict())
        with pytest.raises(TypeError):
            ctrl.followers[3] = ctrl.followers[2]
        with pytest.raises(TypeError):
            ctrl.followers.pop(3)
        with pytest.raises(TypeError):
            del ctrl.followers[3]
        with pytest.raises(TypeError):
            ctrl.gains(3).K.pop(1)
        for fc in ctrl.followers.values():  # views of the assembled stacks
            for change in (lambda: fc.K.__setitem__(1, fc.S), lambda: fc.K.update({}),
                           fc.K.clear, fc.K.popitem):
                with pytest.raises(TypeError):
                    change()
            assert not any(a.flags.writeable for a in (fc.S, fc.k, fc.k_tilde, *fc.K.values()))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctrl.followers = {}
        assert sorted(ctrl.followers) == [2, 3]
        assert repr(verify_controller(spec, decomp, ctrl).to_dict()) == before

    def test_a_changed_copy_is_a_new_controller(self, triangle):
        spec, decomp, ctrl = triangle
        fc = ctrl.gains(3)
        K = {s: 2.0 * Ks for s, Ks in fc.K.items()}
        changed = ControllerSet(ctrl.n, ctrl.m, {**ctrl.followers, 3: dataclasses.replace(fc, K=K)})
        assert repr(verify_controller(spec, decomp, changed).to_dict()) == repr(
            _ref_verify(spec, decomp, changed))
        assert changed._stacks.N.tobytes() == _ref_N(changed).tobytes()
        assert ctrl._stacks.N.tobytes() == _ref_N(ctrl).tobytes()
        assert not np.array_equal(changed._stacks.N, ctrl._stacks.N)

    def test_arrays_are_shared_only_when_nothing_can_write_them(self):
        owned = np.arange(6.0).reshape(3, 2)
        frozen = owned.copy()
        frozen.setflags(write=False)
        view_of_writeable = owned[1:]
        view_of_writeable.setflags(write=False)
        fc = FollowerController(S=owned, K={1: frozen[:1]}, k=view_of_writeable[0],
                                k_tilde=frozen[2])
        assert fc.S is not owned and not fc.S.flags.writeable
        owned[0, 0] = 99.0  # the copy does not see it
        assert fc.S[0, 0] == 0.0
        assert fc.K[1].base is frozen and fc.k_tilde.base is frozen  # views kept
        assert fc.k.base is not owned and fc.k.tolist() == [2.0, 3.0]

    def test_assembled_gains_are_views_of_one_stack(self, triangle):
        _, _, ctrl = triangle
        laws = list(ctrl.followers.values())
        assert len({id(fc.S.base) for fc in laws}) == 1
        assert all(not fc.S.base.flags.writeable for fc in laws)


class TestStackBackedController:
    """An assembled controller is its stacks; its follower views are made
    only when read, and a controller rebuilt from them behaves the same."""

    def test_family_and_its_verification_walk_no_follower(self, monkeypatch):
        spec = random_feasible_formation(5, max_nodes=14, multi_leader_prob=0.0)
        decomp = decompose(spec)
        report = check(spec, decomp)
        built, stacked = [], []
        post_init = FollowerController.__post_init__
        monkeypatch.setattr(FollowerController, "__post_init__",
                            lambda fc: (built.append(fc), post_init(fc))[1])
        derive = ControllerSet._stacks.func
        counted = cached_property(lambda ctrl: (stacked.append(ctrl), derive(ctrl))[1])
        counted.__set_name__(ControllerSet, "_stacks")
        monkeypatch.setattr(ControllerSet, "_stacks", counted)

        family = enumerate_family(spec, decomp, report, count=4, rng=1)
        assert all(verify_controller(spec, decomp, c).passed for c in family)
        assert built == [] and stacked == []
        laws = family[1].followers  # made on first read, from the stacks
        assert sorted(laws) == sorted(decomp.followers()) and len(built) == len(laws)
        assert stacked == []

    @given(seed=st.integers(0, 10_000), multi=st.booleans())
    @settings(max_examples=8, deadline=None)
    def test_a_rebuilt_controller_gives_the_same_bits(self, seed, multi):
        spec = random_feasible_formation(seed, max_nodes=10, max_n=3, max_m=2,
                                         multi_leader_prob=float(multi))
        decomp = decompose(spec)
        report = check(spec, decomp)
        controllers = [synthesis.synthesize(spec, decomp, report, strategy=synthesis.UNIFORM)]
        controllers += enumerate_family(spec, decomp, report, count=3, rng=seed)[1:]
        rng = np.random.default_rng(seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}

        def bits(ctrl):
            trace = simulate(spec, decomp, ctrl, x0, T=1.0)
            return (repr(verify_controller(spec, decomp, ctrl).to_dict()), _bytes(ctrl),
                    [trace.states[i].tobytes() for i in spec.nodes],
                    [np.asarray(trace.inputs[i]).tobytes() for i in spec.nodes])

        for ctrl in controllers:
            assert bits(controller_from_dict(controller_to_dict(ctrl))) == bits(ctrl)
