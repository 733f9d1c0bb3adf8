"""Formation validation, level decomposition, and witness search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formstab import (
    AgentDynamics,
    Edge,
    FormationSpec,
    FormationValidationError,
    decompose,
    find_multi_leader_witness,
    formation_from_dict,
    formation_to_dict,
    split_components,
    validate,
    weak_components,
)
from formstab import model as model_module
from formstab.instances import random_dag_formation
from formstab.model import _shortest_path_to


def _simple_spec(edges, l=3, n=2, m=1):
    agent = AgentDynamics(A=np.zeros((n, n)), B=np.zeros((n, m)))
    return FormationSpec(n=n, m=m, agents=(agent,) * l, edges=tuple(edges))


class TestValidate:
    def test_triangle_is_valid(self):
        spec = _simple_spec(
            [Edge(2, 1, [0.0, 0.0]), Edge(3, 1, [0.0, 0.0]), Edge(3, 2, [0.0, 0.0])]
        )
        assert validate(spec) is spec

    def test_two_cycle_detected_with_witness(self):
        spec = _simple_spec([Edge(1, 2, [0.0, 0.0]), Edge(2, 1, [0.0, 0.0])], l=2)
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        assert "cycle_detected" in exc.value.kinds()
        witness = next(
            v for v in exc.value.violations if v.kind == "cycle_detected"
        ).info
        assert witness[0] == witness[-1] and len(witness) == 3

    def test_disconnected_reports_components(self):
        spec = _simple_spec([], l=2)
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        bad = next(
            v for v in exc.value.violations if v.kind == "not_weakly_connected"
        )
        assert bad.info == ((1,), (2,))

    def test_self_loop_and_duplicate(self):
        spec = _simple_spec(
            [Edge(2, 2, [0.0, 0.0]), Edge(2, 1, [0.0, 0.0]), Edge(2, 1, [0.0, 0.0])],
            l=2,
        )
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        assert {"self_loop", "duplicate_edge"} <= exc.value.kinds()

    def test_dimension_mismatch_reports_agent_and_shapes(self):
        agents = (
            AgentDynamics(A=np.zeros((2, 2)), B=np.zeros((2, 1))),
            AgentDynamics(A=np.zeros((3, 3)), B=np.zeros((2, 1))),
        )
        spec = FormationSpec(n=2, m=1, agents=agents, edges=(Edge(2, 1, [0.0, 0.0]),))
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        bad = next(v for v in exc.value.violations if v.kind == "dimension_mismatch")
        assert bad.info == (2, "A", (2, 2), (3, 3))

    @pytest.mark.parametrize("n,agents,message", [
        (0, 1, "need positive n, m and at least one agent (n=0, m=1, l=1)"),
        (2, 0, "need positive n, m and at least one agent (n=2, m=1, l=0)"),
        (2, 1, "agent 1: B has shape (2, 2), expected (2, 1)"),
    ], ids=["n_zero", "no_agents", "B_shape"])
    def test_dimension_mismatch_of_sizes_and_input_matrix(self, n, agents, message):
        B = np.zeros((2, 2)) if message.startswith("agent") else np.zeros((n, 1))
        spec = FormationSpec(
            n=n, m=1, agents=(AgentDynamics(A=np.zeros((n, n)), B=B),) * agents, edges=())
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        assert f"dimension_mismatch: {message}" in [str(v) for v in exc.value.violations]

    def test_reporting_is_exhaustive_not_first_only(self):
        # one instance carrying an unknown parent, a cycle, a bad d length,
        # a self loop, a NaN displacement and a disconnected extra node: all
        # six must be reported at once (node 2's parent 99 comes before the
        # cycle in id order)
        agents = (AgentDynamics(A=np.zeros((2, 2)), B=np.zeros((2, 1))),) * 5
        spec = FormationSpec(
            n=2,
            m=1,
            agents=agents,
            edges=(
                Edge(2, 1, [np.nan, 0.0]),
                Edge(2, 99, [0.0, 0.0]),
                Edge(3, 4, [0.0, 0.0]),
                Edge(4, 3, [0.0, 0.0]),
                Edge(3, 1, [0.0]),
                Edge(5, 5, [0.0, 0.0]),
            ),
        )
        with pytest.raises(FormationValidationError) as exc:
            validate(spec)
        assert [str(v) for v in exc.value.violations] == [
            "dimension_mismatch: edge (2, 99) references unknown node 99",
            "dimension_mismatch: edge (3, 1): d has shape (1,), expected (2,)",
            "self_loop: edge (5, 5)",
            "non_finite: edge (2, 1): d has a NaN or infinite entry",
            "cycle_detected: directed cycle 3 -> 4 -> 3",
            "not_weakly_connected: 2 weak components: {1, 2, 3, 4}, {5}",
        ]


    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("where,message", [
        ("A", "agent 2: A has a NaN or infinite entry"),
        ("B", "agent 3: B has a NaN or infinite entry"),
        ("d", "edge (2, 1): d has a NaN or infinite entry"),
    ], ids=["A", "B", "d"])
    def test_non_finite_entry_is_named(self, where, message, value):
        doc = formation_to_dict(_simple_spec([Edge(2, 1, [1.0, 0.0]), Edge(3, 2, [0.0, 1.0])]))
        if where == "d":
            doc["edges"][0]["d"][0] = value
        else:
            doc["agents"][1 if where == "A" else 2][where][1][0] = value
        spec = formation_from_dict(doc)
        for call in (validate, decompose):
            with pytest.raises(FormationValidationError) as exc:
                call(spec)
            assert [str(v) for v in exc.value.violations] == [f"non_finite: {message}"]

    def test_cumulative_offset_that_overflows_is_named(self):
        # every entry is finite, but D_3 = d_32 + d_21 leaves the float range
        spec = _simple_spec([Edge(2, 1, [1e308, 0.0]), Edge(3, 2, [1e308, 0.0])])
        assert validate(spec) is spec
        with pytest.raises(FormationValidationError) as exc:
            decompose(spec)
        assert [str(v) for v in exc.value.violations] == [
            "non_finite: agent 3: the cumulative offset D_3 overflows"]
        assert exc.value.violations[0].info == (3,)


class TestDecompose:
    def test_triangle_levels_parent_offsets(self):
        d21, d32 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        d31 = d21 + d32
        spec = _simple_spec([Edge(2, 1, d21), Edge(3, 1, d31), Edge(3, 2, d32)])
        dec = decompose(spec)
        assert [sorted(s) for s in dec.levels] == [[1], [2], [3]]
        assert dec.parent[3] == 2 and dec.parent[2] == 1 and dec.parent[1] == 1
        assert np.array_equal(dec.cumulative_offset[1], [0.0, 0.0])
        assert np.array_equal(dec.cumulative_offset[2], d21)
        assert np.array_equal(dec.cumulative_offset[3], d32 + d21)

    def test_chain_levels_and_leader_reach(self):
        spec = _simple_spec([Edge(3, 2, [0.0, 0.0]), Edge(2, 1, [0.0, 0.0])])
        dec = decompose(spec)
        assert [sorted(s) for s in dec.levels] == [[1], [2], [3]]
        assert dec.leader_reach[3] == 1
        assert dec.renumbering == (1, 2, 3)
        assert dec.depth == 2

    def test_single_agent(self):
        spec = _simple_spec([], l=1)
        dec = decompose(spec)
        assert dec.levels == (frozenset({1}),)
        assert dec.order[1] == 0
        assert np.array_equal(dec.cumulative_offset[1], [0.0, 0.0])
        assert dec.l0 == 1 and dec.followers() == []

    def test_validate_and_decompose_share_one_level_peel(self, monkeypatch):
        peels = []
        original = model_module._validated_levels

        def counting(spec):
            peels.append(spec)
            return original(spec)

        monkeypatch.setattr(model_module, "_validated_levels", counting)
        spec = _simple_spec([Edge(2, 1, [1.0, 0.0]), Edge(3, 2, [0.0, 1.0])])
        validate(spec)
        first, second = decompose(spec), decompose(spec)
        assert peels == [spec]
        assert first.levels is second.levels
        assert first.order == second.order and first.order is not second.order

    def test_invalid_spec_raises_on_every_call(self, monkeypatch):
        peels = []
        original = model_module._validated_levels
        monkeypatch.setattr(model_module, "_validated_levels",
                            lambda spec: peels.append(spec) or original(spec))
        spec = _simple_spec([Edge(2, 1, [0.0, 0.0]), Edge(1, 2, [0.0, 0.0])], l=2)
        for call in (validate, decompose, validate):
            with pytest.raises(FormationValidationError) as exc:
                call(spec)
            assert exc.value.kinds() == {"cycle_detected"}
        assert len(peels) == 3

    def test_renumbering_respects_levels_and_ids(self):
        # two leaders (4, 2), two followers; inside a level ascending ids
        spec = _simple_spec([Edge(1, 2, [0.0, 0.0]), Edge(3, 4, [0.0, 0.0]),
                             Edge(3, 1, [0.0, 0.0])], l=4)
        dec = decompose(spec)
        assert dec.renumbering == (2, 4, 1, 3)
        assert dec.renumbering.index(2) == 0 and dec.renumbering.index(3) == 3


def _check_decomposition_invariants(spec):
    dec = decompose(spec)
    all_nodes = set(spec.nodes)
    union = set()
    for level in dec.levels:
        assert level, "levels must be nonempty"
        assert not (union & level), "levels must be disjoint"
        union |= level
    assert union == all_nodes

    new = dec.position
    assert [new[i] for i in dec.renumbering] == list(range(spec.l))
    for e in spec.edges:
        assert dec.order[e.i] > dec.order[e.j]
        assert new[e.i] > new[e.j]

    rows = dec.offset_rows
    assert rows.shape == (spec.l, spec.n) and not rows.flags.writeable
    for i in spec.nodes:
        assert np.shares_memory(dec.cumulative_offset[i], rows)
        assert not dec.cumulative_offset[i].flags.writeable
        if dec.order[i] == 0:
            assert dec.parent[i] == i
            assert np.array_equal(dec.cumulative_offset[i], np.zeros(spec.n))
        else:
            p = dec.parent[i]
            assert p in spec.parents(i)
            assert dec.order[p] == dec.order[i] - 1
            # one addition per follower: d_ip + D_p, bit for bit
            assert rows[i - 1].tobytes() == (spec.displacement(i, p) + rows[p - 1]).tobytes()
            # recursion equals the explicit sum along the parent chain
            chain = dec.parent_chain(i)
            total = np.zeros(spec.n)
            for a, b in zip(chain[:-1], chain[1:]):
                total += spec.displacement(a, b)
            assert np.allclose(dec.cumulative_offset[i], total, atol=1e-12)
            assert dec.leader_reach[i] == chain[-1]
            assert dec.order[chain[-1]] == 0
    return dec


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_decomposition_invariants_on_random_dags(seed):
    spec = random_dag_formation(seed)
    _check_decomposition_invariants(spec)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=80, deadline=None)
def test_witness_exists_iff_multiple_leaders(seed):
    spec = random_dag_formation(seed)
    dec = decompose(spec)
    witness = find_multi_leader_witness(dec, spec)
    if dec.l0 == 1:
        assert witness is None
    else:
        assert witness is not None
        assert witness.j != witness.s
        assert {witness.j, witness.s} <= set(dec.leaders)
        for leader, path in ((witness.j, witness.path_to_j), (witness.s, witness.path_to_s)):
            assert path[0] == witness.i and path[-1] == leader
            for a, b in zip(path[:-1], path[1:]):
                assert (a, b) in spec.edge_keys


def _cycle_witness(spec):
    try:
        validate(spec)
    except FormationValidationError as exc:
        return next((v.info for v in exc.violations if v.kind == "cycle_detected"), None)
    return None


@given(
    l=st.integers(1, 7),
    raw=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 10)), max_size=24),
)
@settings(max_examples=300, deadline=None)
def test_cycle_witness_is_a_simple_cycle_of_the_spec(l, raw):
    # self loops, repeated edges, several cycles and parent ids past l
    spec = _simple_spec([Edge(i, j, [0.0, 0.0]) for i, j in raw if i <= l], l=l)
    witness = _cycle_witness(spec)
    if witness is not None:
        assert witness[0] == witness[-1]
        assert len(set(witness[:-1])) == len(witness) - 1
        assert all((a, b) in spec.edge_keys for a, b in zip(witness[:-1], witness[1:]))

    # drop the unknown parents and repeats, and add node l+1 following one
    # node of each weak component: it has no followers, so it closes no
    # cycle, and a cycle is then the only violation left
    pairs = sorted({(i, j) for i, j in raw if i <= l and j <= l})
    hub = [(l + 1, comp[0]) for comp in weak_components(spec)]
    clean = _simple_spec([Edge(i, j, [0.0, 0.0]) for i, j in pairs + hub], l=l + 1)
    assert _cycle_witness(clean) == witness
    if witness is None:
        _check_decomposition_invariants(clean)
    else:
        with pytest.raises(FormationValidationError) as exc:
            decompose(clean)
        assert "cycle_detected" in exc.value.kinds()


class TestWitnessExamples:
    def test_fork(self, fork):
        dec = decompose(fork)
        w = find_multi_leader_witness(dec, fork)
        assert (w.i, w.j, w.s) == (3, 1, 2)
        assert w.path_to_j == (3, 1) and w.path_to_s == (3, 2)

    def test_single_leader_chain(self, chain, chain_decomp):
        assert find_multi_leader_witness(chain_decomp, chain) is None

    def test_four_node_indirect_paths(self):
        # exhaustive path search on this graph confirms node 4 is the only
        # vertex reaching both leaders, via 4->3->1 and 4->2
        spec = _simple_spec(
            [Edge(3, 1, [0.0, 0.0]), Edge(4, 3, [0.0, 0.0]), Edge(4, 2, [0.0, 0.0])],
            l=4,
        )
        dec = decompose(spec)
        w = find_multi_leader_witness(dec, spec)
        assert (w.i, w.j, w.s) == (4, 1, 2)
        assert w.path_to_j == (4, 3, 1)
        assert w.path_to_s == (4, 2)


    def test_path_search_ends(self):
        # a node is its own path; a leader has no path to its follower
        spec = _simple_spec([Edge(3, 2, [0.0, 0.0]), Edge(2, 1, [0.0, 0.0])])
        assert _shortest_path_to(spec, 2, 2) == [2]
        assert _shortest_path_to(spec, 3, 1) == [3, 2, 1]
        assert _shortest_path_to(spec, 1, 3) is None


class TestInterchange:
    def test_round_trip(self, chain):
        data = formation_to_dict(chain)
        back = formation_from_dict(data)
        assert back.n == chain.n and back.m == chain.m
        for i in chain.nodes:
            assert np.array_equal(back.agent(i).A, chain.agent(i).A)
            assert np.array_equal(back.agent(i).B, chain.agent(i).B)
        assert [e.key for e in back.edges] == [e.key for e in chain.edges]

    def test_malformed_document(self):
        with pytest.raises(ValueError):
            formation_from_dict({"n": 2, "agents": []})

    def test_file_round_trip(self, tmp_path, chain):
        from formstab import load_formation, save_formation

        path = tmp_path / "inst.json"
        save_formation(chain, path)
        again = load_formation(path)
        assert formation_to_dict(again) == formation_to_dict(chain)


class TestSplit:
    def test_split_two_components(self):
        agents = (AgentDynamics(A=np.eye(2), B=np.zeros((2, 1))),) * 4
        spec = FormationSpec(
            n=2,
            m=1,
            agents=agents,
            edges=(Edge(2, 1, [0.0, 0.0]), Edge(4, 3, [1.0, 0.0])),
        )
        assert weak_components(spec) == [(1, 2), (3, 4)]
        parts = split_components(spec)
        assert [ids for ids, _ in parts] == [(1, 2), (3, 4)]
        for ids, sub in parts:
            validate(sub)
            assert sub.l == 2
        assert np.array_equal(parts[1][1].edges[0].d, [1.0, 0.0])
