"""Formation instances and the graph machinery defined on them.

A formation is a finite set of agents with linear dynamics, connected by a
directed acyclic "follows" graph whose edges carry desired displacement
vectors.  This module validates instances, computes the level decomposition
of the graph (levels, order function, designated parents, cumulative
offsets, leader reach), finds multi-leader witnesses, and reads/writes the
JSON interchange format used by the rest of the package.

One level peel (Kahn's topological sort, a level at a time, kept on the spec)
decides both acyclicity and the levels: `validate` reports a cycle when the
peel leaves nodes over, and `decompose` takes its levels from that same pass.

Node ids are 1-based everywhere they surface (files, reports); edges point
from follower to parent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FormationValidationError

__all__ = [
    "AgentDynamics",
    "Edge",
    "FormationSpec",
    "LevelDecomposition",
    "MultiLeaderWitness",
    "Violation",
    "validate",
    "decompose",
    "find_multi_leader_witness",
    "formation_from_dict",
    "formation_to_dict",
    "load_formation",
    "save_formation",
    "weak_components",
    "split_components",
]


_FLOAT = np.dtype(float)


def _frozen_array(x, shape=None) -> np.ndarray:
    """``x`` as a read-only float array, reshaped to ``shape`` if given.

    A float array whose owner (the end of its chain of bases) owns its
    data and is read-only is kept, not copied: nothing can write to it.
    Anything else is copied, and the copy made read-only."""
    owner = x
    while isinstance(owner, np.ndarray) and isinstance(owner.base, np.ndarray):
        owner = owner.base
    if not (type(x) is np.ndarray and x.dtype is _FLOAT and owner.base is None
            and not owner.flags.writeable):
        x = np.array(x, dtype=float)
        x.setflags(write=False)
    if shape is not None:
        x = x.reshape(shape)  # a copy only of a kept array that is not contiguous
        x.setflags(write=False)
    return x


@dataclass(frozen=True)
class AgentDynamics:
    """State matrix A (n x n) and input matrix B (n x m) of one agent."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen_array(self.A))
        object.__setattr__(self, "B", _frozen_array(self.B))


@dataclass(frozen=True)
class Edge:
    """Directed edge follower -> parent with desired displacement d.

    In the ideal configuration the endpoint states satisfy x_i + d = x_j.
    """

    i: int
    j: int
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen_array(self.d))

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)


@dataclass(frozen=True)
class FormationSpec:
    """A complete problem instance: dimensions, per-agent dynamics, edges.

    Agents are implicitly numbered 1..l by their position in ``agents``.
    Construction does not validate; call `validate` to get an exhaustive
    report of structural violations.

    Read-only stacks are derived on first use, since an unvalidated spec
    can be ragged, and kept: ``A_stack`` (l, n, n), ``B_stack`` (l, n, m),
    ``d_rows`` (edges, n), ``edge_keys`` and ``edge_ends`` (the row
    indices i - 1 and j - 1 of every edge), in agent or edge order.
    """

    n: int
    m: int
    agents: tuple[AgentDynamics, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(
            self,
            "edges",
            tuple(e if isinstance(e, Edge) else Edge(*e) for e in self.edges),
        )
        parents: dict[int, list[int]] = {i: [] for i in self.nodes}
        disp: dict[tuple[int, int], np.ndarray] = {}
        for e in self.edges:
            if e.i in parents:
                parents[e.i].append(e.j)
            disp[e.key] = e.d
        object.__setattr__(
            self, "_parents", {i: tuple(sorted(js)) for i, js in parents.items()}
        )
        object.__setattr__(self, "_disp", disp)

    @property
    def l(self) -> int:
        return len(self.agents)

    @property
    def nodes(self) -> range:
        return range(1, len(self.agents) + 1)

    def agent(self, i: int) -> AgentDynamics:
        return self.agents[i - 1]

    def parents(self, i: int) -> tuple[int, ...]:
        """L_i: parents of node i (empty for leaders)."""
        return self._parents[i]

    def displacement(self, i: int, j: int) -> np.ndarray:
        return self._disp[(i, j)]

    @cached_property
    def A_stack(self) -> np.ndarray:
        return _frozen_array([ag.A for ag in self.agents], shape=(self.l, self.n, self.n))

    @cached_property
    def B_stack(self) -> np.ndarray:
        return _frozen_array([ag.B for ag in self.agents], shape=(self.l, self.n, self.m))

    @cached_property
    def d_rows(self) -> np.ndarray:
        return _frozen_array([e.d for e in self.edges], shape=(len(self.edges), self.n))

    @cached_property
    def edge_keys(self) -> tuple:
        return tuple(e.key for e in self.edges)

    @cached_property
    def edge_ends(self) -> tuple:
        ends = np.array(self.edge_keys, dtype=int).reshape(-1, 2) - 1
        ends.setflags(write=False)
        return ends[:, 0], ends[:, 1]

    @cached_property
    def _level_peel(self) -> tuple[frozenset, ...]:
        return _validated_levels(self)

    @cached_property
    def _wrong_shapes(self) -> tuple:
        """`validate`'s ``dimension_mismatch`` violations of the agent matrices."""
        return tuple(
            Violation("dimension_mismatch", f"agent {idx}: {name} has shape {x.shape}, "
                      f"expected {shape}", info=(idx, name, shape, x.shape))
            for idx, ag in enumerate(self.agents, start=1)
            for name, x, shape in (("A", ag.A, (self.n, self.n)), ("B", ag.B, (self.n, self.m)))
            if x.shape != shape
        )

    @cached_property
    def _non_finite(self) -> tuple:
        """`validate`'s ``non_finite`` violations: one pass over every number;
        only a failing instance is searched per matrix and edge."""
        values = [x.ravel() for ag in self.agents for x in (ag.A, ag.B)]
        values += [e.d.ravel() for e in self.edges]
        if not values or np.isfinite(np.concatenate(values)).all():
            return ()
        named = [(f"agent {idx}: {name}", (idx, name), getattr(ag, name))
                 for idx, ag in enumerate(self.agents, start=1) for name in ("A", "B")]
        named += [(f"edge ({e.i}, {e.j}): d", (e.key,), e.d) for e in self.edges]
        return tuple(Violation("non_finite", f"{what} has a NaN or infinite entry", info=info)
                     for what, info, x in named if not np.isfinite(x).all())


@dataclass(frozen=True)
class Violation:
    """One structural violation found by `validate`.

    kind is one of: cycle_detected, dimension_mismatch, not_weakly_connected,
    duplicate_edge, self_loop, non_finite.  ``info`` carries the witness
    (cycle node list, component lists, agent index with expected/actual
    shapes, ...).
    """

    kind: str
    message: str
    info: tuple = ()

    def __str__(self):
        return f"{self.kind}: {self.message}"


def _components(nodes, pairs) -> list[tuple[int, ...]]:
    """`weak_components` of the graph on ascending ``nodes`` with edges
    ``pairs``; pairs with an end outside ``nodes`` are ignored."""
    neighbours: dict[int, set[int]] = {i: set() for i in nodes}
    for i, j in pairs:
        if i in neighbours and j in neighbours:
            neighbours[i].add(j)
            neighbours[j].add(i)
    seen: set[int] = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(tuple(sorted(comp)))
    return components


def weak_components(spec: FormationSpec) -> list[tuple[int, ...]]:
    """Connected components of the underlying undirected graph, each a
    sorted tuple of node ids, ordered by smallest member."""
    return _components(spec.nodes, spec._disp)


def _validated_levels(spec: FormationSpec) -> tuple[frozenset, ...]:
    """Run every check of `validate`; return the levels of the level peel
    that decided acyclicity.

    Parent ids outside 1..l take no part in the peel.  The nodes it leaves
    over are those with a directed path into a cycle; each has a leftover
    parent.
    """
    v: list[Violation] = []
    n, m, l = spec.n, spec.m, spec.l

    if n <= 0 or m <= 0 or l == 0:
        v.append(Violation(
            "dimension_mismatch",
            f"need positive n, m and at least one agent (n={n}, m={m}, l={l})",
        ))

    v.extend(spec._wrong_shapes)

    seen_edges: set[tuple[int, int]] = set()
    for e in spec.edges:
        key = e.key
        if e.i == e.j:
            v.append(Violation("self_loop", f"edge ({e.i}, {e.j})", info=(e.i,)))
        if key in seen_edges:
            v.append(
                Violation("duplicate_edge", f"edge ({e.i}, {e.j}) repeated", info=key)
            )
        seen_edges.add(key)
        for end in (e.i, e.j):
            if not 1 <= end <= l:
                v.append(Violation(
                    "dimension_mismatch",
                    f"edge ({e.i}, {e.j}) references unknown node {end}",
                    info=(end,),
                ))
        if e.d.shape != (n,):
            v.append(Violation(
                "dimension_mismatch",
                f"edge ({e.i}, {e.j}): d has shape {e.d.shape}, expected ({n},)",
                info=(key, e.d.shape),
            ))

    v.extend(spec._non_finite)

    parents = {i: frozenset(j for j in spec.parents(i) if 1 <= j <= l) for i in spec.nodes}
    levels: list[frozenset] = []
    remaining = set(spec.nodes)
    while remaining:
        level = {i for i in remaining if parents[i].isdisjoint(remaining)}
        if not level:
            break
        levels.append(frozenset(level))
        remaining -= level

    if remaining:
        # walk from the smallest leftover node through smallest leftover
        # parents until a node repeats: the cycle a depth-first search over
        # ascending ids and parents meets first
        walk = [min(remaining)]
        while walk[-1] not in walk[:-1]:
            walk.append(min(parents[walk[-1]] & remaining))
        cycle = walk[walk.index(walk[-1]) :]
        v.append(Violation(
            "cycle_detected",
            "directed cycle " + " -> ".join(str(x) for x in cycle),
            info=tuple(cycle),
        ))

    comps = weak_components(spec)
    if len(comps) > 1:
        v.append(Violation(
            "not_weakly_connected",
            f"{len(comps)} weak components: "
            + ", ".join("{" + ", ".join(map(str, c)) + "}" for c in comps),
            info=tuple(comps),
        ))

    if v:
        raise FormationValidationError(v)
    return tuple(levels)


def validate(spec: FormationSpec) -> FormationSpec:
    """Check all structural invariants of a formation instance, and that
    every entry of its matrices and displacements is finite.

    Acyclicity is decided by the level peel that `decompose` reuses; a
    cycle is reported with a witness node list.  Returns the spec
    unchanged when everything holds.  Otherwise raises
    `FormationValidationError` carrying *all* violations found, so callers
    see every problem at once rather than fixing them one by one.
    """
    spec._level_peel  # runs once per valid spec; an invalid one raises on every call
    return spec


@dataclass(frozen=True)
class LevelDecomposition:
    """Level structure of the formation graph.

    levels[k] holds the nodes whose parents all live in levels below k;
    level 0 is the leader set, ``leaders``, of size ``l0``.  ``order``
    maps node -> level index, ``parent`` maps each follower to its
    designated parent (the parent in the next-lower level with the
    largest id; leaders map to themselves),
    ``offset_rows`` is the read-only (l, n) stack of the offsets D_i in
    node order, row i - 1 the sum of displacements along the
    designated-parent chain down to a leader, and ``leader_reach`` maps
    node -> the leader that chain ends at.  ``renumbering`` lists original
    ids level by level (ascending id inside a level); position k holds the
    node whose new index is k+1.  Derived once, on first use, for every
    module to read: ``cumulative_offset`` maps node -> D_i, a view of its
    row, and ``position`` maps node -> its place in ``renumbering``.
    """

    levels: tuple[frozenset, ...]
    order: dict
    parent: dict
    offset_rows: np.ndarray
    leader_reach: dict
    renumbering: tuple[int, ...]

    @property
    def leaders(self) -> frozenset:
        return self.levels[0]

    @property
    def l0(self) -> int:
        return len(self.leaders)

    @cached_property
    def cumulative_offset(self) -> dict:
        return {i: self.offset_rows[i - 1] for i in self.renumbering}

    @cached_property
    def position(self) -> dict:
        return {i: k for k, i in enumerate(self.renumbering)}

    def edge_order(self, keys) -> list:
        """Edge keys (i, j) sorted by their endpoints' renumbered indices."""
        return sorted(keys, key=lambda e: (self.position[e[0]], self.position[e[1]]))

    def parent_chain(self, i: int) -> list[int]:
        """[i, p(i), p(p(i)), ..., leader]."""
        chain = [i]
        while self.order[chain[-1]] > 0:
            chain.append(self.parent[chain[-1]])
        return chain

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def followers(self) -> list[int]:
        """All non-leader nodes, in renumbering order."""
        return list(self.renumbering[self.l0 :])


def decompose(spec: FormationSpec) -> LevelDecomposition:
    """Compute the level decomposition of a formation, validating it.

    Takes the levels from the single level peel of `validate` (which
    raises `FormationValidationError` on an invalid spec): level 0 is the
    parentless nodes, and each next level collects the nodes whose parents
    are all already placed.  The designated parent of a follower is chosen
    among its parents by (level, id) lexicographic maximum, which lands
    one level below the follower; offsets accumulate along those
    designated edges, each D_i = d_ip + D_p written in place into its row
    of the one offset stack.  An offset that overflows raises
    `FormationValidationError` with a ``non_finite`` violation naming the
    first such agent in the renumbering.
    """
    levels = spec._level_peel
    order = {i: k for k, level in enumerate(levels) for i in level}
    renumbering = tuple(i for level in levels for i in sorted(level))

    parent: dict[int, int] = {}
    reach: dict[int, int] = {}
    offsets = np.zeros((spec.l, spec.n))  # a leader's offset is zero
    with np.errstate(over="ignore"):  # an offset that overflows is named below
        for i in renumbering:  # parents are processed before children
            if order[i] == 0:
                parent[i] = reach[i] = i
            else:
                p = parent[i] = max(spec.parents(i), key=lambda j: (order[j], j))
                np.add(spec.displacement(i, p), offsets[p - 1], out=offsets[i - 1])
                reach[i] = reach[p]
    offsets.setflags(write=False)
    finite = np.isfinite(offsets).all(axis=1)
    if not finite.all():
        i = next(i for i in renumbering if not finite[i - 1])
        raise FormationValidationError([Violation(
            "non_finite", f"agent {i}: the cumulative offset D_{i} overflows", info=(i,))])

    return LevelDecomposition(
        levels=levels,
        order=order,
        parent=parent,
        offset_rows=offsets,
        leader_reach=reach,
        renumbering=renumbering,
    )


@dataclass(frozen=True)
class MultiLeaderWitness:
    """A vertex with directed paths to two distinct leaders."""

    i: int
    j: int
    s: int
    path_to_j: tuple[int, ...]
    path_to_s: tuple[int, ...]


def _shortest_path_to(spec: FormationSpec, start: int, goal: int) -> list[int] | None:
    """BFS along follower->parent edges; deterministic via sorted parents."""
    if start == goal:
        return [start]
    prev: dict[int, int | None] = {start: None}
    queue = [start]
    while queue:
        v = queue.pop(0)
        for w in spec.parents(v):
            if w not in prev:
                prev[w] = v
                if w == goal:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(w)
    return None


def find_multi_leader_witness(
    decomp: LevelDecomposition, spec: FormationSpec
) -> MultiLeaderWitness | None:
    """Find a vertex with directed paths to two distinct leaders.

    For a weakly connected acyclic graph such a vertex exists exactly when
    there is more than one leader; single-leader formations return None.
    The witness is deterministic: the first vertex in renumbering order
    that reaches at least two leaders, with its two smallest reachable
    leaders and shortest paths to them.
    """
    if decomp.l0 <= 1:
        return None

    reachable: dict[int, frozenset] = {}
    for i in decomp.renumbering:  # parents first
        if decomp.order[i] == 0:
            reachable[i] = frozenset([i])
        else:
            acc = frozenset()
            for j in spec.parents(i):
                acc |= reachable[j]
            reachable[i] = acc

    for i in decomp.renumbering:
        if len(reachable[i]) >= 2:
            j, s = sorted(reachable[i])[:2]
            return MultiLeaderWitness(
                i=i,
                j=j,
                s=s,
                path_to_j=tuple(_shortest_path_to(spec, i, j)),
                path_to_s=tuple(_shortest_path_to(spec, i, s)),
            )
    return None


# ---------------------------------------------------------------------------
# JSON interchange format


def formation_from_dict(data: dict) -> FormationSpec:
    """Build a FormationSpec from the interchange dict.

    Expected shape::

        {"n": int, "m": int,
         "agents": [{"A": [[...]], "B": [[...]]}, ...],
         "edges":  [{"from": int, "to": int, "d": [...]}, ...]}

    Matrices are row-major; node ids are 1-based.
    """
    try:
        n = int(data["n"])
        m = int(data["m"])
        agents = tuple(
            AgentDynamics(A=np.asarray(a["A"], dtype=float), B=np.asarray(a["B"], dtype=float))
            for a in data["agents"]
        )
        edges = tuple(
            Edge(int(e["from"]), int(e["to"]), np.asarray(e["d"], dtype=float))
            for e in data.get("edges", [])
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed formation document: {exc}") from exc
    return FormationSpec(n=n, m=m, agents=agents, edges=edges)


def formation_to_dict(spec: FormationSpec) -> dict:
    return {
        "n": spec.n,
        "m": spec.m,
        "agents": [{"A": ag.A.tolist(), "B": ag.B.tolist()} for ag in spec.agents],
        "edges": [{"from": e.i, "to": e.j, "d": e.d.tolist()} for e in spec.edges],
    }


def load_formation(path) -> FormationSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return formation_from_dict(json.load(fh))


def _write_json(path, payload: dict) -> None:
    """Write ``payload`` as JSON indented by two spaces, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def save_formation(spec: FormationSpec, path) -> None:
    _write_json(path, formation_to_dict(spec))


def split_components(spec: FormationSpec) -> list[tuple[tuple[int, ...], FormationSpec]]:
    """Split a (possibly disconnected) instance into its weak components.

    Returns [(original_ids, sub_spec), ...] where sub_spec renumbers the
    component's nodes 1..k in ascending original id; original_ids[k-1] is
    the original id of sub-spec node k.  Raises `FormationValidationError`
    when the instance has any violation other than being disconnected.
    """
    try:
        validate(spec)
    except FormationValidationError as exc:
        if exc.kinds() != {"not_weakly_connected"}:
            raise
    out = []
    for comp in weak_components(spec):
        remap = {orig: new for new, orig in enumerate(comp, start=1)}
        agents = tuple(spec.agent(i) for i in comp)
        edges = tuple(
            Edge(remap[e.i], remap[e.j], e.d)
            for e in spec.edges
            if e.i in remap and e.j in remap
        )
        out.append((comp, FormationSpec(n=spec.n, m=spec.m, agents=agents, edges=edges)))
    return out
