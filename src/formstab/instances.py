"""Bundled demo instances and random instance generators.

The four bundled instances are the files under ``data/``, which the
builders parse; they exercise every verdict pattern the analysis can
produce.  The random generators build arbitrary weakly connected acyclic
formations (for structural property tests) and stable-by-construction
instances (the oracle used to exercise the criterion and the simulation
envelope end to end).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import NotStabilizableError, SynthesisFailure
from .linalg import controllability_matrix, spectral_abscissa, stabilize
from .model import AgentDynamics, Edge, FormationSpec, _components, formation_from_dict

__all__ = [
    "three_agent_chain",
    "triangle_mismatched_offsets",
    "two_leader_fork",
    "consistent_triangle",
    "DEMO_BUILDERS",
    "demo_instance",
    "demo_path",
    "random_dag_formation",
    "random_in_tree_formation",
    "random_feasible_formation",
    "random_controllable_pair",
]


def _bundled(name: str) -> FormationSpec:
    """The instance in the bundled ``data/<name>.json``."""
    return formation_from_dict(json.loads(demo_path(name).read_text(encoding="utf-8")))


def three_agent_chain() -> FormationSpec:
    """Chain 3 -> 2 -> 1 with one (uncontrolled, unstable) leader: the
    bundled ``data/example2.json``.

    The whole formation is stable, yet the (3, 2) pair taken alone is not:
    neither of its pairwise equations is solvable.  The follower equations
    have N_2 = N_3 = [1, 1], kt_2 = -1, kt_3 = -4.
    """
    return _bundled("example2")


def triangle_mismatched_offsets() -> FormationSpec:
    """Triangle 2 -> 1, 3 -> 1, 3 -> 2 with identical displacements: the
    bundled ``data/example1.json``.

    All agents share the Hurwitz matrix -I and every pair taken alone is
    stable, but equal displacements on all three edges cannot close the
    triangle (the (3, 1) displacement would have to be the sum of the
    other two), so the formation is unstable.
    """
    return _bundled("example1")


def two_leader_fork() -> FormationSpec:
    """Two leaders 1, 2 and one follower 3 tracking both: the bundled
    ``data/remark5.json``.

    Leader matrices are equal (A_lead = -I) and Hurwitz, and the follower
    equations are solvable (A_3 = A_lead - B_3 [1 1]), but the two
    displacement demands differ, which no control can reconcile: the
    instance fails exactly the displacement condition.
    """
    return _bundled("remark5")


def consistent_triangle() -> FormationSpec:
    """The chain instance plus a closing edge 3 -> 1 whose displacement is
    consistent (the sum of the other two), giving a stable single-leader
    formation whose graph is not an in-tree: the bundled
    ``data/triangle.json``."""
    return _bundled("triangle")


DEMO_BUILDERS = {
    "example1": triangle_mismatched_offsets,
    "example2": three_agent_chain,
    "remark5": two_leader_fork,
    "triangle": consistent_triangle,
}


def _demo_builder(name: str):
    if name not in DEMO_BUILDERS:
        raise ValueError(f"unknown demo {name!r}; available: {', '.join(sorted(DEMO_BUILDERS))}")
    return DEMO_BUILDERS[name]


def demo_instance(name: str) -> FormationSpec:
    return _demo_builder(name)()


def demo_path(name: str):
    """Filesystem path of the bundled JSON file for a demo instance."""
    _demo_builder(name)
    return resources.files("formstab").joinpath("data", f"{name}.json")


# ---------------------------------------------------------------------------
# Random generators


def _random_edge_structure(rng, l: int, l0: int, extra_edge_prob: float):
    """Random weakly connected acyclic edge set over nodes 1..l with the
    first l0 nodes parentless; edges point from higher to lower ids."""
    edges = set()
    for i in range(l0 + 1, l + 1):
        parents = [j for j in range(1, i) if rng.random() < extra_edge_prob]
        if not parents:
            parents = [int(rng.integers(1, i))]
        for j in parents:
            edges.add((i, j))
    # merge weak components through node l (the largest follower), keeping
    # every edge pointed from higher to lower id so the graph stays acyclic
    comps = _components(range(1, l + 1), edges)
    if len(comps) > 1:
        for group in comps:
            if l not in group:
                edges.add((l, min(group)))
    return sorted(edges)


def random_dag_formation(
    rng=0,
    max_nodes: int = 8,
    n: int = 2,
    m: int = 1,
) -> FormationSpec:
    """Random weakly connected acyclic formation with random dynamics.

    Up to three nodes are parentless, and node labels are shuffled, so the
    input numbering is in general *not* consistent with the level order —
    exercising the renumbering logic.  No stability structure is implied.
    """
    rng = np.random.default_rng(rng)
    l = int(rng.integers(2, max_nodes + 1))
    l0 = int(rng.integers(1, min(3, l - 1) + 1))
    structure = _random_edge_structure(rng, l, l0, extra_edge_prob=0.4)

    shuffled = list(range(1, l + 1))
    rng.shuffle(shuffled)
    perm = {old: new for old, new in zip(range(1, l + 1), shuffled)}

    agents = [None] * l
    for old in range(1, l + 1):
        agents[perm[old] - 1] = AgentDynamics(
            A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m))
        )
    edges = tuple(
        Edge(perm[i], perm[j], rng.standard_normal(n)) for i, j in structure
    )
    return FormationSpec(n=n, m=m, agents=tuple(agents), edges=edges)


def random_in_tree_formation(rng=0, max_nodes: int = 8, n: int = 2, m: int = 1) -> FormationSpec:
    """Random in-tree (single leader, one parent per follower), random d."""
    rng = np.random.default_rng(rng)
    l = int(rng.integers(2, max_nodes + 1))
    agents = tuple(
        AgentDynamics(A=rng.standard_normal((n, n)), B=rng.standard_normal((n, m)))
        for _ in range(l)
    )
    edges = tuple(
        Edge(i, int(rng.integers(1, i)), rng.standard_normal(n)) for i in range(2, l + 1)
    )
    return FormationSpec(n=n, m=m, agents=agents, edges=edges)


def random_feasible_formation(
    rng=0,
    max_nodes: int = 6,
    max_n: int = 4,
    max_m: int = 3,
    multi_leader_prob: float = 0.3,
) -> FormationSpec:
    """Stable-by-construction random instance.

    Follower matrices are built as A_i = A_ref - B_i N_i for random B_i
    and N_i, so the gain equation is consistent by construction; each
    follower's offset D_i is chosen as the solution of A_i D_i = B_i kt_i
    for a random kt_i, making the offset equation consistent as well; then
    every edge displacement is set to D_i - D_j so displacement
    consistency holds on every edge.  Multi-leader draws share one Hurwitz
    leader matrix.  Stabilizability of the random follower pairs holds
    generically.
    """
    rng = np.random.default_rng(rng)
    n = int(rng.integers(2, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    l = int(rng.integers(3, max_nodes + 1))
    l0 = 2 if (rng.random() < multi_leader_prob and l >= 3) else 1
    structure = _random_edge_structure(rng, l, l0, extra_edge_prob=0.45)

    if l0 > 1:
        R = rng.standard_normal((n, n))
        A_ref = R - (spectral_abscissa(R) + 1.0 + rng.uniform(0.0, 1.0)) * np.eye(n)
    else:
        # the single-leader matrix may be unstable, but its growth rate is
        # capped so closed-loop trajectories stay within the range where
        # float roundoff sits far below verification tolerances
        A_ref = rng.standard_normal((n, n))
        absc = spectral_abscissa(A_ref)
        cap = rng.uniform(0.2, 0.6)
        if absc > cap:
            A_ref = A_ref - (absc - cap) * np.eye(n)

    agents = []
    D = {}
    for i in range(1, l0 + 1):
        agents.append(AgentDynamics(A=A_ref, B=rng.standard_normal((n, m))))
        D[i] = np.zeros(n)
    for i in range(l0 + 1, l + 1):
        # reject weakly controllable draws: they pass the criterion but
        # force violent stabilizing gains, and with them closed loops too
        # stiff for any reasonable fixed-step integration
        for _ in range(60):
            B = rng.standard_normal((n, m))
            N = rng.standard_normal((m, n))
            A = A_ref - B @ N
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] <= 1e-6 * sv[0]:
                continue
            try:
                S = stabilize(A, B)
            except (NotStabilizableError, SynthesisFailure):
                continue
            if np.linalg.norm(A + B @ S, "fro") <= 40.0:
                break
        kt = rng.standard_normal(m)
        D[i] = np.linalg.solve(A, B @ kt)
        norm_D = float(np.linalg.norm(D[i]))
        if norm_D > 10.0:
            kt = kt * (10.0 / norm_D)
            D[i] = np.linalg.solve(A, B @ kt)
        agents.append(AgentDynamics(A=A, B=B))

    edges = tuple(Edge(i, j, D[i] - D[j]) for i, j in structure)
    return FormationSpec(n=n, m=m, agents=tuple(agents), edges=edges)


def random_controllable_pair(rng=0, n: int = 3, m: int = 1):
    """Random (A, B) resampled until the controllability matrix has full
    rank (a brute-force oracle independent of the PBH test)."""
    rng = np.random.default_rng(rng)
    while True:
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, m))
        if np.linalg.matrix_rank(controllability_matrix(A, B)) == n:
            return A, B
