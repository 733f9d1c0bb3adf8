"""Affine follower controllers u_i = S_i x_i + sum_s K_is x_s + k_i.

`ControllerSet` stores the per-follower gains together with the derived
offset kt_i = k_i - S_i D_i - sum_s K_is D_s, which needs the formation's
offsets D; the aggregate gain N_i = S_i + sum_s K_is derives from the
gains.  Both are written for readers of a controller file, and both are
what the stability criterion constrains; `verify_controller` derives kt_i
again from (S, K, k), the law that `simulate` runs.  Leaders carry no
gains (implicitly zero).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import MissingStateError
from .model import FormationSpec, LevelDecomposition, _frozen_array, _write_json

__all__ = [
    "FollowerController",
    "ControllerSet",
    "assemble_controller",
    "control_input",
    "controller_from_dict",
    "controller_to_dict",
    "load_controller",
    "save_controller",
]


@dataclass(frozen=True)
class FollowerController:
    """Gains of one follower: own-state gain S, per-parent gains K, offset k,
    plus the derived offset k_tilde; the aggregate gain N derives from S, K."""

    S: np.ndarray
    K: dict  # parent id -> (m, n) gain
    k: np.ndarray
    k_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _frozen_array(self.S))
        object.__setattr__(self, "K", {int(s): _frozen_array(Ks) for s, Ks in self.K.items()})
        object.__setattr__(self, "k", _frozen_array(self.k))
        object.__setattr__(self, "k_tilde", _frozen_array(self.k_tilde))

    @property
    def N(self) -> np.ndarray:
        return self.S + sum(self.K.values())


@dataclass(frozen=True)
class ControllerSet:
    """Complete follower control law for one formation instance."""

    n: int
    m: int
    followers: dict  # follower id -> FollowerController

    def __post_init__(self):
        object.__setattr__(self, "followers", dict(self.followers))

    def gains(self, i: int) -> FollowerController:
        return self.followers[i]


def _aggregate(S, K: dict, k, i: int, D: dict) -> tuple:
    """Aggregate gain N_i = S_i + sum_s K_is and offset
    kt_i = k_i - S_i D_i - sum_s K_is D_s of follower i's law (S, K, k)."""
    return S + sum(K.values()), k - S @ D[i] - sum(Ks @ D[s] for s, Ks in K.items())


def _check_structure(
    spec: FormationSpec, decomp: LevelDecomposition, ctrl: ControllerSet
) -> None:
    """Raise `ValueError` naming the first way ``ctrl`` does not fit the
    instance: its (n, m), its follower ids, the shape of an S, the parents
    a K is keyed by, or the shape of a per-parent gain K_is or of a k."""
    if ctrl.n != spec.n or ctrl.m != spec.m:
        raise ValueError(
            f"controller dims ({ctrl.n}, {ctrl.m}) do not match spec ({spec.n}, {spec.m})"
        )
    if set(ctrl.followers) != set(decomp.followers()):
        raise ValueError(
            f"controller has gains for agents {sorted(ctrl.followers)} "
            f"but the followers are {sorted(decomp.followers())}"
        )
    for i, fc in ctrl.followers.items():
        if fc.S.shape != (spec.m, spec.n):
            raise ValueError(f"follower {i}: S has shape {fc.S.shape}")
        if set(fc.K) != set(spec.parents(i)):
            raise ValueError(
                f"follower {i}: per-parent gains keyed {sorted(fc.K)} "
                f"but parents are {sorted(spec.parents(i))}"
            )
        for s, Ks in fc.K.items():
            if Ks.shape != (spec.m, spec.n):
                raise ValueError(f"follower {i}: K for parent {s} has shape {Ks.shape}")
        if fc.k.shape != (spec.m,):
            raise ValueError(f"follower {i}: k has shape {fc.k.shape}")


def assemble_controller(
    decomp: LevelDecomposition,
    n: int,
    m: int,
    S: dict,
    N: dict,
    k_tilde: dict,
    split_weights: dict,
) -> ControllerSet:
    """Build a ControllerSet from stabilizing gains and criterion solutions.

    For each follower i, the per-parent gains split the aggregate
    N_i - S_i according to ``split_weights[i]`` (a parent -> weight map
    summing to 1), and the offset follows
    k_i = kt_i + S_i D_i + sum_s K_is D_s.  k_tilde is recomputed from
    (S, K, k) so the construction identity holds by definition, as
    `_aggregate` sums it; S_i D_i and sum_s K_is D_s are formed once and
    serve both k_i and kt_i.
    """
    D = decomp.cumulative_offset
    followers = {}
    for i in decomp.followers():
        Si = np.asarray(S[i], dtype=float)
        parent_gain = np.asarray(N[i], dtype=float) - Si
        K = {s: w * parent_gain for s, w in split_weights[i].items()}
        SD = Si @ D[i]
        KD = sum(Ks @ D[s] for s, Ks in K.items())
        ki = np.asarray(k_tilde[i], dtype=float) + SD + KD
        followers[i] = FollowerController(S=Si, K=K, k=ki, k_tilde=ki - SD - KD)
    return ControllerSet(n=n, m=m, followers=followers)


def control_input(ctrl: ControllerSet, i: int, states: dict) -> np.ndarray:
    """Evaluate u_i = S_i x_i + sum_s K_is x_s + k_i at the given states.

    Each state is an n-vector, or an array with one such row per time point
    (as `simulate` records them); the input then has one row per point.
    Leaders (nodes without stored gains) get the zero input.  Raises
    `MissingStateError` when the follower's own state or any parent state
    is absent from ``states``.
    """
    fc = ctrl.followers.get(i)
    if fc is None:
        return np.zeros(ctrl.m)
    if i not in states:
        raise MissingStateError(f"state of agent {i} not provided")
    u = np.asarray(states[i], dtype=float) @ fc.S.T + fc.k
    for s, Ks in fc.K.items():
        if not Ks.any():  # zero gain: the parent state is not actually used
            continue
        if s not in states:
            raise MissingStateError(f"state of parent {s} (needed by agent {i}) not provided")
        u = u + np.asarray(states[s], dtype=float) @ Ks.T
    return u


def controller_to_dict(ctrl: ControllerSet) -> dict:
    return {
        "n": ctrl.n,
        "m": ctrl.m,
        "followers": {
            str(i): {
                "S": fc.S.tolist(),
                "K": {str(s): Ks.tolist() for s, Ks in fc.K.items()},
                "k": fc.k.tolist(),
                "N": fc.N.tolist(),
                "k_tilde": fc.k_tilde.tolist(),
            }
            for i, fc in sorted(ctrl.followers.items())
        },
    }


def controller_from_dict(data: dict) -> ControllerSet:
    try:
        followers = {
            int(i): FollowerController(
                S=np.asarray(fc["S"], dtype=float),
                K={int(s): np.asarray(Ks, dtype=float) for s, Ks in fc["K"].items()},
                k=np.asarray(fc["k"], dtype=float),
                k_tilde=np.asarray(fc["k_tilde"], dtype=float),
            )
            for i, fc in data["followers"].items()
        }
        return ControllerSet(n=int(data["n"]), m=int(data["m"]), followers=followers)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed controller document: {exc}") from exc


def save_controller(ctrl: ControllerSet, path) -> None:
    _write_json(path, controller_to_dict(ctrl))


def load_controller(path) -> ControllerSet:
    with open(path, "r", encoding="utf-8") as fh:
        return controller_from_dict(json.load(fh))
