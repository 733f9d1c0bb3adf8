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
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

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


class _ReadOnlyDict(dict):
    """A dict that refuses every change once built: item assignment,
    deletion and every mutating method raise `TypeError`."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("this mapping is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # copy and pickle rebuild it, rather than assign items
        return type(self), (dict(self),)


@dataclass(frozen=True)
class FollowerController:
    """Gains of one follower: own-state gain S, per-parent gains K (a
    read-only mapping), offset k, plus the derived offset k_tilde; the
    aggregate gain N derives from S and K.  A float array whose owner is
    read-only is kept as given (an assembled `ControllerSet` hands views of
    its stacks); any other array is copied and the copy made read-only."""

    S: np.ndarray
    K: Mapping  # parent id -> (m, n) gain
    k: np.ndarray
    k_tilde: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "S", _frozen_array(self.S))
        object.__setattr__(
            self, "K", _ReadOnlyDict((int(s), _frozen_array(Ks)) for s, Ks in self.K.items())
        )
        object.__setattr__(self, "k", _frozen_array(self.k))
        object.__setattr__(self, "k_tilde", _frozen_array(self.k_tilde))

    @property
    def N(self) -> np.ndarray:
        return self.S + sum(self.K.values())


class _Stacks(NamedTuple):
    """A controller's gains as read-only stacks, followers in ascending id
    order: S (c, m, n), k and kt (c, m) and N (c, m, n) by follower; the
    parent gains K (p, m, n) follower by follower, each with its follower's
    row, its slot (its place among that follower's gains) and its parent
    id.  ``kt`` (k_tilde) is None when the followers hold their own."""

    followers: tuple
    S: np.ndarray
    k: np.ndarray
    kt: np.ndarray | None
    K: np.ndarray
    rows: np.ndarray
    slots: np.ndarray
    parents: np.ndarray
    N: np.ndarray


def _fold(terms: np.ndarray, rows: np.ndarray, slots: np.ndarray, count: int) -> np.ndarray:
    """The slot-ordered fold of per-parent ``terms``: for each of ``count``
    followers, zero plus its terms in slot order, which is Python's ``sum``
    over its parents bit for bit.  Term p belongs to follower ``rows[p]``
    at slot ``slots[p]``; the fold adds every follower's slot-0 term, then
    every slot-1 term, and so on, with -0.0 standing in for a slot a
    follower lacks: x + -0.0 is x for every float x, -0.0 and NaN too."""
    padded = np.full((int(slots.max(initial=-1)) + 1, count, *terms.shape[1:]), -0.0)
    padded[slots, rows] = terms
    total = np.zeros((count, *terms.shape[1:]))
    for slot in padded:
        total += slot
    return total


def _pairs(laws) -> tuple:
    """Row and slot of every (follower, parent) pair of ``laws``, a
    sequence of parent -> value maps, in follower-major order."""
    rows = [r for r, law in enumerate(laws) for _ in law]
    slots = [j for law in laws for j in range(len(law))]
    return np.array(rows, dtype=int), np.array(slots, dtype=int)


def _freeze(*arrays) -> None:
    """Make each of the new ``arrays`` read-only, down to the array that
    owns its data, so that `_frozen_array` keeps views of it."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base


@dataclass(frozen=True)
class ControllerSet:
    """Complete follower control law for one formation instance: the
    read-only stacks ``_stacks`` (see `_Stacks`).  `assemble_controller`
    builds it from them, and ``followers``, the read-only mapping of views
    of them, is made when first read; ``ControllerSet(n, m, followers)``
    derives them once from ``followers`` (None if a gain or offset is
    misshapen, which `_check_structure` names).
    """

    n: int
    m: int
    followers: Mapping  # follower id -> FollowerController

    def __post_init__(self):
        object.__setattr__(self, "followers", _ReadOnlyDict(self.followers))

    @classmethod
    def _of_stacks(cls, n: int, m: int, law: _Stacks) -> ControllerSet:
        ctrl = object.__new__(cls)
        ctrl.__dict__.update(n=n, m=m, _stacks=law)
        return ctrl

    def __getattr__(self, name):  # ``followers`` of a controller built from its stacks
        law = self.__dict__.get("_stacks")
        if name != "followers" or law is None:
            raise AttributeError(name)
        gains = zip(law.parents.tolist(), law.K)
        counts = np.bincount(law.rows, minlength=len(law.followers)).tolist()
        views = _ReadOnlyDict((i, FollowerController(
            S=law.S[r], K=dict(islice(gains, c)), k=law.k[r], k_tilde=law.kt[r]))
            for r, (i, c) in enumerate(zip(law.followers, counts)))
        object.__setattr__(self, "followers", views)
        return views

    def gains(self, i: int) -> FollowerController:
        return self.followers[i]

    @cached_property
    def _stacks(self) -> _Stacks | None:
        followers = tuple(sorted(self.followers))
        laws = [self.followers[i] for i in followers]
        gain = (self.m, self.n)
        if any(fc.S.shape != gain or fc.k.shape != gain[:1]
               or any(Ks.shape != gain for Ks in fc.K.values()) for fc in laws):
            return None
        count = len(laws)
        rows, slots = _pairs([fc.K for fc in laws])
        S = np.array([fc.S for fc in laws]).reshape(count, *gain)
        K = np.array([Ks for fc in laws for Ks in fc.K.values()]).reshape(len(rows), *gain)
        N = S + _fold(K, rows, slots, count)
        k = np.array([fc.k for fc in laws]).reshape(count, self.m)
        parents = np.array([s for fc in laws for s in fc.K], dtype=int)
        _freeze(S, K, rows, slots, N, k, parents)
        return _Stacks(followers, S, k, None, K, rows, slots, parents, N)


def _check_structure(
    spec: FormationSpec, decomp: LevelDecomposition, ctrl: ControllerSet
) -> None:
    """Raise `ValueError` naming the first way ``ctrl`` does not fit the
    instance: its (n, m), its follower ids, the shape of an S, the parents
    a K is keyed by, or the shape of a per-parent gain K_is or of a k.
    The follower ids and the (follower, parent) pairs are read from the
    controller's stacks and compared whole; the followers are walked only
    to name a misfit."""
    if ctrl.n != spec.n or ctrl.m != spec.m:
        raise ValueError(
            f"controller dims ({ctrl.n}, {ctrl.m}) do not match spec ({spec.n}, {spec.m})"
        )
    law = ctrl._stacks
    followers = sorted(decomp.followers())
    if law is not None and law.followers == tuple(followers):
        ids = np.array(followers, dtype=int)[law.rows]
        if set(zip(ids.tolist(), law.parents.tolist())) == set(spec.edge_keys):
            return
    if sorted(ctrl.followers) != followers:
        raise ValueError(
            f"controller has gains for agents {sorted(ctrl.followers)} "
            f"but the followers are {followers}"
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
    (S, K, k) so the construction identity holds by definition.

    Every gain, offset and product is formed as one stack over the
    followers, in ascending id order, or over every (follower, parent)
    pair, with D_f and D_s read from ``decomp.offset_rows``; those stacks,
    N = S + sum_s K_is among them, are the controller (see `_Stacks`).
    S_i D_i and sum_s K_is D_s are formed once and serve both k_i and
    kt_i; the sums are slot-ordered folds (`_fold`), so every value is
    bitwise that of the per-follower expressions.
    """
    followers = sorted(decomp.followers())
    count = len(followers)
    weights = [split_weights[i] for i in followers]
    rows, slots = _pairs(weights)
    parents = np.array([s for ws in weights for s in ws], dtype=int)
    w = np.array([w for ws in weights for w in ws.values()], dtype=float).reshape(-1, 1, 1)

    S_f = np.array([S[i] for i in followers], dtype=float).reshape(count, m, n)
    parent_gain = np.array([N[i] for i in followers], dtype=float).reshape(count, m, n) - S_f
    K = w * parent_gain[rows]
    D_f = decomp.offset_rows[np.array(followers, dtype=int) - 1].reshape(count, n, 1)
    D_s = decomp.offset_rows[parents - 1].reshape(len(parents), n, 1)
    SD = S_f @ D_f
    KD = _fold(K @ D_s, rows, slots, count)
    k = np.array([k_tilde[i] for i in followers], dtype=float).reshape(count, m, 1) + SD + KD
    kt = k - SD - KD
    N_f = S_f + _fold(K, rows, slots, count)
    _freeze(S_f, K, k, kt, rows, slots, parents, N_f)
    return ControllerSet._of_stacks(n, m, _Stacks(
        tuple(followers), S_f, k[:, :, 0], kt[:, :, 0], K, rows, slots, parents, N_f))


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
