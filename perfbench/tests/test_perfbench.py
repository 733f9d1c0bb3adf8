"""Tests of the benchmark's own code: span arithmetic, seed search, metric
names and the trajectory reference.  Run with
`python -m pytest perfbench/tests` from the repository root."""

import re

import numpy as np
import pytest

import formstab as fs
import run
import spans
import workloads
from formstab.instances import random_feasible_formation
from reference import TrajectoryReference, Sine, Steps, relative_error, stacked_states

NAME = re.compile(r"[A-Za-z0-9_.-]+")

def test_self_time_subtracts_children_once():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [20, 30)
    recorded = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("c", 20, 30, 1, 0),
        ("b", 50, 60, 0, 0),
    ]
    assert spans.self_times(recorded) == [60, 20, 10, 10]

def test_self_time_counts_overlapping_children_as_their_union():
    recorded = [("p", 0, 10, -1, 0), ("x", 2, 6, 0, 0), ("y", 4, 8, 0, 0), ("z", 9, 12, 0, 0)]
    assert spans.self_times(recorded)[0] == 10 - (8 - 2) - (10 - 9)

def test_recorder_nests_spans_and_counts_errors():
    rec = spans.SpanRecorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped = rec.wrap("m.inner", inner)
    outer = rec.wrap("m.outer", lambda x: wrapped(x) + wrapped(x))
    assert outer(1) == 2  # no op open: nothing recorded
    assert rec.spans == []
    rec.begin_op(7)
    assert outer(1) == 2
    with pytest.raises(ValueError):
        wrapped(-1)
    rec.end_op()
    names = [(s[0], s[3], s[4]) for s in rec.spans]
    assert names == [("m.outer", -1, 7), ("m.inner", 0, 7), ("m.inner", 0, 7), ("m.inner", -1, 7)]
    totals = spans.summarize(rec)
    assert totals["m.inner"]["calls"] == 3 and totals["m.inner"]["errors"] == 1

def test_install_wraps_every_binding_and_restores_them():
    from formstab import criterion, linalg

    original = linalg.is_stabilizable
    rec = spans.SpanRecorder()
    restore = spans.install(rec)
    try:
        assert criterion.is_stabilizable is linalg.is_stabilizable is fs.is_stabilizable
        assert criterion.is_stabilizable.__wrapped__ is original
        spec = fs.instances.three_agent_chain()
        rec.begin_op(0)
        fs.check(spec, fs.decompose(spec))
        rec.end_op()
    finally:
        restore()
    assert linalg.is_stabilizable is original and criterion.is_stabilizable is original
    parents = {s[0]: s[3] for s in rec.spans}
    assert parents["criterion.check"] == -1
    assert rec.spans[parents["linalg.is_stabilizable"]][0] == "criterion.check"

def test_seed_search_is_deterministic():
    def generate(s):
        return random_feasible_formation(rng=s, max_nodes=25, max_n=4, max_m=2, multi_leader_prob=0.0)

    first = workloads.search_seed(generate, 23, 0)
    again = workloads.search_seed(generate, 23, 0)
    assert first[0] == again[0] == 4
    assert fs.formation_to_dict(first[1]) == fs.formation_to_dict(again[1])
    later = workloads.search_seed(generate, 23, first[0] + 1)
    assert later[0] > first[0] and abs(later[1].l - 23) <= workloads.SIZE_TOLERANCE

def test_metric_names_are_well_formed_and_all_computed():
    listed = run.load_benchmark_json()
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in listed[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    layer = spans.layer_metrics(spans.SpanRecorder(), 1, 1, 0, 1.0)
    assert all(NAME.fullmatch(n) for n in layer)
    assert {m["name"] for m in listed["per_layer"]} <= set(layer)

@pytest.fixture(scope="module")
def small_loop():
    spec = random_feasible_formation(rng=3, max_nodes=12, max_n=3, max_m=2, multi_leader_prob=1.0)
    decomp = fs.decompose(spec)
    ctrl = fs.synthesize(spec, decomp, fs.check(spec, decomp))
    leaders = sorted(decomp.leaders)
    plans = {
        leaders[0]: Steps((0.0, 0.7, 1.9), ((1.0,) * spec.m, (-0.5,) * spec.m, (0.25,) * spec.m)),
        leaders[1]: Sine((0.3,) * spec.m, 2.0, 0.4),
    }
    signals = {s: workloads._signal(p) for s, p in plans.items()}
    x0 = workloads.cli_x0(spec, 5)
    trace = fs.simulate(spec, decomp, ctrl, x0, signals=signals, T=3.0)
    rows = np.unique(np.searchsorted(trace.times, np.linspace(0.0, 3.0, 7)))
    ref = TrajectoryReference(spec, ctrl, plans, trace.times[rows])
    return spec, trace, rows, ref, x0

def test_reference_matches_rk4_with_step_and_sine_inputs(small_loop):
    spec, trace, rows, ref, x0 = small_loop
    err = relative_error(stacked_states(trace.states, rows, spec.l), ref.states(x0))
    assert err <= workloads.REFERENCE_RTOL

def test_reference_flags_a_perturbed_trajectory(small_loop):
    spec, trace, rows, ref, x0 = small_loop
    states = {i: v.copy() for i, v in trace.states.items()}
    states[spec.l][rows[3], 0] += 1e-4 * (1.0 + abs(states[spec.l][rows[3], 0]))
    err = relative_error(stacked_states(states, rows, spec.l), ref.states(x0))
    assert err > workloads.REFERENCE_RTOL

def test_benchmark_file_matches_the_workloads():
    listed = run.load_benchmark_json()
    assert [w["name"] for w in listed["workloads"]] == list(workloads.WORKLOADS)


def test_calibrated_time_excludes_probes_and_scales_by_nearby_probe_speed():
    import calibrate

    clock = calibrate.SpeedClock()
    nominal = calibrate.NOMINAL_PROBE_S
    clock.took = [nominal] * 20 + [2 * nominal] * 20  # the host halves its speed
    # 1.0 s between marks, 0.1 s of it probing, in the slow stretch
    start, end = (25, 1.0, 10.0), (35, 1.1, 11.0)
    assert calibrate.SpeedClock.raw(start, end) == pytest.approx(0.9)
    assert clock.calibrated(start, end) == pytest.approx(0.45)
    # an interval with too few samples borrows its neighbours' on both sides
    assert clock.calibrated((0, 0.0, 0.0), (0, 0.0, 0.3)) == pytest.approx(0.3)


def test_clock_samples_while_active():
    import time

    import calibrate

    with calibrate.SpeedClock() as clock:
        first = clock.mark()
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
        last = clock.mark()
    assert last[0] - first[0] >= 5
    assert 0.0 < calibrate.SpeedClock.raw(first, last) < 0.3
