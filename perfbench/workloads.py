"""The four benchmark workloads.

Each workload builds its inputs in `setup` (set-up time), hands one op's
inputs to `run` (the timed region), and checks the op's outputs in `check`
against references the benchmark computes itself (outside the timed
region).  `check` returns problems as (kind, message) pairs:

* "wrong": an output disagrees with its reference;
* "envelope": `fit_envelope` rejected a stable-by-construction instance.
  This is the known horizon defect (ROADMAP item 2).  The op counts as
  failed, but the run stays `correct`: the trajectory the verdict was drawn
  from matched its reference.

Inputs come from `seed`; instances come from a seed search that starts at
`base_seed` and is the same for every `seed`, so runs on different seeds
measure the same instances and their timings can be compared.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import formstab as fs
from formstab import cli
from formstab.instances import (
    DEMO_BUILDERS,
    demo_instance,
    random_dag_formation,
    random_feasible_formation,
)

from reference import Sine, Steps, TrajectoryReference, relative_error, stacked_states

HORIZON = 20.0
SAMPLES = 11  # reference sample times, evenly spread over [0, HORIZON]
REFERENCE_RTOL = 1e-7  # RK4 vs exact; observed <= 1e-9 at l=45
CHAIN_RTOL = 1e-9  # chain identity, relative to 1 + peak |x|
ERROR_DYNAMICS_C = 1e3  # smooth inputs: defect <= C dt^2 (1 + peak |x|)
SIZE_TOLERANCE = 2  # a seed hits a target size l when |l - target| <= 2

# Verdicts of the bundled demos, as `formstab demo` asserts them.
DEMO_VERDICTS = {"example1": False, "example2": True, "remark5": False, "triangle": True}


def search_seed(generate, target_l: int, base_seed: int, limit: int = 10_000):
    """First seed >= base_seed whose instance has |l - target_l| <= 2."""
    for seed in range(base_seed, base_seed + limit):
        spec = generate(seed)
        if abs(spec.l - target_l) <= SIZE_TOLERANCE:
            return seed, spec
    raise RuntimeError(f"no seed in [{base_seed}, {base_seed + limit}) gives l~{target_l}")


def instance_record(seed, spec, decomp) -> dict:
    return {
        "seed": seed,
        "l": spec.l,
        "edges": len(spec.edges),
        "n": spec.n,
        "m": spec.m,
        "depth": decomp.depth,
        "leaders": len(decomp.leaders),
    }


def cli_x0(spec, seed: int) -> dict:
    """Initial states as `formstab simulate --seed <seed>` draws them."""
    rng = np.random.default_rng(seed)
    return {i: rng.standard_normal(spec.n) for i in spec.nodes}


def follower_loops_hurwitz(spec, ctrl) -> bool:
    """Every follower closed loop A_i + B_i S_i has eigenvalues in Re < 0."""
    for i, fc in ctrl.followers.items():
        ag = spec.agents[i - 1]
        if np.max(np.linalg.eigvals(ag.A + ag.B @ fc.S).real) >= 0.0:
            return False
    return True


class Workload:
    """Interface shared by the workloads.  `run` gets the traced run's span
    recorder, or None, for spans the harness opens itself."""

    name = ""
    report_bytes = 0  # bytes of report files the last op wrote
    stop_inside_pass = False
    keep_outputs = False  # extra_metrics needs every op output

    def __init__(self, seed: int, base_seed: int, work_dir: Path, clock):
        self.seed, self.base_seed, self.work_dir = seed, base_seed, work_dir
        self.clock = clock  # calibrate.SpeedClock, for times taken inside an op

    def setup(self):
        raise NotImplementedError

    def ops(self) -> list:
        """One pass of op inputs."""
        raise NotImplementedError

    def run(self, op, recorder=None):
        raise NotImplementedError

    def check(self, op, out) -> list:
        raise NotImplementedError

    def finish(self) -> list:
        """Run-level checks after the last op."""
        return []

    def record(self) -> dict:
        raise NotImplementedError

    def extra_metrics(self, outs) -> dict:
        """Workload-specific end-to-end metrics from every op output."""
        return {}


# ---------------------------------------------------------------------------
# decide_sweep


@dataclass(frozen=True)
class DecideOp:
    kind: str  # "feasible" | "dag"
    seed: int
    doc: dict
    family_seed: int


class DecideSweep(Workload):
    """Decision and synthesis on 300 instances, stable and unstable mixed."""

    name = "decide_sweep"
    FEASIBLE, DAG, FAMILY = 200, 100, 4
    # Two whole passes would take 25-30 s; the shuffled order mixes the kinds
    # in a partial pass, and ten runs spread no more than with whole passes.
    stop_inside_pass = True

    def setup(self):
        docs = [
            ("feasible", self.base_seed + k, fs.formation_to_dict(random_feasible_formation(
                rng=self.base_seed + k, max_nodes=30, max_n=4, max_m=2, multi_leader_prob=0.3)))
            for k in range(self.FEASIBLE)
        ] + [
            ("dag", self.base_seed + k, fs.formation_to_dict(random_dag_formation(
                rng=self.base_seed + k, max_nodes=30, n=3, m=1)))
            for k in range(self.DAG)
        ]
        order = np.random.default_rng(self.seed).permutation(len(docs))
        self._ops = [DecideOp(*docs[k], family_seed=self.seed * 100_003 + int(k)) for k in order]
        for op in self._ops[:2]:  # warm-up: lazy imports and first-call costs
            self.run(op)

    def ops(self):
        return self._ops

    def run(self, op, recorder=None):
        spec = fs.formation_from_dict(op.doc)
        fs.validate(spec)
        decomp = fs.decompose(spec)
        report = fs.check(spec, decomp)
        cross = fs.cross_compare(spec, decomp)
        family, verdicts, state_only = [], [], None
        if report.stable:
            family = fs.enumerate_family(spec, decomp, report, count=self.FAMILY, rng=op.family_seed)
            verdicts = [fs.verify_controller(spec, decomp, c).passed for c in family]
            if len(decomp.leaders) > 1:
                state_only = fs.state_only_controller(spec, decomp, report)
        return spec, decomp, report.stable, cross.formation_stable, family, verdicts, state_only

    def check(self, op, out):
        spec, decomp, stable, cross_stable, family, verdicts, state_only = out
        problems = []
        if op.kind == "feasible" and not stable:
            problems.append(("wrong", f"feasible instance seed {op.seed} judged unstable"))
        if stable != cross_stable:
            problems.append(("wrong", f"{op.kind} seed {op.seed}: check and cross_compare disagree"))
        if stable:
            if len(family) != self.FAMILY or not all(verdicts):
                problems.append(("wrong", f"seed {op.seed}: a family member fails verify_controller"))
            if not all(follower_loops_hurwitz(spec, c) for c in family):
                problems.append(("wrong", f"seed {op.seed}: a family member has a non-Hurwitz loop"))
            if len(decomp.leaders) > 1 and (
                state_only is None or not follower_loops_hurwitz(spec, state_only)
            ):
                problems.append(("wrong", f"seed {op.seed}: state-only controller not Hurwitz"))
        return problems

    def finish(self):
        problems = []
        for name, stable in DEMO_VERDICTS.items():
            spec = demo_instance(name)
            if fs.check(spec, fs.decompose(spec)).stable != stable:
                problems.append(("wrong", f"demo {name}: verdict differs from its documentation"))
        return problems

    def record(self):
        rows = []
        for op in sorted(self._ops, key=lambda o: (o.kind, o.seed)):
            spec = fs.formation_from_dict(op.doc)
            rows.append({"kind": op.kind, **instance_record(op.seed, spec, fs.decompose(spec))})
        return {
            "instances": rows,
            "median_l": statistics.median(r["l"] for r in rows),
            "median_edges": statistics.median(r["edges"] for r in rows),
        }


# ---------------------------------------------------------------------------
# simulation workloads


@dataclass(frozen=True)
class SimOp:
    label: str  # controller/pattern label
    x0_seed: int
    x0: dict
    smooth: bool  # inputs are smooth, so the error-dynamics check applies


class _SimulationWorkload(Workload):
    """simulate + fit_envelope + error_dynamics_check + chain_residual."""

    def _prepare(self, multi_leader_prob):
        self.spec_seed, self.spec = search_seed(
            lambda s: random_feasible_formation(
                rng=s, max_nodes=50, max_n=4, max_m=2, multi_leader_prob=multi_leader_prob),
            45, self.base_seed)
        self.decomp = fs.decompose(self.spec)
        self.report = fs.check(self.spec, self.decomp)
        self.pairs = [
            (i, self.spec.parents(i)[0], self.spec.parents(i)[1])
            for i in self.decomp.followers()
            if len(self.spec.parents(i)) >= 2
        ]
        self._references = {}
        self._grids = {}

    def _warm_up(self):
        for label in self.controllers:
            self._pipeline(label, self._ops[0].x0, T=1.0)

    def ops(self):
        return self._ops

    def _pipeline(self, label, x0, T=HORIZON):
        ctrl = self.controllers[label]
        signals = self.signals(label)
        trace = fs.simulate(self.spec, self.decomp, ctrl, x0, signals=signals, T=T)
        fit = fs.fit_envelope(trace, self.decomp)
        defect = fs.error_dynamics_check(trace, self.spec, self.decomp, ctrl)
        chain = max(
            (float(np.max(fs.chain_residual(trace, self.decomp, (i, j), s)))
             for i, j, s in self.pairs),
            default=0.0,
        )
        return trace, fit, defect, chain

    def run(self, op, recorder=None):
        return self._pipeline(op.label, op.x0)

    def check(self, op, out):
        trace, fit, defect, chain = out
        times = trace.times
        rows = np.unique(np.searchsorted(times, np.linspace(0.0, HORIZON, SAMPLES)).clip(0, len(times) - 1))
        key = op.label
        if key not in self._references:
            self._references[key] = TrajectoryReference(
                self.spec, self.controllers[op.label], self.plans(op.label), times[rows])
            self._grids[key] = (len(times), float(trace.metadata["dt"]))
        ref = self._references[key]
        problems = []
        if len(times) != self._grids[key][0] or not np.array_equal(times[rows], ref.times):
            return [("wrong", f"{op.label}: grid differs between ops")]
        err = relative_error(stacked_states(trace.states, rows, self.spec.l), ref.states(op.x0))
        peak = max(float(np.max(np.abs(v))) for v in trace.states.values())
        dt = float(trace.metadata["dt"])
        if not err <= REFERENCE_RTOL:
            problems.append(("wrong", f"{op.label} x0 {op.x0_seed}: trajectory off reference by {err:.3e}"))
        if not chain <= CHAIN_RTOL * (1.0 + peak):
            problems.append(("wrong", f"{op.label} x0 {op.x0_seed}: chain residual {chain:.3e}"))
        if op.smooth and not defect <= ERROR_DYNAMICS_C * dt * dt * (1.0 + peak):
            problems.append(("wrong", f"{op.label} x0 {op.x0_seed}: error-dynamics defect {defect:.3e}"))
        if not fit.passed:
            problems.append(("envelope", f"{op.label} x0 {op.x0_seed}: envelope fail, "
                                         f"max violation {fit.max_violation:.3g}"))
        return problems

    def record(self):
        rec = instance_record(self.spec_seed, self.spec, self.decomp)
        rec["two_parent_followers"] = len(self.pairs)
        rec["runs"] = {
            label: {"grid_steps": steps - 1, "dt": dt}
            for label, (steps, dt) in sorted(self._grids.items())
        }
        return {"instance": rec}


class CascadeZeroInput(_SimulationWorkload):
    """Single unstable leader, zero input: one integration per op."""

    name = "cascade_zero_input"
    X0_SEEDS = tuple(range(6))  # x0 seeds 0 and 1 hit the envelope defect

    def setup(self):
        self._prepare(multi_leader_prob=0.0)
        self.controllers = {"parent-only": fs.synthesize(self.spec, self.decomp, self.report)}
        order = np.random.default_rng(self.seed).permutation(len(self.X0_SEEDS))
        self._ops = [
            SimOp("parent-only", self.X0_SEEDS[k], cli_x0(self.spec, self.X0_SEEDS[k]), True)
            for k in order
        ]
        self._warm_up()

    def signals(self, label):
        return None

    def plans(self, label):
        return {}


class ForcedMultiLeader(_SimulationWorkload):
    """Two Hurwitz leaders with nonzero inputs: companion integration,
    Python-evaluated signals, breakpoint-refined grids."""

    name = "forced_multi_leader"
    BREAKPOINTS = 40

    def setup(self):
        self._prepare(multi_leader_prob=1.0)
        self.controllers = {}
        parent_only = fs.synthesize(self.spec, self.decomp, self.report)
        state_only = fs.state_only_controller(self.spec, self.decomp, self.report)
        rng = np.random.default_rng(self.seed)
        first, second = sorted(self.decomp.leaders)[:2]
        m = self.spec.m

        def sine():
            return Sine(tuple(rng.standard_normal(m)), float(rng.uniform(0.5, 3.0)),
                        float(rng.uniform(0.0, 2.0 * np.pi)))

        breaks = np.sort(rng.uniform(0.0, HORIZON, self.BREAKPOINTS))
        steps = Steps(tuple([0.0] + breaks.tolist()),
                      tuple(map(tuple, rng.standard_normal((self.BREAKPOINTS + 1, m)))))
        patterns = {"steps+sine": ({first: steps, second: sine()}, False),
                    "sine+sine": ({first: sine(), second: sine()}, True)}
        self._plans, self._signals, self._ops = {}, {}, []
        for cname, ctrl in (("parent-only", parent_only), ("state-only", state_only)):
            for pname, (plans, smooth) in patterns.items():
                label = f"{cname}/{pname}"
                self.controllers[label] = ctrl
                self._plans[label] = plans
                self._signals[label] = {s: _signal(p) for s, p in plans.items()}
                x0_seed = int(rng.integers(2**31))
                self._ops.append(SimOp(label, x0_seed, cli_x0(self.spec, x0_seed), smooth))
        self._warm_up()

    def signals(self, label):
        return self._signals[label]

    def plans(self, label):
        return self._plans[label]


def _signal(plan):
    if isinstance(plan, Steps):
        return fs.PiecewiseConstantSignal(plan.times, plan.values)
    return fs.SinusoidSignal(plan.amplitude, plan.omega, plan.phase)


# ---------------------------------------------------------------------------
# cli_files


class CliFiles(Workload):
    """In-process `formstab.cli.main` calls on a saved instance, with file output."""

    name = "cli_files"
    STEM = "formation"
    keep_outputs = True

    def setup(self):
        self.spec_seed, spec = search_seed(
            lambda s: random_feasible_formation(
                rng=s, max_nodes=25, max_n=4, max_m=2, multi_leader_prob=0.0),
            23, self.base_seed)
        self.spec, self.decomp = spec, fs.decompose(spec)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = str(self.work_dir / f"{self.STEM}.json")
        fs.save_formation(spec, path)
        self.calls = [
            ("check", ["check", path], 0),
            ("synthesize", ["synthesize", path, "--family", "8", "--seed", str(self.seed)], 0),
            ("pairwise", ["pairwise", path], 0),
            ("simulate", ["simulate", path, "--T", str(HORIZON), "--seed", str(self.seed)], 0),
        ] + [("demo", ["demo", name], 0) for name in DEMO_BUILDERS]
        self._digests = None
        self.report_bytes = 0
        with contextlib.redirect_stdout(io.StringIO()):  # warm-up
            cli.main(["demo", "example2"])

    def ops(self):
        return [None]  # one op is one round of every call

    def run(self, op, recorder=None):
        out_dir = self.work_dir / "out"  # `check` removes it, so every round writes afresh
        if out_dir.exists():  # left over from a round that raised
            shutil.rmtree(out_dir)
        results = []
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for command, argv, expected in self.calls:
                args = argv + (["--out", str(out_dir)] if command != "demo" else [])
                err = io.StringIO()
                start = self.clock.mark()
                with contextlib.redirect_stderr(err):
                    if recorder is None:
                        rc = cli.main(args)
                    else:
                        rc = recorder.span(f"cli.{command}", cli.main, args)
                results.append((command, args[-1] if command == "demo" else "", rc,
                                expected, (start, self.clock.mark()), err.getvalue().strip()))
        return out_dir, results

    def check(self, op, out):
        out_dir, results = out
        problems = []
        for command, what, rc, expected, _, err in results:
            if rc == cli.EXIT_ENVELOPE_FAIL and command == "simulate":
                problems.append(("envelope", f"cli simulate exited {rc}: {err}"))
            elif rc != expected:
                problems.append(("wrong", f"cli {command} {what} exited {rc}, expected {expected}: {err}"))
        digests = {p.name: _digest(p) for p in sorted(out_dir.iterdir())}
        self.report_bytes = sum(
            p.stat().st_size for p in out_dir.iterdir() if not p.name.endswith("_trace.csv"))
        shutil.rmtree(out_dir)
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            differ = sorted(k for k in set(digests) | set(self._digests)
                            if digests.get(k) != self._digests.get(k))
            problems.append(("wrong", f"rerun output differs in {differ}"))
        return problems

    def record(self):
        rec = instance_record(self.spec_seed, self.spec, self.decomp)
        rec["calls"] = [" ".join(argv[:1] + argv[2:]) for _, argv, _ in self.calls]
        return {"instance": rec}

    def extra_metrics(self, outs):
        per_command = {}
        for _, results in outs:
            round_s = {}
            for command, _, _, _, marks, _ in results:
                cal, raw = round_s.get(command, (0.0, 0.0))
                round_s[command] = (cal + self.clock.calibrated(*marks),
                                    raw + self.clock.raw(*marks))
            for command, pair in round_s.items():
                per_command.setdefault(command, []).append(pair)
        metrics = {}
        for command, pairs in per_command.items():
            for prefix, k in (("", 0), ("raw.", 1)):
                metrics[f"{prefix}cli.{command}_ms"] = {
                    "value": statistics.median(p[k] for p in pairs) * 1e3,
                    "unit": "ms", "samples": len(pairs)}
        return metrics


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()

WORKLOADS = {w.name: w for w in (DecideSweep, CascadeZeroInput, ForcedMultiLeader, CliFiles)}
