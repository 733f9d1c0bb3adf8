"""formstab benchmark: fixed-seed workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 [--runs 10]

A single workload runs in this process as a closed loop, one op at a time.
`--trace 0` times ops untraced and reports the end-to-end metrics;
`--trace 1` runs whole passes untraced, then the same passes with every
public layer function wrapped in a span, and reports per-layer metrics.
Times are calibrated (see calibrate.py); raw times are in the record.
The last stdout line is one JSON object: correct, attempted, failed and the
metrics named in BENCHMARK.json.  `--workload all` runs every workload in a
process of its own (seeds seed, seed+1, ... for `--runs` runs each) and
prints one row per workload and the run-to-run spread.

Exit codes: 0 ran (see `correct`), 1 the benchmark itself failed,
2 the formstab sources are missing.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: pinned before numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
P95_MIN_SAMPLES = 200  # ten samples beyond the 95th percentile


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base-seed", type=int, default=0,
                   help="first seed of the instance-size search")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--runs", type=int, default=1, help="runs per workload with 'all'")
    return p.parse_args(argv)


def load_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# one workload, in this process


class Tally:
    """Op outcomes: clock marks around each op, kept outputs, failures."""

    def __init__(self, keep_outs=False):
        self.marks, self.outs = [], []
        self.failed, self.problems = 0, []
        self.keep_outs = keep_outs

    def add(self, marks, out, problems):
        self.marks.append(marks)
        if self.keep_outs and out is not None:
            self.outs.append(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def seconds(self, clock):
        """(calibrated, raw) seconds per op; call once the run is over."""
        return ([clock.calibrated(a, b) for a, b in self.marks],
                [clock.raw(a, b) for a, b in self.marks])


def run_op(wl, clock, tally, op, recorder=None, op_id=None):
    """One op between two clock marks; its check runs after the second."""
    if recorder is not None:
        recorder.begin_op(op_id)
    start = clock.mark()
    try:
        out = wl.run(op, recorder)
        problems = None
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        out, problems = None, [("error", f"{type(exc).__name__}: {exc}")]
    finally:
        end = clock.mark()
        if recorder is not None:
            recorder.end_op()
    if problems is None:
        problems = wl.check(op, out)
    tally.add((start, end), out, problems)


def _setup(workloads, clock, args, work_dir):
    """Build the workload SETUP_REPEATS times (once when tracing).  Returns
    the last instance and the clock marks around each build."""
    cls = workloads.WORKLOADS[args.workload]
    marks = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = clock.mark()
        wl = cls(args.seed, args.base_seed, work_dir, clock)
        wl.setup()
        marks.append((start, clock.mark()))
    return wl, marks


def run_timed(wl, clock, seconds) -> Tally:
    """Closed loop over the op list, pass after pass, until `seconds` pass.

    The loop ends on a pass boundary, so each kind of op keeps its share of
    the samples, unless the workload stops inside a pass."""
    ops = wl.ops()
    tally = Tally(keep_outs=wl.keep_outputs)
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds or (
        k % len(ops) and not wl.stop_inside_pass
    ):
        run_op(wl, clock, tally, ops[k % len(ops)])
        k += 1
    return tally


def run_traced(wl, clock, seconds, spans):
    """Whole passes untraced until seconds/2, then as many passes traced.
    Returns the two tallies, the recorder, the pass count and report bytes."""
    ops = wl.ops()
    plain, traced = Tally(), Tally()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds / 2:
        for op in ops:
            run_op(wl, clock, plain, op)
        passes += 1

    recorder = spans.SpanRecorder()
    restore = spans.install(recorder)
    report_bytes = 0
    try:
        for p in range(passes):
            for k, op in enumerate(ops):
                run_op(wl, clock, traced, op, recorder, p * len(ops) + k)
                report_bytes += wl.report_bytes
    finally:
        restore()
    return plain, traced, recorder, passes, report_bytes


def e2e_metrics(wl, clock, tally, setup_s, setup_raw_s) -> dict:
    calibrated, raw = tally.seconds(clock)
    out = {}
    for prefix, lat, setup in (("", calibrated, setup_s), ("raw.", raw, setup_raw_s)):
        out[prefix + "setup_s"] = {"value": setup, "unit": "s"}
        out[prefix + "ops_per_s"] = {"value": len(lat) / sum(lat), "unit": "ops/s"}
        out[prefix + "op_p50_ms"] = {"value": statistics.median(lat) * 1e3, "unit": "ms",
                                     "samples": len(lat)}
        if len(lat) >= P95_MIN_SAMPLES:
            p95 = statistics.quantiles(lat, n=20, method="inclusive")[18]
            out[prefix + "op_p95_ms"] = {"value": p95 * 1e3, "unit": "ms", "samples": len(lat)}
    out["failed_ratio"] = {"value": tally.failed / len(raw), "unit": "ratio"}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    out["speed_scale"] = {"value": sum(calibrated) / sum(raw), "unit": "ratio"}
    out.update(wl.extra_metrics(tally.outs))
    return out


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "formstab" / "__init__.py").is_file():
        print(f"formstab sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    listed = load_benchmark_json()
    import calibrate
    import formstab
    import spans
    import workloads

    if not Path(formstab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"formstab imported from {formstab.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {list(workloads.WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 1
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "base_seed": args.base_seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}
    clock = calibrate.SpeedClock()
    try:
        with clock:
            imported = (0, 0.0, PROCESS_START), clock.mark()
            wl, setup_marks = _setup(workloads, clock, args, work_dir)
            if args.trace:
                plain, traced, recorder, passes, report_bytes = run_traced(
                    wl, clock, args.seconds, spans)
                tallies = (plain, traced)
            else:
                tally = run_timed(wl, clock, args.seconds)
                tallies = (tally,)
            run_problems = wl.finish()
        record.update(wl.record())
        if args.trace:
            overhead = (statistics.median(traced.seconds(clock)[0])
                        / statistics.median(plain.seconds(clock)[0]))
            metrics = spans.layer_metrics(recorder, passes, len(traced.marks), report_bytes,
                                          overhead)
            spans_path = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            recorder.write(spans_path)
            record["passes"] = passes
            record["spans_file"] = str(spans_path.relative_to(ROOT))
            wanted = [m["name"] for m in listed["per_layer"]]
        else:
            setup_cal = [clock.calibrated(a, b) for a, b in setup_marks]
            setup_raw = [clock.raw(a, b) for a, b in setup_marks]
            import_cal, import_raw = clock.calibrated(*imported), clock.raw(*imported)
            metrics = e2e_metrics(wl, clock, tally, import_cal + statistics.median(setup_cal),
                                  import_raw + statistics.median(setup_raw))
            record["setup"] = {"imports_s": import_raw, "calibrated_s": setup_cal,
                               "raw_s": setup_raw}
            wanted = [m["name"] for m in listed["end_to_end"]]
        record["probes"] = {"count": len(clock.took),
                            "median_ms": statistics.median(clock.took) * 1e3}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(len(t.marks) for t in tallies)
    failed = sum(t.failed for t in tallies)
    problems = [p for t in tallies for p in t.problems] + run_problems
    record["problems"] = [{"kind": k, "message": m, "count": c}
                          for (k, m), c in Counter(problems).items()]
    record["metrics"] = metrics
    _print_human(args.workload, metrics, attempted, failed, problems)
    print("record: " + json.dumps(record, sort_keys=True, default=float))
    missing = [n for n in wanted if n not in metrics]
    if missing:
        print(f"benchmark bug: metrics not computed: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        # the known envelope defect fails ops but leaves the outputs correct
        "correct": all(kind == "envelope" for kind, _ in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]} for n in wanted},
    }))
    return 0


def _print_human(workload, metrics, attempted, failed, problems):
    print(f"workload {workload}: {attempted} ops, {failed} failed")
    for kind, message in dict.fromkeys(problems):
        print(f"  {kind}: {message}")
    for name in sorted(metrics):
        m = metrics[name]
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}{extra}")


# ---------------------------------------------------------------------------
# every workload, one process each


def run_all(args) -> int:
    ok = True
    rows = {}
    for name in [w["name"] for w in load_benchmark_json()["workloads"]]:
        for r in range(args.runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed + r), "--base-seed", str(args.base_seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {args.seed + r}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
            ok &= result["correct"]
            rows.setdefault(name, []).append((result, record))
    for name, runs in rows.items():
        failed = sum(r["failed"] for r, _ in runs)
        attempted = sum(r["attempted"] for r, _ in runs)
        correct = all(r["correct"] for r, _ in runs)
        print(f"{name}: runs={len(runs)} correct={correct} failed={failed}/{attempted}")
        for metric in sorted(runs[0][1]["metrics"]):
            values = [rec["metrics"][metric]["value"] for _, rec in runs if metric in rec["metrics"]]
            unit = runs[0][1]["metrics"][metric]["unit"]
            med = statistics.median(values)
            spread = ""
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"  spread {(q3 - q1) / abs(med):.3f}"
            print(f"  {metric:48s} {med:14.6g} {unit}{spread}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
