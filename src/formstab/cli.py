"""Command-line front-end.

Subcommands: check, synthesize, simulate, pairwise, demo.  Exit codes form
a contract for CI gating: 0 = stable / envelope pass, 2 = unstable,
3 = envelope fail, 1 = usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import criterion, instances, pairwise, synthesis
from .controllers import load_controller, save_controller
from .errors import FormationValidationError, FormstabError, NonDecayError
from .linalg import DEFAULT_TOLERANCES, Tolerances
from .model import _write_json, decompose, load_formation, split_components
from .simulation import (
    ConstantSignal,
    SinusoidSignal,
    ZeroSignal,
    chain_residual,
    fit_envelope,
    ideal_initial_states,
    simulate,
    write_trace_csv,
)

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_UNSTABLE = 2
EXIT_ENVELOPE_FAIL = 3


@dataclass(frozen=True)
class RunConfig:
    """One record of every knob the commands share.  Config files set the
    tolerances by their field names (``eps_solve``, ``eps_hurwitz``,
    ``rank_cutoff``) next to ``dt``, ``T``, ``seed`` and ``out``."""

    tolerances: Tolerances = DEFAULT_TOLERANCES
    dt: float | None = None
    T: float = 20.0
    seed: int = 0
    out: str = "."

    def __post_init__(self):
        for name in ("T", "dt"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val}")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")
        if self.dt is not None and not 0 < self.dt < self.T:
            raise ValueError("need T > dt > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


_TOLERANCE_KEYS = ("eps_solve", "eps_hurwitz", "rank_cutoff")
_CONFIG_TYPES = {"out": str, "seed": int}  # every other key takes a number


def _load_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(_TOLERANCE_KEYS) - {"dt", "T", "seed", "out"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            if key == "dt" and val is None:
                continue
            if isinstance(val, bool) or not isinstance(val, _CONFIG_TYPES.get(key, (int, float))):
                raise ValueError(f"config key {key!r} has invalid value {val!r}")
            if key not in _CONFIG_TYPES and isinstance(val, int) and abs(val) > sys.float_info.max:
                raise ValueError(f"config key {key!r} is an integer too large for a float")
        tol = {k: data.pop(k) for k in _TOLERANCE_KEYS if k in data}
        cfg = RunConfig(tolerances=Tolerances(**tol), **data)
    overrides = {}
    for key in ("dt", "T", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means "unstable" here
    def exit(self, status=0, message=None):
        super().exit(EXIT_INPUT_ERROR if status == 2 else status, message)


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(x) for x in text.split(",")])


def _parse_signal(text: str, m: int):
    """zero | const:v1,v2,... | sin:a1,a2,...@omega[@phase]"""
    if text == "zero":
        return ZeroSignal(m)
    if text.startswith("const:"):
        return ConstantSignal(_parse_vector(text[len("const:") :]))
    if text.startswith("sin:"):
        body = text[len("sin:") :].split("@")
        if len(body) not in (2, 3):
            raise ValueError("sinusoid format is sin:a1,a2,...@omega[@phase]")
        phase = float(body[2]) if len(body) == 3 else 0.0
        return SinusoidSignal(_parse_vector(body[0]), float(body[1]), phase)
    raise ValueError(f"unknown signal spec {text!r}")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_instance(path: str):
    spec = load_formation(path)
    return spec, decompose(spec)


# ---------------------------------------------------------------------------
# commands


def cmd_check(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    stem = Path(args.spec).stem
    spec = load_formation(args.spec)

    if args.split:
        parts = split_components(spec)
        all_stable = True
        for ids, sub in parts:
            rep = criterion.check(sub, decompose(sub), cfg.tolerances)
            all_stable &= rep.stable
            label = ",".join(str(i) for i in ids)
            print(f"component [{label}]: {rep.overall}")
            print(rep.format_table())
        return EXIT_OK if all_stable else EXIT_UNSTABLE

    rep = criterion.check(spec, decompose(spec), cfg.tolerances)
    _write_json(out / f"{stem}_criterion.json", rep.to_dict())
    table = rep.format_table()
    (out / f"{stem}_criterion.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    return EXIT_OK if rep.stable else EXIT_UNSTABLE


def cmd_synthesize(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    stem = Path(args.spec).stem
    spec, decomp = _load_instance(args.spec)
    rep = criterion.check(spec, decomp, cfg.tolerances)
    if not rep.stable:
        print("instance is unstable; no controller exists", file=sys.stderr)
        return EXIT_UNSTABLE

    split = {"parent-only": synthesis.PARENT_ONLY, "uniform": synthesis.UNIFORM}[args.strategy]
    # the verification that synthesis already ran is the one printed
    family = synthesis._enumerate_family(
        spec, decomp, rep, args.family, cfg.seed, cfg.tolerances, split
    )
    if len(family) == 1:
        save_controller(family[0][0], out / f"{stem}_controller.json")
        print(f"wrote controller to {out / (stem + '_controller.json')}")
    else:
        for k, (ctrl, _) in enumerate(family):
            save_controller(ctrl, out / f"{stem}_controller_{k}.json")
        print(f"wrote {len(family)} controllers to {out}")
    ver = family[0][1]
    print(
        f"verification: {'pass' if ver.passed else 'FAIL'}  "
        f"matrix defect {ver.max_matrix_defect:.3e}  offset defect {ver.max_offset_defect:.3e}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    plot = Path(args.plot) if args.plot else None
    if plot:  # made before anything is written, as _out_dir makes --out
        plot.parent.mkdir(parents=True, exist_ok=True)
    stem = Path(args.spec).stem
    spec, decomp = _load_instance(args.spec)

    if args.controller:
        ctrl = load_controller(args.controller)
    else:
        rep = criterion.check(spec, decomp, cfg.tolerances)
        if not rep.stable:
            print("instance is unstable; cannot auto-synthesize", file=sys.stderr)
            return EXIT_UNSTABLE
        ctrl = synthesis.synthesize(spec, decomp, rep, tol=cfg.tolerances)

    if args.ideal:
        x0 = ideal_initial_states(decomp, np.zeros(spec.n))
    elif args.x0:
        rows = [_parse_vector(part) for part in args.x0.split(";")]
        if len(rows) != spec.l or any(r.shape != (spec.n,) for r in rows):
            raise ValueError(
                f"--x0 needs {spec.l} groups of {spec.n} values separated by ';'"
            )
        x0 = {i: rows[i - 1] for i in spec.nodes}
    else:  # random initial states by default
        rng = np.random.default_rng(cfg.seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}

    sig = _parse_signal(args.signals, spec.m)
    signals = {i: sig for i in sorted(decomp.leaders)}

    trace = simulate(spec, decomp, ctrl, x0, signals=signals, T=cfg.T, dt=cfg.dt,
                     tol=cfg.tolerances)
    fit = fit_envelope(trace, decomp, cfg.tolerances)  # a fit that raises writes no trace
    write_trace_csv(trace, decomp, out / f"{stem}_trace.csv")
    _write_json(out / f"{stem}_envelope.json", fit.to_dict())
    if plot:
        _write_error_svg(trace, decomp, plot)
    print(
        f"envelope: {'pass' if fit.passed else 'FAIL'}  "
        f"max violation {fit.max_violation:.3e}  ||z(0)|| = {fit.z0_norm:.6g}"
    )
    return EXIT_OK if fit.passed else EXIT_ENVELOPE_FAIL


def cmd_pairwise(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(cfg)
    stem = Path(args.spec).stem
    spec, decomp = _load_instance(args.spec)
    cross = pairwise.cross_compare(spec, decomp, cfg.tolerances)
    _write_json(out / f"{stem}_pairwise.json", cross.to_dict())
    print(cross.pairwise.format_table())
    print(f"formation verdict: {cross.criterion.overall}")
    print(f"pattern: {cross.pattern}")
    return EXIT_OK


def _expect(condition: bool, message: str):
    if not condition:
        print(f"DEMO MISMATCH: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT_ERROR)
    print(f"  ok: {message}")


def cmd_demo(args) -> int:
    cfg = _load_config(args)
    spec = instances.demo_instance(args.name)
    tol = cfg.tolerances
    decomp = decompose(spec)
    cross = pairwise.cross_compare(spec, decomp, tol)
    rep = cross.criterion
    print(f"demo {args.name}: verdict {rep.overall}, pattern {cross.pattern}")

    if args.name == "example2":
        _expect(rep.stable, "formation is stable")
        _expect(
            not cross.pairwise.entry((3, 2)).stable,
            "pair (3, 2) alone is unstable",
        )
        n2 = rep.gain_solution(2)
        n3 = rep.gain_solution(3)
        _expect(
            np.allclose(n2.N, [[1.0, 1.0]]) and np.allclose(n3.N, [[1.0, 1.0]]),
            "aggregate gains are [1, 1] for both followers",
        )
        _expect(
            np.allclose(n2.k_tilde, [-1.0]) and np.allclose(n3.k_tilde, [-4.0]),
            "offsets are -1 and -4",
        )
        ctrl = synthesis.synthesize(spec, decomp, rep, tol=tol)
        x0 = ideal_initial_states(decomp, np.zeros(spec.n))
        trace = simulate(spec, decomp, ctrl, x0, T=10.0, tol=tol)
        worst = max(float(np.abs(z).max()) for z in trace.errors.values())
        _expect(worst <= 1e-9, f"ideal run keeps errors at zero (max {worst:.2e})")
    elif args.name == "example1":
        _expect(not rep.stable, "formation is unstable")
        _expect(cross.pairs_all_stable, "all three pairs alone are stable")
        bad = [c for c in rep.condition3 if not c.passed]
        _expect(
            [c.edge for c in bad] == [(3, 1)],
            "displacement condition fails exactly on edge (3, 1)",
        )
        d = spec.displacement(3, 1)
        _expect(
            np.allclose(bad[0].defect, -d),
            "the (3, 1) defect equals minus the shared displacement",
        )
    elif args.name == "remark5":
        _expect(not rep.stable, "formation is unstable")
        _expect(rep.condition4.binding and rep.condition4.passed,
                "leader matrices agree and are Hurwitz")
        _expect(all(c.passed for c in rep.condition2), "follower equations are solvable")
        bad = [c.edge for c in rep.condition3 if not c.passed]
        _expect(bad == [(3, 1)], "condition d_31 = d_32 violated")
        print("  condition d_31 = d_32 violated: displacements toward the two "
              "leaders differ, which no control can reconcile")
    elif args.name == "triangle":
        _expect(rep.stable, "formation is stable")
        _expect(rep.applicable_corollary == "none", "no special-case corollary applies")
        ctrl = synthesis.synthesize(spec, decomp, rep, tol=tol)
        rng = np.random.default_rng(cfg.seed)
        x0 = {i: rng.standard_normal(spec.n) for i in spec.nodes}
        # the unstable leader grows like exp(2t); the envelope check allows
        # for the roundoff of such states, so the short horizon only saves time
        trace = simulate(spec, decomp, ctrl, x0, T=6.0, tol=tol)
        resid = chain_residual(trace, decomp, (3, 1), 2)
        _expect(float(resid.max()) <= 1e-9, "two-parent chain identity holds on the trace")
        fit = fit_envelope(trace, decomp, tol)
        _expect(fit.passed, "error envelope holds")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plotting (dependency-free SVG)


_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _write_error_svg(trace, decomp, path: Path):
    """Line chart of per-edge error norms over time."""
    width, height, margin = 720, 440, 50.0
    times = trace.times
    edges = decomp.edge_order(trace.errors)
    norms = {e: np.linalg.norm(trace.errors[e], axis=1) for e in edges}
    y_max = max((float(v.max()) for v in norms.values()), default=1.0)
    y_max = y_max if y_max > 0 else 1.0
    t_max = float(times[-1]) if times[-1] > 0 else 1.0

    def sx(t):
        return margin + (width - 2 * margin) * t / t_max

    def sy(v):
        return height - margin - (height - 2 * margin) * v / y_max

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
    ]
    for k in range(5):
        t = t_max * k / 4
        v = y_max * k / 4
        parts.append(
            f'<text x="{sx(t):.1f}" y="{height - margin + 18:.1f}" font-size="11" '
            f'text-anchor="middle">{t:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6:.1f}" y="{sy(v) + 4:.1f}" font-size="11" '
            f'text-anchor="end">{v:.3g}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 10:.1f}" font-size="12" '
        f'text-anchor="middle">t</text>'
    )
    for idx, e in enumerate(edges):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{sx(float(t)):.2f},{sy(float(v)):.2f}" for t, v in zip(times, norms[e])
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4:.1f}" y="{margin + 14 * idx + 10:.1f}" '
            f'font-size="11" fill="{color}">z_{e[0]}_{e[1]}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="formstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *run_flags):
        """The spec, --config and --out, plus the named flags among
        seed, dt and T that the command reads."""
        p.add_argument("spec", help="formation instance file (JSON)")
        p.add_argument("--config", help="config file (JSON)")
        for flag in run_flags:
            p.add_argument(f"--{flag}", type=int if flag == "seed" else float, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("check", help="decide internal stability")
    common(p)
    p.add_argument("--split", action="store_true",
                   help="analyze each weak component independently")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="construct a stabilizing controller")
    common(p, "seed")
    p.add_argument("--strategy", choices=["parent-only", "uniform"], default="parent-only")
    p.add_argument("--family", type=int, default=1,
                   help="sample this many members of the controller family")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="integrate the closed loop and check the envelope")
    common(p, "seed", "dt", "T")
    p.add_argument("--controller", help="controller file (JSON); default: synthesize")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--ideal", action="store_true",
                       help="start every agent at its ideal offset")
    group.add_argument("--x0", help="explicit initial states: 'v1,v2;v1,v2;...' "
                                    "(default: random, drawn from --seed)")
    p.add_argument("--signals", default="zero",
                   help="leader inputs: zero | const:v1,... | sin:a1,...@omega[@phase]")
    p.add_argument("--plot", help="write an SVG chart of error norms to this path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pairwise", help="analyze every edge as a two-agent formation")
    common(p)
    p.set_defaults(func=cmd_pairwise)

    p = sub.add_parser("demo", help="run a bundled instance end to end")
    p.add_argument("name", help="one of: " + ", ".join(sorted(instances.DEMO_BUILDERS)))
    p.add_argument("--config", help="config file (JSON)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # usage errors, --help and demo mismatches
        return int(exc.code or 0)
    except NonDecayError as exc:  # the error loop grows: the envelope fails
        print(f"envelope: FAIL  {exc}")
        return EXIT_ENVELOPE_FAIL
    except FormationValidationError as exc:
        print("invalid formation:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (FormstabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
