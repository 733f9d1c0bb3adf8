"""Command-line interface: exit-code contract, file outputs, determinism."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import formstab
import formstab.cli
import formstab.simulation
from formstab import (
    AgentDynamics,
    CertificateError,
    Edge,
    FormationSpec,
    save_controller,
    save_formation,
)
from formstab.cli import main
from formstab.controllers import assemble_controller, controller_to_dict
from formstab.instances import (
    demo_instance,
    demo_path,
    three_agent_chain,
    triangle_mismatched_offsets,
)
from formstab.model import formation_to_dict
from formstab.pairwise import cross_compare
from formstab import check, decompose, is_hurwitz, synthesize


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "chain.json"
    save_formation(three_agent_chain(), path)
    return str(path)


@pytest.fixture(scope="module")
def near_axis():
    """Two leaders that decay at rate 1e-10 only, and one follower of both:
    stable under eps_hurwitz = 1e-12, unstable under the default 1e-9."""
    A = np.diag([-1e-10, -1.0])
    B = np.array([[1.0], [1.0]])
    B3 = np.array([[1.0], [0.0]])
    A3 = A - B3 @ np.array([[1.0, 0.0]])
    d = np.array([1.0, 0.0])
    return FormationSpec(
        n=2, m=1,
        agents=(AgentDynamics(A=A, B=B), AgentDynamics(A=A, B=B), AgentDynamics(A=A3, B=B3)),
        edges=(Edge(3, 1, d), Edge(3, 2, d)),
    )


class TestCheck:
    def test_stable_instance_exits_zero(self, tmp_path):
        code = main(["check", str(demo_path("example2")), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "example2_criterion.json").read_text())
        assert report["overall"] == "stable"
        assert (tmp_path / "example2_criterion.txt").exists()

    def test_unstable_instance_exits_two(self, tmp_path):
        assert main(["check", str(demo_path("example1")), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("name,stable", [
        ("example1", False), ("example2", True), ("remark5", False), ("triangle", True)])
    def test_bundled_file_exit_codes(self, name, stable, tmp_path):
        # check exits 2 on the two unstable files, and synthesize and
        # simulate exit 2 on them as check does; pairwise reports either way
        path = str(demo_path(name))
        assert main(["check", path, "--out", str(tmp_path)]) == (0 if stable else 2)
        assert main(["pairwise", path, "--out", str(tmp_path)]) == 0
        if not stable:
            for command in ("synthesize", "simulate"):
                assert main([command, path, "--out", str(tmp_path)]) == 2

    def test_malformed_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad)]) == 1

    def test_missing_file_exits_one(self):
        assert main(["check", "/nonexistent/nope.json"]) == 1

    def test_invalid_formation_exits_one(self, tmp_path):
        doc = {
            "n": 2,
            "m": 1,
            "agents": [
                {"A": [[0, 0], [0, 0]], "B": [[0], [0]]},
                {"A": [[0, 0], [0, 0]], "B": [[0], [0]]},
            ],
            "edges": [
                {"from": 1, "to": 2, "d": [0, 0]},
                {"from": 2, "to": 1, "d": [0, 0]},
            ],
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1

    def test_non_finite_displacement_exits_one_and_writes_nothing(self, tmp_path, capsys):
        doc = json.loads(demo_path("triangle").read_text(encoding="utf-8"))
        doc["edges"][0]["d"][0] = float("nan")
        path = tmp_path / "nan_d.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        for command in ("check", "pairwise", "simulate"):
            assert main([command, str(path), "--out", str(out)]) == 1
            assert capsys.readouterr().err == (
                "invalid formation:\n"
                "  - non_finite: edge (2, 1): d has a NaN or infinite entry\n")
        assert list(out.iterdir()) == []

    def test_defect_scale_that_overflows_exits_one(self, tmp_path, capsys):
        # the paper's unstable triangle, its displacements scaled by 1e200
        doc = json.loads(demo_path("example1").read_text(encoding="utf-8"))
        for edge in doc["edges"]:
            edge["d"] = [x * 1e200 for x in edge["d"]]
        path = tmp_path / "huge_d.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "the defect scale 1 + ||A_ref||_F + max ||d_ij|| overflows" in (
            capsys.readouterr().err)
        assert list((tmp_path / "out").iterdir()) == []

    def test_follower_data_too_large_for_floats_exits_one(self, tmp_path, capsys):
        # example 2 with A_3 = A_ref - B_3 [1e200, 1e200]: its gain equation is
        # exactly solvable, but the residual overflows
        doc = json.loads(demo_path("example2").read_text(encoding="utf-8"))
        A_ref, B3 = np.array(doc["agents"][0]["A"]), np.array(doc["agents"][2]["B"])
        doc["agents"][2]["A"] = (A_ref - B3 @ np.array([[1e200, 1e200]])).tolist()
        path = tmp_path / "huge_A3.json"
        path.write_text(json.dumps(doc))
        for command in ("check", "pairwise"):
            out = tmp_path / command
            assert main([command, str(path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: follower 3: ") and "float range" in err
            assert not out.exists() or list(out.iterdir()) == []

    def test_usage_error_exits_one(self):
        assert main(["check"]) == 1
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "SPEC", "--T", "abc"],
         "formstab simulate: error: argument --T: invalid float value: 'abc'\n"),
        (["simulate", "SPEC", "--frob"], "formstab: error: unrecognized arguments: --frob\n"),
        (["simulate"], "formstab simulate: error: the following arguments are required: spec\n"),
        (["synthesize", "SPEC", "--strategy", "nope"],
         "formstab synthesize: error: argument --strategy: invalid choice: 'nope'"),
    ], ids=["bad_float", "unknown_flag", "missing_spec", "bad_choice"])
    def test_usage_error_names_its_cause(self, chain_file, capsys, argv, message):
        argv = [chain_file if a == "SPEC" else a for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: formstab")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_exits_zero_with_usage_on_stdout(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: formstab")
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["check", "--T", "5"],
        ["check", "--seed", "1"],
        ["pairwise", "--dt", "0.1"],
        ["synthesize", "--T", "5"],
    ])
    def test_flag_the_command_does_not_read_exits_one(self, chain_file, argv):
        assert main([argv[0], chain_file] + argv[1:]) == 1

    def test_split_mode_analyzes_components(self, tmp_path, capsys):
        doc = {
            "n": 1,
            "m": 1,
            "agents": [{"A": [[-1.0]], "B": [[1.0]]}, {"A": [[-2.0]], "B": [[1.0]]}],
            "edges": [],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1  # rejected without --split
        assert main(["check", str(path), "--split", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "component [1]" in out and "component [2]" in out

        # an edge to a node that does not exist is named, not dropped by the split
        doc["edges"] = [{"from": 2, "to": 1, "d": [0.0]}, {"from": 2, "to": 99, "d": [0.0]}]
        path.write_text(json.dumps(doc))
        for extra in ([], ["--split"]):
            assert main(["check", str(path), *extra, "--out", str(tmp_path)]) == 1
            assert capsys.readouterr().err == (
                "invalid formation:\n"
                "  - dimension_mismatch: edge (2, 99) references unknown node 99\n"
            )


class TestSynthesize:
    def test_writes_verified_controller(self, chain_file, tmp_path):
        code = main(["synthesize", chain_file, "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "chain_controller.json").read_text())
        assert set(data["followers"]) == {"2", "3"}

    def test_unstable_exits_two(self, tmp_path):
        assert main(["synthesize", str(demo_path("example1")), "--out", str(tmp_path)]) == 2

    def test_family_writes_n_files(self, chain_file, tmp_path):
        code = main(["synthesize", chain_file, "--family", "5", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        files = sorted(tmp_path.glob("chain_controller_*.json"))
        assert len(files) == 5

    @pytest.mark.parametrize("extra,controllers", [([], 1), (["--family", "8"], 8)])
    def test_verifies_each_controller_once(self, chain_file, tmp_path, monkeypatch,
                                           capsys, extra, controllers):
        from formstab import criterion, synthesis

        calls = []
        original = criterion.verify_controller

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(criterion, "verify_controller", counting)
        monkeypatch.setattr(synthesis, "verify_controller", counting)
        assert main(["synthesize", chain_file, "--out", str(tmp_path)] + extra) == 0
        assert len(calls) == controllers
        assert "verification: pass" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_family_below_one_exits_one_and_writes_nothing(self, chain_file, tmp_path, capsys,
                                                           count):
        capsys.readouterr()
        assert main(["synthesize", chain_file, "--family", count, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: count must be at least 1\n"
        assert list(tmp_path.iterdir()) == []

    def test_strategy_sets_member_zero_of_the_family(self, tmp_path):
        path = str(demo_path("triangle"))
        one, many = tmp_path / "one", tmp_path / "many"
        assert main(["synthesize", path, "--strategy", "uniform", "--out", str(one)]) == 0
        assert main(["synthesize", path, "--strategy", "uniform", "--family", "3",
                     "--out", str(many)]) == 0
        assert ((many / "triangle_controller_0.json").read_bytes()
                == (one / "triangle_controller.json").read_bytes())

    def test_uniform_strategy(self, tmp_path):
        code = main(["synthesize", str(demo_path("triangle")), "--strategy",
                     "uniform", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "triangle_controller.json").read_text())
        k3 = data["followers"]["3"]["K"]
        assert np.allclose(k3["1"], k3["2"])  # even split over both parents


class TestSimulate:
    def test_ideal_run_writes_zero_error_columns(self, chain_file, tmp_path):
        code = main(["simulate", chain_file, "--ideal", "--T", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "chain_trace.csv").read_text().splitlines()
        header = rows[0].split(",")
        zcols = [k for k, name in enumerate(header) if name.startswith("z_")]
        worst = max(
            abs(float(row.split(",")[k])) for row in rows[1:] for k in zcols
        )
        assert worst <= 1e-9
        assert json.loads((tmp_path / "chain_envelope.json").read_text())["passed"]

    def test_random_run_passes_envelope(self, chain_file, tmp_path):
        code = main(["simulate", chain_file, "--seed", "1", "--T", "6",
                     "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("name", ["example2", "triangle"])
    def test_bundled_stable_file_passes_at_default_settings(self, name, tmp_path):
        # the unstable leader grows like exp(2t), so by T=20 the errors are
        # float roundoff of states near exp(40)
        assert main(["simulate", str(demo_path(name)), "--out", str(tmp_path)]) == 0

    def test_destabilized_controller_exits_three(self, chain_file, tmp_path):
        spec = three_agent_chain()
        dec = decompose(spec)
        rep = check(spec, dec)
        good = synthesize(spec, dec, rep)
        S = {i: good.gains(i).S for i in (2, 3)}
        S[2] = -S[2]
        assert not is_hurwitz(spec.agent(2).A + spec.agent(2).B @ S[2]).is_hurwitz
        bad = assemble_controller(
            dec, 2, 1, S,
            {i: good.gains(i).N for i in (2, 3)},
            {i: good.gains(i).k_tilde for i in (2, 3)},
            {i: {dec.parent[i]: 1.0} for i in (2, 3)},
        )
        ctrl_path = tmp_path / "bad_controller.json"
        save_controller(bad, ctrl_path)
        code = main(["simulate", chain_file, "--controller", str(ctrl_path),
                     "--seed", "1", "--T", "6", "--out", str(tmp_path)])
        assert code == 3

    @staticmethod
    def _triangle_with_unstable_controller(tmp_path):
        """triangle.json and its synthesized controller with each S edited to
        5 - S, which makes the error loop grow."""
        path = str(demo_path("triangle"))
        assert main(["synthesize", path, "--out", str(tmp_path)]) == 0
        ctrl_path = tmp_path / "triangle_controller.json"
        doc = json.loads(ctrl_path.read_text())
        for fc in doc["followers"].values():
            fc["S"] = (5.0 - np.asarray(fc["S"])).tolist()
        ctrl_path.write_text(json.dumps(doc))
        return path, ctrl_path

    def test_growing_run_exits_three_with_its_finite_violation(self, tmp_path, capsys):
        # the states reach 1e158: their squares overflow, their norms do not
        path, ctrl_path = self._triangle_with_unstable_controller(tmp_path)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", path, "--controller", str(ctrl_path),
                         "--T", "20", "--out", str(tmp_path)])
        assert code == 3
        assert "envelope: FAIL  max violation 5.076e+157" in capsys.readouterr().out
        text = (tmp_path / "triangle_envelope.json").read_text()
        fit = json.loads(text)
        assert fit["passed"] is False and 1e157 < fit["max_violation"] < float("inf")
        assert "Infinity" not in text

    def test_long_run_past_the_square_root_of_the_range_passes(self, tmp_path, capsys):
        # the unstable leader reaches 5e259 at T=300 and the edge errors
        # 1e245: the fit takes their norms, not their squares, and so gives
        # the violation of T=150, where nothing overflows
        path = str(demo_path("triangle"))
        capsys.readouterr()
        violations = []
        for T in ("150", "300"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["simulate", path, "--T", T, "--out", str(tmp_path / T)]) == 0
            assert capsys.readouterr().out.startswith(
                "envelope: pass  max violation -1.269e-01  ")
            fit = json.loads((tmp_path / T / "triangle_envelope.json").read_text())
            violations.append(fit["max_violation"])
        assert violations[1] == violations[0]

    def test_initial_state_past_the_square_root_of_the_range(self, tmp_path, capsys):
        path = str(demo_path("triangle"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", path, "--T", "2", "--x0", "1e200,0;0,0;0,0",
                         "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("envelope: pass  ") and out.endswith("||z(0)|| = 1.41421e+200\n")
        text = (tmp_path / "triangle_envelope.json").read_text()
        assert json.loads(text)["z0_norm"] == 1.414213562373095e+200
        assert "Infinity" not in text

    def test_signal_past_the_square_root_of_the_range_is_accepted(self, tmp_path, capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", str(demo_path("triangle")), "--signals", "const:1e200",
                         "--T", "2", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.startswith("envelope: pass  ")

    def test_signal_whose_norm_overflows_exits_one(self, tmp_path, capsys):
        agent = AgentDynamics(A=-np.eye(2), B=np.eye(2))
        path = tmp_path / "pair.json"
        save_formation(FormationSpec(n=2, m=2, agents=(agent, agent),
                                     edges=(Edge(2, 1, np.array([1.0, 0.0])),)), path)
        capsys.readouterr()
        assert main(["simulate", str(path), "--signals", "const:1.7e308,1.7e308",
                     "--T", "2", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: ConstantSignal value [1.7e+308, 1.7e+308] overflows its norm\n")
        assert list((tmp_path / "out").iterdir()) == []

    def test_non_finite_state_of_a_growing_error_loop_exits_three(self, tmp_path, capsys):
        # at T=400 the state overflows before any fit: the cause is non-decay
        path, ctrl_path = self._triangle_with_unstable_controller(tmp_path)
        capsys.readouterr()
        code = main(["simulate", path, "--controller", str(ctrl_path),
                     "--T", "400", "--dt", "0.01", "--out", str(tmp_path)])
        assert code == 3
        out = capsys.readouterr().out
        assert "non-decay" in out and "not Hurwitz" in out and "t=" in out
        assert list(tmp_path.glob("*_trace.csv")) == []

    def test_non_finite_state_of_a_decaying_error_loop_names_the_horizon(self, tmp_path,
                                                                        capsys):
        # the stable triangle's leader grows like exp(2t): at T=400 its state
        # leaves the float range while the errors decay
        code = main(["simulate", str(demo_path("triangle")), "--T", "400",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "T=400.0 exceeds the float range of the leaders' own growth" in err
        assert "non-finite state at t=355." in err
        assert list(tmp_path.glob("*_trace.csv")) == []

    def test_a_horizon_within_the_default_step_names_it(self, tmp_path, capsys):
        # no --dt was given, so the message names T and the default step
        # rather than a dt the caller never set
        code = main(["simulate", str(demo_path("triangle")), "--T", "1e-3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: T=0.001 is not longer than the default step dt=0.00387367: "
            "give a smaller dt\n")
        assert list(tmp_path.iterdir()) == []

    def test_fit_that_raises_writes_no_trace(self, chain_file, tmp_path, monkeypatch):
        def failing(trace, decomp, tol):
            raise CertificateError("Lyapunov solution is not positive definite")

        monkeypatch.setattr(formstab.cli, "fit_envelope", failing)
        assert main(["simulate", chain_file, "--T", "2", "--out", str(tmp_path)]) == 1
        assert list(tmp_path.glob("*_trace.csv")) == []
        assert list(tmp_path.glob("*_envelope.json")) == []

    def test_failed_trace_worker_exits_one_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        parent, kernel = os.getpid(), formstab.simulation._edge_errors

        def kernel_failing_in_children(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("formatting failed")
            return kernel(*args, **kwargs)

        monkeypatch.setattr(formstab.simulation, "_csv_workers", lambda _: 2)
        monkeypatch.setattr(formstab.simulation, "_edge_errors", kernel_failing_in_children)
        path = str(demo_path("triangle"))
        assert main(["simulate", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: worker for trace rows")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_plot_into_new_nested_directory(self, chain_file, tmp_path):
        svg = tmp_path / "plots" / "run" / "errors.svg"
        code = main(["simulate", chain_file, "--T", "2", "--plot", str(svg),
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_sinusoid_signals_and_svg_plot(self, tmp_path):
        fork_stable = {
            "n": 2,
            "m": 1,
            "agents": [
                {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]},
                {"A": [[-1.0, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]]},
                {"A": [[-2.0, -1.0], [0.0, -1.0]], "B": [[1.0], [0.0]]},
            ],
            "edges": [
                {"from": 3, "to": 1, "d": [2.0, 0.0]},
                {"from": 3, "to": 2, "d": [2.0, 0.0]},
            ],
        }
        path = tmp_path / "fork.json"
        path.write_text(json.dumps(fork_stable))
        svg = tmp_path / "errors.svg"
        code = main(["simulate", str(path), "--seed", "2",
                     "--signals", "sin:0.7@1.5@0.2", "--T", "8",
                     "--plot", str(svg), "--out", str(tmp_path)])
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text

    def test_explicit_x0(self, chain_file, tmp_path):
        code = main(["simulate", chain_file, "--x0", "0,0;-2,-1;-4,-4",
                     "--T", "4", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("x0", ["0,0;-2,-1", "0,0;-2,-1;-4,-4;1,1", "0,0;-2;-4,-4"],
                             ids=["two_groups", "four_groups", "short_group"])
    def test_x0_of_the_wrong_size_exits_one(self, chain_file, tmp_path, capsys, x0):
        capsys.readouterr()
        assert main(["simulate", chain_file, "--x0", x0, "--T", "4",
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: --x0 needs 3 groups of 2 values separated by ';'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["example1", "remark5"])
    def test_unstable_instance_exits_two_and_writes_nothing(self, name, tmp_path, capsys):
        capsys.readouterr()
        assert main(["simulate", str(demo_path(name)), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "instance is unstable; cannot auto-synthesize\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_signal_spec_exits_one(self, chain_file, tmp_path):
        assert main(["simulate", chain_file, "--signals", "ramp:1",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("signal,message", [
        ("sin:1@nan", "SinusoidSignal omega must be finite, got nan"),
        ("const:inf", "ConstantSignal value must be finite, got [inf]"),
        ("sin:1@1@inf", "SinusoidSignal phase must be finite, got inf"),
        ("const:1,2", "signal of leader 1 has values of shape (2,), expected (1,)"),
        ("sin:1,2@1", "signal of leader 1 has values of shape (2,), expected (1,)"),
        ("sin:1@2@3@4", "sinusoid format is sin:a1,a2,...@omega[@phase]"),
        # a finite omega whose step increment e^(dt A) - I overflows
        ("sin:1@1e308", "dt=0.0038736707454286954 is too large a step for the inputs: the "
                        "step increment e^(dt A) - I overflows at ||dt A||_1 = 3.874e+305"),
    ], ids=["sin_nan_omega", "const_inf", "sin_inf_phase", "const_wrong_width",
            "sin_wrong_width", "sin_too_many_fields", "sin_huge_omega"])
    def test_bad_signal_parameter_names_its_cause(self, tmp_path, capsys, signal, message):
        capsys.readouterr()
        assert main(["simulate", str(demo_path("triangle")), "--signals", signal,
                     "--T", "2", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("doc", [[1], {"n": 2, "m": 1, "followers": [1]}])
    def test_malformed_controller_file_exits_one(self, chain_file, tmp_path, doc):
        path = tmp_path / "ctrl.json"
        path.write_text(json.dumps(doc))
        assert main(["simulate", chain_file, "--controller", str(path),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["followers"].pop("2"),
         "controller has gains for agents [3] but the followers are [2, 3]"),
        (lambda doc: doc["followers"].update({"4": doc["followers"]["2"]}),
         "controller has gains for agents [2, 3, 4] but the followers are [2, 3]"),
        (lambda doc: doc.update(n=3), "controller dims (3, 1) do not match spec (2, 1)"),
        (lambda doc: doc["followers"]["2"].update(S=[[1.0, 2.0, 3.0]]),
         "follower 2: S has shape (1, 3)"),
        (lambda doc: doc["followers"]["2"].update(K={"3": doc["followers"]["2"]["K"]["1"]}),
         "follower 2: per-parent gains keyed [3] but parents are [1]"),
        (lambda doc: doc["followers"]["2"]["K"].update({"1": [[1.0, 2.0, 3.0]]}),
         "follower 2: K for parent 1 has shape (1, 3)"),
        (lambda doc: doc["followers"]["2"].update(k=[1.0, 2.0]), "follower 2: k has shape (2,)"),
        # json writes and reads Infinity and NaN
        (lambda doc: doc["followers"]["2"]["S"][0].__setitem__(0, float("inf")),
         "error: the closed loop of agent 2 is not finite: a gain or matrix entry "
         "is NaN or infinite, or overflows\n"),
        (lambda doc: doc["followers"]["2"]["K"]["1"][0].__setitem__(0, float("nan")),
         "error: the closed loop of agent 2 is not finite: a gain or matrix entry "
         "is NaN or infinite, or overflows\n"),
        (lambda doc: doc["followers"]["3"]["S"][0].__setitem__(0, float("nan")),
         "error: the closed loop of agent 3 is not finite: a gain or matrix entry "
         "is NaN or infinite, or overflows\n"),
    ], ids=["missing_follower", "extra_follower", "wrong_n", "wrong_S_shape", "K_not_a_parent",
            "wrong_K_shape", "wrong_k_shape", "S_infinite", "K_nan", "S_nan"])
    def test_controller_that_does_not_fit_exits_one(self, tmp_path, capsys, edit, message):
        path = str(demo_path("triangle"))
        assert main(["synthesize", path, "--out", str(tmp_path)]) == 0
        ctrl_path = tmp_path / "triangle_controller.json"
        doc = json.loads(ctrl_path.read_text())
        edit(doc)
        ctrl_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["simulate", path, "--controller", str(ctrl_path),
                     "--T", "2", "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["triangle_controller.json"]


class TestPairwiseAndDemo:
    def test_reports_name_the_pbh_witness(self, tmp_path):
        # the follower's mode at 1 is unreachable from its input
        spec = FormationSpec(
            n=2, m=1,
            agents=(AgentDynamics(A=-np.eye(2), B=[[1.0], [0.0]]),
                    AgentDynamics(A=np.diag([1.0, -1.0]), B=[[0.0], [1.0]])),
            edges=(Edge(2, 1, [0.0, 0.0]),),
        )
        path = tmp_path / "witness.json"
        save_formation(spec, path)
        out = tmp_path / "out"
        assert main(["check", str(path), "--out", str(out)]) == 2
        assert main(["pairwise", str(path), "--out", str(out)]) == 0
        criterion = json.loads((out / "witness_criterion.json").read_text())
        assert criterion["condition1"] == [{"node": 2, "stabilizable": False,
                                            "witness": [1.0, 0.0], "implied": False,
                                            "passed": False}]
        pairwise = json.loads((out / "witness_pairwise.json").read_text())
        (edge,) = pairwise["pairwise"]["edges"]
        assert edge["edge"] == [2, 1] and edge["witness"] == [1.0, 0.0]
        assert pairwise["criterion"]["condition1"] == criterion["condition1"]

    def test_pairwise_report(self, chain_file, tmp_path, capsys):
        assert main(["pairwise", chain_file, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "formation-stable-pair-unstable" in out
        data = json.loads((tmp_path / "chain_pairwise.json").read_text())
        assert data["pattern"] == "formation-stable-pair-unstable"

    @pytest.mark.parametrize("name", ["example1", "example2", "remark5", "triangle"])
    def test_demos_pass(self, name):
        assert main(["demo", name]) == 0

    def test_demo_whose_expectation_fails_exits_one(self, capsys, monkeypatch):
        # example2's expectations read on an unstable triangle
        monkeypatch.setitem(formstab.instances.DEMO_BUILDERS, "example2",
                            triangle_mismatched_offsets)
        assert main(["demo", "example2"]) == 1
        assert capsys.readouterr().err == "DEMO MISMATCH: formation is stable\n"

    def test_unknown_demo_exits_one(self, capsys):
        assert main(["demo", "nonesuch"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: unknown demo 'nonesuch'; "
                       "available: example1, example2, remark5, triangle\n")
        with pytest.raises(ValueError) as exc:
            demo_path("nonesuch")
        assert err == f"error: {exc.value}\n"


class TestJsonFiles:
    """Each JSON file is written in one call, with the bytes `json.dump`
    writes followed by a newline."""

    @staticmethod
    def _dumped(payload):
        buf = io.StringIO()
        json.dump(payload, buf, indent=2)
        return (buf.getvalue() + "\n").encode()

    def test_controller_file(self, tmp_path):
        spec = demo_instance("triangle")
        dec = decompose(spec)
        ctrl = synthesize(spec, dec, check(spec, dec))
        save_controller(ctrl, tmp_path / "ctrl.json")
        assert (tmp_path / "ctrl.json").read_bytes() == self._dumped(controller_to_dict(ctrl))

    def test_formation_file(self, tmp_path):
        spec = demo_instance("remark5")
        save_formation(spec, tmp_path / "spec.json")
        assert (tmp_path / "spec.json").read_bytes() == self._dumped(formation_to_dict(spec))

    def test_cross_comparison_report(self, chain_file, tmp_path):
        assert main(["pairwise", chain_file, "--out", str(tmp_path)]) == 0
        spec = three_agent_chain()
        cross = cross_compare(spec, decompose(spec))
        assert (tmp_path / "chain_pairwise.json").read_bytes() == self._dumped(cross.to_dict())


class TestConfigAndDeterminism:
    def test_config_file_applies(self, chain_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 6.0, "seed": 9, "out": str(tmp_path)}))
        assert main(["simulate", chain_file, "--config", str(cfg)]) == 0
        rows = (tmp_path / "chain_trace.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == 6.0

    def test_config_dt_null_takes_the_default_step(self, chain_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": None, "T": 6.0}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", chain_file, "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", chain_file, "--T", "6", "--out", str(b)]) == 0
        assert (a / "chain_trace.csv").read_bytes() == (b / "chain_trace.csv").read_bytes()

    def test_invalid_config_exits_one(self, chain_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": -1.0}))
        assert main(["check", chain_file, "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"frobs": 2}))
        assert main(["check", chain_file, "--config", str(cfg)]) == 1
        cfg.write_text(json.dumps({"eps_solve": -1.0}))
        assert main(["check", chain_file, "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("doc", [
        {"T": "5"}, {"seed": "abc"}, {"dt": "0.1"}, {"eps_solve": "1e-8"},
        {"T": True}, {"out": 5}, [1],
    ])
    def test_config_value_of_wrong_type_exits_one(self, chain_file, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", chain_file, "--config", str(cfg),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("flags,config,message", [
        (["--T", "inf"], None, "T must be finite, got inf"),
        (["--T", "nan"], None, "T must be finite, got nan"),
        (["--dt", "nan"], None, "dt must be finite, got nan"),
        ([], '{"T": Infinity}', "T must be finite, got inf"),
        ([], '{"dt": NaN}', "dt must be finite, got nan"),
        (["--dt", "5", "--T", "2"], None, "need T > dt > 0"),
    ], ids=["T_inf", "T_nan", "dt_nan", "config_T_inf", "config_dt_nan", "dt_not_below_T"])
    def test_non_finite_horizon_or_step_exits_one(self, chain_file, tmp_path, capsys,
                                                  flags, config, message):
        if config is not None:  # json accepts Infinity and NaN
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            flags = flags + ["--config", str(cfg)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["simulate", chain_file, "--out", str(out)] + flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["T", "dt", "eps_solve", "eps_hurwitz", "rank_cutoff"])
    @pytest.mark.parametrize("command", ["check", "simulate"])
    def test_config_integer_too_large_for_a_float_exits_one(self, chain_file, tmp_path, capsys,
                                                            key, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"%s": 1%s}' % (key, "0" * 400))  # json reads it as an int
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, chain_file, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config key {key!r} is an integer too large for a float\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["T", "dt"])
    def test_run_config_rejects_non_finite_values(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            formstab.cli.RunConfig(**{field: float("inf")})

    def test_run_config_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            formstab.cli.RunConfig(seed=-1)

    @pytest.mark.parametrize("argv,config", [
        (["simulate", "SPEC", "--seed", "-1"], None),
        (["simulate", "SPEC"], '{"seed": -1}'),
        (["demo", "triangle", "--seed", "-1"], None),
    ], ids=["simulate_flag", "simulate_config", "demo_flag"])
    def test_negative_seed_exits_one_before_any_output(self, chain_file, tmp_path, capsys,
                                                       argv, config):
        argv = [chain_file if a == "SPEC" else a for a in argv]
        out = tmp_path / "out"
        if argv[0] == "simulate":
            argv += ["--out", str(out)]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be non-negative, got -1\n"
        assert captured.out == ""
        assert not out.exists()

    def test_config_tolerances_apply(self, tmp_path):
        # example1 fails only its displacement condition; a loose enough
        # eps_solve accepts the defect
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"eps_solve": 1e6, "eps_hurwitz": 1e-9, "rank_cutoff": 1.0, "out": str(tmp_path)}
        ))
        assert main(["check", str(demo_path("example1")), "--config", str(cfg)]) == 0

    def test_configured_eps_hurwitz_reaches_every_verdict(self, near_axis, tmp_path):
        # leaders that decay at 1e-10: check and the envelope agree under
        # eps_hurwitz = 1e-12, and both find the instance unstable under
        # the default margin
        spec = tmp_path / "near_axis.json"
        save_formation(near_axis, spec)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps_hurwitz": 1e-12, "out": str(tmp_path / "tight")}))
        for argv in (["check"], ["simulate", "--T", "2"]):
            assert main([argv[0], str(spec), *argv[1:], "--config", str(cfg)]) == 0
            assert main([argv[0], str(spec), *argv[1:], "--out", str(tmp_path)]) == 2
        fit = json.loads((tmp_path / "tight" / "near_axis_envelope.json").read_text())
        assert fit["passed"] and set(fit["alpha"].values()) == {5e-11}

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs sched_setaffinity and two usable CPUs")
    def test_trace_bytes_do_not_depend_on_cpu_count(self, tmp_path):
        """The contract: inputs, config, seed and BLAS thread count fix the
        bytes; the CPUs the process may use do not.  OpenBLAS sizes its pool
        from the CPU affinity, so the thread count is pinned here."""
        cpu = min(os.sched_getaffinity(0))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=str(Path(formstab.__file__).parents[1]))
        traces = []
        for label, pin in (("pinned", lambda: os.sched_setaffinity(0, {cpu})), ("free", None)):
            out = tmp_path / label
            subprocess.run(
                [sys.executable, "-m", "formstab.cli", "simulate",
                 str(demo_path("triangle")), "--out", str(out)],
                env=env, preexec_fn=pin, check=True, capture_output=True)
            traces.append((out / "triangle_trace.csv").read_bytes())
        lines = traces[1].splitlines()
        values = len(lines[1:]) * len(lines[0].split(b","))
        assert values >= 2 * formstab.simulation._CSV_FORK_VALUES  # forks when free
        assert traces[0] == traces[1]

    def test_byte_identical_reruns(self, chain_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", chain_file, "--seed", "5",
                         "--T", "6", "--out", str(out)]) == 0
        assert (a / "chain_trace.csv").read_bytes() == (b / "chain_trace.csv").read_bytes()
        assert (a / "chain_envelope.json").read_bytes() == (b / "chain_envelope.json").read_bytes()
