"""Command-line interface: exit-code contract, file outputs, determinism."""

import json
import warnings

import numpy as np
import pytest

import formstab.cli
from formstab import CertificateError, save_controller, save_formation
from formstab.cli import main
from formstab.controllers import assemble_controller
from formstab.instances import demo_path, three_agent_chain
from formstab import check, decompose, is_hurwitz, synthesize


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "chain.json"
    save_formation(three_agent_chain(), path)
    return str(path)


def test_bundled_files_match_builders():
    from formstab.instances import DEMO_BUILDERS
    from formstab.model import formation_to_dict

    for name, builder in DEMO_BUILDERS.items():
        with open(demo_path(name), "r", encoding="utf-8") as fh:
            assert json.load(fh) == formation_to_dict(builder())


class TestCheck:
    def test_stable_instance_exits_zero(self, tmp_path):
        code = main(["check", str(demo_path("example2")), "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "example2_criterion.json").read_text())
        assert report["overall"] == "stable"
        assert (tmp_path / "example2_criterion.txt").exists()

    def test_unstable_instance_exits_two(self, tmp_path):
        assert main(["check", str(demo_path("example1")), "--out", str(tmp_path)]) == 2

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

    def test_usage_error_exits_one(self):
        assert main(["check"]) == 1
        assert main(["frobnicate"]) == 1

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

    def test_overflowing_run_exits_three_with_infinite_violation(self, tmp_path, capsys):
        path = str(demo_path("triangle"))
        assert main(["synthesize", path, "--out", str(tmp_path)]) == 0
        ctrl_path = tmp_path / "triangle_controller.json"
        doc = json.loads(ctrl_path.read_text())
        for fc in doc["followers"].values():
            fc["S"] = (5.0 - np.asarray(fc["S"])).tolist()
        ctrl_path.write_text(json.dumps(doc))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["simulate", path, "--controller", str(ctrl_path),
                         "--T", "20", "--out", str(tmp_path)])
        assert code == 3
        assert "max violation inf" in capsys.readouterr().out
        fit = json.loads((tmp_path / "triangle_envelope.json").read_text())
        assert fit["passed"] is False and fit["max_violation"] == float("inf")

    def test_fit_that_raises_writes_no_trace(self, chain_file, tmp_path, monkeypatch):
        def failing(trace, decomp):
            raise CertificateError("Lyapunov solution is not positive definite")

        monkeypatch.setattr(formstab.cli, "fit_envelope", failing)
        assert main(["simulate", chain_file, "--T", "2", "--out", str(tmp_path)]) == 1
        assert list(tmp_path.glob("*_trace.csv")) == []
        assert list(tmp_path.glob("*_envelope.json")) == []

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

    def test_bad_signal_spec_exits_one(self, chain_file, tmp_path):
        assert main(["simulate", chain_file, "--signals", "ramp:1",
                     "--out", str(tmp_path)]) == 1

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
    ], ids=["missing_follower", "extra_follower", "wrong_n"])
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


class TestPairwiseAndDemo:
    def test_pairwise_report(self, chain_file, tmp_path, capsys):
        assert main(["pairwise", chain_file, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "formation-stable-pair-unstable" in out
        data = json.loads((tmp_path / "chain_pairwise.json").read_text())
        assert data["pattern"] == "formation-stable-pair-unstable"

    @pytest.mark.parametrize("name", ["example1", "example2", "remark5", "triangle"])
    def test_demos_pass(self, name):
        assert main(["demo", name]) == 0

    def test_unknown_demo_exits_one(self, capsys):
        assert main(["demo", "nonesuch"]) == 1
        err = capsys.readouterr().err
        assert "unknown demo 'nonesuch'; available: example1, example2, remark5, triangle" in err
        with pytest.raises(KeyError) as exc:
            demo_path("nonesuch")
        assert err == f"{exc.value}\n"


class TestConfigAndDeterminism:
    def test_config_file_applies(self, chain_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 6.0, "seed": 9, "out": str(tmp_path)}))
        assert main(["simulate", chain_file, "--config", str(cfg)]) == 0
        rows = (tmp_path / "chain_trace.csv").read_text().splitlines()
        assert float(rows[-1].split(",")[0]) == 6.0

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

    def test_config_tolerances_apply(self, tmp_path):
        # example1 fails only its displacement condition; a loose enough
        # eps_solve accepts the defect
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"eps_solve": 1e6, "eps_hurwitz": 1e-9, "rank_cutoff": 1.0, "out": str(tmp_path)}
        ))
        assert main(["check", str(demo_path("example1")), "--config", str(cfg)]) == 0

    def test_byte_identical_reruns(self, chain_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["simulate", chain_file, "--seed", "5",
                         "--T", "6", "--out", str(out)]) == 0
        assert (a / "chain_trace.csv").read_bytes() == (b / "chain_trace.csv").read_bytes()
        assert (a / "chain_envelope.json").read_bytes() == (b / "chain_envelope.json").read_bytes()
