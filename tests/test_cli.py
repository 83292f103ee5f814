import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dvocsim.cli import entry, main

from conftest import pu_scenario_dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def tiny_scenario(tmp_path):
    d = pu_scenario_dict(sim={"dt_s": 5e-5, "t_end_s": 0.05,
                              "network_model": "quasistatic",
                              "record_decimation": 5, "noise_seed": 9})
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(d))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=None,
                         encoding="utf-8")
    return header, data


class TestSimulate:
    def test_writes_trace_metrics_manifest(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["simulate", tiny_scenario, "--out", str(out)]) == 0
        for name in ("trace.csv", "metrics.csv", "manifest.json"):
            assert (out / name).exists()
        header, _ = read_csv(out / "trace.csv")
        assert header[0] == "t"
        assert "v_alpha_inv1" in header
        assert "theta_inv1" in header
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "dvocsim"
        assert "resolved_scenario" in manifest
        assert set(manifest["outputs"]) == {"trace.csv", "metrics.csv"}

    @pytest.mark.parametrize("sim", [
        {"dt_s": 2e-5, "t_end_s": 2e-5, "record_decimation": 1},  # one step
        {"dt_s": 2e-5, "t_end_s": 0.01, "record_decimation": 1000},  # two records
    ], ids=["one-step", "decimation-above-the-steps"])
    def test_short_run_warns_nothing(self, sim, tmp_path):
        # A trailing window of fewer than three records has no frequency:
        # steady_freq is NaN, with no "Mean of empty slice" RuntimeWarning.
        d = pu_scenario_dict(sim=dict(sim, network_model="quasistatic", noise_seed=0))
        path = tmp_path / "short.json"
        path.write_text(json.dumps(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", str(path), "--out", str(tmp_path / "out")]) == 0
        header, data = read_csv(tmp_path / "out" / "metrics.csv")
        row = dict(zip(header, np.atleast_1d(data)[0]))
        assert np.isnan(float(row["steady_freq_hz"]))

    def test_manifest_reproduces_scenario(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        main(["simulate", tiny_scenario, "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        from dvocsim.scenario import parse_scenario, parse_scenario_dict
        assert parse_scenario_dict(manifest["resolved_scenario"]) == \
            parse_scenario(tiny_scenario)

    def test_reruns_are_byte_identical(self, tiny_scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", tiny_scenario, "--out", str(out1)])
        main(["simulate", tiny_scenario, "--out", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()

    def test_missing_file_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", str(tmp_path / "missing.json"), "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_schema_error_exit_code(self, tmp_path, capsys):
        d = pu_scenario_dict()
        d["inverters"][0]["eta"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert any("eta" in detail for detail in err["details"])

    @pytest.mark.parametrize("key, value", [("events", 5), ("noise_seed", -1)])
    def test_malformed_document_is_a_validation_error(self, key, value, tmp_path, capsys):
        # Once a TypeError traceback (exit 1) and a failed run (exit 3).
        d = pu_scenario_dict()
        (d["sim"] if key == "noise_seed" else d)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert any(key in detail for detail in err["details"])

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # Far above v*, the cubic amplitude term is unstable at this step.
        d = pu_scenario_dict(initial={"mode": "explicit", "v_alpha": 1e3,
                                      "v_beta": 0.0},
                             sim={"dt_s": 1e-3, "t_end_s": 0.05,
                                  "network_model": "quasistatic",
                                  "record_decimation": 1, "noise_seed": 0})
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(d))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert any(detail.startswith("step=") for detail in err["details"])

    def test_infinite_branch_rate_is_a_numeric_failure(self, tmp_path, capsys):
        # R/L overflows to inf: once an OverflowError traceback (exit 1).
        d = pu_scenario_dict(branch_l=1e-310,
                             sim={"dt_s": 1e-4, "t_end_s": 0.01,
                                  "network_model": "dynamic",
                                  "record_decimation": 1, "noise_seed": 0})
        path = tmp_path / "tiny_l.json"
        path.write_text(json.dumps(d))
        rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert json.loads(capsys.readouterr().err)["error"] == "numeric"

    def test_overflowing_branch_rate_leaves_stderr_one_json_document(self, tmp_path,
                                                                     capsys):
        # Once two numpy RuntimeWarnings ("overflow encountered in divide",
        # "invalid value encountered in multiply") came before the JSON.
        d = pu_scenario_dict(branch_l=1e-310,
                             sim={"dt_s": 1e-4, "t_end_s": 0.01,
                                  "network_model": "dynamic",
                                  "record_decimation": 1, "noise_seed": 0})
        path = tmp_path / "tiny_l.json"
        path.write_text(json.dumps(d))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate", str(path), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric" and "b1" in err["message"]

    def test_builtin_name_accepted(self, tmp_path):
        # droop-ref is the cheapest builtin to run end to end
        out = tmp_path / "out"
        assert main(["simulate", "droop-ref", "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_two_inverter_metrics_include_sync_time(self, tmp_path):
        d = pu_scenario_dict(sim={"dt_s": 2e-5, "t_end_s": 0.15,
                                  "network_model": "quasistatic",
                                  "record_decimation": 5, "noise_seed": 9})
        d["inverters"].append(dict(d["inverters"][0], id="inv2", node="n2",
                                   initial={"mode": "nominal", "angle_rad": 0.2}))
        d["network"]["branches"].append({"id": "b2", "from": "n2", "to": "bus",
                                         "r_ohm": 0.01, "l_henry": 0.0,
                                         "connected": True})
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            import csv
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert np.isfinite(float(rows[0]["sync_time_s"]))

    def test_requested_outputs_honored(self, tmp_path):
        d = pu_scenario_dict(sim={"dt_s": 5e-5, "t_end_s": 0.01,
                                  "network_model": "quasistatic",
                                  "record_decimation": 5, "noise_seed": 9})
        d["outputs"] = ["metrics"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["simulate", str(path), "--out", str(out)]) == 0
        assert not (out / "trace.csv").exists()
        assert (out / "metrics.csv").exists()


class TestDroopSweepCommand:
    def test_sweep_writes_curve(self, tiny_scenario, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["droop-sweep", tiny_scenario, "--axis", "p",
                   "--range", "0.45:0.55:3", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out / "curve.csv")
        assert header[0] == "target"
        assert "ordinate_closed_form" in header
        assert data.shape[0] == 3

    def test_negative_range_start_in_equals_form(self, tmp_path):
        # A separate "-0.05:..." argument would be read as an option.
        out = tmp_path / "sweep"
        rc = main(["droop-sweep", "droop-ref", "--axis", "q",
                   "--range=-0.05:0.05:3", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out / "curve.csv")
        assert header[0] == "target"
        np.testing.assert_allclose(data["f0"], [-0.05, 0.0, 0.05])

    def test_overlays_without_a_tangent_keep_the_closed_form_and_coarse(self, tmp_path):
        # droop-ref at q* = 1 > alpha v*^2 has no tangent, so only the
        # linear overlay reads NaN; the closed form, the stationary
        # amplitude, and the coarse form are kept at every settled point.
        # Past the nose (q = 1.0002) the last three points settle on the
        # lower root, and the closed form follows them there, within C04's
        # 0.5 % of v*; the grid-only form keeps the upper roots 1.0142,
        # 1.0392, 1.0637 there.
        from dvocsim import analysis
        from dvocsim.scenario import builtin_scenario, parse_scenario_dict
        d = builtin_scenario("droop-ref").to_dict()
        d["inverters"][0]["q_star_var"] = 1.0
        path = tmp_path / "q1.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "sweep"
        rc = main(["droop-sweep", str(path), "--axis", "q", "--range=0.9:1.1:5",
                   "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out / "curve.csv")
        col = {name: data[f"f{k}"] for k, name in enumerate(header)}
        assert col["settled"].tolist() == [True] * 5
        np.testing.assert_allclose(col["ordinate_closed_form"],
                                   [1.0502, 1.0254, 1.0000, 0.9739, 0.9472], atol=5e-5)
        assert np.all(np.abs(col["ordinate_closed_form"] - col["ordinate_simulated"]) <= 0.005)
        params = parse_scenario_dict(d).inverters[0].params
        upper = analysis.droop_overlays(params, col["q"], "q")[0]
        np.testing.assert_allclose(upper, [1.0502, 1.0254, 1.0142, 1.0392, 1.0637], atol=5e-5)
        assert np.isnan(col["ordinate_linear"]).all()
        np.testing.assert_allclose(col["ordinate_coarse"], 1.0 + (1.0 - col["q"]) / 0.9722)

    # Non-finite ends, a span b - a that overflows and more points than
    # MAX_RANGE_POINTS are rejected as --range errors, before the grid is
    # built or any point is run.
    @pytest.mark.parametrize("spec", ["1:2", "nan:0.05:3", "0.05:nan:3", "-0.05:inf:3",
                                      "-1e308:1e308:3", "0:1:10001"])
    def test_bad_range_rejected(self, tiny_scenario, tmp_path, capsys, spec):
        rc = main(["droop-sweep", tiny_scenario, "--axis", "p",
                   f"--range={spec}", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert "--range" in err["details"][0]

    def test_point_at_series_resistance_limit_is_a_validation_error(self, tmp_path, capsys):
        # droop-ref has v* = 1 and R = 0.01: a load drawing p = v*^2/R = 100
        # through R would need an infinite conductance.
        out = tmp_path / "o"
        rc = main(["droop-sweep", "droop-ref", "--axis", "p",
                   "--range=99:100:2", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["details"] == ["droop-sweep p=100.0: a load drawing p = 100.0 through "
                                  "R = 0.01 needs p < v*^2/R = 100.0"]
        assert not out.exists()

    def test_negative_p_target_is_a_validation_error_naming_it(self, tmp_path, capsys):
        # A load only absorbs power, so no conductance draws p < 0: the
        # error names the axis and the grid point, not the conductance the
        # parser would reject.
        out = tmp_path / "o"
        rc = main(["droop-sweep", "droop-ref", "--axis", "p",
                   "--range=-0.045:0.045:10", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["details"] == ["droop-sweep p=-0.045: a load drawing p = -0.045 "
                                  "needs p >= 0"]
        assert not out.exists()

    def test_multi_inverter_scenario_rejected(self, tmp_path):
        from dvocsim.scenario import builtin_scenario
        sc = builtin_scenario("paper-fig5")
        path = tmp_path / "two.json"
        path.write_text(json.dumps(sc.to_dict()))
        rc = main(["droop-sweep", str(path), "--axis", "p",
                   "--range", "0.4:0.6:3", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_diverging_point_is_a_numeric_failure_naming_it(self, tmp_path, capsys):
        # At q = -1000 the actuating capacitor drives the oscillator unstable
        # at dt = 1e-4; the point at -10 settles.
        d = pu_scenario_dict(sim={"dt_s": 1e-4, "t_end_s": 0.05,
                                  "network_model": "quasistatic",
                                  "record_decimation": 1, "noise_seed": 0})
        path = tmp_path / "pu.json"
        path.write_text(json.dumps(d))
        rc = main(["droop-sweep", str(path), "--axis", "q",
                   "--range=-1000:-10:2", "--out", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "numeric"
        assert "member=0" in err["details"]
        assert "scenario=pu-test q=-1000.0" in err["details"]


class TestBlackstartCheckCommand:
    def test_check_reports_deviation(self, tmp_path, capsys):
        d = pu_scenario_dict(initial={"mode": "blackstart"},
                             sim={"dt_s": 2e-5, "t_end_s": 0.4,
                                  "network_model": "quasistatic",
                                  "record_decimation": 10, "noise_seed": 4})
        path = tmp_path / "bs.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "out"
        rc = main(["blackstart-check", str(path), "--out", str(out)])
        assert rc == 0
        assert (out / "blackstart.csv").exists()
        header, data = read_csv(out / "blackstart_summary.csv")
        assert header == ["max_rel_dev", "t_start", "t_end", "defined"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["defined"] is True
        assert manifest["results"]["max_rel_dev"] < 0.02


class TestConsistencyCommand:
    def test_consistency_report_written(self, tiny_scenario, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["consistency", tiny_scenario, "--out", str(out)])
        assert rc == 0
        assert (out / "consistency.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["status"] in ("consistent", "inconsistent")
        assert "consistency:" in capsys.readouterr().out


class TestListScenarios:
    def test_lists_builtins(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7"):
            assert name in out
        assert "alias" in out

    def test_runtime_needs_numpy_only(self):
        """scipy and hypothesis are test dependencies: the CLI imports
        neither, checked in a fresh interpreter."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys\n"
                "from dvocsim.cli import main\n"
                "assert main(['list-scenarios']) == 0\n"
                "print(sorted({m.partition('.')[0] for m in sys.modules}"
                " & {'scipy', 'hypothesis'}))\n")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.splitlines()[-1] == "[]"


def python(*args):
    """A fresh interpreter with the package under ``src`` on its path:
    (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                         timeout=120)
    return run.returncode, run.stdout, run.stderr


class TestProcessEntry:
    """``python -m dvocsim.cli``: the process ends through ``entry``."""

    def test_success_writes_every_output_it_hashes(self, tiny_scenario, tmp_path):
        out = tmp_path / "out"
        code, stdout, stderr = python("-m", "dvocsim.cli", "simulate", tiny_scenario,
                                      "--out", str(out))
        assert (code, stderr) == (0, "")
        assert stdout == f"simulate: wrote trace.csv, metrics.csv, manifest.json to {out}\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"trace.csv", "metrics.csv"}
        for name, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        assert sorted(os.listdir(out)) == ["manifest.json", "metrics.csv", "trace.csv"]

    def test_bad_scenario_file_exits_2_with_json_on_stderr(self, tmp_path):
        d = pu_scenario_dict()
        d["inverters"][0]["eta"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "o"
        code, stdout, stderr = python("-m", "dvocsim.cli", "simulate", str(path),
                                      "--out", str(out))
        assert (code, stdout) == (2, "")
        (line,) = stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "validation"
        assert any("eta" in detail for detail in err["details"])
        assert not out.exists()

    def test_diverging_scenario_exits_3_with_json_on_stderr(self, tmp_path):
        d = pu_scenario_dict(initial={"mode": "explicit", "v_alpha": 1e3, "v_beta": 0.0},
                             sim={"dt_s": 1e-3, "t_end_s": 0.05,
                                  "network_model": "quasistatic",
                                  "record_decimation": 1, "noise_seed": 0})
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(d))
        code, stdout, stderr = python("-m", "dvocsim.cli", "simulate", str(path),
                                      "--out", str(tmp_path / "o"))
        assert (code, stdout) == (3, "")
        (line,) = stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == "numeric"
        assert any(detail.startswith("step=") for detail in err["details"])

    @pytest.mark.parametrize("g, code, kind, detail", [
        # KCL's 1 x 1 block at the load bus is well conditioned, but its
        # solution overflows: the parser's timeline check rejects it.
        (5e-324, 2, "validation",
         "network: network reduction overflows float64: the conductance path of "
         "non-source node(s) ['bus'] is too weak to invert"),
        # The network is finite, but the integrator's matrix exponential
        # overflows: the first step is non-finite.
        (1e-300, 3, "numeric", "step=1"),
    ], ids=["kcl-overflows", "expm-overflows"])
    def test_load_conductance_too_small_to_invert(self, tmp_path, g, code, kind, detail):
        # Either way the process exits with one JSON line on stderr, no
        # numpy warning beside it, and nothing on stdout.
        from dvocsim.scenario import builtin_scenario
        d = builtin_scenario("paper-fig7").to_dict()
        d["network"]["loads"][0]["g_siemens"] = g
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "o"
        got, stdout, stderr = python("-m", "dvocsim.cli", "simulate", str(path),
                                     "--out", str(out))
        assert (got, stdout) == (code, "")
        (line,) = stderr.splitlines()
        err = json.loads(line)
        assert err["error"] == kind
        assert detail in err["details"]

    @pytest.mark.parametrize("argv, code, ran", [
        (["list-scenarios"], 0, False),  # a returned code skips the teardown
        ([], 2, True),  # argparse's usage error exits normally
    ], ids=["returned", "usage-error"])
    def test_atexit_handlers_run_only_on_the_normal_exit(self, argv, code, ran):
        # A returned code ends the process without the interpreter's
        # teardown, so a handler registered before the entry does not run;
        # argparse's SystemExit leaves through the normal exit, which runs it.
        script = ("import atexit, sys\n"
                  "from dvocsim.cli import entry\n"
                  "atexit.register(print, 'atexit ran')\n"
                  f"sys.argv[1:] = {argv!r}\n"
                  "entry()\n")
        got, stdout, stderr = python("-c", script)
        assert got == code
        assert ("atexit ran" in stdout) == ran
        assert ("paper-fig7" in stdout) == (code == 0)
        assert ("usage: dvocsim" in stderr) == (code == 2)

    def test_console_script_names_the_entry(self):
        tomllib = pytest.importorskip("tomllib")
        with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["dvocsim"] == "dvocsim.cli:entry"
        assert callable(entry)
