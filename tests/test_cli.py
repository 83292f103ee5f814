import json
import warnings

import numpy as np
import pytest

from dvocsim.cli import main

from conftest import pu_scenario_dict


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

    def test_bad_range_rejected(self, tiny_scenario, tmp_path, capsys):
        rc = main(["droop-sweep", tiny_scenario, "--axis", "p",
                   "--range", "1:2", "--out", str(tmp_path / "o")])
        assert rc == 2

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
