"""Self-tests of the benchmark: generator determinism, metric names, span
accounting, and a negative control for every correctness check (a corrupted
output must fail it, so that zero failures means something)."""

import json
import math
import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen_grid  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


# --- generator ----------------------------------------------------------------

def test_generator_is_byte_identical_per_seed(tmp_path):
    for seed in (0, 7):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        gen_grid.write(seed, a)
        gen_grid.write(seed, b)
        assert a.read_bytes() == b.read_bytes()
    assert gen_grid.dumps(gen_grid.generate(0)) != gen_grid.dumps(gen_grid.generate(1))


def test_generator_step_respects_stability_margin():
    doc = gen_grid.generate(3)
    dt = doc["sim"]["dt_s"]
    assert dt == gen_grid.DT
    assert round(doc["sim"]["t_end_s"] / dt) == gen_grid.N_STEPS
    lam = float(re.search(r"stiffest pole ([0-9.e+]+)", doc["description"]).group(1))
    assert lam * dt <= gen_grid.STABILITY_MARGIN


def test_generator_rejects_a_topology_too_stiff_for_the_step():
    # A 0.1 mH branch into 1 mS: |lambda| = 1e3 / 1e-4 = 1e7 1/s.
    stiff = ([("n1", "bus", 0.0, 1e-4, True)], {"bus": 0.001})
    with pytest.raises(ValueError):
        gen_grid.check_step([stiff])


def test_stiffest_pole_of_one_branch_into_a_load():
    # One RL branch into a conductance g: di/dt = -(r + 1/g)/l i.
    lam = gen_grid.stiffest_pole([("n1", "bus", 0.1, 2e-3, True)], {"bus": 0.01})
    assert lam == pytest.approx((0.1 + 100.0) / 2e-3)


def test_sweep_grid_is_seeded_and_inside_the_span():
    a, b, grid = run.sweep_grid(5)
    assert (a, b, grid) == run.sweep_grid(5)
    assert -0.05 <= a < b <= 0.05 and len(grid) >= 10


# --- metric names -------------------------------------------------------------

def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    for name in list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name
    # Every listed workload exists and every workload is listed.
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_self_times_partition_the_traced_interval():
    spans = [["import", 0.0, 0.5, -1, 0, None],
             ["cli.main", 0.5, 10.0, -1, 0, None],
             ["sim.Simulation.__init__", 1.0, 2.0, 1, 0, None],
             ["network.DynamicNetwork", 1.2, 1.5, 2, 0, None],
             ["sim.Simulation.run", 2.0, 9.0, 1, 0, {"steps": 1000, "sim_s": 0.01}],
             ["network.apply_event", 3.0, 3.1, 4, 0, None]]
    agg = run.layer_metrics(spans)
    assert agg["attributed_s"] == pytest.approx(10.0)
    assert agg["sim.step_loop_s"] == pytest.approx(6.9)
    assert agg["sim.construct_s"] == pytest.approx(0.7)
    assert agg["network.compiles"] == 1 and agg["sim.runs"] == 1
    assert agg["sim.steps_per_sim_s"] == pytest.approx(1e5)
    assert agg["sim.us_per_step"] == pytest.approx(6900.0)


# --- synthetic outputs in the CLI's formats -------------------------------------

def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(x if isinstance(x, str) else repr(float(x))
                              for x in row) + "\n")


def _write_manifest(out, names, extra=None):
    manifest = {"outputs": {n: checks.sha256_file(out / n) for n in names}}
    manifest.update(extra or {})
    (out / "manifest.json").write_text(json.dumps(manifest))


def _trace(out, t_end=0.9, n=901, phase=0.0):
    t = np.linspace(0.0, t_end, n)
    header, cols = ["t"], [t]
    for k, inv in enumerate(("inv1", "inv2")):
        v = 170.0 * np.exp(1j * (377.0 * t + 0.1 * k + phase))
        i = (2.0 + k) * np.exp(1j * (377.0 * t - 0.2 + phase))
        p = (np.conj(v) * i).real
        q = -(np.conj(v) * i).imag
        header += [f"v_alpha_{inv}", f"v_beta_{inv}", f"i_alpha_{inv}",
                   f"i_beta_{inv}", f"p_{inv}", f"q_{inv}", f"vmag_{inv}",
                   f"theta_{inv}"]
        cols += [v.real, v.imag, i.real, i.imag, p, q, np.abs(v),
                 np.unwrap(np.angle(v))]
    _write_csv(out / "trace.csv", header, np.column_stack(cols))


def _reference(out):
    header, data = checks.read_table(out / "trace.csv")
    rows = data[::100]
    columns = {h: rows[:, k].tolist() for k, h in enumerate(header)
               if h != "t" and not h.startswith("theta")}
    return {"t": rows[:, 0].tolist(), "columns": columns,
            "scale": {"v": 170.0, "i": 3.0, "s": 510.0},
            "tol": {"v": 0.017, "i": 3e-4, "s": 0.051}}


def _corrupt_trace_cell(out, row, col, delta):
    lines = (out / "trace.csv").read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    (out / "trace.csv").write_text("\n".join(lines) + "\n")


def _dispatch(out, p2=500.0, f2=60.0):
    _trace(out)
    header = ["inverter", "steady_p_w", "steady_freq_hz"]
    _write_csv(out / "metrics.csv", header,
               [["inv1", 250.0, 60.0], ["inv2", p2, f2]])
    _write_manifest(out, ["trace.csv", "metrics.csv"])
    return _reference(out)


def test_dispatch_check_passes_on_good_outputs(tmp_path):
    ref = _dispatch(tmp_path)
    problems, diag = checks.check_dispatch(tmp_path, ref)
    assert problems == [] and diag["ref_dev_rel"] == 0.0


@pytest.mark.parametrize("corruption", ["hash", "share", "frequency", "reference",
                                        "derived"])
def test_dispatch_check_negative_controls(tmp_path, corruption):
    ref = _dispatch(tmp_path, p2=510.0 if corruption == "share" else 500.0,
                    f2=60.002 if corruption == "frequency" else 60.0)
    if corruption == "hash":
        with open(tmp_path / "metrics.csv", "a") as fh:
            fh.write("\n")
    elif corruption == "reference":
        # A self-consistent trace whose phase drifted from the reference.
        _trace(tmp_path, phase=1e-3)
        _write_manifest(tmp_path, ["trace.csv", "metrics.csv"])
    elif corruption == "derived":
        _corrupt_trace_cell(tmp_path, 50, 5, 0.5)   # p_inv1 off its v.i
        _write_manifest(tmp_path, ["trace.csv", "metrics.csv"])
    problems, _ = checks.check_dispatch(tmp_path, ref)
    assert problems


def test_trace_check_rejects_non_finite_values(tmp_path):
    _trace(tmp_path)
    _corrupt_trace_cell(tmp_path, 50, 3, math.nan)
    problems, _ = checks.check_trace(tmp_path)
    assert any("non-finite" in p for p in problems)


def test_reference_check_compares_at_shared_record_times(tmp_path):
    # The reference keeps every 0.01 s.  A trace recorded every 3e-4 s shares
    # 31 of those times and passes; one recorded every 0.9/8999 s shares only
    # the end points and fails.
    _trace(tmp_path, n=9001)
    ref = _reference(tmp_path)
    _trace(tmp_path, n=3001)
    problems, diag = checks.check_trace(tmp_path, ref)
    assert problems == [] and diag["ref_dev_rel"] < 1e-9
    _trace(tmp_path, n=9000)
    problems, _ = checks.check_trace(tmp_path, ref)
    assert any("record times" in p for p in problems)


SWEEP_PARAMS = {"eta": 43.43, "alpha": 0.9722, "kappa_rad": math.pi / 2.0,
                "p_star_w": 0.5, "q_star_var": 0.0, "v_star_peak": 1.0}


def _sweep(out, grid, vmag_shift=0.0, settled="true"):
    header = ["target", "p", "q", "vmag", "omega_rad_per_s", "settled",
              "ordinate_simulated", "ordinate_closed_form", "ordinate_linear",
              "ordinate_coarse"]
    rows = []
    for k, q in enumerate(grid):
        exact = checks.stationary_vmag(SWEEP_PARAMS, q)
        vmag = exact + (vmag_shift if k == 3 else 0.0)
        rows.append([q, 0.5, q, vmag, 377.0, settled if k == 3 else "true", vmag,
                     exact, checks.vmag_tangent(SWEEP_PARAMS, q), exact])
    _write_csv(out / "curve.csv", header, rows)
    _write_manifest(out, ["curve.csv"],
                    {"resolved_scenario": {"inverters": [SWEEP_PARAMS]}})


def test_sweep_check_passes_and_matches_the_tangent_at_the_set_point(tmp_path):
    _, _, grid = run.sweep_grid(1)
    _sweep(tmp_path, grid)
    problems, diag = checks.check_sweep(tmp_path, grid)
    assert problems == [] and diag["oracle_dev_rel"] == 0.0
    assert checks.stationary_vmag(SWEEP_PARAMS, 0.0) == pytest.approx(1.0)
    assert checks.vmag_tangent(SWEEP_PARAMS, 0.0) == 1.0


@pytest.mark.parametrize("corruption", ["off-curve", "unsettled", "missing-point"])
def test_sweep_check_negative_controls(tmp_path, corruption):
    _, _, grid = run.sweep_grid(1)
    _sweep(tmp_path, grid[:-1] if corruption == "missing-point" else grid,
           vmag_shift=0.01 if corruption == "off-curve" else 0.0,
           settled="false" if corruption == "unsettled" else "true")
    problems, _ = checks.check_sweep(tmp_path, grid)
    assert problems


def test_mixed_check_negative_control(tmp_path):
    _trace(tmp_path, t_end=0.2, n=2001)
    (tmp_path / "metrics.csv").write_text("inverter\n")
    _write_manifest(tmp_path, ["trace.csv", "metrics.csv"])
    ref = _reference(tmp_path)
    assert checks.check_mixed(tmp_path, ref)[0] == []
    _trace(tmp_path, t_end=0.2, n=2001, phase=1e-3)
    _write_manifest(tmp_path, ["trace.csv", "metrics.csv"])
    problems, _ = checks.check_mixed(tmp_path, ref)
    assert problems and all("reference" in p for p in problems)


class _FakeWorkload:
    def argv(self, out):
        return ["simulate", "x", "--out", out]

    def check(self, out):
        raise KeyError("t")


@pytest.mark.parametrize("exit_code", [2, 3])
def test_non_zero_exit_counts_as_a_failed_operation(tmp_path, monkeypatch, exit_code):
    monkeypatch.setattr(run, "run_child", lambda cmd, log: (exit_code, 1.0, 1.0, 40.0, "diverged"))
    op = run.run_operation(_FakeWorkload(), str(tmp_path), 0, traced=False)
    assert op["ok"] is False


def test_malformed_output_counts_as_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "run_child", lambda cmd, log: (0, 1.0, 1.0, 40.0, ""))
    op = run.run_operation(_FakeWorkload(), str(tmp_path), 0, traced=False)
    assert op["ok"] is False


def test_run_child_reports_exit_code_output_and_scaled_time(tmp_path):
    code = "import time; print('done'); time.sleep(0.3); raise SystemExit(3)"
    rc, wall, ref, rss, output = run.run_child([sys.executable, "-c", code],
                                               str(tmp_path / "log"))
    assert rc == 3 and output.strip() == "done"
    assert wall >= 0.3 and rss > 0
    # Reference-core time is wall time times the mean probed core speed.
    assert 0.0 < ref and math.isfinite(ref)
