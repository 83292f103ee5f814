"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s or in captured
output).  The heavyweight scenario runs are shared through module-scoped
fixtures so every criterion is exercised against the same runs.
"""

import csv
import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from dvocsim import analysis
from dvocsim.cli import main as cli_main
from dvocsim.control import (DvocParams, PolarState, droop_approx_freq,
                             droop_vmag_tangent_ss, dvoc_rhs_polar)
from dvocsim.network import ConnectBranch, apply_event
from dvocsim.scenario import builtin_scenario, parse_scenario_dict
from dvocsim.sim import run_scenario

from conftest import OMEGA0, pu_scenario_dict
from oracles import current_for_power, dvoc_rhs, integrate_magnitude_ode

V_PEAK = 120.0 * math.sqrt(2.0)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


@pytest.fixture(scope="module")
def fig5_trace():
    return run_scenario(builtin_scenario("paper-fig5"))


@pytest.fixture(scope="module")
def fig6_trace():
    return run_scenario(builtin_scenario("paper-fig6"))


@pytest.fixture(scope="module")
def fig7_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig7")
    rc = cli_main(["simulate", "paper-fig7", "--out", str(out)])
    assert rc == 0
    with open(out / "metrics.csv", newline="") as fh:
        metrics = {row["inverter"]: row for row in csv.DictReader(fh)}
    manifest = json.loads((out / "manifest.json").read_text())
    return out, metrics, manifest


@pytest.fixture(scope="module")
def sweep_results():
    template = builtin_scenario("droop-ref")
    t0 = time.perf_counter()
    sweep_p = analysis.droop_sweep_simulated(template, "p",
                                             np.linspace(0.45, 0.55, 10))
    sweep_q = analysis.droop_sweep_simulated(template, "q",
                                             np.linspace(-0.05, 0.05, 10))
    elapsed = time.perf_counter() - t0
    return sweep_p, sweep_q, elapsed


def test_c01_blackstart_closed_form_vs_ode_oracle():
    combos = [
        (1e-3 * V_PEAK, 21.71, 0.9722, V_PEAK),   # hardware-table gains
        (1e-3, 43.43, 0.9722, 1.0),               # per-unit droop design
        (0.3, 10.0, 0.5, 1.0),
        (0.5 * V_PEAK, 21.71, 0.9722, V_PEAK),
        (1.5, 30.0, 1.2, 1.0),                    # decaying branch
    ]
    with criterion(1, "closed form matches scalar-ODE DOP853 oracle to 1e-6 "
                      "at 1000 sample times for 5 parameter sets, < 1 s"):
        t0 = time.perf_counter()
        for v0, eta, alpha, v_star in combos:
            p = DvocParams(eta=eta, alpha=alpha, kappa=math.pi / 2.0, p_star=0.0,
                           q_star=0.0, v_star=v_star, omega0=OMEGA0)
            horizon = 8.0 / (eta * alpha)
            times = np.linspace(0.0, horizon, 1000)
            oracle = integrate_magnitude_ode(v0, p, times)
            curve = analysis.blackstart_analytic(v0, p, times)
            rel = np.abs(curve.magnitudes - oracle) / oracle
            assert rel.max() <= 1e-6, f"combo {(v0, eta, alpha, v_star)}: {rel.max()}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"oracle comparison took {elapsed:.2f} s"


def test_c02_full_blackstart_envelope(tmp_path):
    with criterion(2, "simulated 500 W black start tracks the closed form "
                      "within 2% over the 5-95% rise, < 30 s"):
        out = tmp_path / "bs"
        t0 = time.perf_counter()
        rc = cli_main(["blackstart-check", "paper-fig4", "--out", str(out)])
        elapsed = time.perf_counter() - t0
        assert rc == 0
        results = json.loads((out / "manifest.json").read_text())["results"]
        assert results["defined"] is True
        assert results["max_rel_dev"] <= 0.02, results["max_rel_dev"]
        assert elapsed < 30.0, f"black start took {elapsed:.1f} s"


def test_c03_polar_rectangular_equivalence():
    with criterion(3, "polar and rectangular forms agree to 1e-9 relative "
                      "on 10^4 random states"):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(10_000):
            p = DvocParams(eta=rng.uniform(1, 60), alpha=rng.uniform(0.1, 2),
                           kappa=rng.uniform(0, math.pi),
                           p_star=rng.uniform(-1, 1), q_star=rng.uniform(-1, 1),
                           v_star=rng.uniform(0.5, 2), omega0=OMEGA0)
            r = rng.uniform(0.1, 2.0) * p.v_star
            th = rng.uniform(0, 2 * math.pi)
            pw, qw = rng.uniform(-2, 2, size=2)
            v = r * np.array([math.cos(th), math.sin(th)])
            vdot = dvoc_rhs(v, current_for_power(v, pw, qw), p)
            dmag_rect = float(v @ vdot) / r
            dth_rect = float(v[0] * vdot[1] - v[1] * vdot[0]) / r**2
            dmag, dth = dvoc_rhs_polar(PolarState(r, th), pw, qw, p)
            num = math.hypot(dmag_rect - dmag, r * (dth_rect - dth))
            den = math.hypot(dmag, r * dth)
            worst = max(worst, num / den)
        assert worst <= 1e-9, worst


def test_c04_droop_curve_reproduction(sweep_results):
    sweep_p, sweep_q, elapsed = sweep_results
    params = builtin_scenario("droop-ref").inverters[0].params
    with criterion(4, "simulated droop points match the exact stationary "
                      "curve within 0.5% and the linear forms within 1% "
                      "for mismatches up to 0.05 pu, 20-point sweep < 5 min"):
        assert all(pt.settled for pt in sweep_p.points + sweep_q.points)
        for pt in sweep_p.points:
            cf = analysis.droop_sweep_closed_form(params, [pt.p], "p")
            assert abs(pt.omega - cf.exact.ordinate[0]) <= 0.005 * OMEGA0
            if abs(pt.p - params.p_star) <= 0.05 + 1e-9:
                lin = droop_approx_freq(pt.p, params)
                assert abs(pt.omega - lin) <= 0.01 * OMEGA0
        for pt in sweep_q.points:
            cf = analysis.droop_sweep_closed_form(params, [pt.q], "q")
            assert abs(pt.vmag - cf.exact.ordinate[0]) <= 0.005 * params.v_star
            if abs(pt.q - params.q_star) <= 0.05 + 1e-9:
                lin = droop_vmag_tangent_ss(pt.q, params)
                assert abs(pt.vmag - lin) <= 0.01 * params.v_star
        assert elapsed < 300.0, f"sweep took {elapsed:.0f} s"


def test_c05_setpoint_dispatch(fig7_outputs):
    _, metrics, _ = fig7_outputs
    with criterion(5, "dispatch settles to 250:500 W sharing within 1% and "
                      "60 Hz within 1e-3 Hz"):
        p1 = float(metrics["inv1"]["steady_p_w"])
        p2 = float(metrics["inv2"]["steady_p_w"])
        assert abs(p1 - 250.0) / 250.0 <= 0.01, (p1, p2)
        assert abs(p2 - 500.0) / 500.0 <= 0.01, (p1, p2)
        for inv in ("inv1", "inv2"):
            f_hz = float(metrics[inv]["steady_freq_hz"])
            assert abs(f_hz - 60.0) <= 1e-3, f_hz


def test_c06_equal_sharing_load_step(fig6_trace):
    with criterion(6, "250->750 W step shares equally within 1% with no "
                      "amplitude excursion beyond 20%"):
        tr = fig6_trace
        sc = builtin_scenario("paper-fig6")
        m = analysis.compute_metrics(tr, sc.omega0, v_ref=V_PEAK)
        assert m.settled
        p1, p2 = m.steady_powers
        assert abs(p1 - p2) / ((p1 + p2) / 2.0) <= 0.01, (p1, p2)
        i_evt = int(np.searchsorted(tr.t, 0.4))
        excursion = np.abs(tr.vmag[i_evt:] / V_PEAK - 1.0).max()
        assert excursion <= 0.20, excursion


def test_c07_synchronization(fig5_trace):
    with criterion(7, "second inverter synchronizes within 0.5 s of "
                      "connection under a 500 W load"):
        st = analysis.sync_time(fig5_trace, threshold=0.02, event_time=0.2,
                                v_ref=V_PEAK, omega0=OMEGA0)
        assert st is not None
        assert st <= 0.5, st


def _stationarity_errors(trace, params_list, omega0):
    i0, i1, settled = analysis.steady_window(trace, omega0)
    assert settled
    freqs = analysis.estimate_frequency(trace, (trace.t[i0], trace.t[i1 - 1]))
    errs = []
    for k, p in enumerate(params_list):
        p_meas = float(trace.p[i0:i1, k].mean())
        q_meas = float(trace.q[i0:i1, k].mean())
        r_meas = float(trace.vmag[i0:i1, k].mean())
        omega_pred = omega0 + p.eta * (p.p_star / p.v_star**2 - p_meas / r_meas**2)
        r_pred = analysis.stationary_magnitude(p, p_meas, q_meas)
        errs.append((abs(freqs[k] - omega_pred) / omega0,
                     abs(r_meas - r_pred) / p.v_star))
    return errs


def test_c08_steady_state_droop_relation(fig6_trace, fig7_outputs, sweep_results):
    with criterion(8, "settled simulations satisfy the polar stationarity "
                      "conditions on measured (p, q, |v|, omega) to 0.1%"):
        sc6 = builtin_scenario("paper-fig6")
        for f_err, r_err in _stationarity_errors(
                fig6_trace, [s.params for s in sc6.inverters], sc6.omega0):
            assert f_err <= 1e-3 and r_err <= 1e-3
        # dispatch run, with the second inverter's updated set-point
        out, _, manifest = fig7_outputs
        sc7 = parse_scenario_dict(manifest["resolved_scenario"])
        params7 = [s.params for s in sc7.inverters]
        params7[1] = replace(params7[1], p_star=500.0)
        t, v, io = _read_trace_csv(out / "trace.csv", ["inv1", "inv2"])
        trace7 = _trace_from_arrays(t, v, io)
        for f_err, r_err in _stationarity_errors(trace7, params7, sc7.omega0):
            assert f_err <= 1e-3 and r_err <= 1e-3
        # droop sweep operating points
        params = builtin_scenario("droop-ref").inverters[0].params
        sweep_p, sweep_q, _ = sweep_results
        for pt in sweep_p.points + sweep_q.points:
            omega_pred = OMEGA0 + params.eta * (
                params.p_star / params.v_star**2 - pt.p / pt.vmag**2)
            assert abs(pt.omega - omega_pred) / OMEGA0 <= 1e-3
            r_pred = analysis.stationary_magnitude(params, pt.p, pt.q)
            assert abs(pt.vmag - r_pred) / params.v_star <= 1e-3


def _read_trace_csv(path, inverter_ids):
    data = np.genfromtxt(path, delimiter=",", names=True)
    t = data["t"]
    v = np.column_stack([data[f"v_alpha_{i}"] + 1j * data[f"v_beta_{i}"]
                         for i in inverter_ids])
    io = np.column_stack([data[f"i_alpha_{i}"] + 1j * data[f"i_beta_{i}"]
                          for i in inverter_ids])
    return t, v, io


def _trace_from_arrays(t, v, io):
    from dvocsim.sim import Trace
    return Trace(t=t, v=v, i_o=io, p=(np.conj(v) * io).real,
                 q=-(np.conj(v) * io).imag, vmag=np.abs(v),
                 theta=np.unwrap(np.angle(v), axis=0),
                 inverter_ids=["inv1", "inv2"], events=[],
                 dt_sample=float(t[1] - t[0]), meta={})


def test_c09_consistency_checker_round_trip():
    with criterion(9, "forward power-flow set-points check consistent below "
                      "1e-9; the surplus two-inverter case is inconsistent"):
        # Round trip on the dispatch network: the final set-points were
        # produced by a forward solve, so the checker must confirm them.
        sc7 = builtin_scenario("paper-fig7")
        post = []
        for spec in sc7.inverters:
            p = spec.params
            p_star = 500.0 if spec.inverter_id == "inv2" else p.p_star
            post.append((p_star, p.q_star, p.v_star))
        rep = analysis.check_setpoint_consistency(sc7.topology, post, sc7.omega0)
        assert rep.status == "consistent"
        assert rep.residual_rel < 1e-9, rep.residual_rel
        # Fresh forward-generated set-points on an asymmetric network.
        angles = [0.0, 0.04]
        v_stars = [V_PEAK, 0.98 * V_PEAK]
        p_fwd, q_fwd = analysis.forward_power_flow(sc7.topology, sc7.omega0,
                                                   v_stars, angles)
        rep2 = analysis.check_setpoint_consistency(
            sc7.topology, list(zip(p_fwd, q_fwd, v_stars)), sc7.omega0)
        assert rep2.status == "consistent"
        assert rep2.residual_rel < 1e-9, rep2.residual_rel
        # Surplus: both inverters demand 500 W against a 500 W load.
        sc5 = builtin_scenario("paper-fig5")
        topo = apply_event(sc5.topology, ConnectBranch("b2"))
        rep3 = analysis.check_setpoint_consistency(
            topo, [s.params for s in sc5.inverters], sc5.omega0)
        assert rep3.status == "inconsistent"
        assert rep3.residual_rel > 1e-6, rep3.residual_rel


def test_c10_determinism_and_integrator_order():
    with criterion(10, "bit-identical reruns under one seed; observed ETDRK4 "
                       "order >= 3.8"):
        # dynamic-model rerun, truncated dispatch scenario
        sc = builtin_scenario("paper-fig7")
        cfg = replace(sc.sim, t_end=0.05)
        tr_a, tr_b = run_scenario(sc, cfg), run_scenario(sc, cfg)
        assert np.array_equal(tr_a.v, tr_b.v)
        assert np.array_equal(tr_a.i_o, tr_b.i_o)
        # noisy black-start rerun
        noisy = dict(pu_scenario_dict(
            initial={"mode": "blackstart"},
            sim={"dt_s": 2e-5, "t_end_s": 0.05, "network_model": "quasistatic",
                 "record_decimation": 5, "noise_seed": 17,
                 "noise_amplitude": 1e-4}))
        tr_c = run_scenario(parse_scenario_dict(noisy))
        tr_d = run_scenario(parse_scenario_dict(noisy))
        assert np.array_equal(tr_c.v, tr_d.v)
        # Richardson order estimate on a smooth segment, on a step grid whose
        # differences stay above round-off
        finals = []
        for dt in (4e-4, 2e-4, 1e-4):
            sc_s = parse_scenario_dict(pu_scenario_dict(
                initial={"mode": "explicit", "v_alpha": 0.7, "v_beta": 0.1},
                sim={"dt_s": dt, "t_end_s": 0.02, "network_model": "quasistatic",
                     "record_decimation": int(round(0.02 / dt)),
                     "noise_seed": 0}))
            finals.append(run_scenario(sc_s).v[-1, 0])
        order = math.log2(abs(finals[0] - finals[1]) / abs(finals[1] - finals[2]))
        assert order >= 3.8, order
