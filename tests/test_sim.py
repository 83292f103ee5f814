import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dvocsim.control import DroopParams, PolarState
from dvocsim.network import DynamicNetwork, reduced_admittance
from dvocsim.scenario import parse_scenario_dict
from dvocsim.sim import SimConfig, Simulation, SimulationDiverged, _dense, run_scenario

from conftest import OMEGA0, pu_scenario, pu_scenario_dict
from oracles import (branch_rates_rhs, droop_rhs, dvoc_rhs, etdrk4_weights, measure_power,
                     source_branch_currents)


def unloaded_oscillator_dict(dt, t_end, v0=(1.0, 0.0), decim=1):
    """Single oscillator, open circuit, zero set-points: pure rotation."""
    return {
        "name": "bare",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [{
            "id": "inv1", "node": "n1", "control": "dvoc",
            "eta": 43.43, "alpha": 0.9722, "kappa_rad": math.pi / 2.0,
            "p_star_w": 0.0, "q_star_var": 0.0, "v_star_peak": 1.0,
            "initial": {"mode": "explicit", "v_alpha": v0[0], "v_beta": v0[1]},
        }],
        "network": {"branches": [], "loads": [], "shunt_caps": []},
        "events": [],
        "sim": {"dt_s": dt, "t_end_s": t_end, "network_model": "quasistatic",
                "record_decimation": decim, "noise_seed": 3},
    }


class TestStepBasics:
    def test_pure_rotation_one_period(self):
        dt = 1.0 / 60.0 / 1000.0
        sc = parse_scenario_dict(unloaded_oscillator_dict(dt, 1.0 / 60.0, decim=100))
        tr = run_scenario(sc)
        t_final = tr.t[-1]
        assert tr.vmag[-1, 0] == pytest.approx(1.0, rel=1e-9)
        advance = tr.theta[-1, 0] - tr.theta[0, 0]
        assert advance == pytest.approx(OMEGA0 * t_final, rel=1e-9)
        assert advance == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_origin_is_invariant_zero_trace(self):
        sc = pu_scenario(p_star=0.0, q_star=0.0,
                         initial={"mode": "explicit", "v_alpha": 0.0, "v_beta": 0.0},
                         sim={"dt_s": 1e-4, "t_end_s": 0.05,
                              "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        tr = run_scenario(sc)
        assert np.all(tr.v == 0.0)
        assert np.all(tr.p == 0.0)

    def test_rk4_convergence_order(self):
        # Richardson estimate on a smooth transient: order >= 3.8.  The step
        # grid keeps both differences above round-off.
        finals = []
        for dt in (4e-4, 2e-4, 1e-4):
            sc = pu_scenario(
                initial={"mode": "explicit", "v_alpha": 0.7, "v_beta": 0.1},
                sim={"dt_s": dt, "t_end_s": 0.02, "network_model": "quasistatic",
                     "record_decimation": int(round(0.02 / dt)), "noise_seed": 0})
            tr = run_scenario(sc)
            assert tr.t[-1] == pytest.approx(0.02)
            finals.append(tr.v[-1, 0])
        e1 = abs(finals[0] - finals[1])
        e2 = abs(finals[1] - finals[2])
        order = math.log2(e1 / e2)
        assert order >= 3.8

    def test_trace_grid_uniform(self):
        sc = pu_scenario(sim={"dt_s": 2e-5, "t_end_s": 0.01,
                              "network_model": "quasistatic",
                              "record_decimation": 7, "noise_seed": 0})
        tr = run_scenario(sc)
        steps = np.diff(tr.t)
        npt.assert_allclose(steps, 7 * 2e-5, rtol=1e-12)
        assert np.all(steps > 0)

    def test_trace_column_accessors(self):
        sc = pu_scenario(sim={"dt_s": 1e-4, "t_end_s": 0.005,
                              "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        tr = run_scenario(sc)
        assert tr.n_inverters == 1


class TestDeterminismAndEvents:
    def two_inverter_dict(self, events=(), t_end=0.1):
        return {
            "name": "pair",
            "omega0_rad_per_s": OMEGA0,
            "inverters": [
                {"id": "inv1", "node": "n1", "control": "dvoc", "eta": 43.43,
                 "alpha": 0.9722, "kappa_rad": math.pi / 2.0, "p_star_w": 0.25,
                 "q_star_var": 0.0, "v_star_peak": 1.0,
                 "initial": {"mode": "nominal", "angle_rad": 0.0}},
                {"id": "inv2", "node": "n2", "control": "dvoc", "eta": 43.43,
                 "alpha": 0.9722, "kappa_rad": math.pi / 2.0, "p_star_w": 0.25,
                 "q_star_var": 0.0, "v_star_peak": 1.0,
                 "initial": {"mode": "nominal", "angle_rad": 0.1}},
            ],
            "network": {
                "branches": [
                    {"id": "b1", "from": "n1", "to": "bus", "r_ohm": 0.05,
                     "l_henry": 0.0, "connected": True},
                    {"id": "b2", "from": "n2", "to": "bus", "r_ohm": 0.05,
                     "l_henry": 0.0, "connected": True}],
                "loads": [{"node": "bus", "g_siemens": 0.5}],
                "shunt_caps": [],
            },
            "events": list(events),
            "sim": {"dt_s": 2e-5, "t_end_s": t_end, "network_model": "quasistatic",
                    "record_decimation": 5, "noise_seed": 11},
        }

    def test_bit_identical_reruns(self):
        sc1 = parse_scenario_dict(pu_scenario_dict(
            initial={"mode": "blackstart"},
            sim={"dt_s": 2e-5, "t_end_s": 0.05, "network_model": "quasistatic",
                 "record_decimation": 5, "noise_seed": 42,
                 "noise_amplitude": 1e-4}))
        sc2 = parse_scenario_dict(pu_scenario_dict(
            initial={"mode": "blackstart"},
            sim={"dt_s": 2e-5, "t_end_s": 0.05, "network_model": "quasistatic",
                 "record_decimation": 5, "noise_seed": 42,
                 "noise_amplitude": 1e-4}))
        tr1, tr2 = run_scenario(sc1), run_scenario(sc2)
        assert np.array_equal(tr1.v, tr2.v)
        assert np.array_equal(tr1.i_o, tr2.i_o)
        assert np.array_equal(tr1.t, tr2.t)

    def test_different_seed_differs(self):
        def make(seed):
            return parse_scenario_dict(pu_scenario_dict(
                initial={"mode": "blackstart"},
                sim={"dt_s": 2e-5, "t_end_s": 0.02, "network_model": "quasistatic",
                     "record_decimation": 5, "noise_seed": seed}))
        assert not np.array_equal(run_scenario(make(1)).v, run_scenario(make(2)).v)

    def test_disconnect_event_preserves_prior_trace_bits(self):
        base = parse_scenario_dict(self.two_inverter_dict())
        t_evt = 0.06
        with_event = parse_scenario_dict(self.two_inverter_dict(
            events=[{"t_s": t_evt, "type": "disconnect", "branch": "b2"}]))
        tr_a, tr_b = run_scenario(base), run_scenario(with_event)
        pre = tr_a.t < t_evt - 1e-12
        assert np.array_equal(tr_a.v[pre], tr_b.v[pre])
        assert not np.array_equal(tr_a.v, tr_b.v)

    def test_event_applied_at_next_step_boundary(self):
        dt = 2e-5
        t_req = 0.05 + 0.3 * dt
        sc = parse_scenario_dict(self.two_inverter_dict(
            events=[{"t_s": t_req, "type": "load_step", "node": "bus",
                     "g_siemens": 0.8}]))
        tr = run_scenario(sc)
        t_applied = tr.events[0][0]
        assert t_applied >= t_req - 1e-12
        assert t_applied - t_req <= dt + 1e-12
        assert t_applied == pytest.approx(round(t_applied / dt) * dt, abs=1e-15)

    def test_connect_initializes_branch_current_to_zero(self):
        d = self.two_inverter_dict(t_end=0.02)
        for b in d["network"]["branches"]:
            b["l_henry"] = 5e-4
        d["network"]["branches"][1]["connected"] = False
        d["events"] = [{"t_s": 0.01, "type": "connect", "branch": "b2"}]
        d["sim"]["network_model"] = "dynamic"
        d["sim"]["dt_s"] = 2e-6
        d["sim"]["record_decimation"] = 50
        d["sim"]["step_multiple"] = 1  # step() is counted in dt steps
        sc = parse_scenario_dict(d)
        sim = Simulation(sc)
        n_before = int(round(0.01 / 2e-6))
        for _ in range(n_before):
            sim.step()
        mem = sim.members[0]
        assert mem.branch_ids == ["b1"]
        sim._apply_due_events()  # what the next step() does first
        assert mem.branch_ids == ["b1", "b2"]
        assert sim.y[0, mem.ns] != 0.0  # surviving branch carried over
        assert sim.y[0, mem.ns + 1] == 0.0 + 0.0j  # new branch from rest

    def test_branch_currents_carried_by_id_across_disconnect(self):
        # Opening b1 moves b2 from state index ns + 1 to ns and b3 from
        # ns + 2 to ns + 1: each survivor keeps its own current.
        d = self.two_inverter_dict(t_end=0.02)
        for b in d["network"]["branches"]:
            b["l_henry"] = 5e-4
        d["network"]["branches"].append(
            {"id": "b3", "from": "n1", "to": "n2", "r_ohm": 0.2,
             "l_henry": 1e-3, "connected": True})
        d["events"] = [{"t_s": 0.01, "type": "disconnect", "branch": "b1"}]
        # step_multiple 1: step() is counted in dt steps.
        d["sim"].update(network_model="dynamic", dt_s=1e-5, step_multiple=1)
        sim = Simulation(parse_scenario_dict(d))
        for _ in range(int(round(0.01 / 1e-5))):
            sim.step()
        mem, y = sim.members[0], sim.y[0]
        assert mem.branch_ids == ["b1", "b2", "b3"]
        before = dict(zip(mem.branch_ids, y[mem.ns:]))
        slots = y[:mem.ns].copy()
        assert len(set(before.values())) == 3 and 0.0 not in before.values()
        sim._apply_due_events()
        y = sim.y[0]
        assert mem.branch_ids == ["b2", "b3"]
        assert np.array_equal(y[:mem.ns], slots)
        assert y[mem.ns] == before["b2"]
        assert y[mem.ns + 1] == before["b3"]

    def test_reversed_inverter_order_permutes_the_trace(self):
        # Inverters and their topology nodes reversed together: the same
        # physics, with every trace column swapped.
        from dvocsim.scenario import builtin_scenario
        sc = builtin_scenario("paper-fig5")
        cfg = replace(sc.sim, t_end=0.05)
        rev = replace(sc, inverters=sc.inverters[::-1],
                      topology=replace(sc.topology,
                                       inverter_nodes=sc.topology.inverter_nodes[::-1]))
        tr, tr_rev = run_scenario(sc, cfg), run_scenario(rev, cfg)
        assert tr_rev.inverter_ids == tr.inverter_ids[::-1]
        npt.assert_allclose(tr_rev.v[:, ::-1], tr.v, rtol=0, atol=1e-9 * 170.0)
        npt.assert_allclose(tr_rev.i_o[:, ::-1], tr.i_o, rtol=0,
                            atol=1e-9 * np.abs(tr.i_o).max())

    def test_setpoint_event_changes_equilibrium(self):
        d = self.two_inverter_dict(
            events=[{"t_s": 0.05, "type": "set_point", "inverter": "inv2",
                     "p_star_w": 0.4}], t_end=0.15)
        tr = run_scenario(parse_scenario_dict(d))
        assert tr.p[-1, 1] > tr.p[-1, 0] + 0.05


def mixed_live_grid_dict(droop_first=False):
    """Two oscillators and one droop inverter on two load buses joined by a
    tie line, filter caps, continuous (live) measurement.  Its stiffest
    branch-current pole is |lambda| ~ 4.9e4 1/s: |lambda| dt ~ 4.9 at
    dt = 1e-4, outside classical RK4's real-axis stability limit of 2.8.
    ``droop_first`` reverses the inverter list, so the droop inverter takes
    the first state slot."""
    v_peak = 120.0 * math.sqrt(2.0)
    caps = {"n1": 24e-6, "n2": 20e-6, "n3": 18e-6}

    def inverter(inv_id, node, p_star, angle):
        inv = {"id": inv_id, "node": node, "p_star_w": p_star,
               "q_star_var": -OMEGA0 * caps[node] * v_peak**2,
               "v_star_peak": v_peak,
               "initial": {"mode": "nominal", "angle_rad": angle}}
        if inv_id == "inv3":
            inv.update(control="droop", kp_rad_per_sw=21.71 / v_peak**2,
                       kq_v_per_var=0.005)
        else:
            inv.update(control="dvoc", eta=21.71, alpha=0.9722,
                       kappa_rad=math.pi / 2.0)
        return inv

    def branch(bid, frm, to, r, l):
        return {"id": bid, "from": frm, "to": to, "r_ohm": r, "l_henry": l,
                "connected": True}

    inverters = [inverter("inv1", "n1", 250.0, 0.05),
                 inverter("inv2", "n2", 200.0, -0.1),
                 inverter("inv3", "n3", 150.0, 0.1)]
    return {
        "name": "mixed-live",
        "omega0_rad_per_s": OMEGA0,
        "inverters": inverters[::-1] if droop_first else inverters,
        "network": {
            "branches": [branch("b1", "n1", "busA", 0.1, 6e-3),
                         branch("b2", "n2", "busA", 0.15, 7.5e-3),
                         branch("b3", "n3", "busB", 0.2, 4.5e-3),
                         branch("tie", "busA", "busB", 0.1, 6e-3)],
            "loads": [{"node": "busA", "g_siemens": 400.0 / v_peak**2},
                      {"node": "busB", "g_siemens": 300.0 / v_peak**2}],
            "shunt_caps": [{"node": n, "c_farad": c} for n, c in caps.items()],
        },
        "events": [],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.2, "network_model": "dynamic",
                "record_decimation": 10, "noise_seed": 0},
    }


def hold(model, i_o, due=None):
    """The zero-order hold of a controller sample, set by hand: the members
    ``due`` (a (B,) mask, all by default) measure ``i_o`` (B, ns) until
    their next sample.  The oscillators hold -c2 i_o, the droop laws
    -j conj(i_o), as the sample's product writes them; off its own law's
    slots each meets only zero constants."""
    on = slice(None) if due is None else np.asarray(due)
    osc, rot = model._holds[..., :model.ns]
    osc[on] = (model.neg_c2 * i_o)[on]
    rot[on] = (-1j * np.conj(i_o))[on]


def oracle_derivative(mem, yv, held=None):
    """dy/dt and the live i_o of batch member ``mem`` rebuilt from the
    control laws and the network models, independently of the split: the
    capacitor loop i_o = i_net + C dv/dt is solved by fixed-point iteration."""
    ns = mem.ns
    v_all, ib = yv[:ns], yv[ns:]
    if mem.config.network_model == "dynamic":
        net = DynamicNetwork(mem.topology)
        i_net = source_branch_currents(net, ib, v_all)
        dib = branch_rates_rhs(net, ib, v_all)
        caps = np.array([mem.topology.shunt_caps.get(n, 0.0)
                         for n in mem.topology.inverter_nodes])
    else:
        i_net = reduced_admittance(mem.topology, mem.omega_nominal) @ v_all
        dib = np.zeros(0, dtype=complex)
        caps = np.zeros(ns)

    def laws(i_o):
        vdot = np.empty(ns, dtype=complex)
        for k, spec in enumerate(mem.inverters):
            v2 = np.array([v_all[k].real, v_all[k].imag])
            i2 = np.array([i_o[k].real, i_o[k].imag])
            if isinstance(spec.params, DroopParams):
                r, th = abs(v_all[k]), math.atan2(v2[1], v2[0])
                p, q = measure_power(v2, i2)
                dmag, dth = droop_rhs(PolarState(r, th), p, q, mem.params[k])
                vdot[k] = (dmag + 1j * r * dth) * np.exp(1j * th)
            else:
                d = dvoc_rhs(v2, i2, mem.params[k])
                vdot[k] = d[0] + 1j * d[1]
        return vdot

    vdot = np.zeros(ns, dtype=complex)
    for _ in range(100):
        vdot_new = laws(i_net + caps * vdot)
        done = np.all(np.abs(vdot_new - vdot) <= 1e-15 * np.abs(vdot_new).max())
        vdot = vdot_new
        if done:
            break
    else:
        raise AssertionError("capacitor loop did not converge")
    rate = vdot if held is None else laws(held)
    return np.concatenate([rate, dib]), i_net + caps * vdot


class TestExponentialSplit:
    @pytest.mark.parametrize("name", ["paper-fig5", "droop-ref", "mixed-live",
                                      "mixed-droop-first", "mixed-droop-at-zero"])
    def test_split_rhs_matches_control_and_network_oracles(self, name, rng):
        # The model's rate A y + N(y), live and held, against dy/dt rebuilt
        # from the oracles dvoc_rhs/droop_rhs and the network models; the
        # recorded i_o of the live model's outputs against the live oracle
        # current.  In "mixed-droop-at-zero" every sampled state has the
        # droop inverter at v = 0, whose direction both take as theta = 0.
        from dvocsim.scenario import builtin_scenario
        if name.startswith("mixed"):
            sc = parse_scenario_dict(mixed_live_grid_dict(name == "mixed-droop-first"))
        else:
            sc = builtin_scenario(name)
        scale = 100.0 if name != "droop-ref" else 1.0
        for sample_hz in (None, 1.0 / (4.0 * sc.sim.dt)):
            sim = Simulation(sc, replace(sc.sim, controller_sample_hz=sample_hz,
                                         step_multiple=None))
            mem = sim.members[0]
            for _ in range(5):
                w = rng.normal(scale=0.05 * scale, size=(mem.m, 2))
                y = sim.y[0] + (w[:, 0] + 1j * w[:, 1])
                if name == "mixed-droop-at-zero":
                    y[mem.droop_pos] = 0.0
                held = None
                if sample_hz is not None:
                    held = rng.normal(size=mem.ns) + 1j * rng.normal(size=mem.ns)
                    hold(sim.model, held[None])
                want, i_o = oracle_derivative(mem, y, held)
                got = sim.model.rate(y[None])[0]
                npt.assert_allclose(got, want, rtol=1e-12,
                                    atol=1e-12 * np.abs(want).max())
                npt.assert_allclose(sim.live_model.outputs(y[None])[1][0], i_o, rtol=1e-12,
                                    atol=1e-12 * np.abs(i_o).max())

    @pytest.mark.parametrize("sample_hz", [None, 2500.0])
    def test_trig_free_droop_law_matches_polar_oracle(self, sample_hz, rng):
        # The droop rows of A y + N(y) against droop_rhs in polar form
        # (r, theta = atan2) at states whose droop |v| spans 1e-9 v* to 2 v*
        # at every angle, and at v = 0.  Live, the capacitor loop at the
        # droop terminal is solved too; sampled, the law sees a held current.
        sc = parse_scenario_dict(mixed_live_grid_dict())
        sim = Simulation(sc, replace(sc.sim, controller_sample_hz=sample_hz))
        mem, model = sim.members[0], sim.model
        (k,) = mem.droop_pos
        v_star = mem.params[k].v_star
        assert (model.cap is not None) == (sample_hz is None)
        mags = np.concatenate([[0.0], v_star * np.logspace(-9, np.log10(2.0), 24)])
        for mag in mags:
            w = rng.normal(scale=5.0, size=(mem.m, 2))
            y = sim.y[0] + (w[:, 0] + 1j * w[:, 1])
            y[k] = mag * np.exp(1j * rng.uniform(-math.pi, math.pi))
            held = None
            if sample_hz is not None:
                held = rng.normal(size=mem.ns) + 1j * rng.normal(size=mem.ns)
                hold(model, held[None])
            want = oracle_derivative(mem, y, held)[0][k]
            got = model.rate(y[None])[0, k]
            assert abs(got - want) <= 1e-12 * abs(want), (mag, got, want)

    @staticmethod
    def dop853(sc, t_end):
        """The run at one dt per step (step_multiple 1, as the states are
        collected per dt) and scipy's DOP853 at rtol 1e-12 on the same
        A y + N(y), as complex states at every step."""
        integrate = pytest.importorskip("scipy.integrate")
        sim = Simulation(sc, replace(sc.sim, t_end=t_end, step_multiple=1))
        model = sim.model
        states = [sim.y[0].copy()]
        for _ in range(int(round(t_end / sim.config.dt))):
            sim.step()
            states.append(sim.y[0].copy())
        t = sim.config.dt * np.arange(len(states))
        sol = integrate.solve_ivp(lambda _, yv: model.rate(yv[None])[0],
                                  (0.0, t[-1]), states[0], method="DOP853",
                                  rtol=1e-12, atol=1e-12, t_eval=t)
        assert sol.success
        return sim, np.array(states), sol.y.T

    def test_exponential_matches_dop853_oracle_on_dispatch(self):
        # paper-fig7 over 0-0.02 s.  Measured deviation: 2.3e-11 v*.
        from dvocsim.scenario import builtin_scenario
        sc = builtin_scenario("paper-fig7")
        sim, got, want = self.dop853(sc, 0.02)
        ns = sim.members[0].ns
        dev = np.abs(got[:, :ns] - want[:, :ns]).max()
        assert dev / sc.inverters[0].params.v_star <= 1e-9, dev

    def test_exponential_matches_dop853_on_blackstart_branch_currents(self):
        # paper-fig4 over 0-0.02 s: during the black-start rise N is large
        # and its projection on the stiff branch pole (|lambda| h ~ 38) must
        # be weighted by phi-functions, not by h/6.  Measured: 1.8e-9.
        from dvocsim.scenario import builtin_scenario
        sim, got, want = self.dop853(builtin_scenario("paper-fig4"), 0.02)
        ns = sim.members[0].ns
        ib, ib_ref = got[:, ns:], want[:, ns:]
        dev = np.abs(ib - ib_ref).max() / np.abs(ib_ref).max()
        assert dev <= 1e-7, dev

    def test_exponential_matches_dop853_on_live_mixed_grid(self):
        # Oscillators and a droop inverter with live measurement over 0.2 s
        # at dt = 1e-4 (|lambda| dt ~ 4.9).  Measured: 6.8e-8 v*.
        sc = parse_scenario_dict(mixed_live_grid_dict())
        sim, got, want = self.dop853(sc, 0.2)
        ns = sim.members[0].ns
        dev = np.abs(got[:, :ns] - want[:, :ns]).max() / sc.inverters[0].params.v_star
        assert dev <= 1e-5, dev

    @pytest.mark.parametrize("name", ["paper-fig7", "paper-fig5", "droop-ref"])
    def test_step_size_error_stays_small_on_the_limit_cycle(self, name):
        # The split leaves N small near the limit cycle, so the run at dt and
        # at dt/8 agree over 0-0.05 s at their shared record times.  The
        # DOP853 tests integrate the same split and cannot see a worse one.
        # Measured: 2.2e-11 v* (fig7), 2.0e-12 (fig5), 7.3e-14 (droop-ref);
        # with the cubic's linear part c1 v moved into A, 1.1e-9 to 3.3e-9.
        from dvocsim.scenario import builtin_scenario
        sc = builtin_scenario(name)
        cfg = replace(sc.sim, t_end=0.05, step_multiple=1)
        coarse = run_scenario(sc, cfg)
        fine = run_scenario(sc, replace(cfg, dt=cfg.dt / 8,
                                        record_decimation=8 * cfg.record_decimation))
        npt.assert_allclose(fine.t, coarse.t, rtol=0, atol=1e-12)
        v_star = max(spec.params.v_star for spec in sc.inverters)
        dev = np.abs(coarse.v - fine.v).max() / v_star
        assert dev <= 1e-10, dev

    def test_nonlinear_evaluations_are_counted(self, monkeypatch):
        # Four N per ETDRK4 step, one for the record at t = 0 and one per
        # block of derived records after it (i_o needs dv/dt) and, per
        # compile segment, one for its first state and ten per rung whose
        # step-doubling estimate it takes: three and four for two steps of
        # that rung and three for one of twice it.  With sampled controllers a
        # sample evaluates the live N once, for the held i_o, and that
        # step's first stage reuses it instead of evaluating the held N:
        # still four per step.  A stray fifth N per step fails by count.
        # The run stats derive the same totals, stepped and live apart.
        # Every N, the step loop's bound ones among them, comes from the
        # model's evaluator of its input shape; each call is counted.
        from dvocsim.scenario import builtin_scenario
        from dvocsim.sim import RECORD_BLOCK, _Split
        calls, evaluator = [0], _Split.evaluator

        def counted(self, shape):
            n = evaluator(self, shape)

            def count(y, out=None):
                calls[0] += 1
                return n(y, out)
            return count

        monkeypatch.setattr(_Split, "evaluator", counted)
        # paper-fig7: 1800 steps of 5 dt; the set-point event at dt step 4000
        # splits its 9001 records into 1 + 4000 and 5000, the last two
        # derived in 16 + 20 blocks of at least 256 (a step adds its 5
        # records together).
        assert RECORD_BLOCK == 256
        tr = run_scenario(builtin_scenario("paper-fig7"))
        assert calls[0] == 4 * 1800 + 1 + 36 + 2 * (1 + 10)
        assert tr.meta["stats"]["n_evals"] == {"stepped": 4 * 1800 + 2 * (1 + 10),
                                               "live": 1 + 36}
        # The mixed grid sampled every 4th of 2000 dt steps: 500 samples on
        # that grid and one more at the load step applied at step 503, which
        # splits the 200 records after t = 0 into two blocks.  Each of the
        # 501 samples' live N stands in for its step's first held N.  At one
        # dt per step (step_multiple 1) that is 2000 steps.  With K chosen by
        # accuracy, each segment estimates rungs 4 (the sample interval) and
        # 2 and takes 2 at this dt of 1e-4; the steps from 502 stop at the load
        # step and at the sample after it: 999 steps of 2 dt and two of 1,
        # with the same samples.  The run stats count the 501 samples and
        # the 501 whose live N filled stage 1.
        doc = mixed_live_grid_dict()
        doc["events"] = [{"t_s": 0.0503, "type": "load_step", "node": "busB",
                          "g_siemens": 0.01}]
        sc = parse_scenario_dict(doc)
        samples = len([*range(0, 2000, 4), 503])
        for k, rungs, tried in ((1, {1: 2000}, 1), (None, {1: 2, 2: 999}, 2)):
            calls[0] = 0
            tr = run_scenario(sc, replace(sc.sim, controller_sample_hz=2500.0,
                                          step_multiple=k))
            stats = tr.meta["stats"]
            assert stats["steps_per_rung"] == rungs
            assert calls[0] == 4 * tr.meta["steps"] + 1 + 2 + 2 * (1 + 10 * tried)
            assert stats["samples"] == stats["stage1_filled"] == samples == 501
            assert stats["n_evals"] == {
                "stepped": 4 * tr.meta["steps"] - samples + 2 * (1 + 10 * tried),
                "live": samples + 1 + 2}

    @pytest.mark.parametrize("network_model", ["dynamic", "quasistatic"])
    @pytest.mark.parametrize("batch", [False, True])
    def test_sample_step_reuses_the_live_rate(self, batch, network_model, rng):
        # With the live i_o just held, the held law at y gives the live
        # dv/dt, so the stepped model's N(y) is the live rate less A y, and a
        # sample with every sampled member due writes it into stage 1's N
        # slot, on either network model.  The mixed live grid sampled at
        # 2.5 kHz alone, or beside a live member and a narrower sampled
        # all-oscillator member, at random states with the droop v = 0 in
        # every fourth; the steps between samples evaluate N themselves.
        sampled = on_grid(parse_scenario_dict(mixed_live_grid_dict()),
                          controller_sample_hz=2500.0, network_model=network_model)
        members = [sampled, on_grid(parse_scenario_dict(mixed_live_grid_dict(droop_first=True)),
                                    network_model=network_model),
                   on_grid(pu_scenario(branch_l=2e-4, cap=1e-4), controller_sample_hz=2500.0,
                           network_model=network_model)]
        sim = Simulation(members if batch else sampled)
        model, live = sim.model, sim.live_model
        (n, width), y0 = sim.y.shape, sim.y.copy()
        for k in range(20):
            y = np.zeros((n, width), dtype=complex)
            for b, mem in enumerate(sim.members):
                w = rng.normal(scale=0.05 * np.abs(y0[b]).max(), size=(mem.m, 2))
                y[b, :mem.m] = y0[b, :mem.m] + (w[:, 0] + 1j * w[:, 1])
                if k % 4 == 0:
                    y[b, mem.droop_pos] = 0.0
            sim.y, seen = y, []
            for _ in range(4):  # one sample, then three steps without
                filled, y_step = sim._filled, sim.y.copy()
                sim.step()
                # The N(y) slot of the stage vectors the step read.
                seen.append((sim._filled - filled, y_step,
                             sim._buf.other.z[:, width:2 * width].copy()))
            assert [n_filled for n_filled, _, _ in seen] == [1, 0, 0, 0]
            for _, y_step, slot in seen[1:]:
                assert np.array_equal(slot, model.nonlinear(y_step.reshape(-1)).reshape(n, width))
            slot = seen[0][2]
            a_y = np.matmul(model.a, y[..., None])[..., 0]
            rate = live.rate(y)
            want = model.nonlinear(y.reshape(-1)).reshape(n, width)
            scale = np.maximum(np.abs(rate), np.abs(a_y)).max(axis=1, keepdims=True)
            assert (np.abs(want - (rate - a_y)) <= 1e-12 * scale).all(), k
            assert (np.abs(slot - want) <= 1e-12 * scale).all(), k
            if batch:  # the live member's N is its own, bit for bit
                assert np.array_equal(slot[1], want[1])

    @staticmethod
    def sample_hold_deviation(sim, steps):
        """Step ``sim`` ``steps`` times; at every sample, the largest
        deviation of the held values of each member due, -c2 i_o in its
        oscillator slots and -j conj(i_o) in its droop slots, from those of
        the live i_o of ``live_model.outputs`` at the sampled state, each
        law's over its largest.  A member never sampled must hold zeros."""
        worst = 0.0
        for _ in range(steps):
            k, y = sim.step_index, sim.y.copy()
            due = [mem.sample_steps is not None and k % mem.sample_steps == 0
                   for mem in sim.members]
            sim.step()
            _, i_o = sim.live_model.outputs(y)
            osc, rot = sim.model._holds[..., :sim.model.ns]
            for b, mem in enumerate(sim.members):
                dv, dr = mem.dvoc_pos, mem.droop_pos
                if mem.sample_steps is None:
                    assert not osc[b].any() and not rot[b].any(), b
                if not due[b]:
                    continue
                for got, want in ((osc[b, dv], -mem.c2 * i_o[b, dv]),
                                  (rot[b, dr], -1j * np.conj(i_o[b, dr]))):
                    if len(want):
                        worst = max(worst, np.abs(got - want).max() / np.abs(want).max())
        return worst

    @pytest.mark.parametrize("batch", [False, True])
    def test_sample_holds_the_live_current(self, batch):
        # A sample's one product writes the held values themselves: at
        # every sample of the mixed live grid sampled at 2.5 kHz, alone or
        # beside a live member and a narrower sampled all-oscillator
        # member, they match the recorded model's live i_o at the sampled
        # state, each law's over its largest.  Measured: 2.8e-16 alone,
        # 3.3e-16 batched; one row of the sample's matrix scaled by 1 + 1e-9
        # reads 1.0e-9 (the next test).
        sampled = on_grid(parse_scenario_dict(mixed_live_grid_dict()),
                          controller_sample_hz=2500.0)
        members = [sampled, on_grid(parse_scenario_dict(mixed_live_grid_dict(droop_first=True))),
                   on_grid(pu_scenario(branch_l=2e-4, cap=1e-4), controller_sample_hz=2500.0)]
        sim = Simulation(members if batch else sampled)
        dev = self.sample_hold_deviation(sim, 41)
        assert dev <= 1e-13, dev

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize("row", ["oscillator", "droop"])
    def test_a_wrong_sample_row_fails_the_hold_check(self, batch, row):
        # The check above on a sample matrix with one row of the given law
        # scaled by 1 + 1e-9: the held values move by as much (1.0e-9), and
        # the check sees it at the first sample, before any trace drifts.
        sampled = on_grid(parse_scenario_dict(mixed_live_grid_dict()),
                          controller_sample_hz=2500.0)
        sim = Simulation([sampled, sampled] if batch else sampled)
        mem, width = sim.members[0], sim.y.shape[1]
        slot = mem.dvoc_pos[0] if row == "oscillator" else width + mem.droop_pos[0]
        # The real form: two rows per complex row, in every member.
        sim._measure[..., 2 * slot:2 * slot + 2, :] *= 1.0 + 1e-9
        assert self.sample_hold_deviation(sim, 5) > 1e-10

    def test_sampled_members_on_different_sample_grids_match_their_single_runs(self):
        # A sample at which only one sampled member is due holds that
        # member's i_o alone, and stage 1 evaluates the held N: reusing the
        # live rate there would run the other member on a stale measurement.
        sampled = mixed_live_grid_dict(droop_first=True)
        sampled["name"] = "mixed-sampled"
        members = [on_grid(parse_scenario_dict(mixed_live_grid_dict()),
                           controller_sample_hz=2500.0),
                   on_grid(parse_scenario_dict(sampled), controller_sample_hz=1250.0),
                   on_grid(pu_scenario(branch_l=2e-4, cap=1e-4))]
        batch_against_single_runs(members)

    @pytest.mark.parametrize("name, sample_hz", [("mixed-live", None), ("mixed-live", 2500.0),
                                                 ("paper-fig5", None), ("droop-ref", None)])
    def test_rotated_start_rotates_the_run(self, name, sample_hz):
        # Every law and network commutes with a rotation of the alpha-beta
        # plane: starting from e^{j phi} y gives e^{j phi} times the run.
        from dvocsim.scenario import builtin_scenario
        if name == "mixed-live":
            sc = parse_scenario_dict(mixed_live_grid_dict())
        else:
            sc = builtin_scenario(name)
        cfg = replace(sc.sim, controller_sample_hz=sample_hz, noise_amplitude=0.0)
        rot = np.exp(0.7j)
        tr = Simulation(sc, cfg).run()
        sim = Simulation(sc, cfg)
        sim.y = rot * sim.y
        tr_rot = sim.run()
        s_max = np.abs(tr.v * tr.i_o).max()  # q is ~0 in droop-ref: scale by |v i_o|
        for got, want, scale in ((tr_rot.v, rot * tr.v, np.abs(tr.v).max()),
                                 (tr_rot.i_o, rot * tr.i_o, np.abs(tr.i_o).max()),
                                 (tr_rot.p, tr.p, s_max), (tr_rot.q, tr.q, s_max)):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestStepMultiple:
    @pytest.mark.parametrize("decim", [1, 2, 3])
    def test_records_inside_steps_land_on_the_dt_grid(self, decim):
        # Four dt per step: with every 1st, 2nd or 3rd dt recorded, records
        # fall at every offset inside a step and at its end, interleaved in
        # time order, across a load step.  Each must match the one-dt run at
        # its own time (measured: 7.9e-8 of max |v|, 3.9e-8 of max |i_o|);
        # a record one dt early or late is off by 3.9e-2 or more.
        sc = pu_scenario(branch_l=2e-4, cap=1e-4,
                         events=[{"t_s": 0.1, "type": "load_step", "node": "bus",
                                  "g_siemens": 0.3}],
                         sim={"dt_s": 1e-4, "t_end_s": 0.3, "network_model": "dynamic",
                              "record_decimation": decim, "noise_seed": 0})
        one = run_scenario(sc)
        tr = run_scenario(sc, replace(sc.sim, step_multiple=4))
        assert np.array_equal(tr.t, one.t) and tr.events == one.events
        assert (tr.meta["step_multiple"], tr.meta["steps"]) == (4, 750)
        for got, want in ((tr.v, one.v), (tr.i_o, one.i_o)):
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("name, q, k", [("paper-fig4", None, 2), ("paper-fig5", None, 5),
                                            ("paper-fig6", None, 5), ("paper-fig7", None, 5),
                                            ("droop-ref", None, 5), ("droop-ref", -0.05, 5),
                                            ("droop-ref", 0.05, 5)])
    def test_builtins_stay_within_the_accuracy_bound(self, name, q, k):
        # Each built-in steps k dt at a time; every record stays within 1e-6
        # of its signal group's largest magnitude (v, i_o, p and q) of a run
        # at one step per dt / 8, and so do droop-ref's q-sweep points at the
        # ends of the README's range.  Measured: 1.2e-7 (fig4), 3.5e-7
        # (fig5), 3.3e-7 (fig6), 2.8e-7 (fig7), 3.2e-13 (droop-ref), 9.0e-8
        # (q = +-0.05); at k = 10 the sweep points reach 1.5e-6.  The same
        # with step_multiple removed, K chosen by accuracy per segment:
        # 1.2e-7 (fig4, K 2), 4.4e-9 (fig5), 8.4e-10 (fig6), 5.7e-10 (fig7),
        # 4.7e-13 (droop-ref, K 64), 3.7e-8 (q = +-0.05, K 4).  The dt / 8
        # run pins one step per dt.
        from dvocsim.analysis import _actuated_scenario
        from dvocsim.scenario import builtin_scenario
        sc = builtin_scenario(name)
        if q is not None:
            sc = _actuated_scenario(sc, "q", q)
        n_steps = round(sc.sim.t_end / sc.sim.dt)
        tr = run_scenario(sc)
        assert (tr.meta["step_multiple"], tr.meta["steps"]) == (k, n_steps // k)
        chosen = run_scenario(sc, replace(sc.sim, step_multiple=None))
        rungs = chosen.meta["stats"]["steps_per_rung"]
        assert sum(r * n for r, n in rungs.items()) == n_steps
        fine = run_scenario(sc, replace(sc.sim, dt=sc.sim.dt / 8, step_multiple=1,
                                        record_decimation=8 * sc.sim.record_decimation))
        s_max = max(np.abs(fine.p).max(), np.abs(fine.q).max())
        for run in (tr, chosen):
            npt.assert_allclose(fine.t, run.t, rtol=0, atol=1e-12)
            for got, want, scale in ((run.v, fine.v, np.abs(fine.v).max()),
                                     (run.i_o, fine.i_o, np.abs(fine.i_o).max()),
                                     (run.p, fine.p, s_max), (run.q, fine.q, s_max)):
                assert np.abs(got - want).max() <= 1e-6 * scale

    @pytest.mark.parametrize("batch", [False, True])
    def test_decimation_beyond_the_run_records_t0_alone(self, batch):
        # record_decimation larger than the run's 20 steps: the one record
        # is the state at t = 0, with theta the angle of v itself, alone or
        # beside a narrower member.
        sc = parse_scenario_dict(mixed_live_grid_dict())
        cfg = replace(sc.sim, t_end=0.002, record_decimation=50)
        members = [replace(sc, sim=cfg)]
        if batch:
            members.append(replace(pu_scenario(branch_l=2e-4, cap=1e-4), sim=cfg))
        sim = Simulation(members)
        y0 = sim.y.copy()
        traces = sim.run()
        assert len(traces) == len(members)
        for b, (tr, mem) in enumerate(zip(traces, sim.members)):
            assert np.array_equal(tr.t, [0.0]) and tr.v.shape == (1, mem.ns)
            assert np.array_equal(tr.v[0], y0[b, :mem.ns])
            assert np.array_equal(tr.theta, np.angle(tr.v))

    @pytest.mark.parametrize("step_multiple", [None, 4])
    def test_steps_by_hand_go_on_past_t_end(self, step_multiple):
        # step() at t_end and past it takes whole steps of the segment's K,
        # sampling the controllers and drawing noise as before: t_end
        # bounds the steps of run(), not those taken by hand.
        sc = parse_scenario_dict(mixed_live_grid_dict())
        sim = Simulation(sc, replace(sc.sim, t_end=0.004, controller_sample_hz=2500.0,
                                     noise_amplitude=1e-3, step_multiple=step_multiple))
        while sim.step_index < 40:
            sim.step()
        assert sim.step_index == 40
        for _ in range(3):
            k = sim.step_index
            sim.step()
            assert sim.step_index == k + sim._K
        assert np.isfinite(sim.y).all()


def noisy_grid_dict():
    """The two-bus dVOC + droop grid sampled every 4th dt step, noisy, with
    a load step at dt step 503 and the tie opened at 1201, over 2003 dt
    steps: events, the samples after them and t_end all off the grid of
    4 dt."""
    doc = mixed_live_grid_dict()
    doc["events"] = [{"t_s": 0.0503, "type": "load_step", "node": "busB",
                      "g_siemens": 0.01},
                     {"t_s": 0.1201, "type": "disconnect", "branch": "tie"}]
    doc["sim"].update(t_end_s=0.2003, controller_sample_hz=2500.0, noise_amplitude=0.3,
                      noise_seed=3)
    return doc


class TestStepByAccuracy:
    @staticmethod
    def group_deviations(got, want):
        """Largest |got - want| of v, i_o and p/q, each over the signal
        group's largest magnitude in ``want``."""
        s_max = max(np.abs(want.p).max(), np.abs(want.q).max())
        return (np.abs(got.v - want.v).max() / np.abs(want.v).max(),
                np.abs(got.i_o - want.i_o).max() / np.abs(want.i_o).max(),
                max(np.abs(got.p - want.p).max(), np.abs(got.q - want.q).max()) / s_max)

    @pytest.mark.parametrize("step_multiple", [None, 3, 4, 8])
    def test_noise_crosses_multi_dt_steps(self, step_multiple):
        # The noisy, sampled grid at the K its segments choose (2 or 4), or
        # at a fixed K of 3, 4 or 8, each step shortened to end at the next
        # event, sample or t_end, against the same file at one dt per step:
        # a step of r dt adds sum_j exp((r - j) dt A) xi_j of its per-dt
        # draws, and a record inside it the partial sum up to its offset.
        # Measured at the chosen K: 2.8e-6 (v), 2.4e-5 (i_o), 2.4e-5 (p/q)
        # of scale; adding the raw sum of the draws instead reads 6.6e-5,
        # 2.6e-4 and 2.2e-4.  The noise itself moves the run by 1.8e-3 (v)
        # and 5.9e-3 (p/q); without it the chosen K reads 7.1e-9, 1.3e-8
        # and 9.6e-9 (the next test).  At K 3 the steps are {1: 500, 3:
        # 501}, 2.1e-6, 2.2e-5 and 2.2e-5; at K 4 or 8 {1: 5, 2: 3, 4: 498},
        # 3.9e-6, 3.1e-5 and 3.1e-5.
        sc = parse_scenario_dict(noisy_grid_dict())
        one = run_scenario(sc, replace(sc.sim, step_multiple=1))
        tr = run_scenario(sc, replace(sc.sim, step_multiple=step_multiple))
        assert max(r for r in tr.meta["stats"]["steps_per_rung"]) > 1
        dev_v, dev_i, dev_s = self.group_deviations(tr, one)
        assert dev_v <= 1e-5, dev_v
        assert dev_i <= 6e-5, dev_i
        assert dev_s <= 6e-5, dev_s

    @pytest.mark.parametrize("name", ["mixed-grid", "mixed-grid-pair", "mixed-grid-two-grids",
                                      "paper-fig7"])
    def test_records_at_step_ends_equal_the_stepped_state(self, name):
        # A record at a step's end is the step's continuous extension at
        # theta = 1, whose weights are the step's own last stage matrix,
        # plus the step's noise: bit for bit the state the step left, and
        # its i_o that state's.  A record at an offset j < r inside a step
        # of r dt is W_j z of the stage vectors z the step read, W_j from
        # the oracle's own chain, plus the step's first j draws carried to
        # the offset, sum over i <= j of exp((j - i) dt A) xi_i, within
        # 1e-12 of the member's |v| scale.  The run ends in the twin's
        # state, bit for bit.  The sampled noisy grid alone, beside a copy
        # on another noise seed, and beside a copy sampled every 8th dt
        # step with its events at other steps (707 and 1509), and
        # paper-fig7, each against a twin stepped by hand: the grid's 201
        # records, 161 on a step boundary (176 beside the copy on 8 dt),
        # and fig7's 9001, 1801 on one.
        from dvocsim.scenario import builtin_scenario
        from scipy.linalg import expm
        if name == "paper-fig7":
            members = [builtin_scenario(name)]
        else:
            sc = parse_scenario_dict(noisy_grid_dict())
            members = [sc]
            if name == "mixed-grid-pair":
                members.append(replace(sc, sim=replace(sc.sim, noise_seed=4)))
            if name == "mixed-grid-two-grids":
                doc = noisy_grid_dict()
                doc["events"][0]["t_s"], doc["events"][1]["t_s"] = 0.0707, 0.1509
                doc["sim"].update(controller_sample_hz=1250.0, noise_seed=4)
                members.append(parse_scenario_dict(doc))
        run = Simulation(members)
        traces, twin = run.run(), Simulation(members)
        cfg, ends, inside, weights = twin.config, 0, 0, {}
        scales = [np.abs(tr.v).max() for tr in traces]
        dt, decim, n_steps = cfg.dt, cfg.record_decimation, round(cfg.t_end / cfg.dt)
        while True:
            k = twin.step_index
            if k % decim == 0:
                v, i_o = twin.live_model.outputs(twin.y[None])
                for b, (tr, mem) in enumerate(zip(traces, twin.members)):
                    assert np.array_equal(tr.v[k // decim], v[0, b, :mem.ns]), (b, k)
                    assert np.array_equal(tr.i_o[k // decim], i_o[0, b, :mem.ns]), (b, k)
                ends += 1
            if k == n_steps:
                break
            twin.step()
            r, model = twin.step_index - k, twin.model
            z = twin._buf.other.z  # the stage vectors the step read
            for j in range(-k % decim or decim, r, decim):
                if (model, r) not in weights:
                    weights[model, r] = (etdrk4_weights(model.a, dt * r, r)[4:],
                                         expm(dt * model.a))
                dense, prop = weights[model, r]
                y = np.matmul(dense[j - 1], z[..., None])[..., 0]
                if twin._noise is not None:
                    xi = twin._noise[:, k - twin._noise_at:k - twin._noise_at + j]
                    acc = np.zeros_like(y)
                    for i in range(j):
                        acc = np.matmul(prop, acc[..., None])[..., 0] + xi[:, i]
                    y = y + acc
                for b, (tr, mem) in enumerate(zip(traces, twin.members)):
                    dev = np.abs(tr.v[(k + j) // decim] - y[b, :mem.ns]).max()
                    assert dev <= 1e-12 * scales[b], (b, k, j)
                inside += 1
        assert np.array_equal(run.y, twin.y)
        assert (ends, inside) == {"paper-fig7": (1801, 7200),
                                  "mixed-grid-two-grids": (176, 25)}.get(name, (161, 40))

    @pytest.mark.parametrize("step_multiple", [None, 3, 8])
    def test_steps_stop_at_events_samples_and_t_end(self, step_multiple):
        # One rule at a chosen K and at an explicit step_multiple alike:
        # every step is its segment's K, or a power of two below K, and
        # ends on or before the next event, controller sample and t_end, so
        # every event step, every sample step (multiples of 4, and the step
        # of each event) and t_end are step boundaries, though 3 divides
        # none of the events, t_end or the sample interval.  Events are
        # applied at the same dt step and t as in the one-dt run, and every
        # record lies on the dt grid.
        sc = parse_scenario_dict(noisy_grid_dict())
        sc = replace(sc, sim=replace(sc.sim, step_multiple=step_multiple))
        sim = Simulation(sc)
        bounds = [0]
        while sim.step_index < round(sc.sim.t_end / sc.sim.dt):
            sim.step()
            bounds.append(sim.step_index)
        events = [sc.sim.event_step(ev.time) for ev in sc.events]
        assert events == [503, 1201]
        samples = set(range(0, 2003, 4)) | set(events)
        stops = sorted(samples | {2003})
        assert samples <= set(bounds) and bounds[-1] == 2003
        tr = run_scenario(sc)
        ks = {seg["step"]: seg["k"] for seg in tr.meta["stats"]["segments"]}
        assert sorted(ks) == [0, *events]
        assert step_multiple is None or set(ks.values()) == {step_multiple}
        for start, end in zip(bounds, bounds[1:]):
            k = ks[max(s for s in ks if s <= start)]
            r = end - start
            assert r == k or (r & (r - 1) == 0 and r < k), (start, end)
            assert end <= min(s for s in stops if s > start), (start, end)
        one = run_scenario(sc, replace(sc.sim, step_multiple=1))
        assert tr.events == one.events
        assert [t for t, _ in tr.events] == [e * sc.sim.dt for e in events]
        assert np.array_equal(tr.t, one.t)
        decim = sc.sim.record_decimation
        assert np.array_equal(tr.t, np.arange(len(tr.t)) * decim * sc.sim.dt)

    def test_event_at_the_start_precedes_the_first_segment(self):
        # An event at t = 0 is applied before the first step, so the run's
        # one compile segment starts after it (K 64 from this equilibrium).
        # Measured against one dt per step: 7.0e-15.
        sc = pu_scenario(events=[{"t_s": 0.0, "type": "load_step", "node": "bus",
                                  "g_siemens": 0.3}],
                         sim={"dt_s": 1e-4, "t_end_s": 0.01, "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        tr = run_scenario(sc)
        assert [t for t, _ in tr.events] == [0.0]
        assert [seg["step"] for seg in tr.meta["stats"]["segments"]] == [0]
        one = run_scenario(sc, replace(sc.sim, step_multiple=1))
        assert max(self.group_deviations(tr, one)) <= 1e-12

    def test_grid_without_noise_matches_its_one_dt_run(self):
        # The same grid with noise off, at its chosen K (2), against one dt
        # per step.  Measured: 7.1e-9 (v), 1.3e-8 (i_o), 9.6e-9 (p/q).
        doc = noisy_grid_dict()
        doc["sim"]["noise_amplitude"] = 0.0
        sc = parse_scenario_dict(doc)
        one = run_scenario(sc, replace(sc.sim, step_multiple=1))
        devs = self.group_deviations(run_scenario(sc), one)
        assert max(devs) <= 5e-8, devs

    def test_run_stats_report_steps_rungs_and_segments(self):
        # meta["steps"] counts the integrator steps taken, and meta["stats"]
        # gives steps per rung, per compile segment its dt step, K and
        # step-doubling estimate, the restacks at events with the members
        # whose events they apply, the controller samples and those whose
        # live N filled stage 1: here every one of the 501 on the grid of
        # 4 dt and the two at the events.  An explicit step_multiple is
        # estimated too, reported and not acted on: paper-fig4 at its own
        # k = 2 reads 3.6e-10, within STEP_TOL, and at k = 10, where its
        # records lie 5.5e-5 off a run at dt / 8, 8.7e-7.
        from dvocsim.scenario import builtin_scenario
        from dvocsim.sim import STEP_TOL
        sc = parse_scenario_dict(noisy_grid_dict())
        tr = run_scenario(sc)
        stats = tr.meta["stats"]
        assert set(stats) == {"steps_per_rung", "segments", "samples", "stage1_filled",
                              "restacks", "n_evals"}
        assert all(set(seg) == {"step", "k", "estimate"} for seg in stats["segments"])
        assert [seg["step"] for seg in stats["segments"]] == [0, 503, 1201]
        assert stats["restacks"] == [{"step": 503, "members": [0]},
                                     {"step": 1201, "members": [0]}]
        assert stats["samples"] == stats["stage1_filled"] == 501 + 2
        assert all(seg["estimate"] <= STEP_TOL for seg in stats["segments"])
        assert sum(r * n for r, n in stats["steps_per_rung"].items()) == 2003
        assert tr.meta["steps"] == sum(stats["steps_per_rung"].values()) < 2003
        fig4 = builtin_scenario("paper-fig4")
        for k, within in ((2, True), (10, False)):
            tr = run_scenario(fig4, replace(fig4.sim, step_multiple=k))
            assert tr.meta["stats"]["steps_per_rung"] == {k: 7000 // k}
            (seg,) = tr.meta["stats"]["segments"]
            assert (seg["step"], seg["k"]) == (0, k)
            assert (seg["estimate"] <= STEP_TOL) == within, seg

    @pytest.mark.parametrize("name, k", [("paper-fig4", 2), ("paper-fig4", 10),
                                         ("paper-fig7", None), ("mixed-live", None)])
    def test_estimate_matches_an_independent_step_doubling(self, name, k):
        # A run's first estimate (meta["stats"]), taken through its own step
        # routine and per-rung weight cache, against step doubling redone
        # apart: the oracle's weights of k dt and 2k dt applied by np.matmul
        # to fresh stage vectors, |two steps of k dt - one of 2k| / 15 over
        # the largest magnitude of each group, voltages and branch currents.
        # Measured: equal bit for bit.  Dividing by 16 instead, scaling each
        # rung's last stage matrix by 1 + 1e-9, or giving rung 2 rung 1's
        # second stage matrix fails it.
        from dvocsim.scenario import builtin_scenario
        sc = parse_scenario_dict(mixed_live_grid_dict()) if name == "mixed-live" \
            else builtin_scenario(name)
        sim = Simulation(sc, replace(sc.sim, step_multiple=k))
        model, y0, (mem,), dt = sim.model, sim.y.copy(), sim.members, sim.config.dt
        groups = (slice(0, mem.ns), slice(mem.ns, mem.m))
        seg = sim.run().meta["stats"]["segments"][0]
        width, k = y0.shape[1], seg["k"]

        def step(w, y):
            z = np.zeros((1, 5 * width), dtype=complex)
            z[:, :width], z[:, width:2 * width] = y, model.nonlinear(y.reshape(-1))
            for c, wc in zip((2, 3, 4), w):
                u = np.matmul(wc, z[:, :c * width, None])[..., 0]
                z[:, c * width:(c + 1) * width] = model.nonlinear(u.reshape(-1))
            return np.matmul(w[3], z[..., None])[..., 0]

        fine_w, coarse_w = (etdrk4_weights(model.a, dt * r, r)[:4] for r in (k, 2 * k))
        fine = step(fine_w, step(fine_w, y0))[0]
        coarse = step(coarse_w, y0)[0]
        err, mag = np.abs(fine - coarse) / 15.0, np.maximum(np.abs(y0[0]), np.abs(fine))
        want = max(err[g].max(initial=0.0) / (mag[g].max(initial=0.0) or 1.0) for g in groups)
        assert seg["step"] == 0 and want > 1e-14
        assert abs(seg["estimate"] - want) <= 1e-6 * want, (seg, want)


class TestNetworkModes:
    def test_dynamic_matches_quasistatic_steady_state(self):
        # The second load set puts part of the load at the inverter node.
        for loads in ({"bus": 0.5}, {"n1": 0.2, "bus": 0.3}):
            traces = []
            for model in ("dynamic", "quasistatic"):
                d = pu_scenario_dict(branch_r=0.05, branch_l=2e-5, cap=1e-4,
                                     initial={"mode": "nominal", "angle_rad": 0.0},
                                     sim={"dt_s": 1e-5, "t_end_s": 0.15,
                                          "network_model": model,
                                          "record_decimation": 10, "noise_seed": 0})
                d["network"]["loads"] = [{"node": n, "g_siemens": g}
                                         for n, g in loads.items()]
                traces.append(run_scenario(parse_scenario_dict(d)))
            tr_d, tr_q = traces
            assert tr_d.vmag[-1, 0] == pytest.approx(tr_q.vmag[-1, 0], rel=1e-3)
            assert tr_d.p[-1, 0] == pytest.approx(tr_q.p[-1, 0], rel=1e-3)
            assert tr_d.q[-1, 0] == pytest.approx(tr_q.q[-1, 0], rel=2e-3)

    def test_sampled_mode_converges_to_continuous(self):
        # Zero-order-hold measurements: sup-deviation of the amplitude
        # trajectory shrinks as the controller rate doubles.
        kw = dict(initial={"mode": "explicit", "v_alpha": 0.8, "v_beta": 0.0})
        base = {"dt_s": 1e-5, "t_end_s": 0.05, "network_model": "quasistatic",
                "record_decimation": 10, "noise_seed": 0}
        cont = run_scenario(pu_scenario(sim=dict(base), **kw))
        devs = []
        for f_c in (1250.0, 2500.0, 5000.0, 10000.0):
            cfg = dict(base)
            cfg["controller_sample_hz"] = f_c
            tr = run_scenario(pu_scenario(sim=cfg, **kw))
            devs.append(float(np.max(np.abs(tr.vmag - cont.vmag))))
        assert all(a > b for a, b in zip(devs, devs[1:]))

    def test_sampled_mode_with_dynamic_network(self):
        # Held measurements include the capacitor current sampled at the
        # update instants; the trajectory stays near the continuous one.
        kw = dict(load_g=0.5, branch_r=0.05, branch_l=2e-5, cap=1e-4,
                  initial={"mode": "nominal", "angle_rad": 0.0})
        base = {"dt_s": 1e-5, "t_end_s": 0.05, "network_model": "dynamic",
                "record_decimation": 10, "noise_seed": 0}
        cont = run_scenario(pu_scenario(sim=dict(base), **kw))
        sampled_cfg = dict(base)
        sampled_cfg["controller_sample_hz"] = 20000.0
        samp = run_scenario(pu_scenario(sim=sampled_cfg, **kw))
        assert np.max(np.abs(samp.vmag - cont.vmag)) < 5e-3

    def test_noise_drives_escape_from_origin(self):
        sc = pu_scenario(
            p_star=0.0, q_star=0.0, load_g=0.2,
            initial={"mode": "explicit", "v_alpha": 0.0, "v_beta": 0.0},
            sim={"dt_s": 2e-5, "t_end_s": 0.5, "network_model": "quasistatic",
                 "record_decimation": 20, "noise_seed": 5,
                 "noise_amplitude": 1e-3})
        tr = run_scenario(sc)
        assert tr.vmag[-1, 0] > 0.9

    def test_noise_blocks_match_per_step_draws(self):
        # Two noisy members over 600 steps: three noise blocks each, and
        # member 0's load step restacks the batch at step 300.  Every step
        # of one dt (step_multiple 1) adds one row to the state, zero off
        # the oscillator slots; a member's part of it equals one scale *
        # standard_normal(2 n) call per step on a generator seeded as the
        # member's, after its black-start angles.
        from dvocsim.sim import NOISE_BLOCK, _Member
        sim_cfg = {"dt_s": 1e-4, "t_end_s": 0.06, "network_model": "quasistatic",
                   "record_decimation": 10, "noise_amplitude": 1e-3, "step_multiple": 1}
        step = [{"t_s": 0.03, "type": "load_step", "node": "bus", "g_siemens": 0.3}]
        members = [pu_scenario(initial={"mode": "blackstart"}, events=step,
                               sim=dict(sim_cfg, noise_seed=5)),
                   pu_scenario(sim=dict(sim_cfg, noise_seed=6))]
        sim = Simulation(members)
        n_steps = int(round(sim.config.t_end / sim.config.dt))
        assert n_steps > 2 * NOISE_BLOCK
        draws = [[], []]
        for _ in range(n_steps):
            sim.step()
            # The state before the step's noise: the last stage's product of
            # the stage vectors the step read.
            stepped = np.matmul(sim._etd[3], sim._buf.other.z[..., None])[..., 0]
            row = sim._noise[:, sim.step_index - 1 - sim._noise_at]
            assert np.array_equal(sim.y, stepped + row)
            for b, (mem, got) in enumerate(zip(sim.members, draws)):
                got.append(row[b, mem.dvoc_pos])
                off = np.ones(row.shape[1], dtype=bool)
                off[mem.dvoc_pos] = False
                assert not row[b, off].any()
        assert sim.members[0].events_applied
        for sc, got in zip(members, draws):
            ref = _Member(sc, sc.sim)
            ref.initial_state()  # the black-start angles come first
            scale = sc.sim.noise_amplitude * math.sqrt(sc.sim.dt)
            assert len(got) == n_steps
            for w_got in got:
                w = scale * ref.rng.standard_normal(2 * len(ref.dvoc_pos))
                assert np.array_equal(w_got, w[0::2] + 1j * w[1::2])


class TestDroopInverter:
    def test_droop_settles_to_its_own_steady_state(self):
        kp = 43.43  # matches eta/v*^2 of the reference oscillator design
        kq = 0.05
        sc = pu_scenario(control="droop", kp=kp, kq=kq, load_g=0.4,
                         p_star=0.5, q_star=0.0,
                         sim={"dt_s": 1e-4, "t_end_s": 2.0,
                              "network_model": "quasistatic",
                              "record_decimation": 10, "noise_seed": 0})
        tr = run_scenario(sc)
        p, q, r = tr.p[-1, 0], tr.q[-1, 0], tr.vmag[-1, 0]
        # stationary droop laws on the measured operating point
        assert r == pytest.approx(1.0 + kq * (0.0 - q), rel=1e-6)
        theta_rate = (tr.theta[-1, 0] - tr.theta[-2, 0]) / (tr.t[-1] - tr.t[-2])
        assert theta_rate == pytest.approx(OMEGA0 + kp * (0.5 - p), rel=1e-6)

    def test_droop_starts_from_zero_voltage(self):
        # The direction of v = 0 is taken as theta = 0.  On the resistive
        # network q = 0, so dr/dt = v* - r and |v| = v* (1 - e^{-t}).
        sc = pu_scenario(control="droop", kp=43.43, kq=0.05,
                         initial={"mode": "explicit", "v_alpha": 0.0, "v_beta": 0.0},
                         sim={"dt_s": 1e-4, "t_end_s": 0.5,
                              "network_model": "quasistatic",
                              "record_decimation": 10, "noise_seed": 0})
        tr = run_scenario(sc)
        assert np.all(np.isfinite(tr.v))
        npt.assert_allclose(tr.vmag[:, 0], 1.0 - np.exp(-tr.t), rtol=0, atol=1e-7)


class TestFailureModes:
    def test_divergence_aborts_with_diagnostic(self):
        # Far above v*, the cubic amplitude term is unstable at this step.
        sc = pu_scenario(initial={"mode": "explicit", "v_alpha": 1e3, "v_beta": 0.0},
                         sim={"dt_s": 1e-3, "t_end_s": 0.05,
                              "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        with pytest.raises(SimulationDiverged) as exc:
            run_scenario(sc)
        assert exc.value.inverter == "inv1"
        assert exc.value.time > 0.0
        assert exc.value.step == round(exc.value.time / 1e-3)
        assert f"step {exc.value.step}," in str(exc.value)

    @staticmethod
    def divergent_batch(decim):
        """Three per-unit members over 600 steps; at step 123 member 1's v*
        drops to 1e-3, which drives its cubic term unstable at dt = 1e-4."""
        sim = {"dt_s": 1e-4, "t_end_s": 0.06, "network_model": "quasistatic",
               "record_decimation": decim, "noise_seed": 0}
        drop = [{"t_s": 0.0123, "type": "set_point", "inverter": "inv1", "v_star_peak": 1e-3}]
        members = [pu_scenario(sim=sim), pu_scenario(sim=sim, events=drop),
                   pu_scenario(sim=sim, p_star=0.3)]
        return [replace(m, name=f"m{b}") for b, m in enumerate(members)]

    @pytest.mark.parametrize("case, want", [
        ("divergence", (0.002, 2, 0, "pu-test", "inv1")),
        ("divergence-before-event", (0.002, 2, 0, "pu-test", "inv1")),
        ("batch-mid-block", (0.0125, 125, 1, "m1", "inv1")),
        ("batch-mid-block-decimated", (0.0126, 126, 1, "m1", "inv1")),
        ("divergence-inside-a-step", (0.003, 3, 0, "pu-test", "inv1")),
        ("divergence-after-the-last-record", (0.05, 50, 0, "pu-test", "inv1")),
    ])
    def test_divergence_fields_match_a_check_at_every_record(self, case, want):
        # Records are checked finite in blocks, but the diagnostic names the
        # first non-finite record as a check at every record point would
        # (the expected fields were measured that way): the existing
        # divergence case; the same with an event due at the diverging
        # record, which flushes the block before the event is applied; and a
        # batch whose member 1 diverges mid-block, every step recorded or
        # every 7th; and, at two dt per step, a first non-finite record
        # inside a step, named by its own dt step; and, recording every
        # 100th of 50 steps, a state that turns non-finite after the one
        # record, at t = 0, named by the run's final check at t_end.
        if case.startswith("divergence"):
            events = [{"t_s": 0.002, "type": "load_step", "node": "bus",
                       "g_siemens": 0.3}] if case.endswith("event") else []
            sim = Simulation(pu_scenario(
                initial={"mode": "explicit", "v_alpha": 1e3, "v_beta": 0.0}, events=events,
                sim={"dt_s": 1e-3, "t_end_s": 0.05, "network_model": "quasistatic",
                     "record_decimation": 100 if case.endswith("record") else 1,
                     "noise_seed": 0, "step_multiple": 2 if case.endswith("step") else None}))
        else:
            sim = Simulation(self.divergent_batch(7 if case.endswith("decimated") else 1))
        with pytest.raises(SimulationDiverged) as exc:
            sim.run()
        got = exc.value
        assert (got.time, got.step, got.member, got.scenario, got.inverter) == want
        assert math.isnan(got.magnitude)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            SimConfig(network_model="magic")
        with pytest.raises(ValueError):
            SimConfig(record_decimation=0)
        with pytest.raises(ValueError):
            SimConfig(noise_amplitude=float("nan"))
        with pytest.raises(ValueError):
            SimConfig(dt=1e-5, controller_sample_hz=8000.0)  # 12.5 steps
        assert SimConfig(dt=1e-5, controller_sample_hz=1250.0).sample_steps == 80
        for bad in (0, 2.0, 101, True):
            with pytest.raises(ValueError, match="step_multiple"):
                SimConfig(step_multiple=bad)
        for bad in (2.0, True):
            with pytest.raises(ValueError, match="record_decimation"):
                SimConfig(record_decimation=bad)
        for bad in (-1, 1.0, True):
            with pytest.raises(ValueError, match="noise_seed"):
                SimConfig(noise_seed=bad)
        # The parser's number rule: a bool is not a number, so a config
        # Scenario.to_dict would write and the parser reject is refused here.
        for name in ("dt", "t_end", "controller_sample_hz", "noise_amplitude"):
            for bad in (True, False, "1", float("inf")):
                with pytest.raises(ValueError, match=f"{name} must"):
                    SimConfig(**{name: bad})

    def test_event_off_the_step_multiple_applied_at_its_dt_step(self):
        # A load step at dt step 5001 at two dt per step: the step before
        # it and the run's last step are shortened to one dt, and the event
        # is applied at t = 0.10002 as at one dt per step.  Measured against
        # that run: 1.0e-13 of the largest |v|.
        sc = pu_scenario(events=[{"t_s": 0.10002, "type": "load_step", "node": "bus",
                                  "g_siemens": 0.4}])
        tr = run_scenario(sc, replace(sc.sim, step_multiple=2))
        one = run_scenario(sc, replace(sc.sim, step_multiple=1))
        assert tr.meta["stats"]["steps_per_rung"] == {1: 2, 2: 7499}
        assert [t for t, _ in tr.events] == [5001 * sc.sim.dt] == [t for t, _ in one.events]
        assert tr.events[0][0] == pytest.approx(0.10002, abs=1e-15)
        assert np.abs(tr.v - one.v).max() <= 1e-12 * np.abs(one.v).max()
        # An event far beyond the run, whose t/dt overflows a float, is never
        # reached (it once raised OverflowError).
        far = pu_scenario(events=[{"t_s": 1e300, "type": "load_step", "node": "bus",
                                   "g_siemens": 0.4}],
                          sim={"dt_s": 1e-10, "t_end_s": 1e-7, "network_model": "quasistatic",
                               "record_decimation": 100, "noise_seed": 0})
        assert run_scenario(far).events == []

    def test_run_is_single_use(self):
        sc = pu_scenario(sim={"dt_s": 1e-4, "t_end_s": 0.001,
                              "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        sim = Simulation(sc)
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_config_override_replaces_scenario_config(self):
        sc = pu_scenario()
        cfg = replace(sc.sim, t_end=0.002)
        tr = run_scenario(sc, cfg)
        assert tr.t[-1] == pytest.approx(0.002)


def on_grid(sc, **sim):
    """``sc`` on the batch tests' step grid (dt 1e-4, 0.3 s, every 10th step
    recorded, dynamic network, one dt per step), with any setting, of the
    grid or not, overridden by ``sim``.  One dt per step is pinned with
    step_multiple 1: the tests that step or compare against single runs
    count dt steps, and an unset step_multiple lets each segment's K vary
    with the batch."""
    grid = dict(dt=1e-4, t_end=0.3, record_decimation=10, network_model="dynamic",
                step_multiple=1)
    return replace(sc, sim=replace(sc.sim, **dict(grid, **sim)))


def heterogeneous_batch():
    """fig5; the live mixed grid with droop rows and events; a sampled, noisy
    grid whose timeline connects, steps a load, opens and recloses the tie;
    two dynamic q-sweep points, the second with the extra actuator branch."""
    from dvocsim.analysis import _actuated_scenario
    from dvocsim.scenario import builtin_scenario
    live = mixed_live_grid_dict()
    live["events"] = [
        {"t_s": 0.05, "type": "load_step", "node": "busB", "g_siemens": 0.01},
        {"t_s": 0.12, "type": "disconnect", "branch": "tie"},
        {"t_s": 0.2, "type": "set_point", "inverter": "inv3", "p_star_w": 180.0}]
    sampled = mixed_live_grid_dict(droop_first=True)
    sampled["name"] = "mixed-sampled"
    sampled["network"]["branches"][1]["connected"] = False
    sampled["events"] = [
        {"t_s": 0.05, "type": "connect", "branch": "b2"},
        {"t_s": 0.1, "type": "load_step", "node": "busA", "g_siemens": 0.02},
        {"t_s": 0.15, "type": "disconnect", "branch": "tie"},
        {"t_s": 0.22, "type": "connect", "branch": "tie"}]
    template = pu_scenario(branch_l=2e-4, cap=1e-4)
    return [on_grid(builtin_scenario("paper-fig5")),
            on_grid(parse_scenario_dict(live)),
            on_grid(parse_scenario_dict(sampled), controller_sample_hz=2500.0,
                    noise_amplitude=0.5, noise_seed=5),
            on_grid(_actuated_scenario(template, "q", -0.04)),
            on_grid(_actuated_scenario(template, "q", 0.04))]


def without_batch_stats(meta):
    """A trace's meta without the stats that count the batch's own
    restacks: its compile segments, its restacks, the samples that filled
    stage 1, which wait for every sampled member to be due, and the N
    evaluations, which count all of these and the batch's samples."""
    return dict(meta, stats=dict(meta["stats"], segments=None, restacks=None,
                                 stage1_filled=None, n_evals=None))


def batch_against_single_runs(members):
    """Run ``members`` as one batch and each alone; every trace column must
    agree to 1e-12 of its scale.  Returns the names of the members whose
    traces are not bit-identical to their single runs."""
    traces = Simulation(members).run()
    assert len(traces) == len(members)
    not_bitwise = []
    for sc, tr in zip(members, traces):
        single = run_scenario(sc)
        assert tr.inverter_ids == single.inverter_ids
        # A batch restacks at every member's events, so its compile
        # segments, and their estimates, are the batch's own.
        assert tr.events == single.events and without_batch_stats(tr.meta) == \
            without_batch_stats(single.meta)
        assert np.array_equal(tr.t, single.t)
        for name in ("v", "i_o", "p", "q", "vmag", "theta"):
            got, want = getattr(tr, name), getattr(single, name)
            if not np.array_equal(got, want):
                npt.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max(),
                                    err_msg=f"{sc.name} {name}")
                if sc.name not in not_bitwise:
                    not_bitwise.append(sc.name)
    return not_bitwise


class TestBatch:
    def test_heterogeneous_members_match_their_single_runs(self):
        # A member's stage products run over its zero-padded rows of the
        # stacked matrices, and BLAS may sum a longer row in another order,
        # in the steps and in the weights built from the padded A: every
        # member here is narrower than the batch for part of the run, so
        # each may round differently from its single run (measured: all
        # five, by at most 4e-14 of a v, i_o, p or |v| column's scale).
        not_bitwise = batch_against_single_runs(heterogeneous_batch())
        print("members not bit-identical to their single runs:", not_bitwise or "none")

    def test_widest_member_is_bit_identical(self):
        # The live mixed grid (7 states, no events) is never padded; the two
        # q-sweep points (2 and 3 states) are.
        from dvocsim.analysis import _actuated_scenario
        template = pu_scenario(branch_l=2e-4, cap=1e-4)
        members = [on_grid(parse_scenario_dict(mixed_live_grid_dict()))] + [
            on_grid(_actuated_scenario(template, "q", q)) for q in (-0.04, 0.04)]
        not_bitwise = batch_against_single_runs(members)
        assert "mixed-live" not in not_bitwise
        print("members not bit-identical to their single runs:", not_bitwise or "none")

    def test_padded_slots_stay_zero(self):
        sim = Simulation(heterogeneous_batch())
        widths = set()
        for _ in range(int(round(sim.config.t_end / sim.config.dt))):
            sim.step()
            widths.add(sim.y.shape[1])
            for b, mem in enumerate(sim.members):
                assert not sim.y[b, mem.m:].any(), (b, sim.step_index)
        assert len(widths) > 1  # events changed the batch's width

    @pytest.mark.parametrize("k", [1, 2])
    def test_stage_matrices_are_block_diagonal(self, k):
        # The batch's weights come from the padded A in one stacked call.
        # After every restack each member's blocks match the weights of its
        # own A, and every weight between its slots and its padding is 0.
        # The dense weights, which the batch builds only for a rung that
        # holds a record, come from the batch's chain the same way.
        members = [replace(m, sim=replace(m.sim, step_multiple=k))
                   for m in heterogeneous_batch()]
        sim, widths, h = Simulation(members), set(), members[0].sim.dt * k
        while True:
            width = sim.y.shape[1]
            widths.add(width)
            dense = tuple(_dense(sim._rows, h, k))
            for b, mem in enumerate(sim.members):
                m = mem.m
                a = mem.a_live if mem.a_held is None else mem.a_held
                own = etdrk4_weights(a, h, k)
                assert len(own) == len(sim._etd) + len(dense) == 4 + k
                for got, want in zip(sim._etd + dense, own):
                    got = got[b].reshape(width, -1, width)
                    want = want.reshape(m, -1, m)
                    for c in range(want.shape[1]):
                        scale = np.abs(want[:, c]).max()
                        assert np.abs(got[:m, c, :m] - want[:, c]).max() <= 1e-13 * scale
                    assert not got[:m, :, m:].any() and not got[m:, :, :m].any(), b
            steps = [mem.pending[0][0] for mem in sim.members if mem.pending]
            if not steps:
                break
            sim.step_index = min(steps)
            sim._apply_due_events()
        assert len(widths) > 1  # events changed the batch's width

    @pytest.mark.parametrize("k, calls", [(5, 1), (1, 1)])
    @pytest.mark.parametrize("n", [1, 10])
    def test_one_stacked_compile_per_batch(self, monkeypatch, n, k, calls):
        # A droop-ref sweep batch builds its ETDRK4 weights, the dense
        # output's among them when k > 1, with one stacked expm, whatever B
        # is.
        from dvocsim.analysis import _actuated_scenario
        from dvocsim.numerics import expm
        from dvocsim.scenario import builtin_scenario
        template = builtin_scenario("droop-ref")
        template = replace(template, sim=replace(template.sim, step_multiple=k))
        members = [_actuated_scenario(template, "q", q) for q in np.linspace(-0.05, 0.05, n)]
        shapes = []

        def counted(a):
            shapes.append(a.shape)
            return expm(a)

        monkeypatch.setattr("dvocsim.sim.expm", counted)
        Simulation(members)
        assert len(shapes) == calls
        assert all(shape[0] == n for shape in shapes)

    def test_batched_nonlinear_matches_each_members_own(self, rng):
        # N over the whole batch state, live and held, against each member's
        # own N, bit for bit: a live droop member, a sampled one with its
        # droop inverter first and a narrower all-oscillator member, at
        # random states with a droop v = 0 among them.  Off a member's slots
        # N stays exactly 0, whatever the zero coefficients meet there.
        live = on_grid(parse_scenario_dict(mixed_live_grid_dict()))
        sampled = on_grid(parse_scenario_dict(mixed_live_grid_dict(droop_first=True)),
                          controller_sample_hz=2500.0)
        members = [live, sampled, on_grid(pu_scenario(branch_l=2e-4, cap=1e-4))]
        batch, singles = Simulation(members), [Simulation(m) for m in members]
        n, width = batch.y.shape
        assert [mem.m for mem in batch.members] == [width, width, 2]
        i_o = rng.normal(size=(n, batch.model.ns)) + 1j * rng.normal(size=(n, batch.model.ns))
        hold(batch.model, i_o, [False, True, False])
        hold(singles[1].model, i_o[1:2])
        slot = np.zeros((n, 3 * width), dtype=complex)[:, width:2 * width]  # a stage slot
        for k in range(20):
            y = np.zeros((n, width), dtype=complex)
            for b, mem in enumerate(batch.members):
                w = rng.normal(scale=50.0, size=(mem.m, 2))
                y[b, :mem.m] = w[:, 0] + 1j * w[:, 1]
                if k % 4 == 0:
                    y[b, mem.droop_pos] = 0.0
            for which in ("model", "live_model"):
                got = getattr(batch, which).nonlinear(y.reshape(-1)).reshape(n, width)
                getattr(batch, which).nonlinear(y.reshape(-1), out=slot)
                assert np.array_equal(slot, got)
                for b, (mem, single) in enumerate(zip(batch.members, singles)):
                    want = getattr(single, which).nonlinear(y[b, :mem.m])
                    assert np.array_equal(got[b, :mem.m], want), (which, b, k)
                    assert not got[b, mem.m:].any(), (which, b, k)

    def test_members_at_a_step_multiple_match_their_single_runs(self):
        # The heterogeneous batch at two dt per step, its sampled member
        # noisy: records inside a step come from each member's padded dense
        # weights, plus the noise the step added up to them.
        members = [replace(m, sim=replace(m.sim, step_multiple=2))
                   for m in heterogeneous_batch()]
        not_bitwise = batch_against_single_runs(members)
        print("members not bit-identical to their single runs:", not_bitwise or "none")

    def test_held_measurement_survives_another_members_restack(self):
        # The live member's load step at dt step 503 restacks the batch
        # between the sampled member's samples (every 4th step), so the
        # sampled member's held measurement must carry into the new model.
        # Neither member is padded, so both stay bit-identical.
        live = mixed_live_grid_dict()
        live["events"] = [{"t_s": 0.0503, "type": "load_step", "node": "busB",
                           "g_siemens": 0.01}]
        sampled = mixed_live_grid_dict(droop_first=True)
        sampled["name"] = "mixed-sampled"
        members = [on_grid(parse_scenario_dict(live)),
                   on_grid(parse_scenario_dict(sampled), controller_sample_hz=2500.0)]
        assert batch_against_single_runs(members) == []

    def test_batched_rerun_is_bit_identical(self):
        first, second = (Simulation(heterogeneous_batch()).run() for _ in range(2))
        for a, b in zip(first, second):
            for name in ("t", "v", "i_o", "p", "q", "vmag", "theta"):
                assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_single_scenario_returns_one_trace(self):
        sc = pu_scenario(sim={"dt_s": 1e-4, "t_end_s": 0.01,
                              "network_model": "quasistatic",
                              "record_decimation": 1, "noise_seed": 0})
        single = Simulation(sc).run()
        (member,) = Simulation([sc]).run()
        assert np.array_equal(single.v, member.v)

    @pytest.mark.parametrize("field, value", [("dt", 2e-4), ("t_end", 0.2),
                                              ("record_decimation", 5),
                                              ("network_model", "quasistatic"),
                                              ("step_multiple", 2)])
    def test_mismatched_step_grid_rejected(self, field, value):
        members = heterogeneous_batch()[:2]
        members[1] = replace(members[1], sim=replace(members[1].sim, **{field: value}))
        with pytest.raises(ValueError, match=field):
            Simulation(members)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Simulation([])

    def test_diverging_member_names_itself(self):
        # A 1000x oversized capacitor drives the oscillator unstable at
        # dt = 1e-4 (at step 3); the other members settle.
        from dvocsim.analysis import _actuated_scenario
        template = pu_scenario(sim={"dt_s": 1e-4, "t_end_s": 0.05,
                                    "network_model": "quasistatic",
                                    "record_decimation": 1, "noise_seed": 0})
        members = [_actuated_scenario(template, "q", q) for q in (-10.0, -1000.0, -1.0)]
        with pytest.raises(SimulationDiverged) as single:
            run_scenario(members[1])
        with pytest.raises(SimulationDiverged) as batch:
            Simulation(members).run()
        got, want = batch.value, single.value
        assert (got.member, got.scenario) == (1, "pu-test q=-1000.0")
        assert (want.member, want.scenario) == (0, "pu-test q=-1000.0")
        assert (got.step, got.time, got.inverter) == (want.step, want.time, want.inverter)
        assert got.magnitude == want.magnitude or (math.isnan(got.magnitude)
                                                   and math.isnan(want.magnitude))
        assert "member 1 'pu-test q=-1000.0'" in str(got)


class TestSingleRun:
    @staticmethod
    def single_run_scenarios():
        """paper-fig7 at five dt per step, and the droop-first mixed grid
        sampled every fourth dt step and unsampled, K chosen."""
        from dvocsim.scenario import builtin_scenario
        mixed = parse_scenario_dict(mixed_live_grid_dict(droop_first=True))
        return {"paper-fig7": builtin_scenario("paper-fig7"),
                "mixed-sampled": on_grid(mixed, controller_sample_hz=2500.0),
                "mixed-live": mixed}

    @pytest.mark.parametrize("name", ["paper-fig7", "mixed-sampled", "mixed-live"])
    def test_dot_step_matches_stacked_matmul(self, name):
        # A single run takes its products through ndarray.dot on 2-D views,
        # a batch through np.matmul on (B, M, cM) stacks, the live droop
        # current's among them (the unsampled grid).  Each step's stage
        # vectors and result against the step redone with np.matmul from the
        # same _etd and the same N(y), which a sample (steps 0 and 4 of the
        # sampled grid) fills; and against a batch of two copies, stepped
        # alongside, whose samples and live products are stacked too.  Both
        # bit for bit.  The step's stage vectors stay whole in the buffer it
        # read, its result in the other buffer's y slot.
        sc = self.single_run_scenarios()[name]
        sim, pair = Simulation(sc), Simulation([sc, sc])
        width = sim.y.shape[1]
        for k in range(6):
            y = sim.y.copy()
            sim.step()
            pair.step()
            stages = sim._buf.other.z
            z = np.zeros_like(stages)
            z[:, :2 * width] = stages[:, :2 * width]
            for c, w in zip((2, 3, 4), sim._etd):
                u = np.matmul(w, z[:, :c * width, None])[..., 0]
                z[:, c * width:(c + 1) * width] = sim.model.nonlinear(u.reshape(-1))
            assert np.array_equal(stages[:, :width], y), k
            assert np.array_equal(stages, z), k
            assert sim.y is sim._buf.y, k
            assert np.array_equal(sim.y, np.matmul(sim._etd[3], z[..., None])[..., 0]), k
            assert np.array_equal(pair.y, np.concatenate([sim.y, sim.y])), k

    @pytest.mark.parametrize("batch", [False, True])
    def test_nonlinear_scratch_never_leaks(self, batch, rng):
        # N keeps its intermediates in scratch arrays per input shape and
        # returns ``out`` or a fresh array.  Calls on a flat state, into a
        # (B, M) stage slot and on a (K, B M) record stack, interleaved and
        # each shape twice, held and live: every result equals that of one
        # call on a fresh model, and no later call changes an earlier one.
        sampled = on_grid(parse_scenario_dict(mixed_live_grid_dict(droop_first=True)),
                          controller_sample_hz=2500.0)
        members = [sampled]
        if batch:
            members = [on_grid(parse_scenario_dict(mixed_live_grid_dict())), sampled,
                       on_grid(pu_scenario(branch_l=2e-4, cap=1e-4))]
        sim = Simulation(members)
        n, width = sim.y.shape
        i_o = rng.normal(size=(n, sim.model.ns)) + 1j * rng.normal(size=(n, sim.model.ns))
        hold(sim.model, i_o)

        def fresh(which):
            other = Simulation(members)
            hold(other.model, i_o)
            return getattr(other, which)

        def state(*shape):
            y = rng.normal(scale=50.0, size=shape + (n, width, 2)) @ [1.0, 1.0j]
            for b, mem in enumerate(sim.members):
                y[..., b, mem.m:] = 0.0
            if shape:  # the first member's droop inverter at v = 0
                y[0, 0, sim.members[0].droop_pos] = 0.0
            return y.reshape(shape + (n * width,))

        for which in ("model", "live_model"):
            model, results = getattr(sim, which), []
            for y, slot in [(state(), False), (state(), True), (state(5), False),
                            (state(), False), (state(), True), (state(5), False)]:
                if slot:
                    out = np.zeros((n, 3 * width), dtype=complex)[:, width:2 * width]
                    got = model.nonlinear(y, out=out)
                    assert got is out
                    want = fresh(which).nonlinear(y).reshape(n, width)
                else:
                    got = model.nonlinear(y)
                    want = fresh(which).nonlinear(y)
                assert np.array_equal(got, want), (which, len(results))
                results.append((got, got.copy()))
            for k, (got, copy) in enumerate(results):
                assert np.array_equal(got, copy), (which, k)
