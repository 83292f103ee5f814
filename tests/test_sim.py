import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dvocsim.control import DroopParams, PolarState, droop_rhs, dvoc_rhs
from dvocsim.network import DynamicNetwork, measure_power, reduced_admittance
from dvocsim.scenario import parse_scenario_dict
from dvocsim.sim import SimConfig, Simulation, SimulationDiverged, run_scenario

from conftest import OMEGA0, pu_scenario, pu_scenario_dict


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
        npt.assert_array_equal(tr.column("v_alpha", 0), tr.v[:, 0].real)
        npt.assert_array_equal(tr.column("i_beta", 0), tr.i_o[:, 0].imag)
        npt.assert_array_equal(tr.column("p", 0), tr.p[:, 0])
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
        d["sim"].update(network_model="dynamic", dt_s=1e-5)
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


def oracle_derivative(mem, yv, held=None):
    """dy/dt and the live i_o of batch member ``mem`` rebuilt from the
    control laws and the network models, independently of the split: the
    capacitor loop i_o = i_net + C dv/dt is solved by fixed-point iteration."""
    ns = mem.ns
    v_all, ib = yv[:ns], yv[ns:]
    if mem.config.network_model == "dynamic":
        net = DynamicNetwork(mem.topology)
        i_net = net.source_branch_currents(ib, v_all)
        dib = net.rhs(ib, v_all)
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
        # A y + N(y), live and held, against dy/dt rebuilt from
        # control.dvoc_rhs/droop_rhs and the network models; the recorded
        # i_o of _outputs against the live oracle current.  In
        # "mixed-droop-at-zero" every sampled state has the droop inverter
        # at v = 0, whose direction both take as theta = 0.
        from dvocsim.scenario import builtin_scenario
        if name.startswith("mixed"):
            sc = parse_scenario_dict(mixed_live_grid_dict(name == "mixed-droop-first"))
        else:
            sc = builtin_scenario(name)
        scale = 100.0 if name != "droop-ref" else 1.0
        for sample_hz in (None, 1.0 / (4.0 * sc.sim.dt)):
            sim = Simulation(sc, replace(sc.sim, controller_sample_hz=sample_hz))
            mem = sim.members[0]
            for _ in range(5):
                w = rng.normal(scale=0.05 * scale, size=(mem.m, 2))
                y = sim.y[0] + (w[:, 0] + 1j * w[:, 1])
                if name == "mixed-droop-at-zero":
                    y[mem.droop_pos] = 0.0
                held = None
                if sample_hz is not None:
                    held = rng.normal(size=mem.ns) + 1j * rng.normal(size=mem.ns)
                    sim._hold(held[None])
                sp = sim._stepped
                want, i_o = oracle_derivative(mem, y, held)
                got = sp.a[0] @ y + sim._nonlinear(y, sp)
                npt.assert_allclose(got, want, rtol=1e-12,
                                    atol=1e-12 * np.abs(want).max())
                npt.assert_allclose(sim._outputs(y[None])[1][0], i_o, rtol=1e-12,
                                    atol=1e-12 * np.abs(i_o).max())

    @pytest.mark.parametrize("sample_hz", [None, 2500.0])
    def test_trig_free_droop_law_matches_polar_oracle(self, sample_hz, rng):
        # The droop rows of A y + N(y) against droop_rhs in polar form
        # (r, theta = atan2) at states whose droop |v| spans 1e-9 v* to 2 v*
        # at every angle, and at v = 0.  Live, the capacitor loop at the
        # droop terminal is solved too; sampled, the law sees a held current.
        sc = parse_scenario_dict(mixed_live_grid_dict())
        sim = Simulation(sc, replace(sc.sim, controller_sample_hz=sample_hz))
        mem, sp = sim.members[0], sim._stepped
        (k,) = mem.droop_pos
        v_star = mem.params[k].v_star
        assert (sp.cap is not None) == (sample_hz is None)
        mags = np.concatenate([[0.0], v_star * np.logspace(-9, np.log10(2.0), 24)])
        for mag in mags:
            w = rng.normal(scale=5.0, size=(mem.m, 2))
            y = sim.y[0] + (w[:, 0] + 1j * w[:, 1])
            y[k] = mag * np.exp(1j * rng.uniform(-math.pi, math.pi))
            held = None
            if sample_hz is not None:
                held = rng.normal(size=mem.ns) + 1j * rng.normal(size=mem.ns)
                sim._hold(held[None])
            want = oracle_derivative(mem, y, held)[0][k]
            got = (sp.a[0] @ y + sim._nonlinear(y, sp))[k]
            assert abs(got - want) <= 1e-12 * abs(want), (mag, got, want)

    @staticmethod
    def dop853(sc, t_end):
        """The run and scipy's DOP853 at rtol 1e-12 on the same A y + N(y),
        as complex states at every step."""
        integrate = pytest.importorskip("scipy.integrate")
        sim = Simulation(sc, replace(sc.sim, t_end=t_end))
        sp = sim._stepped
        states = [sim.y[0].copy()]
        for _ in range(int(round(t_end / sim.config.dt))):
            sim.step()
            states.append(sim.y[0].copy())
        t = sim.config.dt * np.arange(len(states))
        sol = integrate.solve_ivp(lambda _, yv: sp.a[0] @ yv + sim._nonlinear(yv, sp),
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
        # member 0's load step restacks the batch at step 300.  Every step's
        # draw equals one scale * standard_normal(2 n) call per step on a
        # generator seeded as the member's, after its black-start angles.
        from dvocsim.sim import NOISE_BLOCK, _Member
        sim_cfg = {"dt_s": 1e-4, "t_end_s": 0.06, "network_model": "quasistatic",
                   "record_decimation": 10, "noise_amplitude": 1e-3}
        step = [{"t_s": 0.03, "type": "load_step", "node": "bus", "g_siemens": 0.3}]
        members = [pu_scenario(initial={"mode": "blackstart"}, events=step,
                               sim=dict(sim_cfg, noise_seed=5)),
                   pu_scenario(sim=dict(sim_cfg, noise_seed=6))]
        sim = Simulation(members)
        n_steps = int(round(sim.config.t_end / sim.config.dt))
        assert n_steps > 2 * NOISE_BLOCK
        draws = [[], []]
        for mem, got in zip(sim.members, draws):
            def noise(mem=mem, draw=mem.noise, got=got):
                got.append(draw().copy())
                return got[-1]
            mem.noise = noise
        for _ in range(n_steps):
            sim.step()
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
    ])
    def test_divergence_fields_match_a_check_at_every_record(self, case, want):
        # Records are checked finite in blocks, but the diagnostic names the
        # first non-finite record as a check at every record point would
        # (the expected fields were measured that way): the existing
        # divergence case; the same with an event due at the diverging
        # record, which flushes the block before the event is applied; and a
        # batch whose member 1 diverges mid-block, every step recorded or
        # every 7th.
        if case.startswith("divergence"):
            events = [{"t_s": 0.002, "type": "load_step", "node": "bus",
                       "g_siemens": 0.3}] if case.endswith("event") else []
            sim = Simulation(pu_scenario(
                initial={"mode": "explicit", "v_alpha": 1e3, "v_beta": 0.0}, events=events,
                sim={"dt_s": 1e-3, "t_end_s": 0.05, "network_model": "quasistatic",
                     "record_decimation": 1, "noise_seed": 0}))
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
    recorded, dynamic network), with its other settings kept or overridden."""
    grid = dict(dt=1e-4, t_end=0.3, record_decimation=10, network_model="dynamic")
    return replace(sc, sim=replace(sc.sim, **grid, **sim))


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
        assert tr.events == single.events and tr.meta == single.meta
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
        # stacked matrices, and BLAS may sum a longer row in another order:
        # every member here is narrower than the batch for part of the run,
        # so each may round differently from its single run (measured: all
        # five, by at most 2.5e-14 of a column's scale).
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
                                              ("network_model", "quasistatic")])
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
