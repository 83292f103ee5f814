import cmath
import math

import numpy as np
import numpy.testing as npt
import pytest

from dvocsim.network import (Branch, ConnectBranch, DisconnectBranch, DynamicNetwork,
                             LoadStep, SetPointUpdate, Topology, TopologyError,
                             apply_event, build_admittance_complex, reduced_admittance)

from conftest import OMEGA0
from oracles import (branch_rates_rhs, build_admittance, dynamic_rhs, measure_power,
                     solve_currents_quasistatic, source_branch_currents)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def single_branch_topo(r, l, g_load=None, cap=0.0):
    loads = {"bus": g_load} if g_load is not None else {}
    caps = {"s": cap} if cap else {}
    return Topology(inverter_nodes=("s",),
                    branches=(Branch("b1", "s", "bus", r, l),),
                    loads=loads, shunt_caps=caps)


class TestAdmittance:
    def test_pure_conductance_offdiagonal_block(self):
        y = build_admittance(single_branch_topo(2.0, 0.0), OMEGA0)
        npt.assert_allclose(y[0:2, 2:4], -0.5 * np.eye(2), atol=1e-15)

    def test_pure_inductance_block_lags_quarter_turn(self):
        # Branch admittance 1/(j omega L) with omega L = 1 maps v to J^-1 v.
        omega = OMEGA0
        topo = single_branch_topo(0.0, 1.0 / omega)
        y = build_admittance(topo, omega)
        npt.assert_allclose(y[0:2, 0:2], np.linalg.inv(J), atol=1e-12)
        npt.assert_allclose(y[0:2, 2:4], -np.linalg.inv(J), atol=1e-12)

    def test_filter_inductance_plus_line_vs_complex_oracle(self):
        # Hand phasor arithmetic for a 1 Ohm + 0.2 mH branch plus shunt cap.
        r, l, c = 1.0, 0.2e-3, 24e-6
        topo = single_branch_topo(r, l, g_load=0.02, cap=c)
        yc = build_admittance_complex(topo, OMEGA0)
        y_branch = 1.0 / (r + 1j * OMEGA0 * l)
        assert yc[0, 0] == pytest.approx(y_branch + 1j * OMEGA0 * c, rel=1e-15)
        assert yc[0, 1] == pytest.approx(-y_branch, rel=1e-15)
        assert yc[1, 1] == pytest.approx(y_branch + 0.02, rel=1e-15)
        # Block expansion carries the same numbers.
        blocks = build_admittance(topo, OMEGA0)
        npt.assert_allclose(blocks[0:2, 0:2],
                            [[y_branch.real, -(y_branch.imag + OMEGA0 * c)],
                             [y_branch.imag + OMEGA0 * c, y_branch.real]],
                            rtol=1e-14)

    def test_disconnected_branch_not_assembled(self):
        topo = Topology(inverter_nodes=("s",),
                        branches=(Branch("b1", "s", "bus", 2.0, 0.0, connected=False),),
                        loads={"bus": 0.5})
        yc = build_admittance_complex(topo, OMEGA0)
        assert yc[0, 1] == 0.0
        assert yc[0, 0] == 0.0


class TestQuasistaticSolve:
    def test_voltage_divider(self):
        topo = single_branch_topo(2.0, 0.0, g_load=0.5)
        i = solve_currents_quasistatic(topo, OMEGA0, [[4.0, 0.0]])
        npt.assert_allclose(i, [[1.0, 0.0]], atol=1e-14)

    def test_symmetric_sources_split_equally(self):
        topo = Topology(
            inverter_nodes=("s1", "s2"),
            branches=(Branch("b1", "s1", "bus", 0.3, 1e-3),
                      Branch("b2", "s2", "bus", 0.3, 1e-3)),
            loads={"bus": 0.7})
        v = [[2.0, 0.5], [2.0, 0.5]]
        i = solve_currents_quasistatic(topo, OMEGA0, v)
        npt.assert_allclose(i[0], i[1], rtol=1e-14)
        # Permuting the two identical inverters permutes the currents.
        topo_p = Topology(
            inverter_nodes=("s2", "s1"),
            branches=topo.branches, loads=topo.loads)
        i_p = solve_currents_quasistatic(topo_p, OMEGA0, [[1.0, 0.2], [2.0, 0.5]])
        i_o = solve_currents_quasistatic(topo, OMEGA0, [[2.0, 0.5], [1.0, 0.2]])
        npt.assert_allclose(i_p[0], i_o[1], rtol=1e-14)
        npt.assert_allclose(i_p[1], i_o[0], rtol=1e-14)

    def test_inductive_branch_vs_complex_oracle(self):
        r, l, g = 0.5, 2e-3, 0.25
        topo = single_branch_topo(r, l, g_load=g)
        v = np.array([1.0, -0.5])
        i = solve_currents_quasistatic(topo, OMEGA0, [v])
        # independent phasor computation
        z = r + 1j * OMEGA0 * l + 1.0 / g
        ic = (v[0] + 1j * v[1]) / z
        npt.assert_allclose(i[0], [ic.real, ic.imag], rtol=1e-12)

    def test_cap_current_included_in_source_current(self):
        c = 24e-6
        topo = single_branch_topo(1.0, 0.0, g_load=0.5, cap=c)
        v = np.array([10.0, 0.0])
        i = solve_currents_quasistatic(topo, OMEGA0, [v])
        z = 1.0 + 1.0 / 0.5
        ic = (10.0 + 0.0j) / z + 1j * OMEGA0 * c * 10.0
        npt.assert_allclose(i[0], [ic.real, ic.imag], rtol=1e-12)

    def test_power_balance(self, rng):
        # Total injected active power = load dissipation + branch losses.
        for _ in range(20):
            g1, g2 = rng.uniform(0.05, 1.0, size=2)
            r1, r2, r3 = rng.uniform(0.05, 2.0, size=3)
            l1, l2, l3 = rng.uniform(0.0, 5e-3, size=3)
            topo = Topology(
                inverter_nodes=("s1", "s2"),
                branches=(Branch("b1", "s1", "busA", r1, l1),
                          Branch("b2", "s2", "busA", r2, l2),
                          Branch("b3", "busA", "busB", r3, l3)),
                loads={"busA": g1, "busB": g2},
                shunt_caps={"s1": rng.uniform(0, 5e-5)})
            vs = rng.uniform(-2, 2, size=(2, 2))
            i = solve_currents_quasistatic(topo, OMEGA0, vs)
            p_in = sum(measure_power(vs[k], i[k])[0] for k in range(2))
            # independent load-voltage solve
            yc = build_admittance_complex(topo, OMEGA0)
            vsrc = vs[:, 0] + 1j * vs[:, 1]
            vl = np.linalg.solve(yc[2:, 2:], -yc[2:, :2] @ vsrc)
            vnode = {"s1": vsrc[0], "s2": vsrc[1], "busA": vl[0], "busB": vl[1]}
            p_load = g1 * abs(vnode["busA"])**2 + g2 * abs(vnode["busB"])**2
            p_loss = 0.0
            for b in topo.branches:
                zb = b.r + 1j * OMEGA0 * b.l
                ib = (vnode[b.from_node] - vnode[b.to_node]) / zb
                p_loss += b.r * abs(ib)**2
            assert p_in == pytest.approx(p_load + p_loss, rel=1e-9)

    def test_singular_reduction_rejected(self):
        # A floating interior island (two nodes joined only to each other)
        # makes the interior block singular.
        topo = Topology(
            inverter_nodes=("s",),
            branches=(Branch("b1", "s", "bus", 1.0, 0.0),
                      Branch("b2", "x1", "x2", 1.0, 0.0)),
            loads={"bus": 0.5})
        with pytest.raises(TopologyError):
            reduced_admittance(topo, OMEGA0)


class TestMeasurePower:
    def test_in_phase(self):
        assert measure_power([1.0, 0.0], [2.0, 0.0]) == (2.0, 0.0)

    def test_quadrature(self):
        assert measure_power([1.0, 0.0], [0.0, 1.0]) == (0.0, -1.0)

    def test_origin(self):
        assert measure_power([0.0, 0.0], [0.0, 0.0]) == (0.0, 0.0)

    def test_capacitor_absorbs_negative_q(self):
        # i = omega C J v (leading current) measures q = -omega C |v|^2.
        v = np.array([3.0, 1.0])
        c = 1e-4
        i = OMEGA0 * c * (J @ v)
        p, q = measure_power(v, i)
        assert p == pytest.approx(0.0, abs=1e-12)
        assert q == pytest.approx(-OMEGA0 * c * (v @ v), rel=1e-12)


def rk4(f, y, h):
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


class TestDynamicModel:
    def test_zero_in_zero_out(self):
        topo = single_branch_topo(0.5, 1e-3, g_load=0.5)
        d = dynamic_rhs(topo, [[0.0, 0.0]], [[0.0, 0.0]])
        npt.assert_allclose(d, [[0.0, 0.0]], atol=0)

    def test_first_order_step_response(self):
        # v_from = (1, 0) held constant into a short: i(t) = 1 - exp(-t).
        topo = single_branch_topo(1.0, 1.0, g_load=1e9)
        net = DynamicNetwork(topo)
        i = np.zeros(1, dtype=complex)
        h = 1e-3
        v = np.array([1.0 + 0.0j])
        for _ in range(1000):
            i = rk4(lambda x: branch_rates_rhs(net, x, v), i, h)
        assert i[0].real == pytest.approx(1.0 - math.exp(-1.0), rel=1e-7)
        assert abs(i[0].imag) < 1e-12

    def test_pure_resistive_branch_folded(self):
        # R-only branch (L = 0) is handled algebraically, matching the
        # quasi-static solution exactly at all times.
        topo = single_branch_topo(2.0, 0.0, g_load=0.5)
        net = DynamicNetwork(topo)
        assert net.n_branches == 0
        v = np.array([4.0 + 0.0j])
        io = source_branch_currents(net, np.zeros(0, dtype=complex), v)
        assert io[0] == pytest.approx(1.0 + 0.0j, rel=1e-14)

    def test_frequency_response_matches_phasor_admittance(self):
        # Two load buses, a pure-R tie between them, a pure-R branch straight
        # from a source and a load at a source node, so every KCL piece
        # enters both matrices.  Driven at omega, the dynamic model's source
        # currents are (J_v + J_i (j omega I - B_i)^-1 B_v) v_s, which must
        # be the phasor admittance reduced to the sources.
        topo = Topology(
            inverter_nodes=("s1", "s2"),
            branches=(Branch("b1", "s1", "busA", 0.1, 6e-3),
                      Branch("b2", "s2", "busB", 0.15, 7.5e-3),
                      Branch("tie", "busA", "busB", 0.4, 0.0),
                      Branch("rs", "s1", "busB", 0.3, 0.0),
                      Branch("b3", "busB", "busA", 0.2, 2e-3)),
            loads={"s1": 0.2, "busA": 0.02, "busB": 0.03})
        net = DynamicNetwork(topo)
        assert net.branch_ids == ["b1", "b2", "b3"]
        j_v, j_i = net.injection[:, :2], net.injection[:, 2:]
        b_v, b_i = net.branch_rates[:, :2], net.branch_rates[:, 2:]
        for omega in (0.0, 50.0, OMEGA0, 5e3):
            response = j_v + j_i @ np.linalg.solve(1j * omega * np.eye(3) - b_i, b_v)
            npt.assert_allclose(response, reduced_admittance(topo, omega), rtol=1e-12)

    def test_periodic_steady_state_matches_quasistatic(self):
        # Sinusoidal drive: the dynamic model's settled currents must agree
        # with the phasor solution within 0.1% amplitude and 0.1 deg phase.
        c = 24e-6
        topo = single_branch_topo(0.5, 2e-3, g_load=0.25, cap=c)
        net = DynamicNetwork(topo)
        omega = OMEGA0
        vmag = 10.0
        m = reduced_admittance(topo, omega)
        i_phasor = (m @ np.array([vmag + 0.0j]))[0]

        h = 2e-6
        steps = int(round(0.05 / h))  # ~12 L/R time constants
        i = np.zeros(1, dtype=complex)
        t = 0.0
        for _ in range(steps):
            def f(x, t0=t):
                # stage times enter through the drive voltage
                return branch_rates_rhs(net, x, np.array([vmag * cmath.exp(1j * omega * t0)]))
            # RK4 with time-dependent drive
            k1 = branch_rates_rhs(net, i, np.array([vmag * cmath.exp(1j * omega * t)]))
            k2 = branch_rates_rhs(net, i + 0.5 * h * k1,
                                  np.array([vmag * cmath.exp(1j * omega * (t + 0.5 * h))]))
            k3 = branch_rates_rhs(net, i + 0.5 * h * k2,
                                  np.array([vmag * cmath.exp(1j * omega * (t + 0.5 * h))]))
            k4 = branch_rates_rhs(net, i + h * k3,
                                  np.array([vmag * cmath.exp(1j * omega * (t + h))]))
            i = i + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        v_t = np.array([vmag * cmath.exp(1j * omega * t)])
        io_dyn = source_branch_currents(net, i, v_t)[0] \
            + c * 1j * omega * v_t[0]
        io_qs = i_phasor * cmath.exp(1j * omega * t)
        assert abs(io_dyn) / abs(io_qs) == pytest.approx(1.0, abs=1e-3)
        phase_err = abs(cmath.phase(io_dyn / io_qs))
        assert phase_err < math.radians(0.1)

    def test_magnetic_energy_decays_without_sources(self, rng):
        topo = Topology(
            inverter_nodes=("s1", "s2"),
            branches=(Branch("b1", "s1", "bus", 0.2, 1e-3),
                      Branch("b2", "s2", "bus", 0.3, 2e-3)),
            loads={"bus": 0.5})
        net = DynamicNetwork(topo)
        i = rng.normal(size=2) + 1j * rng.normal(size=2)
        v0 = np.zeros(2, dtype=complex)
        h = 1e-6
        energies = [net.magnetic_energy(i)]
        for _ in range(2000):
            i = rk4(lambda x: branch_rates_rhs(net, x, v0), i, h)
            energies.append(net.magnetic_energy(i))
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-12 * energies[0])

    def test_structurally_singular_rejected(self):
        # Interior node with zero conductance and only inductive branches.
        topo = Topology(
            inverter_nodes=("s",),
            branches=(Branch("b1", "s", "mid", 0.1, 1e-3),
                      Branch("b2", "mid", "bus", 0.1, 1e-3)),
            loads={"bus": 0.5, "mid": 0.0})
        with pytest.raises(TopologyError):
            DynamicNetwork(topo)

    def test_stub_behind_open_breaker_ignored(self):
        # 'x' carries no load and only an open branch reaches it: no current
        # flows there, so both models match the network without that branch.
        b1 = Branch("b1", "s", "bus", 0.1, 1e-3)
        stub = Topology(("s",), (b1, Branch("b2", "bus", "x", 0.1, 1e-3, connected=False)),
                        loads={"bus": 0.5})
        plain = Topology(("s",), (b1,), loads={"bus": 0.5})
        npt.assert_array_equal(reduced_admittance(stub, OMEGA0),
                               reduced_admittance(plain, OMEGA0))
        net, ref = DynamicNetwork(stub), DynamicNetwork(plain)
        npt.assert_array_equal(net.branch_rates, ref.branch_rates)
        npt.assert_array_equal(net.injection, ref.injection)

    def test_shape_validation(self):
        topo = single_branch_topo(0.5, 1e-3, g_load=0.5)
        with pytest.raises(ValueError):
            dynamic_rhs(topo, [[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]])


class TestEvents:
    def topo(self):
        return Topology(
            inverter_nodes=("s1", "s2"),
            branches=(Branch("b1", "s1", "bus", 0.1, 1e-3),
                      Branch("b2", "s2", "bus", 0.1, 1e-3, connected=False)),
            loads={"bus": 0.5})

    def test_connect_toggles(self):
        t = apply_event(self.topo(), ConnectBranch("b2"))
        assert t.branch("b2").connected

    def test_disconnect_toggles(self):
        t = apply_event(self.topo(), DisconnectBranch("b1"))
        assert not t.branch("b1").connected

    def test_unknown_branch_rejected(self):
        with pytest.raises(KeyError):
            apply_event(self.topo(), ConnectBranch("nope"))

    def test_load_step_replaces_conductance(self):
        # 250 W -> 750 W at 120 Vrms: g = p / v_peak^2.
        v_pk = 120.0 * math.sqrt(2.0)
        t = apply_event(self.topo(), LoadStep("bus", 750.0 / v_pk**2))
        assert t.loads["bus"] == pytest.approx(750.0 / 28800.0, rel=1e-12)

    def test_setpoint_update_leaves_topology_unchanged(self):
        before = self.topo()
        after = apply_event(before, SetPointUpdate("inv1", p_star=500.0))
        assert after == before

    def test_unknown_action_type_rejected(self):
        with pytest.raises(TypeError):
            apply_event(self.topo(), "not-an-action")

    def test_islanding_logged_not_rejected(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="dvocsim.network"):
            t = apply_event(self.topo(), DisconnectBranch("b1"))
        assert not t.branch("b1").connected
        assert any("islanding" in rec.message for rec in caplog.records)


class TestTopologyValidation:
    def test_branch_rl_both_zero_rejected(self):
        with pytest.raises(ValueError):
            Branch("b", "a", "c", 0.0, 0.0)

    def test_negative_load_rejected(self):
        with pytest.raises(TopologyError):
            Topology(inverter_nodes=("s",), branches=(), loads={"s": -1.0})

    def test_cap_on_non_inverter_node_rejected(self):
        with pytest.raises(TopologyError):
            Topology(inverter_nodes=("s",),
                     branches=(Branch("b", "s", "bus", 1.0, 0.0),),
                     loads={}, shunt_caps={"bus": 1e-6})
