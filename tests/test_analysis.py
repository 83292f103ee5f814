import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dvocsim import analysis
from dvocsim.control import (DvocParams, PolarState, droop_approx_freq, droop_approx_vmag_ss,
                             droop_vmag_tangent_ss, dvoc_rhs_polar)
from dvocsim.network import Branch, Topology
from dvocsim.sim import Trace, run_scenario

from conftest import OMEGA0, PU_PARAMS, pu_scenario
from oracles import integrate_magnitude_ode

TABLE_PARAMS = DvocParams(eta=21.71, alpha=0.9722, kappa=math.pi / 2.0,
                          p_star=500.0, q_star=-125.0,
                          v_star=120.0 * math.sqrt(2.0), omega0=OMEGA0)


def synthetic_trace(t, v):
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=complex)
    i_o = np.zeros_like(v)
    ang = np.angle(v)
    theta = np.unwrap(ang, axis=0)
    return Trace(t=t, v=v, i_o=i_o, p=(np.conj(v) * i_o).real,
                 q=-(np.conj(v) * i_o).imag, vmag=np.abs(v), theta=theta,
                 inverter_ids=[f"inv{k+1}" for k in range(v.shape[1])],
                 events=[], dt_sample=float(t[1] - t[0]), meta={})


class TestBlackstartAnalytic:
    def test_recovers_initial_condition(self):
        for v0 in (1e-3, 0.3, 0.999, 1.5, 40.0):
            p = TABLE_PARAMS
            mags = analysis.blackstart_analytic(v0 * p.v_star / 1.0, p, [0.0])
            assert mags[0] == pytest.approx(v0 * p.v_star, rel=1e-12)

    def test_limits_to_setpoint(self):
        p = TABLE_PARAMS
        mags = analysis.blackstart_analytic(1e-3 * p.v_star, p, [5.0])
        assert mags[-1] == pytest.approx(p.v_star, rel=1e-12)

    def test_monotone_rise(self):
        p = PU_PARAMS
        t = np.linspace(0.0, 0.5, 400)
        mags = analysis.blackstart_analytic(1e-3, p, t)
        assert np.all(np.diff(mags) > 0.0)
        assert mags[-1] < p.v_star

    def test_satisfies_the_amplitude_ode(self):
        # 5-point-stencil derivative of the curve against the ODE right side.
        p = PU_PARAMS
        rate = p.eta * p.alpha
        h = 1e-6
        for v0 in (1e-3, 0.4, 1.6):
            for t0 in (0.01, 0.08, 0.2):
                ts = t0 + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
                m = analysis.blackstart_analytic(v0, p, ts)
                deriv = (-m[4] + 8.0 * m[3] - 8.0 * m[1] + m[0]) / (12.0 * h)
                rhs = rate / p.v_star**2 * (p.v_star**2 - m[2] ** 2) * m[2]
                assert abs(deriv - rhs) < 1e-8

    def test_decaying_branch_from_above(self):
        p = PU_PARAMS
        t = np.linspace(0.0, 0.15, 50)
        mags = analysis.blackstart_analytic(1.7, p, t)
        assert np.all(np.diff(mags) < 0.0)
        assert mags[-1] == pytest.approx(p.v_star, rel=1e-4)

    def test_degenerate_origin(self):
        mags = analysis.blackstart_analytic(0.0, PU_PARAMS, np.linspace(0, 1, 5))
        assert mags.shape == (5,)
        assert np.all(mags == 0.0)

    def test_rejects_start_at_setpoint(self):
        with pytest.raises(ValueError):
            analysis.blackstart_analytic(PU_PARAMS.v_star, PU_PARAMS, [0.0])

    def test_matches_brute_force_integration(self):
        # Reference-hardware gains, DOP853 oracle at rtol 1e-13.
        p = TABLE_PARAMS
        v0 = 1e-3 * p.v_star
        times = np.linspace(0.0, 0.45, 200)
        oracle = integrate_magnitude_ode(v0, p, times)
        mags = analysis.blackstart_analytic(v0, p, times)
        rel = np.abs(mags[1:] - oracle[1:]) / oracle[1:]
        assert rel.max() < 1e-6


class TestBlackstartCompare:
    def test_unloaded_single_inverter_tracks_closed_form(self):
        # kappa = pi/2 and q* = 0: the open-circuit amplitude dynamics are
        # exactly the scalar ODE, so only integrator error remains.
        sc = pu_scenario(load_g=0.0, branch_r=1.0, branch_l=0.0,
                         initial={"mode": "blackstart"},
                         sim={"dt_s": 2e-5, "t_end_s": 0.4,
                              "network_model": "quasistatic",
                              "record_decimation": 10, "noise_seed": 2})
        tr = run_scenario(sc)
        cmp = analysis.blackstart_compare(tr, PU_PARAMS)
        assert cmp.defined
        assert cmp.max_rel_dev < 5e-3

    def test_no_rise_interval_flagged(self):
        sc = pu_scenario(initial={"mode": "nominal", "angle_rad": 0.0},
                         sim={"dt_s": 2e-5, "t_end_s": 0.02,
                              "network_model": "quasistatic",
                              "record_decimation": 10, "noise_seed": 0})
        tr = run_scenario(sc)
        cmp = analysis.blackstart_compare(tr, PU_PARAMS)
        assert not cmp.defined
        assert math.isnan(cmp.max_rel_dev)


class TestEstimateFrequency:
    def test_pure_tone_recovered(self):
        t = np.arange(0.0, 0.1, 1e-4)
        v = np.exp(1j * OMEGA0 * t)[:, None]
        tr = synthetic_trace(t, v)
        got = analysis.estimate_frequency(tr)
        assert got[0] == pytest.approx(OMEGA0, rel=1e-6)

    def test_chirp_error_scales_with_window_squared(self):
        a, big_omega = 5.0, 2.0 * math.pi * 5.0
        t = np.arange(0.0, 0.1001, 1e-4)
        theta = OMEGA0 * t - a / big_omega * np.cos(big_omega * t)
        v = np.exp(1j * theta)[:, None]
        tr = synthetic_trace(t, v)
        tm = 0.05
        inst = OMEGA0 + a * math.sin(big_omega * tm)
        errs = []
        for w in (0.04, 0.02):
            got = analysis.estimate_frequency(tr, (tm - w / 2, tm + w / 2))[0]
            errs.append(abs(got - inst))
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_low_amplitude_rejected(self):
        t = np.arange(0.0, 0.01, 1e-4)
        v = np.exp(1j * OMEGA0 * t)[:, None]
        v[30] *= 1e-9
        tr = synthetic_trace(t, v)
        with pytest.raises(ValueError):
            analysis.estimate_frequency(tr, min_amplitude=1e-6)


class TestSyncTime:
    def two_trace(self, offset_fn):
        t = np.arange(0.0, 0.2, 1e-4)
        v1 = np.exp(1j * OMEGA0 * t)
        v2 = v1 * np.exp(1j * offset_fn(t))
        return synthetic_trace(t, np.column_stack([v1, v2]))

    def test_identical_states_sync_at_zero(self):
        tr = self.two_trace(lambda t: np.zeros_like(t))
        assert analysis.sync_time(tr, v_ref=1.0, omega0=OMEGA0, event_time=0.0) == 0.0

    def test_exponential_pull_in(self):
        tr = self.two_trace(lambda t: 0.5 * np.exp(-t / 0.02))
        st = analysis.sync_time(tr, threshold=0.02, v_ref=1.0, omega0=OMEGA0,
                                event_time=0.0)
        # |v1 - v2| ~ |offset|; 0.5 exp(-t/0.02) < 0.02 after ~64 ms
        assert st == pytest.approx(0.0644, abs=0.002)

    def test_never_synchronizing_flagged(self):
        tr = self.two_trace(lambda t: 0.5 * np.ones_like(t))
        assert analysis.sync_time(tr, v_ref=1.0, omega0=OMEGA0, event_time=0.0) is None

    def test_needs_two_inverters(self):
        t = np.arange(0.0, 0.01, 1e-4)
        tr = synthetic_trace(t, np.exp(1j * OMEGA0 * t)[:, None])
        with pytest.raises(ValueError):
            analysis.sync_time(tr)


class TestSteadyWindow:
    def test_settled_trace_detected(self):
        t = np.arange(0.0, 0.2, 1e-4)
        tr = synthetic_trace(t, 1.3 * np.exp(1j * OMEGA0 * t)[:, None])
        _, _, settled = analysis.steady_window(tr, OMEGA0)
        assert settled

    def test_drifting_trace_flagged(self):
        t = np.arange(0.0, 0.2, 1e-4)
        mag = 1.0 + 0.05 * t / t[-1]
        tr = synthetic_trace(t, (mag * np.exp(1j * OMEGA0 * t))[:, None])
        _, _, settled = analysis.steady_window(tr, OMEGA0)
        assert not settled


class TestStationaryMagnitude:
    def test_matches_quadratic_oracle(self):
        # kappa = pi/2 stationarity is quadratic in u = r^2:
        # (alpha/v*^2) u^2 - (q*/v*^2 + alpha) u + q = 0.
        p = PU_PARAMS
        for q in np.linspace(-0.3, 0.2, 11):
            a = p.alpha / p.v_star**2
            b = -(p.q_star / p.v_star**2 + p.alpha)
            c = q
            disc = math.sqrt(b * b - 4 * a * c)
            u = (-b + disc) / (2 * a)  # branch containing v_star at q = q*
            expected = math.sqrt(u)
            got = analysis.stationary_magnitude(p, p.p_star, q)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_no_real_root_reads_nan(self):
        # q = 5 is past the nose: the quadratic has no real root.
        assert math.isnan(analysis.stationary_magnitude(PU_PARAMS, 0.5, 5.0))
        assert math.isnan(analysis.stationary_magnitude(PU_PARAMS, 0.5, 5.0, near=1.0))

    def test_upper_root_unless_near_picks_the_collapse_root(self):
        # u = r^2 solves u^2 - 5u + 3 = 0: the high root r = 2.074 and the
        # collapse root r = 0.835.  Without ``near`` the high root; with
        # ``near`` close to the collapse root, that one.
        p = DvocParams(eta=10.0, alpha=1.0, kappa=math.pi / 2.0, p_star=0.5,
                       q_star=4.0, v_star=1.0, omega0=OMEGA0)
        r = analysis.stationary_magnitude(p, p.p_star, 3.0)
        assert r == pytest.approx(math.sqrt((5.0 + math.sqrt(13.0)) / 2.0), rel=1e-14)
        assert r == pytest.approx(2.074, abs=5e-4)
        r = analysis.stationary_magnitude(p, p.p_star, 3.0, near=0.8)
        assert r == pytest.approx(0.834999618124467, rel=1e-14)

    def test_larger_positive_root_when_b_is_negative(self):
        # kappa = pi/2 and q* = -2 alpha v*^2 give b = alpha + q*/v*^2 < 0,
        # so s/2a is the negative root.  At q = q* the quadratic is
        # u^2 + u - 2 = 0: the stationary amplitude is v* (u = 1, the root
        # 2c/s), not s/2a = -2.  With c > 0 both roots are negative: NaN.
        p = DvocParams(eta=10.0, alpha=1.0, kappa=math.pi / 2.0, p_star=0.5,
                       q_star=-2.0, v_star=1.0, omega0=OMEGA0)
        r = analysis.stationary_magnitude(p, p.p_star, p.q_star)
        assert r == pytest.approx(p.v_star, rel=1e-15)
        assert dvoc_rhs_polar(PolarState(r), p.p_star, p.q_star, p)[0] == pytest.approx(
            0.0, abs=1e-13)
        for q in (-3.0, -1.0, -0.1):
            r = analysis.stationary_magnitude(p, p.p_star, q)
            assert r > 0.0
            assert abs(dvoc_rhs_polar(PolarState(r), p.p_star, q, p)[0]) < 1e-12
        assert math.isnan(analysis.stationary_magnitude(p, p.p_star, 0.1))

    def test_an_array_call_equals_the_scalar_calls_bit_for_bit(self):
        # Elementwise over p, q and near, NaN where a point has no root;
        # a scalar call returns a float.
        rng = np.random.default_rng(5)
        for kappa in (0.0, 1.0, math.pi / 2.0, math.pi):
            params = replace(PU_PARAMS, kappa=kappa, q_star=0.3)
            p, q = rng.uniform(-0.5, 1.5, 400), rng.uniform(-0.5, 1.5, 400)
            near = rng.uniform(0.0, 2.0, 400)
            for nr in (None, near):
                got = analysis.stationary_magnitude(params, p, q, nr)
                want = [analysis.stationary_magnitude(params, float(p[k]), float(q[k]),
                                                      None if nr is None else float(nr[k]))
                        for k in range(len(p))]
                assert all(isinstance(w, float) for w in want)
                assert got.shape == p.shape
                assert np.array_equal(got, want, equal_nan=True)
                assert 0 < np.isnan(got).sum() < len(p)

    def test_nose_of_a_dense_scan_of_the_polar_law(self):
        # droop-ref at q* = 1, kappa = pi/2, p = p*: d|v|/dt of the polar law
        # is affine in q, so each r has one q that makes it vanish, and the
        # nose is the largest such q.  The scan refines around the coarse
        # maximum; past the nose the closed form reads NaN in all three
        # overlays, just below it every exact ordinate is finite.
        from dvocsim.scenario import builtin_scenario
        params = replace(builtin_scenario("droop-ref").inverters[0].params, q_star=1.0)

        def q_zero(r):
            f0, f1 = (dvoc_rhs_polar(PolarState(r), params.p_star, q, params)[0]
                      for q in (0.0, 1.0))
            return f0 / (f0 - f1)

        vs = params.v_star
        grid = np.linspace(0.01 * vs, 2.0 * vs, 2001)
        k = int(np.argmax([q_zero(r) for r in grid]))
        fine = np.linspace(grid[k - 1], grid[k + 1], 2001)
        q_nose = max(q_zero(r) for r in fine)
        assert q_nose == pytest.approx(1.0002, abs=5e-5)
        below, past = q_nose - 1e-9, q_nose + 1e-9
        assert math.isfinite(analysis.stationary_magnitude(params, params.p_star, below))
        assert math.isnan(analysis.stationary_magnitude(params, params.p_star, past))
        exact, linear, coarse = analysis.droop_sweep_closed_form(params, [below, past], "q")
        assert math.isfinite(exact[0]) and math.isfinite(coarse[0])
        assert np.isnan([exact[1], linear[1], coarse[1]]).all()

    def test_matches_a_dense_scan_of_the_polar_law(self):
        """For any kappa, the returned r zeroes d|v|/dt of ``dvoc_rhs_polar``,
        and the law keeps one sign above it up to R; it reads NaN exactly
        where a scan of (0, R] sees no sign change.  R = 4 v* lies past the
        upper root: with |p*|, |q*|, |p|, |q| <= 3 alpha v*^2 every root has
        u = r^2 <= |b/a| + sqrt(|c/a|) < 8 v*^2.  The scan is geometric from
        1e-150 v* (a collapse root near 0 when c is tiny), then uniform.  A
        pair of roots closer than one scan cell shows as |d|v|/dt| within
        1e-3 of its terms at a scan point, where the scan cannot see the
        root."""
        hyp = pytest.importorskip("hypothesis")
        st = hyp.strategies
        unit = st.floats(-3.0, 3.0)

        def rate(params, p, q, r):
            """d|v|/dt and the sum of its terms' magnitudes."""
            vs2 = params.v_star**2
            scale = params.eta * r * (abs(params.p_star) / vs2 + abs(p) / r**2
                                      + abs(params.q_star) / vs2 + abs(q) / r**2
                                      + params.alpha * (1.0 + r**2 / vs2))
            return dvoc_rhs_polar(PolarState(r), p, q, params)[0], scale

        @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @hyp.given(st.floats(0.1, 100.0), st.floats(0.01, 10.0), st.floats(0.0, math.pi),
                   st.floats(0.1, 1000.0), unit, unit, unit, unit)
        def check(eta, alpha, kappa, v_star, p_star, q_star, p, q):
            power = alpha * v_star**2
            params = DvocParams(eta=eta, alpha=alpha, kappa=kappa, p_star=p_star * power,
                                q_star=q_star * power, v_star=v_star, omega0=OMEGA0)
            p, q = p * power, q * power
            top = 4.0 * v_star
            grid = np.concatenate([np.geomspace(1e-150 * v_star, top / 2000, 300,
                                                endpoint=False),
                                   np.linspace(top / 2000, top, 2000)])
            f, scale = np.array([rate(params, p, q, r) for r in grid]).T
            assert f[-1] < 0.0  # the cubic regulation term rules at R
            crossed = bool(np.any(f == 0.0) or np.any(np.sign(f[:-1]) != np.sign(f[1:])))
            r = analysis.stationary_magnitude(params, p, q)
            if math.isnan(r):
                assert not crossed
                return
            assert crossed or np.min(np.abs(f) / scale) < 1e-3
            assert 0.0 < r <= top
            f_r, scale_r = rate(params, p, q, r)
            assert abs(f_r) <= 1e-13 * scale_r
            above = f[grid > r + 1e-6 * v_star]
            assert np.all(above > 0.0) or np.all(above < 0.0)

        check()


class TestDroopSweepClosedForm:
    def test_passes_through_setpoints(self):
        exact_p = analysis.droop_sweep_closed_form(
            PU_PARAMS, [0.3, PU_PARAMS.p_star, 0.7], "p")[0]
        k = 1
        assert exact_p[k] == pytest.approx(OMEGA0, rel=1e-12)
        exact_q = analysis.droop_sweep_closed_form(
            PU_PARAMS, [-0.2, PU_PARAMS.q_star, 0.2], "q")[0]
        assert exact_q[1] == pytest.approx(PU_PARAMS.v_star, rel=1e-12)

    def test_expected_monotonicity(self):
        exact_p = analysis.droop_sweep_closed_form(PU_PARAMS,
                                                   np.linspace(0.3, 0.7, 9), "p")[0]
        assert np.all(np.diff(exact_p) < 0.0)  # omega falls with p
        exact_q = analysis.droop_sweep_closed_form(PU_PARAMS,
                                                   np.linspace(-0.2, 0.2, 9), "q")[0]
        assert np.all(np.diff(exact_q) < 0.0)  # |v| falls with q

    def test_frequency_line_exact_at_nominal_reactive(self):
        # With q = q* the stationary magnitude is exactly v_star, so the
        # frequency curve coincides with the linear droop form.
        grid = np.linspace(0.45, 0.55, 11)
        exact = analysis.droop_sweep_closed_form(PU_PARAMS, grid, "p")[0]
        lin = np.array([droop_approx_freq(p, PU_PARAMS) for p in grid])
        npt.assert_allclose(exact, lin, rtol=1e-12)

    def test_tangent_within_one_percent_for_small_mismatch(self):
        grid = np.linspace(-0.05, 0.05, 21)
        exact, linear, _ = analysis.droop_sweep_closed_form(PU_PARAMS, grid, "q")
        dev = np.abs(exact - linear) / PU_PARAMS.v_star
        assert dev.max() < 0.01

    def test_tangent_error_quadratic_bound(self):
        # |exact - tangent| / v* < 3 (dq / (alpha v*^2))^2 over the range.
        p = PU_PARAMS
        for dq in np.linspace(-0.08, 0.08, 17):
            if dq == 0.0:
                continue
            q = p.q_star + dq
            exact = analysis.stationary_magnitude(p, p.p_star, q)
            tangent = droop_vmag_tangent_ss(q, p)
            delta = dq / (p.alpha * p.v_star**2)
            assert abs(exact - tangent) / p.v_star < 3.0 * delta**2

    def test_coarse_form_error_is_first_order(self):
        # The droop-coefficient form overshoots the exact curve by about
        # dq / (2 alpha v*), i.e. linearly in the mismatch.
        p = PU_PARAMS
        for dq in (-0.05, -0.02, 0.02, 0.05):
            q = p.q_star + dq
            exact = analysis.stationary_magnitude(p, p.p_star, q)
            coarse = droop_approx_vmag_ss(q, p)
            expected_gap = abs(dq) / (2.0 * p.alpha * p.v_star)
            assert abs(coarse - exact) == pytest.approx(expected_gap, rel=0.25)

    @pytest.mark.parametrize("axis, grid", [("p", [0.7, math.nan, 0.3, 0.5, 0.3]),
                                            ("q", [0.05, 10.0, -0.2, math.nan, 0.0, 0.05])])
    def test_overlays_match_the_curves_point_by_point(self, axis, grid):
        # One call over an unsorted grid that repeats a point equals one
        # call per point, in the caller's order, with or without a root to
        # stay near.  A NaN
        # abscissa, or one with no stationary amplitude (q = 10: the
        # quadratic has no real root), reads NaN in all three and leaves
        # the others as they are.
        missing = np.isnan(grid) | (np.array(grid) == 10.0)
        for near in (None, 0.5 * PU_PARAMS.v_star):
            got = np.array(analysis.droop_sweep_closed_form(PU_PARAMS, grid, axis, near))
            each = [analysis.droop_sweep_closed_form(PU_PARAMS, [x], axis, near) for x in grid]
            assert got.shape == (3, len(grid))
            assert np.array_equal(got, np.hstack(each), equal_nan=True)
            assert np.isnan(got[:, missing]).all()
            assert np.isfinite(got[:, ~missing]).all()

    def test_without_a_tangent_only_the_linear_curve_is_nan(self):
        # droop-ref at q* = 1 > alpha v*^2: the tangent is undefined, the
        # exact and coarse curves are not; a point with no stationary
        # amplitude (past the nose, q = 1.05) reads NaN in all three.
        from dvocsim.scenario import builtin_scenario
        params = replace(builtin_scenario("droop-ref").inverters[0].params, q_star=1.0)
        grid = [0.9, 0.95, 1.0]
        exact, linear, coarse = analysis.droop_sweep_closed_form(params, grid, "q")
        assert np.isnan(linear).all()
        assert exact.tolist() == [
            analysis.stationary_magnitude(params, params.p_star, q) for q in grid]
        npt.assert_allclose(exact, [1.1556, 1.1142, 1.0142], atol=5e-5)
        npt.assert_array_equal(coarse, droop_approx_vmag_ss(np.array(grid), params))
        past = analysis.droop_sweep_closed_form(params, [1.0, 1.05], "q")
        assert past[0][0] == exact[2]
        assert np.isnan([past[0][1], past[1][1], past[2][1]]).all()


class TestDroopSweepSimulated:
    def test_matches_closed_form(self):
        template = pu_scenario()
        points = analysis.droop_sweep_simulated(template, "p", [0.45, 0.5, 0.55])
        assert all(pt.settled for pt in points)
        for pt in points:
            exact = analysis.droop_sweep_closed_form(PU_PARAMS, [pt.p], "p")[0]
            assert pt.omega == pytest.approx(exact[0], abs=5e-3 * OMEGA0 / 100.0)
        # load matched to the set-point lands on the nominal frequency
        mid = points[1]
        assert abs(mid.omega - OMEGA0) / (2 * math.pi) < 1e-3

    def test_reactive_actuators_cover_both_signs(self):
        template = pu_scenario()
        points = analysis.droop_sweep_simulated(template, "q", [-0.04, 0.04])
        qs = [pt.q for pt in points]
        assert qs[0] < -0.02 and qs[1] > 0.02
        for pt in points:
            exact = analysis.droop_sweep_closed_form(PU_PARAMS, [pt.q], "q")[0]
            assert pt.vmag == pytest.approx(exact[0], rel=5e-3)

    def test_non_settling_point_flagged_and_excluded(self):
        template = pu_scenario(initial={"mode": "blackstart"},
                               sim={"dt_s": 2e-5, "t_end_s": 0.02,
                                    "network_model": "quasistatic",
                                    "record_decimation": 5, "noise_seed": 3})
        (point,) = analysis.droop_sweep_simulated(template, "p", [0.5])
        assert not point.settled
        assert point.target == 0.5
        assert np.isnan([point.p, point.q, point.vmag, point.omega]).all()


class TestConsistency:
    def symmetric_topo(self, g):
        return Topology(
            inverter_nodes=("n1", "n2"),
            branches=(Branch("b1", "n1", "bus", 0.05, 1e-4),
                      Branch("b2", "n2", "bus", 0.05, 1e-4)),
            loads={"bus": g})

    def test_zero_setpoints_zero_load(self):
        topo = Topology(inverter_nodes=("n1",),
                        branches=(Branch("b1", "n1", "bus", 1.0, 0.0),),
                        loads={"bus": 0.0})
        # amplitude fixed, open network: inject nothing.  One inverter
        # leaves no unknown angle: Gauss-Newton stops after its first step.
        rep = analysis.check_setpoint_consistency(topo, [(0.0, 0.0, 1.0)], OMEGA0)
        assert rep.status == "consistent"
        assert rep.residual_norm < 1e-12
        assert rep.residual_rel < 1e-12
        assert rep.angles.tolist() == [0.0]
        assert rep.iterations == 1

    def test_forward_roundtrip_is_consistent(self):
        topo = self.symmetric_topo(0.4)
        v_stars = [1.0, 1.0]
        p, q = analysis.forward_power_flow(topo, OMEGA0, v_stars, [0.0, 0.0])
        rep = analysis.check_setpoint_consistency(
            topo, list(zip(p, q, v_stars)), OMEGA0)
        assert rep.status == "consistent"
        assert rep.residual_rel < 1e-9
        npt.assert_allclose(rep.angles, [0.0, 0.0], atol=1e-9)

    def test_asymmetric_roundtrip(self):
        topo = self.symmetric_topo(0.6)
        v_stars = [1.0, 1.1]
        angles = [0.0, 0.07]
        p, q = analysis.forward_power_flow(topo, OMEGA0, v_stars, angles)
        rep = analysis.check_setpoint_consistency(
            topo, list(zip(p, q, v_stars)), OMEGA0)
        assert rep.status == "consistent"
        assert rep.residual_rel < 1e-9
        npt.assert_allclose(rep.angles, angles, atol=1e-8)

    def test_surplus_generation_inconsistent(self):
        # Both inverters demand 0.5 pu into a 0.5 pu load: total set-point
        # generation exceeds what any angle configuration can absorb.
        topo = self.symmetric_topo(0.5)
        rep = analysis.check_setpoint_consistency(
            topo, [(0.5, 0.0, 1.0), (0.5, 0.0, 1.0)], OMEGA0)
        assert rep.status == "inconsistent"
        assert rep.residual_rel > 1e-3
