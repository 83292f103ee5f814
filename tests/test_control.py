import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from dvocsim.control import (DroopParams, DvocParams, PolarState, droop_approx_freq,
                             droop_approx_vmag_ss, droop_vmag_tangent_ss, dvoc_rhs_polar)

from conftest import OMEGA0, PU_PARAMS
from oracles import (J, current_for_power, droop_rhs, dvoc_rhs, gain_matrix, kappa_from_line,
                     magnitude_error, phase_error, rotation)


def params(**kw):
    base = dict(eta=43.43, alpha=0.9722, kappa=math.pi / 2.0, p_star=0.5,
                q_star=0.0, v_star=1.0, omega0=OMEGA0)
    base.update(kw)
    return DvocParams(**base)


class TestRotation:
    def test_zero_is_identity(self):
        npt.assert_allclose(rotation(0.0), np.eye(2), atol=1e-15)

    def test_quarter_turn_is_j(self):
        npt.assert_allclose(rotation(math.pi / 2), J, atol=1e-12)

    def test_half_turn(self):
        npt.assert_allclose(rotation(math.pi), -np.eye(2), atol=1e-12)

    def test_orthonormal_unit_determinant(self, rng):
        for kappa in rng.uniform(-10, 10, size=50):
            r = rotation(kappa)
            npt.assert_allclose(r.T @ r, np.eye(2), atol=1e-14)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)


class TestGainMatrix:
    def test_reduces_to_identity(self):
        p = params(kappa=0.0, p_star=1.0, q_star=0.0, v_star=1.0)
        npt.assert_allclose(gain_matrix(p), np.eye(2), atol=1e-15)

    def test_reference_design(self):
        p = params(p_star=0.5, q_star=0.0, v_star=1.0)
        npt.assert_allclose(gain_matrix(p), [[0.0, -0.5], [0.5, 0.0]], atol=1e-12)

    def test_zero_setpoints(self):
        p = params(p_star=0.0, q_star=0.0)
        npt.assert_allclose(gain_matrix(p), np.zeros((2, 2)), atol=0)

    def test_matches_block_form(self, rng):
        for _ in range(20):
            p = params(p_star=rng.uniform(-2, 2), q_star=rng.uniform(-2, 2),
                       v_star=rng.uniform(0.5, 3), kappa=rng.uniform(0, math.pi))
            block = np.array([[p.p_star, p.q_star], [-p.q_star, p.p_star]])
            expected = rotation(p.kappa) @ block / p.v_star**2
            npt.assert_allclose(gain_matrix(p), expected, rtol=1e-14)


class TestMagnitudeError:
    def test_zero_at_setpoint(self):
        assert magnitude_error([0.0, 1.7], 1.7) == pytest.approx(0.0, abs=1e-15)

    def test_one_at_origin(self):
        assert magnitude_error([0.0, 0.0], 3.3) == 1.0

    def test_above_setpoint(self):
        assert magnitude_error([1.0, 1.0], 1.0) == pytest.approx(-1.0)

    def test_rejects_bad_setpoint(self):
        with pytest.raises(ValueError):
            magnitude_error([1.0, 0.0], 0.0)


class TestPhaseError:
    def test_vanishes_at_consistent_point(self):
        p = params(p_star=0.7, q_star=-0.2, v_star=1.3)
        v = np.array([p.v_star, 0.0])
        i_o = np.array([p.p_star / p.v_star, -p.q_star / p.v_star])
        npt.assert_allclose(phase_error(v, i_o, p), [0.0, 0.0], atol=1e-15)

    def test_open_circuit(self):
        p = params()
        npt.assert_allclose(phase_error([1.0, 0.0], [0.0, 0.0], p), [0.0, 0.5],
                            atol=1e-12)

    def test_magnitude_mismatch_keeps_error_nonzero(self):
        # Powers at set-points but |v| != v_star: the error reduces to
        # R(kappa) (p* v - q* J v) (1/v*^2 - 1/|v|^2).
        p = params(p_star=0.4, q_star=0.3, v_star=1.0)
        v = np.array([2.0, 0.0])
        i_o = current_for_power(v, p.p_star, p.q_star)
        got = phase_error(v, i_o, p)
        factor = 1.0 / p.v_star**2 - 1.0 / 4.0
        expected = rotation(p.kappa) @ (p.p_star * v - p.q_star * (J @ v)) * factor
        npt.assert_allclose(got, expected, rtol=1e-13)
        assert np.linalg.norm(got) > 0.1


class TestCurrentForPower:
    def test_inverts_power_measurement(self, rng):
        for _ in range(50):
            v = rng.uniform(-2, 2, size=2)
            if np.linalg.norm(v) < 0.1:
                continue
            p, q = rng.uniform(-3, 3, size=2)
            i = current_for_power(v, p, q)
            assert v @ i == pytest.approx(p, rel=1e-12, abs=1e-12)
            assert v @ (J @ i) == pytest.approx(q, rel=1e-12, abs=1e-12)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            current_for_power([0.0, 0.0], 1.0, 0.0)


class TestDvocRhs:
    def test_pure_rotation_at_consistent_point(self):
        p = params(p_star=0.7, q_star=-0.1, v_star=1.2)
        v = np.array([p.v_star, 0.0])
        i_o = np.array([p.p_star / p.v_star, -p.q_star / p.v_star])
        npt.assert_allclose(dvoc_rhs(v, i_o, p), [0.0, p.omega0 * p.v_star],
                            rtol=1e-12, atol=1e-9)

    def test_origin_is_equilibrium(self):
        assert np.all(dvoc_rhs([0.0, 0.0], [0.0, 0.0], params()) == 0.0)

    def test_golden_value_term_by_term(self):
        # Independent scalar evaluation of each term with plain floats.
        eta, alpha, kappa = 43.43, 0.9722, math.pi / 2.0
        p_star, q_star, v_star = 0.5, 0.0, 1.0
        va, vb = 1.1, 0.0
        ia, ib = 0.4, 0.1
        ck, sk = math.cos(kappa), math.sin(kappa)
        # harmonic term omega0 J v
        h_a, h_b = OMEGA0 * (-vb), OMEGA0 * va
        # K v with K = (1/v*^2) R(kappa) [[p*, q*], [-q*, p*]]
        k11 = (ck * p_star - sk * (-q_star)) / v_star**2
        k12 = (ck * q_star - sk * p_star) / v_star**2
        k21 = (sk * p_star + ck * (-q_star)) / v_star**2
        k22 = (sk * q_star + ck * p_star) / v_star**2
        kv_a, kv_b = k11 * va + k12 * vb, k21 * va + k22 * vb
        # R(kappa) i_o
        ri_a, ri_b = ck * ia - sk * ib, sk * ia + ck * ib
        # amplitude correction alpha phi v
        phi = (v_star**2 - (va * va + vb * vb)) / v_star**2
        amp_a, amp_b = alpha * phi * va, alpha * phi * vb
        expected = np.array([h_a + eta * (kv_a - ri_a + amp_a),
                             h_b + eta * (kv_b - ri_b + amp_b)])
        got = dvoc_rhs([va, vb], [ia, ib], params())
        npt.assert_allclose(got, expected, rtol=1e-13)

    def test_decomposition_identity(self, rng):
        for _ in range(200):
            p = params(p_star=rng.uniform(-1, 1), q_star=rng.uniform(-1, 1),
                       v_star=rng.uniform(0.5, 2), kappa=rng.uniform(0, math.pi),
                       eta=rng.uniform(1, 60), alpha=rng.uniform(0.1, 2))
            v = rng.uniform(-2, 2, size=2)
            i_o = rng.uniform(-2, 2, size=2)
            lhs = dvoc_rhs(v, i_o, p)
            rhs = (p.omega0 * (J @ v) + p.eta * phase_error(v, i_o, p)
                   + p.eta * p.alpha * magnitude_error(v, p.v_star) * v)
            npt.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_rotation_invariance(self, rng):
        p = params(p_star=0.3, q_star=-0.4, kappa=1.1)
        for _ in range(100):
            psi = rng.uniform(-10, 10)
            v = rng.uniform(-2, 2, size=2)
            i_o = rng.uniform(-2, 2, size=2)
            r = rotation(psi)
            lhs = dvoc_rhs(r @ v, r @ i_o, p)
            rhs = r @ dvoc_rhs(v, i_o, p)
            npt.assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-10)


class TestEquilibriumCharacterization:
    def test_consistent_triples_zero_errors(self, rng):
        for _ in range(50):
            p = params(p_star=rng.uniform(-1, 1), q_star=rng.uniform(-1, 1),
                       v_star=rng.uniform(0.5, 2), kappa=rng.uniform(0, math.pi))
            ang = rng.uniform(0, 2 * math.pi)
            v = p.v_star * np.array([math.cos(ang), math.sin(ang)])
            i_o = current_for_power(v, p.p_star, p.q_star)
            assert np.linalg.norm(phase_error(v, i_o, p)) < 1e-12
            assert abs(magnitude_error(v, p.v_star)) < 1e-12

    def test_zero_errors_imply_setpoints(self, rng):
        # phase_error = 0 forces i_o = (p* v - q* J v)/v*^2; with |v| = v_star
        # the measured powers are then exactly the set-points.
        p = params(p_star=0.8, q_star=-0.3, v_star=1.4)
        ang = 0.7
        v = p.v_star * np.array([math.cos(ang), math.sin(ang)])
        i_o = (p.p_star * v - p.q_star * (J @ v)) / p.v_star**2
        assert np.linalg.norm(phase_error(v, i_o, p)) < 1e-12
        assert v @ i_o == pytest.approx(p.p_star, rel=1e-12)
        assert v @ (J @ i_o) == pytest.approx(p.q_star, rel=1e-12)

    def test_each_breakage_lights_an_error(self, rng):
        p = params(p_star=0.8, q_star=-0.3, v_star=1.4)
        v = p.v_star * np.array([1.0, 0.0])
        i_good = current_for_power(v, p.p_star, p.q_star)
        # wrong p
        assert np.linalg.norm(
            phase_error(v, current_for_power(v, p.p_star + 0.2, p.q_star), p)) > 1e-3
        # wrong q
        assert np.linalg.norm(
            phase_error(v, current_for_power(v, p.p_star, p.q_star + 0.2), p)) > 1e-3
        # wrong magnitude (same powers)
        v_bad = 1.3 * v
        i_bad = current_for_power(v_bad, p.p_star, p.q_star)
        assert (np.linalg.norm(phase_error(v_bad, i_bad, p)) > 1e-3
                or abs(magnitude_error(v_bad, p.v_star)) > 1e-3)
        assert np.linalg.norm(phase_error(v, i_good, p)) < 1e-12


class TestPolarForm:
    def test_stationary_rotation_at_setpoint(self):
        p = params(p_star=0.4, q_star=0.1, v_star=1.1, kappa=0.9)
        dmag, dth = dvoc_rhs_polar(PolarState(p.v_star, 0.3), p.p_star, p.q_star, p)
        assert dmag == pytest.approx(0.0, abs=1e-12)
        assert dth == pytest.approx(p.omega0, rel=1e-12)

    def test_frequency_droop_line(self):
        # kappa = pi/2, |v| = v*, q = q*: dtheta/dt = omega0 + eta (p* - p)/v*^2.
        p = params()
        for dp in (-0.2, 0.05, 0.3):
            _, dth = dvoc_rhs_polar(PolarState(p.v_star, 0.0), p.p_star - dp,
                                    p.q_star, p)
            assert dth == pytest.approx(OMEGA0 + p.eta / p.v_star**2 * dp, rel=1e-12)

    def test_rejects_zero_magnitude(self):
        with pytest.raises(ValueError):
            dvoc_rhs_polar(PolarState(0.0, 0.0), 0.0, 0.0, params())

    def test_matches_rectangular_law(self, rng):
        # Polar chart of the rectangular law with the current reconstructed
        # from (p, q): relative discrepancy below 1e-9.
        worst = 0.0
        for _ in range(2000):
            p = params(p_star=rng.uniform(-1, 1), q_star=rng.uniform(-1, 1),
                       v_star=rng.uniform(0.5, 2), kappa=rng.uniform(0, math.pi),
                       eta=rng.uniform(1, 60), alpha=rng.uniform(0.1, 2))
            r = rng.uniform(0.1, 2.0) * p.v_star
            th = rng.uniform(0, 2 * math.pi)
            pw, qw = rng.uniform(-2, 2, size=2)
            v = r * np.array([math.cos(th), math.sin(th)])
            i_o = current_for_power(v, pw, qw)
            vdot = dvoc_rhs(v, i_o, p)
            dmag_rect = float(v @ vdot) / r
            dth_rect = float(v[0] * vdot[1] - v[1] * vdot[0]) / r**2
            dmag, dth = dvoc_rhs_polar(PolarState(r, th), pw, qw, p)
            num = math.hypot(dmag_rect - dmag, r * (dth_rect - dth))
            den = math.hypot(dmag, r * dth)
            worst = max(worst, num / den)
        assert worst < 1e-9

    def test_kappa_half_pi_gives_inductive_pairing(self, rng):
        # kappa = pi/2: frequency couples to p, amplitude to q.
        p = params(p_star=0.4, q_star=-0.2, v_star=1.2)
        for _ in range(50):
            r = rng.uniform(0.3, 2.0)
            pw, qw = rng.uniform(-1, 1, size=2)
            dmag, dth = dvoc_rhs_polar(PolarState(r, 0.0), pw, qw, p)
            vs2 = p.v_star**2
            exp_dth = p.omega0 + p.eta * (p.p_star / vs2 - pw / r**2)
            exp_dmag = (p.eta * (p.q_star / vs2 - qw / r**2) * r
                        + p.eta * p.alpha / vs2 * (vs2 - r**2) * r)
            assert dth == pytest.approx(exp_dth, rel=1e-12)
            assert dmag == pytest.approx(exp_dmag, rel=1e-12, abs=1e-12)

    def test_kappa_zero_gives_resistive_pairing(self, rng):
        # kappa = 0 swaps the roles: amplitude couples to p, frequency to q.
        p = params(kappa=0.0, p_star=0.4, q_star=-0.2, v_star=1.2)
        for _ in range(50):
            r = rng.uniform(0.3, 2.0)
            pw, qw = rng.uniform(-1, 1, size=2)
            dmag, dth = dvoc_rhs_polar(PolarState(r, 0.0), pw, qw, p)
            vs2 = p.v_star**2
            exp_dmag = (p.eta * r * (p.p_star / vs2 - pw / r**2)
                        + p.eta * p.alpha / vs2 * (vs2 - r**2) * r)
            exp_dth = p.omega0 - p.eta * (p.q_star / vs2 - qw / r**2)
            assert dmag == pytest.approx(exp_dmag, rel=1e-12, abs=1e-12)
            assert dth == pytest.approx(exp_dth, rel=1e-12)


class TestDroopBaseline:
    def test_stationary_at_setpoints(self):
        d = DroopParams(kp=0.01, kq=0.05, omega0=OMEGA0, v_star=1.0,
                        p_star=0.5, q_star=0.0)
        dmag, dth = droop_rhs(PolarState(1.0, 0.0), 0.5, 0.0, d)
        assert dmag == 0.0
        assert dth == OMEGA0

    def test_matches_oscillator_frequency_droop(self):
        # kp = eta/v*^2 makes the linear frequency laws identical.
        p = PU_PARAMS
        d = DroopParams(kp=p.eta / p.v_star**2, kq=0.05, omega0=p.omega0,
                        v_star=p.v_star, p_star=p.p_star, q_star=p.q_star)
        for pw in (0.1, 0.5, 0.9):
            _, dth = droop_rhs(PolarState(1.0, 0.0), pw, 0.0, d)
            assert dth == pytest.approx(droop_approx_freq(pw, p), rel=1e-14)

    def test_amplitude_law_value(self):
        d = DroopParams(kp=0.01, kq=0.05, omega0=OMEGA0, v_star=1.0,
                        p_star=0.5, q_star=2.0)
        dmag, _ = droop_rhs(PolarState(1.0, 0.0), 0.5, 0.0, d)
        assert dmag == pytest.approx(0.1, rel=1e-14)


class TestDroopApproximations:
    def test_freq_at_setpoint(self):
        assert droop_approx_freq(PU_PARAMS.p_star, PU_PARAMS) == OMEGA0

    def test_freq_reference_mismatch(self):
        got = droop_approx_freq(PU_PARAMS.p_star - 0.1, PU_PARAMS)
        assert got == pytest.approx(OMEGA0 + 4.343, rel=1e-12)

    def test_freq_extrapolated_intercept(self):
        p = PU_PARAMS
        p_zero = p.p_star + p.v_star**2 * p.omega0 / p.eta
        assert droop_approx_freq(p_zero, p) == pytest.approx(0.0, abs=1e-9)

    def test_vmag_at_setpoint(self):
        assert droop_approx_vmag_ss(0.0, PU_PARAMS) == PU_PARAMS.v_star

    def test_vmag_reference_value(self):
        got = droop_approx_vmag_ss(0.1, PU_PARAMS)
        assert got == pytest.approx(1.0 - 0.1 / 0.9722, rel=1e-12)
        assert got == pytest.approx(0.8971, abs=5e-5)

    def test_vmag_stiff_regulation_limit(self):
        p = DvocParams(eta=43.43, alpha=1e6, kappa=math.pi / 2, p_star=0.5,
                       q_star=0.0, v_star=1.0, omega0=OMEGA0)
        assert droop_approx_vmag_ss(0.3, p) == pytest.approx(1.0, abs=1e-6)

    def test_tangent_has_half_the_coarse_slope(self):
        p = PU_PARAMS
        dq = 0.04
        coarse = droop_approx_vmag_ss(p.q_star + dq, p) - p.v_star
        tangent = droop_vmag_tangent_ss(p.q_star + dq, p) - p.v_star
        assert tangent == pytest.approx(coarse / 2.0, rel=1e-12)

    def test_tangent_is_nan_without_one(self):
        # alpha v*^2 <= q* leaves no tangent: NaN at every q, scalar or array.
        p = replace(PU_PARAMS, q_star=PU_PARAMS.alpha * PU_PARAMS.v_star**2)
        assert math.isnan(droop_vmag_tangent_ss(0.1, p))
        assert np.isnan(droop_vmag_tangent_ss(np.array([-0.1, 0.0, 2.0]), p)).all()
        q = np.array([-0.1, 0.0, 0.1])
        assert np.array_equal(droop_vmag_tangent_ss(q, PU_PARAMS),
                              [droop_vmag_tangent_ss(float(x), PU_PARAMS) for x in q])


class TestKappaFromLine:
    def test_inductive_limit(self):
        assert kappa_from_line(OMEGA0, 1e-3, 0.0) == pytest.approx(math.pi / 2)

    def test_resistive_limit(self):
        assert kappa_from_line(OMEGA0, 0.0, 2.0) == 0.0

    def test_equal_ratio(self):
        assert kappa_from_line(OMEGA0, 1.0 / OMEGA0, 1.0) == pytest.approx(math.pi / 4)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            kappa_from_line(OMEGA0, 0.0, 0.0)
        with pytest.raises(ValueError):
            kappa_from_line(OMEGA0, -1.0, 1.0)


class TestParamValidation:
    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError):
            params(eta=0.0)
        with pytest.raises(ValueError):
            params(alpha=-1.0)

    def test_rejects_kappa_range(self):
        with pytest.raises(ValueError):
            params(kappa=-0.1)
        with pytest.raises(ValueError):
            params(kappa=math.pi + 0.1)

    def test_rejects_bad_vstar(self):
        with pytest.raises(ValueError):
            params(v_star=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            params(p_star=math.nan)

    def test_polar_state_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            PolarState(-1.0, 0.0)
