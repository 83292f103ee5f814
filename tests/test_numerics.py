import math

import numpy as np
import pytest

from dvocsim.numerics import expm
from dvocsim.scenario import builtin_names, builtin_scenario
from dvocsim.sim import Simulation


def rel_dev(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def fused_simulations():
    """A Simulation per built-in, before and after each of its events."""
    sims = []
    for name in builtin_names():
        sim = Simulation(builtin_scenario(name))
        sims.append((name, sim._fused_a, sim._exp_h, sim._exp_half, sim.config.dt))
        while sim._pending:
            sim.step_index = sim._pending[0][0]
            sim._apply_due_events()
            sims.append((f"{name} after event", sim._fused_a, sim._exp_h,
                         sim._exp_half, sim.config.dt))
    return sims


class TestExpm:
    def test_builtin_propagators_match_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        for label, a, e, eh, h in fused_simulations():
            assert rel_dev(e, linalg.expm(h * a)) <= 1e-12, label
            assert rel_dev(eh, linalg.expm(0.5 * h * a)) <= 1e-12, label
            assert rel_dev(expm(h * a), linalg.expm(h * a)) <= 1e-12, label

    def test_half_step_squared_is_full_step(self):
        for label, _, e, eh, _ in fused_simulations():
            assert rel_dev(eh @ eh, e) <= 1e-12, label

    @pytest.mark.parametrize("scale", [0.01, 1.0, 40.0])
    def test_defective_jordan_block(self, scale):
        # exp(J) for a 4x4 Jordan block: exp(lam) times the truncated series
        # of the nilpotent part; no eigenbasis exists.
        lam = scale * complex(-3.0, 2.0)
        j = lam * np.eye(4) + scale * np.eye(4, k=1)
        n = scale * np.eye(4, k=1)
        want = np.exp(lam) * sum(np.linalg.matrix_power(n, k) / math.factorial(k)
                                 for k in range(4))
        assert rel_dev(expm(j), want) <= 1e-12
        linalg = pytest.importorskip("scipy.linalg")
        assert rel_dev(expm(j), linalg.expm(j)) <= 1e-12

    def test_degree_choice_matches_scipy_across_norms(self, rng):
        linalg = pytest.importorskip("scipy.linalg")
        base = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        base /= np.linalg.norm(base, 1)
        for norm in (1e-3, 0.1, 0.5, 1.5, 4.0, 60.0):
            assert rel_dev(expm(norm * base), linalg.expm(norm * base)) <= 1e-12, norm

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm(np.zeros((2, 3)))
