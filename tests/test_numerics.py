import math

import numpy as np
import pytest

from dvocsim.numerics import expm
from dvocsim.scenario import builtin_names, builtin_scenario
from dvocsim.sim import Simulation, _extension, _phi_chain

from oracles import etdrk4_weights


def rel_dev(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def split_simulations():
    """(label, A, exp(hA), exp(hA/2), h) per built-in, before and after each
    of its events, with the propagators read off the ETDRK4 stage matrices
    that its step of h = step_multiple dt multiplies."""
    sims = []

    def entry(label, sim):
        a = sim.model.a[0]
        m = len(a)
        wa, _, _, wy = sim._etd
        return (label, a, wy[:, :m], wa[:, :m],
                sim.config.dt * sim.config.step_multiple)

    for name in builtin_names():
        sim = Simulation(builtin_scenario(name))
        sims.append(entry(name, sim))
        while sim.members[0].pending:
            sim.step_index = sim.members[0].pending[0][0]
            sim._apply_due_events()
            sims.append(entry(f"{name} after event", sim))
    return sims


class TestExpm:
    def test_builtin_propagators_match_scipy(self):
        linalg = pytest.importorskip("scipy.linalg")
        for label, a, e, eh, h in split_simulations():
            assert rel_dev(e, linalg.expm(h * a)) <= 1e-12, label
            assert rel_dev(eh, linalg.expm(0.5 * h * a)) <= 1e-12, label
            assert rel_dev(expm(h * a), linalg.expm(h * a)) <= 1e-12, label

    def test_half_step_squared_is_full_step(self):
        for label, _, e, eh, _ in split_simulations():
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

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        # An infinite norm once raised OverflowError choosing the squarings.
        with pytest.raises(ValueError):
            expm(np.array([[1.0, bad], [0.0, 1.0]]))
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = bad
        with pytest.raises(ValueError):  # one bad matrix anywhere in a stack
            expm(stack)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_matches_each_matrix_alone(self, rng, dtype):
        # ||a||_1 from 1e-3 to 200: no squaring up to six.  Every slice of
        # the stacked call is expm of that matrix alone, bit for bit.
        base = rng.normal(size=(6, 5, 5)).astype(dtype)
        if dtype is complex:
            base += 1j * rng.normal(size=(6, 5, 5))
        base /= np.abs(base).sum(axis=-2).max(axis=-1)[:, None, None]
        stack = base * np.array([1e-3, 0.5, 4.0, 60.0, 200.0, 1.0])[:, None, None]
        got = expm(stack)
        assert got.shape == stack.shape
        for a, e in zip(stack, got):
            alone = expm(a)
            assert alone.shape == a.shape
            assert np.array_equal(e, alone)
        assert np.array_equal(expm(stack.reshape(2, 3, 5, 5)), got.reshape(2, 3, 5, 5))


class TestEtdrk4Weights:
    def test_zero_operator_gives_classical_rk4(self):
        # With A = 0 every phi_k is 1/k!, and ETDRK4 is classical RK4.
        h, eye = 1e-3, np.eye(2)
        wa, wb, wc, wy, w1 = etdrk4_weights(np.zeros((2, 2)), h)
        assert np.array_equal(w1, wy)  # the extension at theta = 1
        np.testing.assert_allclose(wa, np.hstack([eye, h / 2 * eye]), atol=1e-18)
        np.testing.assert_allclose(wb, np.hstack([eye, 0 * eye, h / 2 * eye]), atol=1e-18)
        np.testing.assert_allclose(wc, np.hstack([eye, 0 * eye, 0 * eye, h * eye]),
                                   atol=1e-18)
        np.testing.assert_allclose(
            wy, np.hstack([eye] + [w * h * eye for w in (1 / 6, 1 / 3, 1 / 3, 1 / 6)]),
            rtol=1e-14, atol=1e-18)

    def test_phi_functions_match_scipy_on_builtins(self):
        # phi_k(hA) from scipy's expm of the augmented matrix at the full
        # step, without the half-step squaring the program uses.
        linalg = pytest.importorskip("scipy.linalg")
        for label, a, e, eh, h in split_simulations():
            m = len(a)
            z = np.zeros((4 * m, 4 * m), dtype=complex)
            z[:m, :m] = h * a
            for k in range(3):
                z[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = np.eye(m)
            phi1, phi2, phi3 = (linalg.expm(z)[:m, k * m:(k + 1) * m] for k in (1, 2, 3))
            wy = etdrk4_weights(a, h)[3]
            want = [h * (phi1 - 3 * phi2 + 4 * phi3), 2 * h * (phi2 - 2 * phi3),
                    h * (4 * phi3 - phi2)]
            for got, ref in zip((wy[:, m:2 * m], wy[:, 2 * m:3 * m], wy[:, 4 * m:]), want):
                assert rel_dev(got, ref) <= 1e-12, label
            assert rel_dev(wy[:, 2 * m:3 * m], wy[:, 3 * m:4 * m]) == 0.0, label

    def test_stacked_weights_match_each_matrix_alone(self, rng):
        # ||hA||_1 from 0.07 to 440: the augmented matrices take no
        # squaring, four or up to six.
        h = 1e-3
        a = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        a *= np.array([1e1, 1e3, 3e4, 1e5])[:, None, None]
        stacked = etdrk4_weights(a, h, 3)
        for b in range(len(a)):
            alone = etdrk4_weights(a[b], h, 3)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[b], want), b

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_dense_weights_match_scipy_and_the_step(self, k):
        # W_j at theta = j/k against the phi-functions of theta hA from
        # scipy's expm of the augmented matrix at theta h.  W_k, at theta =
        # 1, is the continuous extension of the chain's top row exp(2kZ),
        # bit for bit the step's own last stage matrix.
        linalg = pytest.importorskip("scipy.linalg")
        for label, a, _, _, h in split_simulations():
            m = len(a)
            weights = etdrk4_weights(a, h, k)
            assert len(weights) == 4 + k
            w = _phi_chain(a, 0.5 * h / k)
            row = w[:m]
            for _ in range(2 * k - 1):
                row = row @ w
            dense = weights[4:]
            assert np.array_equal(dense[-1], weights[3]), label
            assert np.array_equal(_extension(row, h, 2 * k), weights[3]), label
            for j in (1, k // 2, k - 1, k):
                theta = j / k
                z = np.zeros((4 * m, 4 * m), dtype=complex)
                z[:m, :m] = theta * h * a
                for i in range(3):
                    z[i * m:(i + 1) * m, (i + 1) * m:(i + 2) * m] = np.eye(m)
                top = linalg.expm(z)[:m]
                e, p1, p2, p3 = (top[:, i * m:(i + 1) * m] * theta**i for i in range(4))
                b23 = h * (2 * p2 - 4 * p3)
                want = [e, h * (p1 - 3 * p2 + 4 * p3), b23, b23, h * (4 * p3 - p2)]
                for c, ref in enumerate(want):
                    got = dense[j - 1][:, c * m:(c + 1) * m]
                    assert rel_dev(got, ref) <= 1e-12, (label, j, c)
