"""Brute-force oracles that only the tests use: scipy's DOP853 on the scalar
black-start amplitude ODE, independent of ``analysis.blackstart_analytic``,
and ETDRK4's weights of one step, built apart from a run's per-rung cache."""

import numpy as np
from scipy.integrate import solve_ivp

from dvocsim.sim import _chain_rows, _dense, _stages


def etdrk4_weights(a, h, k=1):
    """Cox-Matthews ETDRK4 for dy/dt = a y + N(y), a step of size h, for a
    matrix a or each of a stack (..., m, m): its four stage matrices, then
    its continuous extension at the step's offsets j / k, W_1, ..., W_k,
    W_k equal to the last stage matrix (``dvocsim.sim._stages``,
    ``_dense``), from a chain of its own at s = h / 2k."""
    rows = _chain_rows(a, 0.5 * h / k, 2 * k)
    return _stages(rows, h, k) + tuple(_dense(rows, h, k))


def integrate_magnitude_ode(v0, params, times):
    """Brute-force oracle for the scalar black-start amplitude ODE.

    Independent of blackstart_analytic: integrates
    d|v|/dt = (eta alpha / v_star^2)(v_star^2 - |v|^2)|v| directly with
    scipy's DOP853 at rtol 1e-13, atol negligible, and reports |v| on
    ``times``.
    """
    rate = params.eta * params.alpha
    vs2 = params.v_star**2

    def rhs(_, r):
        return rate / vs2 * (vs2 - r * r) * r

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (times[0], times[-1]), [float(v0)], method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-300)
    return sol.y[0]
