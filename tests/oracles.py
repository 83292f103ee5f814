"""Brute-force oracles that only the tests use: classic RK4 on the scalar
black-start amplitude ODE, independent of ``analysis.blackstart_analytic``,
and ETDRK4's weights of one step, built apart from a run's per-rung cache."""

import numpy as np

from dvocsim.sim import _chain_rows, _dense, _stages


def etdrk4_weights(a, h, k=1):
    """Cox-Matthews ETDRK4 for dy/dt = a y + N(y), a step of size h, for a
    matrix a or each of a stack (..., m, m): its four stage matrices, then
    its continuous extension at the step's offsets j / k, W_1, ..., W_k,
    W_k equal to the last stage matrix (``dvocsim.sim._stages``,
    ``_dense``), from a chain of its own at s = h / 2k."""
    rows = _chain_rows(a, 0.5 * h / k, 2 * k)
    return _stages(rows, h, k) + _dense(rows, h, k)


def rk4_scalar(f, y0, t_grid, max_dt):
    """Classic RK4 on an autonomous scalar ODE dy/dt = f(y).

    Integrates along ``t_grid`` (plain floats for speed), subdividing each
    interval into equal substeps no longer than ``max_dt``.  Returns the
    solution sampled at ``t_grid``.
    """
    y = float(y0)
    ys = [y]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        span = float(t1 - t0)
        n = max(1, int(np.ceil(span / max_dt - 1e-12)))
        h = span / n
        for _ in range(n):
            k1 = f(y)
            k2 = f(y + 0.5 * h * k1)
            k3 = f(y + 0.5 * h * k2)
            k4 = f(y + h * k3)
            y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return np.array(ys)


def integrate_magnitude_ode(v0, params, times, max_dt=None):
    """Brute-force RK4 oracle for the scalar black-start amplitude ODE.

    Independent of blackstart_analytic: integrates
    d|v|/dt = (eta alpha / v_star^2)(v_star^2 - |v|^2)|v| directly and
    reports |v| on ``times``.
    """
    rate = params.eta * params.alpha
    vs2 = params.v_star**2
    if max_dt is None:
        max_dt = 0.02 / rate

    def rhs(r):
        return rate / vs2 * (vs2 - r * r) * r

    return rk4_scalar(rhs, v0, np.asarray(times, dtype=float), max_dt)
