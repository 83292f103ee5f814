"""Small numerical utilities shared across the package."""

import math

import numpy as np


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


def _numeric_jacobian(residual, x, r0):
    m = len(np.atleast_1d(r0))
    n = len(x)
    jac = np.empty((m, n))
    for k in range(n):
        h = 1e-6 * max(1.0, abs(x[k]))
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        jac[:, k] = (np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2.0 * h)
    return jac


def gauss_newton(residual, x0, tol=1e-12, max_iter=100):
    """Damped Gauss-Newton least squares with a numeric Jacobian.

    Suited to the tiny (<= a few unknowns) power-flow matching problems in
    this package.  Returns ``(x, r, converged, n_iter)`` where ``r`` is the
    residual vector at ``x``; ``converged`` means the step size dropped below
    ``tol`` (the residual itself may be nonzero for inconsistent problems).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    for it in range(1, max_iter + 1):
        jac = _numeric_jacobian(residual, x, r)
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            return x, r, False, it
        lam = 1.0
        base = float(r @ r)
        xn, rn = x, r
        for _ in range(40):
            xn = x + lam * step
            rn = np.asarray(residual(xn), dtype=float)
            if float(rn @ rn) <= base or lam < 1e-12:
                break
            lam *= 0.5
        x, r = xn, rn
        if np.linalg.norm(lam * step) <= tol * max(1.0, np.linalg.norm(x)):
            return x, r, True, it
    return x, r, False, max_iter


# Higham (2005), SIAM J. Matrix Anal. Appl. 26: Pade degrees m with the
# largest 1-norm theta_m for which r_m(A) meets double-precision backward
# error, and the numerator coefficients b_0..b_m of each approximant.
_PADE = (
    (3, 1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    (5, 2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    (7, 9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                               25200.0, 1512.0, 56.0, 1.0)),
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                              302702400.0, 30270240.0, 2162160.0, 110880.0,
                              3960.0, 90.0, 1.0)),
)
_THETA13 = 5.371920351148152e0
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0)


def expm(a):
    """Matrix exponential exp(a) of a square real or complex matrix.

    Pade scaling and squaring (Higham 2005): the lowest-degree approximant
    whose theta bounds ||a||_1, else a / 2^s with the degree-13 approximant
    and s squarings.  No eigendecomposition, so defective matrices are
    handled like any other.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    eye = np.eye(len(a), dtype=a.dtype)
    norm = np.linalg.norm(a, 1)
    if not math.isfinite(norm):
        raise ValueError(f"expm needs a finite matrix, got ||a||_1 = {norm}")
    for m, theta, b in _PADE:
        if norm <= theta:
            powers = [eye, a @ a]
            for _ in range(m // 2 - 1):
                powers.append(powers[-1] @ powers[1])
            u = a @ sum(b[2 * j + 1] * powers[j] for j in range(m // 2 + 1))
            v = sum(b[2 * j] * powers[j] for j in range(m // 2 + 1))
            return np.linalg.solve(v - u, v + u)
    s = max(0, int(math.ceil(math.log2(norm / _THETA13))))
    a = a / 2.0**s
    b = _B13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        e = e @ e
    return e
