"""Small numerical utilities shared across the package."""

import numpy as np


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


# Higham (2005), SIAM J. Matrix Anal. Appl. 26: the largest 1-norm theta_13
# for which the degree-13 Pade approximant r_13(A) meets double-precision
# backward error, and its numerator coefficients b_0..b_13.
_THETA13 = 5.371920351148152e0
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
        16380.0, 182.0, 1.0)


def expm(a):
    """Matrix exponential exp(a) of a square real or complex matrix, or of
    each matrix of a stack (..., n, n).

    Pade scaling and squaring (Higham 2005) with the degree-13 approximant
    only: each matrix is scaled by 2^-s, s >= 0 the fewest halvings that
    bring its ||.||_1 within theta_13, and squared s times, so a matrix of
    a stack gets the operations it would get alone.  Higham's lower degrees
    would only save flops on small norms.  No eigendecomposition, so
    defective matrices are handled like any other.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expm needs square matrices, got shape {a.shape}")
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    if not np.isfinite(norm).all():
        raise ValueError(f"expm needs finite matrices, got ||a||_1 = {np.max(norm)}")
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a / (2.0**s)[..., None, None]
    eye = np.eye(a.shape[-1], dtype=a.dtype)
    b = _B13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    e = np.linalg.solve(v - u, v + u)
    # A matrix whose exponential overflows float64 comes out inf or NaN,
    # which the caller reports, without numpy's warnings on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(s.max(initial=0)):
            due = s > i  # the matrices with more than i squarings
            e[due] = e[due] @ e[due]
    return e
