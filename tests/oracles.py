"""Oracles that only the tests use: scipy's DOP853 on the scalar
black-start amplitude ODE, independent of ``analysis.blackstart_analytic``;
ETDRK4's weights of one step, built apart from a run's per-rung cache; the
oscillator and droop laws on real alpha-beta 2-vectors, apart from the
simulator's complex split; and the network models as 2x2 real blocks and
as derivatives of a ``DynamicNetwork``'s branch currents."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from dvocsim.network import DynamicNetwork, build_admittance_complex, reduced_admittance
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


# --- control laws on alpha-beta 2-vectors ---------------------------------

# Quarter-turn rotation, written out exactly (rotation(pi/2) carries ~1e-16
# cosine residue).
J = np.array([[0.0, -1.0], [1.0, 0.0]])


def rotation(kappa):
    """2D rotation matrix [[cos k, -sin k], [sin k, cos k]]."""
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    c, s = math.cos(kappa), math.sin(kappa)
    return np.array([[c, -s], [s, c]])


def gain_matrix(params):
    """Set-point gain matrix (1/v_star^2) R(kappa) (p_star*I - q_star*J).

    Equals (1/v_star^2) R(kappa) [[p_star, q_star], [-q_star, p_star]].
    """
    core = params.p_star * np.eye(2) - params.q_star * J
    return rotation(params.kappa) @ core / params.v_star**2


def magnitude_error(v, v_star):
    """Normalized amplitude error (v_star^2 - |v|^2) / v_star^2.

    Zero exactly when the amplitude sits at the set-point; 1 at the origin.
    """
    if v_star <= 0.0:
        raise ValueError(f"v_star must be > 0, got {v_star}")
    v = np.asarray(v, dtype=float)
    return (v_star**2 - float(v @ v)) / v_star**2


def phase_error(v, i_o, params):
    """Synchronization error K v - R(kappa) i_o.

    Vanishes exactly when v @ i_o = p_star, v @ J i_o = q_star and
    |v| = v_star simultaneously.
    """
    v = np.asarray(v, dtype=float)
    i_o = np.asarray(i_o, dtype=float)
    return gain_matrix(params) @ v - rotation(params.kappa) @ i_o


def dvoc_rhs(state, i_o, params):
    """Oscillator voltage derivative dv/dt, V/s.

    dv/dt = omega0 J v + eta (K v - R(kappa) i_o + alpha phi(v) v), built here
    from the phase/magnitude error decomposition so that
    dvoc_rhs == omega0 J v + eta*phase_error + eta*alpha*magnitude_error*v
    holds to rounding.
    """
    v = np.asarray(state, dtype=float)
    e_theta = phase_error(v, i_o, params)
    e_v = magnitude_error(v, params.v_star) * v
    return params.omega0 * (J @ v) + params.eta * e_theta + params.eta * params.alpha * e_v


def current_for_power(v, p, q):
    """The unique current with v @ i = p and v @ J i = q, for v != 0.

    i = (p v - q J v) / |v|^2; inverts the power measurement and is how a
    polar-form (p, q) pair is mapped back to a terminal current.
    """
    v = np.asarray(v, dtype=float)
    n2 = float(v @ v)
    if n2 == 0.0:
        raise ValueError("current_for_power undefined at v = 0")
    return (p * v - q * (J @ v)) / n2


def droop_rhs(state, p, q, params):
    """Conventional droop baseline: (d|v|/dt, dtheta/dt).

    dtheta/dt = omega0 + kp (p_star - p)
    d|v|/dt   = -|v| + v_star + kq (q_star - q)
    """
    dtheta = params.omega0 + params.kp * (params.p_star - p)
    dmag = -state.magnitude + params.v_star + params.kq * (params.q_star - q)
    return dmag, dtheta


def kappa_from_line(omega0, l, r):
    """Impedance angle atan2(omega0 L, R) of a series RL line, in [0, pi/2].

    This is the kappa for which the controlled network is provably stable
    when all lines share the same L/R ratio.
    """
    if r < 0.0 or l < 0.0:
        raise ValueError("R and L must be >= 0")
    if r == 0.0 and l == 0.0:
        raise ValueError("R and L cannot both be zero")
    return math.atan2(omega0 * l, r)


# --- network models ------------------------------------------------------

def _complex_to_block(c):
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def build_admittance(topo, omega):
    """Node admittance matrix as 2x2 real blocks acting on alpha-beta vectors.

    Row/column pairs (2k, 2k+1) correspond to node k of ``topo.live_nodes()``;
    the block for complex admittance a + jb is [[a, -b], [b, a]].
    """
    yc = build_admittance_complex(topo, omega)
    n = yc.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for k in range(n):
            out[2 * i:2 * i + 2, 2 * k:2 * k + 2] = _complex_to_block(yc[i, k])
    return out


def solve_currents_quasistatic(topo, omega, inverter_voltages):
    """Phasor current injected by each inverter, shunt-cap current included.

    ``inverter_voltages`` is a sequence of alpha-beta 2-vectors aligned with
    ``topo.inverter_nodes``; returns an (n_inverter, 2) array of currents.
    """
    vs = np.asarray(inverter_voltages, dtype=float)
    if vs.ndim != 2 or vs.shape != (len(topo.inverter_nodes), 2):
        raise ValueError("inverter_voltages must be (n_inverters, 2)")
    m = reduced_admittance(topo, omega)
    vc = vs[:, 0] + 1j * vs[:, 1]
    ic = m @ vc
    return np.column_stack([ic.real, ic.imag])


def measure_power(v, i_o):
    """Instantaneous (p, q) at a terminal: p = v.i, q = v.(J i)."""
    v = np.asarray(v, dtype=float)
    i_o = np.asarray(i_o, dtype=float)
    p = float(v @ i_o)
    q = float(v @ (J @ i_o))
    return p, q


def branch_rates_rhs(net, branch_currents, source_voltages):
    """d(branch currents)/dt of a ``DynamicNetwork`` for complex branch
    currents and source voltages."""
    return net.branch_rates @ np.concatenate([source_voltages, branch_currents])


def source_branch_currents(net, branch_currents, source_voltages):
    """Current injected by each source of a ``DynamicNetwork`` into the
    network (no cap term)."""
    return net.injection @ np.concatenate([source_voltages, branch_currents])

def dynamic_rhs(topo, branch_currents, inverter_voltages):
    """Branch-current derivatives for the dynamic model.

    ``branch_currents`` is (n_dyn_branches, 2) in alpha-beta components,
    aligned with ``DynamicNetwork(topo).branch_ids``; likewise the returned
    derivative.  ``inverter_voltages`` is (n_inverters, 2).
    """
    net = DynamicNetwork(topo)
    ib = np.asarray(branch_currents, dtype=float)
    vs = np.asarray(inverter_voltages, dtype=float)
    if ib.shape != (net.n_branches, 2):
        raise ValueError(f"branch_currents must be ({net.n_branches}, 2)")
    didt = branch_rates_rhs(net, ib[:, 0] + 1j * ib[:, 1], vs[:, 0] + 1j * vs[:, 1])
    return np.column_stack([didt.real, didt.imag])
