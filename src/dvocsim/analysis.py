"""Closed-form oracles and trace post-processing.

Contains the black-start amplitude solution, steady-state droop curves
(exact stationary solve plus linear overlays), frequency/amplitude/
synchronization metrics extracted from traces, and the set-point
consistency checker (Gauss-Newton on the quasi-static power flow).

Everything here is pure post-processing, except the simulated droop sweep,
which runs all its grid points as the members of one batched simulation
(``sim.Simulation``) and reads each point from its member's trace.
"""

import math
from dataclasses import replace

import numpy as np

from .control import droop_approx_freq, droop_approx_vmag_ss, droop_vmag_tangent_ss
from .network import Branch, forward_power_flow
from .numerics import gauss_newton
from .scenario import ScenarioError
from .sim import Simulation
from .values import value_type


# --- black start -------------------------------------------------------------

def blackstart_analytic(v0, params, times):
    """Closed-form |v(t)| of the amplitude equation
    d|v|/dt = (eta alpha / v_star^2)(v_star^2 - |v|^2)|v|.

    |v(t)| = v_star h0 e^(eta alpha t) / sqrt(h0^2 e^(2 eta alpha t) +/- 1),
    with + for the rising branch (v0 < v_star) and - for the branch decaying
    from above, as an array over ``times``.  v0 = 0 yields the identically
    zero curve; v0 = v_star is rejected because h0 is undefined there.
    """
    times = np.asarray(times, dtype=float)
    if v0 < 0.0:
        raise ValueError("v0 must be >= 0")
    vs = params.v_star
    if v0 == vs:
        raise ValueError("v0 = v_star: h0 undefined (the trajectory is the constant v_star)")
    if v0 == 0.0:
        return np.zeros_like(times)
    h0 = v0 / math.sqrt(abs(v0**2 - vs**2))
    rate = params.eta * params.alpha
    # Evaluated via 1/g^2 = exp(-2 rate t)/h0^2 so large t cannot overflow.
    ginv2 = np.exp(-2.0 * rate * times) / h0**2
    return vs / np.sqrt(1.0 + ginv2 if v0 < vs else 1.0 - ginv2)


@value_type
class BlackStartComparison:
    """Max relative deviation of a simulated amplitude envelope from the
    analytic curve over the 5 %..95 % rise interval."""

    max_rel_dev: float
    t_start: float
    t_end: float
    defined: bool


def blackstart_compare(trace, params, inverter=0, lo=0.05, hi=0.95):
    """Compare a trace's amplitude envelope against the analytic black-start curve.

    The envelope is the per-sample norm of the alpha-beta voltage.  Returns an
    undefined-flagged result when the trace starts at |v| = 0 (the closed
    form stays there) or never traverses the [lo, hi]*v_star rise interval.
    """
    env = trace.vmag[:, inverter]
    v0 = float(env[0])
    vs = params.v_star
    rising = np.nonzero(env >= lo * vs)[0]
    done = np.nonzero(env >= hi * vs)[0]
    if v0 == 0.0 or v0 >= lo * vs or len(rising) == 0 or len(done) == 0:
        return BlackStartComparison(max_rel_dev=math.nan, t_start=math.nan,
                                    t_end=math.nan, defined=False)
    i0, i1 = rising[0], done[0]
    mags = blackstart_analytic(v0, params, trace.t)[i0:i1 + 1]
    dev = np.abs(env[i0:i1 + 1] - mags) / mags
    return BlackStartComparison(max_rel_dev=float(dev.max()),
                                t_start=float(trace.t[i0]), t_end=float(trace.t[i1]),
                                defined=True)


# --- trace metrics -----------------------------------------------------------

def _window_indices(trace, window):
    if window is None:
        return 0, len(trace.t)
    t0, t1 = window
    i0 = int(np.searchsorted(trace.t, t0 - 1e-12))
    i1 = int(np.searchsorted(trace.t, t1 + 1e-12))
    return i0, i1


def estimate_frequency(trace, window=None, min_amplitude=None):
    """Mean rotation frequency of each inverter voltage over a time window, rad/s.

    The angle is the unwrapped atan2(v_beta, v_alpha); the derivative is taken
    by central differences on the recorded samples.  Raises if the amplitude
    anywhere in the window falls below ``min_amplitude`` (default 1e-6 of the
    window's peak amplitude), where the phase is undefined.
    """
    i0, i1 = _window_indices(trace, window)
    if i1 - i0 < 3:
        raise ValueError("window must contain at least 3 samples")
    vmag = trace.vmag[i0:i1]
    floor = min_amplitude if min_amplitude is not None else 1e-6 * float(vmag.max())
    if np.any(vmag < floor):
        raise ValueError("amplitude below floor inside window: phase undefined")
    theta = trace.theta[i0:i1]
    t = trace.t[i0:i1]
    omega = np.gradient(theta, t, axis=0)
    return omega[1:-1].mean(axis=0)


def steady_window(trace, omega0, periods=5, rel_tol=1e-4):
    """Trailing window of ``periods`` nominal periods plus a settled flag.

    Settled means the peak-to-peak drift of every inverter's amplitude and
    estimated frequency inside the window is below ``rel_tol`` relative.
    Returns (i0, i1, settled).
    """
    span = periods * 2.0 * math.pi / omega0
    n = int(math.ceil(span / trace.dt_sample))
    i1 = len(trace.t)
    i0 = max(0, i1 - n - 1)
    if i1 - i0 < 4:
        return i0, i1, False
    vmag = trace.vmag[i0:i1]
    mean_mag = vmag.mean(axis=0)
    if np.any(mean_mag <= 0.0) or np.any(vmag.min(axis=0) <= 1e-9 * mean_mag.max()):
        return i0, i1, False
    if np.any(np.ptp(vmag, axis=0) > rel_tol * mean_mag):
        return i0, i1, False
    omega = np.gradient(trace.theta[i0:i1], trace.t[i0:i1], axis=0)[1:-1]
    if np.any(np.ptp(omega, axis=0) > rel_tol * np.abs(omega.mean(axis=0))):
        return i0, i1, False
    return i0, i1, True


def sync_time(trace, threshold=0.02, event_time=None, v_ref=None, omega0=None):
    """Time after the triggering event until the voltage vectors agree.

    Reports the first time at which the max pairwise |v_i - v_j| stays at or
    below ``threshold * v_ref`` for one nominal period, measured from
    ``event_time`` (default: the last event in the trace, else 0).  Returns
    None when the trace never holds that long.
    """
    n = trace.n_inverters
    if n < 2:
        raise ValueError("sync_time needs at least two inverters")
    if event_time is None:
        event_time = trace.events[-1][0] if trace.events else 0.0
    if v_ref is None:
        v_ref = float(np.mean(trace.vmag[-1]))
    if omega0 is None:
        omega0 = float(np.mean(estimate_frequency(
            trace, (trace.t[max(0, len(trace.t) - 50)], trace.t[-1]))))
    period = 2.0 * math.pi / abs(omega0)
    i0 = int(np.searchsorted(trace.t, event_time - 1e-12))
    dev = np.zeros(len(trace.t) - i0)
    for a in range(n):
        for b in range(a + 1, n):
            dev = np.maximum(dev, np.abs(trace.v[i0:, a] - trace.v[i0:, b]))
    below = dev <= threshold * v_ref
    hold = max(1, int(math.ceil(period / trace.dt_sample)))
    ok = np.nonzero(below)[0]
    for k in ok:
        if k + hold >= len(below):
            break
        if below[k:k + hold + 1].all():
            return float(trace.t[i0 + k] - event_time)
    return None


@value_type
class SyncMetrics:
    """Steady-state and synchronization quantities derived from a trace."""

    sync_time: float
    residual: float
    sharing_ratios: np.ndarray
    steady_freq: float
    steady_amplitudes: np.ndarray
    steady_freq_per_inverter: np.ndarray
    steady_powers: np.ndarray
    steady_reactive: np.ndarray
    settled: bool


def compute_metrics(trace, omega0, v_ref=None, periods=5, sync_threshold=0.02):
    """Steady metrics over the trailing window plus sync time when applicable."""
    i0, i1, settled = steady_window(trace, omega0, periods=periods)
    p = trace.p[i0:i1].mean(axis=0)
    q = trace.q[i0:i1].mean(axis=0)
    amps = trace.vmag[i0:i1].mean(axis=0)
    try:
        freqs = estimate_frequency(trace, (trace.t[i0], trace.t[i1 - 1]))
    except ValueError:
        freqs = np.full(trace.n_inverters, math.nan)
    total = p.sum()
    sharing = p / total if total != 0.0 else np.full_like(p, math.nan)
    st = None
    resid = 0.0
    if trace.n_inverters >= 2:
        resid = float(max(
            np.abs(trace.v[-1, a] - trace.v[-1, b])
            for a in range(trace.n_inverters) for b in range(a + 1, trace.n_inverters)))
        try:
            st = sync_time(trace, threshold=sync_threshold, v_ref=v_ref, omega0=omega0)
        except ValueError:
            st = None
    # NaN when no inverter's frequency is defined (a window of fewer than
    # three records), without nanmean's empty-slice warning.
    steady_freq = float(np.nanmean(freqs)) if not np.isnan(freqs).all() else math.nan
    return SyncMetrics(sync_time=st, residual=resid, sharing_ratios=sharing,
                       steady_freq=steady_freq, steady_amplitudes=amps,
                       steady_freq_per_inverter=freqs, steady_powers=p,
                       steady_reactive=q, settled=settled)


# --- droop curves ------------------------------------------------------------

def stationary_magnitude(params, p, q, near=None):
    """Amplitude r at which d|v|/dt of the polar oscillator law vanishes,
    elementwise over p, q and ``near``.

    Divided by eta r and times u = r^2, the condition is a quadratic for any
    kappa k: a u^2 - b u + c = 0 with a = alpha/v*^2, c = cos k p + sin k q
    and b = alpha + (cos k p* + sin k q*)/v*^2.  Reactive demand above the
    set-point gives a stable high-voltage root and a collapse root below it.
    Of the positive roots, the one nearest ``near`` is returned if given
    (the branch a run settled on; a tie goes to the larger), else the
    larger; NaN where there is none (past the nose, no real root).
    """
    vs2 = params.v_star**2
    ck, sk = math.cos(params.kappa), math.sin(params.kappa)
    a = params.alpha / vs2
    b = params.alpha + (ck * params.p_star + sk * params.q_star) / vs2
    c = ck * np.asarray(p, dtype=float) + sk * np.asarray(q, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        # The roots as s/2a and 2c/s: neither subtracts two nearly equal terms.
        s = b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b)
        r1, r2 = (np.sqrt(np.where(u > 0.0, u, math.nan)) for u in (s / (2.0 * a), 2.0 * c / s))
    hi, lo = np.fmax(r1, r2), np.fmin(r1, r2)
    if near is not None:
        hi = np.where(abs(lo - near) < abs(hi - near), lo, hi)
    return hi[()]  # a float for scalar arguments


def droop_sweep_closed_form(params, abscissae, axis, near=None):
    """Steady-state droop curve from the stationarity conditions of the
    polar law: the exact, linear and coarse ordinates at each of the
    abscissae, in their order, as three arrays.

    The exact one is the stationary amplitude r (axis "q", at p = p*) or
    the polar law's frequency at r (axis "p", at q = q*); with ``near``,
    each point's simulated |v|, r is the root nearest it, on the branch the
    run settled on, else the upper root.  ``linear`` is the consistent
    first-order expansion about the set-point; ``coarse`` is the
    droop-coefficient form (for the amplitude its slope is twice the true
    tangent, so it drifts from the exact curve much faster).  A point
    without a stationary amplitude (a NaN abscissa included) reads NaN in
    all three; without a tangent (q* >= alpha v*^2) the linear one reads
    NaN throughout."""
    x = np.asarray(abscissae, dtype=float)
    if axis == "p":
        vs2, q = params.v_star**2, params.q_star
        ck, sk = math.cos(params.kappa), math.sin(params.kappa)
        r2 = stationary_magnitude(params, x, q, near)**2
        exact = params.omega0 + params.eta * (sk * (params.p_star / vs2 - x / r2)
                                              - ck * (q / vs2 - q / r2))
        linear = coarse = droop_approx_freq(x, params)
    elif axis == "q":
        exact = stationary_magnitude(params, params.p_star, x, near)
        linear, coarse = droop_vmag_tangent_ss(x, params), droop_approx_vmag_ss(x, params)
    else:
        raise ValueError(f"axis must be 'p' or 'q', got {axis!r}")
    missing = np.isnan(exact)
    return exact, np.where(missing, math.nan, linear), np.where(missing, math.nan, coarse)


@value_type
class SweepPoint:
    target: float
    p: float
    q: float
    vmag: float
    omega: float
    settled: bool


def _series_resistance_into_load(topo):
    load_nodes = list(topo.loads)
    branches = [b for b in topo.active_branches()
                if b.from_node in load_nodes or b.to_node in load_nodes]
    if len(load_nodes) == 1 and len(branches) == 1:
        return branches[0].r
    return 0.0


def _actuated_scenario(template, axis, target):
    """Clone the template scenario, named after its grid point, with its
    load adjusted to steer the steady operating point toward the target p
    or q.

    axis "p": the (single) load conductance is sized so the delivered power
    through the series branch is the target at nominal amplitude; a target
    below 0 or at v*^2/R and above has no such load and is rejected.
    axis "q": negative targets attach a shunt capacitor at the inverter node,
    positive targets an inductive branch to a stiff auxiliary load; the main
    load is sized for p = p_star.
    """
    spec = template.inverters[0]
    params = spec.params
    vs2 = params.v_star**2
    topo = template.topology
    if not topo.loads:
        raise ScenarioError([f"droop-sweep needs a load to adjust: scenario "
                             f"{template.name!r} has none"])
    load_node = next(iter(topo.loads))
    r_series = _series_resistance_into_load(topo)

    def load_g(p_target):
        if p_target < 0.0:
            raise ScenarioError([f"droop-sweep {axis}={target!r}: a load drawing "
                                 f"p = {p_target!r} needs p >= 0"])
        headroom = vs2 - r_series * p_target
        if headroom <= 0.0:
            raise ScenarioError([
                f"droop-sweep {axis}={target!r}: a load drawing p = {p_target!r} through "
                f"R = {r_series!r} needs p < v*^2/R = {vs2 / r_series!r}"])
        return p_target / headroom

    if axis == "p":
        loads = dict(topo.loads)
        loads[load_node] = load_g(target)
        new_topo = replace(topo, loads=loads)
    elif axis == "q":
        loads = dict(topo.loads)
        loads[load_node] = load_g(params.p_star)
        caps = dict(topo.shunt_caps)
        branches = list(topo.branches)
        if target < 0.0:
            caps[spec.node] = caps.get(spec.node, 0.0) - target / (params.omega0 * vs2)
        elif target > 0.0:
            l_act = vs2 / (params.omega0 * target)
            branches.append(Branch("q-actuator", spec.node, "q-actuator-bus",
                                   r=0.0, l=l_act))
            loads["q-actuator-bus"] = 1e3 / vs2
        new_topo = replace(topo, loads=loads, branches=tuple(branches),
                           shunt_caps=caps)
    else:
        raise ValueError(f"axis must be 'p' or 'q', got {axis!r}")
    return replace(template, name=f"{template.name} {axis}={target!r}",
                   topology=new_topo, events=list(template.events))


def droop_sweep_simulated(template, axis, grid, config=None):
    """Every grid point as one member of one batched simulation; steady
    p, q, |v| and omega read from each member's trace.  Returns one
    ``SweepPoint`` per grid point, in increasing target order.

    A point that does not settle (amplitude or frequency drift above
    tolerance in the trailing window) is flagged and reads NaN.
    """
    grid = sorted(float(g) for g in grid)
    omega0 = template.inverters[0].params.omega0
    cfg = config if config is not None else template.sim
    traces = Simulation([_actuated_scenario(template, axis, g) for g in grid], cfg).run()
    points = []
    for target, trace in zip(grid, traces):
        i0, i1, settled = steady_window(trace, omega0)
        if not settled:
            points.append(SweepPoint(target, math.nan, math.nan, math.nan, math.nan, False))
            continue
        p = float(trace.p[i0:i1, 0].mean())
        q = float(trace.q[i0:i1, 0].mean())
        vmag = float(trace.vmag[i0:i1, 0].mean())
        omega = float(estimate_frequency(trace, (trace.t[i0], trace.t[i1 - 1]))[0])
        points.append(SweepPoint(target, p, q, vmag, omega, True))
    return points


# --- set-point consistency ----------------------------------------------------

@value_type
class ConsistencyReport:
    """Result of matching set-points against the quasi-static power flow.

    status is "consistent", "inconsistent", or "did-not-converge";
    residual_rel is the residual norm divided by the power scale
    (mean v_star squared), so the default tolerance reads as per-unit.
    """

    status: str
    residual_norm: float
    residual_rel: float
    power_scale: float
    angles: np.ndarray
    p: np.ndarray
    q: np.ndarray
    iterations: int


def check_setpoint_consistency(topo, setpoints, omega, tol=1e-6):
    """Do the set-points admit an exact quasi-static power-flow solution?

    Fixes each inverter amplitude at its v_star, solves for the relative
    angles (first inverter is the reference) minimizing the squared (p, q)
    mismatch by Gauss-Newton, and reports the final residual.  ``setpoints``
    is a sequence of (p_star, q_star, v_star) triples or parameter objects,
    aligned with ``topo.inverter_nodes``.
    """
    trip = []
    for s in setpoints:
        if hasattr(s, "p_star"):
            trip.append((s.p_star, s.q_star, s.v_star))
        else:
            trip.append(tuple(s))
    n = len(topo.inverter_nodes)
    if len(trip) != n:
        raise ValueError("one set-point triple per inverter node required")
    p_star = np.array([t[0] for t in trip])
    q_star = np.array([t[1] for t in trip])
    v_star = np.array([t[2] for t in trip])
    scale = float(np.mean(v_star) ** 2)

    def residual(theta_free):
        angles = np.concatenate([[0.0], theta_free])
        p, q = forward_power_flow(topo, omega, v_star, angles)
        return np.concatenate([p - p_star, q - q_star])

    x, res, converged, iters = gauss_newton(residual, np.zeros(n - 1), tol=1e-13)
    angles = np.concatenate([[0.0], x])
    rnorm = float(np.linalg.norm(res))
    p, q = forward_power_flow(topo, omega, v_star, angles)
    if not converged:
        status = "did-not-converge"
    elif rnorm <= tol * scale:
        status = "consistent"
    else:
        status = "inconsistent"
    return ConsistencyReport(status=status, residual_norm=rnorm,
                             residual_rel=rnorm / scale, power_scale=scale,
                             angles=angles, p=p, q=q, iterations=iters)
