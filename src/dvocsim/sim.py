"""Fixed-step integration of the coupled controller + network system.

A timeline event engine and trace recording around one exponential
integrator.  Internally all alpha-beta pairs are packed as complex numbers
(alpha + j beta): every matrix in the control law commutes with rotations, so
rotation by kappa is multiplication by exp(j kappa) and the quarter turn is
multiplication by j.

The state ``Simulation.y`` is one complex vector: the terminal voltage v of
every inverter in ``scenario.inverters`` order, followed in the dynamic
network model by the branch currents in ``DynamicNetwork.branch_ids`` order.
Oscillator and droop rows are picked by index arrays.  At every event the
network is rebuilt and the branch currents are carried over by branch id; a
newly connected branch starts at zero.

Every configuration -- oscillator, droop or mixed inverters, dynamic or
quasi-static network, continuous or sampled controllers -- is split into
dy/dt = A y + N(y).  A holds the rotation, the set-point gain, the network,
the branch R/L and, where the controllers measure the live current, the
capacitor feedthrough; on a droop row it holds the linear part of the droop
law, -1 + j (omega0 + kp p*), on the diagonal.  A is constant between events.
N holds the rest: the cubic amplitude term, the remainder of the droop law
and, in sampled mode, the held measurement.  Every step is one Cox-Matthews
ETDRK4 step, whose matrices exp(hA), exp(hA/2) and the phi-functions of hA
and hA/2 come from one augmented matrix exponential per compile, so the fast
branch-current pole does not bound the step.

The filter capacitor sits at the inverter terminal, behind the current
measurement, so in the dynamic network model the measured current contains
C dv/dt, which itself depends on the controller derivative.  That algebraic
loop is solved exactly: for the oscillator controller it is linear,
(1 + eta C exp(j kappa)) dv/dt = rhs(v, i_branches), and the droop law solves
it in closed form for (dr/dt, dtheta/dt) of v = r exp(j theta).

Events are applied atomically between steps, at the first step boundary at or
after their timestamp.  One simulation run is strictly sequential; separate
runs share no state and may execute in parallel.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import DvocParams, DroopParams
from .network import DynamicNetwork, SetPointUpdate, apply_event, reduced_admittance
from .numerics import expm


class SimulationDiverged(RuntimeError):
    """Non-finite state encountered; carries (time, inverter, magnitude, step)."""

    def __init__(self, time, inverter, magnitude, step):
        self.time = time
        self.inverter = inverter
        self.magnitude = magnitude
        self.step = step
        super().__init__(
            f"non-finite state at step {step}, t={time:.6g} s (inverter "
            f"{inverter!r}, |v|={magnitude!r})")


# Cap on the step count round(t_end / dt); the record arrays grow with it.
MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    dt                  -- plant step, s
    t_end               -- end time, s (snapped to a whole number of steps)
    controller_sample_hz-- None for continuous controller evaluation, or a
                           sample rate: measurements fed to the controllers
                           are held constant between updates (zero-order hold)
    network_model       -- "dynamic" (branch-current states) or "quasistatic"
                           (algebraic phasor solution at the nominal frequency)
    record_decimation   -- record every k-th step
    noise_seed          -- seed for initial angles and additive noise
    noise_amplitude     -- per-step additive noise on the oscillator voltage
                           states, V/sqrt(s); 0 disables
    """

    dt: float = 1e-5
    t_end: float = 1.0
    controller_sample_hz: float = None
    network_model: str = "dynamic"
    record_decimation: int = 10
    noise_seed: int = 0
    noise_amplitude: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and 1 <= round(steps) <= MAX_STEPS):
            raise ValueError(f"t_end/dt = {steps:g} must round to between 1 and {MAX_STEPS} steps")
        if self.network_model not in ("dynamic", "quasistatic"):
            raise ValueError(f"unknown network model {self.network_model!r}")
        if int(self.record_decimation) != self.record_decimation or self.record_decimation < 1:
            raise ValueError("record_decimation must be an integer >= 1")
        if not (math.isfinite(self.noise_amplitude) and self.noise_amplitude >= 0.0):
            raise ValueError("noise_amplitude must be >= 0")
        if self.controller_sample_hz is not None:
            period = self.controller_sample_hz * self.dt
            steps = 1.0 / period if period > 0.0 else math.inf
            if not 1.0 - 1e-9 <= steps < math.inf or abs(steps - round(steps)) > 1e-6 * steps:
                raise ValueError(
                    f"controller sample interval 1/(f_c dt) = {steps:g} must be a "
                    "whole number of steps >= 1")

    @property
    def sample_steps(self):
        if self.controller_sample_hz is None:
            return None
        return int(round(1.0 / (self.controller_sample_hz * self.dt)))


@dataclass(frozen=True)
class InitialCondition:
    """Per-inverter initial voltage.

    mode "blackstart": |v| = 1e-3 v_star at a seeded random angle;
    mode "nominal":    |v| = v_star at ``angle``;
    mode "explicit":   alpha-beta vector ``vec``.
    """

    mode: str = "blackstart"
    angle: float = 0.0
    vec: tuple = None

    def __post_init__(self):
        if self.mode not in ("blackstart", "nominal", "explicit"):
            raise ValueError(f"unknown initial mode {self.mode!r}")
        if self.mode == "explicit" and (self.vec is None or len(self.vec) != 2):
            raise ValueError("explicit initial condition needs a 2-vector")


BLACKSTART_MAGNITUDE_RATIO = 1e-3


@dataclass
class Trace:
    """Uniformly sampled simulation record.

    ``v`` and ``i_o`` are (n_samples, n_inverters) complex (alpha + j beta);
    ``p``, ``q``, ``vmag``, ``theta`` are derived real columns, with theta
    unwrapped.  ``events`` lists (time applied, description).
    """

    t: np.ndarray
    v: np.ndarray
    i_o: np.ndarray
    p: np.ndarray
    q: np.ndarray
    vmag: np.ndarray
    theta: np.ndarray
    inverter_ids: list
    events: list
    dt_sample: float
    meta: dict = field(default_factory=dict)

    @property
    def n_inverters(self):
        return self.v.shape[1]

    def column(self, name, k):
        """Scalar column for inverter index k: one of v_alpha, v_beta,
        i_alpha, i_beta, p, q, vmag, theta."""
        if name == "v_alpha":
            return self.v[:, k].real
        if name == "v_beta":
            return self.v[:, k].imag
        if name == "i_alpha":
            return self.i_o[:, k].real
        if name == "i_beta":
            return self.i_o[:, k].imag
        return getattr(self, name)[:, k]


def _finalize_trace(t, v, i_o, ids, events, dt_sample, meta):
    p = (np.conj(v) * i_o).real
    q = -(np.conj(v) * i_o).imag
    vmag = np.abs(v)
    ang = np.angle(v)
    theta = np.unwrap(ang, axis=0) if ang.shape[0] > 1 else ang
    return Trace(t=t, v=v, i_o=i_o, p=p, q=q, vmag=vmag, theta=theta,
                 inverter_ids=list(ids), events=events, dt_sample=dt_sample,
                 meta=meta)


class _Split:
    """dy/dt = a @ y + N(y) for one kind of controller measurement.

    a        -- linear operator on the complex state
    c1       -- gain of the cubic amplitude term (zero off the oscillator rows)
    meas     -- droop-terminal rows of the live measured current, cap current
                excluded; None when the controllers see the held current
    cap_loop -- the droop law solves its capacitor loop (live, dynamic network)
    """

    def __init__(self, a, c1, meas, cap_loop):
        self.a, self.c1 = a, c1
        self.meas, self.cap_loop = meas, cap_loop
        self.live = meas is not None


def _etdrk4_weights(a, h):
    """Stage matrices of Cox-Matthews ETDRK4 for dy/dt = a y + N(y).

    With Z = [[h a / 2, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0], the top
    block row of exp(Z) is [exp(ha/2), phi_1(ha/2), phi_2(ha/2), phi_3(ha/2)]
    and that of exp(Z)^2 = exp(2Z) is [exp(ha), 2 phi_1(ha), 4 phi_2(ha),
    8 phi_3(ha)].  With E2 = exp(ha/2), E = exp(ha), P = (h/2) phi_1(ha/2)
    and the stage vector z = [y, N(y), N(a), N(b), N(c)], one step is
        a  = [E2, P] z,      b = [E2, 0, P] z,
        c  = [E, E2 P - P, 0, 2P] z   (= E2 a + P (2 N(b) - N(y))),
        y' = [E, F1, F2, F2, F3] z,
    with F1 = h (phi_1 - 3 phi_2 + 4 phi_3), F2 = 2h (phi_2 - 2 phi_3) and
    F3 = h (4 phi_3 - phi_2) of ha.  Returns the four block rows.
    """
    m = len(a)
    z = np.zeros((4 * m, 4 * m), dtype=complex)
    z[:m, :m] = 0.5 * h * a
    for k in range(3):
        z[k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = np.eye(m)
    w = expm(z)
    half = w[:m]
    full = half @ w
    e2, e, p = half[:, :m], full[:, :m], 0.5 * h * half[:, m:2 * m]
    phi1, phi2, phi3 = (full[:, k * m:(k + 1) * m] / 2.0**k for k in (1, 2, 3))
    f2 = 2.0 * h * (phi2 - 2.0 * phi3)
    zero = np.zeros_like(p)
    return (np.hstack([e2, p]), np.hstack([e2, zero, p]),
            np.hstack([e, e2 @ p - p, zero, 2.0 * p]),
            np.hstack([e, h * (phi1 - 3.0 * phi2 + 4.0 * phi3), f2, f2,
                       h * (4.0 * phi3 - phi2)]))


class Simulation:
    """One compiled simulation run.  Construct, then ``run()`` (or ``step()``)."""

    def __init__(self, scenario, config=None):
        self.scenario = scenario
        self.config = config if config is not None else scenario.sim
        self.omega_nominal = scenario.omega0
        self.inverters = list(scenario.inverters)
        self.params = [spec.params for spec in self.inverters]
        self.topology = scenario.topology
        self.t = 0.0
        self.step_index = 0
        self._rng = np.random.default_rng(self.config.noise_seed)
        self._events_applied = []
        self._sample_steps = self.config.sample_steps
        self._dynamic = self.config.network_model == "dynamic"
        self._ids = [s.inverter_id for s in self.inverters]
        self._ns = len(self.inverters)
        self._dvoc_pos = np.array(
            [k for k, p in enumerate(self.params) if isinstance(p, DvocParams)], dtype=int)
        self._droop_pos = np.array(
            [k for k, p in enumerate(self.params) if isinstance(p, DroopParams)], dtype=int)

        dt = self.config.dt
        self._pending = []
        for ev in sorted(scenario.events, key=lambda e: e.time):
            boundary = max(0, int(math.ceil(ev.time / dt - 1e-9)))
            self._pending.append((boundary, ev))

        self.y = np.array([self._initial_slot(spec) for spec in self.inverters],
                          dtype=complex)
        self._branch_ids = []
        self._compile()

    # -- construction -------------------------------------------------------

    def _initial_slot(self, spec):
        """Initial terminal voltage of one inverter."""
        init, p = spec.initial, spec.params
        if init.mode == "blackstart":
            mag = BLACKSTART_MAGNITUDE_RATIO * p.v_star
            ang = self._rng.uniform(0.0, 2.0 * math.pi)
        elif init.mode == "nominal":
            mag, ang = p.v_star, init.angle
        else:
            a, b = init.vec
            mag = math.hypot(a, b)
            ang = math.atan2(b, a) if mag > 0.0 else 0.0
        return mag * complex(math.cos(ang), math.sin(ang))

    def _compile(self):
        """Rebuild the split and its step matrices for the current topology
        and parameter set, carrying the branch currents over by branch id."""
        self._caps = np.array([self.topology.shunt_caps.get(n, 0.0)
                               for n in self.topology.inverter_nodes])

        def param(name, pos):
            return np.array([getattr(self.params[k], name) for k in pos])

        # Oscillator controller coefficients, vectorized over dvoc inverters.
        dv, dr = self._dvoc_pos, self._droop_pos
        eta, ek = param("eta", dv), np.exp(1j * param("kappa", dv))
        inv_vs2 = 1.0 / param("v_star", dv)**2
        self._c0 = 1j * param("omega0", dv) \
            + eta * ek * (param("p_star", dv) - 1j * param("q_star", dv)) * inv_vs2
        self._c1 = eta * param("alpha", dv)
        self._c2 = eta * ek
        # Droop law: dtheta/dt = a_dr - kp p, dr/dt = b_dr - r - kq q.
        self._kp, self._kq = param("kp", dr), param("kq", dr)
        self._a_dr = param("omega0", dr) + self._kp * param("p_star", dr)
        self._b_dr = param("v_star", dr) + self._kq * param("q_star", dr)
        self._caps_dr = self._caps[dr]

        # Network as matrices over the state y: the current into the network
        # at each inverter terminal, cap current excluded, is g @ y, and the
        # branch-current derivatives are branch @ y.
        ns = self._ns
        if self._dynamic:
            net = DynamicNetwork(self.topology)
            g, self._branch, ids = net.injection, net.branch_rates, net.branch_ids
        else:
            g = reduced_admittance(self.topology, self.omega_nominal)
            self._branch, ids = np.zeros((0, ns)), []
        self._g = g.astype(complex)
        carry = dict(zip(self._branch_ids, self.y[ns:]))
        self.y = np.concatenate([self.y[:ns], [carry.get(b, 0j) for b in ids]])
        self._branch_ids = ids
        m = len(self.y)
        self._inv_vs2 = np.zeros(m)
        self._inv_vs2[dv] = inv_vs2
        self._z = np.zeros(5 * m, dtype=complex)

        self._held = None
        self._live = self._split(live=True)
        self._stepped = self._live if self._sample_steps is None else self._split(live=False)
        self._etd = _etdrk4_weights(self._stepped.a, self.config.dt)

    def _split(self, live):
        """A and the constants of N, with the controllers measuring the live
        current (the capacitor loop solved exactly in the dynamic model) or
        the held one."""
        dv, dr, m = self._dvoc_pos, self._droop_pos, len(self.y)
        full = np.zeros((m, m), dtype=complex)
        full[self._ns:] = self._branch
        feed = np.ones(len(dv))
        if live:
            if self._dynamic:
                feed = 1.0 / (1.0 + self._c2 * self._caps[dv])
            full[dv] = -(feed * self._c2)[:, None] * self._g[dv]
        full[dv, dv] += feed * self._c0
        full[dr, dr] = -1.0 + 1j * self._a_dr
        c1 = np.zeros(m, dtype=complex)
        c1[dv] = feed * self._c1
        return _Split(full, c1, self._g[dr] if live else None,
                      live and self._dynamic and bool(np.any(self._caps_dr)))

    def _hold(self, i_o):
        """Zero-order hold: the controllers measure ``i_o`` until the next
        sample."""
        self._held = np.zeros(len(self.y), dtype=complex)
        self._held[self._dvoc_pos] = -self._c2 * i_o[self._dvoc_pos]
        self._held_droop = i_o[self._droop_pos]

    def _apply_event(self, action):
        """Update the parameters or the topology, then recompile."""
        if isinstance(action, SetPointUpdate):
            k = self._ids.index(action.inverter_id)
            updates = {name: getattr(action, name) for name in ("p_star", "q_star", "v_star")
                       if getattr(action, name) is not None}
            self.params[k] = replace(self.params[k], **updates)
        else:
            self.topology = apply_event(self.topology, action)
        self._compile()

    # -- right-hand side -----------------------------------------------------

    def _nonlinear(self, y, sp):
        """N(y) of split ``sp``."""
        if len(self._dvoc_pos):
            # c1 and 1/v*^2 are zero outside the oscillator slots.
            out = sp.c1 * (1.0 - (y.real**2 + y.imag**2) * self._inv_vs2) * y
        else:
            out = np.zeros(len(y), dtype=complex)
        if not sp.live:
            out += self._held
        dr = self._droop_pos
        if len(dr):
            # v = r exp(j theta); the angle of v = 0 is taken as theta = 0.
            v = y[dr]
            r, th = np.abs(v), np.arctan2(v.imag, v.real)
            iod = sp.meas @ y if sp.live else self._held_droop
            pq = np.conj(v) * iod
            thdot = self._a_dr - self._kp * pq.real
            rdot = self._b_dr - r + self._kq * pq.imag
            if sp.cap_loop:
                # i_o = i_net + C dv/dt with dv/dt = (dr/dt + j r dtheta/dt)
                # exp(j theta): linear in (dr/dt, dtheta/dt), solved in closed form.
                c = self._caps_dr
                rdot = (rdot + self._kq * c * r**2 * thdot) \
                    / (1.0 + self._kp * self._kq * c**2 * r**3)
                thdot = thdot - self._kp * c * r * rdot
            # dv/dt = (dr/dt + j r dtheta/dt) exp(j theta), less A's diagonal.
            out[dr] = (rdot + r + 1j * r * (thdot - self._a_dr)) * np.exp(1j * th)
        return out

    def _outputs(self, y):
        """Instantaneous (v, i_o) of every inverter, the capacitor current
        included, whose dv/dt is A y + N(y) with the live measurement."""
        ns = self._ns
        i_net = self._g @ y
        if not self._dynamic:
            return y[:ns], i_net
        sp = self._live
        d = sp.a @ y + self._nonlinear(y, sp)
        return y[:ns], i_net + self._caps * d[:ns]

    # -- time stepping -------------------------------------------------------

    def _apply_due_events(self):
        while self._pending and self._pending[0][0] <= self.step_index:
            _, ev = self._pending.pop(0)
            self._apply_event(ev.action)
            self._events_applied.append((self.t, ev.action))

    def step(self):
        """Apply due events, sample the controller measurement if one is due,
        then advance one ETDRK4 step of size dt."""
        self._apply_due_events()
        cfg = self.config
        ss = self._sample_steps
        if ss is not None and (self._held is None or self.step_index % ss == 0):
            self._hold(self._outputs(self.y)[1])
        self._step_etdrk4()
        dv = self._dvoc_pos
        if cfg.noise_amplitude > 0.0 and len(dv):
            w = (cfg.noise_amplitude * math.sqrt(cfg.dt)
                 * self._rng.standard_normal(2 * len(dv)))
            self.y[dv] += w[0::2] + 1j * w[1::2]
        self.step_index += 1
        self.t = self.step_index * cfg.dt

    def _step_etdrk4(self):
        """One Cox-Matthews (2002) ETDRK4 step on dy/dt = A y + N(y): A is
        propagated exactly and N's stages are weighted by phi-functions of
        hA, so stiff modes see N with the right weight."""
        m = len(self.y)
        z, (wa, wb, wc, wy) = self._z, self._etd
        sp, n = self._stepped, self._nonlinear
        z[:m] = self.y
        z[m:2 * m] = n(self.y, sp)
        z[2 * m:3 * m] = n(wa @ z[:2 * m], sp)
        z[3 * m:4 * m] = n(wb @ z[:3 * m], sp)
        z[4 * m:] = n(wc @ z[:4 * m], sp)
        self.y = wy @ z

    def _check_finite(self):
        if np.isfinite(self.y).all():
            return
        with np.errstate(invalid="ignore"):
            mags = np.abs(self.y[:self._ns])
        bad = ~np.isfinite(mags)
        worst = int(np.argmax(np.where(bad, np.inf, mags)))
        raise SimulationDiverged(self.t, self._ids[worst], float(mags[worst]),
                                 self.step_index)

    def run(self):
        """Integrate from t = 0 to t_end and return the Trace."""
        cfg = self.config
        if self.step_index != 0:
            raise RuntimeError("run() must be called on a fresh Simulation")
        n_steps = int(round(cfg.t_end / cfg.dt))
        decim = cfg.record_decimation
        n_rec = n_steps // decim + 1
        t_rec = np.empty(n_rec)
        v_rec = np.empty((n_rec, self._ns), dtype=complex)
        io_rec = np.empty((n_rec, self._ns), dtype=complex)

        self._apply_due_events()
        v_all, io = self._outputs(self.y)
        t_rec[0], v_rec[0], io_rec[0] = 0.0, v_all, io
        ri = 1
        # Overflow en route to a detected divergence is expected; the finite
        # check below turns it into a diagnostic instead of warning spam.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n_steps):
                self.step()
                if self.step_index % decim == 0 and ri < n_rec:
                    self._check_finite()
                    v_all, io = self._outputs(self.y)
                    t_rec[ri] = self.t
                    v_rec[ri] = v_all
                    io_rec[ri] = io
                    ri += 1
        self._check_finite()
        events = [(t, _describe_action(a)) for t, a in self._events_applied]
        meta = {
            "dt": cfg.dt,
            "t_end": n_steps * cfg.dt,
            "network_model": cfg.network_model,
            "controller_sample_hz": cfg.controller_sample_hz,
            "noise_seed": cfg.noise_seed,
            "noise_amplitude": cfg.noise_amplitude,
            "scenario": getattr(self.scenario, "name", ""),
        }
        return _finalize_trace(t_rec[:ri], v_rec[:ri], io_rec[:ri], self._ids, events,
                               cfg.dt * decim, meta)


def _describe_action(action):
    return f"{type(action).__name__} {vars(action)}" if hasattr(action, "__dict__") \
        else repr(action)


def run_scenario(scenario, config=None):
    """Integrate a scenario from t = 0, applying its events, and return the Trace."""
    return Simulation(scenario, config).run()
