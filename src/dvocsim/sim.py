"""Fixed-step integration of the coupled controller + network system.

A timeline event engine and trace recording around one exponential
integrator.  Internally all alpha-beta pairs are packed as complex numbers
(alpha + j beta): every matrix in the control law commutes with rotations, so
rotation by kappa is multiplication by exp(j kappa) and the quarter turn is
multiplication by j.

A ``Simulation`` integrates a batch of members, one scenario each, on one
step grid (dt, t_end, record decimation and network model).  A member's
state is one complex vector: the terminal voltage v of every inverter in
``scenario.inverters`` order, followed in the dynamic network model by the
branch currents in ``DynamicNetwork.branch_ids`` order.  Oscillator and droop
rows are picked by index arrays.  ``Simulation.y`` is (B, M): member b's
state in row b, padded with zeros to the widest member.  Each member keeps
its own parameters, topology, event timeline, controller sampling and noise
generator, seeded as its single run would be.  At an event only that member
is rebuilt; its branch currents are carried over by branch id and a newly
connected branch starts at zero.  A single run is the batch of one.

Every configuration -- oscillator, droop or mixed inverters, dynamic or
quasi-static network, continuous or sampled controllers -- is split into
dy/dt = A y + N(y).  A holds the rotation, the set-point gain, the network,
the branch R/L and, where the controllers measure the live current, the
capacitor feedthrough; on a droop row it holds the linear part of the droop
law, -1 + j (omega0 + kp p*), on the diagonal.  A is constant between events.
N holds the rest: the cubic amplitude term, the remainder of the droop law
and, in sampled mode, the held measurement.  The droop law is evaluated
without trigonometry, as a gain on v = r e^{j theta}: dv/dt - A v =
((dr/dt + r)/r - j kp p) v with dr/dt + r = v* + kq (q* - q); where the
capacitor loop is live, its closed form (below) gives dr/dt from the same
r, p and q and adds c r dr/dt to p.  Every step is one Cox-Matthews
ETDRK4 step, whose matrices exp(hA), exp(hA/2) and the phi-functions of hA
and hA/2 come from one augmented matrix exponential per compile, so the fast
branch-current pole does not bound the step.  The members' stage matrices
are stacked as (B, M, k M), zero on the padding, so each stage is one
``np.matmul`` for the whole batch and a padded slot stays exactly 0.

The filter capacitor sits at the inverter terminal, behind the current
measurement, so in the dynamic network model the measured current contains
C dv/dt, which itself depends on the controller derivative.  That algebraic
loop is solved exactly: for the oscillator controller it is linear,
(1 + eta C exp(j kappa)) dv/dt = rhs(v, i_branches), and the droop law solves
it in closed form for (dr/dt, dtheta/dt) of v = r exp(j theta).

Events are applied atomically between steps, at the first step boundary at or
after their timestamp.

Recording is deferred.  Each step makes a new state array (additive noise,
drawn NOISE_BLOCK steps at a time per member, is added to it in place before
the record point), so a record point only keeps a reference to the state.
The pending states are checked finite and turned into v and i_o together,
with one batched ``np.matmul`` per product, whenever RECORD_BLOCK of them
have gathered, before every event restack (so each block is derived with the
matrices of the compile segment it was taken in) and at the end of the run.
The first non-finite record raises SimulationDiverged with its own time and
step, as a check at every record point would.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import DvocParams, DroopParams
from .network import DynamicNetwork, SetPointUpdate, apply_event, reduced_admittance
from .numerics import expm


class SimulationDiverged(RuntimeError):
    """Non-finite state encountered; carries (time, inverter, magnitude, step)
    and the batch member it occurred in (index and scenario name)."""

    def __init__(self, time, inverter, magnitude, step, member=0, scenario=""):
        self.time = time
        self.inverter = inverter
        self.magnitude = magnitude
        self.step = step
        self.member = member
        self.scenario = scenario
        super().__init__(
            f"non-finite state at step {step}, t={time:.6g} s (member {member} "
            f"{scenario!r}, inverter {inverter!r}, |v|={magnitude!r})")


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

# Steps of noise drawn per generator call, and records derived per batch of
# the step loop.
NOISE_BLOCK = 256
RECORD_BLOCK = 256

# Floor of a droop inverter's |v| and the offset that gives v = 0 a direction:
# v + _EPS == v once |Re v| >= 2^-446, and v*/_EPS stays finite.
_EPS = 2.0**-500


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


def _finalize_traces(t, v, i_o, members, n_steps):
    """One Trace per member from the (member, record, inverter) buffers; a
    member's v and i_o are views of them."""
    traces = []
    for b, mem in enumerate(members):
        vb, ib = v[b, :, :mem.ns], i_o[b, :, :mem.ns]
        s = np.conj(vb) * ib
        np.negative(s.imag, out=s.imag)  # q = -Im(conj(v) i_o) beside p, in place
        ang = np.angle(vb)
        cfg = mem.config
        meta = {
            "dt": cfg.dt,
            "t_end": n_steps * cfg.dt,
            "network_model": cfg.network_model,
            "controller_sample_hz": cfg.controller_sample_hz,
            "noise_seed": cfg.noise_seed,
            "noise_amplitude": cfg.noise_amplitude,
            "scenario": getattr(mem.scenario, "name", ""),
        }
        events = [(time, _describe_action(a)) for time, a in mem.events_applied]
        traces.append(Trace(
            t=t, v=vb, i_o=ib, p=s.real, q=s.imag, vmag=np.abs(vb),
            theta=np.unwrap(ang, axis=0) if ang.shape[0] > 1 else ang,
            inverter_ids=list(mem.ids), events=events,
            dt_sample=cfg.dt * cfg.record_decimation, meta=meta))
    return traces


class _Split:
    """dy/dt = a @ y + N(y) for one kind of controller measurement.

    a     -- linear operator on the complex state
    c1    -- gain of the cubic amplitude term (zero off the oscillator rows)
    meas  -- droop-terminal rows of the live measured current, cap current
             excluded; None when the controllers see the held current
    cap   -- (c, kq c, kp kq c^2) of the filter capacitance c at each droop
             terminal, for the droop law's capacitor loop (live, dynamic
             network); None when no law has one
    held  -- N adds the held measurement

    A member's split is over its own state; ``Simulation._stack_split``
    stacks the members' splits over the batch.
    """

    def __init__(self, a, c1, meas, cap, held):
        self.a, self.c1 = a, c1
        self.meas, self.cap, self.held = meas, cap, held


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


def _padded(arrays, shape):
    """The arrays stacked as (len(arrays),) + shape, each in the leading
    corner of its slice, zero elsewhere."""
    out = np.zeros((len(arrays),) + shape, dtype=np.result_type(*arrays))
    for b, a in enumerate(arrays):
        out[(b,) + tuple(slice(k) for k in a.shape)] = a
    return out


class _Member:
    """One scenario of a batch: its parameters, topology, event timeline,
    noise generator and splits over its own state (inverter voltages, then
    branch currents)."""

    def __init__(self, scenario, config):
        self.scenario, self.config = scenario, config
        self.omega_nominal = scenario.omega0
        self.inverters = list(scenario.inverters)
        self.params = [spec.params for spec in self.inverters]
        self.topology = scenario.topology
        self.ids = [s.inverter_id for s in self.inverters]
        self.ns = len(self.inverters)
        self.dvoc_pos = np.array(
            [k for k, p in enumerate(self.params) if isinstance(p, DvocParams)], dtype=int)
        self.droop_pos = np.array(
            [k for k, p in enumerate(self.params) if isinstance(p, DroopParams)], dtype=int)
        self.dynamic = config.network_model == "dynamic"
        self.sample_steps = config.sample_steps
        self.rng = np.random.default_rng(config.noise_seed)
        self.noise_scale = config.noise_amplitude * math.sqrt(config.dt)
        self._noise, self._noise_row = np.empty((0, len(self.dvoc_pos)), dtype=complex), 0
        self.pending = []
        for ev in sorted(scenario.events, key=lambda e: e.time):
            boundary = max(0, int(math.ceil(ev.time / config.dt - 1e-9)))
            self.pending.append((boundary, ev))
        self.events_applied = []
        self.branch_ids = []

    def initial_state(self):
        """Initial terminal voltage of every inverter."""
        y = np.empty(self.ns, dtype=complex)
        for k, spec in enumerate(self.inverters):
            init, p = spec.initial, spec.params
            if init.mode == "blackstart":
                mag = BLACKSTART_MAGNITUDE_RATIO * p.v_star
                ang = self.rng.uniform(0.0, 2.0 * math.pi)
            elif init.mode == "nominal":
                mag, ang = p.v_star, init.angle
            else:
                a, b = init.vec
                mag = math.hypot(a, b)
                ang = math.atan2(b, a) if mag > 0.0 else 0.0
            y[k] = mag * complex(math.cos(ang), math.sin(ang))
        return y

    def noise(self):
        """This step's additive noise on the oscillator slots, alpha + j beta.
        The generator fills NOISE_BLOCK steps per call, the same numbers as
        one ``standard_normal(2 n)`` call per step; the block stays with the
        member, so a restack at an event discards no draws."""
        if self._noise_row == len(self._noise):
            w = self.rng.standard_normal((NOISE_BLOCK, 2 * len(self.dvoc_pos)))
            self._noise, self._noise_row = (self.noise_scale * w).view(complex), 0
        self._noise_row += 1
        return self._noise[self._noise_row - 1]

    def compile(self, y):
        """Rebuild the splits and step matrices for the current topology and
        parameter set; returns the state y with the branch currents carried
        over by branch id."""
        self.caps = np.array([self.topology.shunt_caps.get(n, 0.0)
                              for n in self.topology.inverter_nodes])

        def param(name, pos):
            return np.array([getattr(self.params[k], name) for k in pos])

        # Oscillator controller coefficients, vectorized over dvoc inverters.
        dv, dr = self.dvoc_pos, self.droop_pos
        eta, ek = param("eta", dv), np.exp(1j * param("kappa", dv))
        inv_vs2 = 1.0 / param("v_star", dv)**2
        self.c0 = 1j * param("omega0", dv) \
            + eta * ek * (param("p_star", dv) - 1j * param("q_star", dv)) * inv_vs2
        self.c1 = eta * param("alpha", dv)
        self.c2 = eta * ek
        # Droop law: dtheta/dt = a_dr - kp p, dr/dt = b_dr - r - kq q.
        self.kp, self.kq = param("kp", dr), param("kq", dr)
        self.a_dr = param("omega0", dr) + self.kp * param("p_star", dr)
        self.b_dr = param("v_star", dr) + self.kq * param("q_star", dr)

        # Network as matrices over the state y: the current into the network
        # at each inverter terminal, cap current excluded, is g @ y, and the
        # branch-current derivatives are branch @ y.
        ns = self.ns
        if self.dynamic:
            net = DynamicNetwork(self.topology)
            g, self.branch, ids = net.injection, net.branch_rates, net.branch_ids
            for bid, row in zip(ids, self.branch):
                if not np.isfinite(row).all():
                    raise ValueError(f"branch {bid!r}: R/L overflows float64")
        else:
            g = reduced_admittance(self.topology, self.omega_nominal)
            self.branch, ids = np.zeros((0, ns)), []
        self.g = g.astype(complex)
        carry = dict(zip(self.branch_ids, y[ns:]))
        y = np.concatenate([y[:ns], [carry.get(b, 0j) for b in ids]])
        self.branch_ids = ids
        self.m = len(y)
        self.inv_vs2 = np.zeros(self.m)
        self.inv_vs2[dv] = inv_vs2

        self.stale = True  # a sampled controller holds anew at the next step
        self.live = self._split(live=True)
        self.stepped = self.live if self.sample_steps is None else self._split(live=False)
        self.etd = _etdrk4_weights(self.stepped.a, self.config.dt)
        return y

    def _split(self, live):
        """A and the constants of N, with the controllers measuring the live
        current (the capacitor loop solved exactly in the dynamic model) or
        the held one."""
        dv, dr, m = self.dvoc_pos, self.droop_pos, self.m
        full = np.zeros((m, m), dtype=complex)
        full[self.ns:] = self.branch
        feed = np.ones(len(dv))
        if live:
            if self.dynamic:
                feed = 1.0 / (1.0 + self.c2 * self.caps[dv])
            full[dv] = -(feed * self.c2)[:, None] * self.g[dv]
        full[dv, dv] += feed * self.c0
        full[dr, dr] = -1.0 + 1j * self.a_dr
        c1 = np.zeros(m, dtype=complex)
        c1[dv] = feed * self.c1
        c = self.caps[dr]
        cap = (c, self.kq * c, self.kp * self.kq * c * c) \
            if live and self.dynamic and c.any() else None
        return _Split(full, c1, self.g[dr] if live else None, cap, not live)

    def apply_event(self, action, y):
        """Update the parameters or the topology, then recompile; returns
        the carried-over state."""
        if isinstance(action, SetPointUpdate):
            k = self.ids.index(action.inverter_id)
            updates = {name: getattr(action, name) for name in ("p_star", "q_star", "v_star")
                       if getattr(action, name) is not None}
            self.params[k] = replace(self.params[k], **updates)
        else:
            self.topology = apply_event(self.topology, action)
        return self.compile(y)


class Simulation:
    """One compiled simulation run over a batch of scenarios.  Construct,
    then ``run()`` (or ``step()``).

    ``Simulation(scenario)`` runs one scenario and ``run()`` returns its
    Trace; ``Simulation([s1, ..., sB])`` runs B members and ``run()`` returns
    their Traces in member order.  ``config`` replaces every member's
    ``scenario.sim``.  Members must share one step grid (dt, t_end, record
    decimation, network model), else ValueError; controller sampling, noise
    and seed are their own.  ``config`` reads as member 0's.
    """

    def __init__(self, scenarios, config=None):
        self._single = not isinstance(scenarios, (list, tuple))
        scenarios = [scenarios] if self._single else list(scenarios)
        if not scenarios:
            raise ValueError("a simulation needs at least one scenario")
        configs = [config if config is not None else s.sim for s in scenarios]
        self.config = configs[0]
        for b, cfg in enumerate(configs):
            diff = [name for name in ("dt", "t_end", "record_decimation", "network_model")
                    if getattr(cfg, name) != getattr(self.config, name)]
            if diff:
                raise ValueError(f"member {b} does not share the step grid of member 0: "
                                 f"{', '.join(diff)} differ")
        self.members = [_Member(s, cfg) for s, cfg in zip(scenarios, configs)]
        self.t = 0.0
        self.step_index = 0
        self._dynamic = self.config.network_model == "dynamic"
        self._ns = max(mem.ns for mem in self.members)
        self._has_dvoc = any(len(mem.dvoc_pos) for mem in self.members)
        self._sampled = [(b, mem) for b, mem in enumerate(self.members) if mem.sample_steps]
        self._held = None
        self._pending = []  # states at record points, not yet derived
        # Conjugate of each droop inverter's held current, so v times it is p + j q.
        self._held_droop = np.zeros(sum(len(mem.droop_pos) for mem in self.members),
                                    dtype=complex)
        self._stack([mem.compile(mem.initial_state()) for mem in self.members])

    # -- batch ---------------------------------------------------------------

    def _stack(self, states):
        """Stack the members' states, splits and step matrices over the
        batch, each padded with zeros to the widest state.  N works on the
        flattened (B M,) state, so its per-slot constants are flat too."""
        ms, n, ns = self.members, len(self.members), self._ns
        width = max(len(y) for y in states)
        self.y = _padded(states, (width,))
        self._g = _padded([mem.g for mem in ms], (ns, width))
        self._caps = _padded([mem.caps for mem in ms], (ns,))
        self._inv_vs2 = _padded([mem.inv_vs2 for mem in ms], (width,)).reshape(-1)
        self._c2 = np.zeros((n, ns), dtype=complex)
        for b, mem in enumerate(ms):
            self._c2[b, mem.dvoc_pos] = mem.c2
        held = np.zeros((n, width), dtype=complex)
        if self._held is not None:  # held values sit in the inverter slots
            held[:, :ns] = self._held.reshape(n, -1)[:, :ns]
        self._held = held.reshape(-1)
        # Every droop inverter of the batch: its flat slot in the state, in
        # i_o and in the stacked droop measurement, then the constants of
        # its law in the same order.
        self._droop_rows = max(len(mem.droop_pos) for mem in ms)
        owner = np.concatenate([np.full(len(mem.droop_pos), b, dtype=int)
                                for b, mem in enumerate(ms)])
        pos = np.concatenate([mem.droop_pos for mem in ms])
        self._dr_owner = owner
        self._dr, self._dr_io = owner * width + pos, owner * ns + pos
        rows = owner * self._droop_rows + np.concatenate(
            [np.arange(len(mem.droop_pos)) for mem in ms])
        self._dr_rows = None if len(rows) == n * self._droop_rows else rows  # None: unpadded
        # Each noisy member and its flat oscillator slots.
        self._noisy = [(mem, b * width + mem.dvoc_pos) for b, mem in enumerate(ms)
                       if mem.config.noise_amplitude > 0.0 and len(mem.dvoc_pos)]
        for name in ("a_dr", "b_dr", "kp", "kq"):
            setattr(self, "_" + name, np.concatenate([getattr(mem, name) for mem in ms]))
        self._jkp = 1j * self._kp
        self._live = self._stack_split([mem.live for mem in ms])
        self._stepped = self._live if all(mem.stepped is mem.live for mem in ms) \
            else self._stack_split([mem.stepped for mem in ms])
        # Stage k of ETDRK4 is k + 2 blocks wide; each block is padded alone.
        self._etd = tuple(
            _padded([mem.etd[k].reshape(mem.m, k + 2, mem.m) for mem in ms],
                    (width, k + 2, width)).reshape(n, width, (k + 2) * width)
            for k in range(4))
        # The stage vectors z = [y, N(y), N(a), N(b), N(c)] of every member,
        # and the leading parts each stage multiplies.
        z = np.zeros((n, 5 * width), dtype=complex)
        self._slots = tuple(z[:, k * width:(k + 1) * width] for k in range(5))
        self._stage_in = tuple(z.reshape(n, 5 * width, 1)[:, :k * width] for k in (2, 3, 4, 5))
        self._stage_out = np.zeros((n, width, 1), dtype=complex)
        self._stage_flat = self._stage_out.reshape(-1)
        # A recompiled member with a sampled controller holds at the next step.
        self._next_hold = self.step_index if self._sampled else math.inf
        self._next_event = min((mem.pending[0][0] for mem in ms if mem.pending),
                               default=math.inf)

    def _stack_split(self, splits):
        """The members' splits as one, zero where a member has no entry."""
        width, rows = self.y.shape[1], self._droop_rows
        live = rows and any(sp.meas is not None for sp in splits)
        meas = [np.zeros((0, 0), dtype=complex) if sp.meas is None else sp.meas
                for sp in splits]
        cap = [(np.zeros(len(mem.droop_pos)),) * 3 if sp.cap is None else sp.cap
               for mem, sp in zip(self.members, splits)]
        return _Split(_padded([sp.a for sp in splits], (width, width)),
                      _padded([sp.c1 for sp in splits], (width,)).reshape(-1),
                      _padded(meas, (rows, width)) if live else None,
                      tuple(map(np.concatenate, zip(*cap)))
                      if any(sp.cap is not None for sp in splits) else None,
                      any(sp.held for sp in splits))

    def _hold(self, i_o, due=None):
        """Zero-order hold: the controllers of the members listed in ``due``
        (all if None) measure ``i_o`` (B, ns) until their next sample."""
        n, ns = i_o.shape
        held, droop = -self._c2 * i_o, np.conj(i_o.reshape(-1)[self._dr_io])
        if due is None:
            self._held.reshape(n, -1)[:, :ns] = held
            self._held_droop[:] = droop
        else:
            self._held.reshape(n, -1)[due, :ns] = held[due]
            mine = np.isin(self._dr_owner, due)
            self._held_droop[mine] = droop[mine]

    def _apply_due_events(self):
        if self.step_index < self._next_event:
            return
        self._derive_records()  # under the matrices they were taken with
        states = [self.y[b, :mem.m] for b, mem in enumerate(self.members)]
        for b, mem in enumerate(self.members):
            while mem.pending and mem.pending[0][0] <= self.step_index:
                _, ev = mem.pending.pop(0)
                states[b] = mem.apply_event(ev.action, states[b])
                mem.events_applied.append((self.t, ev.action))
        self._stack(states)

    # -- right-hand side -----------------------------------------------------

    def _nonlinear(self, y, sp):
        """N(y) of stacked split ``sp`` for the flattened batch state y, (B M,),
        or for a stack of such states, (K, B M).  The droop slots are picked
        on the last axis through ``.T``, which on the per-step 1-D state costs
        a tenth of ``[..., dr]``."""
        if self._has_dvoc:
            # c1 and 1/v*^2 are zero outside the oscillator slots.
            out = sp.c1 * (1.0 - (y.real**2 + y.imag**2) * self._inv_vs2) * y
        else:
            out = np.zeros(y.shape, dtype=complex)
        if sp.held:
            out += self._held
        dr = self._dr
        if len(dr):
            # The droop law without trigonometry, as a gain on v: dv/dt =
            # (dr/dt + j r dtheta/dt) v / r.  r is floored at _EPS and v
            # offset by as much, so v = 0 reads as theta = 0.
            v = y.T[dr].T
            r = np.maximum(np.abs(v), _EPS)
            if sp.meas is None:
                i_conj = self._held_droop
            else:
                lead = y.shape[:-1]
                i_conj = np.matmul(sp.meas, y.reshape(lead + (len(sp.meas), -1, 1)))
                i_conj = np.conj(i_conj.reshape(lead + (-1,)))
                if self._dr_rows is not None:
                    i_conj = i_conj.T[self._dr_rows].T
                if sp.held:
                    i_conj = i_conj + self._held_droop
            s = v * i_conj  # p + j q
            p = s.real
            rr = self._b_dr - self._kq * s.imag  # dr/dt + r
            if sp.cap is not None:
                # i_o = i_net + C dv/dt is linear in (dr/dt, dtheta/dt) and
                # solved in closed form; the capacitor adds c r dr/dt to the
                # p that dtheta/dt sees.
                c, kq_c, kpkq_c2 = sp.cap
                r2 = r * r
                rdot = (rr - r + kq_c * r2 * (self._a_dr - self._kp * p)) \
                    / (1.0 + kpkq_c2 * (r2 * r))
                rr, p = rdot + r, p + c * r * rdot
            # Less A's diagonal (-1 + j a_dr) v, as dtheta/dt - a_dr = -kp p.
            out.T[dr] = ((rr / r - self._jkp * p) * (v + _EPS)).T
        return out

    def _outputs(self, y):
        """Instantaneous (v, i_o) of every member's inverters, (B, ns) each,
        for a batch state y, (B, M), or (K, B, ns) each for a stack of them,
        (K, B, M).  i_o includes the capacitor current, whose dv/dt is
        A y + N(y) with the live measurement."""
        ns, y3 = self._ns, y[..., None]
        i_net = np.matmul(self._g, y3)[..., 0]
        if not self._dynamic:
            return y[..., :ns], i_net
        sp = self._live
        n = self._nonlinear(y.reshape(y.shape[:-2] + (-1,)), sp)
        d = np.matmul(sp.a, y3)[..., 0] + n.reshape(y.shape)
        return y[..., :ns], i_net + self._caps * d[..., :ns]

    # -- time stepping -------------------------------------------------------

    def step(self):
        """Apply due events, sample the controller measurement of every
        member with a sample due, then advance one ETDRK4 step of size dt."""
        self._apply_due_events()
        k = self.step_index
        if k >= self._next_hold:
            due = [b for b, mem in self._sampled if mem.stale or k % mem.sample_steps == 0]
            if due:
                self._hold(self._outputs(self.y)[1],
                           None if len(due) == len(self.members) else due)
            for b in due:
                self.members[b].stale = False
            self._next_hold = min(k - k % mem.sample_steps + mem.sample_steps
                                  for _, mem in self._sampled)
        self._step_etdrk4()
        if self._noisy:
            y = self.y.reshape(-1)  # a view: the step's result is contiguous
            for mem, slots in self._noisy:
                y[slots] += mem.noise()
        self.step_index += 1
        self.t = self.step_index * self.config.dt

    def _step_etdrk4(self):
        """One Cox-Matthews (2002) ETDRK4 step on dy/dt = A y + N(y): A is
        propagated exactly and N's stages are weighted by phi-functions of
        hA, so stiff modes see N with the right weight."""
        y, sp, n = self.y, self._stepped, self._nonlinear
        (zy, zn, za, zb, zc), (sa, sb, sc, s) = self._slots, self._stage_in
        (wa, wb, wc, wy), u, uf = self._etd, self._stage_out, self._stage_flat
        zy[...] = y
        zn.flat = n(y.reshape(-1), sp)
        np.matmul(wa, sa, out=u)
        za.flat = n(uf, sp)
        np.matmul(wb, sb, out=u)
        zb.flat = n(uf, sp)
        np.matmul(wc, sc, out=u)
        zc.flat = n(uf, sp)
        self.y = np.matmul(wy, s)[..., 0]

    def _diverged(self, y, step):
        """Raise SimulationDiverged for the non-finite batch state y at
        ``step``: the first member with a non-finite entry and its inverter
        of largest |v|, a non-finite one first."""
        b = int(np.argmin(np.isfinite(y).all(axis=1)))
        mem = self.members[b]
        with np.errstate(invalid="ignore"):
            mags = np.abs(y[b, :mem.ns])
        bad = ~np.isfinite(mags)
        worst = int(np.argmax(np.where(bad, np.inf, mags)))
        raise SimulationDiverged(step * self.config.dt, mem.ids[worst], float(mags[worst]),
                                 step, b, getattr(mem.scenario, "name", ""))

    def _derive_records(self):
        """Check the pending record states finite and turn them into v and
        i_o, all in one pass.  Runs before every restack and every
        RECORD_BLOCK records, so all pending states share the stacked
        matrices they were taken with."""
        if not self._pending:
            return
        ys, first = np.stack(self._pending), self._derived
        self._pending = []
        finite = np.isfinite(ys).all(axis=(1, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            self._diverged(ys[k], (first + k) * self.config.record_decimation)
        self._derived += len(ys)
        v, i_o = self._outputs(ys)
        self._records[0, :, first:self._derived] = v.swapaxes(0, 1)
        self._records[1, :, first:self._derived] = i_o.swapaxes(0, 1)

    def run(self):
        """Integrate from t = 0 to t_end and return the Trace, or one Trace
        per member for a batch."""
        cfg = self.config
        if self.step_index != 0:
            raise RuntimeError("run() must be called on a fresh Simulation")
        n_steps = int(round(cfg.t_end / cfg.dt))
        decim = cfg.record_decimation
        n_rec = n_steps // decim + 1
        # v and i_o of every (member, record, inverter).
        self._records = np.empty((2, len(self.members), n_rec, self._ns), dtype=complex)
        self._derived = 0

        self._apply_due_events()
        # Each step makes a new state array, so a record is a reference to
        # it, derived later in bulk.  Overflow en route to a detected
        # divergence is expected; the finite checks turn it into a
        # diagnostic instead of warning spam.
        with np.errstate(over="ignore", invalid="ignore"):
            self._pending.append(self.y)
            for _ in range(n_steps):
                self.step()
                if self.step_index % decim == 0:
                    self._pending.append(self.y)
                    if len(self._pending) == RECORD_BLOCK:
                        self._derive_records()
            self._derive_records()
            if not np.isfinite(self.y).all():
                self._diverged(self.y, self.step_index)
        t = np.arange(n_rec) * decim * cfg.dt
        traces = _finalize_traces(t, self._records[0], self._records[1], self.members,
                                  n_steps)
        return traces[0] if self._single else traces


def _describe_action(action):
    return f"{type(action).__name__} {vars(action)}" if hasattr(action, "__dict__") \
        else repr(action)


def run_scenario(scenario, config=None):
    """Integrate a scenario from t = 0, applying its events, and return the Trace."""
    return Simulation(scenario, config).run()
