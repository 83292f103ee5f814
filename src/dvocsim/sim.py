"""Integration of the coupled controller + network system.

A ``Simulation`` integrates a batch of members, one scenario each, on one
step grid (dt, t_end, record decimation and network model); a single run is
the batch of one.  A member's state is one complex vector, alpha + j beta:
the terminal voltage v of every inverter in ``scenario.inverters`` order,
then, in the dynamic network model, the branch currents in
``DynamicNetwork.branch_ids`` order.  Every matrix of the control law
commutes with rotations, so rotation by kappa is multiplication by
exp(j kappa).  ``Simulation.y`` is (B, M): member b's state in row b, padded
with zeros to the widest member.  Each member keeps its own parameters,
topology, event timeline, controller sampling and noise generator, seeded as
its single run would be.

Every configuration is split into dy/dt = A y + N(y) (``_Split``).  A is
constant between events: the rotation, the set-point gain, the network, the
branch R/L, the capacitor feedthrough where the controllers measure the live
current, and the linear part -1 + j (omega0 + kp p*) of the droop law.  N
holds the rest: the cubic amplitude term (c1 - c1v |v|^2) v, the remainder
of the droop law, evaluated without trigonometry, and in sampled mode the
held measurement.  (Moving the cubic's linear part c1 v into A would make N
large on the limit cycle and the built-ins' step-size error 50 to 45 000
times larger.)  The filter capacitor sits behind the current measurement,
so the measured current contains C dv/dt; that algebraic loop is solved
exactly, in A for the oscillators and in closed form in N for the droop laws.

Each step is one Cox-Matthews ETDRK4 step of r dt (``_stepper``, its
weights from ``_stages``), so the fast branch-current pole does not bound
the step.  r is the compile segment's K, ``SimConfig.step_multiple`` or else
chosen by a step-doubling estimate (``_size``), shortened to end at the next
event, controller sample or t_end.  Events are applied between compile
segments (``_apply_due_events``).  One loop, ``_advance``, takes the steps of
a segment, every array and callable they touch bound once per segment:
each step holds the live measurement of the controllers with a sample due,
adds the additive noise, carried across the step exactly by the linear
flow, and records on the dt grid, each derived in the step that takes it:
the step's ETDRK4 continuous extension (``_dense``) plus its noise inside
the step, the stepped state at its end.  ``step()`` is that loop stopped
after one step, ``run()`` the loop from t = 0 to t_end.
"""

import functools
import itertools
import math
from dataclasses import field, replace

import numpy as np
# N's ufuncs as module names: an attribute of the numpy module costs about
# 35 ns a lookup, and a step's N calls look up some 60.
from numpy import absolute, add, divide, maximum, multiply, subtract

from .control import DvocParams, DroopParams
from .network import DynamicNetwork, SetPointUpdate, apply_event, reduced_admittance
from .numerics import expm
from .values import value_type


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
# Cap on step_multiple; each restack builds one dense weight matrix per offset.
MAX_STEP_MULTIPLE = 100
# Largest step, in dt, that the accuracy control takes, and the step-doubling
# estimate of a step, relative to the scale of the state, that it must meet.
MAX_RUNG = 64
STEP_TOL = 1e-9


def _number(value, kind=(int, float)):
    """A finite ``kind``, not a bool: the scenario parser's rule."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and -math.inf < value < math.inf)


@value_type(frozen=True)
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
    noise_amplitude     -- additive noise on the oscillator voltage states,
                           drawn per dt step, V/sqrt(s); 0 disables
    step_multiple       -- None or k.  k: each integrator step is k dt
                           long; None: k is chosen by accuracy per compile
                           segment (``Simulation``).  Either way a step is
                           shortened to end at the next event, controller
                           sample or t_end.  Records stay on the dt grid,
                           and noise works at any step size
    """

    dt: float = 1e-5
    t_end: float = 1.0
    controller_sample_hz: float = None
    network_model: str = "dynamic"
    record_decimation: int = 10
    noise_seed: int = 0
    noise_amplitude: float = 0.0
    step_multiple: int = None

    def __post_init__(self):
        if not (_number(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if not (_number(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be > 0, got {self.t_end}")
        steps = self.t_end / self.dt
        if not (math.isfinite(steps) and 1 <= round(steps) <= MAX_STEPS):
            raise ValueError(f"t_end/dt = {steps:g} must round to between 1 and {MAX_STEPS} steps")
        if self.network_model not in ("dynamic", "quasistatic"):
            raise ValueError(f"unknown network model {self.network_model!r}")
        if not (_number(self.record_decimation, int) and self.record_decimation >= 1):
            raise ValueError("record_decimation must be an integer >= 1")
        if not (_number(self.noise_seed, int) and self.noise_seed >= 0):
            raise ValueError("noise_seed must be an integer >= 0")
        if not (_number(self.noise_amplitude) and self.noise_amplitude >= 0.0):
            raise ValueError("noise_amplitude must be >= 0")
        if self.controller_sample_hz is not None:
            if not _number(self.controller_sample_hz):
                raise ValueError(f"controller_sample_hz must be a number, "
                                 f"got {self.controller_sample_hz!r}")
            period = self.controller_sample_hz * self.dt
            steps = 1.0 / period if period > 0.0 else math.inf
            if not 1.0 - 1e-9 <= steps < math.inf or abs(steps - round(steps)) > 1e-6 * steps:
                raise ValueError(
                    f"controller sample interval 1/(f_c dt) = {steps:g} must be a "
                    "whole number of steps >= 1")
        k = self.step_multiple
        if k is not None and not (_number(k, int) and 1 <= k <= MAX_STEP_MULTIPLE):
            raise ValueError(f"step_multiple must be an integer from 1 to {MAX_STEP_MULTIPLE}")

    @property
    def sample_steps(self):
        if self.controller_sample_hz is None:
            return None
        return int(round(1.0 / (self.controller_sample_hz * self.dt)))

    def event_step(self, time):
        """The dt step at which an event at ``time`` s is applied, the first
        dt step at or after it, or None if the run ends first."""
        x = time / self.dt - 1e-9
        if not x <= round(self.t_end / self.dt) - 1:
            return None
        return max(0, math.ceil(x))


@value_type(frozen=True)
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

# Steps of noise drawn per generator call, and derived records turned into
# v and i_o per block of the step loop.
NOISE_BLOCK = 256
RECORD_BLOCK = 256

# Floor of a droop inverter's |v| and the offset that gives v = 0 a direction:
# v + _EPS == v once |Re v| >= 2^-446, and v*/_EPS stays finite.
_EPS = 2.0**-500


@value_type
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


def _finalize_traces(t, v, i_o, members, n_steps, stats):
    """One Trace per member from the (member, record, inverter) buffers; a
    member's v and i_o are views of them.  ``stats`` holds the batch's
    steps per rung, compile segments, restacks and samples that filled
    stage 1, and each member's samples (``Simulation.run``); a member
    without sampled controllers reports no stage-1 fills."""
    traces = []
    for b, mem in enumerate(members):
        vb, ib = v[b, :, :mem.ns], i_o[b, :, :mem.ns]
        s = np.conj(vb) * ib
        np.negative(s.imag, out=s.imag)  # q = -Im(conj(v) i_o) beside p, in place
        cfg = mem.config
        meta = {
            "dt": cfg.dt,
            "t_end": n_steps * cfg.dt,
            "network_model": cfg.network_model,
            "controller_sample_hz": cfg.controller_sample_hz,
            "noise_seed": cfg.noise_seed,
            "noise_amplitude": cfg.noise_amplitude,
            "scenario": getattr(mem.scenario, "name", ""),
            "step_multiple": cfg.step_multiple,
            "steps": sum(stats["steps_per_rung"].values()),
            "stats": {"steps_per_rung": dict(stats["steps_per_rung"]),
                      "segments": [dict(seg) for seg in stats["segments"]],
                      "samples": stats["samples"][b],
                      "stage1_filled": stats["stage1_filled"] if mem.sample_steps else 0,
                      "restacks": [dict(rs, members=list(rs["members"]))
                                   for rs in stats["restacks"]],
                      "n_evals": dict(stats["n_evals"])},
        }
        events = [(time, f"{type(a).__name__} {vars(a)}") for time, a in mem.events_applied]
        traces.append(Trace(
            t=t, v=vb, i_o=ib, p=s.real, q=s.imag, vmag=np.abs(vb),
            theta=np.unwrap(np.angle(vb), axis=0),
            inverter_ids=list(mem.ids), events=events,
            dt_sample=cfg.dt * cfg.record_decimation, meta=meta))
    return traces


def _chain_rows(a, s, n):
    """The top block rows of exp(iZ) = exp(Z)^i for i = 1, ..., n, Z as in
    ``_phi_chain``: one matrix exponential and n - 1 products."""
    m = a.shape[-1]
    w = _phi_chain(a, s)
    return list(itertools.accumulate([w[..., :m, :]] + [w] * (n - 1), np.matmul))


def _stages(rows, h, k):
    """Cox-Matthews ETDRK4's four stage matrices for dy/dt = a y + N(y), a
    step of h = 2 k s, for a matrix a or each of a stack, from the chain
    rows of ``_chain_rows`` at s, rows 1 to 2k used.

    The top block row of exp(iZ) = exp(Z)^i, Z as in ``_phi_chain``, is
    [exp(theta ha), i phi_1, i^2 phi_2, i^3 phi_3] of theta ha, theta = i /
    2k, so one matrix exponential and its powers give every weight, of
    every step of 2 s r for r up to half the chain's length.  With E2 =
    exp(ha/2), E = exp(ha) and P = (h/2) phi_1(ha/2) from i = k and 2k, and
    the stage vector z = [y, N(y), N(a), N(b), N(c)], one step is
        a  = [E2, P] z,      b = [E2, 0, P] z,
        c  = [E, E2 P - P, 0, 2P] z   (= E2 a + P (2 N(b) - N(y))),
        y' = W_k z,
    the last stage matrix being the continuous extension at theta = 1."""
    m = rows[0].shape[-2]
    half = rows[k - 1]
    e2, e, p = half[..., :m], rows[2 * k - 1][..., :m], 0.5 * h / k * half[..., m:2 * m]
    zero = np.zeros_like(p)
    return (np.concatenate([e2, p], axis=-1), np.concatenate([e2, zero, p], axis=-1),
            np.concatenate([e, e2 @ p - p, zero, 2.0 * p], axis=-1),
            _extension(rows[2 * k - 1], h, 2 * k))


def _dense(rows, h, k):
    """The continuous extension (Hochbruck & Ostermann 2010) of the same
    step at its offsets theta = j / k, W_1, ..., W_k as one stacked array,
    (k, ..., M, 5 M): the state at t + theta h is W_j z, W_k being the
    step's last stage matrix."""
    return _extension(np.stack(rows[1:2 * k:2]), h, 2 * k)


def _phi_chain(a, s):
    """exp(Z) for Z = [[s a, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0], whose
    top block row is [exp(sa), phi_1(sa), phi_2(sa), phi_3(sa)], for a
    matrix a or each of a stack."""
    m = a.shape[-1]
    z = np.zeros(a.shape[:-2] + (4 * m, 4 * m), dtype=complex)
    z[..., :m, :m] = s * a
    for k in range(3):
        z[..., k * m:(k + 1) * m, (k + 1) * m:(k + 2) * m] = np.eye(m)
    return expm(z)


def _extension(row, h, k):
    """ETDRK4's continuous extension at theta = j / k from the top block row
    of exp(jZ), Z as in ``_phi_chain`` with s = h / k:
        W_j = [exp(theta ha), h b1, h b23, h b23, h b4],
        b1 = theta phi_1 - 3 theta^2 phi_2 + 4 theta^3 phi_3,
        b23 = 2 theta^2 phi_2 - 4 theta^3 phi_3,  b4 = 4 theta^3 phi_3 - theta^2 phi_2,
    each phi of theta ha."""
    m = row.shape[-2]
    # theta^i phi_i(theta ha) = j^i phi_i / k^i
    p1, p2, p3 = (row[..., i * m:(i + 1) * m] / k**i for i in (1, 2, 3))
    b23 = h * (2.0 * p2 - 4.0 * p3)
    return np.concatenate([row[..., :m], h * (p1 - 3.0 * p2 + 4.0 * p3), b23, b23,
                           h * (4.0 * p3 - p2)], axis=-1)


def _real_form(m, conj=False):
    """The real matrix, (..., 2 R, 2 C), of the complex (..., R, C) m on
    interleaved (real, imaginary) pairs: x.view(float) to (m x).view(float),
    or with ``conj`` to conj(m x).view(float), so a conjugate needs no call
    of its own."""
    out = np.empty(m.shape[:-2] + (2 * m.shape[-2], 2 * m.shape[-1]))
    sign = -1.0 if conj else 1.0
    out[..., 0::2, 0::2], out[..., 0::2, 1::2] = m.real, -m.imag
    out[..., 1::2, 0::2], out[..., 1::2, 1::2] = sign * m.imag, sign * m.real
    return out


def _padded(arrays, shape):
    """The arrays stacked as (len(arrays),) + shape, each in the leading
    corner of its slice, zero elsewhere."""
    out = np.zeros((len(arrays),) + shape, dtype=np.result_type(*arrays))
    for b, a in enumerate(arrays):
        out[(b,) + tuple(slice(k) for k in a.shape)] = a
    return out


class _Member:
    """One scenario of a batch: its parameters, topology, event timeline,
    noise generator, and the coefficients and A matrices of its model over
    its own state (inverter voltages, then branch currents)."""

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
        self.noise_scale = config.noise_amplitude * math.sqrt(config.dt)
        self.pending = []  # (dt step, event) of every event the run reaches
        for ev in sorted(scenario.events, key=lambda e: e.time):
            step = config.event_step(ev.time)
            if step is not None:
                self.pending.append((step, ev))
        self.events_applied = []
        self.branch_ids = []

    @functools.cached_property
    def rng(self):
        """The member's generator, seeded with ``noise_seed``.  Made on first
        use, because importing ``numpy.random`` costs about 10 ms and a
        run without black start or noise never draws."""
        return np.random.default_rng(self.config.noise_seed)

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

    def draw_noise(self):
        """The additive noise on the oscillator slots, alpha + j beta, of the
        next NOISE_BLOCK dt steps, one row each: the same numbers as one
        ``standard_normal(2 n)`` call per dt step."""
        w = self.rng.standard_normal((NOISE_BLOCK, 2 * len(self.dvoc_pos)))
        return (self.noise_scale * w).view(complex)

    def compile(self, y):
        """Rebuild the coefficients and A, live and held, for the current
        topology and parameter set; returns the state y with the branch
        currents carried over by branch id."""
        def param(name, pos):
            return np.array([getattr(self.params[k], name) for k in pos])

        # Oscillator controller coefficients, vectorized over dvoc inverters.
        # Finite parameters may still overflow here; _check_finite names the
        # inverter.
        dv, dr = self.dvoc_pos, self.droop_pos
        with np.errstate(over="ignore", invalid="ignore"):
            eta, ek = param("eta", dv), np.exp(1j * param("kappa", dv))
            self.inv_vs2 = 1.0 / param("v_star", dv)**2
            self.c0 = 1j * param("omega0", dv) \
                + eta * ek * (param("p_star", dv) - 1j * param("q_star", dv)) * self.inv_vs2
            self.c1 = eta * param("alpha", dv)
            self.c2 = eta * ek
            # Droop law: dtheta/dt = a_dr - kp p, dr/dt = b_dr - r - kq q.
            self.kp, self.kq = param("kp", dr), param("kq", dr)
            self.a_dr = param("omega0", dr) + self.kp * param("p_star", dr)
            self.b_dr = param("v_star", dr) + self.kq * param("q_star", dr)

        # Network as matrices over the state y: the current into the network
        # at each inverter terminal, cap current excluded, is g @ y, and the
        # branch-current derivatives are branch @ y.
        # The terminal capacitances outside the network model: the
        # quasi-static network's reduced admittance holds them already.
        ns = self.ns
        if self.dynamic:
            net = DynamicNetwork(self.topology)
            g, self.branch, ids = net.injection, net.branch_rates, net.branch_ids
            for bid, row in zip(ids, self.branch):
                if not np.isfinite(row).all():
                    raise ValueError(f"branch {bid!r}: R/L overflows float64")
            self.caps = np.array([self.topology.shunt_caps.get(n, 0.0)
                                  for n in self.topology.inverter_nodes])
        else:
            g = reduced_admittance(self.topology, self.omega_nominal)
            self.branch, ids = np.zeros((0, ns)), []
            self.caps = np.zeros(ns)
        self.g = g.astype(complex)
        carry = dict(zip(self.branch_ids, y[ns:]))
        y = np.concatenate([y[:ns], [carry.get(b, 0j) for b in ids]])
        self.branch_ids = ids
        self.m = len(y)

        # The live current's feedthrough: the capacitor loop, solved exactly.
        # A loop gain past float64 (a vast terminal capacitor) takes the
        # exact limit: nothing is fed through.
        with np.errstate(over="ignore", invalid="ignore"):
            loop = self.c2 * self.caps[dv]
            self.feed = 1.0 / (1.0 + loop)
            self.feed[~np.isfinite(loop)] = 0.0
            self.a_live = self._a(live=True)
            self.a_held = None if self.sample_steps is None else self._a(live=False)
        self._check_finite()
        return y

    def _check_finite(self):
        """Reject the first inverter whose controller coefficients or row
        of A overflowed float64."""
        ok = np.ones(self.ns, dtype=bool)
        ok[self.dvoc_pos] = np.isfinite([self.c0, self.c1, self.c2]).all(axis=0)
        ok[self.droop_pos] = np.isfinite([self.a_dr, self.b_dr]).all(axis=0)
        for a in (self.a_live, self.a_held):
            if a is not None:
                ok &= np.isfinite(a[:self.ns]).all(axis=1)
        if not ok.all():
            raise ValueError(f"inverter {self.ids[np.argmin(ok)]!r}: controller "
                             "coefficients overflow float64")

    def _a(self, live):
        """A, with the controllers measuring the live current or the held one."""
        dv, dr, m = self.dvoc_pos, self.droop_pos, self.m
        a = np.zeros((m, m), dtype=complex)
        a[self.ns:] = self.branch
        feed = self.feed if live else 1.0
        if live:
            a[dv] = -(feed * self.c2)[:, None] * self.g[dv]
        a[dv, dv] += feed * self.c0
        a[dr, dr] = -1.0 + 1j * self.a_dr
        return a

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


class _Split:
    """The model of a batch: dy/dt = A y + N(y) over its flattened state
    (B M,), each member's slots padded with zeros to the widest state M and
    zero in every constant.  With ``live`` every controller measures the
    live current; else a member with sampled controllers measures the held
    one, which a sample sets and a restack carries over from ``prev``.

    a, c1, c1v -- A, (B, M, M), and the cubic's gain c1 - c1v |v|^2 per slot,
                  real where no member's oscillator gain is (every held model)
    g, caps, neg_c2 -- network injection, terminal capacitances outside the
                  network model and minus the oscillator current gains
    droop, floor -- whether any slot holds a droop inverter; _EPS per slot
    a_dr, b_dr, kp, kq, eps -- per slot, zero off the droop slots: the
                  constants of the droop law and the offset _EPS of v
    meas, cap  -- (B, 2 M, 2 M), the real form of -j conj(i_o) from the
                  droop rows of the live current, cap current excluded
                  (None: every droop law is held), and kq c + j kp c of
                  each droop terminal's capacitance c (None: no live loop)
    _holds     -- (2, B, M), the held values: -c2 i_o, then -j conj(i_o),
                  zero off the inverter slots
    """

    def __init__(self, members, width, live, prev=None):
        n, ns = len(members), max(mem.ns for mem in members)
        self.ns, self.dynamic = ns, members[0].dynamic
        # Whether each member's controllers measure the live current here.
        lives = [live or mem.sample_steps is None for mem in members]
        self.held = not all(lives)
        self.a = _padded([mem.a_live if lv else mem.a_held for mem, lv in zip(members, lives)],
                         (width, width))
        self.g = _padded([mem.g for mem in members], (ns, width))
        self.caps = _padded([mem.caps for mem in members], (ns,))
        self.droop = any(len(mem.droop_pos) for mem in members)
        c1, c1v, eps = np.zeros((3, n, width), dtype=complex)
        law = np.zeros((5, n, width))  # a_dr, b_dr, kp, kq and c of the droop laws
        self.neg_c2 = np.zeros((n, ns), dtype=complex)
        meas = np.zeros((n, width, width), dtype=complex)
        for b, (mem, lv) in enumerate(zip(members, lives)):
            dv, dr = mem.dvoc_pos, mem.droop_pos
            c1[b, dv] = (mem.feed if lv else 1.0) * mem.c1
            c1v[b, dv] = c1[b, dv] * mem.inv_vs2
            self.neg_c2[b, dv] = -mem.c2
            law[:4, b, dr] = mem.a_dr, mem.b_dr, mem.kp, mem.kq
            eps[b, dr] = _EPS
            if lv:
                meas[b, dr, :mem.m] = 1j * mem.g[dr]
                law[4, b, dr] = mem.caps[dr]
        if not c1.imag.any():
            c1, c1v = c1.real.copy(), c1v.real.copy()
        self.c1, self.c1v, self.eps = c1.reshape(-1), c1v.reshape(-1), eps.reshape(-1)
        self._real_c1 = c1.dtype == float
        self.a_dr, self.b_dr, self.kp, self.kq, c = law.reshape(5, -1)
        self.floor = np.full(n * width, _EPS)
        # Interleaved (real, imag) pairs (-kq, kp) and (b_dr, 0).
        self._kqp, self._b_dr = (-self.kq + 1j * self.kp).view(float), (self.b_dr + 0j).view(float)
        # conj(j g y) = -j conj(i_net): the conjugate folded into the rows.
        self.meas = _real_form(meas, conj=True) if self.droop and any(lives) else None
        self.cap = self.kq * c + 1j * self.kp * c if c.any() else None

        self._holds = np.zeros((2, n, width), dtype=complex)
        if prev is not None:  # held values sit in the inverter slots
            self._holds[..., :ns] = prev._holds[..., :ns]
        self._held, self._held_rot = self._holds.reshape(2, -1)
        self._evaluators = {}  # N per input shape

    def nonlinear(self, y, out=None):
        """N(y) for the flattened batch state y, (B M,), or for a stack of
        such states, (K, B M), its last product written into ``out`` if
        given (``evaluator``)."""
        return self.evaluator(y.shape)(y, out)

    def evaluator(self, shape):
        """N for inputs of one shape, as a function n(y, out=None), made on
        the first call with that shape and reused by every later one, its
        constants and work arrays bound.  n writes its last product into
        ``out`` if given: y's shape or a (B, M) stage slot.  N is the
        cubic's gain on v; with a droop slot, the droop law joins that gain,
        its terms exactly 0 off the droop slots.  Every intermediate lives
        in the work arrays; the result is ``out`` or a fresh array, never
        one of them."""
        n = self._evaluators.get(shape)
        if n is not None:
            return n
        # |v| and |v|^2 (r and r^2 beside a droop law) and the cubic's gain,
        # in real arithmetic where c1 is real, else on |v|^2 as the real
        # part of a complex array whose imaginary part stays 0: either way
        # one dtype per call.  Beside a droop law r is floored at _EPS; it
        # differs from |v| only below _EPS, where c1v r^2 rounds off c1 as
        # c1v |v|^2 does.
        c1, c1v, held, droop, meas, cap, is_held, floor, a_dr, eps = (
            self.c1, self.c1v, self._held, self.droop, self.meas, self.cap, self.held,
            self.floor, self.a_dr, self.eps)
        r, r2c, gain = np.empty(shape), np.zeros(shape, dtype=complex), np.empty(shape, c1.dtype)
        r2 = np.empty(shape) if self._real_c1 and cap is None else r2c.real
        r2_gain = r2 if self._real_c1 else r2c
        if droop:
            # t = q - j p, its (q, -p) pairs, q and -p, the array the
            # cubic's gain is added to (q where it is real), and v offset;
            # the live capacitor loop's h + j k, denominator and numerator.
            den, num = np.empty((2,) + shape)
            t, w_eps, hk = np.empty((3,) + shape, dtype=complex)
            u, re, im, h, k = t.view(float), t.real, t.imag, hk.real, hk.imag
            into = re if self._real_c1 else t
            held_rot, kqp, b_dr = self._held_rot, self._kqp, self._b_dr
            # The live current's product on (real, imaginary) pairs: a real
            # gemv on one member's flat state, else np.matmul of the
            # batch's matrices on (..., B, 2 M, 1) stacks of its states.
            if meas is not None:
                col = (-1,) if len(shape) == 1 and len(meas) == 1 else \
                    shape[:-1] + (len(meas), -1, 1)
                meas_y = meas[0].dot if col == (-1,) else functools.partial(np.matmul, meas)
                t_col = u.reshape(col)

        def n(y, out=None):
            absolute(y, r)
            if droop:
                maximum(r, floor, out=r)
            multiply(r, r, r2)
            multiply(c1v, r2_gain, gain)
            subtract(c1, gain, gain)
            g, w, h_out = gain, y, held
            if droop:
                # The droop law without trigonometry, as a gain on v: dv/dt
                # = (dr/dt + j r dtheta/dt) v / r.  v is offset by _EPS, so
                # v = 0 reads as theta = 0.  t = -j v conj(i_o) = q - j p:
                # the exact quarter turn of s = p + j q puts q, the term
                # that r divides, in the real part.
                if meas is None:
                    multiply(y, held_rot, t)
                else:
                    meas_y(y.view(float).reshape(col), t_col)
                    if is_held:
                        add(t, held_rot, t)
                    multiply(y, t, t)
                # u: (q, -p) per slot, re: q, im: -p
                multiply(u, kqp, u)
                add(u, b_dr, u)  # (b_dr - kq q, -kp p) = (dr/dt + r, -kp p)
                # Less A's diagonal (-1 + j a_dr) v, the gain is (dr/dt + r)
                # / r + j (dtheta/dt - a_dr), dtheta/dt - a_dr = -kp p.
                if cap is None:
                    divide(re, r, re)
                else:
                    # i_o = i_net + C dv/dt adds c r dr/dt to p and -c r^2
                    # dtheta/dt to q, linear in both rates.  In closed form,
                    # with h = kq c r^2 and k = kp c r^2 from one complex
                    # product and G = (dr/dt + r) / r,
                    #   G = (b_dr - kq q + h (a_dr - kp p + k)) / (r + h k),
                    #   dtheta/dt - a_dr = -kp p + k - k G,
                    # both exactly 0 off the droop slots.
                    multiply(cap, r2c, hk)
                    multiply(h, k, den)
                    add(den, r, den)
                    add(im, k, im)
                    add(a_dr, im, num)
                    multiply(num, h, num)
                    add(re, num, re)
                    divide(re, den, re)
                    multiply(k, re, num)
                    subtract(im, num, im)
                add(into, gain, into)  # plus the cubic's gain: into re, or into t if complex
                g, w = t, w_eps
                add(y, eps, w_eps)
            if out is not None and out.ndim != len(shape):  # a slot with no 1-D view
                g, w, h_out = (x.reshape(out.shape) for x in (g, w, h_out))
            out = multiply(g, w, out)
            if is_held:
                add(out, h_out, out)
            return out
        self._evaluators[shape] = n
        return n

    def rate(self, y):
        """dy/dt = A y + N(y) for a batch state y, (B, M), or a stack of
        them, (K, B, M)."""
        n = self.nonlinear(y.reshape(y.shape[:-2] + (-1,)))
        return np.matmul(self.a, y[..., None])[..., 0] + n.reshape(y.shape)

    def outputs(self, y):
        """Instantaneous (v, i_o) of every member's inverters, (B, ns) each,
        for a batch state y, (B, M), or (K, B, ns) each for a stack of them,
        (K, B, M).  i_o includes the capacitor current, whose dv/dt is
        ``rate(y)`` of the live model."""
        ns = self.ns
        i_net = np.matmul(self.g, y[..., None])[..., 0]
        if not self.dynamic:
            return y[..., :ns], i_net
        return y[..., :ns], i_net + self.caps * self.rate(y)[..., :ns]


class _Stages:
    """One of a pair of buffers of ETDRK4 stage vectors z = [y, N(y), N(a),
    N(b), N(c)], (B, 5 M), with the views of it that a step's products read
    and write.  A step reads its y here and writes the next y into the y
    slot of ``other``, the pair's other buffer, made with this one, so no
    step copies its state and the z of the last step stays whole for the
    records inside it.  The product views have the shape ``col``: 1-D for
    ``ndarray.dot`` (BLAS gemv) at B = 1, else (B, ..., 1) for np.matmul.

    y      -- the y slot, (B, M)
    stages -- the four N slots, each as a 1-D view where it has one (B = 1
              or M = 1), which numpy writes as fast as a contiguous array, a
              2-stride slot slower; the parts of z that the four stages
              multiply, the last z whole; and the other buffer's y slot as
              the last stage writes it
    views  -- what a step from here touches besides: this buffer, y, stage
              1's N slot, z whole, [y, N(y)] as (real, imaginary) pairs (a
              sample's input), stage 1's N slot over the inverter slots, (B,
              ns), and the other buffer's y
    """

    __slots__ = ("y", "z", "other", "stages", "views")

    def __init__(self, n, width, ns, col, other=None):
        self.z = z = np.zeros((n, 5 * width), dtype=complex)
        slots = [z[:, k * width:(k + 1) * width] for k in range(5)]
        self.y = slots[0]
        self.other = _Stages(n, width, ns, col, self) if other is None else other
        self.stages = (*(s.reshape(-1) if 1 in s.shape else s for s in slots[1:]),
                       *(z[:, :c * width].reshape(col) for c in (2, 3, 4, 5)),
                       self.other.y.reshape(col))
        self.views = (self, self.y, self.stages[0], self.stages[-2],
                      z[:, :2 * width].view(float).reshape(col), slots[1][:, :ns], self.other.y)


class Simulation:
    """One compiled simulation run over a batch of scenarios.  Construct,
    then ``run()`` (or ``step()``).

    ``Simulation(scenario)`` runs one scenario and ``run()`` returns its
    Trace; ``Simulation([s1, ..., sB])`` runs B members and ``run()`` returns
    their Traces in member order.  ``config`` replaces every member's
    ``scenario.sim``.  Members must share one step grid (dt, t_end, record
    decimation, network model, step multiple), else ValueError; controller
    sampling, noise and seed are their own.  ``config`` reads as member 0's.
    ``model`` is the batch's model as stepped, ``live_model`` the one whose
    ``outputs`` are recorded: one object unless a member samples.
    """

    def __init__(self, scenarios, config=None):
        self._single = not isinstance(scenarios, (list, tuple))
        scenarios = [scenarios] if self._single else list(scenarios)
        if not scenarios:
            raise ValueError("a simulation needs at least one scenario")
        configs = [config if config is not None else s.sim for s in scenarios]
        self.config = configs[0]
        names = ("dt", "t_end", "record_decimation", "network_model", "step_multiple")
        for b, cfg in enumerate(configs):
            diff = [name for name in names if getattr(cfg, name) != getattr(self.config, name)]
            if diff:
                raise ValueError(f"member {b} does not share the step grid of member 0: "
                                 f"{', '.join(diff)} differ")
        self.members = [_Member(s, cfg) for s, cfg in zip(scenarios, configs)]
        self.step_index = 0  # in dt steps; a step of r dt advances it by r
        self._n_steps = round(self.config.t_end / self.config.dt)
        # Each member that samples its controllers with its sample interval,
        # each member's dt step of its next sample (inf: unsampled), the
        # earliest of them, and which members the last sample held.
        self._grids = [(b, m.sample_steps) for b, m in enumerate(self.members) if m.sample_steps]
        self._sample_at = [0 if mem.sample_steps else math.inf for mem in self.members]
        self._next_hold = min(self._sample_at)
        self._due = np.zeros(len(self.members), dtype=bool)
        self._noisy = [(b, mem) for b, mem in enumerate(self.members)
                       if mem.config.noise_amplitude > 0.0 and len(mem.dvoc_pos)]
        # The dt steps of the noise block's first row and of the row after
        # its last drawn one.
        self._noise_at = self._noise_end = 0
        # Run stats, counted per step, sample or restack: steps taken per
        # rung, per compile segment its dt step, K and step-doubling
        # estimate, the restacks at events, each member's samples and the
        # samples whose live N filled stage 1; and the batch's samples,
        # step-doubling estimates and record blocks (``run``'s N
        # evaluations).  Then the dt step of the next record: none outside
        # ``run``.
        self._rung_steps = [0] * (max(MAX_RUNG, MAX_STEP_MULTIPLE) + 1)
        self._segments, self._restacks = [], []
        self._samples, self._filled = [0] * len(self.members), 0
        self._sample_events, self._estimates, self._blocks, self._record_at = 0, 0, 0, math.inf
        self.model = self._noise = None
        self._stack([mem.compile(mem.initial_state()) for mem in self.members])

    @property
    def t(self):
        """The time reached, s."""
        return self.step_index * self.config.dt

    # -- batch ---------------------------------------------------------------

    def _stack(self, states):
        """Stack the members' states, models and step matrices over the
        batch, each padded with zeros to the widest state, and open a
        compile segment whose K the next step sizes.  The padded A is block
        diagonal: exp(0) = 1 and phi_k(0) = 1/k! on a padded slot only
        multiply padded slots of y and N, which are exactly 0, and every
        weight between a member's slots and its padding is exactly 0, so a
        padded slot stays 0."""
        ms, n, dt = self.members, len(self.members), self.config.dt
        width = max(len(y) for y in states)
        self.y = _padded(states, (width,))
        self.live_model = _Split(ms, width, live=True)
        ns = self.live_model.ns
        self.model = _Split(ms, width, live=False, prev=self.model) \
            if self._grids else self.live_model
        self._next_event = min((mem.pending[0][0] for mem in ms if mem.pending),
                               default=math.inf)
        # The next step that ends a step whatever K is: an event, t_end or
        # (with it) a sample.
        self._end = min(self._next_event, self._n_steps)
        self._stop = min(self._end, self._next_hold)
        # The segment's largest rung: step_multiple, else the largest power
        # of two within MAX_RUNG, every sample interval and the segment (of
        # no step when an event is due at t = 0, before the first restack).
        top = self.config.step_multiple
        if top is None:
            span = min([MAX_RUNG, self._end - self.step_index]
                       + [mem.sample_steps for mem in ms if mem.sample_steps])
            top = 1 << (max(span, 1).bit_length() - 1)
        # One chain at s = dt / 2 gives every rung's weights up to 2 top,
        # the step-doubling estimate's largest (``_size``).
        self._rows = _chain_rows(self.model.a, 0.5 * dt, 4 * top)
        self._top, self._rungs, self._K = top, {}, None
        # A single run multiplies 2-D matrices, each its stack's one entry
        # (``_pick``), with 1-D vectors through ndarray.dot, BLAS gemv at
        # about half the fixed cost of the batch's stacked np.matmul, and as
        # exact: both sum in gemv's order.  ``_col`` is the vectors' shape.
        self._pick, self._mul, self._col = (0, np.ndarray.dot, (-1,)) if n == 1 \
            else (..., np.matmul, (n, -1, 1))
        # Each member's voltage and branch-current slots, the two groups of
        # the estimate's scale.
        slot = np.arange(width)
        ends = np.array([(mem.ns, mem.m) for mem in ms])
        self._groups = np.stack([slot < ends[:, :1], (slot >= ends[:, :1]) & (slot < ends[:, 1:])])
        if self._noisy:
            # The noisy members' additive noise over the whole batch state,
            # one row per dt step, zero off the oscillator slots; a restack
            # carries the drawn rows over by the inverter slots.  The
            # propagators [exp((top - 1) dt A), ..., exp(dt A), I] carry
            # them to a step's end: the last j of them, one view per j, those
            # of j dt steps, times the j rows from a block row i, entry i of
            # the j-th view of the block's runs of rows (the rows themselves
            # at j = 1), each member's run one vector in the shape ``_col``.
            noise = np.zeros((n, NOISE_BLOCK + MAX_STEP_MULTIPLE, width), dtype=complex)
            if self._noise is not None:
                noise[..., :ns] = self._noise[..., :ns]
            self._noise = noise
            eye = np.broadcast_to(np.eye(width), (n, width, width))
            prop = np.concatenate(
                [self._rows[2 * i - 1][..., :width] for i in range(top - 1, 0, -1)] + [eye],
                axis=-1)
            self._props = [prop[self._pick, :, (top - j) * width:] for j in range(top + 1)]
            rows = noise.swapaxes(0, 1)
            self._noise_runs = [None, rows] + [np.lib.stride_tricks.as_strided(
                rows, (len(rows) - j + 1, n, j * width), rows.strides).reshape(
                len(rows) - j + 1, *self._col) for j in range(2, top + 1)]

        # The stage vectors of every member in two buffers that the steps
        # alternate between, and in two more for the step-doubling estimate:
        # a sample may have filled the step's stage 1 before it runs.
        self._buf, self._est = (_Stages(n, width, ns, self._col) for _ in range(2))
        # A stage's product, N's input, and a step's noise sum: neither
        # outlives its call.
        self._stage_y = np.zeros((n, width), dtype=complex)
        self._stage_out = self._stage_y.reshape(self._col)
        self._stage_flat = self._stage_y.reshape(-1)
        if self.config.step_multiple:
            self._etd = self._weights(top)[0]
        if self._grids:
            self._sample_matrix(width)
        # The states of the records derived and not yet recorded, of which
        # a step derives at most top, and the same rows in the shape of a
        # stage's product, which the product of the records inside a step
        # writes (``_advance``).
        self._ys, self._y_rows = np.empty((RECORD_BLOCK + top, n, width), dtype=complex), 0
        self._rec_out = self._ys.reshape((len(self._ys),) + self._stage_out.shape)

    def _sample_matrix(self, width):
        """The product of a controller sample: one real matrix per member
        times [y, N(y)] as (real, imaginary) pairs, the live N(y) in stage
        1's slot.  With dv/dt = A y + N(y) of the live model, i_o = (g + C
        A) y + C N(y), and the rows give -c2 i_o in the oscillator hold,
        -j conj(i_o) in the droop hold (the conjugate folded into the rows),
        zero on their branch slots, then the stepped model's A less the
        live one times y.  The product goes to ``_prod``; the rows of the
        members due are copied into the held model's holds."""
        n, model, live = len(self.members), self.model, self.live_model
        ns = model.ns
        a = live.a[:, :ns]
        i_o = np.zeros((n, ns, 2 * width), dtype=complex)
        i_o[..., :width] = live.g + live.caps[..., None] * a
        i_o[..., width:width + ns] = live.caps[:, None, :] * np.eye(ns)
        measure = np.zeros((n, 2 * width + ns, 2 * width), dtype=complex)
        measure[:, :ns] = model.neg_c2[..., None] * i_o
        measure[:, width:width + ns] = 1j * i_o
        measure[:, 2 * width:, :width] = a - model.a[:, :ns]
        self._measure = np.concatenate(
            [_real_form(measure[:, :width]), _real_form(measure[:, width:2 * width], True),
             _real_form(measure[:, 2 * width:])], axis=-2)[self._pick]
        prod = np.empty((n, 2 * width + ns), dtype=complex)
        self._prod = prod.view(float).reshape(self._col)
        self._new_holds = prod[:, :2 * width].reshape(n, 2, width).swapaxes(0, 1)
        self._n_diff = prod[:, 2 * width:]

    def _weights(self, r):
        """Rung r's entry of the segment's cache, built from its chain on
        first use: its four stage matrices in the form the step multiplies,
        then its record weights, None until ``_record_weights`` builds them."""
        w = self._rungs.get(r)
        if w is None:
            etd = _stages(self._rows, self.config.dt * r, r)
            w = self._rungs[r] = [tuple(x[self._pick] for x in etd), None]
        return w

    def _record_weights(self, r):
        """Rung r's record weights, built when a step of the rung first
        holds a record inside it: per offset j of a step's first record
        inside it, the dense weights (``_dense``) of the records at j, j +
        decimation, ... < r, stacked.  A rung taken only to reach an event,
        a sample or t_end builds none."""
        w = self._weights(r)
        if w[1] is None:
            dense, decim = _dense(self._rows, self.config.dt * r, r), self.config.record_decimation
            w[1] = [None] + [dense[j - 1:r - 1:decim][:, self._pick]
                             for j in range(1, min(decim, r - 1) + 1)]
        return w[1]

    def _apply_due_events(self):
        """Apply every member's events due at this step and restack."""
        self._record(self._ys[:self._y_rows])  # under the live model of their segment
        states = [self.y[b, :mem.m] for b, mem in enumerate(self.members)]
        changed = []
        for b, mem in enumerate(self.members):
            while mem.pending and mem.pending[0][0] <= self.step_index:
                _, ev = mem.pending.pop(0)
                states[b] = mem.apply_event(ev.action, states[b])
                mem.events_applied.append((self.t, ev.action))
                if mem.sample_steps:  # a recompiled controller holds anew
                    self._sample_at[b] = self.step_index
                if b not in changed:
                    changed.append(b)
        self._restacks.append({"step": self.step_index, "members": changed})
        self._next_hold = min(self._sample_at)
        self._stack(states)

    # -- step size -----------------------------------------------------------

    def _size(self, k0, y0):
        """Fix this compile segment's K from its first state y0, at dt step
        k0: step_multiple, or the largest rung from the segment's top
        (``_stack``) down whose step-doubling estimate is within STEP_TOL,
        rung 1 at the least; record both and return K.  Each step then takes
        K dt, shortened to end at the next event, controller sample or t_end
        (``_advance``)."""
        z0 = np.concatenate([y0, self.model.nonlinear(y0.ravel()).reshape(y0.shape)], axis=1)
        k, fixed = self._top, self.config.step_multiple
        while not ((est := self._estimate(z0, k)) <= STEP_TOL or k == 1 or fixed):
            k //= 2
        self._K = k
        self._segments.append({"step": k0, "k": k, "estimate": est})
        return k

    def _estimate(self, z0, k):
        """The step-doubling (Richardson; Hairer, Norsett & Wanner, Solving
        ODEs I, II.4) estimate of a step of k dt from the batch's [y0,
        N(y0)] z0: |two steps of k dt - one of 2k dt| / 15, ETDRK4 being of
        order 4, in each member's voltages and in its branch currents over
        that group's largest magnitude, the largest of all.  The steps run
        in the estimate's own stage buffers: the step of 2k dt, then the two
        of k dt; both steps from y0 reuse N(y0)."""
        self._estimates += 1
        est, width = self._est, z0.shape[1] // 2
        est.z[:, :2 * width] = z0
        self._stepper(est, self._weights(2 * k)[0])(True)
        coarse, w = est.other.y.copy(), self._weights(k)[0]
        self._stepper(est, w)(True)
        self._stepper(est.other, w)()
        err = np.abs(est.y - coarse) / 15.0  # est.y: the second fine step's
        mag = np.maximum(np.abs(z0[:, :width]), np.abs(est.y))
        e, s = (np.where(self._groups, x, 0.0).max(axis=-1) for x in (err, mag))
        return float(np.max(e / np.where(s > 0.0, s, 1.0)))  # NaN after a non-finite step

    # -- time stepping -------------------------------------------------------

    def step(self):
        """Take one step: the loop of ``_advance``, stopped after its first
        step.  Past t_end it goes on taking whole steps of the segment's K,
        sampling the controllers and drawing noise as before."""
        self._advance(once=True)

    def _advance(self, once=False):
        """Apply the events due, then step to the end of the compile segment,
        the next event or t_end, or with ``once`` take one step.  Each step
        samples the controller measurement of every member with a sample
        due, takes one ETDRK4 step of r dt (``_stepper``), r being the
        segment's K (``_size``: ``step_multiple``, else chosen by accuracy),
        or, when the next event, controller sample or t_end comes within K,
        the largest power of two that ends on or before it, adds its noise
        and, within ``run``, derives the records it takes.  What the steps
        read, call and write is bound to locals once per call, so once per
        segment in ``run``, the two stage buffers' views alternating as
        ``this`` (the step's y) and ``that``, each with its step function.

        A sample holds the live i_o of every member due and schedules its
        next sample, the next point of its own grid.  i_o = g y + C dv/dt
        takes dv/dt from one live N(y), written into stage 1's N slot (C = 0
        on the quasi-static network), and one product (``_sample_matrix``)
        gives the held values: the holds themselves with every member due,
        else copied for the members due.  With every sampled member due,
        the held law at y gives the live dv/dt, so the stepped model's N(y)
        is the live one plus (A_live - A) y: it completes the slot, and the
        step reuses it.

        The records inside a step of r dt, at offsets j < r, are its
        continuous extension W_j z of the stage vectors z it read, left
        whole in their buffer, from one product, each plus the step's noise
        up to its offset.  A record at the step's end would be W_r z, W_r
        being the step's last stage matrix, plus the step's noise: the state
        the step left, which it copies."""
        k = self.step_index
        if k >= self._next_event:
            self._apply_due_events()
        buf = self._buf
        if self.y is not buf.y:  # a fresh stack, or a state set from outside
            buf.y[...] = self.y
        this, that, r_now = buf.views, buf.other.views, None  # a rung is set at the first step
        mul, u, K, rung_steps = self._mul, self._stage_out, self._K, self._rung_steps
        next_hold, stop, end = self._next_hold, self._stop, self._end
        grids, filled, events = self._grids, self._filled, self._sample_events
        if grids:
            at, samples, due = self._sample_at, self._samples, self._due
            live_n, measure, prod, holds = (self.live_model.evaluator(self._stage_flat.shape),
                                            self._measure, self._prod, self.model._holds)
            new_holds, n_diff = self._new_holds, self._n_diff
        if noisy := bool(self._noisy):
            props, runs, stage_y = self._props, self._noise_runs, self._stage_y
            noise_at, noise_end = self._noise_at, self._noise_end

            def noise_sum(i, j):
                """The noise of the j dt steps from block row i carried to
                the end of the last by the linear flow: the sum over l = 1..j
                of exp((j - l) dt A) xi_l in one product, the row itself
                (a view) at j = 1."""
                if j == 1:
                    return runs[1][i]
                mul(props[j], runs[j][i], u)
                return stage_y
        rec_at, decim, ys, rec_out, row = (self._record_at, self.config.record_decimation,
                                           self._ys, self._rec_out, self._y_rows)
        while True:
            _, y, zn, z, sample_in, n_ns, y_next = this
            have_n = False
            if k >= next_hold:
                n_due = 0
                for b, s in grids:
                    due[b] = d = at[b] <= k
                    if d:
                        at[b] = k - k % s + s
                        samples[b] += 1
                        n_due += 1
                next_hold = min(at)
                stop, events = min(next_hold, end), events + 1
                live_n(y.ravel(), zn)
                mul(measure, sample_in, prod)
                if n_due == len(at):
                    holds[...] = new_holds
                else:
                    np.copyto(holds, new_holds, where=due[None, :, None])
                if have_n := n_due == len(grids):
                    add(n_ns, n_diff, n_ns)
                    filled += 1
            K = K or self._size(k, y)
            r = 1 << ((stop - k).bit_length() - 1) if k < stop < k + K else K
            if r != r_now:
                self._etd = self._weights(r)[0]
                r_now, recs = r, None
                go, go_next = (self._stepper(v[0], self._etd) for v in (this, that))
            go(have_n)
            if noisy:
                if k + r > noise_end:
                    noise_at, noise_end = self._draw(k)
                add(y_next, noise_sum(k - noise_at, r), y_next)
            rung_steps[r] += 1
            k += r
            if k >= rec_at:
                j = rec_at - k + r  # the first record's offset into the step
                if j < r:
                    recs = recs or self._record_weights(r)
                    n = len(recs[j])
                    np.matmul(recs[j], z, out=rec_out[row:row + n])
                    if noisy:
                        for i in range(n):
                            ys[row + i] += noise_sum(k - r - noise_at, j + i * decim)
                    row += n
                if k % decim == 0:
                    ys[row] = y_next
                    row += 1
                rec_at = k - k % decim + decim
                if row >= RECORD_BLOCK:
                    row = self._record(ys[:row])
            this, that, go, go_next = that, this, go_next, go
            if once or k >= end:
                break
        self._buf, self.y = this[:2]
        self.step_index, self._next_hold, self._stop, self._filled = k, next_hold, stop, filled
        self._sample_events, self._record_at, self._y_rows = events, rec_at, row

    def _draw(self, k):
        """Move the drawn noise rows from dt step k on to the front of the
        block and draw the next NOISE_BLOCK dt steps of every noisy member
        behind them; returns the dt steps of the block's first row and of
        the row after its last."""
        noise, keep = self._noise, self._noise_end - k
        noise[:, :keep] = noise[:, k - self._noise_at:self._noise_end - self._noise_at]
        for b, mem in self._noisy:
            noise[b][keep:keep + NOISE_BLOCK, mem.dvoc_pos] = mem.draw_noise()
        self._noise_at, self._noise_end = k, k + keep + NOISE_BLOCK
        return self._noise_at, self._noise_end

    def _stepper(self, buf, w):
        """One Cox-Matthews (2002) ETDRK4 step on dy/dt = A y + N(y) of the
        stepped model, from the y in the stage buffer ``buf``, with the
        stage matrices w of a rung (``_weights``), as a function of
        ``have_n`` with everything it touches bound: A is propagated exactly
        and N's stages are weighted by phi-functions of hA, so stiff modes
        see N with the right weight.  Each N is written straight into its
        slot of the stage vectors; with ``have_n`` the slot of N(y) is
        already filled.  The last product writes the new y into the other
        buffer's y slot."""
        mul, u, uf = self._mul, self._stage_out, self._stage_flat
        n = self.model.evaluator(uf.shape)
        (wa, wb, wc, wy), (zn, za, zb, zc, sa, sb, sc, sz, y_out) = w, buf.stages
        y = buf.y

        def step(have_n=False):
            if not have_n:
                n(y.ravel(), zn)
            mul(wa, sa, u)
            n(uf, za)
            mul(wb, sb, u)
            n(uf, zb)
            mul(wc, sc, u)
            n(uf, zc)
            mul(wy, sz, y_out)
        return step

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

    def _record(self, ys):
        """Check the next records' states ys, (K, B, M), if any, finite and
        store their v and i_o: the record at t = 0, and the derived states
        of the block every RECORD_BLOCK records and before every restack.
        Returns the block's rows left, 0."""
        self._y_rows = 0
        if len(ys):
            first, self._blocks = self._derived, self._blocks + 1
            finite = np.isfinite(ys).all(axis=(1, 2))
            if not finite.all():
                k = int(np.argmin(finite))
                self._diverged(ys[k], (first + k) * self.config.record_decimation)
            self._derived += len(ys)
            v, i_o = self.live_model.outputs(ys)
            self._records[0, :, first:self._derived] = v.swapaxes(0, 1)
            self._records[1, :, first:self._derived] = i_o.swapaxes(0, 1)
        return 0

    def run(self):
        """Integrate from t = 0 to t_end and return the Trace, or one Trace
        per member for a batch."""
        cfg = self.config
        if self.step_index != 0:
            raise RuntimeError("run() must be called on a fresh Simulation")
        n_steps, decim = self._n_steps, cfg.record_decimation
        n_rec = n_steps // decim + 1
        # v and i_o of every (member, record, inverter).
        self._records = np.empty((2, len(self.members), n_rec, self.live_model.ns), complex)
        self._derived = 0

        if self.step_index >= self._next_event:
            self._apply_due_events()
        # Overflow en route to a detected divergence is expected; the finite
        # checks turn it into a diagnostic instead of warning spam.
        with np.errstate(over="ignore", invalid="ignore"):
            self._record(self.y[None])
            self._record_at = decim  # the dt step of the next record
            while self.step_index < n_steps:
                self._advance()
            self._record(self._ys[:self._y_rows])
            # No record block outlives the run.
            self._record_at, self._ys, self._rec_out = math.inf, None, None
            if not np.isfinite(self.y).all():
                self._diverged(self.y, self.step_index)
        t = np.arange(n_rec) * decim * cfg.dt
        # The N evaluations, derived from what the run did: of the stepped
        # model four per step, less the samples that filled stage 1, and per
        # compile segment one for its first state and ten per step-doubling
        # estimate (three and four for two steps of a rung, three for one of
        # twice it); of the live model one per sample and, on the dynamic
        # network, one per block of records, for the dv/dt in i_o.
        n_evals = {"stepped": 4 * sum(self._rung_steps) - self._filled + len(self._segments)
                   + 10 * self._estimates,
                   "live": self._sample_events + self._blocks * self.members[0].dynamic}
        stats = {"steps_per_rung": {r: n for r, n in enumerate(self._rung_steps) if n},
                 "segments": self._segments, "samples": self._samples,
                 "stage1_filled": self._filled, "restacks": self._restacks, "n_evals": n_evals}
        traces = _finalize_traces(t, self._records[0], self._records[1], self.members,
                                  n_steps, stats)
        return traces[0] if self._single else traces


def run_scenario(scenario, config=None):
    """Integrate a scenario from t = 0, applying its events, and return the Trace."""
    return Simulation(scenario, config).run()
