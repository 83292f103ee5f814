"""Fixed-step integration of the coupled controller + network system.

A timeline event engine and trace recording around one fixed-step
integrator per configuration.  Internally all alpha-beta pairs are packed as
complex numbers (alpha + j beta): every matrix in the control law commutes
with rotations, so rotation by kappa is multiplication by exp(j kappa) and
the quarter turn is multiplication by j.

All-oscillator networks with continuous controllers split into
dy/dt = A y + N(y): A (rotation, set-point gain, network, branch R/L,
capacitor feedthrough) is linear and constant between events, and N is the
cubic amplitude term on the oscillator states.  They are stepped with the
integrating-factor (Lawson) RK4 scheme, which propagates A exactly through
exp(hA) and exp(hA/2), so the fast branch-current pole does not bound the
step.  Droop inverters and sampled controllers use classical RK4 on the
general right-hand side.

The filter capacitor sits at the inverter terminal, behind the current
measurement, so in the dynamic network model the measured current contains
C dv/dt, which itself depends on the controller derivative.  That algebraic
loop is linear and is solved exactly: for the oscillator controller
(1 + eta C exp(j kappa)) dv/dt = rhs(v, i_branches).

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
    """Non-finite state encountered; carries (time, inverter, magnitude)."""

    def __init__(self, time, inverter, magnitude):
        self.time = time
        self.inverter = inverter
        self.magnitude = magnitude
        super().__init__(
            f"non-finite state at t={time:.6g} s (inverter {inverter!r}, "
            f"|v|={magnitude!r})")


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
        if self.network_model not in ("dynamic", "quasistatic"):
            raise ValueError(f"unknown network model {self.network_model!r}")
        if int(self.record_decimation) != self.record_decimation or self.record_decimation < 1:
            raise ValueError("record_decimation must be an integer >= 1")
        if self.noise_amplitude < 0.0:
            raise ValueError("noise_amplitude must be >= 0")
        if self.controller_sample_hz is not None:
            steps = 1.0 / (self.controller_sample_hz * self.dt)
            if steps < 1.0 - 1e-9 or abs(steps - round(steps)) > 1e-6 * steps:
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

        ns = len(self.inverters)
        self._dvoc_pos = np.array(
            [k for k, s in enumerate(self.inverters) if isinstance(s.params, DvocParams)],
            dtype=int)
        self._droop_pos = np.array(
            [k for k, s in enumerate(self.inverters) if isinstance(s.params, DroopParams)],
            dtype=int)
        self._ndv = len(self._dvoc_pos)
        self._ndr = len(self._droop_pos)
        self._ns = ns

        dt = self.config.dt
        self._pending = []
        for ev in sorted(scenario.events, key=lambda e: e.time):
            boundary = max(0, int(math.ceil(ev.time / dt - 1e-9)))
            self._pending.append((boundary, ev))

        self._init_states()
        self._compile()

    # -- construction -------------------------------------------------------

    def _init_states(self):
        v0 = np.zeros(self._ndv, dtype=complex)
        r0 = np.zeros(self._ndr)
        th0 = np.zeros(self._ndr)
        dv = dr = 0
        for spec in self.inverters:
            init = spec.initial
            p = spec.params
            if init.mode == "blackstart":
                mag = BLACKSTART_MAGNITUDE_RATIO * p.v_star
                ang = self._rng.uniform(0.0, 2.0 * math.pi)
            elif init.mode == "nominal":
                mag = p.v_star
                ang = init.angle
            else:
                a, b = init.vec
                mag = math.hypot(a, b)
                ang = math.atan2(b, a) if mag > 0.0 else 0.0
            if isinstance(p, DvocParams):
                v0[dv] = mag * complex(math.cos(ang), math.sin(ang))
                dv += 1
            else:
                r0[dr], th0[dr] = mag, ang
                dr += 1
        self._v0_dvoc, self._r0, self._th0 = v0, r0, th0
        self._branch_carry = {}
        self._rebuild_state_vector()

    def _rebuild_state_vector(self, net=None):
        nb = net.n_branches if net is not None else 0
        n = 2 * (self._ndv + self._ndr + nb)
        y = np.zeros(n)
        yv = y.view(np.complex128)
        yv[:self._ndv] = self._v0_dvoc
        off = 2 * self._ndv
        y[off:off + 2 * self._ndr:2] = self._r0
        y[off + 1:off + 2 * self._ndr:2] = self._th0
        if net is not None:
            ib = np.array([self._branch_carry.get(bid, 0.0 + 0.0j)
                           for bid in net.branch_ids], dtype=complex)
            yv[self._ndv + self._ndr:] = ib
        self.y = y

    def _stash_states(self):
        yv = self.y.view(np.complex128)
        self._v0_dvoc = yv[:self._ndv].copy()
        off = 2 * self._ndv
        self._r0 = self.y[off:off + 2 * self._ndr:2].copy()
        self._th0 = self.y[off + 1:off + 2 * self._ndr:2].copy()
        if self._net is not None:
            ib = yv[self._ndv + self._ndr:]
            self._branch_carry = dict(zip(self._net.branch_ids, ib))

    def _compile(self):
        """Rebuild network matrices and controller coefficients for the
        current topology and parameter set."""
        node_of = {n: k for k, n in enumerate(self.topology.inverter_nodes)}
        self._inv_node_idx = np.array([node_of[s.node] for s in self.inverters], dtype=int)
        caps_by_node = np.array([self.topology.shunt_caps.get(n, 0.0)
                                 for n in self.topology.inverter_nodes])
        self._caps = caps_by_node[self._inv_node_idx]

        if self.config.network_model == "dynamic":
            self._net = DynamicNetwork(self.topology)
            self._mred = None
        else:
            self._net = None
            self._mred = reduced_admittance(self.topology, self.omega_nominal)

        # Oscillator controller coefficients, vectorized over dvoc inverters.
        eta = np.array([self.params[k].eta for k in self._dvoc_pos])
        alpha = np.array([self.params[k].alpha for k in self._dvoc_pos])
        kap = np.array([self.params[k].kappa for k in self._dvoc_pos])
        ps = np.array([self.params[k].p_star for k in self._dvoc_pos])
        qs = np.array([self.params[k].q_star for k in self._dvoc_pos])
        vs = np.array([self.params[k].v_star for k in self._dvoc_pos])
        w0 = np.array([self.params[k].omega0 for k in self._dvoc_pos])
        ek = np.exp(1j * kap)
        self._inv_vs2 = 1.0 / vs**2
        self._c0 = 1j * w0 + eta * ek * (ps - 1j * qs) * self._inv_vs2
        self._c1 = eta * alpha
        self._c2 = eta * ek
        caps_dvoc = self._caps[self._dvoc_pos] if self._ndv else np.zeros(0)
        # Exact solve of the measurement feedthrough loop i_o = i_net + C dv/dt
        # (only needed when the cap current is not already inside i_o).
        if self.config.network_model == "dynamic":
            self._feed = 1.0 / (1.0 + eta * caps_dvoc * ek)
        else:
            self._feed = None
        self._caps_dvoc = caps_dvoc

        self._kp = np.array([self.params[k].kp for k in self._droop_pos])
        self._kq = np.array([self.params[k].kq for k in self._droop_pos])
        self._w0_dr = np.array([self.params[k].omega0 for k in self._droop_pos])
        self._vs_dr = np.array([self.params[k].v_star for k in self._droop_pos])
        self._ps_dr = np.array([self.params[k].p_star for k in self._droop_pos])
        self._qs_dr = np.array([self.params[k].q_star for k in self._droop_pos])
        self._caps_dr = self._caps[self._droop_pos] if self._ndr else np.zeros(0)

        nb = self._net.n_branches if self._net is not None else 0
        self._nb = nb
        n = 2 * (self._ndv + self._ndr + nb)
        if len(self.y) != n:
            self._rebuild_state_vector(self._net)
        self._k1 = np.empty(n)
        self._k2 = np.empty(n)
        self._k3 = np.empty(n)
        self._k4 = np.empty(n)
        self._ytmp = np.empty(n)
        self._v_all = np.empty(self._ns, dtype=complex)
        self._io_held = None
        nn = self._ns + (self._net._nl if self._net is not None else 0)
        self._vnode = np.empty(nn, dtype=complex)
        self._build_fused_operator()

    def _build_fused_operator(self):
        """For all-oscillator scenarios in continuous mode the coupled RHS is
        linear except for the scalar amplitude term, so it collapses to
        dy/dt = A y + feed*c1*phi(v)*v with one precomputed complex matrix A.
        Its step propagators exp(hA) and exp(hA/2) are computed here, so every
        recompile or set-point event refreshes them."""
        self._fused_a = self._exp_h = self._exp_half = None
        if self._ndr or self.config.sample_steps is not None:
            return
        ndv, nb = self._ndv, self._nb
        m = ndv + nb
        a = np.zeros((m, m), dtype=complex)
        if self._net is None:
            io_v = self._mred
            io_i = np.zeros((self._ns, 0))
            fc0, fc2 = self._c0, self._c2
            self._fused_c1 = self._c1
        else:
            net = self._net
            io_v = net.q_v + net.q_l @ net.p_v
            io_i = net.q_i + net.q_l @ net.p_i
            fc0 = self._feed * self._c0
            fc2 = self._feed * self._c2
            self._fused_c1 = self._feed * self._c1
            node_map = np.zeros((self._ns + net._nl, m))
            node_map[:self._ns, :ndv] = np.eye(self._ns)
            node_map[self._ns:, :ndv] = net.p_v
            node_map[self._ns:, ndv:] = net.p_i
            for d in range(nb):
                a[ndv + d, :] = (node_map[net.from_idx[d]] - node_map[net.to_idx[d]]) \
                    / net.l[d]
                a[ndv + d, ndv + d] -= net.r[d] / net.l[d]
        a[:ndv, :ndv] = np.diag(fc0) - fc2[:, None] * io_v
        if nb:
            a[:ndv, ndv:] = -fc2[:, None] * io_i
        self._fused_a = a
        h = self.config.dt
        self._exp_h = expm(h * a)
        self._exp_half = expm(0.5 * h * a)

    def _recompile_after(self, action):
        self._stash_states()
        self.topology = apply_event(self.topology, action)
        self._compile()
        self._rebuild_state_vector(self._net)
        if self.config.sample_steps is not None:
            self._io_held = self._outputs(self.y)[1]

    def _apply_setpoint(self, action):
        for k, spec in enumerate(self.inverters):
            if spec.inverter_id == action.inverter_id:
                updates = {}
                if action.p_star is not None:
                    updates["p_star"] = action.p_star
                if action.q_star is not None:
                    updates["q_star"] = action.q_star
                if action.v_star is not None:
                    updates["v_star"] = action.v_star
                self.params[k] = replace(self.params[k], **updates)
                self._compile()
                return
        raise KeyError(f"no inverter {action.inverter_id!r}")

    # -- right-hand side -----------------------------------------------------

    def _assemble_voltages(self, y):
        yv = y.view(np.complex128)
        v_all = self._v_all
        if self._ndv:
            v_all[self._dvoc_pos] = yv[:self._ndv]
        if self._ndr:
            off = 2 * self._ndv
            r = y[off:off + 2 * self._ndr:2]
            th = y[off + 1:off + 2 * self._ndr:2]
            v_all[self._droop_pos] = r * np.exp(1j * th)
        return v_all

    def _nonlinear(self, yv):
        """N(y) of the fused split: the amplitude term on the oscillator rows,
        zero on the branch-current rows."""
        out = np.zeros(len(yv), dtype=complex)
        vc = yv[:self._ndv]
        phi = 1.0 - (vc.real**2 + vc.imag**2) * self._inv_vs2
        out[:self._ndv] = self._fused_c1 * phi * vc
        return out

    def _rhs(self, y, out):
        yv = y.view(np.complex128)
        outv = out.view(np.complex128)
        v_all = self._assemble_voltages(y)
        held = self._io_held

        if self._net is not None:
            ib = yv[self._ndv + self._ndr:]
            net = self._net
            vl = net.p_v @ v_all + net.p_i @ ib if net._nl else np.zeros(0, dtype=complex)
            vnode = self._vnode
            vnode[:self._ns] = v_all
            vnode[self._ns:] = vl
            outv[self._ndv + self._ndr:] = (vnode[net.from_idx] - vnode[net.to_idx]
                                            - net.r * ib) / net.l
            if held is None:
                io = net.q_i @ ib + net.q_v @ v_all
                if net._nl:
                    io += net.q_l @ vl
            else:
                io = held
        else:
            io = held if held is not None else self._mred @ v_all

        if self._ndv:
            vc = yv[:self._ndv]
            phi = 1.0 - (vc.real**2 + vc.imag**2) * self._inv_vs2
            vdot = (self._c0 + self._c1 * phi) * vc - self._c2 * io[self._dvoc_pos]
            if held is None and self._feed is not None:
                vdot = vdot * self._feed
            outv[:self._ndv] = vdot

        if self._ndr:
            off = 2 * self._ndv
            r = y[off:off + 2 * self._ndr:2]
            th = y[off + 1:off + 2 * self._ndr:2]
            vdr = v_all[self._droop_pos]
            iod = io[self._droop_pos]
            p_out = (np.conj(vdr) * iod).real
            q_out = -(np.conj(vdr) * iod).imag
            a = self._w0_dr + self._kp * (self._ps_dr - p_out)
            b = -r + self._vs_dr + self._kq * (self._qs_dr - q_out)
            if held is None and self._net is not None and np.any(self._caps_dr):
                c = self._caps_dr
                rdot = (b + self._kq * c * r**2 * a) / (1.0 + self._kp * self._kq * c**2 * r**3)
                thdot = a - self._kp * c * r * rdot
            else:
                rdot, thdot = b, a
            out[off:off + 2 * self._ndr:2] = rdot
            out[off + 1:off + 2 * self._ndr:2] = thdot

    def _outputs(self, y):
        """Instantaneous (v_all, i_o) including the capacitor current."""
        yv = y.view(np.complex128)
        v_all = self._assemble_voltages(y).copy()
        if self._net is None:
            return v_all, self._mred @ v_all
        net = self._net
        ib = yv[self._ndv + self._ndr:]
        vl = net.p_v @ v_all + net.p_i @ ib if net._nl else np.zeros(0, dtype=complex)
        io_net = net.source_branch_currents(ib, v_all, vl)
        vdot_all = np.zeros(self._ns, dtype=complex)
        if self._ndv:
            vc = yv[:self._ndv]
            phi = 1.0 - (vc.real**2 + vc.imag**2) * self._inv_vs2
            vdot = ((self._c0 + self._c1 * phi) * vc
                    - self._c2 * io_net[self._dvoc_pos]) * self._feed
            vdot_all[self._dvoc_pos] = vdot
        if self._ndr:
            off = 2 * self._ndv
            r = y[off:off + 2 * self._ndr:2]
            vdr = v_all[self._droop_pos]
            iod = io_net[self._droop_pos]
            p_out = (np.conj(vdr) * iod).real
            q_out = -(np.conj(vdr) * iod).imag
            a = self._w0_dr + self._kp * (self._ps_dr - p_out)
            b = -r + self._vs_dr + self._kq * (self._qs_dr - q_out)
            c = self._caps_dr
            rdot = (b + self._kq * c * r**2 * a) / (1.0 + self._kp * self._kq * c**2 * r**3)
            thdot = a - self._kp * c * r * rdot
            th = y[off + 1:off + 2 * self._ndr:2]
            vdot_all[self._droop_pos] = (rdot + 1j * r * thdot) * np.exp(1j * th)
        return v_all, io_net + self._caps * vdot_all

    # -- time stepping -------------------------------------------------------

    def _apply_due_events(self):
        while self._pending and self._pending[0][0] <= self.step_index:
            _, ev = self._pending.pop(0)
            if isinstance(ev.action, SetPointUpdate):
                self._apply_setpoint(ev.action)
            else:
                self._recompile_after(ev.action)
            self._events_applied.append((self.t, ev.action))

    def step(self):
        """Apply due events, then advance one step of size dt: Lawson RK4 on
        the fused all-oscillator path, classical RK4 otherwise."""
        self._apply_due_events()
        cfg = self.config
        h = cfg.dt
        if self._fused_a is not None:
            self._lawson_step(h)
        else:
            if cfg.sample_steps is not None and (
                    self._io_held is None or self.step_index % cfg.sample_steps == 0):
                self._io_held = self._outputs(self.y)[1]
            self._rk4_step(h)
        if cfg.noise_amplitude > 0.0 and self._ndv:
            self.y[:2 * self._ndv] += (cfg.noise_amplitude * math.sqrt(h)
                                       * self._rng.standard_normal(2 * self._ndv))
        self.step_index += 1
        self.t = self.step_index * h

    def _lawson_step(self, h):
        """Integrating-factor RK4 (Lawson 1967) on dy/dt = A y + N(y): classical
        RK4 on N in the frame exp(-tA) y, with A propagated exactly."""
        y = self.y.view(np.complex128)
        e, eh, n = self._exp_h, self._exp_half, self._nonlinear
        k1 = n(y)
        ehy = eh @ y
        k2 = n(ehy + (0.5 * h) * (eh @ k1))
        k3 = n(ehy + (0.5 * h) * k2)
        ey = e @ y
        k4 = n(ey + h * (eh @ k3))
        y[:] = ey + (h / 6.0) * (e @ k1 + 2.0 * (eh @ (k2 + k3)) + k4)

    def _rk4_step(self, h):
        y = self.y
        k1, k2, k3, k4, ytmp = self._k1, self._k2, self._k3, self._k4, self._ytmp
        self._rhs(y, k1)
        np.multiply(k1, 0.5 * h, out=ytmp)
        ytmp += y
        self._rhs(ytmp, k2)
        np.multiply(k2, 0.5 * h, out=ytmp)
        ytmp += y
        self._rhs(ytmp, k3)
        np.multiply(k3, h, out=ytmp)
        ytmp += y
        self._rhs(ytmp, k4)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 *= h / 6.0
        y += k2

    def _check_finite(self):
        if np.all(np.isfinite(self.y)):
            return
        with np.errstate(invalid="ignore"):
            mags = np.abs(self._assemble_voltages(self.y))
        bad = ~np.isfinite(mags)
        worst = int(np.argmax(np.where(bad, np.inf, mags)))
        ids = [s.inverter_id for s in self.inverters]
        raise SimulationDiverged(self.t, ids[worst], float(mags[worst]))

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
        ids = [s.inverter_id for s in self.inverters]
        return _finalize_trace(t_rec[:ri], v_rec[:ri], io_rec[:ri], ids, events,
                               cfg.dt * decim, meta)


def _describe_action(action):
    return f"{type(action).__name__} {vars(action)}" if hasattr(action, "__dict__") \
        else repr(action)


def run_scenario(scenario, config=None):
    """Integrate a scenario from t = 0, applying its events, and return the Trace."""
    return Simulation(scenario, config).run()
