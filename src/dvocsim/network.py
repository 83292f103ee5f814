"""Electrical network models connecting inverter voltage nodes to loads.

Two models of the same topology are provided:

* quasi-static: algebraic phasor solution at a fixed frequency, with the
  complex admittance y = a + jb of each element acting on alpha-beta vectors
  as the 2x2 block a*I + b*J;
* dynamic: series RL branch currents as states (L di/dt = v_from - v_to - R i)
  with load-node voltages resolved algebraically from KCL, for fast
  electromagnetic transients.  ``DynamicNetwork`` also gives the model as two
  matrices over x = [v_s; i] (source voltages, then branch currents):
  ``injection @ x`` is the current each source injects into the branches and
  ``branch_rates @ x`` is di/dt.

Inverters are ideal voltage sources imposing their controller voltage at
their node; the filter capacitor sits at that node, behind the current
measurement, so its reactive consumption is visible in the measured output
current i_o.  Loads are resistive conductances.
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import J

log = logging.getLogger(__name__)


class TopologyError(ValueError):
    """Structurally unusable network (singular reduction, bad node refs, ...)."""


@dataclass(frozen=True)
class Branch:
    """Series RL branch.  R >= 0, L >= 0, not both zero."""

    branch_id: str
    from_node: str
    to_node: str
    r: float
    l: float
    connected: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.l)):
            raise ValueError(f"branch {self.branch_id}: R and L must be finite")
        if self.r < 0.0 or self.l < 0.0:
            raise ValueError(f"branch {self.branch_id}: R and L must be >= 0")
        if self.r == 0.0 and self.l == 0.0:
            raise ValueError(f"branch {self.branch_id}: R and L cannot both be zero")
        if self.from_node == self.to_node:
            raise ValueError(f"branch {self.branch_id}: self-loop")


@dataclass(frozen=True)
class Topology:
    """Inverter nodes, RL branches, resistive loads and shunt capacitors.

    ``loads`` maps node id -> conductance (Siemens); ``shunt_caps`` maps
    inverter node id -> capacitance (F).  Immutable between events; event
    application returns a new instance.
    """

    inverter_nodes: tuple
    branches: tuple
    loads: dict = field(default_factory=dict)
    shunt_caps: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "inverter_nodes", tuple(self.inverter_nodes))
        object.__setattr__(self, "branches", tuple(self.branches))
        if len(set(self.inverter_nodes)) != len(self.inverter_nodes):
            raise TopologyError("duplicate inverter nodes")
        ids = [b.branch_id for b in self.branches]
        if len(set(ids)) != len(ids):
            raise TopologyError("duplicate branch ids")
        for node, g in self.loads.items():
            if not math.isfinite(g) or g < 0.0:
                raise TopologyError(f"load at {node}: conductance must be finite and >= 0")
        src = set(self.inverter_nodes)
        for node, c in self.shunt_caps.items():
            if node not in src:
                raise TopologyError(f"shunt capacitor at non-inverter node {node}")
            if not math.isfinite(c) or c < 0.0:
                raise TopologyError(f"shunt capacitor at {node}: C must be finite and >= 0")

    def nodes(self):
        """All node ids: inverter nodes first (in order), then the rest sorted."""
        others = set()
        for b in self.branches:
            others.update((b.from_node, b.to_node))
        others.update(self.loads)
        others -= set(self.inverter_nodes)
        return list(self.inverter_nodes) + sorted(others)

    def active_branches(self):
        return [b for b in self.branches if b.connected]

    def branch(self, branch_id):
        for b in self.branches:
            if b.branch_id == branch_id:
                return b
        raise KeyError(f"no branch {branch_id!r}")


# --- timeline events ------------------------------------------------------

@dataclass(frozen=True)
class ConnectBranch:
    branch_id: str


@dataclass(frozen=True)
class DisconnectBranch:
    branch_id: str


@dataclass(frozen=True)
class LoadStep:
    node: str
    conductance: float


@dataclass(frozen=True)
class SetPointUpdate:
    """Routed to the controller, leaves the topology unchanged."""

    inverter_id: str
    p_star: float = None
    q_star: float = None
    v_star: float = None


@dataclass(frozen=True)
class Event:
    time: float
    action: object

    def __post_init__(self):
        if not math.isfinite(self.time) or self.time < 0.0:
            raise ValueError(f"event time must be finite and >= 0, got {self.time}")


def _loads_reachable(topo):
    """Load nodes reachable from any inverter node over active branches."""
    adj = {}
    for b in topo.active_branches():
        adj.setdefault(b.from_node, set()).add(b.to_node)
        adj.setdefault(b.to_node, set()).add(b.from_node)
    seen = set()
    stack = list(topo.inverter_nodes)
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj.get(n, ()))
    return seen


def apply_event(topo, action):
    """Apply a single event action to a topology, returning the new topology.

    Disconnecting the only path to a load is permitted (islanding) but logged.
    Set-point updates are controller-side and return the topology unchanged.
    """
    if isinstance(action, (ConnectBranch, DisconnectBranch)):
        want = isinstance(action, ConnectBranch)
        found = False
        new_branches = []
        for b in topo.branches:
            if b.branch_id == action.branch_id:
                new_branches.append(replace(b, connected=want))
                found = True
            else:
                new_branches.append(b)
        if not found:
            raise KeyError(f"no branch {action.branch_id!r}")
        new = replace(topo, branches=tuple(new_branches))
        if not want:
            dead = [n for n in new.loads if n not in _loads_reachable(new)]
            if dead:
                log.warning("islanding: load node(s) %s disconnected from all sources", dead)
        return new
    if isinstance(action, LoadStep):
        if action.conductance < 0.0 or not math.isfinite(action.conductance):
            raise ValueError("load step conductance must be finite and >= 0")
        loads = dict(topo.loads)
        loads[action.node] = action.conductance
        return replace(topo, loads=loads)
    if isinstance(action, SetPointUpdate):
        return topo
    raise TypeError(f"unknown event action {action!r}")


# --- quasi-static (phasor) model -------------------------------------------

def build_admittance_complex(topo, omega):
    """Complex node admittance matrix over ``topo.nodes()`` order.

    Each active RL branch contributes 1/(R + j omega L) between its end
    nodes; loads contribute their conductance and shunt capacitors j omega C
    on the diagonal.
    """
    nodes = topo.nodes()
    idx = {n: k for k, n in enumerate(nodes)}
    n = len(nodes)
    y = np.zeros((n, n), dtype=complex)
    for b in topo.active_branches():
        yb = 1.0 / (b.r + 1j * omega * b.l)
        a, c = idx[b.from_node], idx[b.to_node]
        y[a, a] += yb
        y[c, c] += yb
        y[a, c] -= yb
        y[c, a] -= yb
    for node, g in topo.loads.items():
        y[idx[node], idx[node]] += g
    for node, c_f in topo.shunt_caps.items():
        y[idx[node], idx[node]] += 1j * omega * c_f
    return y


def _complex_to_block(c):
    return np.array([[c.real, -c.imag], [c.imag, c.real]])


def build_admittance(topo, omega):
    """Node admittance matrix as 2x2 real blocks acting on alpha-beta vectors.

    Row/column pairs (2k, 2k+1) correspond to node k of ``topo.nodes()``;
    the block for complex admittance a + jb is [[a, -b], [b, a]].
    """
    yc = build_admittance_complex(topo, omega)
    n = yc.shape[0]
    out = np.zeros((2 * n, 2 * n))
    for i in range(n):
        for k in range(n):
            out[2 * i:2 * i + 2, 2 * k:2 * k + 2] = _complex_to_block(yc[i, k])
    return out


def reduced_admittance(topo, omega):
    """Source-node admittance after eliminating all interior/load nodes.

    Schur complement M = Y_ss - Y_sl Y_ll^-1 Y_ls over the inverter nodes,
    so the currents injected by the sources are i = M @ v (complex form).
    """
    y = build_admittance_complex(topo, omega)
    ns = len(topo.inverter_nodes)
    y_ss = y[:ns, :ns]
    if y.shape[0] == ns:
        return y_ss
    y_sl = y[:ns, ns:]
    y_ls = y[ns:, :ns]
    y_ll = y[ns:, ns:]
    try:
        sol = np.linalg.solve(y_ll, y_ls)
    except np.linalg.LinAlgError as exc:
        raise TopologyError(f"singular network reduction: {exc}") from exc
    if not np.all(np.isfinite(sol)) or np.linalg.cond(y_ll) > 1e12:
        raise TopologyError("singular or near-singular network reduction")
    return y_ss - y_sl @ sol


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


# --- dynamic (branch-current state) model ----------------------------------

class DynamicNetwork:
    """Compiled dynamic model of a topology for a fixed breaker configuration.

    States are the currents of connected branches with L > 0 (one complex
    value per branch in ``branch_ids`` order).  Pure-R branches are folded
    into the algebraic load-voltage solve.  Every non-source node must carry
    a conductance path (load and/or resistive branch mesh), otherwise KCL
    has no algebraic solution and the topology is rejected.

    ``injection`` (n_sources x (n_sources + n_branches)) and ``branch_rates``
    (n_branches x (n_sources + n_branches)) are ``source_branch_currents`` and
    ``rhs`` as real matrices over x = [v_s; i], sources in
    ``topo.inverter_nodes`` order.
    """

    def __init__(self, topo):
        self.topo = topo
        sources = list(topo.inverter_nodes)
        nodes = topo.nodes()
        ns = len(sources)
        lnodes = nodes[ns:]
        nl = len(lnodes)
        lidx = {n: k for k, n in enumerate(lnodes)}
        sidx = {n: k for k, n in enumerate(sources)}

        dyn = [b for b in topo.active_branches() if b.l > 0.0]
        res = [b for b in topo.active_branches() if b.l == 0.0]
        nd = len(dyn)
        self.branch_ids = [b.branch_id for b in dyn]
        self.n_sources = ns
        self.n_branches = nd
        self.r = np.array([b.r for b in dyn]) if nd else np.zeros(0)
        self.l = np.array([b.l for b in dyn]) if nd else np.zeros(0)
        self.caps = np.array([topo.shunt_caps.get(n, 0.0) for n in sources])

        # Algebraic KCL over non-source nodes: A v_l = c_ls v_s + n_li i.
        a = np.zeros((nl, nl))
        c_ls = np.zeros((nl, ns))
        n_li = np.zeros((nl, nd))
        for node, g in topo.loads.items():
            if node in lidx:
                a[lidx[node], lidx[node]] += g
        for b in res:
            gb = 1.0 / b.r
            for here, there in ((b.from_node, b.to_node), (b.to_node, b.from_node)):
                if here in lidx:
                    a[lidx[here], lidx[here]] += gb
                    if there in lidx:
                        a[lidx[here], lidx[there]] -= gb
                    else:
                        c_ls[lidx[here], sidx[there]] += gb
        for d, b in enumerate(dyn):
            if b.to_node in lidx:
                n_li[lidx[b.to_node], d] += 1.0
            if b.from_node in lidx:
                n_li[lidx[b.from_node], d] -= 1.0
        if nl:
            if np.any(np.abs(a).sum(axis=1) == 0.0) or np.linalg.cond(a) > 1e12:
                bad = [lnodes[k] for k in range(nl) if np.abs(a[k]).sum() == 0.0]
                raise TopologyError(
                    "structurally singular dynamic model: non-source node(s) "
                    f"{bad or lnodes} lack a conductance path")
            a_inv = np.linalg.inv(a)
            self.p_v = a_inv @ c_ls
            self.p_i = a_inv @ n_li
        else:
            self.p_v = np.zeros((0, ns))
            self.p_i = np.zeros((0, nd))

        # Branch endpoint gather indices into the concatenated [v_s; v_l].
        full_idx = {n: k for k, n in enumerate(sources + lnodes)}
        self.from_idx = np.array([full_idx[b.from_node] for b in dyn], dtype=int)
        self.to_idx = np.array([full_idx[b.to_node] for b in dyn], dtype=int)

        # Source injections (capacitor current excluded; the caller adds
        # C dv/dt): q_i i + q_v v_s + q_l v_l.
        q_i = np.zeros((ns, nd))
        q_v = np.zeros((ns, ns))
        q_l = np.zeros((ns, nl))
        for d, b in enumerate(dyn):
            if b.from_node in sidx:
                q_i[sidx[b.from_node], d] += 1.0
            if b.to_node in sidx:
                q_i[sidx[b.to_node], d] -= 1.0
        for b in res:
            gb = 1.0 / b.r
            for here, there in ((b.from_node, b.to_node), (b.to_node, b.from_node)):
                if here in sidx:
                    q_v[sidx[here], sidx[here]] += gb
                    if there in sidx:
                        q_v[sidx[here], sidx[there]] -= gb
                    else:
                        q_l[sidx[here], lidx[there]] -= gb
        self.q_i = q_i
        self.q_v = q_v
        self.q_l = q_l

        # The same algebra as matrices over x = [v_s; i]: the source
        # injections are injection @ x and the branch-current derivatives
        # branch_rates @ x.
        self.injection = np.hstack([q_v + q_l @ self.p_v, q_i + q_l @ self.p_i])
        node = np.vstack([np.eye(ns, ns + nd), np.hstack([self.p_v, self.p_i])])
        self.branch_rates = (node[self.from_idx] - node[self.to_idx]) / self.l[:, None]
        self.branch_rates[np.arange(nd), ns + np.arange(nd)] -= self.r / self.l

    def load_voltages(self, branch_currents, source_voltages):
        """Algebraic voltages at the non-source nodes (complex)."""
        return self.p_v @ source_voltages + self.p_i @ branch_currents

    def rhs(self, branch_currents, source_voltages):
        """d(branch currents)/dt for complex branch currents and source voltages."""
        v_l = self.load_voltages(branch_currents, source_voltages)
        v_node = np.concatenate([source_voltages, v_l])
        return (v_node[self.from_idx] - v_node[self.to_idx]
                - self.r * branch_currents) / self.l

    def source_branch_currents(self, branch_currents, source_voltages, load_voltages=None):
        """Current injected by each source into the branch network (no cap term)."""
        if load_voltages is None:
            load_voltages = self.load_voltages(branch_currents, source_voltages)
        return (self.q_i @ branch_currents + self.q_v @ source_voltages
                + self.q_l @ load_voltages)

    def magnetic_energy(self, branch_currents):
        """Total stored branch energy, sum of L |i|^2 / 2."""
        return float(0.5 * np.sum(self.l * np.abs(branch_currents) ** 2))


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
    didt = net.rhs(ib[:, 0] + 1j * ib[:, 1], vs[:, 0] + 1j * vs[:, 1])
    return np.column_stack([didt.real, didt.imag])
