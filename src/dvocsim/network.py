"""Electrical network models connecting inverter voltage nodes to loads.

Both models of a topology are built from one node-branch incidence matrix B
over ``Topology.live_nodes()`` (``_incidence``):

* quasi-static: algebraic phasor solution at a fixed frequency,
  Y = B diag(1/(R + j omega L)) B^T + diag(g + j omega C), reduced to the
  inverter nodes; the complex admittance y = a + jb of each element acts on
  alpha-beta vectors as the 2x2 block a*I + b*J;
* dynamic: series RL branch currents as states (L di/dt = v_from - v_to - R i)
  with the other node voltages resolved algebraically from KCL over the
  conductance matrix of the pure-R branches and loads, for fast
  electromagnetic transients.  ``DynamicNetwork`` gives the model as two
  matrices over x = [v_s; i] (source voltages, then branch currents):
  ``injection @ x`` is the current each source injects into the network and
  ``branch_rates @ x`` is di/dt.

Inverters are ideal voltage sources imposing their controller voltage at
their node; the filter capacitor sits at that node, behind the current
measurement, so its reactive consumption is visible in the measured output
current i_o.  Loads are resistive conductances and may sit at any node,
inverter nodes included, where their current is measured like the
capacitor's.
"""

import math
from dataclasses import field, replace

import numpy as np

from .values import value_type


class TopologyError(ValueError):
    """Structurally unusable network (singular reduction, bad node refs, ...)."""


@value_type(frozen=True)
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


@value_type(frozen=True)
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

    def live_nodes(self):
        """``nodes()`` less the nodes that only open branches reach: no
        current flows there, so the network models leave them out."""
        live = set(self.inverter_nodes).union(
            self.loads, *((b.from_node, b.to_node) for b in self.active_branches()))
        return [n for n in self.nodes() if n in live]

    def active_branches(self):
        return [b for b in self.branches if b.connected]

    def branch(self, branch_id):
        for b in self.branches:
            if b.branch_id == branch_id:
                return b
        raise KeyError(f"no branch {branch_id!r}")


# --- timeline events ------------------------------------------------------

@value_type(frozen=True)
class ConnectBranch:
    branch_id: str


@value_type(frozen=True)
class DisconnectBranch:
    branch_id: str


@value_type(frozen=True)
class LoadStep:
    node: str
    conductance: float


@value_type(frozen=True)
class SetPointUpdate:
    """Routed to the controller, leaves the topology unchanged."""

    inverter_id: str
    p_star: float = None
    q_star: float = None
    v_star: float = None


@value_type(frozen=True)
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
                import logging  # here: its import costs every process a few ms
                logging.getLogger(__name__).warning(
                    "islanding: load node(s) %s disconnected from all sources", dead)
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


# --- node-branch assembly --------------------------------------------------

def _incidence(nodes, branches):
    """Node-branch incidence matrix: +1 at each branch's from-node, -1 at its
    to-node, so B.T @ v is the voltage drop along each branch and B @ i the
    current each branch draws out of each node."""
    idx = {n: k for k, n in enumerate(nodes)}
    b = np.zeros((len(nodes), len(branches)))
    for k, br in enumerate(branches):
        b[idx[br.from_node], k] = 1.0
        b[idx[br.to_node], k] = -1.0
    return b


def _eliminate(block, rhs, interior, path):
    """``block^-1 @ rhs``: eliminate the non-source nodes ``interior`` from
    KCL.  A node that no ``path`` (admittance or conductance) connects to a
    source or to ground leaves ``block`` singular, and one whose path is
    too weak to invert in float64 (a subnormal load conductance) overflows
    the solution; either error names the node."""
    if not interior:
        return rhs
    bad = [n for n, row in zip(interior, block) if not np.any(row)]
    if bad or np.linalg.cond(block) > 1e12:
        raise TopologyError(f"singular network reduction: non-source node(s) "
                            f"{bad or interior} have no {path} path")
    solution = np.linalg.solve(block, rhs)
    bad = [n for n, row in zip(interior, solution) if not np.isfinite(row).all()]
    if bad:
        raise TopologyError(f"network reduction overflows float64: the {path} path of "
                            f"non-source node(s) {bad} is too weak to invert")
    return solution


# --- quasi-static (phasor) model -------------------------------------------

def build_admittance_complex(topo, omega):
    """Complex node admittance matrix over ``topo.live_nodes()`` order.

    Y = B diag(1/(R + j omega L)) B^T over the active branches, plus the
    load conductance g and shunt-capacitor susceptance j omega C of every
    node on the diagonal.
    """
    nodes = topo.live_nodes()
    active = topo.active_branches()
    b = _incidence(nodes, active)
    y_branch = np.array([1.0 / (br.r + 1j * omega * br.l) for br in active],
                        dtype=complex)
    y = (b * y_branch) @ b.T
    y[np.diag_indices(len(nodes))] += [topo.loads.get(n, 0.0)
                                        + 1j * omega * topo.shunt_caps.get(n, 0.0)
                                        for n in nodes]
    return y


def reduced_admittance(topo, omega):
    """Source-node admittance after eliminating all interior/load nodes.

    Schur complement M = Y_ss - Y_sl Y_ll^-1 Y_ls over the inverter nodes,
    so the currents injected by the sources are i = M @ v (complex form).
    """
    y = build_admittance_complex(topo, omega)
    ns = len(topo.inverter_nodes)
    return y[:ns, :ns] - y[:ns, ns:] @ _eliminate(y[ns:, ns:], y[ns:, :ns],
                                                   topo.live_nodes()[ns:], "admittance")


def forward_power_flow(topo, omega, v_stars, angles):
    """(p, q) injected by each inverter at fixed amplitudes and angles."""
    v_stars = np.asarray(v_stars, dtype=float)
    angles = np.asarray(angles, dtype=float)
    m = reduced_admittance(topo, omega)
    v = v_stars * np.exp(1j * angles)
    s = np.conj(v) * (m @ v)
    return s.real, -s.imag


# --- dynamic (branch-current state) model ----------------------------------

class DynamicNetwork:
    """Compiled dynamic model of a topology for a fixed breaker configuration.

    States are the currents of connected branches with L > 0 (one complex
    value per branch in ``branch_ids`` order).  Pure-R branches and the loads
    (at any node, inverter nodes included) form one conductance matrix
    G = B_R diag(1/R) B_R^T + diag(g) over ``topo.live_nodes()``; KCL at the
    non-source nodes then gives every node voltage algebraically.  Every
    non-source node must carry a conductance path (load and/or resistive
    branch mesh), otherwise KCL has no algebraic solution and the topology
    is rejected.

    The model is two real matrices over x = [v_s; i], sources in
    ``topo.inverter_nodes`` order: ``injection @ x`` (n_sources rows) is the
    current each source injects into the network, capacitor current
    excluded, and ``branch_rates @ x`` (n_branches rows) is di/dt.
    """

    def __init__(self, topo):
        nodes = topo.live_nodes()
        ns = len(topo.inverter_nodes)
        active = topo.active_branches()
        dyn = [b for b in active if b.l > 0.0]
        res = [b for b in active if b.l == 0.0]
        nd = len(dyn)
        self.branch_ids = [b.branch_id for b in dyn]
        self.n_branches = nd
        self.l = np.array([b.l for b in dyn])

        b_r, e = _incidence(nodes, res), _incidence(nodes, dyn)
        g = (b_r / np.array([b.r for b in res])) @ b_r.T \
            + np.diag([topo.loads.get(n, 0.0) for n in nodes])
        # Injections G V + E i vanish at the non-source nodes, which fixes
        # the node voltages V = volts @ x.
        v_l = _eliminate(g[ns:, ns:], np.hstack([g[ns:, :ns], e[ns:]]),
                         nodes[ns:], "conductance")
        volts = np.vstack([np.eye(ns, ns + nd), -v_l])
        self.injection = g[:ns] @ volts
        self.injection[:, ns:] += e[:ns]
        self.branch_rates = e.T @ volts
        self.branch_rates[:, ns:] -= np.diag([b.r for b in dyn])
        # An L small enough for R/L to overflow leaves an infinite rate; the
        # simulator rejects it as a numeric failure.
        with np.errstate(over="ignore"):
            self.branch_rates /= self.l[:, None]

    def magnetic_energy(self, branch_currents):
        """Total stored branch energy, sum of L |i|^2 / 2."""
        return float(0.5 * np.sum(self.l * np.abs(branch_currents) ** 2))
