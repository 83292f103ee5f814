"""Scenario files: schema, strict parser, serializer, and built-in scenarios.

A scenario is a single JSON document.  Keys carry explicit units
(``r_ohm``, ``l_henry``, ``p_star_w``, ``t_s``, ...).  Voltages may be given
as ``*_vrms`` or ``*_peak``; RMS values are converted to peak (x sqrt(2))
here and nowhere else.  Loads may be given directly as ``g_siemens`` or as a
power rating ``p_w`` at a rated voltage, in which case
g = p_w / v_rated_peak^2 (so the load absorbs p_w when the bus sits at the
rated amplitude).

Parsing is strict: unknown keys are rejected to catch typos in physical
parameters, and all schema errors are collected and reported together.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .control import DroopParams, DvocParams
from .network import (Branch, ConnectBranch, DisconnectBranch, DynamicNetwork, Event,
                      LoadStep, SetPointUpdate, Topology, TopologyError, apply_event,
                      reduced_admittance)
from .numerics import gauss_newton
from .sim import InitialCondition, SimConfig

SQRT2 = math.sqrt(2.0)
_OUTPUTS = ("trace", "metrics")


class ScenarioError(ValueError):
    """Scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("scenario validation failed:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class InverterSpec:
    inverter_id: str
    node: str
    params: object  # DvocParams or DroopParams
    initial: InitialCondition


@dataclass
class Scenario:
    """A fully resolved scenario: inverters, topology, events, and sim config."""

    name: str
    inverters: list
    topology: Topology
    events: list
    sim: SimConfig
    omega0: float
    outputs: tuple = _OUTPUTS
    description: str = ""

    def __post_init__(self):
        # The simulator and the analyses pair inverter k with
        # topology.inverter_nodes[k].
        nodes = [s.node for s in self.inverters]
        if nodes != list(self.topology.inverter_nodes):
            raise ScenarioError([f"inverter nodes {nodes} are not the topology's "
                                 f"inverter nodes {list(self.topology.inverter_nodes)} "
                                 "in the same order"])

    def inverter(self, inverter_id):
        for spec in self.inverters:
            if spec.inverter_id == inverter_id:
                return spec
        raise KeyError(f"no inverter {inverter_id!r}")

    def to_dict(self):
        """Canonical JSON-compatible form (peak volts, conductances resolved).

        Feeding the result back through ``parse_scenario_dict`` reproduces an
        equal Scenario.
        """
        inverters = []
        for spec in self.inverters:
            d = {"id": spec.inverter_id, "node": spec.node}
            p = spec.params
            if isinstance(p, DvocParams):
                d.update(control="dvoc", eta=p.eta, alpha=p.alpha, kappa_rad=p.kappa)
            else:
                d.update(control="droop", kp_rad_per_sw=p.kp, kq_v_per_var=p.kq)
            d.update(p_star_w=p.p_star, q_star_var=p.q_star, v_star_peak=p.v_star)
            init = {"mode": spec.initial.mode}
            if spec.initial.mode == "nominal":
                init["angle_rad"] = spec.initial.angle
            elif spec.initial.mode == "explicit":
                init["v_alpha"], init["v_beta"] = spec.initial.vec
            d["initial"] = init
            inverters.append(d)
        topo = self.topology
        network = {
            "branches": [
                {"id": b.branch_id, "from": b.from_node, "to": b.to_node,
                 "r_ohm": b.r, "l_henry": b.l, "connected": b.connected}
                for b in topo.branches
            ],
            "loads": [{"node": n, "g_siemens": g} for n, g in sorted(topo.loads.items())],
            "shunt_caps": [{"node": n, "c_farad": c}
                           for n, c in sorted(topo.shunt_caps.items())],
        }
        events = []
        for ev in self.events:
            a = ev.action
            if isinstance(a, ConnectBranch):
                events.append({"t_s": ev.time, "type": "connect", "branch": a.branch_id})
            elif isinstance(a, DisconnectBranch):
                events.append({"t_s": ev.time, "type": "disconnect", "branch": a.branch_id})
            elif isinstance(a, LoadStep):
                events.append({"t_s": ev.time, "type": "load_step", "node": a.node,
                               "g_siemens": a.conductance})
            elif isinstance(a, SetPointUpdate):
                d = {"t_s": ev.time, "type": "set_point", "inverter": a.inverter_id}
                if a.p_star is not None:
                    d["p_star_w"] = a.p_star
                if a.q_star is not None:
                    d["q_star_var"] = a.q_star
                if a.v_star is not None:
                    d["v_star_peak"] = a.v_star
                events.append(d)
        sim = {
            "dt_s": self.sim.dt,
            "t_end_s": self.sim.t_end,
            "network_model": self.sim.network_model,
            "record_decimation": self.sim.record_decimation,
            "noise_seed": self.sim.noise_seed,
            "noise_amplitude": self.sim.noise_amplitude,
        }
        if self.sim.controller_sample_hz is not None:
            sim["controller_sample_hz"] = self.sim.controller_sample_hz
        return {
            "name": self.name,
            "description": self.description,
            "omega0_rad_per_s": self.omega0,
            "inverters": inverters,
            "network": network,
            "events": events,
            "sim": sim,
            "outputs": list(self.outputs),
        }


# --- strict schema walking --------------------------------------------------

def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _check_keys(d, path, allowed, errs):
    if not isinstance(d, dict):
        errs.append(f"{path}: expected an object")
        return False
    for k in d:
        if k not in allowed:
            errs.append(f"{path}: unknown key {k!r}")
    return True


def _num(d, key, path, errs, required=True, default=None, minimum=None,
         exclusive_min=None):
    if key not in d:
        if required:
            errs.append(f"{path}: missing required key {key!r}")
        return default
    v = d[key]
    if not _is_num(v):
        errs.append(f"{path}.{key}: expected a finite number, got {v!r}")
        return default
    if minimum is not None and v < minimum:
        errs.append(f"{path}.{key}: must be >= {minimum}, got {v}")
        return default
    if exclusive_min is not None and v <= exclusive_min:
        errs.append(f"{path}.{key}: must be > {exclusive_min}, got {v}")
        return default
    return float(v)


def _string(d, key, path, errs, required=True, default=None):
    if key not in d:
        if required:
            errs.append(f"{path}: missing required key {key!r}")
        return default
    v = d[key]
    if not isinstance(v, str) or not v:
        errs.append(f"{path}.{key}: expected a non-empty string, got {v!r}")
        return default
    return v


def _peak_voltage(d, path, errs, prefix, required=True):
    """Resolve a '<prefix>_vrms' or '<prefix>_peak' pair to a peak value."""
    krms, kpk = f"{prefix}_vrms", f"{prefix}_peak"
    has_rms, has_pk = krms in d, kpk in d
    if has_rms and has_pk:
        errs.append(f"{path}: give exactly one of {krms!r} or {kpk!r}")
        return None
    if not has_rms and not has_pk:
        if required:
            errs.append(f"{path}: missing {krms!r} or {kpk!r}")
        return None
    key = krms if has_rms else kpk
    v = _num(d, key, path, errs, exclusive_min=0.0)
    if v is None:
        return None
    return v * SQRT2 if has_rms else v


def _load_conductance(d, path, errs):
    """Resolve a load given as g_siemens or as p_w at a rated voltage."""
    if "g_siemens" in d:
        if "p_w" in d or "v_rated_vrms" in d or "v_rated_peak" in d:
            errs.append(f"{path}: give either g_siemens or a p_w + rated voltage, not both")
        return _num(d, "g_siemens", path, errs, minimum=0.0)
    if "p_w" in d:
        p = _num(d, "p_w", path, errs, minimum=0.0)
        v = _peak_voltage(d, path, errs, "v_rated")
        if p is None or v is None:
            return None
        return p / v**2
    errs.append(f"{path}: missing g_siemens or p_w")
    return None


_INITIAL_KEYS = {"mode", "angle_rad", "v_alpha", "v_beta"}
_INV_COMMON = {"id", "node", "control", "p_star_w", "q_star_var",
               "v_star_vrms", "v_star_peak", "initial"}
_INV_DVOC = _INV_COMMON | {"eta", "alpha", "kappa_rad"}
_INV_DROOP = _INV_COMMON | {"kp_rad_per_sw", "kq_v_per_var"}


def _parse_initial(d, path, errs):
    if d is None:
        return InitialCondition(mode="blackstart")
    if not _check_keys(d, path, _INITIAL_KEYS, errs):
        return None
    mode = _string(d, "mode", path, errs)
    if mode == "blackstart":
        return InitialCondition(mode="blackstart")
    if mode == "nominal":
        ang = _num(d, "angle_rad", path, errs, required=False, default=0.0)
        return InitialCondition(mode="nominal", angle=ang)
    if mode == "explicit":
        a = _num(d, "v_alpha", path, errs)
        b = _num(d, "v_beta", path, errs)
        if a is None or b is None:
            return None
        return InitialCondition(mode="explicit", vec=(a, b))
    if mode is not None:
        errs.append(f"{path}.mode: unknown initial mode {mode!r}")
    return None


def _parse_inverter(d, path, errs, omega0):
    control = _string(d, "control", path, errs)
    allowed = _INV_DVOC if control == "dvoc" else _INV_DROOP
    if control not in ("dvoc", "droop"):
        if control is not None:
            errs.append(f"{path}.control: expected 'dvoc' or 'droop', got {control!r}")
        allowed = _INV_DVOC | _INV_DROOP
    if not _check_keys(d, path, allowed, errs):
        return None
    inv_id = _string(d, "id", path, errs)
    node = _string(d, "node", path, errs)
    p_star = _num(d, "p_star_w", path, errs)
    q_star = _num(d, "q_star_var", path, errs)
    v_star = _peak_voltage(d, path, errs, "v_star")
    initial = _parse_initial(d.get("initial"), f"{path}.initial", errs)
    if None in (inv_id, node, p_star, q_star, v_star, initial, omega0):
        return None
    try:
        if control == "dvoc":
            eta = _num(d, "eta", path, errs, exclusive_min=0.0)
            alpha = _num(d, "alpha", path, errs, exclusive_min=0.0)
            kappa = _num(d, "kappa_rad", path, errs)
            if None in (eta, alpha, kappa):
                return None
            params = DvocParams(eta=eta, alpha=alpha, kappa=kappa, p_star=p_star,
                                q_star=q_star, v_star=v_star, omega0=omega0)
        elif control == "droop":
            kp = _num(d, "kp_rad_per_sw", path, errs)
            kq = _num(d, "kq_v_per_var", path, errs)
            if None in (kp, kq):
                return None
            params = DroopParams(kp=kp, kq=kq, omega0=omega0, v_star=v_star,
                                 p_star=p_star, q_star=q_star)
        else:
            return None
    except ValueError as exc:
        errs.append(f"{path}: {exc}")
        return None
    return InverterSpec(inverter_id=inv_id, node=node, params=params, initial=initial)


def _parse_network(d, path, errs, inverter_nodes):
    if not _check_keys(d, path, {"branches", "loads", "shunt_caps"}, errs):
        return None
    branches = []
    for k, bd in enumerate(d.get("branches", [])):
        bpath = f"{path}.branches[{k}]"
        if not _check_keys(bd, bpath, {"id", "from", "to", "r_ohm", "l_henry",
                                       "connected"}, errs):
            continue
        bid = _string(bd, "id", bpath, errs)
        frm = _string(bd, "from", bpath, errs)
        to = _string(bd, "to", bpath, errs)
        r = _num(bd, "r_ohm", bpath, errs, minimum=0.0)
        l = _num(bd, "l_henry", bpath, errs, minimum=0.0)
        connected = bd.get("connected", True)
        if not isinstance(connected, bool):
            errs.append(f"{bpath}.connected: expected a boolean")
            continue
        if None in (bid, frm, to, r, l):
            continue
        try:
            branches.append(Branch(branch_id=bid, from_node=frm, to_node=to,
                                   r=r, l=l, connected=connected))
        except ValueError as exc:
            errs.append(f"{bpath}: {exc}")
    known_nodes = set(inverter_nodes)
    for b in branches:
        known_nodes.update((b.from_node, b.to_node))
    loads = {}
    for k, ld in enumerate(d.get("loads", [])):
        lpath = f"{path}.loads[{k}]"
        if not _check_keys(ld, lpath, {"node", "g_siemens", "p_w", "v_rated_vrms",
                                       "v_rated_peak"}, errs):
            continue
        node = _string(ld, "node", lpath, errs)
        g = _load_conductance(ld, lpath, errs)
        if node is None or g is None:
            continue
        if node in loads:
            errs.append(f"{lpath}: duplicate load node {node!r}")
            continue
        if node not in known_nodes:
            errs.append(f"{lpath}: undefined node {node!r}")
            continue
        loads[node] = g
    caps = {}
    for k, cd in enumerate(d.get("shunt_caps", [])):
        cpath = f"{path}.shunt_caps[{k}]"
        if not _check_keys(cd, cpath, {"node", "c_farad"}, errs):
            continue
        node = _string(cd, "node", cpath, errs)
        c = _num(cd, "c_farad", cpath, errs, minimum=0.0)
        if node is None or c is None:
            continue
        if node in caps:
            errs.append(f"{cpath}: duplicate capacitor node {node!r}")
            continue
        caps[node] = c
    try:
        return Topology(inverter_nodes=tuple(inverter_nodes), branches=tuple(branches),
                        loads=loads, shunt_caps=caps)
    except (TopologyError, ValueError) as exc:
        errs.append(f"{path}: {exc}")
        return None


_EVENT_KEYS = {
    "connect": {"t_s", "type", "branch"},
    "disconnect": {"t_s", "type", "branch"},
    "load_step": {"t_s", "type", "node", "g_siemens", "p_w", "v_rated_vrms",
                  "v_rated_peak"},
    "set_point": {"t_s", "type", "inverter", "p_star_w", "q_star_var",
                  "v_star_vrms", "v_star_peak"},
}


def _parse_event(d, path, errs, topo, inverter_ids):
    typ = _string(d, "type", path, errs)
    if typ not in _EVENT_KEYS:
        if typ is not None:
            errs.append(f"{path}.type: unknown event type {typ!r}")
        return None
    if not _check_keys(d, path, _EVENT_KEYS[typ], errs):
        return None
    t = _num(d, "t_s", path, errs, minimum=0.0)
    if t is None:
        return None
    if typ in ("connect", "disconnect"):
        bid = _string(d, "branch", path, errs)
        if bid is None:
            return None
        if topo is not None and bid not in {b.branch_id for b in topo.branches}:
            errs.append(f"{path}.branch: undefined branch {bid!r}")
            return None
        action = ConnectBranch(bid) if typ == "connect" else DisconnectBranch(bid)
    elif typ == "load_step":
        node = _string(d, "node", path, errs)
        g = _load_conductance(d, path, errs)
        if node is None or g is None:
            return None
        if topo is not None and node not in topo.nodes():
            errs.append(f"{path}.node: undefined node {node!r}")
            return None
        action = LoadStep(node=node, conductance=g)
    else:
        inv = _string(d, "inverter", path, errs)
        if inv is None:
            return None
        if inv not in inverter_ids:
            errs.append(f"{path}.inverter: undefined inverter {inv!r}")
            return None
        p = _num(d, "p_star_w", path, errs, required=False)
        q = _num(d, "q_star_var", path, errs, required=False)
        v = _peak_voltage(d, path, errs, "v_star", required=False)
        if p is None and q is None and v is None:
            errs.append(f"{path}: set_point event updates nothing")
            return None
        action = SetPointUpdate(inverter_id=inv, p_star=p, q_star=q, v_star=v)
    return Event(time=t, action=action)


_TOP_KEYS = {"name", "description", "omega0_rad_per_s", "inverters", "network",
             "events", "sim", "outputs"}
_SIM_KEYS = {"dt_s", "t_end_s", "controller_sample_hz", "network_model",
             "record_decimation", "noise_seed", "noise_amplitude"}


def _parse_sim(d, path, errs):
    if d is None:
        d = {}
    if not _check_keys(d, path, _SIM_KEYS, errs):
        return None
    kwargs = {}
    if "dt_s" in d:
        kwargs["dt"] = _num(d, "dt_s", path, errs, exclusive_min=0.0)
    if "t_end_s" in d:
        kwargs["t_end"] = _num(d, "t_end_s", path, errs, exclusive_min=0.0)
    if "controller_sample_hz" in d and d["controller_sample_hz"] is not None:
        kwargs["controller_sample_hz"] = _num(d, "controller_sample_hz", path, errs,
                                              exclusive_min=0.0)
    if "network_model" in d:
        kwargs["network_model"] = _string(d, "network_model", path, errs)
    if "record_decimation" in d:
        v = d["record_decimation"]
        if not isinstance(v, int) or isinstance(v, bool):
            errs.append(f"{path}.record_decimation: expected an integer")
        else:
            kwargs["record_decimation"] = v
    if "noise_seed" in d:
        v = d["noise_seed"]
        if not isinstance(v, int) or isinstance(v, bool):
            errs.append(f"{path}.noise_seed: expected an integer")
        else:
            kwargs["noise_seed"] = v
    if "noise_amplitude" in d:
        kwargs["noise_amplitude"] = _num(d, "noise_amplitude", path, errs, minimum=0.0)
    if any(v is None for v in kwargs.values()):
        return None
    try:
        return SimConfig(**kwargs)
    except ValueError as exc:
        errs.append(f"{path}: {exc}")
        return None


def parse_scenario_dict(data):
    """Validate a scenario document and build the resolved Scenario.

    Raises ScenarioError carrying the full list of problems found.
    """
    errs = []
    if not isinstance(data, dict):
        raise ScenarioError(["top level: expected an object"])
    _check_keys(data, "top level", _TOP_KEYS, errs)
    name = data.get("name", "")
    desc = data.get("description", "")
    omega0 = _num(data, "omega0_rad_per_s", "top level", errs, exclusive_min=0.0)

    inv_list = data.get("inverters")
    inverters = []
    if not isinstance(inv_list, list) or not inv_list:
        errs.append("inverters: at least one inverter is required")
    else:
        for k, d in enumerate(inv_list):
            path = f"inverters[{k}]"
            if not isinstance(d, dict):
                errs.append(f"{path}: expected an object")
                continue
            spec = _parse_inverter(d, path, errs, omega0)
            if spec is not None:
                inverters.append(spec)
    ids = [s.inverter_id for s in inverters]
    if len(set(ids)) != len(ids):
        errs.append("inverters: duplicate inverter ids")
    nodes = [s.node for s in inverters]
    if len(set(nodes)) != len(nodes):
        errs.append("inverters: duplicate node id (two inverters on one node)")

    net = data.get("network")
    topo = None
    if not isinstance(net, dict):
        errs.append("network: required object missing")
    else:
        topo = _parse_network(net, "network", errs, nodes)

    events = []
    times = []
    for k, d in enumerate(data.get("events", [])):
        path = f"events[{k}]"
        if not isinstance(d, dict):
            errs.append(f"{path}: expected an object")
            continue
        ev = _parse_event(d, path, errs, topo, set(ids))
        if ev is not None:
            events.append(ev)
            times.append(ev.time)
    if times != sorted(times):
        errs.append("events: times must be sorted ascending")

    sim = _parse_sim(data.get("sim"), "sim", errs)

    outputs = data.get("outputs", list(_OUTPUTS))
    if not isinstance(outputs, list) or any(o not in _OUTPUTS for o in outputs):
        errs.append(f"outputs: expected a list drawn from {_OUTPUTS}")
        outputs = list(_OUTPUTS)

    # Structural check for the dynamic model, over the whole event timeline.
    if topo is not None and sim is not None and sim.network_model == "dynamic":
        t = topo
        try:
            DynamicNetwork(t)
            for ev in events:
                t = apply_event(t, ev.action)
                DynamicNetwork(t)
        except (TopologyError, ValueError, KeyError) as exc:
            errs.append(f"network: {exc}")

    if errs:
        raise ScenarioError(errs)
    return Scenario(name=name, description=desc, omega0=omega0, inverters=inverters,
                    topology=topo, events=events, sim=sim, outputs=tuple(outputs))


def parse_scenario(path):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: invalid JSON: {exc}"]) from exc
    return parse_scenario_dict(data)


# --- built-in scenarios ------------------------------------------------------

# Hardware-style parameter set used by the built-in SI scenarios.
ETA = 21.71            # Ohm rad/s
ALPHA = 0.9722         # Siemens
F_NOMINAL = 60.0
OMEGA0 = 2.0 * math.pi * F_NOMINAL
V_RMS = 120.0
V_PEAK = V_RMS * SQRT2
C_FILTER = 24e-6       # F
L_BRANCH = 0.2e-3      # H (grid-side filter inductance)
# The testbed line impedances are not published; every built-in scenario uses
# this series resistance per inverter branch to a single load bus.
R_BRANCH = 0.1         # Ohm

# Reactive set-point that exactly cancels the filter capacitor's consumption
# q_cap = -omega0 C v^2 at nominal amplitude, in this package's power
# convention (peak-amplitude vectors, q = v @ J i).  Stated per-RMS the same
# compensation reads omega0 C V_rms^2 ~ 130 var; a nameplate-style "-125 var"
# is that RMS figure, not a value in these units.
Q_STAR_CAP = -OMEGA0 * C_FILTER * V_PEAK**2


def _dvoc_inverter(inv_id, node, p_star, q_star, initial, eta=ETA, alpha=ALPHA):
    d = {"id": inv_id, "node": node, "control": "dvoc", "eta": eta, "alpha": alpha,
         "kappa_rad": math.pi / 2.0, "p_star_w": p_star, "q_star_var": q_star,
         "v_star_vrms": V_RMS, "initial": initial}
    return d


def _branch(bid, frm, to, connected=True, r=R_BRANCH, l=L_BRANCH):
    return {"id": bid, "from": frm, "to": to, "r_ohm": r, "l_henry": l,
            "connected": connected}


def _fig4():
    return parse_scenario_dict({
        "name": "paper-fig4",
        "description": "Black start of a single inverter into a 500 W resistive load.",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [
            _dvoc_inverter("inv1", "n1", 500.0, Q_STAR_CAP, {"mode": "blackstart"}),
        ],
        "network": {
            "branches": [_branch("b1", "n1", "bus")],
            "loads": [{"node": "bus", "p_w": 500.0, "v_rated_vrms": V_RMS}],
            "shunt_caps": [{"node": "n1", "c_farad": C_FILTER}],
        },
        "events": [],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.7, "network_model": "dynamic",
                "record_decimation": 1, "noise_seed": 1},
    })


def _fig5():
    return parse_scenario_dict({
        "name": "paper-fig5",
        "description": "Second inverter connected at t = 0.2 s while the first "
                       "regulates a 500 W load; both p* = 500 W.",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [
            _dvoc_inverter("inv1", "n1", 500.0, Q_STAR_CAP,
                           {"mode": "nominal", "angle_rad": 0.0}),
            _dvoc_inverter("inv2", "n2", 500.0, Q_STAR_CAP,
                           {"mode": "nominal", "angle_rad": 0.5}),
        ],
        "network": {
            "branches": [_branch("b1", "n1", "bus"),
                         _branch("b2", "n2", "bus", connected=False)],
            "loads": [{"node": "bus", "p_w": 500.0, "v_rated_vrms": V_RMS}],
            "shunt_caps": [{"node": "n1", "c_farad": C_FILTER},
                           {"node": "n2", "c_farad": C_FILTER}],
        },
        "events": [{"t_s": 0.2, "type": "connect", "branch": "b2"}],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.7, "network_model": "dynamic",
                "record_decimation": 1, "noise_seed": 1},
    })


def _fig6():
    return parse_scenario_dict({
        "name": "paper-fig6",
        "description": "250 W to 750 W load step at t = 0.4 s with two inverters "
                       "active, equal p* = 500 W.",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [
            _dvoc_inverter("inv1", "n1", 500.0, Q_STAR_CAP,
                           {"mode": "nominal", "angle_rad": 0.0}),
            _dvoc_inverter("inv2", "n2", 500.0, Q_STAR_CAP,
                           {"mode": "nominal", "angle_rad": 0.3}),
        ],
        "network": {
            "branches": [_branch("b1", "n1", "bus"), _branch("b2", "n2", "bus")],
            "loads": [{"node": "bus", "p_w": 250.0, "v_rated_vrms": V_RMS}],
            "shunt_caps": [{"node": "n1", "c_farad": C_FILTER},
                           {"node": "n2", "c_farad": C_FILTER}],
        },
        "events": [{"t_s": 0.4, "type": "load_step", "node": "bus",
                    "p_w": 750.0, "v_rated_vrms": V_RMS}],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.8, "network_model": "dynamic",
                "record_decimation": 1, "noise_seed": 1},
    })


@functools.lru_cache(maxsize=1)
def _fig7_consistent_operating_point():
    """Load conductance and reactive set-points making p* = (250, 500) W at
    |v| = v_star an exact power-flow solution of the built-in two-inverter
    network (so the dispatched system settles at exactly the nominal
    frequency)."""
    targets = np.array([250.0, 500.0])

    def topo_for(g):
        return Topology(
            inverter_nodes=("n1", "n2"),
            branches=(Branch("b1", "n1", "bus", R_BRANCH, L_BRANCH),
                      Branch("b2", "n2", "bus", R_BRANCH, L_BRANCH)),
            loads={"bus": g},
            shunt_caps={"n1": C_FILTER, "n2": C_FILTER},
        )

    def powers(x):
        g, th2 = x
        m = reduced_admittance(topo_for(g), OMEGA0)
        v = np.array([V_PEAK, V_PEAK * np.exp(1j * th2)])
        i = m @ v
        s = np.conj(v) * i
        return s.real, -s.imag

    def residual(x):
        p, _ = powers(x)
        return p - targets

    x0 = np.array([750.0 / V_PEAK**2, 0.0])
    x, res, converged, _ = gauss_newton(residual, x0, tol=1e-14)
    if not converged or np.linalg.norm(res) > 1e-6:
        raise RuntimeError("built-in dispatch scenario: consistency solve failed")
    _, q = powers(x)
    return float(x[0]), float(q[0]), float(q[1])


def _fig7():
    g_load, q1, q2 = _fig7_consistent_operating_point()
    return parse_scenario_dict({
        "name": "paper-fig7",
        "description": "Set-point dispatch: p* of the second inverter raised from "
                       "250 W to 500 W at t = 0.4 s under a 750 W load sized so "
                       "the final set-points are exactly consistent.",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [
            _dvoc_inverter("inv1", "n1", 250.0, q1,
                           {"mode": "nominal", "angle_rad": 0.0}),
            _dvoc_inverter("inv2", "n2", 250.0, q2,
                           {"mode": "nominal", "angle_rad": 0.1}),
        ],
        "network": {
            "branches": [_branch("b1", "n1", "bus"), _branch("b2", "n2", "bus")],
            "loads": [{"node": "bus", "g_siemens": g_load}],
            "shunt_caps": [{"node": "n1", "c_farad": C_FILTER},
                           {"node": "n2", "c_farad": C_FILTER}],
        },
        "events": [{"t_s": 0.4, "type": "set_point", "inverter": "inv2",
                    "p_star_w": 500.0}],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.9, "network_model": "dynamic",
                "record_decimation": 1, "noise_seed": 1},
    })


def _droop_ref():
    """Per-unit single-inverter scenario with the reference droop-design gains;
    the droop-sweep machinery clones it across load grids."""
    return parse_scenario_dict({
        "name": "droop-ref",
        "description": "Per-unit single-inverter droop sweep template "
                       "(eta = 43.43, alpha = 0.9722, kappa = pi/2, p* = 0.5 pu).",
        "omega0_rad_per_s": OMEGA0,
        "inverters": [{
            "id": "inv1", "node": "n1", "control": "dvoc",
            "eta": 43.43, "alpha": 0.9722, "kappa_rad": math.pi / 2.0,
            "p_star_w": 0.5, "q_star_var": 0.0, "v_star_peak": 1.0,
            "initial": {"mode": "nominal", "angle_rad": 0.0},
        }],
        "network": {
            "branches": [{"id": "b1", "from": "n1", "to": "bus",
                          "r_ohm": 0.01, "l_henry": 0.0, "connected": True}],
            "loads": [{"node": "bus", "g_siemens": 0.5}],
            "shunt_caps": [],
        },
        "events": [],
        "sim": {"dt_s": 1e-4, "t_end_s": 0.4, "network_model": "quasistatic",
                "record_decimation": 2, "noise_seed": 1},
    })


_BUILTINS = {
    "paper-fig4": (_fig4, "single-inverter black start under a 500 W load"),
    "paper-fig5": (_fig5, "connect a second inverter under a 500 W load"),
    "paper-fig6": (_fig6, "250 W to 750 W load step, two inverters sharing"),
    "paper-fig7": (_fig7, "real-time set-point dispatch, 250:500 W sharing"),
    "droop-ref": (_droop_ref, "per-unit droop sweep template"),
}

_ALIASES = {
    "blackstart": "paper-fig4",
    "connect-inverter": "paper-fig5",
    "load-step": "paper-fig6",
    "dispatch": "paper-fig7",
}


def builtin_names():
    """Builtin scenario names (with aliases) and one-line descriptions."""
    out = {}
    for name, (_, desc) in _BUILTINS.items():
        aliases = [a for a, target in _ALIASES.items() if target == name]
        out[name] = desc + (f" (alias: {', '.join(aliases)})" if aliases else "")
    return out


def builtin_scenario(name):
    """Construct a built-in scenario by name or alias."""
    key = _ALIASES.get(name, name)
    if key not in _BUILTINS:
        known = sorted(set(_BUILTINS) | set(_ALIASES))
        raise KeyError(f"unknown builtin scenario {name!r}; known: {', '.join(known)}")
    return _BUILTINS[key][0]()
