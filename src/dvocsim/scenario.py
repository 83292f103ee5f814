"""Scenario files: schema, strict parser, serializer, and built-in scenarios.

A scenario is a single JSON document.  Keys carry explicit units
(``r_ohm``, ``l_henry``, ``p_star_w``, ``t_s``, ...).  Voltages may be given
as ``*_vrms`` or ``*_peak``; RMS values are converted to peak (x sqrt(2))
here and nowhere else.  Loads may be given directly as ``g_siemens`` or as a
power rating ``p_w`` at a rated voltage, in which case
g = p_w / v_rated_peak^2 (so the load absorbs p_w when the bus sits at the
rated amplitude).  ``name`` and ``description`` are strings, ``noise_seed``
is a non-negative integer, and t_end/dt must round to between 1 and
``sim.MAX_STEPS`` steps.  ``sim.step_multiple`` k makes each integrator
step k dt long; left out, k is chosen by accuracy.  Either way a step is
shortened to end at the next event, controller sample or t_end, so events
may fall on any dt step.  Noise works at any step size.

The schema lives in one table per object (``_SCENARIO``, ``_INVERTER``, ...,
``_SIM``), each row giving a JSON key, the target field, its kind with
bounds, and whether it is required or its default.  One reader walks the
tables to build the dataclasses and one writer emits them back out, so the
parser and ``Scenario.to_dict`` cannot drift apart.  A short pass then checks
cross-references: duplicate ids and nodes, undefined nodes, branches and
inverters, event order, and the dynamic network model's structure.

Parsing is strict: unknown keys are rejected to catch typos in physical
parameters, and every problem, each with its path, is reported together in
one ScenarioError, the only exception the parser raises (the CLI exits 2).
"""

import copy
import functools
import json
import math
from collections import namedtuple

import numpy as np

from .control import DroopParams, DvocParams
from .network import (Branch, ConnectBranch, DisconnectBranch, DynamicNetwork, Event,
                      LoadStep, SetPointUpdate, Topology, apply_event,
                      forward_power_flow)
from .numerics import gauss_newton
from .sim import InitialCondition, SimConfig
from .values import value_type

SQRT2 = math.sqrt(2.0)
_OUTPUTS = ("trace", "metrics")


class ScenarioError(ValueError):
    """Scenario failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("scenario validation failed:\n  " + "\n  ".join(self.errors))


@value_type(frozen=True)
class InverterSpec:
    inverter_id: str
    node: str
    params: object  # DvocParams or DroopParams
    initial: InitialCondition


@value_type
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

    def to_dict(self):
        """Canonical JSON-compatible form (peak volts, conductances resolved).

        Feeding the result back through ``parse_scenario_dict`` reproduces an
        equal Scenario.
        """
        return _write(_SCENARIO, self)


# --- schema kinds -----------------------------------------------------------

_REQUIRED = object()    # row default: the key must be given
_KEEP = object()        # row default: keep the target dataclass's own default
_ABSENT = object()      # read result: the key is missing or null
_BAD = object()         # read result: invalid, and the problem is in errs


def _join(path, key):
    return f"{path}.{key}" if path else key


def _show(v):
    """``v`` for an error message; containers by type name, and huge ints by
    size (the repr of a 5000-digit int raises ValueError)."""
    if isinstance(v, int) and v.bit_length() > 64:
        return f"a {v.bit_length()}-bit integer"
    return repr(v) if isinstance(v, (str, int, float, type(None))) else type(v).__name__


class _Kind:
    """How a row reads its value from a JSON object and writes it back.

    ``check(v, path, errs, scope)`` turns the JSON value at ``path`` into the
    value to store.  It raises ValueError with the reason, or returns _BAD
    after putting nested problems in ``errs``; ``scope`` holds the values
    already read from the enclosing object.  ``dump`` is its inverse.
    """

    def __init__(self, check=None, dump=None):
        self.check, self.dump = check, dump

    def keys(self, key):
        return (key,)

    def read(self, d, key, path, errs, scope):
        """The value of ``key`` in ``d``: stored, _ABSENT or _BAD."""
        if d.get(key) is None:
            return _ABSENT
        try:
            return self.check(d[key], _join(path, key), errs, scope)
        except ValueError as exc:
            errs.append(f"{_join(path, key)}: {exc}")
            return _BAD

    def write(self, key, value):
        return {key: self.dump(value) if self.dump else value}


def _finite(op=None, lo=0.0):
    """Finite number, stored as float; ``op`` '>' or '>=' bounds it by ``lo``."""
    def check(v, *_):
        x = math.nan
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            try:
                x = float(v)
            except OverflowError:  # an int beyond the float range
                pass
        if math.isfinite(x) and (op is None or x > lo or (op == ">=" and x == lo)):
            return x
        raise ValueError(f"expected a finite number{f' {op} {lo}' if op else ''}, "
                         f"got {_show(v)}")
    return _Kind(check)


def _text(empty=False):
    def check(v, *_):
        if isinstance(v, str) and (v or empty):
            return v
        raise ValueError(f"expected a{'' if empty else ' non-empty'} string, "
                         f"got {_show(v)}")
    return _Kind(check)


def _int(lo):
    def check(v, *_):
        if isinstance(v, int) and not isinstance(v, bool) and v >= lo:
            return v
        raise ValueError(f"expected an integer >= {lo}, got {_show(v)}")
    return _Kind(check)


def _enum(*choices):
    """One of ``choices``: strings, or True and False for a boolean."""
    def check(v, *_):
        if isinstance(v, type(choices[0])) and v in choices:
            return v
        raise ValueError(f"expected one of {choices}, got {_show(v)}")
    return _Kind(check)


def _outputs(v, *_):
    if isinstance(v, list) and all(isinstance(o, str) and o in _OUTPUTS for o in v):
        return tuple(v)
    raise ValueError(f"expected a list drawn from {_OUTPUTS}")


def _obj(table):
    return _Kind(functools.partial(_read, table), functools.partial(_write, table))


def _list(table, nonempty=False):
    """List of objects read through ``table``; ``nonempty`` asks for one."""
    def check(v, path, errs, scope):
        if not isinstance(v, list) or (nonempty and not v):
            raise ValueError(f"expected a{' non-empty' * nonempty} list")
        items = [_read(table, x, f"{path}[{k}]", errs, scope) for k, x in enumerate(v)]
        return _BAD if _BAD in items else items
    return _Kind(check, lambda items: [_write(table, x) for x in items])


class _Peak(_Kind):
    """Peak voltage (> 0) at '<name>_peak', or as an RMS value (x sqrt(2)) at
    '<name>_vrms'; written as '<name>_peak'."""

    def __init__(self):
        super().__init__(_finite(">").check)

    def keys(self, key):
        return (key[:-len("peak")] + "vrms", key)

    def read(self, d, key, path, errs, scope):
        rms = self.keys(key)[0]
        if d.get(rms) is None:
            return super().read(d, key, path, errs, scope)
        if d.get(key) is not None:
            errs.append(f"{path}: give exactly one of {rms!r} or {key!r}")
            return _BAD
        v = super().read(d, rms, path, errs, scope)
        # Check the peak value too: v * sqrt(2) overflows near the float limit.
        return v if v is _BAD else super().read({rms: v * SQRT2}, rms, path, errs, scope)


_PEAK = _Peak()


class _Conductance(_Kind):
    """Load conductance (S, >= 0) at 'g_siemens', or a rating 'p_w' (W, >= 0)
    at a rated voltage given as for _Peak: g = p_w / v_rated_peak^2."""

    def __init__(self):
        super().__init__(_finite(">=").check)

    def keys(self, key):
        return (key, "p_w") + _PEAK.keys("v_rated_peak")

    def read(self, d, key, path, errs, scope):
        rating = [k for k in self.keys(key)[1:] if d.get(k) is not None]
        if not rating:
            return super().read(d, key, path, errs, scope)
        if d.get(key) is not None or "p_w" not in rating:
            errs.append(f"{path}: give either {key} or p_w with a rated voltage")
            return _BAD
        p = super().read(d, "p_w", path, errs, scope)
        v = _PEAK.read(d, "v_rated_peak", path, errs, scope)
        if v is _ABSENT:
            errs.append(f"{path}: missing 'v_rated_vrms' or 'v_rated_peak'")
        if _BAD in (p, v) or v is _ABSENT:
            return _BAD
        try:
            g = p / v**2
        except (OverflowError, ZeroDivisionError):
            g = math.nan
        if math.isfinite(g):
            return g
        errs.append(f"{path}: the square of v_rated_peak = {v} over- or underflows")
        return _BAD


class _Inherit(_Kind):
    """The enclosing object's field of the same name; not in the document."""

    def keys(self, key):
        return ()

    def write(self, key, value):
        return {}


# --- schema tables ----------------------------------------------------------

# A row: JSON ``key``, target ``attr``, ``kind`` (with its bounds) and
# ``default``: _REQUIRED, _KEEP, or a value (copied) to use when absent.
_Field = namedtuple("_Field", "key attr kind default", defaults=(_REQUIRED,))
# One object: its rows, ``build(**values)`` making it, and ``fields(obj)``
# giving the values back by attribute.
_Table = namedtuple("_Table", "rows build fields", defaults=(dict, vars))
# Tagged variants: the string at ``key`` selects one of ``tables``, and
# ``tag(obj)`` names the variant of an object being written.
_Variants = namedtuple("_Variants", "key tag tables")


def _fields(table, d, path, errs, outer):
    """Read the rows of ``table`` (a variant's, if it is _Variants) from the
    JSON object ``d``: (table used, values by attribute with _BAD where
    invalid), or (table, _BAD) when ``d`` is no object or has a bad tag."""
    where = path or "top level"
    if not isinstance(d, dict):
        errs.append(f"{where}: expected an object")
        return table, _BAD
    known = set()
    if isinstance(table, _Variants):
        tag = d.get(table.key)
        if not (isinstance(tag, str) and tag in table.tables):
            errs.append(f"{_join(path, table.key)}: expected one of "
                        f"{tuple(table.tables)}, got {_show(tag)}")
            return table, _BAD
        known, table = {table.key}, table.tables[tag]
    known.update(k for row in table.rows for k in row.kind.keys(row.key))
    errs.extend(f"{where}: unknown key {k!r}" for k in d if k not in known)
    values = {}
    for row in table.rows:
        if isinstance(row.kind, _Inherit):
            values[row.attr] = outer.get(row.attr, _BAD)
            continue
        v = row.kind.read(d, row.key, path, errs, values)
        if v is _ABSENT and row.default is _KEEP:
            continue
        if v is _ABSENT and row.default is _REQUIRED:
            # A two-form kind lists its alternatives first (rms/peak, g/p_w).
            errs.append(f"{where}: missing required key "
                        f"{' or '.join(map(repr, row.kind.keys(row.key)[:2]))}")
            v = _BAD
        values[row.attr] = copy.copy(row.default) if v is _ABSENT else v
    return table, values


def _read(table, d, path, errs, outer):
    """The object ``table`` builds from ``d``, or _BAD with every problem
    found appended to ``errs``."""
    table, values = _fields(table, d, path, errs, outer)
    if values is _BAD or _BAD in values.values():
        return _BAD
    try:
        return table.build(**values)
    except ValueError as exc:
        errs.append(f"{path or 'top level'}: {exc}")
        return _BAD


def _write(table, obj):
    """The JSON object for ``obj``: every row of its table, None left out."""
    out = {}
    if isinstance(table, _Variants):
        out[table.key] = tag = table.tag(obj)
        table = table.tables[tag]
    values = table.fields(obj)
    for row in table.rows:
        if values[row.attr] is not None:
            out.update(row.kind.write(row.key, values[row.attr]))
    return out


def _inverter(params, *rows):
    def build(inverter_id, node, initial, **kw):
        return InverterSpec(inverter_id, node, params(**kw), initial)
    return _Table((_Field("id", "inverter_id", _text()),
                   _Field("node", "node", _text()),
                   _Field("omega0_rad_per_s", "omega0", _Inherit()),
                   _Field("p_star_w", "p_star", _finite()),
                   _Field("q_star_var", "q_star", _finite()),
                   _Field("v_star_peak", "v_star", _PEAK),
                   _Field("initial", "initial", _obj(_INITIAL), InitialCondition()))
                  + rows, build, lambda spec: {**vars(spec), **vars(spec.params)})


def _event(action, *rows):
    return _Table((_Field("t_s", "time", _finite(">=")),) + rows,
                  lambda time, **kw: Event(time, action(**kw)),
                  lambda ev: {"time": ev.time, **vars(ev.action)})


def _set_point(inverter_id, **given):
    if not given:
        raise ValueError("set_point event updates nothing")
    return SetPointUpdate(inverter_id, **given)


_INITIAL = _Variants("mode", lambda init: init.mode, {
    "blackstart": _Table((), functools.partial(InitialCondition, "blackstart")),
    "nominal": _Table((_Field("angle_rad", "angle", _finite(), _KEEP),),
                      functools.partial(InitialCondition, "nominal")),
    "explicit": _Table((_Field("v_alpha", "v_alpha", _finite()),
                        _Field("v_beta", "v_beta", _finite())),
                       lambda v_alpha, v_beta: InitialCondition("explicit",
                                                                vec=(v_alpha, v_beta)),
                       lambda init: dict(zip(("v_alpha", "v_beta"), init.vec))),
})
_INVERTER = _Variants(
    "control", lambda spec: "dvoc" if isinstance(spec.params, DvocParams) else "droop",
    {"dvoc": _inverter(DvocParams, _Field("eta", "eta", _finite(">")),
                       _Field("alpha", "alpha", _finite(">")),
                       _Field("kappa_rad", "kappa", _finite())),
     "droop": _inverter(DroopParams, _Field("kp_rad_per_sw", "kp", _finite()),
                        _Field("kq_v_per_var", "kq", _finite()))})

_BRANCH = _Table((_Field("id", "branch_id", _text()),
                  _Field("from", "from_node", _text()),
                  _Field("to", "to_node", _text()),
                  _Field("r_ohm", "r", _finite(">=")),
                  _Field("l_henry", "l", _finite(">=")),
                  _Field("connected", "connected", _enum(True, False), True)), Branch)
# Loads and shunt capacitors are read as (node, value) pairs; the
# cross-reference pass gathers them per node.
_PAIR = (lambda node, value: (node, value), lambda pair: dict(zip(("node", "value"), pair)))
_LOAD = _Table((_Field("node", "node", _text()),
                _Field("g_siemens", "value", _Conductance())), *_PAIR)
_SHUNT_CAP = _Table((_Field("node", "node", _text()),
                     _Field("c_farad", "value", _finite(">="))), *_PAIR)
_NETWORK = _Table((_Field("branches", "branches", _list(_BRANCH), []),
                   _Field("loads", "loads", _list(_LOAD), []),
                   _Field("shunt_caps", "shunt_caps", _list(_SHUNT_CAP), [])),
                  fields=lambda topo: {"branches": topo.branches,
                                       "loads": sorted(topo.loads.items()),
                                       "shunt_caps": sorted(topo.shunt_caps.items())})

_EVENT_TYPES = {ConnectBranch: "connect", DisconnectBranch: "disconnect",
                LoadStep: "load_step", SetPointUpdate: "set_point"}
_EVENT = _Variants("type", lambda ev: _EVENT_TYPES[type(ev.action)], {
    "connect": _event(ConnectBranch, _Field("branch", "branch_id", _text())),
    "disconnect": _event(DisconnectBranch, _Field("branch", "branch_id", _text())),
    "load_step": _event(LoadStep, _Field("node", "node", _text()),
                        _Field("g_siemens", "conductance", _Conductance())),
    "set_point": _event(_set_point, _Field("inverter", "inverter_id", _text()),
                        _Field("p_star_w", "p_star", _finite(), _KEEP),
                        _Field("q_star_var", "q_star", _finite(), _KEEP),
                        _Field("v_star_peak", "v_star", _PEAK, _KEEP)),
})

_SIM = _Table((_Field("dt_s", "dt", _finite(">"), _KEEP),
               _Field("t_end_s", "t_end", _finite(">"), _KEEP),
               _Field("controller_sample_hz", "controller_sample_hz", _finite(">"), _KEEP),
               _Field("network_model", "network_model", _enum("dynamic", "quasistatic"),
                      _KEEP),
               _Field("record_decimation", "record_decimation", _int(1), _KEEP),
               _Field("noise_seed", "noise_seed", _int(0), _KEEP),
               _Field("noise_amplitude", "noise_amplitude", _finite(">="), _KEEP),
               _Field("step_multiple", "step_multiple", _int(1), _KEEP)), SimConfig)

# Rows are read in order, so omega0 is known when the inverters inherit it.
_SCENARIO = _Table((_Field("name", "name", _text(empty=True), ""),
                    _Field("description", "description", _text(empty=True), ""),
                    _Field("omega0_rad_per_s", "omega0", _finite(">")),
                    _Field("inverters", "inverters", _list(_INVERTER, nonempty=True)),
                    _Field("network", "topology", _obj(_NETWORK)),
                    _Field("events", "events", _list(_EVENT), []),
                    _Field("sim", "sim", _obj(_SIM), SimConfig()),
                    _Field("outputs", "outputs", _Kind(_outputs, list), _OUTPUTS)))


# --- cross-references ---------------------------------------------------------

def _topology(nodes, branches, loads, shunt_caps, errs):
    """The Topology over the inverter ``nodes`` (None if invalid), reporting
    duplicate and undefined load and capacitor nodes."""
    known = set(nodes).union(*((b.from_node, b.to_node) for b in branches))
    by_node = {"loads": {}, "shunt_caps": {}}
    for key, pairs in (("loads", loads), ("shunt_caps", shunt_caps)):
        for k, (node, value) in enumerate(pairs):
            if node in by_node[key]:
                what = "load" if key == "loads" else "capacitor"
                errs.append(f"network.{key}[{k}]: duplicate {what} node {node!r}")
            elif node not in known:
                errs.append(f"network.{key}[{k}]: undefined node {node!r}")
            by_node[key].setdefault(node, value)
    try:
        return Topology(tuple(nodes), tuple(branches), by_node["loads"],
                        by_node["shunt_caps"])
    except ValueError as exc:
        errs.append(f"network: {exc}")
        return None


def parse_scenario_dict(data):
    """Validate a scenario document and build the resolved Scenario.

    Raises ScenarioError carrying the full list of problems found.
    """
    errs = []
    _, top = _fields(_SCENARIO, data, "", errs, {})
    if top is _BAD:
        raise ScenarioError(errs)
    inverters, net, events, sim = (top[k] for k in ("inverters", "topology", "events",
                                                    "sim"))
    topo = ids = None
    if inverters is not _BAD:
        ids = [s.inverter_id for s in inverters]
        nodes = [s.node for s in inverters]
        if len(set(ids)) != len(ids):
            errs.append("inverters: duplicate inverter ids")
        if len(set(nodes)) != len(nodes):
            errs.append("inverters: duplicate node id (two inverters on one node)")
        elif net is not _BAD:
            topo = _topology(nodes, errs=errs, **net)

    n_errs = len(errs)
    if events is not _BAD:
        times = [ev.time for ev in events]
        if times != sorted(times):
            errs.append("events: times must be sorted ascending")
        for k, ev in enumerate(events):
            a = ev.action
            if isinstance(a, SetPointUpdate):
                key, ref, defined = "inverter", a.inverter_id, ids
            elif isinstance(a, LoadStep):
                key, ref, defined = "node", a.node, topo and topo.nodes()
            else:
                key, ref, defined = "branch", a.branch_id, topo and [
                    b.branch_id for b in topo.branches]
            if defined is not None and ref not in defined:
                errs.append(f"events[{k}].{key}: undefined {key} {ref!r}")

    # Structural check for the dynamic model, over the whole event timeline.
    if (topo is not None and events is not _BAD and len(errs) == n_errs
            and sim is not _BAD and sim.network_model == "dynamic"):
        t = topo
        try:
            DynamicNetwork(t)
            for ev in events:
                t = apply_event(t, ev.action)
                DynamicNetwork(t)
        except ValueError as exc:  # TopologyError, or a numpy LinAlgError
            errs.append(f"network: {exc}")

    if errs:
        raise ScenarioError(errs)
    return Scenario(**dict(top, topology=topo))


def parse_scenario(path):
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"cannot read {path}: {exc}"]) from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
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
                "record_decimation": 1, "noise_seed": 1,
                "step_multiple": 2},
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
                "record_decimation": 1, "noise_seed": 1,
                "step_multiple": 5},
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
                "record_decimation": 1, "noise_seed": 1,
                "step_multiple": 5},
    })


@functools.lru_cache(maxsize=1)
def _fig7_consistent_operating_point():
    """Load conductance and reactive set-points making p* = (250, 500) W at
    |v| = v_star an exact power-flow solution of the built-in two-inverter
    network (so the dispatched system settles at exactly the nominal
    frequency)."""
    targets = np.array([250.0, 500.0])

    def powers(x):
        g, th2 = x
        topo = Topology(
            inverter_nodes=("n1", "n2"),
            branches=(Branch("b1", "n1", "bus", R_BRANCH, L_BRANCH),
                      Branch("b2", "n2", "bus", R_BRANCH, L_BRANCH)),
            loads={"bus": g},
            shunt_caps={"n1": C_FILTER, "n2": C_FILTER},
        )
        return forward_power_flow(topo, OMEGA0, [V_PEAK, V_PEAK], [0.0, th2])

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
                "record_decimation": 1, "noise_seed": 1,
                "step_multiple": 5},
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
                "record_decimation": 2, "noise_seed": 1, "step_multiple": 5},
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
