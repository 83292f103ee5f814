import functools
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dvocsim import analysis
from dvocsim.control import DroopParams, DvocParams
from dvocsim.scenario import (ScenarioError, builtin_names, builtin_scenario,
                              parse_scenario, parse_scenario_dict)
from dvocsim.sim import Simulation, run_scenario

from conftest import pu_scenario_dict

V_PEAK = 120.0 * math.sqrt(2.0)


class TestBuiltins:
    def test_blackstart_alias_resolves_reference_parameters(self):
        sc = builtin_scenario("blackstart")
        assert sc.name == "paper-fig4"
        assert len(sc.inverters) == 1
        p = sc.inverters[0].params
        assert isinstance(p, DvocParams)
        assert p.eta == pytest.approx(21.71)
        assert p.alpha == pytest.approx(0.9722)
        assert p.kappa == pytest.approx(math.pi / 2)
        assert p.p_star == 500.0
        assert p.v_star == pytest.approx(V_PEAK, rel=1e-12)
        # 500 W resistive load at nominal amplitude
        assert sc.topology.loads["bus"] == pytest.approx(500.0 / V_PEAK**2, rel=1e-12)
        # reactive set-point cancels the filter capacitor at nominal amplitude
        c = sc.topology.shunt_caps["n1"]
        assert p.q_star == pytest.approx(-sc.omega0 * c * p.v_star**2, rel=1e-12)

    def test_all_builtins_construct_and_are_listed(self):
        names = builtin_names()
        for name in ("paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7",
                     "droop-ref"):
            assert name in names
            sc = builtin_scenario(name)
            assert sc.name == name

    def test_unknown_builtin(self):
        with pytest.raises(KeyError):
            builtin_scenario("paper-fig99")

    def test_dispatch_scenario_final_setpoints_are_consistent(self):
        sc = builtin_scenario("paper-fig7")
        post = []
        for spec in sc.inverters:
            p = spec.params
            p_star = 500.0 if spec.inverter_id == "inv2" else p.p_star
            post.append((p_star, p.q_star, p.v_star))
        rep = analysis.check_setpoint_consistency(sc.topology, post, sc.omega0)
        assert rep.status == "consistent"
        assert rep.residual_rel < 1e-9

    def test_connect_scenario_shape(self):
        sc = builtin_scenario("paper-fig5")
        assert not sc.topology.branch("b2").connected
        assert sc.events[0].time == 0.2


class TestParsing:
    def test_rms_voltage_converted_once(self):
        sc = parse_scenario_dict(pu_scenario_dict())
        assert sc.inverters[0].params.v_star == 1.0  # given as peak
        d = pu_scenario_dict()
        del d["inverters"][0]["v_star_peak"]
        d["inverters"][0]["v_star_vrms"] = 120.0
        sc = parse_scenario_dict(d)
        assert sc.inverters[0].params.v_star == pytest.approx(V_PEAK, rel=1e-12)

    def test_both_voltage_forms_rejected(self):
        d = pu_scenario_dict()
        d["inverters"][0]["v_star_vrms"] = 120.0
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("exactly one" in e for e in exc.value.errors)

    def test_load_power_rating_resolves_to_conductance(self):
        d = pu_scenario_dict()
        d["network"]["loads"] = [{"node": "bus", "p_w": 500.0,
                                  "v_rated_vrms": 120.0}]
        sc = parse_scenario_dict(d)
        assert sc.topology.loads["bus"] == pytest.approx(500.0 / V_PEAK**2, rel=1e-12)

    def test_negative_event_time_rejected(self):
        d = pu_scenario_dict(events=[{"t_s": -0.1, "type": "load_step",
                                      "node": "bus", "g_siemens": 0.4}])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("t_s" in e for e in exc.value.errors)

    def test_unsorted_events_rejected(self):
        d = pu_scenario_dict(events=[
            {"t_s": 0.2, "type": "load_step", "node": "bus", "g_siemens": 0.4},
            {"t_s": 0.1, "type": "load_step", "node": "bus", "g_siemens": 0.5}])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("sorted" in e for e in exc.value.errors)

    def test_duplicate_inverter_node_rejected(self):
        d = pu_scenario_dict()
        d["inverters"].append(dict(d["inverters"][0], id="inv2"))
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("duplicate node" in e for e in exc.value.errors)

    def test_unknown_key_rejected_in_strict_mode(self):
        d = pu_scenario_dict()
        d["inverters"][0]["ETA"] = 1.0
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("unknown key 'ETA'" in e for e in exc.value.errors)

    def test_all_errors_collected(self):
        d = pu_scenario_dict(events=[{"t_s": -1.0, "type": "connect",
                                      "branch": "nope"}])
        d["inverters"][0]["eta"] = -5.0
        d["network"]["loads"][0]["g_siemens"] = -0.2
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert len(exc.value.errors) >= 3

    def test_event_references_validated(self):
        d = pu_scenario_dict(events=[{"t_s": 0.1, "type": "set_point",
                                      "inverter": "ghost", "p_star_w": 1.0}])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("ghost" in e for e in exc.value.errors)

    def test_empty_setpoint_event_rejected(self):
        d = pu_scenario_dict(events=[{"t_s": 0.1, "type": "set_point",
                                      "inverter": "inv1"}])
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("updates nothing" in e for e in exc.value.errors)

    def test_dynamic_structural_check_at_load(self):
        d = pu_scenario_dict(branch_l=1e-4,
                             sim={"dt_s": 1e-6, "t_end_s": 0.01,
                                  "network_model": "dynamic",
                                  "record_decimation": 10, "noise_seed": 0})
        d["network"]["loads"][0]["g_siemens"] = 0.0
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any("singular" in e for e in exc.value.errors)

    def test_inverter_order_must_match_topology_node_order(self):
        # The simulator pairs inverter k with topology.inverter_nodes[k]:
        # paper-fig5 with its node order reversed used to run and move v by
        # 7.7 % of v*.
        sc = builtin_scenario("paper-fig5")
        with pytest.raises(ScenarioError) as exc:
            replace(sc, topology=replace(sc.topology, inverter_nodes=("n2", "n1")))
        assert "same order" in str(exc.value)

    @pytest.mark.parametrize("path, value, where", [
        (("sim", "noise_seed"), -1, "sim.noise_seed"),  # once failed the run
        (("sim", "noise_seed"), 1.5, "sim.noise_seed"),
        (("sim", "t_end_s"), 1e300, "sim: t_end/dt"),    # 1.5e304 steps
        (("sim", "t_end_s"), 1e-6, "sim: t_end/dt"),     # under half a step
        (("name",), 5, "name"),
        (("description",), ["text"], "description"),
        (("network", "loads", 0, "g_siemens"), 10**400, "network.loads[0].g_siemens"),
        (("sim", "step_multiple"), 0, "sim.step_multiple"),
        (("sim", "step_multiple"), 101, "sim: step_multiple"),
    ], ids=["negative-seed", "float-seed", "steps-overflow", "no-step", "name",
            "description", "huge-int", "zero-multiple", "huge-multiple"])
    def test_malformed_value_rejected_with_its_path(self, path, value, where):
        d = pu_scenario_dict()
        _at(d, path[:-1])[path[-1]] = value
        with pytest.raises(ScenarioError) as exc:
            parse_scenario_dict(d)
        assert any(e.startswith(where) for e in exc.value.errors), exc.value.errors

    @pytest.mark.parametrize("sim, events, rungs", [
        ({"controller_sample_hz": 1.0 / (3 * 2e-5)}, [], {1: 5000, 2: 5000}),
        ({}, [{"t_s": 0.10002, "type": "load_step", "node": "bus", "g_siemens": 0.4}],
         {1: 2, 2: 7499}),
    ], ids=["sample-interval", "event"])
    def test_step_multiple_off_the_grid_parses_and_runs(self, sim, events, rungs):
        # Two dt per step, a 3-step sample interval or an event at dt step
        # 5001: each step that would pass a sample or the event is
        # shortened to one dt, so the document parses and runs.
        d = pu_scenario_dict(events=events)
        d["sim"].update(sim, step_multiple=2)
        tr = run_scenario(parse_scenario_dict(d))
        assert tr.meta["stats"]["steps_per_rung"] == rungs
        assert [t for t, _ in tr.events] == pytest.approx([ev["t_s"] for ev in events])
        assert np.isfinite(tr.v).all() and np.isfinite(tr.i_o).all()

    def test_noise_runs_at_two_dt_per_step(self):
        # Noise, drawn per dt, crosses a step of several dt through the
        # linear flow, so a noisy document parses and runs at k = 2.
        d = pu_scenario_dict()
        d["sim"].update(noise_amplitude=0.1, step_multiple=2, t_end_s=0.002)
        sc = parse_scenario_dict(d)
        assert (sc.sim.step_multiple, sc.sim.noise_amplitude) == (2, 0.1)
        tr = run_scenario(sc)
        assert tr.meta["stats"]["steps_per_rung"] == {2: 50}
        assert np.isfinite(tr.v).all() and np.isfinite(tr.i_o).all()

    def test_droop_inverter_parses(self):
        sc = parse_scenario_dict(pu_scenario_dict(control="droop", kp=0.01,
                                                  kq=0.05))
        assert isinstance(sc.inverters[0].params, DroopParams)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(tmp_path / "missing.json")
        assert any("cannot read" in e for e in exc.value.errors)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(path)
        assert any("invalid JSON" in e for e in exc.value.errors)


class TestRoundTrip:
    def test_builtins_round_trip(self):
        for name in ("paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7",
                     "droop-ref"):
            sc = builtin_scenario(name)
            again = parse_scenario_dict(sc.to_dict())
            assert again == sc

    def test_droop_inverter_round_trip(self):
        sc = parse_scenario_dict(pu_scenario_dict(control="droop", kp=0.01,
                                                  kq=0.05))
        assert parse_scenario_dict(sc.to_dict()) == sc

    def test_custom_scenario_round_trip(self, tmp_path):
        d = pu_scenario_dict(
            cap=1e-4,
            initial={"mode": "explicit", "v_alpha": 0.3, "v_beta": -0.1},
            events=[{"t_s": 0.05, "type": "set_point", "inverter": "inv1",
                     "q_star_var": -0.1},
                    {"t_s": 0.1, "type": "load_step", "node": "bus",
                     "p_w": 0.7, "v_rated_peak": 1.0}])
        sc = parse_scenario_dict(d)
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc.to_dict()))
        again = parse_scenario(path)
        assert again == sc
        assert again.to_dict() == sc.to_dict()
        assert "step_multiple" not in sc.to_dict()["sim"]  # unset, left out


BUILTINS = ("paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7", "droop-ref")


def _input_forms_dict():
    """The fixture document with every alternative input form: RMS voltages,
    loads as power ratings, a shunt capacitor, events of every type and a
    sampled controller."""
    d = pu_scenario_dict(
        cap=1e-4, sim={"dt_s": 1e-4, "t_end_s": 0.05, "network_model": "dynamic",
                       "controller_sample_hz": 2500.0, "record_decimation": 1,
                       "noise_seed": 3, "noise_amplitude": 0.0},
        branch_l=1e-4, initial={"mode": "explicit", "v_alpha": 0.3, "v_beta": -0.1},
        events=[{"t_s": 0.01, "type": "disconnect", "branch": "b1"},
                {"t_s": 0.02, "type": "connect", "branch": "b1"},
                {"t_s": 0.03, "type": "load_step", "node": "bus", "p_w": 0.7,
                 "v_rated_vrms": 0.7},
                {"t_s": 0.04, "type": "set_point", "inverter": "inv1",
                 "v_star_vrms": 0.8}])
    del d["inverters"][0]["v_star_peak"]
    d["inverters"][0]["v_star_vrms"] = 0.75
    d["network"]["loads"] = [{"node": "bus", "p_w": 0.5, "v_rated_peak": 1.0}]
    return d


def _documents():
    docs = {name: builtin_scenario(name).to_dict() for name in BUILTINS}
    docs["pu-droop"] = pu_scenario_dict(control="droop", kp=0.01, kq=0.05)
    docs["pu-forms"] = _input_forms_dict()
    return docs


def _subtree_paths(doc, prefix=()):
    """Paths (key and index tuples) to every subtree of ``doc``, root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _subtree_paths(value, prefix + (key,))


def _at(doc, path):
    return functools.reduce(lambda node, key: node[key], path, doc)


def _mutated(doc, path, value, delete=False):
    """A copy of ``doc`` with the subtree at ``path`` replaced by ``value``,
    or deleted."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = _at(doc, path[:-1])
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("step_multiple", range(1, 13))
def test_every_step_multiple_the_parser_accepts_constructs(step_multiple):
    # What the parser accepts, Simulation accepts: each document at every k
    # from 1 to 12, whatever its t_end, sample interval and event times.
    for name, doc in _documents().items():
        doc["sim"]["step_multiple"] = step_multiple
        sc = parse_scenario_dict(doc)
        assert Simulation(sc).config.step_multiple == step_multiple, name


def test_parser_raises_only_scenario_error():
    """Any one subtree or key of a valid document replaced by any JSON value
    (or deleted, or added) gives a Scenario or a ScenarioError, never another
    exception; an accepted document round-trips exactly."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    docs = _documents()
    for doc in docs.values():  # every starting point is valid
        parse_scenario_dict(doc)
    paths = {name: list(_subtree_paths(doc)) for name, doc in docs.items()}
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.text(max_size=6), kids, max_size=3),
        max_leaves=8)

    @st.composite
    def mutations(draw):
        name = draw(st.sampled_from(sorted(docs)))
        op = draw(st.sampled_from(("replace", "delete", "add", "step_multiple")))
        if op == "step_multiple":  # any k runs: steps end at events, samples and t_end
            return name, ("sim", "step_multiple"), draw(st.integers(1, 12)), False
        path = draw(st.sampled_from(paths[name]))
        if op == "add" and isinstance(_at(docs[name], path), dict):
            path += (draw(st.text(max_size=6)),)
        return name, path, draw(json_values), op == "delete" and bool(path)

    @hyp.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hyp.given(mutations())
    # The escapes found before the schema tables: TypeError, OverflowError,
    # ZeroDivisionError, and values only the run itself rejected.
    @hyp.example(("paper-fig5", ("events",), 5, False))
    @hyp.example(("paper-fig5", ("network", "branches"), 5, False))
    @hyp.example(("paper-fig5", ("network", "loads"), None, False))
    @hyp.example(("paper-fig5", ("inverters", 0, "eta"), 10**400, False))
    @hyp.example(("pu-forms", ("network", "loads", 0, "v_rated_peak"), 1e-200, False))
    @hyp.example(("paper-fig5", ("sim", "noise_seed"), -1, False))
    @hyp.example(("paper-fig5", ("sim", "t_end_s"), 1e300, False))
    @hyp.example(("paper-fig5", ("name",), 5, False))
    @hyp.example(("paper-fig5", ("sim", "step_multiple"), 10**30, False))
    @hyp.example(("pu-forms", ("sim", "step_multiple"), 3, False))
    @hyp.example(("pu-forms", ("sim",), {"dt_s": 1e-200, "t_end_s": 1e-196,
                                          "controller_sample_hz": 1e-200}, False))
    def check(mutation):
        name, path, value, delete = mutation
        doc = _mutated(docs[name], path, value, delete)
        try:
            sc = parse_scenario_dict(doc)
        except ScenarioError as exc:
            assert exc.errors
            return
        assert parse_scenario_dict(sc.to_dict()) == sc

    check()


def test_valid_documents_round_trip_exactly():
    """to_dict -> parse -> to_dict is exact for any valid document, drawn
    here independently of the parser's own schema tables."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    finite, positive = st.floats(-1e6, 1e6), st.floats(1e-3, 1e3)

    def peak(draw, prefix):
        return {f"{prefix}_{draw(st.sampled_from(['vrms', 'peak']))}": draw(positive)}

    def conductance(draw):
        if draw(st.booleans()):
            return {"g_siemens": draw(positive)}
        return {"p_w": draw(positive), **peak(draw, "v_rated")}

    def maybe(draw, d, key, strategy):
        if draw(st.booleans()):
            d[key] = draw(strategy)
        return d

    @st.composite
    def documents(draw):
        n = draw(st.integers(1, 3))
        inverters = []
        for k in range(1, n + 1):
            inv = {"id": f"inv{k}", "node": f"n{k}", "p_star_w": draw(finite),
                   "q_star_var": draw(finite), **peak(draw, "v_star")}
            if draw(st.booleans()):
                inv.update(control="dvoc", eta=draw(positive), alpha=draw(positive),
                           kappa_rad=draw(st.floats(0.0, math.pi)))
            else:
                inv.update(control="droop", kp_rad_per_sw=draw(finite),
                           kq_v_per_var=draw(finite))
            initial = draw(st.sampled_from(["blackstart", "nominal", "explicit", None]))
            if initial == "explicit":
                inv["initial"] = {"mode": initial, "v_alpha": draw(finite),
                                  "v_beta": draw(finite)}
            elif initial is not None:
                inv["initial"] = maybe(draw, {"mode": initial}, "angle_rad", finite) \
                    if initial == "nominal" else {"mode": initial}
            inverters.append(inv)
        branches = [maybe(draw, {"id": f"b{k}", "from": f"n{k}", "to": "bus",
                                 "r_ohm": draw(st.floats(1e-3, 1.0)),
                                 "l_henry": draw(st.just(0.0) | st.floats(1e-6, 1e-2))},
                          "connected", st.booleans()) for k in range(1, n + 1)]
        caps = [{"node": f"n{k}", "c_farad": draw(st.floats(0.0, 1e-3))}
                for k in range(1, n + 1) if draw(st.booleans())]
        # One to ten dt per step, whatever t_end, the sample interval and
        # the event times.
        dt, mult = draw(st.floats(1e-6, 1e-3)), draw(st.integers(1, 10))
        events = []
        for t in sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=4))):
            k = draw(st.integers(1, n))
            kind = draw(st.sampled_from(["connect", "disconnect", "load_step",
                                         "set_point"]))
            ev = {"t_s": t, "type": kind}
            if kind in ("connect", "disconnect"):
                ev["branch"] = f"b{k}"
            elif kind == "load_step":
                ev.update(node="bus", **conductance(draw))
            else:
                ev["inverter"] = f"inv{k}"
                for key in draw(st.sets(st.sampled_from(["p", "q", "v"]), min_size=1)):
                    ev.update({"p": {"p_star_w": draw(finite)},
                               "q": {"q_star_var": draw(finite)}}.get(key)
                              or peak(draw, "v_star"))
            events.append(ev)
        sim = {"dt_s": dt, "t_end_s": dt * draw(st.integers(1, 100_000))}
        if mult > 1 or draw(st.booleans()):
            sim["step_multiple"] = mult
        maybe(draw, sim, "controller_sample_hz",
              st.integers(1, 100).map(lambda steps: 1.0 / (steps * dt)))
        maybe(draw, sim, "network_model", st.sampled_from(["dynamic", "quasistatic"]))
        maybe(draw, sim, "record_decimation", st.integers(1, 100))
        maybe(draw, sim, "noise_seed", st.integers(0, 2**70))
        maybe(draw, sim, "noise_amplitude", st.floats(0.0, 1.0))
        doc = {"omega0_rad_per_s": draw(positive), "inverters": inverters,
               "network": {"branches": branches,
                           "loads": [{"node": "bus", **conductance(draw)}],
                           "shunt_caps": caps},
               "events": events, "sim": sim}
        for key, strategy in (("name", st.text()), ("description", st.text()),
                              ("outputs", st.lists(st.sampled_from(["trace", "metrics"])))):
            maybe(draw, doc, key, strategy)
        return doc

    @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hyp.given(documents())
    def check(doc):
        sc = parse_scenario_dict(doc)
        d = sc.to_dict()
        again = parse_scenario_dict(json.loads(json.dumps(d)))
        assert again == sc
        assert again.to_dict() == d

    check()
