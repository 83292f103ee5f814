import json
import math
from dataclasses import replace

import pytest

from dvocsim import analysis
from dvocsim.control import DroopParams, DvocParams
from dvocsim.scenario import (ScenarioError, builtin_names, builtin_scenario,
                              parse_scenario, parse_scenario_dict)

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
