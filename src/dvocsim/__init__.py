"""Simulation toolkit for virtual-oscillator-controlled grid-forming inverter networks.

The package is organized as:

* :mod:`dvocsim.control`  -- controller parameters, the oscillator law's
  polar form and its droop approximations (pure functions).
* :mod:`dvocsim.network`  -- RL-branch / shunt-capacitor / resistive-load
  electrical network models (quasi-static phasor and dynamic).
* :mod:`dvocsim.sim`      -- fixed-step exponential (ETDRK4) integration of
  the coupled system, one scenario or a batch of them in one run, with a
  timeline event engine and trace recording.
* :mod:`dvocsim.analysis` -- closed-form oracles (black start, droop curves),
  trace metrics, and the set-point consistency checker.
* :mod:`dvocsim.scenario` -- scenario schema, parser, and built-in scenarios.
* :mod:`dvocsim.cli`      -- command-line front end.
* :mod:`dvocsim.values`   -- the ``value_type`` decorator: dataclasses whose
  methods every value type shares, generated by no per-process ``exec``.
"""

__version__ = "0.1.0"

from .control import (
    DvocParams,
    DroopParams,
    PolarState,
    dvoc_rhs_polar,
    droop_approx_freq,
    droop_approx_vmag_ss,
    droop_vmag_tangent_ss,
)
from .network import (
    Branch,
    Topology,
    TopologyError,
    ConnectBranch,
    DisconnectBranch,
    LoadStep,
    SetPointUpdate,
    Event,
    apply_event,
    build_admittance_complex,
    reduced_admittance,
    DynamicNetwork,
)
from .sim import (SimConfig, InitialCondition, Trace, Simulation,
                  SimulationDiverged, run_scenario)
from .scenario import (Scenario, InverterSpec, ScenarioError, parse_scenario,
                       parse_scenario_dict, builtin_scenario, builtin_names)
from . import analysis
