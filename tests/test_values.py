"""The value types' shared methods (``dvocsim.values``) against stdlib
dataclasses: each type beside a twin that ``dataclasses.make_dataclass``
builds from its fields, with the code generation the shared methods
replace."""

import dataclasses
import inspect
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, MISSING, replace

import numpy as np
import pytest

import dvocsim
from dvocsim import analysis, control, network, scenario, sim

OMEGA0 = 2.0 * math.pi * 60.0
ARR = np.array([0.0, 1.0])
PARAMS = control.DvocParams(eta=43.43, alpha=0.9722, kappa=math.pi / 2.0, p_star=0.5,
                            q_star=0.0, v_star=1.0, omega0=OMEGA0)
BRANCH = network.Branch("b1", "n1", "bus", 0.1, 1e-3)
TOPO = network.Topology(("n1",), (BRANCH,), loads={"bus": 0.5})
SPEC = scenario.InverterSpec("inv1", "n1", PARAMS, sim.InitialCondition())
CURVE = analysis.DroopCurve(ARR, ARR, "p", "omega", "closed_form")

# Per value type: frozen or not, valid arguments, one field changed to a
# value that compares unequal, and, where __post_init__ validates, one
# field set to a value it rejects.
CASES = {
    control.DvocParams: (True, vars(PARAMS), ("q_star", 0.1), ("eta", -1.0)),
    control.DroopParams: (True, dict(kp=0.1, kq=0.1, omega0=OMEGA0, v_star=1.0, p_star=0.5,
                                     q_star=0.0), ("kq", 0.2), ("v_star", 0.0)),
    control.PolarState: (True, dict(magnitude=1.0), ("theta", 0.5), ("magnitude", -1.0)),
    network.Branch: (True, vars(BRANCH), ("connected", False), ("to_node", "n1")),
    network.Topology: (True, dict(inverter_nodes=("n1",), branches=(BRANCH,)),
                       ("loads", {"bus": 0.5}), ("inverter_nodes", ("n1", "n1"))),
    network.ConnectBranch: (True, dict(branch_id="b1"), ("branch_id", "b2"), None),
    network.DisconnectBranch: (True, dict(branch_id="b1"), ("branch_id", "b2"), None),
    network.LoadStep: (True, dict(node="bus", conductance=0.5), ("conductance", 0.6), None),
    network.SetPointUpdate: (True, dict(inverter_id="inv1", p_star=0.3), ("v_star", 1.1),
                             None),
    network.Event: (True, dict(time=0.1, action=network.LoadStep("bus", 0.5)),
                    ("time", 0.2), ("time", -1.0)),
    sim.SimConfig: (True, {}, ("step_multiple", 4), ("dt", 0.0)),
    sim.InitialCondition: (True, {}, ("angle", 0.5), ("mode", "explicit")),
    sim.Trace: (False, dict(t=ARR, v=ARR, i_o=ARR, p=ARR, q=ARR, vmag=ARR, theta=ARR,
                            inverter_ids=["inv1"], events=[], dt_sample=1e-4),
                ("dt_sample", 2e-4), None),
    scenario.InverterSpec: (True, vars(SPEC), ("node", "n2"), None),
    scenario.Scenario: (False, dict(name="s", inverters=[SPEC], topology=TOPO, events=[],
                                    sim=sim.SimConfig(), omega0=OMEGA0),
                        ("description", "d"), ("inverters", [])),
    analysis.BlackStartCurve: (False, dict(times=ARR, magnitudes=ARR, h0=1.0),
                               ("degenerate", True), None),
    analysis.BlackStartComparison: (False, dict(max_rel_dev=0.1, t_start=0.0, t_end=1.0,
                                                defined=True), ("t_end", 2.0), None),
    analysis.SyncMetrics: (False, dict(sync_time=0.1, residual=0.0, sharing_ratios=ARR,
                                       steady_freq=OMEGA0, steady_amplitudes=ARR,
                                       steady_freq_per_inverter=ARR, steady_powers=ARR,
                                       steady_reactive=ARR, settled=True),
                           ("settled", False), None),
    analysis.DroopCurve: (False, dict(abscissa=ARR, ordinate=ARR, axis="p",
                                      ordinate_kind="omega", provenance="closed_form"),
                          ("provenance", "simulated"), ("abscissa", [1.0, 0.0])),
    analysis.DroopSweepResult: (False, dict(exact=CURVE, linear=CURVE, coarse=CURVE),
                                ("coarse", None), None),
    analysis.SweepPoint: (False, dict(target=0.1, p=0.5, q=0.0, vmag=1.0, omega=OMEGA0,
                                      settled=True), ("vmag", 1.1), None),
    analysis.SimulatedSweep: (False, dict(curve=CURVE, points=[]), ("points", [None]), None),
    analysis.ConsistencyReport: (False, dict(status="consistent", residual_norm=0.0,
                                             residual_rel=0.0, power_scale=1.0, angles=ARR,
                                             p=ARR, q=ARR, iterations=3),
                                 ("iterations", 4), None),
}


def twin(cls, frozen):
    """``cls`` as stdlib ``dataclasses`` builds it: same fields, defaults,
    factories and ``__post_init__``, generated methods."""
    specs = []
    for f in dataclasses.fields(cls):
        kw = {}
        if f.default is not MISSING:
            kw["default"] = f.default
        if f.default_factory is not MISSING:
            kw["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**kw)))
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen, namespace=namespace)


def outcome(fn):
    """fn()'s value, or the type of the exception it raises."""
    try:
        return fn()
    except Exception as e:  # the exception is the outcome compared
        return type(e)


def test_cases_cover_every_value_type():
    found = {obj for mod in (control, network, scenario, sim, analysis)
             for obj in vars(mod).values()
             if dataclasses.is_dataclass(obj) and obj.__module__ == mod.__name__}
    assert len(found) == 23
    assert found == set(CASES)


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    frozen, kwargs, change, bad = CASES[cls]
    return cls, twin(cls, frozen), frozen, kwargs, dict([change]), bad


def test_repr_eq_and_hash_match_the_twin(case):
    cls, ref, frozen, kwargs, change, _ = case
    a, a2, b = cls(**kwargs), cls(**kwargs), cls(**{**kwargs, **change})
    ra, ra2, rb = ref(**kwargs), ref(**kwargs), ref(**{**kwargs, **change})
    assert repr(a) == repr(ra) and repr(b) == repr(rb)
    assert list(vars(a)) == list(vars(ra))
    for x, y, rx, ry in ((a, a2, ra, ra2), (a, b, ra, rb)):
        assert outcome(lambda: x == y) == outcome(lambda: rx == ry)
        assert outcome(lambda: x != y) == outcome(lambda: rx != ry)
    assert (a == a2) is True and (a != b) is True
    # Another type with equal values is not equal, either way round.
    assert (a == ra) is False and (ra == a) is False and (a != ra) is True
    if frozen:
        assert outcome(lambda: hash(a)) == outcome(lambda: hash(ra))
    else:
        assert cls.__hash__ is None and ref.__hash__ is None


def test_frozen_fields_cannot_be_set_or_deleted(case):
    cls, _, frozen, kwargs, change, _ = case
    obj = cls(**kwargs)
    name, value = next(iter(change.items()))
    if not frozen:
        setattr(obj, name, value)
        assert getattr(obj, name) is value
        return
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(obj, name)
    with pytest.raises(FrozenInstanceError):
        obj.not_a_field = 1
    assert repr(obj) == repr(cls(**kwargs))


def test_arguments_bind_as_in_the_twin(case):
    cls, ref, _, kwargs, _, _ = case
    obj = cls(**kwargs)
    names = [f.name for f in dataclasses.fields(cls)]
    full = {n: getattr(obj, n) for n in names}
    positional = [full[n] for n in names]
    assert repr(cls(*positional)) == repr(cls(**full)) == repr(ref(*positional))
    bad_calls = [lambda c: c(*positional, None),                            # extra positional
                 lambda c: c(*positional[:1], **{names[0]: positional[0]}),  # repeated
                 lambda c: c(**full, not_a_field=None)]                      # unexpected
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    if required:
        bad_calls.append(lambda c: c(**{n: v for n, v in full.items() if n != required[-1]}))
    for call in bad_calls:
        with pytest.raises(TypeError):
            call(ref)
        with pytest.raises(TypeError):
            call(cls)


def test_post_init_still_validates(case):
    cls, ref, _, kwargs, _, bad = case
    if bad is None:
        assert "__post_init__" not in vars(cls)
        return
    args = {**kwargs, bad[0]: bad[1]}
    assert outcome(lambda: ref(**args)) in (ValueError, network.TopologyError,
                                            scenario.ScenarioError)
    with pytest.raises(outcome(lambda: ref(**args))):
        cls(**args)


def test_replace_and_signature_match_the_twin(case):
    cls, ref, _, kwargs, change, _ = case
    changed = replace(cls(**kwargs), **change)
    assert type(changed) is cls
    assert repr(changed) == repr(replace(ref(**kwargs), **change))
    sig, ref_sig = inspect.signature(cls), inspect.signature(ref)
    params = [(p.name, p.kind, repr(p.default)) for p in sig.parameters.values()]
    assert params == [(p.name, p.kind, repr(p.default)) for p in ref_sig.parameters.values()]
    assert str(sig) == str(ref_sig)  # the annotations too
    assert cls.__match_args__ == ref.__match_args__
    if cls.__doc__.startswith(cls.__name__ + "("):  # no docstring of its own
        assert cls.__doc__ == ref.__doc__


def test_default_factory_is_called_per_instance():
    for cls, (_, kwargs, _, _) in CASES.items():
        for f in dataclasses.fields(cls):
            if f.default_factory is not MISSING:
                x, y = cls(**kwargs), cls(**kwargs)
                assert getattr(x, f.name) == f.default_factory()
                assert getattr(x, f.name) is not getattr(y, f.name)


def test_a_type_without_a_docstring_lists_its_fields():
    assert network.ConnectBranch.__doc__ == "ConnectBranch(branch_id: str)"
    assert str(inspect.signature(sim.Trace)).endswith(
        "dt_sample: float, meta: dict = <factory>) -> None")


def test_importing_the_cli_generates_no_code():
    """A fresh interpreter counts the calls to ``exec`` with source text
    while it imports ``dvocsim.cli``: a module's import executes a code
    object, code generated at import a string.  numpy is imported first,
    so only dvocsim's own import is counted."""
    src = os.path.dirname(os.path.dirname(dvocsim.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import builtins, numpy\n"
            "real, calls = builtins.exec, []\n"
            "def exec(source, *args, **kwargs):\n"
            "    if isinstance(source, str):\n"
            "        calls.append(source)\n"
            "    return real(source, *args, **kwargs)\n"
            "builtins.exec = exec\n"
            "import dvocsim.cli\n"
            "print(len(calls))\n")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["0"]
