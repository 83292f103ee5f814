"""Command-line front end.

Subcommands: simulate, droop-sweep, blackstart-check, consistency,
list-scenarios.  Scenario arguments accept either a JSON file path or a
built-in scenario name.  Each run writes its outputs plus a manifest
(resolved scenario, config, seed, tool version, input hash) sufficient to
reproduce the run bit-identically.

Exit codes: 0 ok, 2 validation failure, 3 numeric failure.  Errors are
reported as a JSON summary on stderr.  ``main(argv)`` returns the code;
``entry`` is the process entry, which exits with it (see there).
"""

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__, analysis
from .control import DvocParams
from .network import TopologyError
from .scenario import ScenarioError, builtin_names, builtin_scenario, parse_scenario
from .sim import SimulationDiverged, run_scenario

# Cap on droop-sweep's grid points: every point is one member of a single
# batch, which holds them all in memory (1000 points peak near 170 MB).
MAX_RANGE_POINTS = 10_000

def _canonical_json(data):
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()


def _load_scenario(ref):
    if os.path.exists(ref):
        return parse_scenario(ref), ref
    try:
        return builtin_scenario(ref), f"builtin:{ref}"
    except KeyError as exc:
        raise ScenarioError(
            [f"{ref!r} is neither a scenario file nor a builtin scenario",
             str(exc).strip('"')]) from exc


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    return str(x)


def _write_csv(path, header, rows, fmt=_fmt):
    """One header line, then one line per row; ``fmt`` formats each cell
    (``repr`` suits rows of Python floats: shortest round-trip digits)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(fmt, row)) + "\n")


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir, scenario, source, argv, written, extra=None):
    resolved = scenario.to_dict()
    manifest = {
        "tool": "dvocsim",
        "version": __version__,
        "command": list(argv),
        "scenario_source": source,
        "scenario_sha256": hashlib.sha256(_canonical_json(resolved)).hexdigest(),
        "resolved_scenario": resolved,
        "outputs": {name: _sha256_file(os.path.join(outdir, name)) for name in written},
    }
    if extra:
        manifest["results"] = extra
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _trace_rows(trace):
    """Header and float matrix (one row per record time) of trace.csv."""
    header = ["t"]
    columns = [trace.t]
    for k, inv in enumerate(trace.inverter_ids):
        header += [f"v_alpha_{inv}", f"v_beta_{inv}", f"i_alpha_{inv}",
                   f"i_beta_{inv}", f"p_{inv}", f"q_{inv}", f"vmag_{inv}",
                   f"theta_{inv}"]
        columns += [trace.v[:, k].real, trace.v[:, k].imag, trace.i_o[:, k].real,
                    trace.i_o[:, k].imag, trace.p[:, k], trace.q[:, k],
                    trace.vmag[:, k], trace.theta[:, k]]
    return header, np.column_stack(columns)


def _metrics_rows(trace, metrics):
    header = ["inverter", "steady_p_w", "steady_q_var", "steady_vmag_peak",
              "steady_freq_rad_per_s", "steady_freq_hz", "sharing_ratio",
              "settled", "sync_time_s", "sync_residual_v"]
    rows = []
    for k, inv in enumerate(trace.inverter_ids):
        freq = metrics.steady_freq_per_inverter[k]
        rows.append([inv, metrics.steady_powers[k], metrics.steady_reactive[k],
                     metrics.steady_amplitudes[k], freq, freq / (2.0 * np.pi),
                     metrics.sharing_ratios[k], metrics.settled,
                     metrics.sync_time if metrics.sync_time is not None else float("nan"),
                     metrics.residual])
    return header, rows


def _cmd_simulate(args, argv):
    scenario, source = _load_scenario(args.scenario)
    trace = run_scenario(scenario)
    os.makedirs(args.out, exist_ok=True)
    written = []
    if "trace" in scenario.outputs:
        header, matrix = _trace_rows(trace)
        _write_csv(os.path.join(args.out, "trace.csv"), header,
                   map(np.ndarray.tolist, matrix), repr)
        written.append("trace.csv")
    if "metrics" in scenario.outputs:
        v_ref = float(np.mean([s.params.v_star for s in scenario.inverters]))
        metrics = analysis.compute_metrics(trace, scenario.omega0, v_ref=v_ref)
        header, rows = _metrics_rows(trace, metrics)
        _write_csv(os.path.join(args.out, "metrics.csv"), header, rows)
        written.append("metrics.csv")
    _write_manifest(args.out, scenario, source, argv, written)
    print(f"simulate: wrote {', '.join(written + ['manifest.json'])} to {args.out}")
    return 0


def _parse_range(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise ScenarioError([f"--range must be a:b:n, got {spec!r}"])
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError([f"--range must be a:b:n with numbers, got {spec!r}"]) from exc
    if not math.isfinite(b - a):  # also nan or inf at either end
        raise ScenarioError([f"--range needs finite a, b and b - a, got {spec!r}"])
    if n < 2 or b <= a:
        raise ScenarioError(["--range needs b > a and n >= 2"])
    if n > MAX_RANGE_POINTS:
        raise ScenarioError([f"--range needs n <= {MAX_RANGE_POINTS}, got {n}"])
    return np.linspace(a, b, n)


def _cmd_droop_sweep(args, argv):
    scenario, source = _load_scenario(args.scenario)
    if len(scenario.inverters) != 1 or not isinstance(scenario.inverters[0].params,
                                                      DvocParams):
        raise ScenarioError(["droop-sweep needs a single-inverter oscillator scenario"])
    grid = _parse_range(args.range)
    params = scenario.inverters[0].params
    sweep = analysis.droop_sweep_simulated(scenario, args.axis, grid)
    os.makedirs(args.out, exist_ok=True)
    header = ["target", "p", "q", "vmag", "omega_rad_per_s", "settled",
              "ordinate_simulated", "ordinate_closed_form", "ordinate_linear",
              "ordinate_coarse"]
    # An unsettled point's p, q and |v| are NaN, so its overlays are too.
    ordinates = analysis.droop_overlays(
        params, [pt.p if args.axis == "p" else pt.q for pt in sweep.points], args.axis,
        [pt.vmag for pt in sweep.points])
    rows = [[pt.target, pt.p, pt.q, pt.vmag, pt.omega, pt.settled,
             pt.omega if args.axis == "p" else pt.vmag, *overlay]
            for pt, overlay in zip(sweep.points, zip(*ordinates))]
    _write_csv(os.path.join(args.out, "curve.csv"), header, rows)
    n_ok = sum(1 for pt in sweep.points if pt.settled)
    _write_manifest(args.out, scenario, source, argv, ["curve.csv"],
                    extra={"axis": args.axis, "points_settled": n_ok,
                           "points_total": len(sweep.points)})
    print(f"droop-sweep: {n_ok}/{len(sweep.points)} points settled; "
          f"wrote curve.csv to {args.out}")
    return 0


def _cmd_blackstart_check(args, argv):
    scenario, source = _load_scenario(args.scenario)
    if not isinstance(scenario.inverters[0].params, DvocParams):
        raise ScenarioError(["blackstart-check needs an oscillator-controlled inverter"])
    params = scenario.inverters[0].params
    trace = run_scenario(scenario)
    comparison = analysis.blackstart_compare(trace, params)
    v0 = float(trace.vmag[0, 0])
    curve = analysis.blackstart_analytic(v0, params, trace.t) \
        if v0 != params.v_star else None
    os.makedirs(args.out, exist_ok=True)
    rows = []
    ana = curve.magnitudes if curve is not None else np.full_like(trace.t, float("nan"))
    for k in range(len(trace.t)):
        sim_v = trace.vmag[k, 0]
        rel = abs(sim_v - ana[k]) / ana[k] if ana[k] > 0 else float("nan")
        rows.append([trace.t[k], sim_v, ana[k], rel])
    _write_csv(os.path.join(args.out, "blackstart.csv"),
               ["t", "vmag_sim", "vmag_analytic", "rel_dev"], rows)
    _write_csv(os.path.join(args.out, "blackstart_summary.csv"),
               ["max_rel_dev", "t_start", "t_end", "defined"],
               [[comparison.max_rel_dev, comparison.t_start, comparison.t_end,
                 comparison.defined]])
    _write_manifest(args.out, scenario, source, argv,
                    ["blackstart.csv", "blackstart_summary.csv"],
                    extra={"max_rel_dev": comparison.max_rel_dev,
                           "defined": comparison.defined})
    if comparison.defined:
        print(f"blackstart-check: max relative deviation "
              f"{comparison.max_rel_dev:.4%} over [{comparison.t_start:.4g}, "
              f"{comparison.t_end:.4g}] s")
    else:
        print("blackstart-check: no rise interval in trace (result undefined)")
    return 0


def _cmd_consistency(args, argv):
    scenario, source = _load_scenario(args.scenario)
    setpoints = [s.params for s in scenario.inverters]
    report = analysis.check_setpoint_consistency(scenario.topology, setpoints,
                                                 scenario.omega0)
    os.makedirs(args.out, exist_ok=True)
    header = ["node", "p_star_w", "q_star_var", "v_star_peak", "p_solved_w",
              "q_solved_var", "angle_rad", "status", "residual_rel"]
    rows = []
    for k, node in enumerate(scenario.topology.inverter_nodes):
        p = setpoints[k]
        rows.append([node, p.p_star, p.q_star, p.v_star, report.p[k], report.q[k],
                     report.angles[k], report.status, report.residual_rel])
    _write_csv(os.path.join(args.out, "consistency.csv"), header, rows)
    _write_manifest(args.out, scenario, source, argv, ["consistency.csv"],
                    extra={"status": report.status,
                           "residual_rel": report.residual_rel})
    print(f"consistency: {report.status} (relative residual {report.residual_rel:.3e})")
    return 0


def _cmd_list_scenarios(_args, _argv):
    for name, desc in builtin_names().items():
        print(f"{name:12s} {desc}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="dvocsim",
        description="Simulate virtual-oscillator-controlled inverter networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario and write trace/metrics CSVs")
    p.add_argument("scenario", help="scenario JSON file or builtin name")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("droop-sweep", help="steady-state droop curve from simulations")
    p.add_argument("scenario", help="single-inverter scenario file or builtin name")
    p.add_argument("--axis", required=True, choices=("p", "q"))
    p.add_argument("--range", required=True, help="target grid a:b:n")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_droop_sweep)

    p = sub.add_parser("blackstart-check",
                       help="compare a simulated black start against the closed form")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_blackstart_check)

    p = sub.add_parser("consistency",
                       help="check set-points against the quasi-static power flow")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_consistency)

    p = sub.add_parser("list-scenarios", help="list builtin scenarios")
    p.set_defaults(func=_cmd_list_scenarios)
    return parser


def _print_error(kind, message, details=()):
    summary = {"error": kind, "message": message, "details": list(details)}
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ScenarioError as exc:
        _print_error("validation", "scenario validation failed", exc.errors)
        return 2
    except (TopologyError, FileNotFoundError, OSError) as exc:
        _print_error("validation", str(exc))
        return 2
    except SimulationDiverged as exc:
        _print_error("numeric", str(exc),
                     [f"member={exc.member}", f"scenario={exc.scenario}",
                      f"step={exc.step}", f"time={exc.time}",
                      f"inverter={exc.inverter}", f"magnitude={exc.magnitude}"])
        return 3
    except (ValueError, np.linalg.LinAlgError) as exc:
        _print_error("numeric", str(exc))
        return 3


def entry():
    """The process entry of ``python -m dvocsim.cli`` and the ``dvocsim``
    script: run ``main`` on the process arguments, flush stdout and stderr,
    and end the process with the returned code through ``os._exit``, so the
    interpreter does not tear down every module, function and array one at
    a time after the command is done.

    - Every file a command writes, the CSVs, ``manifest.json`` and the
      read-back for hashing included, is closed by its ``with`` block
      before ``main`` returns.
    - Only a returned code takes this exit.  argparse's usage errors and
      ``--help`` raise SystemExit inside ``main``, and they, unexpected
      exceptions, KeyboardInterrupt and a failing flush leave through the
      interpreter's normal exit, with their traceback and code.
    - What is given up: atexit handlers in the process do not run (dvocsim
      registers none), so ``python -m cProfile -m dvocsim.cli ...`` and
      coverage of a CLI subprocess record nothing.  Profile by calling
      ``main`` in process, as ``perfbench/traced_cli.py`` does.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
