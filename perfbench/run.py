"""dvocsim benchmark: one CLI operation per fresh process, closed loop, one client.

    python3 perfbench/run.py --workload mixed-grid --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package runs uninstalled from ``src``
(``PYTHONPATH=src python3 -m dvocsim.cli ...``).  Each run first times the
set-up phase in fresh processes, then issues operations one after another
until the next one would end past ``--seconds`` (always at least one),
checks every operation's outputs, and prints one line per metric followed by
a JSON summary as the last line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations and reports
the per-layer metrics from the spans ``traced_cli.py`` records.

Times are reported in reference-core seconds: the harness and every child
run on one core, and while a child runs the harness times a fixed probe
kernel on that core every PROBE_EVERY_S.  An operation's reference-core time
is its wall time multiplied by the mean core speed the probes saw (PROBE_REF_S
over the probe's duration).  See README.md for the workloads, the metrics,
why times are scaled and what each metric should move.
"""

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen_grid  # noqa: E402

WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
SETUP_REPS = 15
OP_TIMEOUT_S = 100.0
SWEEP_POINTS = 10
# Core-speed probe: PROBE_ITERS small matrix-vector steps, the kind of numpy
# call the simulator makes every step, timed every PROBE_EVERY_S while a child
# runs.  PROBE_REF_S is the probe's duration on the reference core: its usual
# duration next to a running operation on the host described in README.md.
PROBE_ITERS = 100
PROBE_EVERY_S = 0.025
PROBE_REF_S = 3.7e-4
_PROBE_A = 0.1 * np.random.default_rng(0).standard_normal((8, 8))
_PROBE_X = np.ones(8)

END_TO_END = {"wall_s": "s", "sim_s_per_s": "s/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "sim.steps": "count", "sim.steps_per_sim_s": "1/s", "sim.us_per_step": "us",
    "sim.step_loop_s": "s", "sim.runs": "count", "sim.construct_s": "s",
    "network.compiles": "count", "network.compile_s": "s",
    "network.apply_event_s": "s",
    "scenario.load_s": "s", "scenario.serialize_s": "s",
    "analysis.metrics_s": "s", "analysis.closed_form_s": "s",
    "analysis.sweep_self_s": "s",
    "control.polar_calls": "count", "control.polar_s": "s",
    "cli.import_s": "s", "cli.self_s": "s", "cli.rows_written": "count",
    "cli.bytes_written": "B",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "check.ref_dev_rel": "1", "check.oracle_dev_rel": "1",
}
# Span name -> per-layer self-time metric (several spans may share one).
SELF_TIME = {
    "import": "cli.import_s",
    "cli.main": "cli.self_s",
    "scenario.builtin_scenario": "scenario.load_s",
    "scenario.parse_scenario": "scenario.load_s",
    "scenario.to_dict": "scenario.serialize_s",
    "network.DynamicNetwork": "network.compile_s",
    "network.reduced_admittance": "network.compile_s",
    "network.apply_event": "network.apply_event_s",
    "sim.Simulation.__init__": "sim.construct_s",
    "sim.Simulation.run": "sim.step_loop_s",
    "analysis.compute_metrics": "analysis.metrics_s",
    "analysis.droop_sweep_closed_form": "analysis.closed_form_s",
    "analysis.droop_sweep_simulated": "analysis.sweep_self_s",
    "control.dvoc_rhs_polar": "control.polar_s",
}
CALL_COUNT = {
    "sim.Simulation.__init__": "sim.runs",
    "network.DynamicNetwork": "network.compiles",
    "network.reduced_admittance": "network.compiles",
    "control.dvoc_rhs_polar": "control.polar_calls",
}


def _load_reference(name):
    with open(os.path.join(REFERENCE, name), encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads ----------------------------------------------------------------

class Dispatch:
    """simulate paper-fig7, the built-in by name; the seed does not change it."""

    name = "dispatch"

    def __init__(self, seed, work):
        self.setup_ref = "paper-fig7"
        self.reference = _load_reference("dispatch.json")

    def argv(self, out):
        return ["simulate", "paper-fig7", "--out", out]

    def check(self, out):
        return checks.check_dispatch(out, self.reference)


def sweep_grid(seed):
    """Seed-jittered q targets inside +-0.05 pu: (a, b, the N-point grid)."""
    rng = np.random.default_rng([0x737765, int(seed)])
    a = round(-0.05 + rng.uniform(0.0, 0.01), 6)
    b = round(0.05 - rng.uniform(0.0, 0.01), 6)
    return a, b, [float(x) for x in np.linspace(a, b, SWEEP_POINTS)]


class DroopSweep:
    """droop-sweep droop-ref on the q axis over a seed-jittered grid."""

    name = "droop-sweep"

    def __init__(self, seed, work):
        self.setup_ref = "droop-ref"
        self.a, self.b, self.grid = sweep_grid(seed)

    def argv(self, out):
        # The '=' form: argparse reads a separate argument starting with '-'
        # as an option.
        return ["droop-sweep", "droop-ref", "--axis", "q",
                f"--range={self.a!r}:{self.b!r}:{SWEEP_POINTS}", "--out", out]

    def check(self, out):
        return checks.check_sweep(out, self.grid)


def grid_seed(seed, shipped):
    """Generator seed for a workload seed: one of the grids whose seed-commit
    reference the benchmark ships."""
    keys = sorted(shipped, key=int)
    return keys[int(seed) % len(keys)]


class MixedGrid:
    """simulate <generated.json>: a seeded multi-bus dVOC + droop grid."""

    name = "mixed-grid"

    def __init__(self, seed, work):
        shipped = _load_reference("mixed_grid.json")["grids"]
        key = grid_seed(seed, shipped)
        self.reference = shipped[key]
        self.setup_ref = os.path.join(work, f"mixed-grid-{key}.json")
        gen_grid.write(int(key), self.setup_ref)

    def argv(self, out):
        return ["simulate", self.setup_ref, "--out", out]

    def check(self, out):
        return checks.check_mixed(out, self.reference)


WORKLOADS = {w.name: w for w in (Dispatch, DroopSweep, MixedGrid)}


# --- processes ------------------------------------------------------------------

def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe():
    """Duration of the fixed probe kernel on this core, in s."""
    y = _PROBE_X
    t0 = time.perf_counter()
    for _ in range(PROBE_ITERS):
        y = _PROBE_A @ y + _PROBE_X
    return time.perf_counter() - t0


def run_child(cmd, log):
    """Run ``cmd`` in a fresh process on this core until it exits.

    Returns (exit code, wall s from launch to exit, reference-core s, peak RSS
    in MB, output).  The child's output goes to the file ``log``.  While it
    runs, the core's speed is probed every PROBE_EVERY_S; the child is killed
    after OP_TIMEOUT_S.  wait4 gives its own rusage.
    """
    speeds = []
    with open(log, "w+b") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=_env(), stdout=out, stderr=subprocess.STDOUT)
        exited = select.poll()
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited.register(pidfd, select.POLLIN)
            while not exited.poll(PROBE_EVERY_S * 1e3):
                speeds.append(PROBE_REF_S / probe())
                if time.perf_counter() - t0 > OP_TIMEOUT_S:
                    proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not speeds:
            speeds.append(PROBE_REF_S / probe())
        out.seek(0)
        output = out.read().decode(errors="replace")
    return (proc.returncode, wall, wall * statistics.fmean(speeds),
            usage.ru_maxrss * 1024 / 1e6, output)


def pin_to_one_core():
    """Run this process and every child it starts on one core, so the probe
    times the core the operation runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def simulated_seconds(out):
    """Simulated time of every Simulation the operation ran, from its manifest."""
    manifest = checks.load_manifest(out)
    sim = manifest["resolved_scenario"]["sim"]
    runs = manifest.get("results", {}).get("points_total", 1)
    return runs * round(sim["t_end_s"] / sim["dt_s"]) * sim["dt_s"]


def output_volume(out):
    """(CSV data rows, bytes) of every file the operation wrote."""
    rows = size = 0
    for name in os.listdir(out):
        path = os.path.join(out, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                rows += sum(1 for _ in fh) - 1
    return rows, size


def layer_metrics(spans):
    """Self time per layer and call counts from one traced operation's spans.

    A span's self time is its duration minus that of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = dict.fromkeys(set(SELF_TIME.values()) | set(CALL_COUNT.values()), 0.0)
    steps = sim_s = 0.0
    for k, (name, start, end, _, _, extra) in enumerate(spans):
        agg[SELF_TIME[name]] += end - start - child[k]
        if name in CALL_COUNT:
            agg[CALL_COUNT[name]] += 1
        if extra:
            steps += extra["steps"]
            sim_s += extra["sim_s"]
    agg["attributed_s"] = sum(agg[m] for m in set(SELF_TIME.values()))
    agg["sim.steps"] = steps
    agg["sim.steps_per_sim_s"] = steps / sim_s if sim_s else 0.0
    agg["sim.us_per_step"] = agg["sim.step_loop_s"] / steps * 1e6 if steps else 0.0
    return agg


# --- one run ----------------------------------------------------------------------

def run_operation(workload, work, k, traced):
    """Issue operation ``k`` and check it; returns its record."""
    out = os.path.join(work, f"op{k}")
    spans_path = os.path.join(work, f"spans{k}.json")
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path,
               str(k), "--"] + workload.argv(out)
    else:
        cmd = [sys.executable, "-m", "dvocsim.cli"] + workload.argv(out)
    rc, wall, ref, rss, output = run_child(cmd, os.path.join(work, f"log{k}"))
    op = {"wall": wall, "ref": ref, "rss": rss, "traced": traced, "ok": False}
    if rc != 0:
        print(f"op {k}: exit {rc}: {output.strip()[-1000:]}", file=sys.stderr)
        return op
    try:
        problems, op["diag"] = workload.check(out)
        if not problems:
            op["sim_s"] = simulated_seconds(out)
            op["rows"], op["bytes"] = output_volume(out)
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    op["layers"] = layer_metrics(json.load(fh)["spans"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for p in problems:
        print(f"op {k}: check failed: {p}", file=sys.stderr)
    op["ok"] = not problems
    return op


def measure_setup(workload, work):
    """Reference-core times of SETUP_REPS fresh processes that import, load
    and compile."""
    times = []
    for _ in range(SETUP_REPS):
        rc, _, ref, _, output = run_child(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.setup_ref],
            os.path.join(work, "setup.log"))
        if rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}): {output[-1000:]}")
        times.append(ref)
    return times


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload: (summary dict, human-readable lines)."""
    work = os.path.join(WORK, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work)
        setup = measure_setup(workload, work)
        ops, k = [], 0
        start = time.perf_counter()
        cycle = 2 if trace else 1
        while True:
            t_cycle = time.perf_counter()
            for _ in range(cycle):
                ops.append(run_operation(workload, work, k, traced=bool(trace and k % 2)))
                k += 1
            now = time.perf_counter()
            if now - start + (now - t_cycle) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    lines = [f"# workload {name}, seed {seed}: {len(ops)} operations, "
             f"{len(ops) - len(good)} failed; set-up x{len(setup)}; "
             f"median measured wall {_median([op['wall'] for op in plain]):.4g} s, "
             f"core speed {_median([op['ref'] / op['wall'] for op in plain]):.4g}"]
    if not trace:
        values = {
            "wall_s": (_median([op["ref"] for op in plain]), len(plain)),
            "sim_s_per_s": (_median([op["sim_s"] / op["ref"] for op in plain]), len(plain)),
            "setup_s": (_median(setup), len(setup)),
            "peak_rss_mb": (_median([op["rss"] for op in plain]), len(plain)),
        }
        units = END_TO_END
    else:
        traced = [op for op in good if op["traced"]]
        values = {}
        for metric in PER_LAYER:
            if metric.startswith(("trace.", "cli.rows", "cli.bytes", "check.")):
                continue
            values[metric] = (_median([op["layers"][metric] for op in traced]),
                              len(traced))
        t_wall = _median([op["wall"] for op in traced])
        values["trace.wall_s"] = (t_wall, len(traced))
        values["trace.overhead_s"] = (_median([op["ref"] for op in traced])
                                      - _median([op["ref"] for op in plain]), len(traced))
        values["trace.unattributed_s"] = (_median(
            [op["wall"] - op["layers"]["attributed_s"] for op in traced]), len(traced))
        values["cli.rows_written"] = (_median([op["rows"] for op in good]), len(good))
        values["cli.bytes_written"] = (_median([op["bytes"] for op in good]), len(good))
        values["check.ref_dev_rel"] = (max(
            [op["diag"].get("ref_dev_rel", 0.0) for op in good], default=0.0), len(good))
        values["check.oracle_dev_rel"] = (max(
            [op["diag"].get("oracle_dev_rel", 0.0) for op in good], default=0.0), len(good))
        units = PER_LAYER
    for metric, (value, n) in values.items():
        lines.append(f"{name:12s} {metric:24s} {value:.6g} {units[metric]} (n={n})")
    summary = {"correct": len(good) == len(ops), "attempted": len(ops),
               "failed": len(ops) - len(good),
               "metrics": {m: {"value": float(v), "unit": units[m]}
                           for m, (v, _) in values.items()}}
    return summary, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dvocsim", "cli.py")):
        print("perfbench: run from the repository root (src/dvocsim not found)",
              file=sys.stderr)
        return 2
    pin_to_one_core()
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"nproc {os.cpu_count()}, pinned to core {min(os.sched_getaffinity(0))}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        summary, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        summaries[name] = summary
    if len(names) == 1:
        result = summaries[names[0]]
    else:
        result = {"correct": all(s["correct"] for s in summaries.values()),
                  "attempted": sum(s["attempted"] for s in summaries.values()),
                  "failed": sum(s["failed"] for s in summaries.values()),
                  "metrics": {f"{n}.{m}": v for n, s in summaries.items()
                              for m, v in s["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
