"""A/B of two source trees: the integrator's step cost, or whole CLI runs.

    python tools/ab_step.py PARENT_SRC CHANGE_SRC [--pairs 10] [--workload NAME ...]
    python tools/ab_step.py PARENT_SRC CHANGE_SRC --cli [--pairs 10] [--op NAME ...]

Step mode imports each tree's ``dvocsim`` package side by side in this one
interpreter, so both sides share the process, its numpy and its warm caches.
For each workload, every pair runs the parent and the change once each,
alternating which runs first, and times ``Simulation.run`` (construction
excluded) divided by the run's integrator steps.

``--cli`` sizes an end-to-end gain instead: every pair runs one CLI operation
of each tree, alternating which runs first, each in a fresh
``python -m dvocsim.cli`` process, one at a time, with this process and its
children pinned to one core by ``os.sched_setaffinity``.  It times each
process's wall time, interpreter start-up and imports included.

Printed per workload or operation: each side's median and quartiles (us per
step, or s per run), the median of the paired change/parent ratios and how
many pairs the change won.

Workloads:
    fig7           -- paper-fig7, the all-oscillator dispatch run
    droop-ref-q10  -- droop-ref cloned at 10 q targets in +-0.05, one batch
    mixed-grid     -- the benchmark's generated dVOC + droop grid at its
                      seed 1, grid 1, sampled and noisy
                      (``perfbench/gen_grid.py``)
    mixed-live     -- the same grid without controller sampling, so every
                      droop law solves the live capacitor loop

CLI operations, the benchmark's three workloads (``perfbench/README.md``):
    mixed-grid     -- ``simulate`` of that generated grid
    dispatch       -- ``simulate paper-fig7``
    droop-sweep    -- ``droop-sweep droop-ref --axis q`` on 10 points in +-0.05
"""

import argparse
import importlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The generated grid that ``perfbench/run.py --workload mixed-grid --seed 1``
# runs: shipped grid 1 of ``perfbench/reference/mixed_grid.json``.
MIXED_GRID = 1
WORKLOADS = ("fig7", "droop-ref-q10", "mixed-grid", "mixed-live")
CLI_OPS = {
    "mixed-grid": ["simulate", "{grid}"],
    "dispatch": ["simulate", "paper-fig7"],
    "droop-sweep": ["droop-sweep", "droop-ref", "--axis", "q", "--range=-0.05:0.05:10"],
}


def gen_grid():
    """The benchmark's grid generator, ``perfbench/gen_grid.py``."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import gen_grid
    finally:
        sys.path.pop(0)
    return gen_grid


def load(src):
    """The ``sim``, ``scenario`` and ``analysis`` modules of the dvocsim
    package under ``src``, imported apart from any other tree's."""
    def ours(name):
        return name == "dvocsim" or name.startswith("dvocsim.")

    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if ours(k)}
    sys.path.insert(0, os.path.abspath(src))
    try:
        mods = {m: importlib.import_module("dvocsim." + m)
                for m in ("sim", "scenario", "analysis")}
        for k in [k for k in sys.modules if ours(k)]:
            del sys.modules[k]
    finally:
        sys.path.pop(0)
        sys.modules.update(saved)
    return mods


def scenarios(mods, workload):
    """The scenario, or list of batch members, of a workload in one tree."""
    scenario, analysis = mods["scenario"], mods["analysis"]
    if workload == "fig7":
        return scenario.builtin_scenario("paper-fig7")
    if workload == "droop-ref-q10":
        template = scenario.builtin_scenario("droop-ref")
        return [analysis._actuated_scenario(template, "q", -0.05 + 0.1 * k / 9)
                for k in range(10)]
    if workload in ("mixed-grid", "mixed-live"):
        doc = gen_grid().generate(MIXED_GRID)
        if workload == "mixed-live":
            del doc["sim"]["controller_sample_hz"]
        return scenario.parse_scenario_dict(doc)
    raise SystemExit(f"unknown workload {workload!r}")


def us_per_step(mods, members):
    sim = mods["sim"].Simulation(members)
    cfg = sim.config
    steps = round(cfg.t_end / cfg.dt) // cfg.stride
    t0 = time.perf_counter()
    sim.run()
    return (time.perf_counter() - t0) / steps * 1e6


def cli_seconds(src, args, out):
    """Wall time of one CLI operation of the tree under ``src`` in a fresh
    process, its outputs written under ``out`` and then removed."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "dvocsim.cli", *args, "--out", out],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    shutil.rmtree(out)
    return seconds


def quartiles(xs, digits):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:8.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def report(name, unit, digits, times, pairs):
    ratios = [c / p for p, c in zip(*times)]
    wins = sum(c < p for p, c in zip(*times))
    print(f"{name:14s} {unit}  parent {quartiles(times[0], digits)}  "
          f"change {quartiles(times[1], digits)}  ratio {statistics.median(ratios):.3f}  "
          f"change faster in {wins}/{pairs} pairs")


def alternate(pairs, run):
    """``pairs`` paired calls of run(side), side 0 the parent and 1 the
    change, alternating which goes first; the times of each side."""
    times = ([], [])
    for k in range(pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[side].append(run(side))
    return times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--cli", action="store_true", help="time whole CLI operations")
    ap.add_argument("--op", action="append", choices=tuple(CLI_OPS))
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    srcs = (args.parent_src, args.change_src)
    if args.cli:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
        tmp = tempfile.mkdtemp(prefix="ab_step_")
        try:
            grid = os.path.join(tmp, f"grid{MIXED_GRID}.json")
            gen_grid().write(MIXED_GRID, grid)
            for op in args.op or CLI_OPS:
                cmd = [a.format(grid=grid) for a in CLI_OPS[op]]
                out = os.path.join(tmp, "out")
                for src in srcs:  # warm-up, untimed
                    cli_seconds(src, cmd, out)
                times = alternate(args.pairs, lambda side: cli_seconds(srcs[side], cmd, out))
                report(op, "s/run  ", 3, times, args.pairs)
        finally:
            shutil.rmtree(tmp)
        return
    sides = (load(args.parent_src), load(args.change_src))
    for workload in args.workload or WORKLOADS:
        members = [scenarios(mods, workload) for mods in sides]
        for mods, m in zip(sides, members):  # warm-up, untimed
            us_per_step(mods, m)
        times = alternate(args.pairs, lambda side: us_per_step(sides[side], members[side]))
        report(workload, "us/step", 2, times, args.pairs)


if __name__ == "__main__":
    main()
