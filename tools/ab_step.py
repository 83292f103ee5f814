"""Same-process A/B of the integrator's step cost between two source trees.

    python tools/ab_step.py PARENT_SRC CHANGE_SRC [--pairs 10] [--workload NAME ...]

Each tree's ``dvocsim`` package is imported side by side in this one
interpreter, so both sides share the process, its numpy and its warm caches.
For each workload, every pair runs the parent and the change once each,
alternating which runs first, and times ``Simulation.run`` (construction
excluded) divided by the run's integrator steps.  Printed per workload: each
side's median and quartiles in us per step, the median of the paired
change/parent ratios and how many pairs the change won.

Workloads:
    fig7           -- paper-fig7, the all-oscillator dispatch run
    droop-ref-q10  -- droop-ref cloned at 10 q targets in +-0.05, one batch
    mixed-grid     -- the benchmark's generated dVOC + droop grid at its
                      seed 1, grid 1, sampled and noisy
                      (``perfbench/gen_grid.py``)
    mixed-live     -- the same grid without controller sampling, so every
                      droop law solves the live capacitor loop
"""

import argparse
import importlib
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The generated grid that ``perfbench/run.py --workload mixed-grid --seed 1``
# runs: shipped grid 1 of ``perfbench/reference/mixed_grid.json``.
MIXED_GRID = 1
WORKLOADS = ("fig7", "droop-ref-q10", "mixed-grid", "mixed-live")


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
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        try:
            import gen_grid
        finally:
            sys.path.pop(0)
        doc = gen_grid.generate(MIXED_GRID)
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


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:8.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    sides = (load(args.parent_src), load(args.change_src))
    for workload in args.workload or WORKLOADS:
        members = [scenarios(mods, workload) for mods in sides]
        for mods, m in zip(sides, members):  # warm-up, untimed
            us_per_step(mods, m)
        times = ([], [])
        for k in range(args.pairs):
            for side in ((0, 1) if k % 2 == 0 else (1, 0)):
                times[side].append(us_per_step(sides[side], members[side]))
        ratios = [c / p for p, c in zip(*times)]
        wins = sum(c < p for p, c in zip(*times))
        print(f"{workload:14s} us/step  parent {quartiles(times[0])}  "
              f"change {quartiles(times[1])}  ratio {statistics.median(ratios):.3f}  "
              f"change faster in {wins}/{args.pairs} pairs")


if __name__ == "__main__":
    main()
