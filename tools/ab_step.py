"""A/B of two source trees: the integrator's step cost, whole CLI runs, or
their outputs.

    python tools/ab_step.py PARENT_SRC CHANGE_SRC [--pairs 10] [--workload NAME ...]
    python tools/ab_step.py PARENT_SRC CHANGE_SRC --cli [--pairs 10] [--op NAME ...]
    python tools/ab_step.py PARENT_SRC CHANGE_SRC --outputs

Step mode imports each tree's ``dvocsim`` package side by side in this one
interpreter, so both sides share the process, its numpy and its warm caches.
For each workload, every pair runs the parent and the change once each,
alternating which runs first, and times ``Simulation.run`` (construction
excluded) divided by the run's dt steps, t_end / dt, which two trees share
whatever step sizes they take; the time per integrator step (the run's
``meta["steps"]``) is printed beside it.

``--cli`` sizes an end-to-end gain instead: every pair runs one CLI operation
of each tree, alternating which runs first, each in a fresh ``python``
process, one at a time, with this process and its children pinned to one
core by ``os.sched_setaffinity`` (this process gets its cores back at the
end).  It times each process's wall time, interpreter start-up and imports
included.  Run it with PYTHONDONTWRITEBYTECODE=1 in the environment, as the
benchmark's children inherit it, and every process compiles the package's
source anew.

Printed per workload or operation: each side's median and quartiles (us per
dt step, or s per run), the median of the paired change/parent ratios and
how many pairs the change won; in step mode also each side's median us per
integrator step.  Each line ends in the verdict on a gain (``verdict``):
"gain holds" when the change won at least nine tenths of the pairs and its
median lies below the parent's by more than the distance between the
parent's quartiles, else "unresolved".

``--outputs`` checks what a change does to the results instead: it runs
every operation listed under OUTPUT_OPS once per tree, each into its own
scratch directory, and prints per operation either "identical" (every
file byte for byte, ``manifest.json`` with its ``command`` masked, since
that names the output directory) or the largest deviation of each signal
group over its files: v (v_*, vmag, *_v), i (i_*) and p/q (p_*, q_*,
steady_p_w, steady_q_var), each relative to the group's largest parent
magnitude in any of the operation's files, so a metric is measured
against the signal it summarises, and "other" (t, theta, frequencies,
ratios, ordinates, ...) relative to each column's own.  A difference in a
text cell, a NaN, the file list, the exit code or a manifest field is
named as such.  Beside the verdict it prints each side's K per compile
segment, integrator step count and steps per rung, from the same
operation's ``Simulation`` run again in this process (of a sweep, its first
member).

Workloads:
    fig7           -- paper-fig7, the all-oscillator dispatch run
    droop-ref-q10  -- droop-ref cloned at 10 q targets in +-0.05, one batch
    droop-ref-q1000 -- the same at 1000 q targets, the 1000-point q sweep
    mixed-grid     -- the benchmark's generated dVOC + droop grid at its
                      seed 1, grid 1, sampled and noisy
                      (``perfbench/gen_grid.py``)
    mixed-live     -- the same grid without controller sampling, so every
                      droop law solves the live capacitor loop
    mixed-quasi    -- the same grid, sampled and noisy, on the quasi-static
                      network

CLI operations, the benchmark's three workloads (``perfbench/README.md``),
the import that every one of them starts with, and the whole fixed cost of a
CLI process:
    mixed-grid     -- ``simulate`` of that generated grid
    dispatch       -- ``simulate paper-fig7``
    droop-sweep    -- ``droop-sweep droop-ref --axis q`` on 10 points in +-0.05
    import         -- ``python -c "import dvocsim.cli"``, nothing run; the
                      interpreter then exits normally
    startup        -- ``python -m dvocsim.cli list-scenarios``: start-up,
                      imports and the exit through the CLI's process entry,
                      which ``import`` cannot see

OUTPUT_OPS, for ``--outputs``, every CLI command that writes outputs:
    the five built-ins     -- ``simulate NAME``
    grid<n>-<model>        -- ``simulate`` of shipped grid n = 0..15 of
                              ``perfbench/reference/mixed_grid.json`` on the
                              dynamic and on the quasi-static network
    mixed-live             -- ``simulate`` of grid 1 without controller sampling
    droop-sweep-<axis><n>  -- ``droop-sweep droop-ref`` at n = 10 and 1000
                              points, p in [0.3, 0.7] and q in +-0.05
    droop-sweep-nose       -- ``droop-sweep`` of droop-ref at q* = 1 (the
                              parent tree's document), q in [0.9, 1.1] at 5
                              points: the last three settle past the nose
    blackstart-check       -- ``blackstart-check paper-fig4``
    consistency            -- ``consistency paper-fig7``, which runs no
                              simulation
"""

import argparse
import csv
import importlib
import json
import math
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
WORKLOADS = ("fig7", "droop-ref-q10", "droop-ref-q1000", "mixed-grid", "mixed-live",
             "mixed-quasi")
# The interpreter arguments of each CLI operation; {grid} is the generated
# grid's file and {out} the output directory.
CLI = ["-m", "dvocsim.cli"]
CLI_OPS = {
    "mixed-grid": CLI + ["simulate", "{grid}", "--out", "{out}"],
    "dispatch": CLI + ["simulate", "paper-fig7", "--out", "{out}"],
    "droop-sweep": CLI + ["droop-sweep", "droop-ref", "--axis", "q", "--range=-0.05:0.05:10",
                          "--out", "{out}"],
    "import": ["-c", "import dvocsim.cli"],
    "startup": CLI + ["list-scenarios"],
}
BUILTINS = ("paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7", "droop-ref")
SHIPPED_GRIDS = 16
SWEEP_SPANS = {"p": "0.3:0.7", "q": "-0.05:0.05"}


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
    if workload in ("droop-ref-q10", "droop-ref-q1000"):
        n = int(workload[len("droop-ref-q"):])
        template = scenario.builtin_scenario("droop-ref")
        return [analysis._actuated_scenario(template, "q", -0.05 + 0.1 * k / (n - 1))
                for k in range(n)]
    if workload in ("mixed-grid", "mixed-live", "mixed-quasi"):
        doc = gen_grid().generate(MIXED_GRID)
        if workload == "mixed-live":
            del doc["sim"]["controller_sample_hz"]
        if workload == "mixed-quasi":
            doc["sim"]["network_model"] = "quasistatic"
        return scenario.parse_scenario_dict(doc)
    raise SystemExit(f"unknown workload {workload!r}")


def us_per_step(mods, members):
    """us per dt step and per integrator step of one ``Simulation.run``."""
    sim = mods["sim"].Simulation(members)
    cfg = sim.config
    t0 = time.perf_counter()
    traces = sim.run()
    seconds = time.perf_counter() - t0
    meta = (traces[0] if isinstance(traces, list) else traces).meta
    return seconds / round(cfg.t_end / cfg.dt) * 1e6, seconds / meta["steps"] * 1e6


def step_sizes(meta):
    """K per compile segment (one value if all agree), the step count and,
    from a tree with run stats, the steps per rung of a run, from its
    trace's meta: steps shortened to end at an event, sample or t_end take
    rungs below K.  A tree without run stats steps k = step_multiple (1 if
    unset) throughout; None is an operation without a simulation."""
    if meta is None:
        return "no simulation"
    if "stats" not in meta:
        return f"K {meta['step_multiple'] or 1} steps {meta['steps']}"
    ks = [seg["k"] for seg in meta["stats"]["segments"]]
    ks = ks if len(set(ks)) > 1 else ks[:1]
    rungs = ",".join(f"{r}:{n}" for r, n in sorted(meta["stats"]["steps_per_rung"].items()))
    return f"K {','.join(map(str, ks))} steps {meta['steps']} rungs {rungs}"


def op_meta(src, cmd):
    """The trace meta of the ``Simulation`` behind a CLI operation, run in
    this process from the tree under ``src``: the scenario of ``simulate``
    or ``blackstart-check``, or the first member of a ``droop-sweep``
    batch; None for ``consistency``, which runs none."""
    if cmd[0] == "consistency":
        return None
    mods = load(src)
    scenario, sim = mods["scenario"], mods["sim"]
    source = cmd[1]
    sc = (scenario.parse_scenario(source) if source.endswith(".json")
          else scenario.builtin_scenario(source))
    if cmd[0] in ("simulate", "blackstart-check"):
        return sim.Simulation(sc).run().meta
    axis = cmd[cmd.index("--axis") + 1]
    a, b, n = next(x for x in cmd if x.startswith("--range=")).split("=")[1].split(":")
    grid = [float(a) + (float(b) - float(a)) * k / (int(n) - 1) for k in range(int(n))]
    members = [mods["analysis"]._actuated_scenario(sc, axis, g) for g in grid]
    return sim.Simulation(members).run()[0].meta


def cli_run(src, args, out):
    """Exit code and stdout (``out`` masked) of one CLI operation of the
    tree under ``src`` in a fresh process, its outputs written under
    ``out``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "dvocsim.cli", *args, "--out", out],
                          env=env, capture_output=True, text=True)
    return done.returncode, done.stdout.replace(out, "OUT")


def op_seconds(src, argv):
    """Wall time of one fresh ``python`` process with the interpreter
    arguments ``argv`` (a CLI_OPS entry, formatted) and the tree under
    ``src`` on its path; it must succeed."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
    seconds = time.perf_counter() - t0
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}")
    return seconds


def output_ops(tmp, src):
    """OUTPUT_OPS as (name, CLI arguments), the grids and the q* = 1 sweep's
    scenario, droop-ref of the tree under ``src``, written under ``tmp``."""
    gg = gen_grid()
    ops = [(name, ["simulate", name]) for name in BUILTINS]

    def write(name, doc):
        path = os.path.join(tmp, name + ".json")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(gg.dumps(doc))
        return path

    for model in ("dynamic", "quasistatic"):
        for n in range(SHIPPED_GRIDS):
            doc = gg.generate(n)
            doc["sim"]["network_model"] = model
            ops.append((f"grid{n}-{model}", ["simulate", write(f"grid{n}-{model}", doc)]))
    doc = gg.generate(MIXED_GRID)
    del doc["sim"]["controller_sample_hz"]
    ops.append(("mixed-live", ["simulate", write("mixed-live", doc)]))
    for axis, span in SWEEP_SPANS.items():
        for n in (10, 1000):
            ops.append((f"droop-sweep-{axis}{n}", ["droop-sweep", "droop-ref", "--axis", axis,
                                                    f"--range={span}:{n}"]))
    doc = load(src)["scenario"].builtin_scenario("droop-ref").to_dict()
    doc["inverters"][0]["q_star_var"] = 1.0
    ops.append(("droop-sweep-nose", ["droop-sweep", write("droop-ref-q1", doc), "--axis", "q",
                                     "--range=0.9:1.1:5"]))
    ops.append(("blackstart-check", ["blackstart-check", "paper-fig4"]))
    ops.append(("consistency", ["consistency", "paper-fig7"]))
    return ops


def signal_group(column):
    """The signal group of an output column: v, i, p/q or other."""
    head = column.split("_")
    if head[0] in ("v", "vmag") or "vmag" in head or head[-1] == "v":
        return "v"
    if head[0] == "i":
        return "i"
    if head[0] in ("p", "q") or head[:2] in (["steady", "p"], ["steady", "q"]):
        return "p/q"
    return "other"


def csv_deviations(path_a, path_b, columns, notes):
    """Append (group, largest |parent - change|, largest |parent|) of each
    numeric column of one CSV file pair to ``columns``; differences that are
    not numbers go to ``notes``."""
    name = os.path.basename(path_a)
    tables = []
    for path in (path_a, path_b):
        with open(path, newline="", encoding="utf-8") as fh:
            tables.append(list(csv.reader(fh)))
    (head_a, *rows_a), (head_b, *rows_b) = tables
    if head_a != head_b or len(rows_a) != len(rows_b):
        notes.append(f"{name}: header or row count differs")
        return
    for c, column in enumerate(head_a):
        a = [row[c] for row in rows_a]
        b = [row[c] for row in rows_b]
        try:
            xa, xb = [float(x) for x in a], [float(x) for x in b]
        except ValueError:
            if a != b:
                notes.append(f"{name}: text column {column} differs")
            continue
        if [math.isnan(x) for x in xa] != [math.isnan(x) for x in xb]:
            notes.append(f"{name}: NaNs of {column} differ")
            continue
        finite = [(x, y) for x, y in zip(xa, xb) if not math.isnan(x)]
        columns.append((signal_group(column),
                        max((abs(x - y) for x, y in finite), default=0.0),
                        max((abs(x) for x, _ in finite), default=0.0)))


def compare_outputs(dir_a, dir_b):
    """The verdict on two output directories: "identical", or what differs,
    each signal group's deviation on its scale (see the module docstring)."""
    files = [sorted(os.listdir(d)) if os.path.isdir(d) else [] for d in (dir_a, dir_b)]
    if files[0] != files[1]:
        return f"file lists differ: {files[0]} against {files[1]}"
    columns, notes, same = [], [], True
    for name in files[0]:
        path_a, path_b = os.path.join(dir_a, name), os.path.join(dir_b, name)
        if name == "manifest.json":
            docs = []
            for path in (path_a, path_b):
                with open(path, encoding="utf-8") as fh:
                    docs.append(dict(json.load(fh), command=None))
            keys = sorted(k for k in docs[0].keys() | docs[1].keys()
                          if docs[0].get(k) != docs[1].get(k))
            if keys:
                notes.append(f"manifest differs in {', '.join(keys)}")
            continue
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            equal = fa.read() == fb.read()
        same = same and equal
        if name.endswith(".csv"):  # for the scales, also when equal
            csv_deviations(path_a, path_b, columns, notes)
        elif not equal:
            notes.append(f"{name} differs")
    if same and not notes:
        return "identical"
    scale, devs = {}, {}
    for group, _, mag in columns:
        scale[group] = max(scale.get(group, 0.0), mag)
    for group, diff, mag in columns:
        mag = mag if group == "other" else scale[group]
        rel = diff / mag if mag else (math.inf if diff else 0.0)
        devs[group] = max(devs.get(group, 0.0), rel)
    groups = "  ".join(f"{g} {devs[g]:.1e}" for g in ("v", "i", "p/q", "other") if g in devs)
    return "; ".join([groups] * bool(groups) + notes)


def check_outputs(srcs):
    """Run every OUTPUT_OPS operation once per tree and print what differs."""
    tmp = tempfile.mkdtemp(prefix="ab_step_")
    try:
        for name, cmd in output_ops(tmp, srcs[0]):
            outs = [os.path.join(tmp, "out", name, side) for side in ("parent", "change")]
            runs = [cli_run(src, cmd, out) for src, out in zip(srcs, outs)]
            if runs[0] != runs[1]:
                verdict = f"exit code or stdout differs: {runs[0]} against {runs[1]}"
            else:
                verdict = compare_outputs(*outs)
            sizes = [step_sizes(op_meta(src, cmd)) for src in srcs]
            print(f"{name:22s} {verdict}  [parent {sizes[0]}; change {sizes[1]}]", flush=True)
            shutil.rmtree(os.path.join(tmp, "out", name), ignore_errors=True)
    finally:
        shutil.rmtree(tmp)


def quartiles(xs, digits):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return f"{q2:8.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def verdict(parent, change):
    """"gain holds" if the change, timed in pairs with the parent (lower is
    better), is faster in at least nine tenths of the pairs, ties counting
    for neither, and its median is below the parent's by more than the
    parent's interquartile distance; else "unresolved"."""
    wins = sum(c < p for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = statistics.median(parent) - statistics.median(change)
    return "gain holds" if 10 * wins >= 9 * len(parent) and gap > q3 - q1 else "unresolved"


def report(name, unit, digits, times, pairs, extra=""):
    ratios = [c / p for p, c in zip(*times)]
    wins = sum(c < p for p, c in zip(*times))
    print(f"{name:15s} {unit}  parent {quartiles(times[0], digits)}  "
          f"change {quartiles(times[1], digits)}  ratio {statistics.median(ratios):.3f}  "
          f"change faster in {wins}/{pairs} pairs{extra}  {verdict(*times)}")


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
    ap.add_argument("--outputs", action="store_true",
                    help="compare the outputs of every OUTPUT_OPS operation")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    srcs = (args.parent_src, args.change_src)
    if args.outputs:
        check_outputs(srcs)
        return
    if args.cli:
        cores = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cores)})  # children inherit it
        tmp = tempfile.mkdtemp(prefix="ab_step_")
        try:
            grid = os.path.join(tmp, f"grid{MIXED_GRID}.json")
            gen_grid().write(MIXED_GRID, grid)
            out = os.path.join(tmp, "out")
            for op in args.op or CLI_OPS:
                argv = [a.format(grid=grid, out=out) for a in CLI_OPS[op]]

                def run(side):
                    seconds = op_seconds(srcs[side], argv)
                    shutil.rmtree(out, ignore_errors=True)
                    return seconds

                for side in (0, 1):  # warm-up, untimed
                    run(side)
                report(op, "s/run  ", 3, alternate(args.pairs, run), args.pairs)
        finally:
            shutil.rmtree(tmp)
            os.sched_setaffinity(0, cores)
        return
    sides = (load(args.parent_src), load(args.change_src))
    for workload in args.workload or WORKLOADS:
        members = [scenarios(mods, workload) for mods in sides]
        for mods, m in zip(sides, members):  # warm-up, untimed
            us_per_step(mods, m)
        both = alternate(args.pairs, lambda side: us_per_step(sides[side], members[side]))
        per_step = [statistics.median(t[1] for t in side) for side in both]
        report(workload, "us/dt-step", 2, [[t[0] for t in side] for side in both], args.pairs,
               f"  us/step parent {per_step[0]:.2f} change {per_step[1]:.2f}")


if __name__ == "__main__":
    main()
