"""Record the reference outputs the correctness checks compare against.

    python3 perfbench/make_reference.py

Run from the repository root on the commit whose outputs are the reference.
It runs ``simulate paper-fig7`` and ``simulate`` on generated mixed grids
with seeds 0, 1, ... and keeps every REF_STRIDE-th trace row.  A grid whose
run does not exit 0 with a finite, self-consistent trace is rejected and
listed with the reason; the first N_GRIDS accepted grids are shipped.
Writes reference/dispatch.json and reference/mixed_grid.json.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np

import checks
import gen_grid
import run

REF_STRIDE = 100
N_GRIDS = 16
# Absolute tolerances as a share of each signal group's largest reference
# magnitude, with one group each for volts, amperes and W/var.
DISPATCH_REL_TOL = 1e-4
MIXED_REL_TOL = 1e-3


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def sample(out, rel_tol):
    """Every REF_STRIDE-th row of trace.csv with per-group scale and tolerance."""
    header, data = checks.read_table(os.path.join(out, "trace.csv"))
    rows = data[::REF_STRIDE]
    columns = {h: rows[:, k].tolist() for k, h in enumerate(header)
               if h != "t" and h.rsplit("_", 1)[0] in checks.SIGNALS}
    scale = {}
    for name, values in columns.items():
        group = checks.GROUP[name.rsplit("_", 1)[0]]
        scale[group] = max(scale.get(group, 0.0), float(np.abs(values).max()))
    return {"t": rows[:, 0].tolist(), "columns": columns, "scale": scale,
            "tol": {g: rel_tol * s for g, s in scale.items()}}


def simulate(scenario, out):
    rc, wall, _, _, output = run.run_child(
        [sys.executable, "-m", "dvocsim.cli", "simulate", scenario, "--out", out],
        out + ".log")
    return rc, wall, output


def main():
    work = os.path.join(run.WORK, "reference")
    os.makedirs(work, exist_ok=True)
    sha = git_sha()
    try:
        out = os.path.join(work, "fig7")
        rc, wall, output = simulate("paper-fig7", out)
        if rc != 0:
            raise SystemExit(f"paper-fig7 failed: {output}")
        dispatch = dict(sample(out, DISPATCH_REL_TOL), commit=sha)
        problems, _ = checks.check_dispatch(out, dispatch)
        if problems:
            raise SystemExit(f"paper-fig7 fails its own checks: {problems}")
        print(f"paper-fig7: {wall:.1f} s")

        grids, rejected, seed = {}, {}, 0
        while len(grids) < N_GRIDS:
            path = os.path.join(work, f"grid{seed}.json")
            out = os.path.join(work, f"grid{seed}")
            try:
                gen_grid.write(seed, path)
            except ValueError as exc:
                rejected[str(seed)] = f"generator: {exc}"
                seed += 1
                continue
            rc, wall, output = simulate(path, out)
            problems = [f"exit {rc}: {output.strip()[-300:]}"] if rc else \
                checks.check_trace(out)[0]
            if problems:
                rejected[str(seed)] = "; ".join(problems)
            else:
                grids[str(seed)] = sample(out, MIXED_REL_TOL)
            print(f"grid {seed}: {wall:.1f} s {'rejected' if problems else 'ok'}")
            seed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(run.REFERENCE, "dispatch.json"), "w") as fh:
        json.dump(dispatch, fh, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(run.REFERENCE, "mixed_grid.json"), "w") as fh:
        json.dump({"commit": sha, "stability_margin": gen_grid.STABILITY_MARGIN,
                   "rejected": rejected, "grids": grids}, fh, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
