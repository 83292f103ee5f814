"""Correctness checks on the files one CLI operation wrote.

Every check returns ``(problems, diagnostics)``: a list of human-readable
failures (empty when the operation is correct) and a dict of deviations that
the benchmark reports as ``check.*``.  The checks read only the output
directory and the benchmark's own reference data; they import numpy, never
dvocsim, so a defect in the program cannot hide a defect in its outputs.

Tolerances are absolute and fixed here or in the reference files: an
integrator change inside them passes, one outside them is a failure.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

# C05 (dispatch): 250:500 W within 1 %, 60 Hz within 1e-3 Hz.
DISPATCH_TARGETS_W = {"inv1": 250.0, "inv2": 500.0}
DISPATCH_P_REL_TOL = 0.01
DISPATCH_F_HZ = 60.0
DISPATCH_F_TOL_HZ = 1e-3
# C04 (droop sweep): exact curve within 0.5 % of v*, linear tangent within 1 %
# of v* for |q - q*| <= 0.05.
SWEEP_EXACT_TOL = 0.005
SWEEP_LINEAR_TOL = 0.01
SWEEP_LINEAR_SPAN = 0.05
# The program's own closed-form column against the closed form below.
SWEEP_CLOSED_FORM_TOL = 1e-9
# Derived trace columns (p, q, |v|) against the recorded v and i.
DERIVED_REL_TOL = 1e-12
# Record times are matched to the reference to this absolute tolerance.
TIME_MATCH_TOL = 1e-9
# Fewest reference record times the trace must share for the comparison to
# count.  A changed step or record interval shares fewer of them, not none.
MIN_SHARED_TIMES = 10

SIGNALS = ("v_alpha", "v_beta", "i_alpha", "i_beta", "p", "q", "vmag")
GROUP = {"v_alpha": "v", "v_beta": "v", "vmag": "v", "i_alpha": "i",
         "i_beta": "i", "p": "s", "q": "s"}


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def load_manifest(outdir):
    with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_manifest(outdir, expected):
    """Every expected output is listed and its recorded hash matches the file."""
    problems = []
    try:
        manifest = load_manifest(outdir)
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    outputs = manifest.get("outputs", {})
    for name in expected:
        if name not in outputs:
            problems.append(f"manifest does not list {name}")
            continue
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            problems.append(f"{name} missing")
        elif sha256_file(path) != outputs[name]:
            problems.append(f"{name}: sha256 differs from the manifest")
    return problems


def read_table(path):
    """Header and float matrix of a numeric CSV file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def inverter_ids(header):
    return [h[len("vmag_"):] for h in header if h.startswith("vmag_")]


def derived_deviation(header, data):
    """Largest relative mismatch of the p, q and |v| columns against the
    values recomputed from the recorded v and i columns."""
    col = {h: data[:, k] for k, h in enumerate(header)}
    worst = 0.0
    for inv in inverter_ids(header):
        va, vb = col[f"v_alpha_{inv}"], col[f"v_beta_{inv}"]
        ia, ib = col[f"i_alpha_{inv}"], col[f"i_beta_{inv}"]
        recomputed = {"p": va * ia + vb * ib, "q": vb * ia - va * ib,
                      "vmag": np.hypot(va, vb)}
        for name, want in recomputed.items():
            got = col[f"{name}_{inv}"]
            scale = max(float(np.abs(want).max()), 1e-300)
            worst = max(worst, float(np.abs(got - want).max()) / scale)
    return worst


def check_trace(outdir, reference=None):
    """Finite trace, consistent derived columns, and agreement with the
    reference samples at the record times both share."""
    problems, diag = [], {}
    try:
        header, data = read_table(os.path.join(outdir, "trace.csv"))
    except (OSError, ValueError) as exc:
        return [f"trace.csv unreadable: {exc}"], diag
    if data.shape[0] < 2 or data.shape[1] != len(header):
        return [f"trace.csv has shape {data.shape} for {len(header)} columns"], diag
    if not np.all(np.isfinite(data)):
        problems.append("trace.csv has non-finite values")
        return problems, diag
    diag["derived_dev_rel"] = derived_deviation(header, data)
    if diag["derived_dev_rel"] > DERIVED_REL_TOL:
        problems.append(f"derived columns deviate by {diag['derived_dev_rel']:.3g} "
                        f"(> {DERIVED_REL_TOL})")
    if reference is not None:
        p, d = compare_reference(header, data, reference)
        problems += p
        diag.update(d)
    return problems, diag


def compare_reference(header, data, reference):
    """Absolute-tolerance comparison against recorded reference samples.

    ``reference`` holds ``t`` (record times), ``columns`` (name -> values),
    ``scale`` and ``tol`` per signal group (v volts, i amperes, s W/var).
    Only the record times the trace and the reference share are compared;
    fewer than MIN_SHARED_TIMES of them is a failure.
    """
    col = {h: k for k, h in enumerate(header)}
    t = data[:, col["t"]]
    t_ref = np.asarray(reference["t"])
    pos = np.minimum(np.searchsorted(t, t_ref - TIME_MATCH_TOL), len(t) - 1)
    shared = np.abs(t[pos] - t_ref) <= TIME_MATCH_TOL
    if shared.sum() < MIN_SHARED_TIMES:
        return [f"trace.csv shares {int(shared.sum())} of {len(t_ref)} reference "
                f"record times (fewer than {MIN_SHARED_TIMES})"], {}
    pos = pos[shared]
    problems, worst = [], 0.0
    for name, values in reference["columns"].items():
        if name not in col:
            problems.append(f"trace.csv lacks column {name}")
            continue
        group = GROUP[name.rsplit("_", 1)[0]]
        err = float(np.abs(data[pos, col[name]] - np.asarray(values)[shared]).max())
        worst = max(worst, err / reference["scale"][group])
        if err > reference["tol"][group]:
            problems.append(f"{name} deviates from the reference by {err:.3g} "
                            f"(tolerance {reference['tol'][group]:.3g})")
    return problems, {"ref_dev_rel": worst}


def check_dispatch(outdir, reference):
    """simulate paper-fig7: hashes, C05 bounds on metrics.csv, trace reference."""
    problems = check_manifest(outdir, ["trace.csv", "metrics.csv"])
    p, diag = check_trace(outdir, reference)
    problems += p
    try:
        rows = {r["inverter"]: r for r in read_rows(os.path.join(outdir, "metrics.csv"))}
    except (OSError, KeyError) as exc:
        return problems + [f"metrics.csv unreadable: {exc}"], diag
    worst = 0.0
    for inv, target in DISPATCH_TARGETS_W.items():
        if inv not in rows:
            problems.append(f"metrics.csv lacks {inv}")
            continue
        p_rel = abs(float(rows[inv]["steady_p_w"]) - target) / target
        f_err = abs(float(rows[inv]["steady_freq_hz"]) - DISPATCH_F_HZ)
        worst = max(worst, p_rel, f_err / DISPATCH_F_HZ)
        if not p_rel <= DISPATCH_P_REL_TOL:
            problems.append(f"{inv}: steady p off target by {p_rel:.3g} (C05)")
        if not f_err <= DISPATCH_F_TOL_HZ:
            problems.append(f"{inv}: steady frequency off 60 Hz by {f_err:.3g} Hz (C05)")
    diag["oracle_dev_rel"] = worst
    return problems, diag


def stationary_vmag(params, q):
    """Stable stationary amplitude of the polar oscillator law at p = p*.

    With p = p* the phase term drops out and d|v|/dt = 0 reads
    sin(kappa) (q*/v*^2 - q/r^2) + alpha (1 - r^2/v*^2) = 0, a quadratic in
    u = r^2 whose larger root is the stable high-voltage branch.
    """
    vs2 = params["v_star_peak"] ** 2
    sk = math.sin(params["kappa_rad"])
    a = params["alpha"] / vs2
    b = params["alpha"] + sk * params["q_star_var"] / vs2
    disc = b * b - 4.0 * a * sk * q
    if disc < 0.0:
        return math.nan
    return math.sqrt((b + math.sqrt(disc)) / (2.0 * a))


def vmag_tangent(params, q):
    """First-order expansion of the stationary amplitude about (q*, v*)."""
    vs = params["v_star_peak"]
    return vs + (params["q_star_var"] - q) / (
        2.0 * (params["alpha"] * vs - params["q_star_var"] / vs))


def check_sweep(outdir, grid):
    """droop-sweep on the q axis: hashes, every point settled at its target,
    and C04's bounds against the closed-form stationary amplitude."""
    problems = check_manifest(outdir, ["curve.csv"])
    diag = {}
    try:
        rows = read_rows(os.path.join(outdir, "curve.csv"))
        params = load_manifest(outdir)["resolved_scenario"]["inverters"][0]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return problems + [f"outputs unreadable: {exc}"], diag
    if len(rows) != len(grid):
        return problems + [f"curve.csv has {len(rows)} points, expected {len(grid)}"], diag
    vs = params["v_star_peak"]
    worst_sim = worst_cf = 0.0
    for row, target in zip(rows, grid):
        if row["settled"] != "true":
            problems.append(f"point {target!r} did not settle")
            continue
        if abs(float(row["target"]) - target) > 1e-12:
            problems.append(f"point target {row['target']} != requested {target!r}")
        q, vmag = float(row["q"]), float(row["vmag"])
        exact = stationary_vmag(params, q)
        sim_dev = abs(vmag - exact) / vs
        cf_dev = abs(float(row["ordinate_closed_form"]) - exact) / vs
        if not math.isfinite(sim_dev) or not math.isfinite(cf_dev):
            problems.append(f"point {target!r}: no stationary amplitude")
            continue
        worst_sim, worst_cf = max(worst_sim, sim_dev), max(worst_cf, cf_dev)
        if sim_dev > SWEEP_EXACT_TOL:
            problems.append(f"point {target!r}: |v| off the exact curve by "
                            f"{sim_dev:.3g} v* (C04)")
        if cf_dev > SWEEP_CLOSED_FORM_TOL:
            problems.append(f"point {target!r}: closed-form column off by "
                            f"{cf_dev:.3g} v*")
        if abs(q - params["q_star_var"]) <= SWEEP_LINEAR_SPAN + 1e-9 and \
                abs(vmag - vmag_tangent(params, q)) > SWEEP_LINEAR_TOL * vs:
            problems.append(f"point {target!r}: |v| off the linear tangent (C04)")
    diag["oracle_dev_rel"] = worst_sim
    diag["ref_dev_rel"] = worst_cf
    return problems, diag


def check_mixed(outdir, reference):
    """simulate <generated grid>: hashes, a finite and self-consistent trace,
    and agreement with the seed-commit reference for this grid."""
    problems = check_manifest(outdir, ["trace.csv", "metrics.csv"])
    p, diag = check_trace(outdir, reference)
    problems += p
    diag["oracle_dev_rel"] = diag.pop("derived_dev_rel", math.nan)
    return problems, diag
