"""Seeded generator for the mixed-grid workload's scenario file.

The grid is fixed in shape and random in its values: three dVOC inverters
and one droop inverter on two load buses joined by a tie line, with RL
branches, filter capacitors, zero-order-hold controller sampling and per-step
noise.  Its timeline connects the third inverter, steps the bus-B load,
raises a set-point, opens the tie and closes it again.

The step is fixed at DT and guarded: explicit RK4 must be stable on every
topology the timeline produces, so the stiffest branch-current pole (sources
held fixed, load buses algebraic) must satisfy |lambda| DT <= STABILITY_MARGIN,
well inside RK4's real-axis limit of about 2.785.  A seed that breaks the
guard raises ValueError.  The step count is fixed too, so every seed costs
the same number of steps.

This module uses numpy only and never imports dvocsim, so a given seed gives
byte-identical JSON whatever the program under test does.
"""

import json
import math

import numpy as np

STABILITY_MARGIN = 2.0           # max |lambda| dt over every topology
DT = 1e-5
N_STEPS = 20000
RECORD_DECIMATION = 10
SAMPLE_STEPS = 4                 # controller sample period in plant steps

F_NOMINAL = 60.0
OMEGA0 = 2.0 * math.pi * F_NOMINAL
V_PEAK = 120.0 * math.sqrt(2.0)
ETA = 21.71
ALPHA = 0.9722

# Event times as shares of the simulated horizon, before jitter.
_EVENT_SHARES = (("connect", 0.15), ("load_step", 0.35), ("set_point", 0.5),
                 ("disconnect", 0.65), ("reconnect", 0.8))


def _sig(x, digits=9):
    """Round to a fixed number of significant digits so the file stays short."""
    return float(f"{x:.{digits}g}")


def stiffest_pole(branches, loads):
    """|lambda|max of the branch-current dynamics of the connected branches.

    ``branches`` lists (from, to, r, l, connected); ``loads`` maps load-bus
    id -> conductance.  Inverter nodes are held at fixed voltage, load buses
    are algebraic (KCL through their conductance), so
    di/dt = L^-1 (-R - E G^-1 E^T) i with E the branch-to-bus incidence.
    """
    live = [b for b in branches if b[4]]
    buses = sorted(loads)
    idx = {n: k for k, n in enumerate(buses)}
    e = np.zeros((len(live), len(buses)))
    for d, (frm, to, _, _, _) in enumerate(live):
        if frm in idx:
            e[d, idx[frm]] += 1.0
        if to in idx:
            e[d, idx[to]] -= 1.0
    g_inv = np.diag([1.0 / loads[n] for n in buses])
    r = np.diag([b[2] for b in live])
    l_inv = np.diag([1.0 / b[3] for b in live])
    jac = l_inv @ (-r - e @ g_inv @ e.T)
    return float(np.abs(np.linalg.eigvals(jac)).max())


def check_step(topologies):
    """|lambda|max over every topology; raises if DT is not stable on one."""
    lam = max(stiffest_pole(br, ld) for br, ld in topologies)
    if lam * DT > STABILITY_MARGIN:
        raise ValueError(f"stiffest pole {lam:.3g} 1/s: |lambda| dt = {lam * DT:.3g} "
                         f"> {STABILITY_MARGIN}")
    return lam


def generate(seed):
    """Scenario document for ``seed`` (a dict ready for json.dump)."""
    rng = np.random.default_rng([0x6D6978, int(seed)])
    u = rng.uniform

    def g_of(p_w):
        return p_w / V_PEAK**2

    caps = {f"n{k}": _sig(u(15e-6, 30e-6)) for k in range(1, 5)}
    lines = {}
    for bid in ("b1", "b2", "b3", "b4", "tie"):
        lines[bid] = (_sig(u(0.05, 0.3)), _sig(u(1.5e-3, 3e-3)))
    p_a, p_b = u(300.0, 600.0), u(300.0, 500.0)
    p_b_step = p_b * u(1.3, 1.8)
    loads0 = {"busA": _sig(g_of(p_a)), "busB": _sig(g_of(p_b))}
    g_b_step = _sig(g_of(p_b_step))

    ends = {"b1": ("n1", "busA"), "b2": ("n2", "busA"), "b3": ("n3", "busB"),
            "b4": ("n4", "busB"), "tie": ("busA", "busB")}

    def branch_list(closed):
        return [(ends[b][0], ends[b][1], lines[b][0], lines[b][1], b in closed)
                for b in ("b1", "b2", "b3", "b4", "tie")]

    loads1 = dict(loads0, busB=g_b_step)
    all_closed = {"b1", "b2", "b3", "b4", "tie"}
    timeline = [
        (branch_list(all_closed - {"b3"}), loads0),        # before connect
        (branch_list(all_closed), loads0),                 # after connect
        (branch_list(all_closed), loads1),                 # after load step
        (branch_list(all_closed - {"tie"}), loads1),       # tie open
    ]
    lam = check_step(timeline)
    t_end = _sig(N_STEPS * DT, 12)

    def q_cap(node):
        return _sig(-OMEGA0 * caps[node] * V_PEAK**2)

    def dvoc(inv_id, node, p_star, angle):
        return {"id": inv_id, "node": node, "control": "dvoc",
                "eta": _sig(ETA * u(0.8, 1.2)), "alpha": ALPHA,
                "kappa_rad": math.pi / 2.0, "p_star_w": _sig(p_star),
                "q_star_var": q_cap(node), "v_star_peak": V_PEAK,
                "initial": {"mode": "nominal", "angle_rad": _sig(angle)}}

    inverters = [
        dvoc("inv1", "n1", u(150.0, 300.0), u(-0.15, 0.15)),
        dvoc("inv2", "n2", u(150.0, 300.0), u(-0.15, 0.15)),
        dvoc("inv3", "n3", u(100.0, 250.0), u(-0.5, 0.5)),
        {"id": "inv4", "node": "n4", "control": "droop",
         "kp_rad_per_sw": _sig(ETA / V_PEAK**2 * u(0.8, 1.2)),
         "kq_v_per_var": _sig(u(0.002, 0.01)), "p_star_w": _sig(u(100.0, 250.0)),
         "q_star_var": q_cap("n4"), "v_star_peak": V_PEAK,
         "initial": {"mode": "nominal", "angle_rad": _sig(u(-0.15, 0.15))}},
    ]
    p1_new = _sig(inverters[0]["p_star_w"] * u(1.2, 1.6))

    times = {name: _sig(t_end * (share + u(-0.02, 0.02)), 9)
             for name, share in _EVENT_SHARES}
    events = [
        {"t_s": times["connect"], "type": "connect", "branch": "b3"},
        {"t_s": times["load_step"], "type": "load_step", "node": "busB",
         "g_siemens": g_b_step},
        {"t_s": times["set_point"], "type": "set_point", "inverter": "inv1",
         "p_star_w": p1_new},
        {"t_s": times["disconnect"], "type": "disconnect", "branch": "tie"},
        {"t_s": times["reconnect"], "type": "connect", "branch": "tie"},
    ]
    return {
        "name": f"mixed-grid-{int(seed)}",
        "description": (f"Generated mixed dVOC/droop grid, seed {int(seed)}; "
                        f"stiffest pole {_sig(lam, 6)} 1/s, "
                        f"|lambda| dt = {_sig(lam * DT, 4)} "
                        f"(margin {STABILITY_MARGIN})."),
        "omega0_rad_per_s": OMEGA0,
        "inverters": inverters,
        "network": {
            "branches": [{"id": b, "from": ends[b][0], "to": ends[b][1],
                          "r_ohm": lines[b][0], "l_henry": lines[b][1],
                          "connected": b != "b3"}
                         for b in ("b1", "b2", "b3", "b4", "tie")],
            "loads": [{"node": n, "g_siemens": g} for n, g in sorted(loads0.items())],
            "shunt_caps": [{"node": n, "c_farad": c} for n, c in sorted(caps.items())],
        },
        "events": events,
        "sim": {"dt_s": DT, "t_end_s": t_end,
                "controller_sample_hz": _sig(1.0 / (SAMPLE_STEPS * DT), 12),
                "network_model": "dynamic", "record_decimation": RECORD_DECIMATION,
                "noise_seed": int(rng.integers(0, 2**31 - 1)),
                "noise_amplitude": _sig(u(0.1, 0.5))},
        "outputs": ["trace", "metrics"],
    }


def dumps(doc):
    """Canonical text of a scenario document."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write(seed, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps(generate(seed)))

