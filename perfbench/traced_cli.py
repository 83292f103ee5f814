"""Run one dvocsim CLI command with spans recorded around each module's
public entry points, then write the spans as JSON.

    PYTHONPATH=src python3 perfbench/traced_cli.py SPANS.json OP_ID -- simulate paper-fig7 --out OUT

The wrappers live here, not in the program: the package is imported, the
entry points listed in ``TARGETS`` are replaced by timing wrappers in every
dvocsim module that binds them, and ``dvocsim.cli.main`` runs as usual.
Spans stay in memory until the command ends.  Each span is
[name, start, end, parent index, op id, extra] with perf_counter times.
"""

import json
import sys
import time

# (module, attribute path, span name).  Functions are replaced wherever a
# dvocsim module binds them; methods are replaced on their class.
TARGETS = (
    ("scenario", "builtin_scenario", "scenario.builtin_scenario"),
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "Scenario.to_dict", "scenario.to_dict"),
    ("network", "DynamicNetwork.__init__", "network.DynamicNetwork"),
    ("network", "reduced_admittance", "network.reduced_admittance"),
    ("network", "apply_event", "network.apply_event"),
    ("sim", "Simulation.__init__", "sim.Simulation.__init__"),
    ("sim", "Simulation.run", "sim.Simulation.run"),
    ("analysis", "compute_metrics", "analysis.compute_metrics"),
    ("analysis", "droop_sweep_simulated", "analysis.droop_sweep_simulated"),
    ("analysis", "droop_sweep_closed_form", "analysis.droop_sweep_closed_form"),
    ("control", "dvoc_rhs_polar", "control.dvoc_rhs_polar"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """In-memory span recorder for one operation (single-threaded)."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    def record(self, name, start, end, extra=None):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op_id, extra])

    def wrap(self, name, fn, extra_of=None):
        spans, stack, op_id = self.spans, self._stack, self.op_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, op_id,
                          extra_of(args) if extra_of else None])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def _run_extra(args):
    """Steps and simulated seconds of a Simulation.run call, from its config."""
    cfg = args[0].config
    steps = int(round(cfg.t_end / cfg.dt))
    return {"steps": steps, "sim_s": steps * cfg.dt}


def install(tracer):
    """Replace every target in the loaded dvocsim modules by a wrapper."""
    import dvocsim
    modules = [m for name, m in sys.modules.items()
               if name == "dvocsim" or name.startswith("dvocsim.")]
    for mod_name, attr, span in TARGETS:
        owner = getattr(dvocsim, mod_name)
        extra_of = _run_extra if span == "sim.Simulation.run" else None
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), extra_of))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span, original, extra_of)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv):
    spans_path, op_id, sep, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS.json OP_ID -- <dvocsim args>")
    tracer = Tracer(op_id=int(op_id))
    t0 = time.perf_counter()
    import dvocsim.cli  # the whole package, as the CLI loads it
    tracer.record("import", t0, time.perf_counter())
    install(tracer)
    rc = dvocsim.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
