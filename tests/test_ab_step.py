import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "ab_step.py")


@pytest.fixture(scope="module")
def ab_step():
    spec = importlib.util.spec_from_file_location("ab_step", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]


@pytest.mark.parametrize("change, want", [
    # Faster in every pair, by far more than the parent's quartile distance.
    ([x - 1.0 for x in PARENT], "gain holds"),
    # Nine of ten pairs is enough.
    ([x - 1.0 for x in PARENT[:9]] + [PARENT[9] + 1.0], "gain holds"),
    # Eight of ten is not, however large the gap.
    ([x - 1.0 for x in PARENT[:8]] + [x + 1.0 for x in PARENT[8:]], "unresolved"),
    # Every pair won, but by less than the parent's interquartile distance.
    ([x - 0.05 for x in PARENT], "unresolved"),
    # A tie counts for neither side: nine wins and a tie still hold ...
    ([x - 1.0 for x in PARENT[:9]] + PARENT[9:], "gain holds"),
    # ... eight wins and two ties do not.
    ([x - 1.0 for x in PARENT[:8]] + PARENT[8:], "unresolved"),
    # Slower throughout.
    ([x + 1.0 for x in PARENT], "unresolved"),
])
def test_verdict_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_quartiles(
        ab_step, change, want):
    assert ab_step.verdict(PARENT, change) == want


def test_step_sizes_show_the_rung_mix(ab_step):
    # K per compile segment, the step count and the steps per rung: a run
    # at a fixed K takes shorter rungs where a step ends at an event,
    # sample or t_end.  A tree without run stats reads its step_multiple.
    meta = {"step_multiple": 3, "steps": 1001,
            "stats": {"segments": [{"k": 3}, {"k": 3}, {"k": 3}],
                      "steps_per_rung": {3: 501, 1: 500}}}
    assert ab_step.step_sizes(meta) == "K 3 steps 1001 rungs 1:500,3:501"
    meta["stats"]["segments"][1]["k"] = 2
    assert ab_step.step_sizes(meta).startswith("K 3,2,3 steps 1001 rungs")
    assert ab_step.step_sizes({"step_multiple": None, "steps": 80}) == "K 1 steps 80"


def test_import_op_times_a_fresh_interpreter_importing_the_cli(ab_step, tmp_path, capsys):
    # The import op runs `python -c "import dvocsim.cli"` against each tree
    # in a fresh process; a tree whose package fails to import fails the op.
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    assert ab_step.CLI_OPS["import"] == ["-c", "import dvocsim.cli"]
    assert 0.0 < ab_step.op_seconds(src, ab_step.CLI_OPS["import"]) < 60.0
    broken = tmp_path / "dvocsim"
    broken.mkdir()
    (broken / "__init__.py").write_text("raise ImportError('broken tree')\n")
    with pytest.raises(SystemExit, match="exited with 1"):
        ab_step.op_seconds(str(tmp_path), ab_step.CLI_OPS["import"])
    # --cli --op import: two pairs on one core; the tool gives this
    # process its cores back.
    cores = os.sched_getaffinity(0)
    try:
        ab_step.main([src, src, "--cli", "--op", "import", "--pairs", "2"])
        assert os.sched_getaffinity(0) == cores
    finally:
        os.sched_setaffinity(0, cores)
    (line,) = capsys.readouterr().out.splitlines()
    assert line.split()[:2] == ["import", "s/run"] and "pairs" in line
    assert line.endswith(("gain holds", "unresolved"))


def test_startup_op_times_a_whole_cli_process(ab_step, tmp_path):
    # The startup op runs `python -m dvocsim.cli list-scenarios`: start-up,
    # imports and the exit through the CLI's process entry, which the
    # import op does not take.  A tree whose package fails to import fails it.
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    assert ab_step.CLI_OPS["startup"] == ["-m", "dvocsim.cli", "list-scenarios"]
    assert 0.0 < ab_step.op_seconds(src, ab_step.CLI_OPS["startup"]) < 60.0
    broken = tmp_path / "dvocsim"
    broken.mkdir()
    (broken / "__init__.py").write_text("raise ImportError('broken tree')\n")
    with pytest.raises(SystemExit, match="exited with 1"):
        ab_step.op_seconds(str(tmp_path), ab_step.CLI_OPS["startup"])


def test_output_ops_cover_every_cli_command_that_writes(ab_step, tmp_path):
    # --outputs runs simulate, droop-sweep, blackstart-check and consistency:
    # the built-ins, the shipped grids on both network models, the
    # unsampled grid, droop-ref's sweeps and the q* = 1 sweep past the nose,
    # its scenario written under the tool's temp dir from the given tree.
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    ops = dict(ab_step.output_ops(str(tmp_path), src))
    assert len(ops) == 5 + 2 * ab_step.SHIPPED_GRIDS + 1 + 4 + 3
    for name in ab_step.BUILTINS:
        assert ops[name] == ["simulate", name]
    for model in ("dynamic", "quasistatic"):
        for n in range(ab_step.SHIPPED_GRIDS):
            assert ops[f"grid{n}-{model}"] == ["simulate", str(tmp_path / f"grid{n}-{model}.json")]
    assert ops["mixed-live"] == ["simulate", str(tmp_path / "mixed-live.json")]
    assert ops["droop-sweep-p1000"] == ["droop-sweep", "droop-ref", "--axis", "p",
                                        "--range=0.3:0.7:1000"]
    assert ops["droop-sweep-q10"] == ["droop-sweep", "droop-ref", "--axis", "q",
                                      "--range=-0.05:0.05:10"]
    nose = str(tmp_path / "droop-ref-q1.json")
    assert ops["droop-sweep-nose"] == ["droop-sweep", nose, "--axis", "q", "--range=0.9:1.1:5"]
    with open(nose, encoding="utf-8") as fh:
        assert json.load(fh)["inverters"][0]["q_star_var"] == 1.0
    assert ops["blackstart-check"] == ["blackstart-check", "paper-fig4"]
    assert ops["consistency"] == ["consistency", "paper-fig7"]
    # consistency runs no simulation; one tree against itself is identical.
    assert ab_step.step_sizes(ab_step.op_meta(src, ops["consistency"])) == "no simulation"
    outs = [str(tmp_path / "out" / side) for side in ("parent", "change")]
    runs = [ab_step.cli_run(src, ops["consistency"], out) for out in outs]
    assert runs[0] == runs[1] and runs[0][0] == 0
    assert ab_step.compare_outputs(*outs) == "identical"
