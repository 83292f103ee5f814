"""``dvocsim.reprcsv``: every cell is exactly ``repr`` of its double."""

import math

import numpy as np
import pytest

from dvocsim import reprcsv
from dvocsim.cli import _trace_rows
from dvocsim.scenario import builtin_scenario
from dvocsim.sim import run_scenario


def repr_lines(block):
    """The reference: ``repr`` of every cell, joined as ``csv_lines`` joins."""
    return "".join(",".join(map(repr, row)) + "\n" for row in block.tolist()).encode()


def mismatches(values, cols=16):
    """The (kernel, repr) cell pairs that differ, over ``values`` laid out
    in blocks of BLOCK_CELLS cells, ``cols`` to a row."""
    values = np.asarray(values, dtype=float).ravel()
    values = np.concatenate([values, np.ones(-len(values) % cols)])
    bad = []
    for rows in reprcsv.row_blocks(len(values) // cols, cols):
        block = values.reshape(-1, cols)[rows]
        got, want = reprcsv.csv_lines(block), repr_lines(block)
        if got != want:
            cells = [text.replace(b"\n", b",").split(b",") for text in (got, want)]
            bad += [(g, w) for g, w in zip(*cells) if g != w]
    return bad


def neighbours(x, ulps):
    """x and the ``ulps`` doubles on either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        y = x
        for _ in range(ulps):
            y = math.nextafter(y, direction)
            out.append(y)
    return out


def length_ties(rng, n):
    """x = odd / 2^p with E = 16 - p: N = x 10^16-E is an integer ending in
    5, so x lies exactly halfway between two 16-digit decimals (562949953421312.25
    prints as ...312.2, ...312.75 as ...312.8)."""
    out = []
    for p in rng.integers(1, 21, n).tolist():
        lo, hi = -(-10**16 // 5**p), min(10**17 // 5**p, 2**53)
        out.append((int(rng.integers(lo // 2 + 1, hi // 2)) * 2 + 1) / 2**p)
    return out


def test_every_double_in_a_hypothesis_block_reads_as_its_repr():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hyp.given(st.integers(1, 9).flatmap(lambda cols: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=cols,
                 max_size=cols), min_size=1, max_size=40)))
    def check(rows):
        block = np.array(rows, dtype=float)
        assert reprcsv.csv_lines(block) == repr_lines(block)

    check()


def test_a_million_seeded_cells_over_every_class_read_as_their_repr():
    rng = np.random.default_rng(20181)
    n = 175_000
    digits = rng.integers(1, 18, n)
    decimals = [float(f"{m[0]}.{m[1:]}e{e}") for m, e in zip(
        (str(rng.integers(10**(d - 1), 10**d)) for d in digits.tolist()),
        rng.integers(-5, 17, n).tolist())]
    powers = [10.0**k for k in range(-5, 17)] + [2.0**k for k in range(-15, 55)]
    sets = {
        "bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(float),
        "log-uniform": 10.0**rng.uniform(-4.5, 16.2, n) * rng.choice([-1.0, 1.0], n),
        "decimals of 1-17 digits": decimals,
        "neighbours of 10^k and 2^k": [y for x in powers for y in neighbours(x, 250)],
        "integers up to 1e16": rng.integers(0, 10**16, n).astype(float),
        "16-digit midpoints": [float(f"{m}5e{e}") for m, e in zip(
            rng.integers(10**15, 10**16, n // 2).tolist(), rng.integers(-20, 0, n // 2))],
        "length ties": length_ties(rng, n),
        "specials": [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-4, 1e16, 9999999999999998.0,
                     1.7976931348623157e308],
    }
    assert sum(len(v) for v in sets.values()) >= 1_000_000
    for name, values in sets.items():
        assert mismatches(values) == [], name


def test_every_power_of_two_in_fixed_notation_reads_as_its_repr():
    # Below a power of two the doubles lie half as far apart, but no
    # candidate the kernel accepts falls into that narrower half ulp.
    powers = [2.0**k for k in range(-13, 54)]
    assert 1e-4 <= min(powers) and max(powers) < 1e16
    assert mismatches(powers + [-x for x in powers]) == []


@pytest.mark.parametrize("name", ["paper-fig4", "paper-fig5", "paper-fig6", "paper-fig7",
                                  "droop-ref"])
def test_builtin_traces_read_as_their_repr(name):
    trace = run_scenario(builtin_scenario(name))
    header, blocks = _trace_rows(trace)
    blocks = list(blocks)
    assert sum(len(b) for b in blocks) == len(trace.t)
    for block in blocks:
        assert block.shape[1] == len(header) == 1 + 8 * trace.n_inverters
        assert reprcsv.csv_lines(block) == repr_lines(block)
    first = blocks[0][0]
    assert first[0] == trace.t[0] and first[-1] == trace.theta[0, -1]
    assert first[1:3].tolist() == [trace.v[0, 0].real, trace.v[0, 0].imag]


def test_blocks_cover_every_row_once():
    assert [(s.start, s.stop) for s in reprcsv.row_blocks(5, 3000)] == \
        [(k, k + 1) for k in range(5)]
    slices = list(reprcsv.row_blocks(1000, 17))
    assert slices[0] == slice(0, reprcsv.BLOCK_CELLS // 17)
    assert np.concatenate([np.arange(1000)[s] for s in slices]).tolist() == \
        list(range(1000))


def test_write_csv_writes_the_header_then_each_block(tmp_path):
    path = tmp_path / "t.csv"
    blocks = [np.array([[0.1, -2.0]]), np.array([[1e-5, math.nan], [3.0, 1e22]])]
    reprcsv.write_csv(path, ["a", "b"], blocks)
    assert path.read_bytes() == b"a,b\n0.1,-2.0\n1e-05,nan\n3.0,1e+22\n"
