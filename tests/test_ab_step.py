import importlib.util
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
