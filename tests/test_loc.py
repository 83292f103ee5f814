import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "loc.py")

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment beside code


class A:
    """A class docstring."""

    def f(self):
        # a comment alone
        text = """a string that is
        not a docstring"""
        return text
'''


@pytest.fixture(scope="module")
def loc():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_leave_out_blanks_comments_and_docstrings(loc):
    # 14 lines; code: the import, the class and def lines, both lines of
    # the string assigned and the return.
    assert loc.count(SOURCE) == (14, 6)


def test_prints_total_and_code_lines_per_file(loc, tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE, encoding="utf-8")
    loc.main([str(path)])
    assert capsys.readouterr().out.split() == ["14", "6", str(path)]
