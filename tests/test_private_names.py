import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "private_names.py")

MODULE = '''from os import path as _path

_LIMIT = 3


def _helper():
    return _LIMIT


class _Box:
    def __init__(self):
        self._fill, self.public = 0, 1

    def _grow(self):
        self._fill += 1

    def __len__(self):
        return self._fill
'''

TEST = '''from module import _Box, _helper


def test_box(monkeypatch):
    box = _Box()
    box._grow()
    monkeypatch.setattr(_Box, "_grow", lambda self: None)
    assert box._fill == 1 and len(box) == 1 and _helper() == 3
    _unrelated = "_LIMIT is not named here"
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("private_names", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_module_binds_functions_classes_attributes_and_aliases(tool):
    # Dunders and public names are not private.
    assert tool.defined(MODULE) == {"_path", "_LIMIT", "_helper", "_Box", "_fill", "_grow"}


def test_counts_names_and_string_literals_in_the_tests(tool):
    # A string that merely contains a name, and a test's own private local,
    # reach nothing.
    uses = tool.reached(tool.defined(MODULE), [TEST])
    assert uses == {"_Box": 3, "_helper": 2, "_grow": 2, "_fill": 1}


def test_prints_each_name_and_the_total(tool, tmp_path, capsys):
    module, test = tmp_path / "module.py", tmp_path / "test_module.py"
    module.write_text(MODULE, encoding="utf-8")
    test.write_text(TEST, encoding="utf-8")
    tool.main([str(module), str(test)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[:-1]] == [
        ["3", "_Box"], ["1", "_fill"], ["2", "_grow"], ["2", "_helper"]]
    assert lines[-1] == f"4 private names of {module} reached by 1 test files"
