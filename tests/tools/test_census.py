"""The call census's hook, span and merge code on a two-function module."""

from __future__ import annotations

import os
import subprocess
import sys

from tests.tools import census

MODULE = '''\
def called():
    return 1


def never():
    return 2


called()
'''


def test_lists_only_the_uncalled_function(tmp_path):
    module = tmp_path / "pkg" / "two.py"
    module.parent.mkdir()
    module.write_text(MODULE)
    (tmp_path / "sitecustomize.py").write_text(census.HOOK)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    env = {**os.environ, "CENSUS_DUMP_DIR": str(dumps),
           "PYTHONPATH": str(tmp_path)}
    subprocess.run([sys.executable, str(module)], env=env, check=True)

    spans = census.function_spans(module.parent)
    called = census.merge_dumps(dumps.glob("*.tsv"))
    assert [span.qualname for span in spans] == ["called", "never"]
    assert [span.qualname for span in census.uncalled(spans, called)] == ["never"]
    assert census.report(spans, called)[-1].startswith(
        "1 of 2 functions never called: 2 of 4 lines")


def test_merge_splits_each_dump_on_its_own(tmp_path):
    # Neither dump ends with a newline: joined, the last line of one
    # and the first line of the next would run together.
    (tmp_path / "1.tsv").write_text("/m.py\t1\tf\n/m.py\t5\tg")
    (tmp_path / "2.tsv").write_text("/m.py\t9\th")
    called = census.merge_dumps(sorted(tmp_path.glob("*.tsv")))
    assert called == {("/m.py", 1, "f"), ("/m.py", 5, "g"), ("/m.py", 9, "h")}


def test_nested_functions_of_an_uncalled_function_are_not_listed(tmp_path):
    (tmp_path / "nest.py").write_text(
        "def outer():\n    def inner():\n        pass\n\n\n"
        "class K:\n    def method(self):\n        pass\n")
    spans = census.function_spans(tmp_path)
    assert [span.qualname for span in spans] == [
        "outer", "outer.<locals>.inner", "K.method"]
    assert [span.qualname for span in census.uncalled(spans, set())] == [
        "outer", "K.method"]
