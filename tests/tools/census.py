"""A call census of ``src/repro``: the functions no scenario ever calls.

Usage (from the repository root)::

    python tests/tools/census.py                       # every scenario
    python tests/tools/census.py --scenarios smoke render

Each scenario runs in child processes whose ``PYTHONPATH`` starts with
a generated ``sitecustomize`` that installs a profile hook
(``sys.setprofile`` and ``threading.setprofile``) recording every code
object that runs.  Each process appends the code objects it ran to its
own dump file at exit.  Forked pool workers leave through ``os._exit``,
which skips ``atexit``, so the hook wraps ``os._exit`` to dump first.

The report merges the dumps, matches them with the function spans that
``ast`` finds under ``src/repro`` and prints each function that no
process called, with its line span: only the outermost one, since a
nested function of an uncalled function is uncalled too.  Then it
prints the totals.

It is a report, not a gate.  It exits non-zero only when a scenario
fails.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Written as ``sitecustomize.py`` into a directory at the head of each
#: scenario's ``PYTHONPATH``.  Each process dumps one line per code
#: object it ran: ``filename<TAB>first line<TAB>name``.
HOOK = '''\
import atexit
import os
import sys
import threading

_DIR = os.environ.get("CENSUS_DUMP_DIR")
if _DIR:
    _seen = set()
    _add = _seen.add

    def _profile(frame, event, arg):
        _add(frame.f_code)

    def _dump():
        lines = {f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}"
                 for code in list(_seen)}
        path = os.path.join(_DIR, f"{os.getpid()}.tsv")
        with open(path, "a") as out:
            out.write("".join(line + "\\n" for line in sorted(lines)))

    _exit = os._exit

    def _dump_and_exit(code):
        _dump()
        _exit(code)

    os._exit = _dump_and_exit
    atexit.register(_dump)
    sys.setprofile(_profile)
    threading.setprofile(_profile)
'''


class Span(NamedTuple):
    """One function definition: its file, its first line (the first
    decorator's, as in ``co_firstlineno``), its last line and names."""

    path: str
    start: int
    end: int
    name: str
    qualname: str

    @property
    def lines(self) -> int:
        return self.end - self.start + 1


def function_spans(root: Path) -> list[Span]:
    """Every function and method defined in the ``*.py`` files under
    ``root``, sorted by file and first line."""
    spans = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    start = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    spans.append(Span(str(path.resolve()), start,
                                      child.end_lineno, child.name, qualname))
                    stack.append((child, qualname + ".<locals>."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + "."))
                else:
                    stack.append((child, prefix))
    return sorted(spans)


def merge_dumps(paths) -> set[tuple[str, int, str]]:
    """The union of the ``(filename, first line, name)`` code objects
    in the dump files.  A dump need not end with a newline, so each
    file is split into lines on its own, never concatenated."""
    called = set()
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if line:
                filename, first, name = line.split("\t")
                called.add((os.path.realpath(filename), int(first), name))
    return called


def uncalled(spans: list[Span], called) -> list[Span]:
    """The spans of ``spans`` no code object in ``called`` matches,
    less those nested in another uncalled span."""
    found: list[Span] = []
    for span in spans:
        if (span.path, span.start, span.name) in called:
            continue
        if found and found[-1].path == span.path and span.end <= found[-1].end:
            continue
        found.append(span)
    return found


def scenarios(out: Path) -> dict[str, list[list[str]]]:
    """Every scenario CI or the Makefile runs, as commands to run from
    the repository root."""
    python = sys.executable
    repro = [python, "-m", "repro"]
    return {
        "smoke": [[*repro, "run", "all", "--smoke"]],
        "examples": [[python, str(script)]
                     for script in sorted((ROOT / "examples").glob("*.py"))],
        "obs": [[*repro, "obs", "fig5ab"], [*repro, "obs", "xext12", "--smoke"]],
        "render": [[*repro, "render", scene, str(out / f"{scene}.wav")]
                   for scene in ("knock", "chirps", "fan", "song")],
        "shapes": [[python, "-m", "pytest", "benchmarks", "-q",
                    "-p", "no:cacheprovider",
                    "--ignore=benchmarks/test_micro_performance.py",
                    "--benchmark-disable"]],
        "xext16": [[*repro, "run", "xext16"]],
        "bench": [[python, "bench/run.py"]],
    }


def run_scenarios(names: list[str], work: Path) -> bool:
    """Run the named scenarios under the hook, dumping into ``work``;
    return whether every command exited 0.  A failed scenario's last
    output lines are printed."""
    hook_dir, dumps = work / "hook", work / "dumps"
    hook_dir.mkdir()
    dumps.mkdir()
    (hook_dir / "sitecustomize.py").write_text(HOOK)
    path = [str(hook_dir), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "CENSUS_DUMP_DIR": str(dumps),
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    table = scenarios(work)
    ok = True
    for name in names:
        started = time.perf_counter()
        with open(work / f"{name}.log", "w") as log:
            codes = [subprocess.run(command, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT).returncode
                     for command in table[name]]
        failed = any(codes)
        print(f"== {name}: {len(codes)} command(s), "
              f"{time.perf_counter() - started:.0f} s"
              + (", FAILED:" if failed else ""), flush=True)
        if failed:
            tail = (work / f"{name}.log").read_text().splitlines()[-20:]
            print("\n".join(tail), flush=True)
        ok = ok and not failed
    return ok


def report(spans: list[Span], called) -> list[str]:
    """The report's lines: each uncalled function, then the totals."""
    missing = uncalled(spans, called)
    lines = [f"{os.path.relpath(span.path, ROOT)}:{span.start}-{span.end}  "
             f"{span.qualname}  ({span.lines} lines)" for span in missing]
    outermost = uncalled(spans, set())
    total = sum(span.lines for span in outermost)
    lines.append(f"{len(missing)} of {len(spans)} functions never called: "
                 f"{sum(span.lines for span in missing)} of {total} lines "
                 f"in function spans")
    return lines


def main() -> int:
    names = list(scenarios(Path()))
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenarios", nargs="+", choices=names,
                        default=names)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        work = Path(tmp)
        ok = run_scenarios(args.scenarios, work)
        called = merge_dumps(sorted((work / "dumps").glob("*.tsv")))
        print("\n".join(report(function_spans(PACKAGE), called)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
