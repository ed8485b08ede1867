"""List the statements of the package that a pytest run never executes.

    python tools/untested.py [pytest args]

Runs pytest in this process under a line tracer (`sys.settrace` and
`threading.settrace`) that records executed lines only in frames whose file
lies under `src/hybridsim/`, so the rest of the run is not slowed down line
by line.  Then prints `path:line: statement` for every statement of the
package's source that never ran, in file and line order, and exits with
pytest's status.  Function and class definitions, imports, `global` and
`nonlocal` declarations and docstrings are not listed: they run at import
time or compile to nothing.  Neither is an `if __name__ == "__main__":`
guard with its body, which runs only when a file is run as a script, in a
process of its own that the tracer does not see.  A statement counts as run when any of its
lines ran, so a compound statement (`if`, `for`, `try`, ...) whose body ran
counts as run, and statements that share a line share its fate.  Code the
engine generates at run time has no file under `src/`, so it is not traced.
Neither is code that runs in a forked worker process (`sim._serve`, the
loop of a split `run_shots` call): the tracer sees this process only, so a
test drives that loop in this process, from a thread, and another runs the
branch of `sim._start_workers` that only the child takes, with `os.fork`
patched to return 0.

The run writes nothing into the repository: pytest's cache provider is off,
no bytecode is written, and hypothesis keeps no example database.
Hypothesis runs derandomized, so two runs of the same tests draw the same
examples and list the same statements.  The `coverage` package gives the
same answer with more options; this needs nothing beyond pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hybridsim"

# Statements that run at import time or compile to no code of their own.
_NOT_LISTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
               ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
_HAS_DOCSTRING = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                  ast.ClassDef)


def _is_main_guard(node: ast.AST) -> bool:
    return (isinstance(node, ast.If)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def _statements(tree: ast.Module):
    """Every statement to list."""
    nodes = [tree]
    while nodes:
        node = nodes.pop()
        nodes += [child for child in ast.iter_child_nodes(node)
                  if not _is_main_guard(child)]
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                docstring = (i == 0 and field == "body"
                             and isinstance(node, _HAS_DOCSTRING)
                             and isinstance(stmt, ast.Expr)
                             and isinstance(stmt.value, ast.Constant)
                             and isinstance(stmt.value.value, str))
                if not (docstring or isinstance(stmt, _NOT_LISTED)
                        or _is_main_guard(stmt)):
                    yield stmt


def untested(ran: dict[str, set[int]]) -> list[str]:
    """`path:line: statement` for each listed statement none of whose lines
    ran (statements that share a line share its fate)."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        missed = sorted({stmt.lineno for stmt in _statements(ast.parse(source))
                         if hit.isdisjoint(range(stmt.lineno,
                                                 stmt.end_lineno + 1))})
        rel = path.relative_to(ROOT)
        out += [f"{rel}:{ln}: {lines[ln - 1].strip()}" for ln in missed]
    return out


class _HypothesisProfile:
    """A pytest plugin: hypothesis keeps no examples under the directory the
    run starts in, and draws the same examples on every run."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings
        settings.register_profile("untested", database=None, derandomize=True)
        settings.load_profile("untested")


def main(args: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: defaultdict[str, set[int]] = defaultdict(set)  # file -> lines run

    # One local tracer for every frame: a closure made per call would make
    # a reference cycle per call, which tests that count garbage would see.
    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def trace(frame, event, arg):
        # Line events only in the package's frames.
        return line if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main([*args, "-p", "no:cacheprovider"],
                             plugins=[_HypothesisProfile])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(untested(ran)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
