"""Count the code lines of the package: the lines of `src/hybridsim/*.py`
that hold code, without docstrings, comments or blank lines.

    python tools/code_lines.py [REV]

prints one line per module, `path lines`, then `total lines`.  With a git
revision it counts the files as committed there (`git show`), so a figure
quoted for an earlier commit can be checked, e.g. `python
tools/code_lines.py 84d37a9`.  A line counts when a token other than a
comment or a docstring starts on it or a multi-line string runs through it;
a docstring is a string that stands alone as the first statement of the
module, a class or a function.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/hybridsim"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The code lines of one module's source `text`."""
    docstrings = _docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _sources(rev: str | None) -> dict[str, str]:
    """Each module's path and text, in the working tree or at `rev`."""
    if rev is None:
        return {f"{PACKAGE}/{p.name}": p.read_text(encoding="utf-8")
                for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    git = ["git", "-C", str(ROOT)]
    names = subprocess.run(git + ["ls-tree", "--name-only", f"{rev}:{PACKAGE}"],
                           capture_output=True, text=True, check=True).stdout
    return {f"{PACKAGE}/{name}": subprocess.run(
                git + ["show", f"{rev}:{PACKAGE}/{name}"], capture_output=True,
                text=True, check=True).stdout
            for name in sorted(names.split()) if name.endswith(".py")}


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python tools/code_lines.py [REV]", file=sys.stderr)
        return 2
    total = 0
    for path, text in _sources(argv[0] if argv else None).items():
        n = code_lines(text)
        total += n
        print(f"{path} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
