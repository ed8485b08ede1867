"""The scripts under tools/ still run."""

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _untested(*args, tests="tests/test_profiles.py"):
    return subprocess.run(
        [sys.executable, "tools/untested.py", "-q", tests, *args], cwd=ROOT,
        capture_output=True, text=True, timeout=120)


def test_untested_lists_statements_that_never_ran():
    done = _untested()
    assert done.returncode == 0, done.stdout + done.stderr
    listed = [line for line in done.stdout.splitlines()
              if line.startswith("src/")]
    assert listed
    for line in listed:
        m = re.fullmatch(r"(src/hybridsim/\w+\.py):(\d+): (\S.*)", line)
        assert m, line
        source = (ROOT / m[1]).read_text(encoding="utf-8").splitlines()
        assert source[int(m[2]) - 1].strip() == m[3]
    # test_profiles.py never histograms.
    assert any(line.startswith("src/hybridsim/hist.py:") for line in listed)
    # The exit status is pytest's: 5 when no test was selected.
    assert _untested("-k", "no_such_test").returncode == 5


# Each example calls one of several fixed-point functions, so the
# statements of the package that run depend on what hypothesis draws.
_DRAWN = """
from hypothesis import given, settings, strategies as st
from hybridsim import fixedpoint as fx

OPS = [fx.wrap_raw, fx.decode, fx.neg_raw, fx.to_radians, fx.check_int_range,
       fx.recip_raw, lambda x: fx.mul_raw(x, x), lambda x: fx.add_raw(x, x),
       lambda x: fx.sub_raw(x, 1), lambda x: fx.div_raw(1, x)]


@settings(max_examples=3)
@given(st.sampled_from(OPS), st.integers(1, 2 ** 16))
def test_drawn(op, x):
    op(x)
"""


def test_untested_lists_the_same_statements_on_every_run(tmp_path):
    drawn = tmp_path / "test_drawn.py"
    drawn.write_text(_DRAWN, encoding="utf-8")
    first, second = (_untested(tests=str(drawn)) for _ in range(2))
    assert first.returncode == second.returncode == 0, first.stdout
    listed = [[line for line in done.stdout.splitlines()
               if line.startswith("src/")] for done in (first, second)]
    assert listed[0] and listed[0] == listed[1]


def test_untested_skips_what_runs_only_as_a_script():
    spec = importlib.util.spec_from_file_location(
        "untested", ROOT / "tools" / "untested.py")
    untested = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(untested)

    def listed(source):
        return sorted(s.lineno for s in untested._statements(ast.parse(source)))

    assert listed("x = 1\n"
                  "if __name__ == '__main__':\n"
                  "    main()\n"
                  "    if x:\n"
                  "        y = 2\n"
                  "if x:\n"
                  "    y = 3\n"
                  "else:\n"
                  "    y = 4\n") == [1, 6, 7, 9]
    main_py = (ROOT / "src" / "hybridsim" / "__main__.py").read_text()
    assert listed(main_py) == []


def test_unroll_cutoff_script_runs():
    """tools/unroll_cutoff.py still drives the engine's caches and cut-off,
    and prints one row per width and noise setting."""
    done = subprocess.run([sys.executable, "tools/unroll_cutoff.py", "2", "5"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert "range over 5 pairs" in header
    assert [row.split()[:2] for row in rows] == [["2", "ideal"],
                                                 ["2", "noise"]]
    for row in rows:
        # A median figure and the range over the pairs, or "never".
        assert re.search(r"(\d+|never) \((\d+|never)-(\d+|never)\)$", row), row


def test_refit_sections_script_runs():
    """tools/refit_sections.py still finds the refit sections it wraps and
    prints one row per section, the whole refit and the chunk."""
    done = subprocess.run(
        [sys.executable, "tools/refit_sections.py", "3", "20"], cwd=ROOT,
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.startswith("3 chunks of 20 records, seed 11:")
    labels = [row[:10].strip() for row in rows]
    assert labels == ["read real", "read fixed", "columns", "set-up", "rows",
                      "normalise", "other", "refit", "chunk"]
    for row in rows:
        assert re.fullmatch(r".{10} +-?\d+\.\d +-?\d+\.\d%", row), row
    assert rows[-1].endswith("100.0%")


def test_code_lines_counts_code_alone():
    """tools/code_lines.py counts the lines that hold code, without
    docstrings, comments or blanks, and prints each module of the package
    and their total."""
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    assert code_lines.code_lines('"""Module\ndocstring."""\n'
                                 "# a comment\n"
                                 "\n"
                                 "def f(x):  # counted\n"
                                 "    '''Docstring.'''\n"
                                 "    s = '''two\n"
                                 "lines'''\n"
                                 "    return (x,\n"
                                 "            s)\n") == 5
    done = subprocess.run([sys.executable, "tools/code_lines.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert sorted(path for path, _ in rows) == sorted(
        f"src/hybridsim/{p.name}" for p in (ROOT / "src/hybridsim").glob("*.py"))
    assert total == ["total", str(sum(int(n) for _, n in rows))]
