"""The scripts under tools/ still run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _untested(*args):
    return subprocess.run(
        [sys.executable, "tools/untested.py", "-q", "tests/test_profiles.py",
         *args], cwd=ROOT, capture_output=True, text=True, timeout=120)


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
