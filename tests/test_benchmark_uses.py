"""What the benchmark (`perfbench/`) uses of the package still works.

The benchmark lives outside the package and changes separately from it,
so a change under `src/` that drops a name it uses would otherwise go
unseen until the benchmark runs.  These tests import its workloads, run one chunk
of each and build its trace hooks; they write nothing under `perfbench/`.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

from hybridsim import bayes, fixedpoint, sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # No bytecode cache under perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("workloads")


def test_every_workload_runs_a_checked_chunk(workloads):
    no_span = workloads.no_span
    assert sorted(workloads.WORKLOADS) == [
        "ipe-native", "refit", "rwpe-fixed-noise", "rwpe-real"]
    for name, make in workloads.WORKLOADS.items():
        w = make(1)
        w.setup(no_span)
        assert w.check(1, w.chunk(1, no_span)) == [], name


def test_trace_hooks_name_what_the_package_has(workloads):
    ipe = workloads.IpeNative(1)
    ipe.setup(workloads.no_span)
    assert ipe.instrs_out() > 0
    hooks = workloads.hooks(types.SimpleNamespace(count=lambda *args: None))
    owners = {sim: "sim", bayes: "bayes", fixedpoint: "fixedpoint",
              sim.QuantumState: "QuantumState"}
    missing = sorted(f"{owners[owner]}.{attr}" for owner, attr, _, _ in hooks
                     if not hasattr(owner, attr))
    # The generated engine inlines its kernels, noise and measurement, so
    # these hooks find nothing to wrap; every other hooked name must exist.
    assert missing == sorted(
        [f"QuantumState.{op}" for op in workloads.KERNEL_OPS]
        + ["sim.apply_noise", "sim.measure"])
