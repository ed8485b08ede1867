"""Command-line pipeline: files, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hybridsim import hir
from hybridsim.algorithms import build_rwpe, build_teleport
from hybridsim.cli import main
from hybridsim.hist import histogram

TELEPORT = hir.emit(build_teleport())


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- histogram ------------------------------------------------------------------

def test_histogram_bin_placement():
    h = histogram([0.5])
    assert h.counts[62] == 1
    assert sum(h.counts) == 1
    assert h.mode_bin() == 62
    assert h.bin_center(62) == pytest.approx(0.5)


def test_histogram_edges_and_overflow():
    h = histogram([-2.0, -2.0, 1.99, 2.0, -2.01, 5.0], bin_count=100)
    assert h.counts[0] == 2          # interval minimum lands in bin 0
    assert h.counts[99] == 1
    assert h.overflow == 3           # 2.0 is outside the half-open interval
    assert sum(h.counts) + h.overflow == 6


def test_histogram_conservation_random():
    import random
    rng = random.Random(0)
    vals = [rng.uniform(-3, 3) for _ in range(1000)]
    h = histogram(vals, bin_count=17)
    assert sum(h.counts) + h.overflow == len(vals)


def test_histogram_csv_header():
    text = histogram([0.0]).to_csv()
    assert text.splitlines()[0] == "bin_left,bin_right,count"


# -- run ----------------------------------------------------------------------

def test_run_writes_jsonl(tmp_path, capsys):
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    out = str(tmp_path / "records.jsonl")
    assert main(["run", prog, "--shots", "100", "--seed", "7",
                 "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 100
    rec = json.loads(lines[0])
    assert set(rec) == {"shot", "seed", "outputs", "evidence"}


def test_run_deterministic_bytes(tmp_path):
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    main(["run", prog, "--shots", "50", "--seed", "3", "--out", out1])
    main(["run", prog, "--shots", "50", "--seed", "3", "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_run_invalid_file_exits_1(tmp_path, capsys):
    prog = _write(tmp_path, "bad.hir", "proc main qubits 1\nentry:\n  br gone\nendproc\n")
    assert main(["run", prog]) == 1
    assert capsys.readouterr().err != ""


TWO_PROCEDURES = (TELEPORT + "\nproc b qubits 99\n  var fixed w = 9.0\n"
                  "entry:\n  ret\nendproc\n")


@pytest.mark.parametrize("command", ["run", "validate", "lower"])
def test_second_procedure_exits_1(tmp_path, capsys, command):
    prog = _write(tmp_path, "two.hir", TWO_PROCEDURES)
    line = TELEPORT.count("\n") + 2
    assert main([command, prog]) == 1
    err = capsys.readouterr().err
    assert f"error: line {line}, col 1: text after endproc" in err


@pytest.mark.parametrize("command", ["run", "validate", "lower"])
def test_missing_program_file_exits_1(tmp_path, capsys, command):
    assert main([command, str(tmp_path / "absent.hir")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_range_diagnostic_exits_1(tmp_path, capsys):
    prog = _write(tmp_path, "range.hir",
                  "proc main qubits 1\n  var fixed a = 3.5\nentry:\n"
                  "  rz(a) q0\n  ret\nendproc\n")
    assert main(["run", prog]) == 1
    assert "literal-out-of-range" in capsys.readouterr().err


def test_run_step_limit_env(tmp_path, capsys, monkeypatch):
    prog = _write(tmp_path, "loop.hir",
                  "proc main qubits 0\nloop:\n  br loop\nendproc\n")
    monkeypatch.setenv("HYBRIDSIM_STEP_LIMIT", "500")
    assert main(["run", prog, "--shots", "1"]) == 2
    assert "budget" in capsys.readouterr().err


# -- rwpe -----------------------------------------------------------------------

def test_rwpe_writes_records_hist_summary(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    assert main(["rwpe", "--shots", "300", "--seed", "5",
                 "--out-prefix", prefix]) == 0
    summary = json.loads(open(prefix + ".summary.json").read())
    assert set(summary) == {"mode_bin_center", "peak_height", "shots"}
    assert summary["shots"] == 300
    assert abs(summary["mode_bin_center"] - 0.5) <= 0.04
    hist_lines = open(prefix + ".hist.csv").read().splitlines()
    assert hist_lines[0] == "bin_left,bin_right,count"
    assert len(hist_lines) == 101
    records = open(prefix + ".records.jsonl").read().splitlines()
    assert len(records) == 300


def test_rwpe_bad_params_exit_1(tmp_path, capsys):
    assert main(["rwpe", "--shots", "1", "--sigma0", "3.0",
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["rwpe", "--shots", "1", "--sigma0", "-0.5",
                 "--out-prefix", str(tmp_path / "x")]) == 1
    capsys.readouterr()


def test_rwpe_single_shot_single_bin(tmp_path):
    prefix = str(tmp_path / "one")
    assert main(["rwpe", "--shots", "1", "--seed", "4",
                 "--out-prefix", prefix]) == 0
    rows = [l.split(",") for l in
            open(prefix + ".hist.csv").read().splitlines()[1:]]
    nonzero = [r for r in rows if int(r[2]) > 0]
    assert len(nonzero) == 1


# -- validate / lower -------------------------------------------------------------

def test_validate_lower_pipeline(tmp_path, capsys):
    rwpe_path = _write(tmp_path, "rwpe.hir", hir.emit(build_rwpe()))
    assert main(["validate", rwpe_path, "--profile", "native"]) == 1
    out = capsys.readouterr().out
    assert "gate-not-native" in out

    lowered_path = str(tmp_path / "rwpe_native.hir")
    assert main(["lower", rwpe_path, "--profile", "native",
                 "--out", lowered_path]) == 0
    assert main(["validate", lowered_path, "--profile", "native"]) == 0
    assert main(["validate", rwpe_path, "--profile", "permissive"]) == 0


# -- refit -----------------------------------------------------------------------

def test_refit_pipeline(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "60", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    assert main(["refit", prefix + ".records.jsonl",
                 "--true-value", "0.5", "--out-prefix", prefix]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["shots"] == 60
    assert payload["mse"] <= payload["raw_mse"]
    csv_lines = open(prefix + ".refit.csv").read().splitlines()
    assert csv_lines[0] == "shot,estimate"
    assert len(csv_lines) == 61
    blob = json.loads(open(prefix + ".refit.json").read())
    assert blob == payload


def test_refit_rejects_grid_too_coarse_for_recorded_times(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "5", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    assert main(["refit", prefix + ".records.jsonl", "--grid", "801"]) == 1
    err = capsys.readouterr().err
    assert "shot 0: |t| = 322.085" in err
    assert "at least 1934 nodes" in err


@pytest.mark.parametrize("grid", ["0", "1"])
def test_refit_rejects_grid_below_two_nodes(tmp_path, capsys, grid):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "2", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    assert main(["refit", prefix + ".records.jsonl", "--grid", grid]) == 1
    assert "error: grid needs >= 2 nodes" in capsys.readouterr().err


def test_refit_rejects_an_empty_prior_interval(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "3", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    code = main(["refit", prefix + ".records.jsonl", "--interval", "0.5", "0.5"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: prior interval needs lo < hi" in captured.err
    assert captured.out == ""


def test_refit_deterministic(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "20", "--seed", "2", "--out-prefix", prefix])
    capsys.readouterr()
    main(["refit", prefix + ".records.jsonl"])
    first = capsys.readouterr().out
    main(["refit", prefix + ".records.jsonl"])
    assert capsys.readouterr().out == first


def test_refit_empty_records_exits_1(tmp_path, capsys):
    empty = _write(tmp_path, "empty.jsonl", "")
    assert main(["refit", empty]) == 1
    assert "empty" in capsys.readouterr().err


def test_refit_malformed_records_exits_1(tmp_path, capsys):
    bad = _write(tmp_path, "bad.jsonl", "{not json}\n")
    assert main(["refit", bad]) == 1


# -- demos -------------------------------------------------------------------------

def test_demo_reset(tmp_path, capsys):
    assert main(["demo-reset", "--shots", "200", "--seed", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["success_rate"] == 1.0   # ideal reset always succeeds

    assert main(["demo-reset", "--shots", "400", "--seed", "1",
                 "--noise", "0,0,0.2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 0.8 < payload["success_rate"] < 1.0


def test_demo_teleport(capsys):
    assert main(["demo-teleport", "--shots", "400", "--seed", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["branches"]) == {"00", "01", "10", "11"}


def test_full_pipeline_byte_identical(tmp_path):
    """run -> histogram -> refit, twice, byte-for-byte."""
    outputs = []
    for tag in ("x", "y"):
        prefix = str(tmp_path / tag)
        main(["rwpe", "--shots", "40", "--seed", "12", "--mode", "fixed",
              "--out-prefix", prefix])
        main(["refit", prefix + ".records.jsonl", "--true-value", "0.5",
              "--out-prefix", prefix])
        outputs.append(tuple(
            open(prefix + ext, "rb").read()
            for ext in (".records.jsonl", ".hist.csv", ".summary.json",
                        ".refit.csv", ".refit.json")))
    assert outputs[0] == outputs[1]


# -- python -m hybridsim ---------------------------------------------------------

def test_module_entry_point_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def hybridsim(*args):
        done = subprocess.run([sys.executable, "-m", "hybridsim", *args],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    assert hybridsim("rwpe", "--shots", "20")["shots"] == 20
    assert hybridsim("refit", "rwpe.records.jsonl")["shots"] == 20
