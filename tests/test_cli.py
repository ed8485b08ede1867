"""Command-line pipeline: files, exit codes, determinism."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import oracles
import pytest

from hybridsim import cli, hir, sim
from hybridsim.algorithms import (RwpeParams, build_active_reset,
                                  build_rwpe, build_teleport)
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


def test_histogram_needs_a_bin():
    with pytest.raises(ValueError, match="bin_count must be >= 1"):
        histogram([0.5], bin_count=0)


@pytest.mark.parametrize("interval", [(2.0, -2.0), (1.0, 1.0),
                                      (0.0, math.inf), (-math.inf, 0.0),
                                      (math.nan, 1.0), (-1e308, 1e308)],
                         ids=["reversed", "empty", "inf-hi", "inf-lo", "nan",
                              "inf-width"])
def test_histogram_rejects_an_interval_it_cannot_bin(interval):
    with pytest.raises(ValueError, match="interval needs lo < hi and a "
                                         "finite width"):
        histogram([0.1, 0.5, 0.7], interval=interval)


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


@pytest.mark.parametrize("out", [None, "-"])
def test_run_streams_records_to_stdout(tmp_path, capsys, out):
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    path = str(tmp_path / "records.jsonl")
    main(["run", prog, "--shots", "30", "--seed", "3", "--out", path])
    assert main(["run", prog, "--shots", "30", "--seed", "3"]
                + (["--out", out] if out else [])) == 0
    assert capsys.readouterr().out == open(path, encoding="utf-8").read()


@pytest.mark.parametrize("argv", [
    ["run", "PROG", "--shots", "2", "--out"], ["rwpe", "--shots", "2",
                                               "--out-prefix"],
    ["demo-reset", "--shots", "2", "--out"],
    ["demo-teleport", "--shots", "2", "--out"]], ids=lambda a: a[0])
def test_unwritable_records_path_exits_1(tmp_path, capsys, argv):
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    argv = [prog if a == "PROG" else a for a in argv]
    assert main(argv + [str(tmp_path / "absent" / "r")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags, step_limit", [
    (["--shots", "0"], None), (["--noise", "2,0,0"], None), ([], "abc")],
    ids=["shots-0", "noise-2", "step-limit-abc"])
@pytest.mark.parametrize("command", ["run", "demo-reset", "demo-teleport"])
def test_a_configuration_error_keeps_the_records_file(
        tmp_path, capsys, monkeypatch, command, flags, step_limit):
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    out = tmp_path / "records.jsonl"
    out.write_bytes(b"earlier records\n")
    if step_limit is not None:
        monkeypatch.setenv("HYBRIDSIM_STEP_LIMIT", step_limit)
    argv = [command] + ([prog] if command == "run" else [])
    assert main(argv + flags + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"earlier records\n"


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


@pytest.mark.parametrize("spec", ["0.1,0.2", "0.1,0.2,0.3,0.4", "abc",
                                  "0.1,abc,0.3", "0.1,0.2,"])
def test_noise_needs_three_numbers(tmp_path, capsys, spec):
    """A spec that is not three numbers gets one message, which names the
    flag and quotes the spec (not float()'s, which names neither)."""
    prog = _write(tmp_path, "teleport.hir", TELEPORT)
    assert main(["run", prog, "--noise", spec]) == 1
    assert capsys.readouterr().err == \
        f"error: --noise takes p1,p2,pr, not {spec!r}\n"


def test_run_step_limit_env(tmp_path, capsys, monkeypatch):
    prog = _write(tmp_path, "loop.hir",
                  "proc main qubits 0\nloop:\n  br loop\nendproc\n")
    monkeypatch.setenv("HYBRIDSIM_STEP_LIMIT", "500")
    assert main(["run", prog, "--shots", "1"]) == 2
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", " "])
def test_run_rejects_a_step_limit_that_is_not_a_positive_integer(
        tmp_path, capsys, monkeypatch, value):
    prog = _write(tmp_path, "loop.hir",
                  "proc main qubits 0\nloop:\n  br loop\nendproc\n")
    monkeypatch.setenv("HYBRIDSIM_STEP_LIMIT", value)
    assert main(["run", prog, "--shots", "1"]) == 1
    assert capsys.readouterr().err == \
        f"error: HYBRIDSIM_STEP_LIMIT={value!r} is not a positive integer\n"


def test_run_real_overflow_exits_2(tmp_path, capsys):
    # 1/0.0001 squared seven times overflows to inf; the angle then has no
    # finite radians inside the shot, which is exit 2 with the shot, block
    # and line.
    prog = _write(tmp_path, "overflow.hir",
                  "proc main qubits 1\n  var fixed a = 0.0001\n"
                  "  var fixed b = 0.0\nentry:\n  recip b, a\n"
                  + "  mul b, b, b\n" * 7 + "  rz(b) q0\n  ret b\nendproc\n")
    assert main(["run", prog, "--shots", "1",
                 "--out", str(tmp_path / "r.jsonl")]) == 2
    assert "shot 0, block entry, line 13: angle has no finite radians" in \
        capsys.readouterr().err


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


def test_rwpe_defaults_are_the_walks():
    args = cli.build_parser().parse_args(["rwpe"])
    assert (args.mu0, args.sigma0, args.iters, args.refresh_period,
            args.oracle_coeff) == dataclasses.astuple(RwpeParams())


def test_rwpe_bad_params_exit_1(tmp_path, capsys):
    assert main(["rwpe", "--shots", "1", "--sigma0", "3.0",
                 "--out-prefix", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["rwpe", "--shots", "1", "--sigma0", "-0.5",
                 "--out-prefix", str(tmp_path / "x")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flag", ["--iters", "--refresh-period"])
def test_rwpe_range_error_names_the_parameter_and_keeps_the_records_file(
        tmp_path, capsys, flag):
    # 131072 is one past the largest int18 word, which both parameters are
    # in the program.
    prefix = tmp_path / "walk"
    out = tmp_path / "walk.records.jsonl"
    out.write_bytes(b"earlier records\n")
    assert main(["rwpe", "--shots", "1", "--mode", "fixed", flag, "131072",
                 "--out-prefix", str(prefix)]) == 1
    name = {"--iters": "n_iter", "--refresh-period": "refresh_period"}[flag]
    assert capsys.readouterr().err == \
        f"error: {name}=131072 is outside the 18-bit signed range\n"
    assert out.read_bytes() == b"earlier records\n"


@pytest.mark.parametrize("bins", ["0", "-3", "two"])
def test_rwpe_rejects_bins_below_one_before_running(tmp_path, capsys, bins):
    prefix = str(tmp_path / "walk")
    with pytest.raises(SystemExit) as exited:
        main(["rwpe", "--shots", "5", "--bins", bins, "--out-prefix", prefix])
    assert exited.value.code == 2
    assert f"argument --bins: {bins!r} is not an integer >= 1" in \
        capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rwpe_bins_sets_the_histogram_bins(tmp_path):
    prefix = str(tmp_path / "walk")
    assert main(["rwpe", "--shots", "3", "--bins", "7",
                 "--out-prefix", prefix]) == 0
    assert len(open(prefix + ".hist.csv").read().splitlines()) == 1 + 7


def test_rwpe_single_shot_single_bin(tmp_path):
    prefix = str(tmp_path / "one")
    assert main(["rwpe", "--shots", "1", "--seed", "4",
                 "--out-prefix", prefix]) == 0
    rows = [l.split(",") for l in
            open(prefix + ".hist.csv").read().splitlines()[1:]]
    nonzero = [r for r in rows if int(r[2]) > 0]
    assert len(nonzero) == 1


def test_rwpe_slices_match_one_run(tmp_path, monkeypatch):
    # `rwpe` runs and writes slices of RUN_SLICE shot indices; the files of
    # a run in slices of 7 are byte for byte those of one `run_shots` call.
    def files(tag):
        prefix = str(tmp_path / tag)
        assert main(["rwpe", "--shots", "20", "--seed", "8", "--mode", "fixed",
                     "--out-prefix", prefix]) == 0
        return [open(prefix + ext, "rb").read()
                for ext in (".records.jsonl", ".hist.csv", ".summary.json")]

    monkeypatch.setattr(cli, "RUN_SLICE", 7)
    sliced = files("sliced")
    monkeypatch.setattr(cli, "RUN_SLICE", 20)
    assert sliced == files("whole")
    records = sim.run_shots(build_rwpe(), sim.ExecConfig(
        classical_mode=sim.ClassicalMode.FIXED_POINT, seed=8, shots=20))
    buf = io.StringIO()
    sim.write_records(records, buf)
    assert sliced[0] == buf.getvalue().encode()


@pytest.mark.parametrize("command", ["run", "demo-reset", "demo-teleport"])
def test_run_and_demos_slices_match_one_run(tmp_path, capsys, monkeypatch,
                                            command):
    # `run` and the demos share `rwpe`'s sliced run path: records in slices
    # of 7 are byte for byte those of one `run_shots` call, and the summary
    # comes after the records, so with `--out -` it is the last line.
    program = {"run": build_teleport(), "demo-reset": build_active_reset(),
               "demo-teleport": build_teleport()}[command]
    argv = [command] + ([_write(tmp_path, "teleport.hir", TELEPORT)]
                        if command == "run" else [])
    argv += ["--shots", "20", "--seed", "8", "--mode", "fixed", "--noise"]

    def outputs(tag):
        path = str(tmp_path / f"{tag}.jsonl")
        assert main(argv + ["--out", path]) == 0
        return open(path, encoding="utf-8").read(), capsys.readouterr().out

    monkeypatch.setattr(cli, "RUN_SLICE", 7)
    records, summary = outputs("sliced")
    monkeypatch.setattr(cli, "RUN_SLICE", 20)
    assert outputs("whole") == (records, summary)
    buf = io.StringIO()
    sim.write_records(sim.run_shots(program, sim.ExecConfig(
        classical_mode=sim.ClassicalMode.FIXED_POINT, noise=sim.NoiseModel(),
        seed=8, shots=20)), buf)
    assert records == buf.getvalue()
    monkeypatch.setattr(cli, "RUN_SLICE", 7)
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == records + summary


def test_rwpe_shot_error_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYBRIDSIM_STEP_LIMIT", "50")
    assert main(["rwpe", "--shots", "3", "--out-prefix",
                 str(tmp_path / "walk")]) == 2
    assert "error: shot 0, block " in capsys.readouterr().err


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


def test_lower_reports_what_lowering_leaves(tmp_path, capsys):
    # Lowering rewrites the cnot; the out-of-range angle stays.
    prog = _write(tmp_path, "angle.hir", "proc main qubits 2\nentry:\n"
                  "  cnot q0, q1\n  rz(3.5) q0\n  ret\nendproc\n")
    lowered = tmp_path / "lowered.hir"
    assert main(["lower", prog, "--out", str(lowered)]) == 1
    captured = capsys.readouterr()
    diags = [json.loads(line) for line in captured.err.splitlines()]
    assert [(d["code"], d["location"]["line"]) for d in diags] == \
        [("literal-out-of-range", 4)]
    assert captured.out == ""
    assert not lowered.exists()


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


def test_refit_true_value_without_runtime_estimates(tmp_path, capsys):
    # Records without a `mu` output give no run-time estimates: mse alone.
    records = _write(tmp_path, "plain.jsonl",
                     '{"shot":0,"seed":0,"outputs":[],"evidence":'
                     '[{"t":1.0,"phi_inv":0.25,"d":0}]}\n')
    assert main(["refit", records, "--true-value", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mse"] is not None
    assert payload["raw_mse"] is None


def test_refit_reads_an_int18_mu_as_the_runtime_estimate(tmp_path, capsys):
    # In fixed mode an int18 `mu` output is a box; the run-time estimate
    # reads it with float(), as it reads a Q2.16 box.
    prog = _write(tmp_path, "int_mu.hir", """proc main qubits 1
  var int18 mu = 1
  var fixed t = 1.0
  var fixed phi_inv = 0.25
  var bit d = 0
entry:
  h q0
  mz q0 -> d record(t, phi_inv)
  output mu
  ret
endproc
""")
    records = str(tmp_path / "int_mu.jsonl")
    assert main(["run", prog, "--shots", "4", "--mode", "fixed",
                 "--out", records]) == 0
    assert '"outputs":[["mu",{"raw":1}]]' in open(records).read()
    assert main(["refit", records, "--true-value", "0.5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["raw_mse"] == (2.0 - 0.5) ** 2


def _largest_time(path: str) -> float:
    with open(path, encoding="utf-8") as f:
        return oracles.largest_time(sim.read_records(f))


def test_refit_rejects_grid_too_coarse_for_recorded_times(tmp_path, capsys):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "5", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    records = prefix + ".records.jsonl"
    t = _largest_time(records)
    need = oracles.grid_nodes(t, 2.0)
    assert main(["refit", records, "--grid", str(need)]) == 0
    capsys.readouterr()
    assert main(["refit", records, "--grid", str(need - 1)]) == 1
    err = capsys.readouterr().err
    assert f"shot 0: |t| = {t:.6g} needs a grid of at least {need} nodes" in err


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


@pytest.mark.parametrize("hi, message", [
    ("inf", "prior interval needs finite ends and width in radians, got "
     "(0.0, inf)"),
    ("1e308", "prior interval needs finite ends and width in radians, got "
     "(0.0, 1e+308)"),
    ("1e307", "shot 0: |t| = {t:.6g} needs a grid of at least inf nodes"),
], ids=["infinite", "radians-overflow", "grid-size-overflows"])
def test_refit_rejects_a_prior_interval_it_cannot_grid(tmp_path, capsys, hi,
                                                       message):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "3", "--seed", "9", "--out-prefix", prefix])
    capsys.readouterr()
    code = main(["refit", prefix + ".records.jsonl", "--interval", "0", hi])
    assert code == 1
    captured = capsys.readouterr()
    message = message.format(t=_largest_time(prefix + ".records.jsonl"))
    assert captured.err.startswith(f"error: {message}")
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


def _records_with_second_line(tmp_path, edit, mode="fixed"):
    prefix = str(tmp_path / "walk")
    main(["rwpe", "--shots", "3", "--seed", "9", "--mode", mode,
          "--out-prefix", prefix])
    lines = open(prefix + ".records.jsonl").read().splitlines(True)
    if isinstance(edit, str):       # the whole line
        lines[1] = edit + "\n"
    else:
        obj = json.loads(lines[1])
        edit(obj)
        lines[1] = json.dumps(obj, separators=(",", ":")) + "\n"
    return _write(tmp_path, "bad.jsonl", "".join(lines))


@pytest.mark.parametrize("edit, message", [
    (lambda obj: obj.pop("evidence"), "missing field 'evidence'"),
    (lambda obj: obj["evidence"][0]["t"].update(raw=999999),
     "raw word 999999 is not an 18-bit value"),
    (lambda obj: obj["evidence"][0]["t"].update(raw=2.9),
     "raw word 2.9 is not an int"),
    (lambda obj: obj["evidence"][0]["t"].update(raw=[1]),
     "raw word [1] is not an int"),
    (lambda obj: obj.update(shot=float("inf")), "shot inf is not an int"),
    (lambda obj: obj.update(shot=2.9), "shot 2.9 is not an int"),
    (lambda obj: obj.update(seed=True), "seed True is not an int"),
    (lambda obj: obj["evidence"][0].update(d=2), "evidence bit 2 is not 0 or 1"),
    (lambda obj: obj["evidence"][0].update(d=1.7),
     "evidence bit 1.7 is not 0 or 1"),
    (lambda obj: obj["evidence"][0].update(d=True),
     "evidence bit True is not 0 or 1"),
    (lambda obj: obj["evidence"][0].update(t="1.5"),
     "value '1.5' is not a number or a box"),
    (lambda obj: obj["evidence"][0].update(phi_inv=True),
     "value True is not a number or a box"),
    (lambda obj: obj["evidence"][0].update(t=None),
     "value None is not a number or a box"),
    (lambda obj: obj["outputs"][0].__setitem__(1, [0.5]),
     "value [0.5] is not a number or a box"),
    (lambda obj: obj["evidence"][0].update(t={"raw": 65536, "value": -3.5}),
     "box value -3.5 is not raw word 65536 / 2**16"),
    (lambda obj: obj["outputs"][0].__setitem__(1, {"raw": 5, "junk": 1}),
     "box {'raw': 5, 'junk': 1} does not hold raw (int18) or raw and value "
     "(Q2.16) alone"),
    (lambda obj: obj["evidence"][0].update(t={"raw": 5}),
     "evidence value {'raw': 5} is an int18 box"),
    (lambda obj: obj["outputs"].__setitem__(0, [1, 2]),
     "output [1, 2] is not a [name, value] pair"),
    (lambda obj: obj.update(outputs={"mu": 2.0}),
     "outputs {'mu': 2.0} is not a list"),
    ("[1,2]", "record [1, 2] is not an object"),
    ('{"shot":0,"seed":0,"outputs":[],"evidence":[[1.0,2.0,0]]}',
     "evidence entry [1.0, 2.0, 0] is not an object"),
    (lambda obj: obj.update(evidence={"t": 1.0}),
     "evidence {'t': 1.0} is not a list"),
    (lambda obj: obj.update(evidence=5), "evidence 5 is not a list"),
], ids=["missing-field", "raw-word-out-of-range", "raw-word-not-int",
        "raw-word-a-list", "infinite-shot", "shot-float", "seed-bool", "bit-two", "bit-float",
        "bit-bool", "value-string", "value-bool", "value-null", "value-list",
        "box-bad-value", "box-extra-key", "int18-evidence",
        "output-name-not-string", "outputs-not-a-list", "record-not-an-object",
        "evidence-entry-not-an-object", "evidence-an-object",
        "evidence-a-number"])
def test_refit_names_the_bad_line(tmp_path, capsys, edit, message):
    bad = _records_with_second_line(tmp_path, edit)
    capsys.readouterr()
    assert main(["refit", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read records: line 2: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("field, value", [
    ("t", float("inf")), ("t", float("nan")), ("phi_inv", float("nan")),
], ids=["t-inf", "t-nan", "phi_inv-nan"])
def test_refit_rejects_non_finite_evidence(tmp_path, capsys, field, value):
    bad = _records_with_second_line(
        tmp_path, lambda obj: obj["evidence"][3].update({field: value}),
        mode="real")
    capsys.readouterr()
    assert main(["refit", bad]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: shot 1: evidence entry 3 is not finite\n"
    assert captured.out == ""


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
