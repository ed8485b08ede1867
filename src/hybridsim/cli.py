"""Command-line front end.

Subcommands: run, rwpe, validate, lower, refit, demo-reset, demo-teleport.
Shared flags: --shots, --seed, --mode {real|fixed}, --noise [p1,p2,pr],
--bins, --out.  HYBRIDSIM_STEP_LIMIT overrides the per-shot instruction
budget.  Exit codes: 0 success, 1 parse/validate/input failure, 2 runtime
failure inside a shot, or a command line argparse rejects (such as
`--bins 0`), before any shot runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import IO, Iterator

from . import algorithms, bayes, hir, lowering, sim
from .errors import HybridSimError, ShotError
from .hist import histogram
from .profiles import PROFILES, validate


def _step_limit() -> int:
    env = os.environ.get("HYBRIDSIM_STEP_LIMIT")
    if not env:
        return sim.DEFAULT_STEP_LIMIT
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(f"HYBRIDSIM_STEP_LIMIT={env!r} is not a positive integer")
    return limit


def _parse_noise(spec: str | None) -> sim.NoiseModel | None:
    if spec is None:
        return None
    if spec == "default":
        return sim.NoiseModel()
    try:
        p1, p2, pr = (float(x) for x in spec.split(","))
    except ValueError:
        raise ValueError(f"--noise takes p1,p2,pr, not {spec!r}") from None
    return sim.NoiseModel(p_gate1=p1, p_gate2=p2, p_readout=pr)


def _bin_count(text: str) -> int:
    """A histogram's bin count, checked when the arguments are parsed,
    before any shot runs or any file is written."""
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return count


def _exec_config(args) -> sim.ExecConfig:
    return sim.ExecConfig(
        classical_mode=sim.ClassicalMode(args.mode),
        noise=_parse_noise(args.noise),
        seed=args.seed,
        shots=args.shots,
        step_limit=_step_limit(),
    )


def _add_exec_flags(p: argparse.ArgumentParser, shots: int):
    noise = sim.NoiseModel()
    p.add_argument("--shots", type=int, default=shots)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["real", "fixed"], default="real")
    p.add_argument("--noise", nargs="?", const="default", default=None,
                   metavar="p1,p2,pr",
                   help="enable gate/readout noise (defaults "
                        f"{noise.p_gate1},{noise.p_gate2},{noise.p_readout})")


def _load_program(path: str) -> hir.HybridProgram:
    with open(path, "r", encoding="utf-8") as f:
        return hir.parse(f.read())


@contextlib.contextmanager
def _output(path: str | None):
    """The file at `path`, or stdout for `-` or no path.  Opening a path
    empties its file, so check the arguments (`_exec_config`) first."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            yield f


def _write_text(path: str | None, text: str):
    with _output(path) as f:
        f.write(text)


def _emit_diagnostics(diags):
    for d in diags:
        print(json.dumps(d.to_json(), separators=(",", ":")), file=sys.stderr)


# Shot indices a command runs, writes and drops at a time, so that its
# memory stays flat however many shots it runs.
RUN_SLICE = 1000


def _run_sliced(program: hir.HybridProgram, cfg: sim.ExecConfig,
                out: IO[str] | None) -> Iterator[sim.ShotRecord]:
    """The records of `cfg`'s shots, run RUN_SLICE shot indices at a time.
    Each slice is written to `out`, if there is one, before its records are
    yielded; the output is byte for byte that of one run."""
    for start in range(0, cfg.shots, RUN_SLICE):
        records = sim.run_shots(
            program, cfg, range(start, min(start + RUN_SLICE, cfg.shots)))
        if out is not None:
            sim.write_records(records, out)
        yield from records


def _records_output(path: str | None):
    """The demos' records file: none without `--out`, stdout for `-`."""
    return _output(path) if path else contextlib.nullcontext()


def cmd_run(args) -> int:
    program = _load_program(args.program)
    diags = validate(program, PROFILES["permissive"])
    if diags:
        _emit_diagnostics(diags)
        return 1
    cfg = _exec_config(args)
    with _output(args.out) as f:
        for _ in _run_sliced(program, cfg, f):
            pass
    return 0


def cmd_rwpe(args) -> int:
    params = algorithms.RwpeParams(
        mu0=args.mu0, sigma0=args.sigma0, n_iter=args.iters,
        refresh_period=args.refresh_period, oracle_coeff=args.oracle_coeff)
    program = algorithms.build_rwpe(params)
    cfg = _exec_config(args)
    prefix = args.out_prefix
    with _output(f"{prefix}.records.jsonl") as f:
        estimates = [algorithms.runtime_estimate(r)
                     for r in _run_sliced(program, cfg, f)]
    hist = histogram(estimates, args.bins)
    mode_bin = hist.mode_bin()
    summary = {
        "mode_bin_center": hist.bin_center(mode_bin),
        "peak_height": hist.counts[mode_bin],
        "shots": len(estimates),
    }
    _write_text(f"{prefix}.hist.csv", hist.to_csv())
    _write_text(f"{prefix}.summary.json",
                json.dumps(summary, separators=(",", ":")) + "\n")
    print(json.dumps(summary, separators=(",", ":")))
    return 0


def cmd_validate(args) -> int:
    diags = validate(_load_program(args.program), PROFILES[args.profile])
    for d in diags:
        print(json.dumps(d.to_json(), separators=(",", ":")))
    return 1 if diags else 0


def cmd_lower(args) -> int:
    profile = PROFILES[args.profile]
    lowered = lowering.lower_to_native(_load_program(args.program), profile)
    diags = validate(lowered, profile)
    if diags:
        _emit_diagnostics(diags)
        return 1
    _write_text(args.out, hir.emit(lowered))
    return 0


def cmd_refit(args) -> int:
    try:
        with open(args.records, "r", encoding="utf-8") as f:
            records = sim.read_records(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read records: {e}", file=sys.stderr)
        return 1
    if not records:
        print("error: records file is empty", file=sys.stderr)
        return 1
    raw = None
    if args.true_value is not None:
        try:
            raw = [algorithms.runtime_estimate(r) for r in records]
        except KeyError:
            raw = None
    result = bayes.refit(records, grid_size=args.grid,
                         prior_interval=tuple(args.interval),
                         true_value=args.true_value, raw_estimates=raw)
    payload = {
        "pooled": result.pooled,
        "mean": result.mean,
        "mse": result.mse,
        "raw_mse": result.raw_mse,
        "shots": len(result.per_shot),
    }
    if args.out_prefix:
        csv_lines = ["shot,estimate"]
        csv_lines += [f"{rec.shot},{est!r}"
                      for rec, est in zip(records, result.per_shot)]
        _write_text(f"{args.out_prefix}.refit.csv", "\n".join(csv_lines) + "\n")
        _write_text(f"{args.out_prefix}.refit.json",
                    json.dumps(payload, separators=(",", ":")) + "\n")
    print(json.dumps(payload, separators=(",", ":")))
    return 0


def cmd_demo_reset(args) -> int:
    shots = successes = 0
    cfg = _exec_config(args)
    with _records_output(args.out) as f:
        for r in _run_sliced(algorithms.build_active_reset(), cfg, f):
            shots += 1
            successes += sum(v for name, v in r.outputs if name == "ok")
    print(json.dumps({"shots": shots, "success_rate": successes / shots}))
    return 0


def cmd_demo_teleport(args) -> int:
    branch_counts: dict[str, int] = {}
    cfg = _exec_config(args)
    with _records_output(args.out) as f:
        for r in _run_sliced(algorithms.build_teleport(), cfg, f):
            key = "".join(str(v) for _, v in r.outputs)
            branch_counts[key] = branch_counts.get(key, 0) + 1
    print(json.dumps({"shots": sum(branch_counts.values()),
                      "branches": dict(sorted(branch_counts.items()))}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridsim",
        description="Simulate and compile hybrid quantum-classical programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a program file, emit shot records")
    p.add_argument("program")
    _add_exec_flags(p, shots=100)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("rwpe", help="run the random-walk estimator")
    _add_exec_flags(p, shots=10000)
    walk = algorithms.RwpeParams()
    p.add_argument("--bins", type=_bin_count, default=100)
    p.add_argument("--mu0", type=float, default=walk.mu0)
    p.add_argument("--sigma0", type=float, default=walk.sigma0)
    p.add_argument("--iters", type=int, default=walk.n_iter)
    p.add_argument("--refresh-period", type=int, default=walk.refresh_period)
    p.add_argument("--oracle-coeff", type=float, default=walk.oracle_coeff)
    p.add_argument("--out-prefix", default="rwpe")
    p.set_defaults(fn=cmd_rwpe)

    p = sub.add_parser("validate", help="check a program against a profile")
    p.add_argument("program")
    p.add_argument("--profile", choices=sorted(PROFILES), default="native")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("lower", help="lower a program to a profile's gate set")
    p.add_argument("program")
    p.add_argument("--profile", choices=sorted(PROFILES), default="native")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lower)

    p = sub.add_parser("refit", help="re-estimate phases from shot records")
    p.add_argument("records")
    p.add_argument("--grid", type=int, default=2001)
    p.add_argument("--interval", type=float, nargs=2, default=(-1.0, 1.0))
    p.add_argument("--true-value", type=float, default=None)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(fn=cmd_refit)

    p = sub.add_parser("demo-reset", help="run the active-reset protocol")
    _add_exec_flags(p, shots=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_demo_reset)

    p = sub.add_parser("demo-teleport", help="run the teleportation program")
    _add_exec_flags(p, shots=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_demo_teleport)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ShotError as e:          # a failure inside a shot
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, HybridSimError) as e:
        # bad parameters, unreadable or invalid input files
        print(f"error: {e}", file=sys.stderr)
        return 1
