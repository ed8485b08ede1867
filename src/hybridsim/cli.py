"""Command-line front end.

Subcommands: run, rwpe, validate, lower, refit, demo-reset, demo-teleport.
Shared flags: --shots, --seed, --mode {real|fixed}, --noise [p1,p2,pr],
--bins, --out.  HYBRIDSIM_STEP_LIMIT overrides the per-shot instruction
budget.  Exit codes: 0 success, 1 parse/validate/input failure, 2 runtime
failure inside a shot.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from . import algorithms, bayes, hir, lowering, sim
from .errors import HybridSimError, ShotError
from .hist import histogram
from .profiles import PROFILES, validate


def _step_limit() -> int:
    env = os.environ.get("HYBRIDSIM_STEP_LIMIT")
    return int(env) if env else sim.DEFAULT_STEP_LIMIT


def _parse_noise(spec: str | None) -> sim.NoiseModel | None:
    if spec is None:
        return None
    if spec == "default":
        return sim.NoiseModel()
    parts = [float(x) for x in spec.split(",")]
    if len(parts) != 3:
        raise ValueError("--noise takes p1,p2,pr")
    return sim.NoiseModel(p_gate1=parts[0], p_gate2=parts[1],
                          p_readout=parts[2])


def _exec_config(args) -> sim.ExecConfig:
    return sim.ExecConfig(
        classical_mode=sim.ClassicalMode(args.mode),
        noise=_parse_noise(args.noise),
        seed=args.seed,
        shots=args.shots,
        step_limit=_step_limit(),
    )


def _add_exec_flags(p: argparse.ArgumentParser, shots: int):
    p.add_argument("--shots", type=int, default=shots)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["real", "fixed"], default="real")
    p.add_argument("--noise", nargs="?", const="default", default=None,
                   metavar="p1,p2,pr",
                   help="enable gate/readout noise (defaults 0.002,0.02,0.02)")


def _load_program(path: str) -> hir.HybridProgram:
    with open(path, "r", encoding="utf-8") as f:
        return hir.parse(f.read())


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _emit_diagnostics(diags):
    for d in diags:
        print(json.dumps(d.to_json(), separators=(",", ":")), file=sys.stderr)


def cmd_run(args) -> int:
    program = _load_program(args.program)
    diags = validate(program, PROFILES["permissive"])
    if diags:
        _emit_diagnostics(diags)
        return 1
    records = sim.run_shots(program, _exec_config(args))
    buf = io.StringIO()
    sim.write_records(records, buf)
    _write_text(args.out, buf.getvalue())
    return 0


def cmd_rwpe(args) -> int:
    params = algorithms.RwpeParams(
        mu0=args.mu0, sigma0=args.sigma0, n_iter=args.iters,
        refresh_period=args.refresh_period, oracle_coeff=args.oracle_coeff)
    records = sim.run_shots(algorithms.build_rwpe(params), _exec_config(args))
    estimates = [algorithms.runtime_estimate(r) for r in records]
    hist = histogram(estimates, args.bins)
    mode_bin = hist.mode_bin()
    summary = {
        "mode_bin_center": hist.bin_center(mode_bin),
        "peak_height": hist.counts[mode_bin],
        "shots": len(records),
    }
    prefix = args.out_prefix
    buf = io.StringIO()
    sim.write_records(records, buf)
    _write_text(f"{prefix}.records.jsonl", buf.getvalue())
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
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as e:
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
    records = sim.run_shots(algorithms.build_active_reset(), _exec_config(args))
    successes = sum(v for r in records for name, v in r.outputs if name == "ok")
    print(json.dumps({"shots": len(records),
                      "success_rate": successes / len(records)}))
    if args.out:
        buf = io.StringIO()
        sim.write_records(records, buf)
        _write_text(args.out, buf.getvalue())
    return 0


def cmd_demo_teleport(args) -> int:
    records = sim.run_shots(algorithms.build_teleport(), _exec_config(args))
    branch_counts: dict[str, int] = {}
    for r in records:
        key = "".join(str(v) for _, v in r.outputs)
        branch_counts[key] = branch_counts.get(key, 0) + 1
    print(json.dumps({"shots": len(records),
                      "branches": dict(sorted(branch_counts.items()))}))
    if args.out:
        buf = io.StringIO()
        sim.write_records(records, buf)
        _write_text(args.out, buf.getvalue())
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
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--mu0", type=float, default=0.7951)
    p.add_argument("--sigma0", type=float, default=0.6065)
    p.add_argument("--iters", type=int, default=24)
    p.add_argument("--refresh-period", type=int, default=2)
    p.add_argument("--oracle-coeff", type=float, default=-0.5)
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


if __name__ == "__main__":
    sys.exit(main())
