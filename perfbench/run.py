"""hybridsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.  One
process, one thread, closed loop: the next chunk is submitted only when the
previous one has returned.

--trace 0  sets up SETUP_REPS times, then runs chunks for S seconds, and
           reports the end-to-end metrics at the reference host speed (see
           measure()).  Chunks needed for the accuracy figures that the
           timed phase did not reach are run afterwards, untimed.
--trace 1  sets up with tracing on, runs the accuracy chunks untraced, then
           runs the first chunks once untraced and once with wrappers
           installed on hybridsim's layers, and reports the per-layer
           metrics.  The traced output must equal the untraced output byte
           for byte.  Its work is fixed, so S is not used.

Every run prints a human-readable report (environment, every metric with
its unit, the checks) and, as its last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.  The report is also written
to perfbench/out/, and the traced run's spans to perfbench/out/spans.*.tsv.gz.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TRACED_SETUP_REPS = 3
SETUP_REPS = 9
# reference() loop count, and its time on an unloaded 2-core x86_64 host
# with Python 3.11; REF_SECONDS only fixes the scale of the reported times.
REF_LOOPS = 10_000
REF_SECONDS = 1.5e-3

END_TO_END_UNITS = {"setup_s": "s", "shots_per_s": "shots/s",
                    "chunk_ms_p50": "ms", "chunk_ms_p90": "ms",
                    "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run.  `.calls` are per traced shot, and
# `.self_ns` / `.self_us` the mean self time per call.
PER_LAYER_UNITS = {
    "algorithms.build_ms": "ms", "hir.emit_ms": "ms", "hir.parse_ms": "ms",
    "lowering.lower_ms": "ms", "lowering.instrs_out": "count",
    "profiles.validate_ms": "ms", "profiles.diagnostics": "count",
    "sim.compile_ms": "ms",
    "sim.run_shots.calls": "1/shot", "sim.run_shots.self_us_per_shot": "us",
    **{f"sim.kernel.{op}.{k}": u for op in (
        "h", "x", "sx", "rz", "crz", "eswap", "cnot", "pauli", "measure",
        "reset") for k, u in (("calls", "1/shot"), ("self_ns", "ns"))},
    "sim.measure.calls": "1/shot", "sim.measure.self_ns": "ns",
    **{f"fixedpoint.{op}.{k}": u for op in (
        "mul_raw", "add_raw", "sub_raw", "recip_raw", "div_raw", "to_radians",
        "wrap_raw") for k, u in (("calls", "1/shot"), ("self_ns", "ns"))},
    "fixedpoint.recip_raw.wrap_ratio": "ratio",
    "sim.apply_noise.calls": "1/shot", "sim.apply_noise.self_us": "us",
    "sim.noise.paulis_fired": "1/shot",
    "sim.write_records.us_per_record": "us",
    "sim.jsonl_bytes_per_record": "B",
    "sim.read_records.us_per_record": "us",
    "bayes.posterior.calls": "1/shot", "bayes.posterior.self_us": "us",
    "bayes.evidence_from_record.self_us": "us",
    "bayes.log_factor_evals": "1/shot",
    "cli.histogram_ms": "ms", "trace.overhead_ratio": "ratio",
    "peak_err": "1", "pr0_max_z": "sigma", "refit_err_real": "1",
    "refit_err_fixed": "1", "refit_mse_ratio": "ratio",
}
# Accuracy figures; each workload computes its own and reports 0 for the rest.
ACCURACY = ("peak_err", "pr0_max_z", "refit_err_real", "refit_err_fixed",
            "refit_mse_ratio")


def import_package():
    src = ROOT / "src"
    if not (src / "hybridsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {src / 'hybridsim'}; "
                 "run from the root of a hybridsim checkout")
    sys.path.insert(0, str(src))
    import hybridsim
    if Path(hybridsim.__file__).resolve().parent != (src / "hybridsim").resolve():
        sys.exit(f"perfbench: imported {hybridsim.__file__}, not the checkout's")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "hybridsim").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def run_chunk(w, j: int, span):
    """(seconds, result or None, problems) of chunk j; the check runs after
    the clock stops."""
    t0 = time.perf_counter()
    try:
        result = w.chunk(j, span)
    except Exception as e:  # a failing chunk is counted, not fatal
        return time.perf_counter() - t0, None, [
            f"raised {traceback.format_exception_only(e)[-1].strip()}"]
    dur = time.perf_counter() - t0
    try:
        problems = w.check(j, result)
    except Exception as e:
        problems = [f"check raised {traceback.format_exception_only(e)[-1].strip()}"]
    w.collect(j, result)
    return dur, result, problems


class Tally:
    """Attempted and failed operations: chunks, then whole-run checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def finish(w, tally: Tally) -> dict:
    accuracy, checks = w.finish()
    for name, problem in checks:
        tally.add(name, [problem] if problem else [])
    return accuracy


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1]


def reference() -> int:
    """Interpreter-bound work that never touches hybridsim: integer and
    complex arithmetic, a dict store and a loop, like the interpreter's
    inner loops.  Its time says how fast the host runs Python just then."""
    acc, z, table = 0, 1 + 0j, {}
    for i in range(REF_LOOPS):
        acc = (acc + i * i) % 1000003
        table[i & 255] = acc
        z *= 0.6 + 0.8j
    return acc


def host_slowdown() -> float:
    """Time of one reference() run over REF_SECONDS."""
    t0 = time.perf_counter()
    reference()
    return (time.perf_counter() - t0) / REF_SECONDS


def measure(w, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The untraced run: set-ups, the timed closed loop, accuracy.

    On a shared host, other tenants slow a process by up to 2x for seconds
    to minutes at a time without descheduling it, so raw times spread by
    25-80% between runs.  Each set-up and chunk is therefore preceded by a
    reference() run, and its time is divided by the slowdown that run
    measured: the reported times are at the reference host speed.  The
    report keeps the raw figures too."""
    from spans import no_span
    setups, raw_setups = [], []
    for _ in range(SETUP_REPS):
        slowdown = host_slowdown()
        t0 = time.perf_counter()
        w.setup(no_span)
        raw_setups.append(time.perf_counter() - t0)
        setups.append(raw_setups[-1] / slowdown)
    durations, raw, slowdowns, shots = [], [], [], 0
    j = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        slowdowns.append(host_slowdown())
        dur, _, problems = run_chunk(w, j, no_span)
        tally.add(f"chunk {j}", problems)
        raw.append(dur * 1e3)
        durations.append(raw[-1] / slowdowns[-1])
        shots += 0 if problems else w.chunk_shots
        j += 1
    timed_chunks = j
    for j in range(timed_chunks, w.accuracy_chunks):
        _, _, problems = run_chunk(w, j, no_span)
        tally.add(f"chunk {j} (untimed)", problems)
    accuracy = finish(w, tally)

    metrics = {
        "setup_s": statistics.median(setups),
        "shots_per_s": shots / (sum(durations) / 1e3),
        "chunk_ms_p50": statistics.median(durations),
        "chunk_ms_p90": p90(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
    }
    info = {"timed_chunks": timed_chunks, "chunk_shots": w.chunk_shots,
            "setup_reps": SETUP_REPS,
            "host_slowdown_p50": statistics.median(slowdowns),
            "raw_setup_s": statistics.median(raw_setups),
            "raw_shots_per_s": shots / (sum(raw) / 1e3),
            "raw_chunk_ms_p50": statistics.median(raw),
            "raw_chunk_ms_p90": p90(raw),
            "fail_ratio": tally.failed / tally.attempted,
            "raw_chunk_ms_all": raw, "host_slowdown_all": slowdowns}
    return metrics, dict(info, accuracy=accuracy)


def trace(w, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """The traced run: per-layer metrics and the tracing overhead."""
    import workloads
    from hybridsim import sim
    from spans import Tracer, no_span
    tracer = Tracer()
    # Set-up is traced at the call sites and in compile only, so that the
    # warm-up chunk adds no per-shot spans.
    tracer.install([(sim, "compile_program", "sim.compile", None)])
    try:
        for _ in range(TRACED_SETUP_REPS):
            w.setup(tracer.span)
    finally:
        tracer.uninstall()

    for j in range(w.accuracy_chunks):
        _, _, problems = run_chunk(w, j, no_span)
        tally.add(f"chunk {j}", problems)
    accuracy = finish(w, tally)

    # Each traced chunk runs right after an untraced run of the same chunk:
    # the pair gives the overhead and the bytes to compare.
    hooks = workloads.hooks(tracer)
    tracer.calibrate()
    n = w.trace_chunks
    untraced_s = traced_s = 0.0
    jsonl_bytes = 0
    for j in range(n):
        dur, result, problems = run_chunk(w, j, no_span)
        untraced_s += dur
        reference = None if result is None else w.fingerprint(result)
        tracer.run_id = j
        tracer.install(hooks)
        try:
            t0 = time.perf_counter()
            with tracer.span("benchmark.chunk"):
                result = w.chunk(j, tracer.span)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
            tracer.run_id = -1
        problems += w.check(j, result)
        if w.fingerprint(result) != reference:
            problems.append("traced output differs from the untraced output")
        tally.add(f"traced chunk {j}", problems)
        jsonl_bytes += w.jsonl_bytes(j, result)

    shots = n * w.chunk_shots
    metrics = layer_metrics(tracer, w, shots)
    metrics["sim.jsonl_bytes_per_record"] = jsonl_bytes / shots \
        if jsonl_bytes else 0.0
    metrics["trace.overhead_ratio"] = untraced_s / traced_s
    metrics.update({name: accuracy.get(name, 0.0) for name in ACCURACY})
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path)
    info = {"traced_chunks": n, "traced_shots": shots,
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "child_cost_ns": tracer.child_cost_ns,
            "missing_hooks": tracer.missing,
            "fail_ratio": tally.failed / tally.attempted}
    return metrics, info


def layer_metrics(tracer, w, shots: int) -> dict:
    """Per-layer metrics from the spans; `.calls` are per traced shot and
    `.self_*` are mean self time per call."""
    import workloads

    def median_ms(name):
        _, _, durs = tracer.stats(name, traced_runs_only=False)
        return float(statistics.median(durs)) / 1e6 if len(durs) else 0.0

    def traced(name):
        """(calls per shot, self ns per call, duration ns per shot)"""
        calls, self_ns, durs = tracer.stats(name, traced_runs_only=True)
        return (calls / shots, self_ns / calls if calls else 0.0,
                float(durs.sum()) / shots)

    m = {
        "algorithms.build_ms": median_ms("algorithms.build"),
        "hir.emit_ms": median_ms("hir.emit"),
        "hir.parse_ms": median_ms("hir.parse"),
        "lowering.lower_ms": median_ms("lowering.lower"),
        "lowering.instrs_out": w.instrs_out() if hasattr(w, "instrs_out") else 0.0,
        "profiles.validate_ms": median_ms("profiles.validate"),
        "profiles.diagnostics": len(getattr(w, "diagnostics", ())),
        "sim.compile_ms": median_ms("sim.compile"),
        "cli.histogram_ms": median_ms("cli.histogram"),
    }
    calls, self_ns, _ = traced("sim.run_shots")
    m["sim.run_shots.calls"] = calls
    m["sim.run_shots.self_us_per_shot"] = calls * self_ns / 1e3
    for prefix, ops in (("sim.kernel", workloads.KERNEL_OPS), ("sim", ("measure",)),
                        ("fixedpoint", workloads.FIXEDPOINT_OPS)):
        for op in ops:
            calls, self_ns, _ = traced(f"{prefix}.{op}")
            m[f"{prefix}.{op}.calls"] = calls
            m[f"{prefix}.{op}.self_ns"] = self_ns
    recips = m["fixedpoint.recip_raw.calls"] * shots
    wrapped = tracer.counts.get("fixedpoint.recip_raw.wrapped", 0)
    m["fixedpoint.recip_raw.wrap_ratio"] = wrapped / recips if recips else 0.0
    calls, self_ns, _ = traced("sim.apply_noise")
    m["sim.apply_noise.calls"] = calls
    m["sim.apply_noise.self_us"] = self_ns / 1e3
    m["sim.noise.paulis_fired"] = \
        tracer.calls_under("sim.kernel.pauli", "sim.apply_noise") / shots
    m["sim.write_records.us_per_record"] = traced("sim.write_records")[2] / 1e3
    m["sim.read_records.us_per_record"] = traced("sim.read_records")[2] / 1e3
    calls, self_ns, _ = traced("bayes.posterior")
    m["bayes.posterior.calls"] = calls
    m["bayes.posterior.self_us"] = self_ns / 1e3
    m["bayes.evidence_from_record.self_us"] = \
        traced("bayes.evidence_from_record")[1] / 1e3
    m["bayes.log_factor_evals"] = \
        tracer.counts.get("bayes.log_factor_evals", 0) / shots
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    env = environment(args)
    w = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        metrics, info = trace(w, tally, OUT / f"spans.{args.workload}.tsv.gz")
        units = PER_LAYER_UNITS
    else:
        metrics, info = measure(w, args.seconds, tally)
        units = END_TO_END_UNITS

    report = {"env": env, "info": info, "metrics": metrics,
              "correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "problems": tally.problems}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print("env " + json.dumps(env))
    print("info " + json.dumps({k: v for k, v in info.items()
                                if not k.endswith("_all")}))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units.get(name, '')}".rstrip())
    for problem in tally.problems:
        print(f"problem {problem}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
