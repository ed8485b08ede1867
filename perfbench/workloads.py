"""The benchmark's workloads.

Each workload is a closed loop over chunks: `chunk(j, span)` submits one
fixed slice of shot indices (or, for refit, of recorded shots) through the
same public calls a `hybridsim` user makes and returns when the result is
complete.  Everything a workload needs is generated from the workload seed
in `__init__`, which is neither timed nor part of set-up.

Interface used by run.py:

- `setup(span)`: build and load the program(s) and run one warm-up chunk;
  timed as `setup_s`, and repeatable.
- `chunk(j, span) -> result`: the timed work of chunk j.
- `check(j, result) -> list[str]`: correctness problems of one chunk.
- `collect(j, result)`: keep what the accuracy figures need.
- `fingerprint(result) -> str`: serialized output, compared byte for byte
  between a re-run, and between the traced and the untraced run.
- `finish() -> (accuracy metrics, list of (check name, problem or None))`:
  whole-run accuracy and checks, after the timed phase.

`span(name)` is a context manager around a call site; it records a span
in the traced run and does nothing otherwise.  Calls that hybridsim makes
internally are traced by the wrappers run.py installs, which is why every
wrapped function is called through its module (`sim.run_shots`, not a
name imported from it).
"""

from __future__ import annotations

import io
import json
import math
import random

from hybridsim import (algorithms, bayes, fixedpoint, hir, histogram,
                       lowering, profiles, sim)
from spans import no_span

PEAK = 0.5          # expected RWPE / refit estimate with the default oracle
BIN = 0.04          # one bin of the default 100-bin histogram over [-2, 2)


def _seed_words(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(n)]


def _jsonl(records) -> str:
    buf = io.StringIO()
    sim.write_records(records, buf)
    return buf.getvalue()


class Rwpe:
    """`hybridsim rwpe` driven one chunk at a time: run_shots, the run-time
    estimates, JSONL records and the histogram."""

    chunk_shots = 25
    accuracy_chunks = 400       # the first 10k shots: the paper's shot count
    trace_chunks = 8
    n_iter = 24

    def __init__(self, seed: int, mode: str, noise: bool):
        (run_seed,) = _seed_words(seed, 1)
        self.cfg = sim.ExecConfig(
            classical_mode=sim.ClassicalMode(mode),
            noise=sim.NoiseModel() if noise else None, seed=run_seed)
        self.estimates: list[float] = []

    def setup(self, span):
        with span("algorithms.build"):
            self.program = algorithms.build_rwpe()
        sim.compile_program(self.program, self.cfg)
        self.warm_fingerprint = self.fingerprint(self.chunk(0, span))

    def chunk(self, j: int, span):
        c = self.chunk_shots
        records = sim.run_shots(self.program, self.cfg, range(j * c, (j + 1) * c))
        estimates = [algorithms.runtime_estimate(r) for r in records]
        buf = io.StringIO()
        with span("sim.write_records"):
            sim.write_records(records, buf)
        with span("cli.histogram"):
            hist = histogram(estimates)
        return records, estimates, buf.getvalue(), hist

    def check(self, j: int, result) -> list[str]:
        records, estimates, text, _ = result
        problems = []
        if len(records) != self.chunk_shots:
            problems.append(f"{len(records)} records for {self.chunk_shots} shots")
        short = [r.shot for r in records if len(r.evidence) != self.n_iter]
        if short:
            problems.append(f"shots {short[:5]} lack {self.n_iter} evidence entries")
        if not all(math.isfinite(e) for e in estimates):
            problems.append("non-finite estimate")
        if sim.read_records(io.StringIO(text)) != records:
            problems.append("JSONL does not read back equal to the records")
        if j == 0 and text != self.warm_fingerprint:
            problems.append("re-run of chunk 0 gave different records")
        return problems

    def collect(self, j: int, result):
        if j < self.accuracy_chunks:
            self.estimates.extend(result[1])

    def fingerprint(self, result) -> str:
        return result[2]

    def jsonl_bytes(self, j: int, result) -> int:
        """Bytes of JSONL the chunk wrote."""
        return len(result[2].encode())

    def finish(self):
        hist = histogram(self.estimates)
        centre = hist.bin_center(hist.mode_bin())
        err = abs(centre - PEAK)
        problem = None
        if err > BIN:
            problem = f"peak at {centre} over {len(self.estimates)} shots"
        return {"peak_err": err}, [("peak_within_one_bin", problem)]


class IpeNative:
    """One phase-estimation step per angle set, taken through emit, parse,
    lowering to NATIVE, validation and compilation, then run for many short
    shots.  Chunk j runs shots of angle set j mod K."""

    angle_sets = 8
    chunk_shots = 400
    rounds = 25                 # 10k shots per angle set for the z-scores
    accuracy_chunks = angle_sets * rounds
    trace_chunks = angle_sets
    z_limit = 5.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.sets = []
        while len(self.sets) < self.angle_sets:
            # Inside the Q2.16 range so the literals validate; P(0) away
            # from 0 and 1 so its binomial sigma is not degenerate.
            coeff = rng.choice([-1, 1]) * rng.uniform(0.2, 1.9)
            phi_inv = rng.uniform(-1.0, 1.0)
            t = rng.uniform(0.2, 1.9)
            p0 = algorithms.analytic_pr0(-coeff / 2.0 * math.pi,
                                         phi_inv * math.pi, t)
            if 0.05 <= p0 <= 0.95:
                self.sets.append((phi_inv, t, coeff, p0,
                                  sim.ExecConfig(seed=rng.getrandbits(32))))
        self.zeros = [0] * self.angle_sets
        self.shots = [0] * self.angle_sets
        self.diagnostics = []

    def setup(self, span):
        self.programs = []
        self.diagnostics = []
        for phi_inv, t, coeff, _, cfg in self.sets:
            with span("algorithms.build"):
                prog = algorithms.build_ipe_program(phi_inv, t, coeff)
            with span("hir.emit"):
                text = hir.emit(prog)
            with span("hir.parse"):
                parsed = hir.parse(text)
            with span("lowering.lower"):
                lowered = lowering.lower_to_native(parsed, profiles.NATIVE)
            with span("profiles.validate"):
                diags = profiles.validate(lowered, profiles.NATIVE)
            self.diagnostics.extend(diags)
            sim.compile_program(lowered, cfg)
            self.programs.append(lowered)
        self.warm_fingerprint = self.fingerprint(self.chunk(0, span))

    def instrs_out(self) -> float:
        """Mean instruction count of the lowered entry procedures."""
        return sum(sum(len(b.instructions) for b in p.entry_procedure().blocks)
                   for p in self.programs) / len(self.programs)

    def chunk(self, j: int, span):
        k, r = j % self.angle_sets, j // self.angle_sets
        c = self.chunk_shots
        records = sim.run_shots(self.programs[k], self.sets[k][4],
                                range(r * c, (r + 1) * c))
        zeros = sum(1 for rec in records if dict(rec.outputs)["d"] == 0)
        return k, records, zeros

    def check(self, j: int, result) -> list[str]:
        _, records, _ = result
        problems = []
        if self.diagnostics:
            problems.append(f"{len(self.diagnostics)} NATIVE diagnostics, "
                            f"first: {self.diagnostics[0].to_json()}")
        if len(records) != self.chunk_shots:
            problems.append(f"{len(records)} records for {self.chunk_shots} shots")
        if any(rec.outputs != (("d", 0),) and rec.outputs != (("d", 1),)
               for rec in records):
            problems.append("a shot did not output exactly one bit d")
        if j == 0 and _jsonl(records) != self.warm_fingerprint:
            problems.append("re-run of chunk 0 gave different records")
        return problems

    def collect(self, j: int, result):
        if j < self.accuracy_chunks:
            k, records, zeros = result
            self.zeros[k] += zeros
            self.shots[k] += len(records)

    def fingerprint(self, result) -> str:
        return _jsonl(result[1])

    def jsonl_bytes(self, j: int, result) -> int:
        return 0                # the pipeline neither writes nor reads JSONL

    def finish(self):
        zs = []
        for (_, _, _, p0, _), zeros, n in zip(self.sets, self.zeros, self.shots):
            sigma = math.sqrt(p0 * (1.0 - p0) / n)
            zs.append(abs(zeros / n - p0) / sigma)
        worst = max(zs)
        problem = None
        if worst > self.z_limit:
            problem = f"P(0) off by {worst:.2f} sigma"
        return {"pr0_max_z": worst}, [("pr0_within_5_sigma", problem)]


class Refit:
    """`hybridsim refit` on records of a real-mode and a fixed-mode RWPE
    run.  Chunk j reads and refits slice j of both record files."""

    file_shots = 300
    slice_shots = 10
    chunk_shots = 2 * slice_shots       # one slice of each file
    slices = file_shots // slice_shots
    accuracy_chunks = 0         # accuracy comes from whole-file refits
    trace_chunks = 6

    def __init__(self, seed: int):
        real_seed, fixed_seed = _seed_words(seed, 2)
        program = algorithms.build_rwpe()
        self.files = {}
        for mode, s in (("real", real_seed), ("fixed", fixed_seed)):
            cfg = sim.ExecConfig(classical_mode=sim.ClassicalMode(mode),
                                 seed=s, shots=self.file_shots)
            lines = _jsonl(sim.run_shots(program, cfg)).splitlines(True)
            c = self.slice_shots
            self.files[mode] = ("".join(lines),
                                ["".join(lines[i:i + c])
                                 for i in range(0, len(lines), c)])

    def setup(self, span):
        self.warm_fingerprint = self.fingerprint(self.chunk(0, span))

    @staticmethod
    def _refit(text: str, span):
        with span("sim.read_records"):
            records = sim.read_records(io.StringIO(text))
        raw = [algorithms.runtime_estimate(r) for r in records]
        return records, bayes.refit(records, true_value=PEAK,
                                    raw_estimates=raw)

    def chunk(self, j: int, span):
        s = j % self.slices
        return {mode: self._refit(slices[s], span)
                for mode, (_, slices) in self.files.items()}

    def check(self, j: int, result) -> list[str]:
        problems = []
        for mode, (records, res) in result.items():
            if len(res.per_shot) != len(records) or \
                    not all(math.isfinite(e) for e in res.per_shot):
                problems.append(f"{mode}: per-shot estimates malformed")
        if j == 0 and self.fingerprint(result) != self.warm_fingerprint:
            problems.append("re-run of chunk 0 gave a different refit")
        return problems

    def collect(self, j: int, result):
        pass

    def jsonl_bytes(self, j: int, result) -> int:
        """Bytes of JSONL the chunk read."""
        s = j % self.slices
        return sum(len(slices[s].encode()) for _, slices in self.files.values())

    def fingerprint(self, result) -> str:
        return json.dumps({mode: [res.per_shot, res.pooled, res.mse, res.raw_mse]
                           for mode, (_, res) in result.items()})

    def finish(self):
        _, real = self._refit(self.files["real"][0], no_span)
        _, fixed = self._refit(self.files["fixed"][0], no_span)
        problem = None
        if abs(real.pooled - PEAK) > BIN or real.mse > real.raw_mse:
            problem = (f"real file: pooled {real.pooled}, mse {real.mse}, "
                       f"raw_mse {real.raw_mse}")
        # refit_err_fixed is the known fixed-mode evidence defect (the
        # recorded t wraps); it is reported, never gated.
        return ({"refit_err_real": abs(real.pooled - PEAK),
                 "refit_err_fixed": abs(fixed.pooled - PEAK),
                 "refit_mse_ratio": real.mse / real.raw_mse},
                [("refit_real_file", problem)])


WORKLOADS = {
    "rwpe-real": lambda seed: Rwpe(seed, "real", noise=False),
    "rwpe-fixed-noise": lambda seed: Rwpe(seed, "fixed", noise=True),
    "ipe-native": IpeNative,
    "refit": Refit,
}

KERNEL_OPS = ("h", "x", "sx", "rz", "crz", "eswap", "cnot", "pauli",
              "measure", "reset")
FIXEDPOINT_OPS = ("mul_raw", "add_raw", "sub_raw", "recip_raw", "div_raw",
                  "to_radians", "wrap_raw")


def hooks(tracer):
    """Wrappers for the traced run: (owner, attribute, span name, on_call)."""
    prewrap = fixedpoint.recip_prewrap_raw

    def recip_wrapped(args, result):
        tracer.count("fixedpoint.recip_raw.wrapped",
                     int(result != prewrap(args[0])))

    def log_factor_evals(args, result):
        tracer.count("bayes.log_factor_evals",
                     len(args[0].entries) * len(args[1].nodes))

    out = [(sim.QuantumState, op, f"sim.kernel.{op}", None) for op in KERNEL_OPS]
    out += [(sim, "run_shots", "sim.run_shots", None),
            (sim, "compile_program", "sim.compile", None),
            (sim, "apply_noise", "sim.apply_noise", None),
            (sim, "measure", "sim.measure", None),
            (bayes, "posterior", "bayes.posterior", log_factor_evals),
            (bayes, "evidence_from_record", "bayes.evidence_from_record", None)]
    out += [(fixedpoint, op, f"fixedpoint.{op}",
             recip_wrapped if op == "recip_raw" else None)
            for op in FIXEDPOINT_OPS]
    return out
