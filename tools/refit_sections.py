"""Time where a `refit` chunk goes, section by section.

It runs RWPE for SHOTS shots in `real` and in `fixed` mode (seed SEED),
writes each run as JSONL and cuts it into 10-record slices.  Chunk j then
does what a chunk of the benchmark's `refit` workload does: for each mode
it reads slice j (`sim.read_records`) and refits it (`bayes.refit`, with
the run-time estimates and the true value 0.5).  The sections are timed by
wrappers around the functions that do them:

    read       sim.read_records, per mode
    columns    bayes._block_columns: evidence columns and their checks
    set-up     bayes._block_rows less its calls of bayes._row: the coarse
               arguments' sines and cosines, table gathers and the repair
               of near-zero factors by the direct form
    rows       bayes._row: products, squares, near-zero search, logs
    normalise  bayes._normalise
    other      the rest of bayes.refit (prologue, pooled row, per-shot means)

On a shared host other tenants slow a process by up to 2x for seconds at a
time, so each chunk's times are divided by the slowdown that
`perfbench/run.py`'s `host_slowdown` measured just before it.  It prints
µs per record (a chunk refits 20) and each section's share of the chunk.
Compare two versions by running it in each checkout, alternately.

    python3 tools/refit_sections.py [chunks] [shots] [seed]

Run it from the repository root; it changes no file.
"""

import io
import sys
import time
from collections import Counter

sys.path[:0] = ["src", "perfbench"]

from hybridsim import algorithms, bayes, sim  # noqa: E402
from run import host_slowdown  # noqa: E402

SLICE = 10
# (label, name) of each wrapped function of bayes; "block rows" includes
# "rows".
WRAPPED = (("columns", "_block_columns"), ("block rows", "_block_rows"),
           ("rows", "_row"), ("normalise", "_normalise"))
SECTIONS = ("columns", "set-up", "rows", "normalise")


def slices(mode: str, shots: int, seed: int) -> list[str]:
    """The JSONL of an RWPE run, SLICE records a piece."""
    cfg = sim.ExecConfig(classical_mode=sim.ClassicalMode(mode), seed=seed,
                         shots=shots)
    buf = io.StringIO()
    sim.write_records(sim.run_shots(algorithms.build_rwpe(), cfg), buf)
    lines = buf.getvalue().splitlines(True)
    return ["".join(lines[i:i + SLICE]) for i in range(0, len(lines), SLICE)]


def timed(spent: Counter, label: str, fn):
    def wrapper(*args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            spent[label] += time.perf_counter() - t0
    return wrapper


def main():
    chunks = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    shots = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 11
    files = {mode: slices(mode, shots, seed) for mode in ("real", "fixed")}
    spent, total, records = Counter(), Counter(), 0
    for label, name in WRAPPED:
        setattr(bayes, name, timed(spent, label, getattr(bayes, name)))
    for j in range(chunks):
        spent.clear()
        slow = host_slowdown()
        t0 = time.perf_counter()
        for mode, pieces in files.items():
            t1 = time.perf_counter()
            recs = sim.read_records(io.StringIO(pieces[j % len(pieces)]))
            t2 = time.perf_counter()
            raw = [algorithms.runtime_estimate(r) for r in recs]
            t3 = time.perf_counter()
            bayes.refit(recs, true_value=0.5, raw_estimates=raw)
            spent[f"read {mode}"] += t2 - t1
            spent["refit"] += time.perf_counter() - t3
            records += len(recs)
        spent["chunk"] += time.perf_counter() - t0
        spent["set-up"] = spent["block rows"] - spent["rows"]
        spent["other"] = spent["refit"] - sum(
            spent[label] for label in SECTIONS)
        for label, t in spent.items():
            total[label] += t / slow
    print(f"{chunks} chunks of {2 * SLICE} records, seed {seed}: "
          "µs per record of a chunk, at reference speed")
    for label in ("read real", "read fixed", *SECTIONS, "other", "refit",
                  "chunk"):
        us = total[label] / records * 1e6
        share = 100 * total[label] / total["chunk"]
        print(f"{label:10} {us:8.1f}  {share:5.1f}%")


if __name__ == "__main__":
    main()
