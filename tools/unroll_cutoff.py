"""Time both kernel forms of the shot engine around `codegen.UNROLL_QUBITS`.

For each qubit count it builds one synthetic program (a measurement of
q0 after h, which picks the angle register; then h, rz of the register
and sx on every qubit; cnot, crz(0.25) and eswap of the register on every
neighbour pair; a measurement of each qubit), compiles it cold in the
unrolled and in the loop form, and prints the first-compile time, the
cost of a shot, and how many shots the unrolled form needs to repay its
extra compile time.  Records are the same in both forms.  The leading
random measurement keeps the gates in the shot: the engine evaluates an
entry block's deterministic prefix once, when it generates the source.

On a shared host other tenants slow a process by up to 2x for seconds at
a time, so the two forms are timed in PAIRS interleaved pairs (the order
alternating), and each timing is divided by the slowdown that
`perfbench/run.py`'s `host_slowdown` measured just before it.  Each
figure is the median over the pairs; the break-even column also gives
the lowest and highest pair's figure.

    python3 tools/unroll_cutoff.py [max_qubits] [shots]

Run it from the repository root; it changes no file.
"""

import statistics
import sys
import time

sys.path[:0] = ["src", "perfbench"]

from hybridsim import codegen, hir, sim  # noqa: E402
from run import host_slowdown  # noqa: E402

PAIRS = 5


def program(n: int) -> hir.HybridProgram:
    lines = [f"proc main qubits {n}", "  var fixed a = 0.3", "  var bit m = 0",
             "entry:", "  h q0", "  mz q0 -> m", "  select a, m, 0.3, -0.3"]
    for q in range(n):
        lines += [f"  h q{q}", f"  rz(a) q{q}", f"  sx q{q}"]
    for q in range(n - 1):
        lines += [f"  cnot q{q}, q{q + 1}", f"  crz(0.25) q{q}, q{q + 1}",
                  f"  eswap(a) q{q}, q{q + 1}"]
    lines += [f"  mz q{q} -> m" for q in range(n)] + ["  ret m", "endproc"]
    return hir.parse("\n".join(lines) + "\n")


def measure(prog, cfg, unroll: bool, shots: int):
    """(cold compile ms, µs per shot) of one form, at reference speed."""
    n = prog.qubits
    codegen.UNROLL_QUBITS = n if unroll else n - 1
    codegen._AMPS = tuple(f"a{i}" for i in range(1 << n))
    prog.generated.clear()
    codegen.code.cache_clear()
    codegen._rendered.cache_clear()
    codegen._sparse.cache_clear()
    slow = host_slowdown()
    t0 = time.perf_counter()
    sim.compile_program(prog, cfg)
    t1 = time.perf_counter()
    sim.run_shots(prog, cfg, range(shots))
    t2 = time.perf_counter()
    return (t1 - t0) / slow * 1e3, (t2 - t1) / slow / shots * 1e6


def break_even(cu: float, cl: float, su: float, sl: float) -> float:
    """Shots after which the unrolled form has repaid its extra compile
    time; inf when its shots are no cheaper."""
    gain = sl - su
    return max(cu - cl, 0) * 1e3 / gain if gain > 0 else float("inf")


def shots_text(x: float) -> str:
    return f"{x:.0f}" if x < float("inf") else "never"


def main():
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    shots = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    print(f"qubits noise   compile ms (unrolled/loop)  us/shot (unrolled/loop)"
          f"  break-even shots (range over {PAIRS} pairs)")
    for noise in (None, sim.NoiseModel()):
        cfg = sim.ExecConfig(noise=noise)
        for n in range(2, top + 1):
            prog = program(n)
            pairs = []
            for p in range(PAIRS):
                forms = (True, False) if p % 2 == 0 else (False, True)
                timed = {u: measure(prog, cfg, u, shots) for u in forms}
                pairs.append((*timed[True], *timed[False]))
            cu, su, cl, sl = (statistics.median(x) for x in zip(*pairs))
            evens = sorted(break_even(cu_, cl_, su_, sl_)
                           for cu_, su_, cl_, sl_ in pairs)
            print(f"{n:6} {'noise' if noise else 'ideal':5}   {cu:8.2f} / {cl:6.2f}"
                  f"          {su:8.1f} / {sl:8.1f}     "
                  f"{shots_text(statistics.median(evens))} "
                  f"({shots_text(evens[0])}-{shots_text(evens[-1])})")


if __name__ == "__main__":
    main()
