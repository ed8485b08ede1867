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

    python3 tools/unroll_cutoff.py [max_qubits] [shots]

Run it from the repository root; it changes no file.
"""

import sys
import time

sys.path.insert(0, "src")

from hybridsim import codegen, hir, sim  # noqa: E402


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
    """(best cold compile ms over 3, best µs per shot over 5 runs) of one
    form."""
    n = prog.qubits
    codegen.UNROLL_QUBITS = n if unroll else n - 1
    codegen._AMPS = tuple(f"a{i}" for i in range(1 << n))
    compile_ms = float("inf")
    for _ in range(3):
        prog.generated.clear()
        sim._code.cache_clear()
        codegen._rendered.cache_clear()
        codegen._fold_code.cache_clear()
        t0 = time.perf_counter()
        sim.compile_program(prog, cfg)
        compile_ms = min(compile_ms, (time.perf_counter() - t0) * 1e3)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        sim.run_shots(prog, cfg, range(shots))
        best = min(best, time.perf_counter() - t0)
    return compile_ms, best / shots * 1e6


def main():
    top = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    shots = int(sys.argv[2]) if len(sys.argv) > 2 else 300
    print("qubits noise   compile ms (unrolled/loop)  us/shot (unrolled/loop)"
          "  break-even shots")
    for noise in (None, sim.NoiseModel()):
        cfg = sim.ExecConfig(noise=noise)
        for n in range(2, top + 1):
            prog = program(n)
            cu, su = measure(prog, cfg, True, shots)
            cl, sl = measure(prog, cfg, False, shots)
            gain = sl - su
            even = f"{max(cu - cl, 0) * 1e3 / gain:.0f}" if gain > 0 else "never"
            print(f"{n:6} {'noise' if noise else 'ideal':5}   {cu:8.2f} / {cl:6.2f}"
                  f"          {su:8.1f} / {sl:8.1f}     {even}")


if __name__ == "__main__":
    main()
