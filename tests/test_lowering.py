"""Gate lowering: unitary equivalence against the dense-matrix oracle."""

import math
import random

import numpy as np
import pytest

import oracles
from hybridsim import hir
from hybridsim.algorithms import build_rwpe
from hybridsim.errors import UnloweredGate
from hybridsim.lowering import lower_to_native
from hybridsim.profiles import NATIVE, Profile, validate

TOL = 1e-10


def _single_gate_program(line: str, nqubits: int = 2,
                         decls: str = "") -> hir.HybridProgram:
    return hir.parse(f"proc main qubits {nqubits}\n{decls}entry:\n"
                     f"  {line}\n  ret\nendproc\n")


def _lowered_unitary(prog: hir.HybridProgram, env=None) -> np.ndarray:
    low = lower_to_native(prog, NATIVE)
    assert validate(low, NATIVE) == []
    env = dict(env or {})
    gates = []
    for block in low.blocks:
        oracles.eval_classical_real(
            [i for i in block.instructions if isinstance(i, hir.Classical)], env)
        gates.extend(i for i in block.instructions if isinstance(i, hir.Gate))
    return oracles.unitary_of_gates(gates, low.qubits, env)


def test_cnot_lowering_matches_matrix():
    U = _lowered_unitary(_single_gate_program("cnot q0, q1"))
    assert oracles.phase_aligned_distance(oracles.CNOT, U) < 1e-12

    U = _lowered_unitary(_single_gate_program("cnot q1, q0"))
    expected = oracles.embed(oracles.CNOT, [1, 0], 2)
    assert oracles.phase_aligned_distance(expected, U) < 1e-12


def test_rz_stays_untouched():
    prog = _single_gate_program("rz(0.3) q0", nqubits=1)
    low = lower_to_native(prog, NATIVE)
    assert low == prog


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0, 1.234, -0.77])
def test_crz_literal_lowering(theta):
    U = _lowered_unitary(_single_gate_program(f"crz({theta}) q0, q1"))
    assert oracles.phase_aligned_distance(oracles.crz(theta * math.pi), U) < 1e-12


def test_crz_variable_angle_stays_runtime():
    prog = _single_gate_program("crz(a) q0, q1",
                                decls="  var fixed a = 0.3\n")
    low = lower_to_native(prog, NATIVE)
    block = low.blocks[0]
    classical = [i for i in block.instructions if isinstance(i, hir.Classical)]
    # the half-angle and its negation are computed by real instructions
    assert [c.op for c in classical] == ["mul", "neg"]
    assert classical[0].srcs == ("a", 0.5)
    # the two half-angle rotations read the scratch registers at run time
    scratch = {classical[0].dest, classical[1].dest}
    var_rz = [i for i in block.instructions
              if isinstance(i, hir.Gate) and i.name == "rz"
              and isinstance(i.angle, str)]
    assert {g.angle for g in var_rz} == scratch
    for theta in (0.0, 0.5, 1.0, 1.234):
        U = _lowered_unitary(prog, env={"a": theta})
        assert oracles.phase_aligned_distance(
            oracles.crz(theta * math.pi), U) < 1e-12


def test_lowered_rwpe_validates_native():
    lowered = lower_to_native(build_rwpe(), NATIVE)
    assert validate(lowered, NATIVE) == []
    assert hir.parse(hir.emit(lowered)) == lowered


def test_unlowerable_gate_raises():
    no_entangler = Profile(name="tiny",
                           gates=frozenset({"h", "x", "rz"}), max_qubits=4)
    with pytest.raises(UnloweredGate):
        lower_to_native(_single_gate_program("crz(0.5) q0, q1"), no_entangler)
    with pytest.raises(UnloweredGate):
        lower_to_native(_single_gate_program("eswap(0.5) q0, q1"), no_entangler)


def test_eswap_pi_is_swap_up_to_phase():
    target = np.exp(-1j * math.pi / 2) * oracles.SWAP
    assert np.linalg.norm(oracles.eswap(math.pi) - target) < 1e-12


def test_lowering_soundness_random_programs():
    """Random <=3 qubit straight-line programs, random angles: lowered and
    original unitaries agree up to global phase."""
    rng = random.Random(20)
    for trial in range(30):
        n = rng.randint(2, 3)
        lines = []
        nvars = rng.randint(0, 2)
        decls = "".join(f"  var fixed ang{i} = 0.0\n" for i in range(nvars))
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["h", "x", "sx", "rz", "crz", "eswap", "cnot"])
            qs = rng.sample(range(n), 2)
            if kind in ("h", "x", "sx"):
                lines.append(f"{kind} q{qs[0]}")
            elif kind == "rz":
                lines.append(f"rz({rng.uniform(-2, 2):.6f}) q{qs[0]}")
            elif kind == "cnot":
                lines.append(f"cnot q{qs[0]}, q{qs[1]}")
            elif nvars and rng.random() < 0.5:
                var = f"ang{rng.randrange(nvars)}"
                lines.append(f"{kind}({var}) q{qs[0]}, q{qs[1]}")
            else:
                lines.append(f"{kind}({rng.uniform(-2, 2):.6f}) q{qs[0]}, q{qs[1]}")
        text = f"proc main qubits {n}\n{decls}entry:\n" + \
            "".join(f"  {l}\n" for l in lines) + "  ret\nendproc\n"
        prog = hir.parse(text)
        for _ in range(4):
            env = {f"ang{i}": rng.uniform(-2, 2) for i in range(nvars)}
            gates = [i for i in prog.blocks[0].instructions
                     if isinstance(i, hir.Gate)]
            original = oracles.unitary_of_gates(
                gates, n, env)
            lowered = _lowered_unitary(prog, env=env)
            assert oracles.phase_aligned_distance(original, lowered) < TOL
