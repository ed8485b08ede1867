"""Simulator semantics: gates, measurement, reset, classical modes, noise,
determinism, and record serialization."""

import io
import math
import random
import traceback
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import oracles
from hybridsim import hir, sim
from hybridsim import fixedpoint as fx
from hybridsim.algorithms import build_active_reset, build_rwpe, build_teleport
from hybridsim.errors import (BadQubitIndex, DivideByZero, ShotError,
                              StepLimitExceeded)
from hybridsim.sim import ClassicalMode, ExecConfig, NoiseModel, QuantumState

FIXED = ClassicalMode.FIXED_POINT


# -- QuantumState unit behavior ------------------------------------------------

def test_h_on_zero():
    s = QuantumState(1)
    s.apply_gate("h", [0])
    r = 1 / math.sqrt(2)
    assert s.amps == pytest.approx([r, r])


def test_eswap_pi_examples():
    s = QuantumState(2)
    s.apply_gate("x", [1])                     # |01>
    s.apply_gate("eswap", [0, 1], math.pi)
    assert s.amps[2] == pytest.approx(-1j)     # -i |10>
    assert sum(abs(a) for i, a in enumerate(s.amps) if i != 2) < 1e-12

    s = QuantumState(2)                        # |00>
    s.apply_gate("eswap", [0, 1], math.pi)
    assert s.amps[0] == pytest.approx(np.exp(-1j * math.pi / 2))


def test_eswap_matches_oracle_random_angles():
    rng = random.Random(5)
    for _ in range(25):
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        s = QuantumState(2)
        for q in (0, 1):
            s.apply_gate("h", [q])
            s.apply_gate("rz", [q], rng.uniform(0, math.pi))
        before = np.array(s.amps)
        s.apply_gate("eswap", [0, 1], theta)
        assert np.allclose(s.amps, oracles.eswap(theta) @ before, atol=1e-12)


def test_gate_dispatch_matches_oracle():
    rng = random.Random(6)
    for name in ("h", "x", "sx", "rz", "crz", "eswap", "cnot"):
        n = 3
        s = QuantumState(n)
        for q in range(n):
            s.apply_gate("h", [q])
            s.apply_gate("rz", [q], rng.uniform(0, 2))
        before = np.array(s.amps)
        arity = hir.GATE_ARITY[name]
        qubits = rng.sample(range(n), arity)
        theta = rng.uniform(-3, 3) if name in ("rz", "crz", "eswap") else None
        s.apply_gate(name, qubits, theta)
        U = oracles.embed(oracles.GATES[name](theta), qubits, n)
        assert np.allclose(s.amps, U @ before, atol=1e-12)


def test_bad_qubit_index():
    s = QuantumState(2)
    with pytest.raises(BadQubitIndex):
        s.apply_gate("h", [2])
    with pytest.raises(BadQubitIndex):
        s.apply_gate("cnot", [1, 1])


def test_measure_deterministic_one():
    s = QuantumState(1)
    s.apply_gate("x", [0])
    assert s.measure(0, random.Random(0)) == 1
    assert s.amps[1] == pytest.approx(1.0)


def test_measure_collapse_and_renormalize():
    s = QuantumState(2)
    s.apply_gate("h", [0])
    s.apply_gate("cnot", [0, 1])
    b = s.measure(0, random.Random(3))
    expect = [0j] * 4
    expect[3 if b else 0] = 1 + 0j
    assert np.allclose(s.amps, expect, atol=1e-12)
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_measure_frequency_half():
    counts = 0
    n = 10 ** 5
    rng = random.Random(99)
    for _ in range(n):
        s = QuantumState(1)
        s.apply_gate("h", [0])
        counts += s.measure(0, rng)
    assert abs(counts / n - 0.5) < 5e-3


def test_reset_examples():
    rng = random.Random(1)
    s = QuantumState(1)
    s.apply_gate("x", [0])
    s.reset(0, rng)
    assert s.amps[0] == pytest.approx(1.0)

    s = QuantumState(1)
    s.apply_gate("h", [0])
    s.reset(0, rng)
    assert abs(s.amps[0]) == pytest.approx(1.0)


def test_reset_preserves_unentangled_partner():
    rng = random.Random(2)
    s = QuantumState(2)
    s.apply_gate("sx", [1])
    s.apply_gate("rz", [1], 0.8)
    before = oracles.reduced_density(s.amps, 2, [1])
    s.apply_gate("h", [0])
    s.reset(0, rng)
    after = oracles.reduced_density(s.amps, 2, [1])
    assert np.allclose(before, after, atol=1e-10)


# -- classical semantics, whole programs ------------------------------------------

def _outputs(text, mode=ClassicalMode.EXACT_REAL):
    return dict(sim.run_shot(hir.parse(text), ExecConfig(classical_mode=mode)).outputs)


def test_mul_wraps_in_fixed_mode_only():
    text = ("proc main qubits 0\n  var fixed a = 1.5\n  var fixed c = 0.0\n"
            "entry:\n  mul c, a, a\n  output c\n  ret\nendproc\n")
    assert _outputs(text, FIXED)["c"] == fx.FixedQ216(fx.encode(-1.75))
    assert _outputs(text)["c"] == 2.25


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_cmp_and_select_with_literal_operands(mode):
    text = """proc main qubits 0
  var bit d = 0
  var bit r = 0
  var fixed v = 0.25
entry:
  cmp_eq r, d, 0
  select v, r, 0.5, -0.5
  ret r, v
endproc
"""
    out = _outputs(text, mode)
    assert out["r"] == 1
    half = fx.FixedQ216(fx.encode(0.5)) if mode is FIXED else 0.5
    assert out["v"] == half


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("instr", ["recip b, a", "div b, 1.0, a"],
                         ids=["recip", "div"])
def test_divide_by_zero_raises_shot_error(mode, instr):
    prog = hir.parse("proc main qubits 0\n  var fixed a = 0.0\n"
                     f"  var fixed b = 0.0\nentry:\n  {instr}\n  ret\n"
                     "endproc\n")
    with pytest.raises(ShotError) as err:
        sim.run_shot(prog, ExecConfig(classical_mode=mode), 4)
    assert err.value.shot_index == 4
    assert isinstance(err.value.cause, DivideByZero)


# Differential test: random straight-line classical programs, every op, a
# literal allowed in every operand position, against a fold over the
# independent word arithmetic in `oracles` (fixed) or Python arithmetic (real).

_VARS = {"fixed": ("f0", "f1", "f2"), "int18": ("i0", "i1"), "bit": ("b0", "b1")}
_RAW = st.integers(fx.RAW_MIN, fx.RAW_MAX)


def _literals(kind):
    if kind == "bit":
        return st.sampled_from([0, 1])
    if kind == "int18":
        return _RAW
    return st.one_of(st.integers(-2, 1), _RAW.map(lambda r: r / fx.SCALE),
                     st.floats(fx.REAL_MIN, fx.REAL_MAX))


def _operands(kind):
    return st.one_of(_literals(kind), st.sampled_from(_VARS[kind]))


@st.composite
def _classical_programs(draw):
    decls = tuple(hir.VarDecl(name, kind, draw(_literals(kind)))
                  for kind, names in _VARS.items() for name in names)
    instrs = []
    for _ in range(draw(st.integers(1, 12))):
        op = draw(st.sampled_from(sorted(hir.CLASSICAL_OPS)))
        if op in ("cmp_eq", "cmp_lt"):
            dkind, k = "bit", draw(st.sampled_from(hir.KINDS))
            kinds = (k, k)
        elif op == "select":
            dkind = draw(st.sampled_from(hir.KINDS))
            kinds = ("bit", dkind, dkind)
        else:
            dkind = "fixed" if op in ("recip", "div") else \
                draw(st.sampled_from(["fixed", "int18"]))
            kinds = (dkind,) * hir.CLASSICAL_OPS[op]
        srcs = tuple(draw(_operands(k)) for k in kinds)
        instrs.append(hir.Classical(op, draw(st.sampled_from(_VARS[dkind])), srcs))
    names = tuple(d.name for d in decls)
    proc = hir.Procedure("main", 0, decls,
                         (hir.BasicBlock("entry", tuple(instrs), hir.Ret(names)),))
    return hir.make_program(proc)


def _real_recip(a):
    if a == 0.0:
        raise DivideByZero("reciprocal of zero")
    return 1.0 / a


def _real_div(a, b):
    if b == 0.0:
        raise DivideByZero("division by zero")
    return a / b


_FIXED_OPS = {
    ("add", "fixed"): oracles.fx_add, ("add", "int18"): oracles.fx_add,
    ("sub", "fixed"): oracles.fx_sub, ("sub", "int18"): oracles.fx_sub,
    ("neg", "fixed"): oracles.fx_neg, ("neg", "int18"): oracles.fx_neg,
    ("mul", "fixed"): oracles.fx_mul,
    ("mul", "int18"): lambda a, b: oracles.wrap18(a * b),
    ("recip", "fixed"): fx.recip_raw, ("div", "fixed"): fx.div_raw,
}
_REAL_OPS = {
    **{("add", k): lambda a, b: a + b for k in ("fixed", "int18")},
    **{("sub", k): lambda a, b: a - b for k in ("fixed", "int18")},
    **{("mul", k): lambda a, b: a * b for k in ("fixed", "int18")},
    **{("neg", k): lambda a: -a for k in ("fixed", "int18")},
    ("recip", "fixed"): _real_recip, ("div", "fixed"): _real_div,
}


def _fold(prog, fixed: bool):
    """Expected outputs of a straight-line program, in order."""
    proc = prog.entry_procedure()
    kinds = {d.name: d.kind for d in proc.decls}
    ops = _FIXED_OPS if fixed else _REAL_OPS

    def word(tok, kind):
        if isinstance(tok, str):
            return regs[tok]
        if kind == "fixed":
            return oracles.encode(float(tok)) if fixed else float(tok)
        return int(tok)

    regs = {d.name: word(d.init, d.kind) for d in proc.decls}
    for ins in proc.blocks[0].instructions:
        if ins.op in ("cmp_eq", "cmp_lt"):
            var = [kinds[s] for s in ins.srcs if isinstance(s, str)]
            k = var[0] if var else \
                "fixed" if any(isinstance(s, float) for s in ins.srcs) else "int18"
            a, b = (word(s, k) for s in ins.srcs)
            regs[ins.dest] = int(a == b) if ins.op == "cmp_eq" else int(a < b)
        elif ins.op == "select":
            c, a, b = ins.srcs
            chosen = a if word(c, "bit") else b
            regs[ins.dest] = word(chosen, kinds[ins.dest])
        else:
            k = kinds[ins.dest]
            regs[ins.dest] = ops[ins.op, k](*(word(s, k) for s in ins.srcs))
    box = {"bit": int, "int18": fx.Int18, "fixed": fx.FixedQ216} if fixed else \
        {"bit": int, "int18": int, "fixed": float}
    return tuple((name, box[kinds[name]](regs[name]))
                 for name in proc.blocks[0].terminator.values)


@settings(max_examples=300, deadline=None)
@given(_classical_programs(), st.sampled_from(list(ClassicalMode)))
def test_classical_ops_match_oracle_fold(prog, mode):
    try:
        expected = _fold(prog, fixed=mode is FIXED)
    except DivideByZero:
        with pytest.raises(ShotError) as err:
            sim.run_shot(prog, ExecConfig(classical_mode=mode))
        assert isinstance(err.value.cause, DivideByZero)
        return
    got = sim.run_shot(prog, ExecConfig(classical_mode=mode)).outputs
    # repr tells 1 from 1.0 and -0.0 from 0.0, and equates nan with nan
    assert repr(got) == repr(expected)


# -- whole-shot behavior --------------------------------------------------------

def _prepend_entry(prog, instrs):
    """New first block running `instrs` once, then jumping to the old entry
    (prepending into the entry block itself would re-run the prep whenever
    the entry is also a loop head)."""
    proc = prog.entry_procedure()
    prep = hir.BasicBlock("test_prep", tuple(instrs),
                          hir.Br(proc.blocks[0].label))
    return hir.HybridProgram(hir.Procedure(proc.name, proc.qubits, proc.decls,
                                           (prep,) + proc.blocks))


def _random_prep(rng):
    """A 1-qubit prep sequence from the native set plus the state it makes."""
    angles = [rng.uniform(-2, 2) for _ in range(3)]
    instrs = (hir.Gate("rz", (0,), angles[0]), hir.Gate("h", (0,)),
              hir.Gate("rz", (0,), angles[1]), hir.Gate("h", (0,)),
              hir.Gate("rz", (0,), angles[2]))
    psi = np.array([1, 0], dtype=complex)
    for a in angles[:1]:
        psi = oracles.rz(a * math.pi) @ psi
    psi = oracles.H @ psi
    psi = oracles.rz(angles[1] * math.pi) @ psi
    psi = oracles.H @ psi
    psi = oracles.rz(angles[2] * math.pi) @ psi
    return instrs, psi


def test_teleport_all_branches_ideal():
    prog = build_teleport()
    seen = set()
    rng = random.Random(17)
    for trial in range(40):
        instrs, psi = _random_prep(rng)
        record, state = sim.run_shot_debug(
            _prepend_entry(prog, instrs), ExecConfig(seed=trial), 0)
        bits = dict(record.outputs)
        seen.add((bits["mx"], bits["mzv"]))
        rho = oracles.reduced_density(state.amps, 3, [2])
        fidelity = float(np.real(psi.conj() @ rho @ psi))
        assert fidelity > 1 - 1e-10
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_teleport_basis_inputs():
    prog = build_teleport()
    for prep, expect_index in ((None, 0), (hir.Gate("x", (0,)), 1)):
        p = _prepend_entry(prog, (prep,)) if prep else prog
        _, state = sim.run_shot_debug(p, ExecConfig(seed=5), 0)
        rho = oracles.reduced_density(state.amps, 3, [2])
        assert rho[expect_index, expect_index] == pytest.approx(1.0, abs=1e-10)


def _instrumented_reset():
    """Active-reset program that also outputs the loop counter."""
    prog = build_active_reset()
    proc = prog.entry_procedure()
    blocks = []
    for b in proc.blocks:
        if isinstance(b.terminator, hir.Ret):
            blocks.append(hir.BasicBlock(
                b.label, b.instructions + (hir.Output("counter"),),
                b.terminator))
        else:
            blocks.append(b)
    return hir.HybridProgram(hir.Procedure(proc.name, proc.qubits, proc.decls,
                                           tuple(blocks)))


def test_active_reset_trace_from_zero():
    # ideal from |0>: success after exactly 2 measurements
    record = sim.run_shot(_instrumented_reset(), ExecConfig(seed=3), 0)
    out = dict(record.outputs)
    assert out["ok"] == 1
    assert out["counter"] == 1          # exits during the second pass


def test_active_reset_trace_from_one():
    # from |1>: 1 -> flip -> 0, 0: success after exactly 3 measurements
    prog = _prepend_entry(_instrumented_reset(), (hir.Gate("x", (0,)),))
    record = sim.run_shot(prog, ExecConfig(seed=3), 0)
    out = dict(record.outputs)
    assert out["ok"] == 1
    assert out["counter"] == 2


def test_active_reset_success_vs_enumeration():
    for r in (0.0, 0.2):
        cfg = ExecConfig(seed=8, shots=20000,
                         noise=NoiseModel(p_gate1=0, p_gate2=0, p_readout=r))
        records = sim.run_shots(build_active_reset(), cfg)
        rate = sum(v for rec in records for k, v in rec.outputs if k == "ok") \
            / len(records)
        expect = oracles.active_reset_success_prob(r)
        assert abs(rate - expect) <= oracles.binom_3sigma(expect, len(records))


def test_shot_determinism_and_order_independence():
    prog = build_rwpe()
    cfg = ExecConfig(seed=42, shots=20)
    a = sim.run_shots(prog, cfg)
    b = sim.run_shots(prog, cfg)
    assert a == b
    shuffled_indices = list(range(20))
    random.Random(0).shuffle(shuffled_indices)
    c = sim.run_shots(prog, cfg, shot_indices=shuffled_indices)
    assert sorted(c, key=lambda r: r.shot) == a
    assert sim.run_shots(prog, replace(cfg, shots=1)) == [sim.run_shot(prog, cfg, 0)]


def test_fixed_point_rwpe_completes_with_wrap():
    cfg = ExecConfig(classical_mode=FIXED, seed=11, shots=3)
    for rec in sim.run_shots(build_rwpe(), cfg):
        assert len(rec.evidence) == 24
        # evolution times really did wrap at some point
        assert any(t.value < 0 for t, _, _ in rec.evidence)


def test_classical_mode_agreement_in_range():
    """With sigma kept >= 0.5 the evolution time never wraps, and both
    register models follow the same trajectory to quantization accuracy."""
    from hybridsim.algorithms import RwpeParams, build_rwpe as build
    prog = build(RwpeParams(mu0=0.7951, sigma0=1.3, n_iter=5))
    matched = 0
    for seed in range(10):
        real = sim.run_shot(prog, ExecConfig(seed=seed), 0)
        fixed = sim.run_shot(prog, ExecConfig(seed=seed, classical_mode=FIXED), 0)
        if [d for *_, d in real.evidence] != [d for *_, d in fixed.evidence]:
            continue    # a borderline draw flipped one outcome; skip
        matched += 1
        for (t_r, p_r, _), (t_f, p_f, _) in zip(real.evidence, fixed.evidence):
            assert abs(t_r - t_f.value) < 2 ** -12
            assert abs(p_r - p_f.value) < 2 ** -12
        mu_r = dict(real.outputs)["mu"]
        mu_f = dict(fixed.outputs)["mu"].value
        assert abs(mu_r - mu_f) < 2 ** -12
    assert matched >= 8


def test_step_limit_exceeded():
    prog = hir.parse("proc main qubits 0\nloop:\n  br loop\nendproc\n")
    with pytest.raises(ShotError) as err:
        sim.run_shot(prog, ExecConfig(seed=0, step_limit=100), 0)
    assert isinstance(err.value.cause, StepLimitExceeded)
    assert err.value.shot_index == 0


def test_divide_by_zero_carries_shot_index():
    prog = hir.parse("""proc main qubits 0
  var fixed a = 0.0
  var fixed b = 0.0
entry:
  recip b, a
  ret
endproc
""")
    with pytest.raises(ShotError) as err:
        sim.run_shots(prog, ExecConfig(seed=0, shots=3))
    assert err.value.shot_index == 0
    assert isinstance(err.value.cause, DivideByZero)


_DIVIDES_IN_BLOCK_WORK = """proc main qubits 1
  var fixed a = 0.0
  var fixed b = 0.0
entry:
  h q0
  br work
work:
  x q0
  recip b, a
  ret
endproc
"""


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_shot_error_names_block_and_source_line(mode):
    prog = hir.parse(_DIVIDES_IN_BLOCK_WORK)
    with pytest.raises(ShotError) as err:
        sim.run_shots(prog, ExecConfig(classical_mode=mode), [7])
    e = err.value
    assert (e.shot_index, e.block, e.line) == (7, "work", 9)
    assert isinstance(e.cause, DivideByZero)
    assert str(e) == "shot 7, block work, line 9: reciprocal of zero"
    # The traceback shows the generated statement that raised.
    text = "".join(traceback.format_exception(e.cause))
    assert '<hir main:' in text
    assert "r1 = recip_fixed(r0)" in text


def test_step_limit_shot_error_names_the_looping_block():
    prog = hir.parse("proc main qubits 0\nentry:\n  br loop\n"
                     "loop:\n  br loop\nendproc\n")
    with pytest.raises(ShotError) as err:
        sim.run_shot(prog, ExecConfig(step_limit=100), 3)
    e = err.value
    assert (e.shot_index, e.block, e.line) == (3, "loop", 5)
    assert isinstance(e.cause, StepLimitExceeded)
    assert "shot 3, block loop, line 5:" in str(e)


# Differential test: the generated engine against a replay of the same shot
# through the QuantumState methods, `apply_noise` and `measure`, drawing from
# the same per-shot generator.  Amplitudes and records must be equal exactly.

_HEAVY_NOISE = NoiseModel(p_gate1=0.3, p_gate2=0.4, p_readout=0.3)
_ANGLE_VARS = ("f0", "f1")
_BIT_VARS = ("d0", "d1")


@st.composite
def _quantum_programs(draw):
    n = draw(st.integers(0, 4))
    angle = st.one_of(st.sampled_from(_ANGLE_VARS),
                      st.floats(fx.REAL_MIN, fx.REAL_MAX))
    decls = tuple(hir.VarDecl(v, "fixed", draw(st.floats(fx.REAL_MIN, fx.REAL_MAX)))
                  for v in _ANGLE_VARS) + \
        tuple(hir.VarDecl(v, "bit", 0) for v in _BIT_VARS)
    choices = ["active_reset"]
    if n >= 1:
        choices += ["h", "x", "sx", "rz", "mz", "reset"]
    if n >= 2:
        choices += ["crz", "eswap", "cnot"]
    instrs = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(choices))
        if kind == "active_reset":
            instrs.append(hir.ActiveReset())
            continue
        q = draw(st.integers(0, n - 1))
        if kind == "mz":
            record = draw(st.sampled_from([None, _ANGLE_VARS]))
            instrs.append(hir.Measure(q, draw(st.sampled_from(_BIT_VARS)), record))
        elif kind == "reset":
            instrs.append(hir.Reset(q))
        elif hir.GATE_ARITY[kind] == 1:
            instrs.append(hir.Gate(kind, (q,), draw(angle) if kind == "rz" else None))
        else:
            qs = (q, draw(st.integers(0, n - 1).filter(lambda r: r != q)))
            instrs.append(hir.Gate(kind, qs, None if kind == "cnot" else draw(angle)))
    proc = hir.Procedure("main", n, decls, (hir.BasicBlock(
        "entry", tuple(instrs), hir.Ret(_BIT_VARS + _ANGLE_VARS)),))
    return hir.make_program(proc)


def _replay(prog, cfg, shot_index):
    """(record, amplitudes) of one shot, instruction by instruction."""
    proc = prog.entry_procedure()
    domain = sim.select_domain(cfg.classical_mode)
    kinds = {d.name: d.kind for d in proc.decls}
    regs = {d.name: domain.literal[d.kind](d.init) for d in proc.decls}

    def boxed(name):
        box = domain.box[kinds[name]]
        return regs[name] if box is None else box(regs[name])

    shot_seed = sim.derive_shot_seed(cfg.seed, shot_index)
    rng = random.Random(shot_seed)
    state = QuantumState(proc.qubits)
    evidence = []
    for ins in proc.blocks[0].instructions:
        if isinstance(ins, hir.Gate):
            angle = None
            if ins.angle is not None:
                word = regs[ins.angle] if isinstance(ins.angle, str) else \
                    domain.literal["fixed"](ins.angle)
                angle = domain.radians(word)
            state.apply_gate(ins.name, ins.qubits, angle)
            if cfg.noise is not None:
                sim.apply_noise(state, ins.name, ins.qubits, rng, cfg.noise)
        elif isinstance(ins, hir.Measure):
            regs[ins.dest] = sim.measure(state, ins.qubit, rng, cfg.noise)
            if ins.record is not None:
                evidence.append((boxed(ins.record[0]), boxed(ins.record[1]),
                                 regs[ins.dest]))
        elif isinstance(ins, hir.Reset):
            state.reset(ins.qubit, rng)
        else:
            for q in range(proc.qubits):
                state.reset(q, rng)
    outputs = tuple((v, boxed(v)) for v in proc.blocks[0].terminator.values)
    return sim.ShotRecord(shot_index, shot_seed, outputs, tuple(evidence)), state.amps


@settings(max_examples=300, deadline=None)
@given(_quantum_programs(), st.sampled_from(list(ClassicalMode)),
       st.sampled_from([None, NoiseModel(), _HEAVY_NOISE]),
       st.integers(0, 2 ** 32 - 1))
def test_engine_matches_quantum_state_replay(prog, mode, noise, seed):
    cfg = ExecConfig(classical_mode=mode, noise=noise, seed=seed)
    for i in range(3):
        record, state = sim.run_shot_debug(prog, cfg, i)
        want_record, want_amps = _replay(prog, cfg, i)
        assert record == want_record
        assert state.amps == want_amps
        # repr also tells -0.0 from 0.0
        assert repr(state.amps) == repr(want_amps)


# -- noise ---------------------------------------------------------------------

def test_noise_p_zero_leaves_state_unchanged():
    prog = hir.parse("proc main qubits 2\nentry:\n  x q0\n  h q1\n"
                     "  eswap(0.3) q0, q1\n  ret\nendproc\n")
    offable = NoiseModel(p_gate1=0.0, p_gate2=0.0, p_readout=0.0)
    _, noisy = sim.run_shot_debug(prog, ExecConfig(seed=5, noise=offable), 0)
    _, ideal = sim.run_shot_debug(prog, ExecConfig(seed=5), 0)
    assert noisy.amps == ideal.amps


def test_noise_pauli_frequencies():
    prog = hir.parse("proc main qubits 1\nentry:\n  x q0\n  ret\nendproc\n")
    cfg = ExecConfig(seed=13, noise=NoiseModel(p_gate1=1.0, p_readout=0.0))
    targets = {
        "x": oracles.X @ np.array([0, 1]),
        "y": oracles.Y @ np.array([0, 1]),
        "z": oracles.Z @ np.array([0, 1]),
    }
    counts = {k: 0 for k in targets}
    n = 30000
    for i in range(n):
        _, state = sim.run_shot_debug(prog, cfg, i)
        amps = np.array(state.amps)
        for k, vec in targets.items():
            if np.allclose(amps, vec, atol=1e-12):
                counts[k] += 1
                break
        else:
            pytest.fail("state is not a Pauli image of |1>")
    for k in targets:
        assert abs(counts[k] / n - 1 / 3) <= oracles.binom_3sigma(1 / 3, n)


def test_apply_noise_surface():
    rng = random.Random(0)
    s = QuantumState(1)
    sim.apply_noise(s, "h", (0,), rng,
                    NoiseModel(p_gate1=0.0, p_gate2=0.0, p_readout=0.0))
    assert s.amps == [1 + 0j, 0j]          # p = 0 leaves the state alone
    sim.apply_noise(s, "rz", (0,), rng, NoiseModel(p_gate1=1.0))
    assert s.amps == [1 + 0j, 0j]          # rz exempt even at p = 1
    s2 = QuantumState(2)
    sim.apply_noise(s2, "eswap", (0, 1), rng, NoiseModel(p_gate2=1.0))
    assert s2.amps != QuantumState(2).amps  # some Pauli landed


def test_measure_surface_readout_flip():
    s = QuantumState(1)
    bit = sim.measure(s, 0, random.Random(1),
                      NoiseModel(p_gate1=0, p_gate2=0, p_readout=1.0))
    assert bit == 1                         # reported flip
    assert s.amps[0] == pytest.approx(1.0)  # collapse followed the truth


def test_readout_flip_forced():
    prog = hir.parse("proc main qubits 1\n  var bit d = 0\nentry:\n"
                     "  mz q0 -> d\n  output d\n  ret\nendproc\n")
    cfg = ExecConfig(seed=0, noise=NoiseModel(p_gate1=0, p_gate2=0,
                                              p_readout=1.0))
    record, state = sim.run_shot_debug(prog, cfg, 0)
    assert dict(record.outputs)["d"] == 1        # reported bit flipped
    assert state.amps[0] == pytest.approx(1.0)   # state followed the true bit


def test_rz_is_noise_exempt():
    body = "".join("  rz(0.37) q0\n" for _ in range(50))
    prog = hir.parse("proc main qubits 1\n  var bit d = 0\nentry:\n"
                     + body + "  mz q0 -> d\n  output d\n  ret\nendproc\n")
    cfg = ExecConfig(seed=1, shots=200,
                     noise=NoiseModel(p_gate1=1.0, p_readout=0.0))
    for rec in sim.run_shots(prog, cfg):
        assert dict(rec.outputs)["d"] == 0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_gate1=1.5)
    with pytest.raises(ValueError):
        ExecConfig(shots=0)


# -- aggregate statistics --------------------------------------------------------

def _measure_all(name_lines, n):
    decls = "".join(f"  var bit d{q} = 0\n" for q in range(n))
    meas = "".join(f"  mz q{q} -> d{q}\n" for q in range(n))
    outs = "".join(f"  output d{q}\n" for q in range(n))
    return hir.parse(f"proc main qubits {n}\n{decls}entry:\n"
                     + "".join(f"  {l}\n" for l in name_lines)
                     + meas + outs + "  ret\nendproc\n")


@pytest.mark.parametrize("lines,n", [
    (["h q0"], 1),
    (["h q0", "cnot q0, q1"], 2),
    (["h q0", "sx q1", "rz(0.31) q1", "eswap(0.4) q0, q1",
      "crz(0.8) q1, q2", "h q2"], 3),
])
def test_measurement_statistics_chi2(lines, n):
    prog = _measure_all(lines, n)
    gates = [i for i in prog.entry_procedure().blocks[0].instructions
             if isinstance(i, hir.Gate)]
    U = oracles.unitary_of_gates(gates, n)
    probs = oracles.born_probs(U[:, 0])
    shots = 10 ** 5
    counts = np.zeros(1 << n)
    for rec in sim.run_shots(prog, ExecConfig(seed=21, shots=shots)):
        bits = dict(rec.outputs)
        idx = 0
        for q in range(n):
            idx = (idx << 1) | bits[f"d{q}"]
        counts[idx] += 1
    live = probs > 1e-12
    assert counts[~live].sum() == 0
    expected = probs[live] * shots
    stat = float(np.sum((counts[live] - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, df=live.sum() - 1)


def test_mid_circuit_measurement_commutes_with_disjoint_ops():
    text_a = """proc main qubits 2
  var bit a = 0
  var bit b = 0
entry:
  h q0
  mz q0 -> a
  sx q1
  rz(0.7) q1
  h q1
  mz q1 -> b
  output a
  output b
  ret
endproc
"""
    text_b = """proc main qubits 2
  var bit a = 0
  var bit b = 0
entry:
  h q0
  sx q1
  rz(0.7) q1
  h q1
  mz q0 -> a
  mz q1 -> b
  output a
  output b
  ret
endproc
"""
    n = 20000
    freq = []
    for text in (text_a, text_b):
        prog = hir.parse(text)
        f = np.zeros(4)
        for rec in sim.run_shots(prog, ExecConfig(seed=31, shots=n)):
            bits = dict(rec.outputs)
            f[(bits["a"] << 1) | bits["b"]] += 1
        freq.append(f / n)
    for pa, pb in zip(*freq):
        se = math.sqrt(max(pa * (1 - pa), 1e-9) * 2 / n)
        assert abs(pa - pb) <= 4 * se


def test_normalization_invariant_during_run():
    prog = build_rwpe()
    _, state = sim.run_shot_debug(prog, ExecConfig(seed=2), 0)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)
    _, state = sim.run_shot_debug(
        prog, ExecConfig(seed=2, classical_mode=FIXED, noise=NoiseModel()), 0)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-10)


def test_active_reset_instruction_resets_all():
    prog = hir.parse("""proc main qubits 2
entry:
  h q0
  x q1
  active_reset
  ret
endproc
""")
    _, state = sim.run_shot_debug(prog, ExecConfig(seed=9), 0)
    assert abs(state.amps[0]) == pytest.approx(1.0, abs=1e-12)


# -- record serialization ---------------------------------------------------------

def test_jsonl_roundtrip_both_modes():
    prog = build_rwpe()
    for mode in (ClassicalMode.EXACT_REAL, FIXED):
        records = sim.run_shots(prog, ExecConfig(seed=6, shots=4,
                                                 classical_mode=mode))
        buf = io.StringIO()
        sim.write_records(records, buf)
        buf.seek(0)
        assert sim.read_records(buf) == records


def _records(fixed: bool):
    if fixed:
        number = st.builds(fx.FixedQ216, _RAW)
        value = st.one_of(st.sampled_from([0, 1]), st.builds(fx.Int18, _RAW), number)
    else:
        number = st.floats(allow_nan=False, allow_infinity=False)
        value = st.one_of(st.sampled_from([0, 1]), st.integers(), number)
    names = st.sampled_from(["mu", "ok", "counter", "d"])
    return st.builds(
        sim.ShotRecord, st.integers(0, 2 ** 32), st.integers(0, 2 ** 64 - 1),
        st.lists(st.tuples(names, value), max_size=4).map(tuple),
        st.lists(st.tuples(number, number, st.sampled_from([0, 1])),
                 max_size=4).map(tuple))


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda fixed: st.lists(_records(fixed), max_size=3)))
def test_jsonl_roundtrip_property(records):
    buf = io.StringIO()
    sim.write_records(records, buf)
    buf.seek(0)
    back = sim.read_records(buf)
    assert back == records
    assert [[type(v) for _, v in r.outputs] for r in back] == \
        [[type(v) for _, v in r.outputs] for r in records]


def test_jsonl_fixed_values_carry_raw_and_decimal():
    records = sim.run_shots(build_rwpe(),
                            ExecConfig(seed=6, shots=1, classical_mode=FIXED))
    payload = sim.record_to_json(records[0])
    mu = payload["outputs"][0][1]
    assert set(mu) == {"raw", "value"}
    assert mu["value"] == mu["raw"] / 65536
    ev = payload["evidence"][0]
    assert set(ev) == {"t", "phi_inv", "d"}
