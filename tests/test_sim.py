"""Simulator semantics: gates, measurement, reset, classical modes, noise,
determinism, and record serialization.  The engine is checked shot by shot
against the reference interpreter `oracles.interpret`."""

import ast
import gc
import io
import json
import linecache
import math
import random
import re
import sys
import threading
import traceback
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

import oracles
from hybridsim import codegen, hir, profiles, sim
from hybridsim import fixedpoint as fx
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.errors import DivideByZero, OutOfRange, ShotError, StepLimitExceeded
from hybridsim.lowering import lower_to_native
from hybridsim.sim import ClassicalMode, ExecConfig, NoiseModel
from oracles import QuantumState

FIXED = ClassicalMode.FIXED_POINT


# -- the reference statevector model, oracles.QuantumState ----------------------

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
    with pytest.raises(ValueError):
        s.apply_gate("h", [2])
    with pytest.raises(ValueError):
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


# A failure raised inside generated code has a different origin for every
# program (the file name carries a digest of its source), so hypothesis
# would shrink each shrunk program as a new bug; one is enough.
_DIFFERENTIAL = settings(max_examples=300, deadline=None,
                         report_multiple_bugs=False)


def _reference(prog, cfg, shot_index, step_limit=None):
    """(record, amplitudes, steps) of one shot through the reference
    interpreter, drawing from the engine's per-shot generator, under
    `step_limit` (by default, the config's)."""
    shot_seed = sim.derive_shot_seed(cfg.seed, shot_index)
    outputs, evidence, amps, steps, _ = oracles.interpret(
        prog, cfg.classical_mode.value, cfg.noise, random.Random(shot_seed),
        cfg.step_limit if step_limit is None else step_limit)
    return sim.ShotRecord(shot_index, shot_seed, outputs, evidence), amps, steps


# Differential test: random straight-line classical programs, every op, a
# literal allowed in every operand position, against the reference
# interpreter's independent word arithmetic (fixed) or Python arithmetic
# (real).

_VARS = {"fixed": ("f0", "f1", "f2"), "int18": ("i0", "i1"), "bit": ("b0", "b1")}
_NAMES = tuple(name for names in _VARS.values() for name in names)
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


def _decls(draw):
    return tuple(hir.VarDecl(name, kind, draw(_literals(kind)))
                 for kind, names in _VARS.items() for name in names)


def _classical(draw, ops):
    op = draw(st.sampled_from(ops))
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
    return hir.Classical(op, draw(st.sampled_from(_VARS[dkind])), srcs)


@st.composite
def _classical_programs(draw):
    """A straight-line entry block of ops, which the engine folds into its
    initial registers, or the same ops after `h q0; mz q0 -> m`: that draw
    stops the fold, so the ops run in the shot as generated text."""
    instrs = [_classical(draw, sorted(hir.CLASSICAL_OPS))
              for _ in range(draw(st.integers(1, 12)))]
    decls = _decls(draw)
    if draw(st.booleans()):
        return hir.HybridProgram(
            "main", 0, decls,
            (hir.BasicBlock("entry", tuple(instrs), hir.Ret(_NAMES)),))
    prefix = (hir.Gate("h", (0,)), hir.Measure(0, "m", None))
    return hir.HybridProgram(
        "main", 1, decls + (hir.VarDecl("m", "bit", 0),),
        (hir.BasicBlock("entry", prefix + tuple(instrs), hir.Ret(_NAMES)),))


@_DIFFERENTIAL
@given(_classical_programs(), st.sampled_from(list(ClassicalMode)))
def test_classical_ops_match_oracle_fold(prog, mode):
    cfg = ExecConfig(classical_mode=mode)
    try:
        expected, _, _ = _reference(prog, cfg, 0)
    except ZeroDivisionError:
        with pytest.raises(ShotError) as err:
            sim.run_shot(prog, cfg)
        assert isinstance(err.value.cause, DivideByZero)
        return
    got = sim.run_shot(prog, cfg)
    # repr tells 1 from 1.0 and -0.0 from 0.0, and equates nan with nan
    assert repr(got) == repr(expected)


# -- whole-shot behavior --------------------------------------------------------

def _prepend_entry(prog, instrs):
    """New first block running `instrs` once, then jumping to the old entry
    (prepending into the entry block itself would re-run the prep whenever
    the entry is also a loop head)."""
    prep = hir.BasicBlock("test_prep", tuple(instrs),
                          hir.Br(prog.blocks[0].label))
    return hir.HybridProgram(prog.name, prog.qubits, prog.decls,
                             (prep,) + prog.blocks)


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
    blocks = []
    for b in prog.blocks:
        if isinstance(b.terminator, hir.Ret):
            blocks.append(hir.BasicBlock(
                b.label, b.instructions + (hir.Output("counter"),),
                b.terminator))
        else:
            blocks.append(b)
    return hir.HybridProgram(prog.name, prog.qubits, prog.decls, tuple(blocks))


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


# A real-mode angle that overflows to infinity has no finite radians, which
# raises OutOfRange inside the generated code; like any failure inside a
# shot it names shot, block, line.
_OVERFLOWS = """proc main qubits 1
  var fixed a = 0.0001
  var fixed b = 0.0
entry:
  recip b, a
""" + "  mul b, b, b\n" * 7 + """  rz(b) q0
  ret b
endproc
"""


def test_real_overflow_raises_shot_error():
    prog = hir.parse(_OVERFLOWS)
    with pytest.raises(ShotError) as err:
        sim.run_shots(prog, ExecConfig(), [4])
    e = err.value
    assert (e.shot_index, e.block, e.line) == (4, "entry", 13)
    assert isinstance(e.cause, OutOfRange)
    # Q2.16 words wrap instead, so the same program runs in fixed mode.
    assert sim.run_shot(prog, ExecConfig(classical_mode=FIXED)).outputs


# -- the compile cache ----------------------------------------------------------

# The `mul` reads `h`, which a random measurement decides, so it runs in
# the shot: values that no measurement decides may be computed once, when
# the source is generated.
_MULTIPLIES = """proc main qubits 1
  var fixed a = 0.75
  var fixed h = 0.0
  var bit m = 0
entry:
  h q0
  mz q0 -> m
  select h, m, 0.5, 0.5
  mul a, a, h
  rz(a) q0
  ret a
endproc
"""


def test_cached_compile_calls_the_current_fixedpoint_ops(monkeypatch):
    prog = hir.parse(_MULTIPLIES)
    cfg = ExecConfig(classical_mode=FIXED)
    want = sim.run_shot(prog, cfg)
    calls = []
    mul_raw = fx.mul_raw

    def counted(a, b):
        calls.append((a, b))
        return mul_raw(a, b)

    monkeypatch.setattr(fx, "mul_raw", counted)
    assert sim.run_shot(prog, cfg) == want
    assert calls == [(fx.encode(0.75), fx.encode(0.5))]


def test_memo_sits_below_the_hooked_fixedpoint_ops(monkeypatch):
    # A warm reciprocal memo answers every divisor of an RWPE shot, yet each
    # `div` the shot still runs calls the module function by name.  The
    # known `recip t, sigma` and `div a_orc, -0.5, sigma` run when the
    # source is generated, through the same module functions.
    prog = build_rwpe()
    cfg = ExecConfig(classical_mode=FIXED)
    want = sim.run_shot(prog, cfg)
    calls = {"recip_raw": 0, "div_raw": 0}

    def counted(name):
        fn = getattr(fx, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(fx, name, counted(name))
    before = fx.recip_prewrap_raw.cache_info()
    assert sim.run_shot(prog, cfg) == want
    after = fx.recip_prewrap_raw.cache_info()
    assert calls == {"recip_raw": 0, "div_raw": 24}
    assert (after.hits - before.hits, after.misses - before.misses) == (24, 0)
    calls.update(recip_raw=0, div_raw=0)
    sim.compile_program(build_rwpe(), cfg)
    assert calls == {"recip_raw": 24, "div_raw": 24}


def test_compile_does_not_check_the_program_again(monkeypatch):
    # Every program was checked when it was built, so compiling one never
    # runs the semantic check.
    prog = hir.parse(_MULTIPLIES)

    def check(prog):
        raise AssertionError("checked again")

    monkeypatch.setattr(hir, "check_semantics", check)
    for mode in ClassicalMode:
        sim.compile_program(prog, ExecConfig(classical_mode=mode))


def test_equal_programs_report_their_own_lines():
    text = _DIVIDES_IN_BLOCK_WORK
    shifted = text.replace("work:\n", "work:\n  # a comment shifts the lines\n")
    first, second = hir.parse(text), hir.parse(shifted)
    assert first == second
    for prog, line in ((first, 9), (second, 10), (first, 9)):
        with pytest.raises(ShotError) as err:
            sim.run_shot(prog, ExecConfig())
        assert (err.value.block, err.value.line) == ("work", line)


def test_compile_cache_is_bounded():
    # The generated code lives on the program object, one entry per mode
    # and noise switch: noise models differ only in namespace values.
    prog = hir.parse(_MULTIPLIES)
    for mode in ClassicalMode:
        for noise in (None, NoiseModel(), NoiseModel(0.1, 0.2, 0.3),
                      NoiseModel(0, 0, 0)):
            for _ in range(3):
                sim.compile_program(prog, ExecConfig(classical_mode=mode,
                                                     noise=noise))
    assert len(prog.generated) == 4
    # An equal program object keeps its own, still empty, entries.
    other = hir.parse(_MULTIPLIES)
    assert other == prog and other.generated == {}


def test_compile_cache_is_thread_safe():
    # Threads compile fresh programs and one shared program object at once,
    # so they fill and read the shared program's entries concurrently.
    text = hir.emit(build_teleport())
    shared = hir.parse(text)
    cfg = ExecConfig(seed=3, shots=5)
    want = sim.run_shots(hir.parse(text), cfg)
    results, errors = [], []

    def work():
        try:
            for _ in range(25):
                results.append(sim.run_shots(hir.parse(text), cfg) == want)
                results.append(sim.run_shots(shared, cfg) == want)
        except Exception as e:      # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [True] * 200
    assert list(shared.generated) == [(ClassicalMode.EXACT_REAL, False)]


def _linecache_entries():
    gc.collect()
    return [name for name in linecache.cache if name.startswith("<hir ")]


def test_linecache_is_bounded_and_keeps_live_programs():
    live = sim.compile_program(hir.parse(_DIVIDES_IN_BLOCK_WORK), ExecConfig())
    for i in range(300):
        text = _MULTIPLIES.replace("proc main", f"proc p{i}")
        sim.compile_program(hir.parse(text), ExecConfig())
    # the code cache's sources, plus the one `live` still runs
    assert len(_linecache_entries()) <= codegen.CACHE_SIZE + 1
    # The source of a compiled program that is still alive stays readable.
    assert live.filename in linecache.cache
    with pytest.raises(ShotError) as err:
        live.shot(0, 0, 100)
    assert "r1 = recip_fixed(r0)" in "".join(
        traceback.format_exception(err.value.cause))


def test_each_code_object_keeps_its_own_linecache_entry():
    prog = hir.parse(_DIVIDES_IN_BLOCK_WORK)
    first = sim.compile_program(prog, ExecConfig())
    codegen.code.cache_clear()
    second = sim.compile_program(prog, ExecConfig())
    assert first.run.__code__ is not second.run.__code__
    assert first.filename != second.filename
    both = set(_linecache_entries())
    assert {first.filename, second.filename} <= both
    dropped = first.filename
    del first
    assert both - set(_linecache_entries()) == {dropped}


# Differential test: the generated engine against the reference interpreter
# on random programs with control flow.  Blocks form a chain; each ends in a
# `br` or a `condbr` to later blocks, on a bit just measured or just
# compared, and the last one returns, so a one-block program is a
# straight-line one.  At most one back edge, bounded by the int18 counter
# `k`, makes a loop.  Qubit counts fall on both sides of
# `codegen.UNROLL_QUBITS`, so both kernel forms are checked.  Records,
# amplitudes and step counts must agree exactly.
#
# `mul`, `recip` and `div` stay in the straight-line classical test above:
# repeated under a loop they could grow a real-mode int18 register without
# bound or drive an angle to infinity.

_HEAVY_NOISE = NoiseModel(p_gate1=0.3, p_gate2=0.4, p_readout=0.3)
_LOOP_SAFE_OPS = ("add", "cmp_eq", "cmp_lt", "neg", "select", "sub")
_ANGLE = st.one_of(st.sampled_from(_VARS["fixed"]),
                   st.floats(fx.REAL_MIN, fx.REAL_MAX))


def _measurement(draw, n):
    record = draw(st.sampled_from([None, _VARS["fixed"][:2]]))
    return hir.Measure(draw(st.integers(0, n - 1)),
                       draw(st.sampled_from(_VARS["bit"])), record)


def _instruction(draw, n):
    choices = ["active_reset", "classical", "output"]
    if n >= 1:
        choices += ["h", "x", "sx", "rz", "mz", "reset"]
    if n >= 2:
        choices += ["crz", "eswap", "cnot"]
    kind = draw(st.sampled_from(choices))
    if kind == "active_reset":
        return hir.ActiveReset()
    if kind == "classical":
        return _classical(draw, _LOOP_SAFE_OPS)
    if kind == "output":
        return hir.Output(draw(st.sampled_from(_NAMES + ("k",))))
    if kind == "mz":
        return _measurement(draw, n)
    q = draw(st.integers(0, n - 1))
    if kind == "reset":
        return hir.Reset(q)
    if hir.GATE_ARITY[kind] == 1:
        return hir.Gate(kind, (q,), draw(_ANGLE) if kind == "rz" else None)
    qs = (q, draw(st.integers(0, n - 1).filter(lambda r: r != q)))
    return hir.Gate(kind, qs, None if kind == "cnot" else draw(_ANGLE))


@st.composite
def _control_flow_programs(draw):
    n = draw(st.integers(0, codegen.UNROLL_QUBITS + 2))
    nblocks = draw(st.integers(1, 6))
    labels = [f"b{j}" for j in range(nblocks)]
    # (head, latch, counter, its test, bound) of each loop: the latch
    # jumps back to the head.  A second loop nests inside the first.
    loops = []
    if nblocks >= 2 and draw(st.booleans()):
        latch = draw(st.integers(0, nblocks - 2))
        head = draw(st.integers(0, latch))
        loops.append((head, latch, "k", "more", draw(st.integers(1, 3))))
        if latch > head and draw(st.booleans()):
            inner = draw(st.integers(head, latch - 1))
            loops.append((draw(st.integers(head, inner)), inner, "k2", "more2",
                          draw(st.integers(1, 3))))
    latches = {loop[1]: loop for loop in loops}
    # (block, target): a branch into the first loop's body that skips its
    # head, which makes the loop irreducible
    skip = None
    if loops and 0 < loops[0][0] < loops[0][1] and draw(st.booleans()):
        skip = (draw(st.integers(0, loops[0][0] - 1)),
                draw(st.integers(loops[0][0] + 1, loops[0][1])))
    blocks = []
    for j, label in enumerate(labels):
        size = draw(st.integers(0, 14 // nblocks))
        body = [_instruction(draw, n) for _ in range(size)]
        later = st.sampled_from(labels[j + 1:])
        # mostly the next block, so that fewer blocks go unreached
        onward = st.one_of(st.just(labels[min(j + 1, nblocks - 1)]), later)
        if j == nblocks - 1:
            term = hir.Ret(_NAMES + ("k", "k2"))
        elif j in latches:
            head, _, k, more, bound = latches[j]
            body += [hir.Classical("add", k, (k, 1)),
                     hir.Classical("cmp_lt", more, (k, bound))]
            term = hir.CondBr(more, labels[head], draw(onward))
        else:
            branch = draw(st.sampled_from(["br", "measured", "compared"]))
            if branch == "br" and (skip is None or j != skip[0]):
                term = hir.Br(draw(onward))
            else:
                test = _measurement(draw, n) if branch == "measured" and n else \
                    _classical(draw, ("cmp_eq", "cmp_lt"))
                body.append(test)
                term = hir.CondBr(test.dest, labels[skip[1]] if skip and j == skip[0]
                                  else draw(later), draw(onward))
        blocks.append(hir.BasicBlock(label, tuple(body), term))
    decls = _decls(draw) + tuple(hir.VarDecl(name, kind, 0) for name, kind in (
        ("k", "int18"), ("more", "bit"), ("k2", "int18"), ("more2", "bit")))
    return hir.HybridProgram("main", n, decls, tuple(blocks))


# Edges of the entry-block fold (`codegen.Generator.walk`), as programs.
_FOLD_EDGES = {
    # The entry block is also the loop head, so none of it may fold.
    "entry-is-loop-head": """proc main qubits 1
  var int18 k = 0
  var bit more = 0
  var fixed f0 = 0.25
b0:
  x q0
  rz(f0) q0
  add k, k, 1
  cmp_lt more, k, 3
  condbr more, b0, b1
b1:
  ret f0, k
endproc
""",
    # p = 0: both draws fold into bare draws, and the fold stops at `mz q0`,
    # whose q0 = 1 member `h q0` makes live.
    "fresh-qubit-p0": """proc main qubits 2
  var bit b0 = 0
  var fixed f0 = 0.5
entry:
  reset q1
  mz q1 -> b0
  h q0
  rz(f0) q0
  mz q0 -> b0
  ret b0
endproc
""",
    # p = 1, but q0 = 1 is live at `mz q0`: the fold stops there, and the
    # `mz` stays in the shot.
    "x-then-mz-p1": """proc main qubits 1
  var bit b0 = 0
entry:
  x q0
  mz q0 -> b0
  h q0
  ret b0
endproc
""",
    # The loop form: the folded amplitudes are copied into each shot, which
    # the measurement then collapses in place.
    "six-qubits": """proc main qubits 6
  var bit b0 = 0
entry:
  h q0
  x q5
  cnot q0, q5
  h q2
  mz q2 -> b0
  h q0
  ret b0
endproc
""",
    # A constant division by zero raises in the prefix, so nothing folds;
    # the shot raises it.
    "div-by-zero": """proc main qubits 1
  var fixed a = 0.5
  var fixed b = 0.0
entry:
  x q0
  div a, 1.0, b
  ret a
endproc
""",
    # The walk folds `x q0; h q1`, then raises at the known `div` after the
    # prefix: the fold stays, and `add c` gets no table.
    "walk-raises-after-the-fold": """proc main qubits 2
  var fixed a = 0.5
  var fixed b = 0.0
  var bit m = 0
  var int18 c = 0
entry:
  x q0
  h q1
  mz q1 -> m
  div a, 1.0, b
  br next
next:
  add c, c, 1
  ret a, c
endproc
""",
}

# Edges of the known-value tables (`codegen.Generator.walk`), as programs.
_TABLE_EDGES = {
    # RWPE's shape: a loop that no measurement ends, around a diamond that
    # a measurement picks.  `s`, `k` and `more` are known; `mu` is not.
    "known-loop-dynamic-diamond": """proc main qubits 1
  var int18 k = 0
  var bit more = 0
  var bit m = 0
  var fixed s = 0.5
  var fixed mu = 0.0
prep:
  h q0
  br head
head:
  cmp_lt more, k, 3
  condbr more, body, done
body:
  mul s, s, 0.75
  rz(s) q0
  h q0
  mz q0 -> m
  condbr m, up, down
up:
  add mu, mu, s
  br tail
down:
  sub mu, mu, s
  br tail
tail:
  add k, k, 1
  br head
done:
  ret mu, s, k
endproc
""",
    # 2N + 3 visits: (WALK_VISITS - 3) // 2 + 1 trips is one too many.
    "known-loop-past-the-bound": """proc main qubits 1
  var int18 k = 0
  var bit more = 0
entry:
  x q0
  br head
head:
  cmp_lt more, k, {trips}
  condbr more, body, done
body:
  add k, k, 1
  br head
done:
  ret k
endproc
""".format(trips=(codegen.WALK_VISITS - 3) // 2 + 1),
    # A known branch inside a known loop: `odd` toggles every trip, so the
    # walk visits head, body, one of up and down, and tail: 4N + 3 visits,
    # and (WALK_VISITS - 3) // 4 + 1 trips is one too many.  The walk
    # places `tail` after the `if` of `body`, so a bound that counted only
    # the visits to dispatch arms would let these trips through.
    "known-diamond-in-known-loop": """proc main qubits 1
  var int18 k = 0
  var int18 j = 0
  var bit more = 0
  var bit odd = 0
entry:
  x q0
  br head
head:
  cmp_lt more, k, {trips}
  condbr more, body, done
body:
  cmp_eq odd, odd, 0
  condbr odd, up, down
up:
  add j, j, 2
  br tail
down:
  sub j, j, 1
  br tail
tail:
  add k, k, 1
  br head
done:
  ret j, k
endproc
""".format(trips=(codegen.WALK_VISITS - 3) // 4 + 1),
    # The second trip divides by zero: the walk raises, so nothing is
    # tabled and the shot raises it at its own block and line.
    "late-recip-of-zero": """proc main qubits 1
  var int18 k = 0
  var bit more = 0
  var fixed f = 0.5
  var fixed g = 0.0
entry:
  h q0
  br head
head:
  cmp_lt more, k, 3
  condbr more, body, done
body:
  sub f, f, 0.25
  recip g, f
  add k, k, 1
  br head
done:
  ret g, k
endproc
""",
    # The walk stops at a branch one of whose arms returns; `rest` runs in
    # some shots only, so its phase of the known `f` stays in the shot.
    "dynamic-ret-then-known": """proc main qubits 1
  var fixed f = 0.25
  var bit m = 0
prep:
  h q0
  br work
work:
  add f, f, 0.25
  rz(f) q0
  h q0
  mz q0 -> m
  condbr m, stop, rest
stop:
  ret f
rest:
  rz(f) q0
  ret f
endproc
""",
    # `add c, c, 1` reads only itself and a literal, but a measurement
    # decides whether it runs, so `c` is not known and stays in the shot.
    "dynamic-known-looking": """proc main qubits 1
  var int18 c = 0
  var int18 k = 0
  var bit more = 0
  var bit m = 0
prep:
  h q0
  br head
head:
  mz q0 -> m
  h q0
  condbr m, extra, join
extra:
  add c, c, 1
  br join
join:
  add k, k, 1
  cmp_lt more, k, 3
  condbr more, head, done
done:
  ret c, k
endproc
""",
    # `head` computes nothing known, but branches on `more`, which `tail`
    # computes: the walk still follows that branch, so `body`'s phase of
    # the known `s` and `tail`'s work are tabled, and `head` reads nothing.
    "known-branch-without-known-work": """proc main qubits 1
  var int18 k = 0
  var bit more = 1
  var bit m = 0
  var fixed s = 0.5
  var fixed mu = 0.0
prep:
  h q0
  br head
head:
  condbr more, body, done
body:
  rz(s) q0
  h q0
  mz q0 -> m
  condbr m, up, down
up:
  add mu, mu, s
  br tail
down:
  sub mu, mu, s
  br tail
tail:
  mul s, s, 0.75
  add k, k, 1
  cmp_lt more, k, 3
  br head
done:
  ret mu, s, k
endproc
""",
    # `spin` never returns, so it has no post-dominator and `body`'s branch
    # makes nothing control-dependent: `head`'s counter is still tabled.
    "branch-into-endless-loop": """proc main qubits 1
  var int18 k = 0
  var bit more = 0
  var bit m = 0
prep:
  h q0
  br head
head:
  add k, k, 1
  cmp_lt more, k, 4
  condbr more, body, done
body:
  mz q0 -> m
  h q0
  condbr m, spin, head
spin:
  br spin
done:
  ret k
endproc
""",
}


# Edges of block placement (`codegen._place`), as programs.
_LAYOUT_EDGES = {
    # `dead` never runs: it is left out, and `join` merges `entry`'s branch.
    "unreachable-block": """proc main qubits 1
  var bit m = 0
  var int18 k = 0
entry:
  h q0
  mz q0 -> m
  condbr m, up, join
dead:
  add k, k, 7
  br join
up:
  add k, k, 1
  br join
join:
  add k, k, 2
  ret k
endproc
""",
    # `spin` never reaches `ret`: every shot that enters it runs out of steps.
    "endless-loop": """proc main qubits 1
  var bit m = 0
  var int18 k = 0
entry:
  h q0
  mz q0 -> m
  condbr m, spin, done
spin:
  x q0
  add k, k, 1
  br spin
done:
  ret m, k
endproc
""",
    # `join` has three predecessors, one of them under `inner`'s branch,
    # which merges nothing itself.
    "three-way-merge": """proc main qubits 1
  var bit m = 0
  var int18 k = 0
entry:
  h q0
  mz q0 -> m
  condbr m, inner, other
inner:
  h q0
  mz q0 -> m
  condbr m, extra, join
extra:
  add k, k, 1
  br join
other:
  add k, k, 2
  br join
join:
  ret m, k
endproc
""",
    # `side` is entered from under `inner`'s branch and from `other`, and
    # `inner` jumps past it to `join`: no rule places either, so each
    # gets an arm.
    "past-an-inner-merge": """proc main qubits 1
  var bit m = 0
  var int18 k = 0
entry:
  h q0
  mz q0 -> m
  condbr m, inner, other
inner:
  h q0
  mz q0 -> m
  condbr m, side, join
other:
  add k, k, 2
  br side
side:
  add k, k, 1
  br join
join:
  ret m, k
endproc
""",
}

# Edges of the support analysis (`codegen._support`), as programs.  Each
# makes the differential test fail at once when one transfer is unsound.
_SUPPORT_EDGES = {
    # The `cnot` moves nothing, then noise: its Pauli on q1 must see the
    # states that its Pauli on q0 made live.
    "noisy-cnot-from-00": """proc main qubits 2
  var bit m0 = 0
  var bit m1 = 0
entry:
  cnot q0, q1
  mz q0 -> m0
  mz q1 -> m1
  ret m0, m1
endproc
""",
    # Each reset of `active_reset` must see the states the one before it
    # left: resetting q0 moves |1x> onto |0x>, where q1's reset must act.
    "active-reset-after-x": """proc main qubits 2
  var bit m = 0
entry:
  h q1
  x q0
  active_reset
  mz q1 -> m
  ret m
endproc
""",
    # RWPE's shape: q1 is prepared once, and `h` must make q0's partner
    # live, or `crz` (on q0 = 1) touches nothing.
    "looped-eigenstate": """proc main qubits 2
  var int18 k = 0
  var bit more = 0
  var bit d = 0
prep:
  x q1
  br head
head:
  reset q0
  h q0
  crz(0.5) q0, q1
  h q0
  mz q0 -> d
  add k, k, 1
  cmp_lt more, k, 3
  condbr more, head, done
done:
  ret d, k
endproc
""",
    # `inf - inf` is NaN: a NaN phase on states no shot reaches turned the
    # reference's zeros into NaN where the engine skipped them, so the two
    # measured differently; both raise at the `crz` now.
    "nan-angle": """proc main qubits 2
  var fixed x = 1.5
  var fixed y = 0.0
  var bit m = 0
entry:
""" + "  mul x, x, x\n" * 12 + """  sub y, x, x
  crz(y) q0, q1
  h q0
  mz q0 -> m
  ret m
endproc
""",
}


def _arms(source: str) -> list[int]:
    """The block index of each arm of `run`'s dispatch."""
    return [int(b) for b in re.findall(r"^ +(?:el)?if b == (\d+):$", source, re.M)]


@pytest.mark.parametrize("name, arms", [
    ("unreachable-block", ["entry"]), ("endless-loop", ["entry", "spin"]),
    ("three-way-merge", ["entry"]),
    ("past-an-inner-merge", ["entry", "side", "join"])])
def test_blocks_get_an_arm_only_where_no_rule_places_them(name, arms):
    prog = hir.parse(_LAYOUT_EDGES[name])
    labels = [b.label for b in prog.blocks]
    for mode in ClassicalMode:
        source = _source(_LAYOUT_EDGES[name], mode)
        assert _arms(source) == [labels.index(a) for a in arms]
    # each block that runs is placed once
    reached = len(labels) - (name == "unreachable-block")
    assert source.count("steps += ") == reached


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("noise", [None, NoiseModel()], ids=["ideal", "noise"])
def test_rwpe_dispatches_once_per_iteration(mode, noise):
    # `prep` and the loop head `head`: every other block is placed under
    # the head's branch, in `run` and in the known-value walk alike.
    codegen.code.cache_clear()
    source = sim.compile_program(build_rwpe(), ExecConfig(
        classical_mode=mode, noise=noise)).source
    assert _arms(source) == [0, 1]
    walks = [name for name in _linecache_entries() if name.startswith("<hir walk:")]
    assert len(walks) == 1
    assert _arms("".join(linecache.cache[walks[0]][2])) == [0, 1]


def test_blocks_nest_no_deeper_than_the_cap():
    # Each `c{j}` enters the next under its branch; past `_NESTING` levels
    # the next one gets an arm of its own, and so does `done`, which is
    # now entered from both arms.
    depth = codegen._NESTING + 8
    text = "proc main qubits 1\n  var bit m = 0\n  var int18 k = 0\n"
    for j in range(depth):
        text += (f"c{j}:\n  reset q0\n  x q0\n  add k, k, 1\n  mz q0 -> m\n"
                 f"  condbr m, c{j + 1}, done\n")
    text += f"c{depth}:\n  ret k\ndone:\n  ret k\nendproc\n"
    prog = hir.parse(text)
    assert _arms(_source(text)) == [0, codegen._NESTING + 1, depth + 1]
    cfg = ExecConfig(seed=3, noise=NoiseModel())
    compiled = sim.compile_program(prog, cfg)
    for i in range(4):
        want, want_amps, steps = _reference(prog, cfg, i)
        record, amps = compiled.shot(cfg.seed, i, steps)
        assert (repr(record), repr(oracles.unsigned_zeros(amps))) == \
            (repr(want), repr(oracles.unsigned_zeros(want_amps)))
        _assert_runs_out(compiled, cfg, i, steps - 1,
                         _out_of_steps(prog, cfg, i, steps - 1))


@_DIFFERENTIAL
@given(_control_flow_programs(), st.sampled_from(list(ClassicalMode)),
       st.sampled_from([None, NoiseModel(), _HEAVY_NOISE]),
       st.integers(0, 2 ** 32 - 1))
@example(hir.parse(_FOLD_EDGES["entry-is-loop-head"]), ClassicalMode.EXACT_REAL,
         None, 0)
@example(hir.parse(_FOLD_EDGES["fresh-qubit-p0"]), FIXED, None, 1)
@example(hir.parse(_FOLD_EDGES["x-then-mz-p1"]), ClassicalMode.EXACT_REAL,
         None, 2)
@example(hir.parse(_FOLD_EDGES["six-qubits"]), ClassicalMode.EXACT_REAL, None, 3)
@example(hir.parse(_FOLD_EDGES["div-by-zero"]), FIXED, None, 4)
@example(hir.parse(_FOLD_EDGES["div-by-zero"]), ClassicalMode.EXACT_REAL,
         None, 5)
@example(hir.parse(_FOLD_EDGES["walk-raises-after-the-fold"]), FIXED, None, 20)
@example(hir.parse(_FOLD_EDGES["walk-raises-after-the-fold"]),
         ClassicalMode.EXACT_REAL, None, 21)
@example(hir.parse(_TABLE_EDGES["known-loop-dynamic-diamond"]), FIXED,
         _HEAVY_NOISE, 6)
@example(hir.parse(_TABLE_EDGES["known-loop-dynamic-diamond"]),
         ClassicalMode.EXACT_REAL, None, 7)
@example(hir.parse(_TABLE_EDGES["known-loop-past-the-bound"]),
         ClassicalMode.EXACT_REAL, None, 8)
@example(hir.parse(_TABLE_EDGES["late-recip-of-zero"]), FIXED, None, 9)
@example(hir.parse(_TABLE_EDGES["late-recip-of-zero"]), ClassicalMode.EXACT_REAL,
         NoiseModel(), 10)
@example(hir.parse(_TABLE_EDGES["dynamic-ret-then-known"]), FIXED,
         _HEAVY_NOISE, 11)
@example(hir.parse(_TABLE_EDGES["dynamic-known-looking"]),
         ClassicalMode.EXACT_REAL, NoiseModel(), 12)
@example(hir.parse(_TABLE_EDGES["known-branch-without-known-work"]), FIXED,
         _HEAVY_NOISE, 13)
@example(hir.parse(_TABLE_EDGES["known-branch-without-known-work"]),
         ClassicalMode.EXACT_REAL, None, 14)
@example(hir.parse(_LAYOUT_EDGES["unreachable-block"]), FIXED, NoiseModel(), 15)
@example(hir.parse(_LAYOUT_EDGES["endless-loop"]), ClassicalMode.EXACT_REAL,
         None, 16)
@example(hir.parse(_LAYOUT_EDGES["three-way-merge"]), FIXED, _HEAVY_NOISE, 17)
@example(hir.parse(_LAYOUT_EDGES["past-an-inner-merge"]),
         ClassicalMode.EXACT_REAL, _HEAVY_NOISE, 18)
@example(hir.parse(_TABLE_EDGES["known-diamond-in-known-loop"].replace(
    f"k, {(codegen.WALK_VISITS - 3) // 4 + 1}", "k, 5")), FIXED, None, 19)
@example(hir.parse(_SUPPORT_EDGES["noisy-cnot-from-00"]), ClassicalMode.EXACT_REAL,
         _HEAVY_NOISE, 32)
@example(hir.parse(_SUPPORT_EDGES["active-reset-after-x"]), FIXED, None, 31)
@example(hir.parse(_SUPPORT_EDGES["looped-eigenstate"]), ClassicalMode.EXACT_REAL,
         None, 30)
@example(hir.parse(_SUPPORT_EDGES["nan-angle"]), ClassicalMode.EXACT_REAL, None, 0)
def test_engine_matches_reference_interpreter(prog, mode, noise, seed):
    # Generated programs take at most about 1000 steps; a loop that never
    # returns runs out of them.
    cfg = ExecConfig(classical_mode=mode, noise=noise, seed=seed, step_limit=2000)
    compiled = sim.compile_program(prog, cfg)
    returned = []
    for i in range(3):
        try:
            want, want_amps, steps = _reference(prog, cfg, i)
        except oracles.OutOfSteps as e:
            _assert_runs_out(compiled, cfg, i, cfg.step_limit, e)
            continue
        except (oracles.DividedByZero, oracles.NonFiniteAngle) as e:
            with pytest.raises(ShotError) as err:
                compiled.shot(cfg.seed, i, e.steps)
            assert isinstance(err.value.cause, OutOfRange
                              if isinstance(e, oracles.NonFiniteAngle)
                              else DivideByZero)
            assert (err.value.block, err.value.line) == (e.block, e.line)
            # the failing block charged its steps before it raised
            _assert_runs_out(compiled, cfg, i, e.steps - 1,
                             _out_of_steps(prog, cfg, i, e.steps - 1))
            continue
        record, amps = compiled.shot(cfg.seed, i, steps)
        returned.append(amps)
        # repr tells 1 from 1.0 and -0.0 from 0.0; amplitudes are compared
        # bit for bit but for the sign of zero components
        assert repr(record) == repr(want)
        assert amps == want_amps
        assert repr(oracles.unsigned_zeros(amps)) == \
            repr(oracles.unsigned_zeros(want_amps))
        # the shot needs exactly `steps`: one fewer exhausts the budget
        _assert_runs_out(compiled, cfg, i, steps - 1,
                         _out_of_steps(prog, cfg, i, steps - 1))
    # Each shot returns its own list, never the initial amplitudes themselves.
    assert len({id(amps) for amps in returned}) == len(returned)


def _out_of_steps(prog, cfg, shot_index, limit) -> oracles.OutOfSteps:
    """What the reference raises for one shot under step limit `limit`."""
    with pytest.raises(oracles.OutOfSteps) as out:
        _reference(prog, cfg, shot_index, limit)
    return out.value


def _assert_runs_out(compiled, cfg, shot_index, limit, want):
    """Under step limit `limit`, the shot runs out of steps at the block
    and line where the reference did (`want`, its OutOfSteps)."""
    with pytest.raises(ShotError) as err:
        compiled.shot(cfg.seed, shot_index, limit)
    assert isinstance(err.value.cause, StepLimitExceeded)
    assert (err.value.block, err.value.line) == (want.block, want.line)


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("noise", [None, NoiseModel()], ids=["ideal", "noise"])
def test_rwpe_runs_out_of_steps_where_the_reference_does(mode, noise):
    # Every step limit short of the shot's steps, one reference run per
    # block visit: the limits from one visit's charge up to the next's
    # run out at the next visit's block.
    prog = build_rwpe()
    cfg = ExecConfig(classical_mode=mode, noise=noise, seed=21)
    compiled = sim.compile_program(prog, cfg)
    _, _, steps = _reference(prog, cfg, 0)
    limit = 1
    while limit < steps:
        want = _out_of_steps(prog, cfg, 0, limit)
        for short in range(limit, want.steps):
            _assert_runs_out(compiled, cfg, 0, short, want)
        limit = want.steps
    assert limit == steps
    compiled.shot(cfg.seed, 0, steps)


def _source(text, mode=ClassicalMode.EXACT_REAL):
    return sim.compile_program(hir.parse(text), ExecConfig(classical_mode=mode)).source


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("noise", [None, NoiseModel()], ids=["ideal", "noise"])
def test_rwpe_computes_no_known_value_in_the_shot(mode, noise):
    # sigma's schedule is the same in every shot: `recip t, sigma` and the
    # crz phase of `a_orc` are table reads; only rz(a_inv)'s phase remains.
    source = sim.compile_program(build_rwpe(), ExecConfig(
        classical_mode=mode, noise=noise)).source
    assert "recip_fixed(" not in source
    assert source.count("cos(") == 1
    assert "p0, p1 = R[" in source


def test_tables_follow_the_walk_and_leave_the_rest_in_the_shot():
    diamond = _source(_TABLE_EDGES["known-loop-dynamic-diamond"])
    assert "r3 = R[0]" in diamond and "p0, p1 = R[1]" in diamond    # s, rz(s)
    assert "r4 = r4 + r3" in diamond and "r4 = r4 - r3" in diamond  # mu
    ret = _source(_TABLE_EDGES["dynamic-ret-then-known"], FIXED)
    assert "r0 = R[0]" in ret and "p0, p1 = R[1]" in ret
    assert ret.count("cos(") == 1
    looking = _source(_TABLE_EDGES["dynamic-known-looking"])
    assert "r0 = r0 + c" in looking and "r1 = R[0]" in looking


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_a_known_branch_is_followed_from_a_block_without_known_work(mode):
    source = _source(_TABLE_EDGES["known-branch-without-known-work"], mode)
    # blocks: prep 0, head 1, body 2, up 3, down 4, tail 5, done 6
    assert "next2 = iter(T2).__next__" in source     # rz(s)
    assert "next5 = iter(T5).__next__" in source     # s, k, more
    assert "next1" not in source and "T1" not in source
    assert source.count("cos(") == 0


def test_a_branch_into_an_endless_loop_keeps_the_tables():
    text = _TABLE_EDGES["branch-into-endless-loop"]
    prog = hir.parse(text)
    assert "R = next1()" in _source(text)
    cfg = ExecConfig(seed=13, step_limit=40)
    compiled = sim.compile_program(prog, cfg)
    spun = 0
    for i in range(40):
        try:
            want, want_amps, steps = _reference(prog, cfg, i)
        except oracles.OutOfSteps:
            spun += 1
            with pytest.raises(ShotError) as err:
                compiled.shot(cfg.seed, i, cfg.step_limit)
            assert isinstance(err.value.cause, StepLimitExceeded)
            assert err.value.block == "spin"
            continue
        record, amps = compiled.shot(cfg.seed, i, steps)
        assert (repr(record), repr(oracles.unsigned_zeros(amps))) == \
            (repr(want), repr(oracles.unsigned_zeros(want_amps)))
    assert 0 < spun < 40


def test_a_walk_that_fails_leaves_the_source_without_tables(monkeypatch):
    # Past the visit bound, or raising, the walk gives no tables: the
    # source is the one a program with no known register gets.
    def source_without_known(text, mode):
        with monkeypatch.context() as m:
            m.setattr(codegen, "_known", lambda prog, *flow: (
                frozenset(), [False] * len(prog.blocks)))
            return _source(text, mode)

    for name, mode in (("known-loop-past-the-bound", ClassicalMode.EXACT_REAL),
                       ("known-diamond-in-known-loop", FIXED),
                       ("late-recip-of-zero", FIXED)):
        source = _source(_TABLE_EDGES[name], mode)
        assert "iter(" not in source
        assert source == source_without_known(_TABLE_EDGES[name], mode)
    # One trip fewer stays within the bound and is tabled.
    for name, visits_per_trip in (("known-loop-past-the-bound", 2),
                                  ("known-diamond-in-known-loop", 4)):
        fewer = (codegen.WALK_VISITS - 3) // visits_per_trip
        text = _TABLE_EDGES[name].replace(f"k, {fewer + 1}", f"k, {fewer}")
        assert "next1 = iter(T1).__next__" in _source(text)


def _born_reads(body) -> list[int]:
    """The amplitudes each Born sum among the chunks `body` reads."""
    return [text.count("t1 = ") for text, _ in body if "p = 0.0" in text]


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_rwpe_kernels_touch_only_the_states_a_shot_can_reach(mode):
    # Without noise q1 stays in |1>, so the Born sums of `reset q0` and
    # `mz q0` read a3 alone; gate noise on q1 makes |q1 = 0> reachable too.
    domain = sim.select_domain(mode)
    for noisy, reads in ((False, [1, 1]), (True, [2, 2])):
        chunks = codegen.Generator(build_rwpe(), domain, noisy).chunks
        assert _born_reads([c for c in chunks if c[1][0] == "iterate"]) == reads


def test_support_keeps_every_tuple_where_the_entry_never_goes():
    text = """proc main qubits 2
  var bit m = 0
entry:
  mz q1 -> m
  br done
dead:
  mz q1 -> m
  br done
done:
  mz q1 -> m
  ret m
endproc
"""
    gen = codegen.Generator(hir.parse(text), sim.select_domain(FIXED), False)
    # the entry's `mz` folds; `done` reads the one state the shot reaches
    assert [_born_reads(body) for body in gen.bodies] == [[], [2], [1]]


_ESWAP_THEN_MZ = """proc main qubits 2
  var bit d = 0
entry:
  x q0
  eswap({}) q0, q1
  mz q0 -> d
  ret d
endproc
"""


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_the_fold_stops_at_the_first_draw_that_may_come_out_1(mode):
    domain = sim.select_domain(mode)

    def generate(text):
        return codegen.Generator(hir.parse(text), domain, False)

    # `reset q1` and `mz q1` draw with p = 0.0 from |00>: two bare draws,
    # and the one Born sum left is `mz q0`'s
    fresh = generate(_FOLD_EDGES["fresh-qubit-p0"])
    assert fresh.bodies[0][1][0] == "rand()\nrand()"
    assert _born_reads(fresh.bodies[0]) == [1] and "t1 = a2" in fresh.source
    # `x q0` folds; `mz q0` has p = 1 but stays in the shot
    p1 = generate(_FOLD_EDGES["x-then-mz-p1"])
    assert p1.static["A0"] == [0j, 1 + 0j]
    assert _born_reads(p1.bodies[0]) == [1] and "rand()\n" not in p1.source
    # The fold's extent depends on the program's shape, not its literals.
    sources = {generate(_ESWAP_THEN_MZ.format(theta)).source
               for theta in (0.0, 0.5)}
    assert len(sources) == 1


@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_a_walk_that_raises_after_the_fold_keeps_the_fold(mode):
    gen = codegen.Generator(hir.parse(_FOLD_EDGES["walk-raises-after-the-fold"]),
                            sim.select_domain(mode), False)
    s = codegen._SQRT_HALF
    assert gen.static["A0"] == [0j, 0j, s + 0j, s + 0j]     # after `h q1`
    assert not [name for name in gen.static if name.startswith("T")]
    assert "iter(" not in gen.source and "div_fixed(" in gen.source


def test_native_ipe_step_computes_no_phase_in_the_shot():
    # Every gate of the lowered IPE step acts before its one random
    # measurement, so the fold computes all its phases at generation time.
    prog = lower_to_native(build_ipe_program(-0.4, 1.7, 0.9), profiles.NATIVE)
    source = sim.compile_program(prog, ExecConfig()).source
    assert "cos(" not in source and "sin(" not in source


# The reference must not share code with the engine it checks: its module
# docstring lists the few package names it may import, and this holds it to
# that list.
_ORACLE_IMPORTS = {
    "hybridsim.hir": {"ActiveReset", "Br", "Classical", "CondBr", "Gate",
                      "Measure", "Output", "Reset", "Ret"},
    "hybridsim.fixedpoint": {"FixedQ216", "Int18", "div_raw", "recip_raw"},
}


def test_oracles_import_only_what_their_docstring_allows():
    tree = ast.parse(Path(oracles.__file__).read_text())
    doc = ast.get_docstring(tree)
    seen = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] not in ("hybridsim", "importlib")
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module != "hybridsim"
            if node.module.startswith("hybridsim."):
                names = {alias.name for alias in node.names}
                assert names <= _ORACLE_IMPORTS.get(node.module, set()), \
                    f"oracles imports {sorted(names)} from {node.module}"
                seen.setdefault(node.module, set()).update(names)
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
    assert seen == _ORACLE_IMPORTS
    for module, names in _ORACLE_IMPORTS.items():
        assert f"`{module}`" in doc
        assert all(f"`{name}`" in doc for name in names)


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
    oracles.apply_noise(s, "h", (0,), rng,
                        NoiseModel(p_gate1=0.0, p_gate2=0.0, p_readout=0.0))
    assert s.amps == [1 + 0j, 0j]          # p = 0 leaves the state alone
    oracles.apply_noise(s, "rz", (0,), rng, NoiseModel(p_gate1=1.0))
    assert s.amps == [1 + 0j, 0j]          # rz exempt even at p = 1
    s2 = QuantumState(2)
    oracles.apply_noise(s2, "eswap", (0, 1), rng, NoiseModel(p_gate2=1.0))
    assert s2.amps != QuantumState(2).amps  # some Pauli landed


def test_measure_surface_readout_flip():
    s = QuantumState(1)
    bit = oracles.measure(s, 0, random.Random(1),
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


def test_exec_config_needs_a_step():
    with pytest.raises(ValueError, match="step_limit must be >= 1"):
        ExecConfig(step_limit=0)


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
    gates = [i for i in prog.blocks[0].instructions
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
    for cfg in (ExecConfig(seed=2),
                ExecConfig(seed=2, classical_mode=FIXED, noise=NoiseModel())):
        _, state = sim.run_shot_debug(prog, cfg, 0)
        assert sum(abs(a) ** 2 for a in state.amps) == \
            pytest.approx(1.0, abs=1e-10)


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
    buf = io.StringIO()
    sim.write_records(records, buf)
    line, = buf.getvalue().splitlines()
    payload = json.loads(line)
    mu = payload["outputs"][0][1]
    assert set(mu) == {"raw", "value"}
    assert mu["value"] == mu["raw"] / 65536
    ev = payload["evidence"][0]
    assert set(ev) == {"t", "phi_inv", "d"}
    assert set(ev["t"]) == {"raw", "value"}


class _Float(float):
    pass


# Values the writer renders by exact type, the memo traps (0.0 == -0.0,
# 1 == 1.0 == True), non-finite and subnormal floats, huge ints, the boxes
# at their boundary words, and what falls back to the json module.
_JSON_SPECIAL = [
    0.0, -0.0, 1, 1.0, True, False, None, math.nan, math.inf, -math.inf,
    5e-324, -2.2250738585072014e-308, 2 ** 200, -2 ** 70, _Float(0.1), "x",
    *map(fx.FixedQ216, fx.BOUNDARY_RAWS), *map(fx.Int18, fx.BOUNDARY_RAWS)]
_JSON_VALUES = st.one_of(
    st.sampled_from(_JSON_SPECIAL), st.floats(), st.integers(),
    st.integers(-2 ** 200, 2 ** 200), st.builds(fx.FixedQ216, _RAW),
    st.builds(fx.Int18, _RAW), st.text(max_size=3))
# Shot, seed and `d` are written as they are, never boxed.
_JSON_BARE = _JSON_VALUES.filter(
    lambda v: not isinstance(v, (fx.FixedQ216, fx.Int18)))
_JSON_NAMES = st.one_of(
    st.sampled_from(["mu", 'say "hi"', "\\", "\u00fcber", "\u03c6\u207b\u00b9",
                     "tab\t", "\U0001f600"]),
    st.text(max_size=4))


def _oracle_jsonl(records) -> str:
    return "".join(json.dumps(oracles.record_to_json(r), separators=(",", ":"))
                   + "\n" for r in records)


def _wide_records(n):
    """Records with more distinct floats and Q2.16 words than each of the
    writer's text caches holds, each value repeated after it has been
    evicted."""
    floats = [(i + 1) * 0.1 for i in range(n)]
    words = [fx.FixedQ216(fx.RAW_MIN + 31 * i) for i in range(n)]
    ev = tuple(zip(floats + floats, words + words, [0, 1] * n))
    return [sim.ShotRecord(k, k, (("w", words[k]),), ev[k::3]) for k in range(3)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(
    sim.ShotRecord, st.one_of(st.integers(0, 2 ** 64), _JSON_BARE),
    st.integers(0, 2 ** 64 - 1),
    st.lists(st.tuples(_JSON_NAMES, _JSON_VALUES), max_size=5).map(tuple),
    st.lists(st.tuples(_JSON_VALUES, _JSON_VALUES, _JSON_BARE),
             max_size=5).map(tuple)),
    max_size=4), st.integers(0, 4))
@example([sim.ShotRecord(0, 1, tuple(("v", v) for v in _JSON_SPECIAL),
                         tuple((v, v, v) for v in _JSON_SPECIAL[:16])),
          sim.ShotRecord(1, 2, (),
                         tuple((v, v, 0) for v in _JSON_SPECIAL[::-1]))], 1)
@example(_wide_records(2 * sim._TEXTS + 5), 2)
# Words 1 and 65536 are 2**-16 and 1.0, and 1 == 1.0: the floats of the
# second call must not find the first call's boxes, nor one zero the other.
@example([sim.ShotRecord(0, 1, (("w", fx.FixedQ216(1)),),
                         ((fx.FixedQ216(65536), fx.FixedQ216(1), 0),)),
          sim.ShotRecord(1, 2, (), ((1.0, -0.0, 0), (2 ** -16, 0.0, 1),
                                    (0.5, -0.0, 0)))], 1)
def test_write_records_matches_reference_encoder(records, cut):
    # Two calls, a prefix and then the rest: what the first leaves in the
    # writer's caches must not change what the second writes.
    for part in records[:cut], records[cut:]:
        buf = io.StringIO()
        sim.write_records(part, buf)
        assert buf.getvalue() == _oracle_jsonl(part)


def test_write_records_calls_write_once_per_record():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=6, shots=3))
    lines = []

    class Sink:
        write = lines.append

    sim.write_records(records, Sink())
    assert lines == _oracle_jsonl(records).splitlines(True)


def test_write_records_renders_every_block_alike():
    # Over more than two blocks, records of two shapes, one with zeros
    # (rendered value by value) and one without.
    rwpe = sim.run_shots(build_rwpe(), ExecConfig(seed=6, shots=3))
    records = [sim.ShotRecord(k, k, (("k", k),), ((0.0, -0.0, 1), (0.5, k, 0)))
               if k % 5 == 0 else sim.ShotRecord(k, rwpe[k % 3].seed,
                                                 rwpe[k % 3].outputs,
                                                 rwpe[k % 3].evidence)
               for k in range(2 * sim._BLOCK + 3)]
    buf = io.StringIO()
    sim.write_records(iter(records), buf)
    assert buf.getvalue() == _oracle_jsonl(records)


def test_write_records_stops_at_the_first_record_it_cannot_write():
    # The lines before a failing record are written, one `write` each, and
    # nothing after it; so are those a failing iterable gave first.  A
    # record whose shape is not a key (a list output name) before the
    # failing one is written too.
    good = sim.run_shots(build_rwpe(), ExecConfig(seed=6, shots=3))
    bad = sim.ShotRecord(7, 8, (("x", object()),), ((0.5, 0.25, 1),))
    listed = sim.ShotRecord(5, 6, ((["mu"], 0.5),), ((0.25, 0.5, 1),))
    want = _oracle_jsonl(good[:2]).splitlines(True)
    lines = []

    class Sink:
        write = lines.append

    for before in [good[:2], good[:2] + [listed]]:
        lines.clear()
        with pytest.raises(TypeError, match="^Object of type object is not "
                                            "JSON serializable$"):
            sim.write_records(before + [bad, good[2]], Sink())
        assert lines == _oracle_jsonl(before).splitlines(True)

    def failing():
        yield from good[:2]
        raise RuntimeError("no more records")

    lines.clear()
    with pytest.raises(RuntimeError, match="no more records"):
        sim.write_records(failing(), Sink())
    assert lines == want


def test_write_records_renders_what_its_columns_cannot_value_by_value():
    # A list as an output name makes the shape key unhashable, and an
    # evidence entry that is not a tuple cannot be split into columns: the
    # record-by-record path, the same renderer without the grouping, writes
    # the first as the reference does and raises the error of splitting the
    # second.
    listed = sim.ShotRecord(0, 1, ((["mu"], 0.5),), ((0.25, 0.5, 1),))
    buf = io.StringIO()
    sim.write_records([listed], buf)
    assert buf.getvalue() == _oracle_jsonl([listed])
    bare = sim.ShotRecord(1, 2, (), (object(),))
    with pytest.raises(TypeError, match="^'object' object is not iterable$"):
        sim.write_records([bare], io.StringIO())


def test_write_records_leaves_no_reference_cycle():
    """What a call builds (blocks, columns, lines) is freed on return, not
    by a later cycle collection: a reference cycle that once kept a call's
    data alive raised the benchmark's peak RSS by 6 MB over 10k RWPE
    shots."""
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=6, shots=3,
                                                     classical_mode=FIXED))
    gc.collect()
    gc.disable()
    try:
        sim.write_records(records, io.StringIO())
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shot_record_is_a_frozen_value():
    rec = sim.ShotRecord(3, 7, (("mu", 0.5),), ((1.5, 0.25, 1),))
    same = sim.ShotRecord(shot=3, seed=7, outputs=(("mu", 0.5),),
                          evidence=((1.5, 0.25, 1),))
    assert rec == same and rec != replace(rec, shot=4)
    assert hash(rec) == hash(same)
    assert repr(rec) == ("ShotRecord(shot=3, seed=7, outputs=(('mu', 0.5),), "
                         "evidence=((1.5, 0.25, 1),))")
    with pytest.raises(FrozenInstanceError):
        rec.shot = 4
    with pytest.raises(FrozenInstanceError):
        del rec.seed
    assert rec.shot == 3 and rec.seed == 7


def test_sources_parse_as_python_3_10():
    """pyproject.toml admits Python 3.10: no file may use newer grammar."""
    root = Path(__file__).resolve().parent.parent
    paths = sorted(p for d in ("src", "tests", "tools")
                   for p in (root / d).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_reads_another_modules_private_names():
    """A module under src/hybridsim uses only the public names of the
    others, so each rule has one owner: `codegen` and `profiles` once read
    `hir._infer_cmp_kind` and restated part of the IR's kind rules around
    it.  tests/ and tools/ are exempt; `tools/unroll_cutoff.py` clears the
    engine's private caches on purpose."""
    src = Path(__file__).resolve().parent.parent / "src" / "hybridsim"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = set()     # local names bound to a module of the package
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and \
                    (node.module or "").partition(".")[0] != "hybridsim":
                continue
            if node.module in (None, "hybridsim"):
                modules |= {a.asname or a.name for a in node.names}
            else:
                found += [f"{path.name}:{node.lineno}: {node.module}.{a.name}"
                          for a in node.names if _private(a.name)]
        found += [f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    assert found == []
