"""Shot-based executor for hybrid programs.

One shot = one pass over the program's procedure: a single statevector lives
for the whole shot while classical instructions and control flow run
between gates.  Three infidelity sources can be switched on independently:
finite shot counts, depolarizing/readout noise, and fixed-point classical
arithmetic instead of exact reals.

The classical mode is resolved once per compile into a `Domain`, exact
reals or bit-exact Q2.16 words.  The domain encodes literals, implements
the arithmetic ops, turns angles into radians and boxes register values
for records; the code generator is the same for both modes.

Each program is compiled into the source of one Python function, which
runs once per shot: registers are its locals, the amplitudes one list, and
every gate, measurement, reset and noise draw is inlined as a loop over
index pairs computed at compile time.  This is the only engine: the
independent reference that checks it, an interpreter that walks the same
blocks one instruction at a time, lives in `tests/oracles.py`.

Determinism contract: each shot draws from its own generator seeded by a
splitmix-style mix of (config seed, shot index), so shots may be evaluated
in any order - serially, in slices, or permuted - and produce identical
records byte for byte.
"""

from __future__ import annotations

import enum
import hashlib
import json
import linecache
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable, Iterable

from . import fixedpoint as fx
from . import hir
from .errors import DivideByZero, SemanticError, ShotError, StepLimitExceeded

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_SX_A = 0.5 + 0.5j
_SX_B = 0.5 - 0.5j

DEFAULT_STEP_LIMIT = 10**6

NOISELESS_GATES = frozenset({"rz"})  # virtual: a bookkeeping phase, zero cost


@lru_cache(maxsize=None)
def _pairs(n: int, q: int) -> tuple[tuple[int, int], ...]:
    """(index with qubit q = 0, partner with q = 1); qubit 0 is the MSB."""
    mask = 1 << (n - 1 - q)
    return tuple((i, i | mask) for i in range(1 << n) if not i & mask)


@lru_cache(maxsize=None)
def _quads(n: int, a: int, b: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i00, i01, i10, i11) over qubits (a, b) with a the first bit."""
    ma = 1 << (n - 1 - a)
    mb = 1 << (n - 1 - b)
    return tuple((i, i | mb, i | ma, i | ma | mb)
                 for i in range(1 << n) if not i & (ma | mb))


def _pauli(amps: list[complex], pairs, which: int):
    """Pauli `which` (1 = X, 2 = Y, 3 = Z) on the qubit that `pairs` spans."""
    if which == 1:
        for i0, i1 in pairs:
            amps[i0], amps[i1] = amps[i1], amps[i0]
    elif which == 2:
        for i0, i1 in pairs:
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = -1j * a1
            amps[i1] = 1j * a0
    else:
        for _, i1 in pairs:
            amps[i1] = -amps[i1]


class QuantumState:
    """The final statevector of a shot, as `run_shot_debug` returns it:
    `n` qubits and their 2**n `amps` (qubit 0 is the most significant bit
    of an index).  It has no operations: every shot runs as generated
    code.  It keeps its old name because the traced benchmark run
    (`perfbench/run.py --trace 1`) reads `sim.QuantumState` when it
    installs its hooks, and would crash without it."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int, amps: list[complex]):
        self.n = n
        self.amps = amps


# ---------------------------------------------------------------------------
# Execution configuration.

class ClassicalMode(enum.Enum):
    EXACT_REAL = "real"
    FIXED_POINT = "fixed"


@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing noise after each pulse gate plus readout bit flips.
    rz is virtual (a frame update), so it never draws noise."""

    p_gate1: float = 0.002
    p_gate2: float = 0.02
    p_readout: float = 0.02

    def __post_init__(self):
        for name in ("p_gate1", "p_gate2", "p_readout"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")


@dataclass(frozen=True)
class ExecConfig:
    classical_mode: ClassicalMode = ClassicalMode.EXACT_REAL
    noise: NoiseModel | None = None
    seed: int = 0
    shots: int = 1
    step_limit: int = DEFAULT_STEP_LIMIT

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.step_limit < 1:
            raise ValueError("step_limit must be >= 1")


@dataclass(frozen=True)
class ShotRecord:
    shot: int
    seed: int
    outputs: tuple[tuple[str, object], ...]
    evidence: tuple[tuple[object, object, int], ...]


# ---------------------------------------------------------------------------
# Number domains.  A register holds a word: a float or int for exact reals,
# a raw 18-bit integer for Q2.16.  Everything that depends on the classical
# mode is a field of the domain; the compiler below never asks which mode
# it is in.

@dataclass(frozen=True)
class Domain:
    literal: dict[str, Callable]              # kind -> literal encoder
    ops: dict[tuple[str, str], Callable]      # (op, operand kind) -> word fn
    radians: Callable[[object], float]        # angle word -> radians
    box: dict[str, Callable | None]           # kind -> record value (None: bare)


_COMPARE = {
    "cmp_eq": lambda a, b: 1 if a == b else 0,
    "cmp_lt": lambda a, b: 1 if a < b else 0,
}


def _real_recip(a):
    if a == 0.0:
        raise DivideByZero("reciprocal of zero")
    return 1.0 / a


def _real_div(a, b):
    if b == 0.0:
        raise DivideByZero("division by zero")
    return a / b


def _real_domain() -> Domain:
    ops = {(op, k): fn for op, fn in (("add", operator.add), ("sub", operator.sub),
                                      ("mul", operator.mul), ("neg", operator.neg))
           for k in ("int18", "fixed")}
    ops["recip", "fixed"] = _real_recip
    ops["div", "fixed"] = _real_div
    return Domain(literal={"bit": int, "int18": int, "fixed": float},
                  ops=ops, radians=math.pi.__mul__,
                  box={"bit": None, "int18": None, "fixed": None})


def _q216_domain() -> Domain:
    wrap = fx.wrap_raw
    ops = {(op, k): fn for op, fn in (("add", fx.add_raw), ("sub", fx.sub_raw),
                                      ("neg", fx.neg_raw))
           for k in ("int18", "fixed")}
    ops["mul", "int18"] = lambda a, b: wrap(a * b)
    ops["mul", "fixed"] = fx.mul_raw
    ops["recip", "fixed"] = fx.recip_raw
    ops["div", "fixed"] = fx.div_raw
    return Domain(literal={"bit": int,
                           "int18": lambda v: fx.check_int_range(int(v)),
                           "fixed": lambda v: fx.encode(float(v))},
                  ops=ops, radians=fx.to_radians,
                  box={"bit": None, "int18": fx.Int18, "fixed": fx.FixedQ216})


def select_domain(mode: ClassicalMode) -> Domain:
    """The domain for `mode`.  Built afresh on every call, so the fixed-point
    ops are whatever `fixedpoint` holds when a program is compiled."""
    return _q216_domain() if mode is ClassicalMode.FIXED_POINT else _real_domain()


# ---------------------------------------------------------------------------
# Compilation of a program into one generated Python function.
#
# The program's procedure becomes the source of `run(rng, out, ev, limit)`.
# Registers are the locals r0, r1, ... (one per declared variable), the
# amplitudes are the list `A`, and each block is one branch of a `while`
# dispatch on the block index `b`.  Gates, measurements, resets and noise
# draws are inlined as loops over pair tuples computed at compile time.
# Each kernel's floating-point operations and draws from the shot's
# generator follow a fixed order, which the reference interpreter in
# `tests/oracles.py` repeats, so a shot and its replay through that
# interpreter give the same record, amplitudes and step count.
#
# Every value the source refers to (encoded literals, the phases of literal
# angles, noise probabilities, pair tuples, the domain's ops and boxes) is
# a name bound in the exec namespace, never a literal in the text.
# Programs that differ only in literals therefore share one source, whose
# code object is cached by that text.

def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_shot_seed(seed: int, shot_index: int) -> int:
    """Independent, order-free per-shot stream seed."""
    return _mix64(_mix64(seed & 0xFFFFFFFFFFFFFFFF) ^ (shot_index & 0xFFFFFFFFFFFFFFFF))


# Kernel templates.  {P} names a pair tuple (i0, i1), {Q} a quad tuple;
# angle gates read their phases from {p0}/{p1} or {corner}/{cc}/{ss}, which
# are locals computed from a register or names of precomputed constants.
_SWAP = """\
for i0, i1 in {P}:
    A[i0], A[i1] = A[i1], A[i0]"""

_H = """\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = (t0 + t1) * S
    A[i1] = (t0 - t1) * S"""

_SX = """\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = SXA * t0 + SXB * t1
    A[i1] = SXB * t0 + SXA * t1"""

_PHASE = """\
for i0, i1 in {P}:
    A[i0] *= {p0}
    A[i1] *= {p1}"""

_PHASE_OF_REGISTER = """\
th = RAD({reg})
p1 = complex(cos(0.5 * th), sin(0.5 * th))
p0 = p1.conjugate()"""

_ESWAP = """\
for i00, i01, i10, i11 in {Q}:
    A[i00] *= {corner}
    A[i11] *= {corner}
    t0 = A[i01]
    t1 = A[i10]
    A[i01] = {cc} * t0 + {ss} * t1
    A[i10] = {ss} * t0 + {cc} * t1"""

_ESWAP_OF_REGISTER = """\
th = 0.5 * RAD({reg})
corner = complex(cos(th), -sin(th))
cc = cos(th)
ss = -1j * sin(th)"""

# Born probability of 1, then the draw.  Collapse keeps the surviving half
# and rescales it; `reset` fuses the collapse to 1 with the flip back to 0.
_BORN = """\
p = 0.0
for i0, i1 in {P}:
    t1 = A[i1]
    p += t1.real * t1.real + t1.imag * t1.imag
"""

_MEASURE = _BORN + """\
if rand() < p:
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i0] = 0j
        A[i1] *= s
    {dest} = 1
else:
    p = 1.0 - p
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i1] = 0j
        A[i0] *= s
    {dest} = 0"""

_RESET = _BORN + """\
if rand() < p:
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i0] = A[i1] * s
        A[i1] = 0j
else:
    p = 1.0 - p
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i1] = 0j
        A[i0] *= s"""

_READOUT_FLIP = """\
if rand() < p_readout:
    {dest} ^= 1"""

_NOISE1 = """\
if rand() < p_gate1:
    pauli(A, {P}, 1 + randrange(3))"""

# m in 1..15 names a two-qubit Pauli: high two bits on a, low two on b.
_NOISE2 = """\
if rand() < p_gate2:
    m = 1 + randrange(15)
    if m >> 2:
        pauli(A, {Pa}, m >> 2)
    if m & 3:
        pauli(A, {Pb}, m & 3)"""

_STEP_CHECK = """\
steps += {n}
if steps > limit:
    raise StepLimitExceeded(f"instruction budget of {{limit}} exhausted")"""

_CODE_CACHE_SIZE = 128


@lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str, filename: str):
    return compile(source, filename, "exec")


class _Generator:
    """Builds the source of `run` for one procedure, the exec namespace it
    needs, and a table from each generated line to (block label, HIR line)."""

    def __init__(self, proc: hir.Procedure, domain: Domain,
                 noise: NoiseModel | None):
        self.domain = domain
        self.noise = noise
        self.n = proc.qubits
        self.reg = {d.name: f"r{i}" for i, d in enumerate(proc.decls)}
        self.kinds = {d.name: d.kind for d in proc.decls}
        self.ns: dict[str, object] = {
            "StepLimitExceeded": StepLimitExceeded, "RAD": domain.radians,
            "S": _SQRT_HALF, "SXA": _SX_A, "SXB": _SX_B,
            "cos": math.cos, "sin": math.sin, "sqrt": math.sqrt,
            "pauli": _pauli,
            "A0": [1 + 0j] + [0j] * ((1 << self.n) - 1),
        }
        for (op, kind), fn in domain.ops.items():
            self.ns[f"{op}_{kind}"] = fn
        for kind, box in domain.box.items():
            self.ns[f"box_{kind}"] = box
        if noise is not None:
            self.ns.update(p_gate1=noise.p_gate1, p_gate2=noise.p_gate2,
                           p_readout=noise.p_readout)
        self.lines: list[str] = []
        self.where: list[tuple[str | None, int | None]] = []
        self.at: tuple[str | None, int | None] = (None, None)
        self.consts = 0

        self.emit(0, "def run(rng, out, ev, limit):")
        self.emit(1, "rand = rng.random\nrandrange = rng.randrange\nA = A0[:]")
        # Encode initializers now: range errors are load-time errors.
        for d in proc.decls:
            self.emit(1, f"{self.reg[d.name]} = "
                         f"{self.const(domain.literal[d.kind](d.init))}")
        self.emit(1, "steps = 0\nb = 0\nwhile True:")
        index = {b.label: i for i, b in enumerate(proc.blocks)}
        for i, block in enumerate(proc.blocks):
            first = block.instructions[0] if block.instructions else block.terminator
            self.at = (block.label, first.line)
            self.emit(2, f"{'if' if i == 0 else 'elif'} b == {i}:")
            self.emit(3, _STEP_CHECK.format(n=len(block.instructions) + 1))
            for instr in block.instructions:
                self.at = (block.label, instr.line)
                self.instruction(instr)
            self.at = (block.label, block.terminator.line)
            self.terminator(block.terminator, index)
        self.source = "\n".join(self.lines) + "\n"

    # -- helpers ------------------------------------------------------------

    def emit(self, depth: int, text: str):
        lines = text.split("\n")
        pad = "    " * depth
        self.lines += [pad + line for line in lines]
        self.where += [self.at] * len(lines)

    def const(self, value) -> str:
        """Name of a new namespace entry holding `value`."""
        name = f"c{self.consts}"
        self.consts += 1
        self.ns[name] = value
        return name

    def pairs(self, q: int) -> str:
        name = f"P{q}"
        self.ns[name] = _pairs(self.n, q)
        return name

    def quads(self, a: int, b: int) -> str:
        name = f"Q{a}_{b}"
        self.ns[name] = _quads(self.n, a, b)
        return name

    def controlled(self, c: int, t: int) -> str:
        """(i10, i11) over qubits (c, t): the pairs a controlled gate touches."""
        name = f"C{c}_{t}"
        self.ns[name] = tuple((i10, i11) for _, _, i10, i11 in _quads(self.n, c, t))
        return name

    def operand(self, tok, kind: str) -> str:
        """A register, or a constant holding the encoded literal."""
        if isinstance(tok, str):
            return self.reg[tok]
        return self.const(self.domain.literal[kind](tok))

    def boxed(self, name: str) -> str:
        if self.domain.box[self.kinds[name]] is None:
            return self.reg[name]
        return f"box_{self.kinds[name]}({self.reg[name]})"

    # -- instructions -------------------------------------------------------

    def instruction(self, instr: hir.Instruction):
        if isinstance(instr, hir.Gate):
            self.gate(instr)
        elif isinstance(instr, hir.Measure):
            dest = self.reg[instr.dest]
            self.emit(3, _MEASURE.format(P=self.pairs(instr.qubit), dest=dest))
            if self.noise is not None:
                self.emit(3, _READOUT_FLIP.format(dest=dest))
            if instr.record is not None:
                t, phi_inv = (self.boxed(v) for v in instr.record)
                self.emit(3, f"ev.append(({t}, {phi_inv}, {dest}))")
        elif isinstance(instr, hir.Reset):
            self.reset(instr.qubit)
        elif isinstance(instr, hir.ActiveReset):
            for q in range(self.n):
                self.reset(q)
        elif isinstance(instr, hir.Classical):
            self.classical(instr)
        elif isinstance(instr, hir.Output):
            self.emit(3, f"out.append(({instr.name!r}, {self.boxed(instr.name)}))")
        else:
            raise SemanticError(f"cannot compile {instr!r}")

    def reset(self, q: int):
        self.emit(3, _RESET.format(P=self.pairs(q)))

    def gate(self, instr: hir.Gate):
        name, qs = instr.name, instr.qubits
        if name == "h":
            self.emit(3, _H.format(P=self.pairs(qs[0])))
        elif name == "x":
            self.emit(3, _SWAP.format(P=self.pairs(qs[0])))
        elif name == "sx":
            self.emit(3, _SX.format(P=self.pairs(qs[0])))
        elif name == "cnot":
            self.emit(3, _SWAP.format(P=self.controlled(*qs)))
        elif name in ("rz", "crz"):
            pairs = self.pairs(qs[0]) if name == "rz" else self.controlled(*qs)
            if isinstance(instr.angle, str):
                self.emit(3, _PHASE_OF_REGISTER.format(reg=self.reg[instr.angle]))
                p0, p1 = "p0", "p1"
            else:
                theta = self.domain.radians(self.domain.literal["fixed"](instr.angle))
                phase = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
                p0, p1 = self.const(phase.conjugate()), self.const(phase)
            self.emit(3, _PHASE.format(P=pairs, p0=p0, p1=p1))
        elif name == "eswap":
            if isinstance(instr.angle, str):
                self.emit(3, _ESWAP_OF_REGISTER.format(reg=self.reg[instr.angle]))
                terms = {"corner": "corner", "cc": "cc", "ss": "ss"}
            else:
                half = 0.5 * self.domain.radians(
                    self.domain.literal["fixed"](instr.angle))
                terms = {"corner": self.const(complex(math.cos(half), -math.sin(half))),
                         "cc": self.const(math.cos(half)),
                         "ss": self.const(-1j * math.sin(half))}
            self.emit(3, _ESWAP.format(Q=self.quads(*qs), **terms))
        else:
            raise SemanticError(f"unknown gate {name!r}")
        if self.noise is None or name in NOISELESS_GATES:
            return
        if len(qs) == 1:
            self.emit(3, _NOISE1.format(P=self.pairs(qs[0])))
        else:
            self.emit(3, _NOISE2.format(Pa=self.pairs(qs[0]), Pb=self.pairs(qs[1])))

    def classical(self, instr: hir.Classical):
        op = instr.op
        dest = self.reg[instr.dest]
        dkind = self.kinds[instr.dest]
        if op in ("cmp_eq", "cmp_lt"):
            k = hir._infer_cmp_kind(self.kinds, instr.srcs, instr.line)
            a, b = (self.operand(s, k) for s in instr.srcs)
            rel = "==" if op == "cmp_eq" else "<"
            self.emit(3, f"{dest} = 1 if {a} {rel} {b} else 0")
        elif op == "select":
            c, a, b = (self.operand(s, k)
                       for s, k in zip(instr.srcs, ("bit", dkind, dkind)))
            self.emit(3, f"{dest} = {a} if {c} else {b}")
        else:
            args = ", ".join(self.operand(s, dkind) for s in instr.srcs)
            self.emit(3, f"{dest} = {op}_{dkind}({args})")

    def terminator(self, term: hir.Terminator, index: dict[str, int]):
        if isinstance(term, hir.Br):
            self.emit(3, f"b = {index[term.target]}")
        elif isinstance(term, hir.CondBr):
            self.emit(3, f"b = {index[term.then_target]} if {self.reg[term.cond]} "
                         f"else {index[term.else_target]}")
        else:
            for v in term.values:
                self.emit(3, f"out.append(({v!r}, {self.boxed(v)}))")
            self.emit(3, "return A")


class CompiledProgram:
    """A program compiled for one configuration.  `shot` runs one shot of
    the generated function `run`; `source` is its text, registered in
    `linecache` under `filename` so tracebacks show the generated lines."""

    def __init__(self, program: hir.HybridProgram, cfg: ExecConfig):
        hir.check_semantics(program)
        proc = program.procedure
        gen = _Generator(proc, select_domain(cfg.classical_mode), cfg.noise)
        self.nqubits = proc.qubits
        self.source = gen.source
        self.where = gen.where
        digest = hashlib.sha1(gen.source.encode()).hexdigest()[:10]
        self.filename = f"<hir {proc.name}:{digest}>"
        linecache.cache[self.filename] = (len(gen.source), None,
                                          gen.source.splitlines(True),
                                          self.filename)
        code = _code(gen.source, self.filename)
        exec(code, gen.ns)
        self.run = gen.ns["run"]

    def shot(self, seed: int, shot_index: int, step_limit: int):
        """(ShotRecord, final amplitudes) of one shot."""
        shot_seed = derive_shot_seed(seed, shot_index)
        out: list = []
        ev: list = []
        try:
            amps = self.run(random.Random(shot_seed), out, ev, step_limit)
        except (DivideByZero, StepLimitExceeded) as e:
            raise ShotError(shot_index, e, *self._locate(e)) from e
        return ShotRecord(shot_index, shot_seed, tuple(out), tuple(ev)), amps

    def _locate(self, exc: Exception) -> tuple[str | None, int | None]:
        """(block label, HIR line) of the generated line that raised."""
        code = self.run.__code__
        where = (None, None)
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code is code:
                where = self.where[tb.tb_lineno - 1]
            tb = tb.tb_next
        return where


def compile_program(program: hir.HybridProgram, cfg: ExecConfig) -> CompiledProgram:
    return CompiledProgram(program, cfg)


def run_shot(program: hir.HybridProgram, cfg: ExecConfig,
             shot_index: int = 0) -> ShotRecord:
    """Execute one shot.  Deterministic given (cfg.seed, shot_index)."""
    return run_shots(program, cfg, [shot_index])[0]


def run_shot_debug(program: hir.HybridProgram, cfg: ExecConfig,
                   shot_index: int = 0):
    """Like run_shot, but also returns the final statevector:
    (record, QuantumState)."""
    compiled = compile_program(program, cfg)
    record, amps = compiled.shot(cfg.seed, shot_index, cfg.step_limit)
    return record, QuantumState(compiled.nqubits, amps)


def run_shots(program: hir.HybridProgram, cfg: ExecConfig,
              shot_indices: Iterable[int] | None = None) -> list[ShotRecord]:
    """Execute cfg.shots independent shots (or an explicit index subset).
    Results depend only on (seed, shot index), never on evaluation order."""
    compiled = compile_program(program, cfg)
    indices = range(cfg.shots) if shot_indices is None else shot_indices
    return [compiled.shot(cfg.seed, i, cfg.step_limit)[0] for i in indices]


# ---------------------------------------------------------------------------
# Shot-record serialization: JSON lines, one object per shot.  Fixed-point
# values carry both the raw word and its decoded decimal; 18-bit integers
# carry the raw word alone, which keeps them apart from bare ints.

def _value_to_json(v):
    if isinstance(v, fx.FixedQ216):
        return {"raw": v.raw, "value": v.value}
    if isinstance(v, fx.Int18):
        return {"raw": v.raw}
    return v


def _value_from_json(v):
    if isinstance(v, dict):
        box = fx.FixedQ216 if "value" in v else fx.Int18
        return box(int(v["raw"]))
    return v


def record_to_json(rec: ShotRecord) -> dict:
    return {
        "shot": rec.shot,
        "seed": rec.seed,
        "outputs": [[name, _value_to_json(v)] for name, v in rec.outputs],
        "evidence": [{"t": _value_to_json(t), "phi_inv": _value_to_json(p),
                      "d": d} for t, p, d in rec.evidence],
    }


def record_from_json(obj: dict) -> ShotRecord:
    outputs = tuple((name, _value_from_json(v)) for name, v in obj["outputs"])
    evidence = tuple(
        (_value_from_json(e["t"]), _value_from_json(e["phi_inv"]), int(e["d"]))
        for e in obj["evidence"])
    return ShotRecord(int(obj["shot"]), int(obj["seed"]), outputs, evidence)


def write_records(records: Iterable[ShotRecord], fp: IO[str]):
    for rec in records:
        fp.write(json.dumps(record_to_json(rec), separators=(",", ":")))
        fp.write("\n")


def read_records(fp: IO[str]) -> list[ShotRecord]:
    records = []
    for line in fp:
        line = line.strip()
        if line:
            records.append(record_from_json(json.loads(line)))
    return records
