"""Shot-based executor for hybrid programs.

One shot = one pass of the interpreter over the entry procedure: a single
statevector lives for the whole shot while classical instructions and
control flow run between gates.  Three infidelity sources can be switched
on independently: finite shot counts, depolarizing/readout noise, and
fixed-point classical arithmetic instead of exact reals.

The classical mode is resolved once per compile into a `Domain`, exact
reals or bit-exact Q2.16 words.  The domain encodes literals, implements
the arithmetic ops, turns angles into radians and boxes register values
for records; the closure compiler is the same for both modes.

Determinism contract: each shot draws from its own generator seeded by a
splitmix-style mix of (config seed, shot index), so shots may be evaluated
in any order - serially, in slices, or permuted - and produce identical
records byte for byte.

The statevector is a plain list of Python complex numbers; programs in this
domain use a handful of qubits and per-amplitude index arithmetic beats
vectorized dispatch at that size.
"""

from __future__ import annotations

import enum
import json
import math
import operator
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import IO, Callable, Iterable

from . import fixedpoint as fx
from . import hir
from .errors import (BadQubitIndex, DivideByZero, SemanticError, ShotError,
                     StepLimitExceeded)

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


class QuantumState:
    """Normalized complex amplitude vector over n qubits with collapse
    and reset support."""

    __slots__ = ("n", "amps")

    def __init__(self, n: int):
        self.n = n
        self.amps = [0j] * (1 << n)
        self.amps[0] = 1 + 0j

    # -- single-qubit gates -------------------------------------------------

    def h(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = (a0 + a1) * _SQRT_HALF
            amps[i1] = (a0 - a1) * _SQRT_HALF

    def x(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            amps[i0], amps[i1] = amps[i1], amps[i0]

    def sx(self, q: int):
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            a0, a1 = amps[i0], amps[i1]
            amps[i0] = _SX_A * a0 + _SX_B * a1
            amps[i1] = _SX_B * a0 + _SX_A * a1

    def rz(self, q: int, theta: float):
        p1 = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
        p0 = p1.conjugate()
        amps = self.amps
        for i0, i1 in _pairs(self.n, q):
            amps[i0] *= p0
            amps[i1] *= p1

    def pauli(self, q: int, which: int):
        """which: 1 = X, 2 = Y, 3 = Z."""
        amps = self.amps
        if which == 1:
            self.x(q)
        elif which == 2:
            for i0, i1 in _pairs(self.n, q):
                a0, a1 = amps[i0], amps[i1]
                amps[i0] = -1j * a1
                amps[i1] = 1j * a0
        else:
            for _, i1 in _pairs(self.n, q):
                amps[i1] = -amps[i1]

    # -- two-qubit gates ----------------------------------------------------

    def crz(self, c: int, t: int, theta: float):
        p1 = complex(math.cos(0.5 * theta), math.sin(0.5 * theta))
        p0 = p1.conjugate()
        amps = self.amps
        for _, _, i10, i11 in _quads(self.n, c, t):
            amps[i10] *= p0
            amps[i11] *= p1

    def eswap(self, a: int, b: int, theta: float):
        half = 0.5 * theta
        corner = complex(math.cos(half), -math.sin(half))   # e^{-i theta/2}
        cc = math.cos(half)
        ss = -1j * math.sin(half)
        amps = self.amps
        for i00, i01, i10, i11 in _quads(self.n, a, b):
            amps[i00] *= corner
            amps[i11] *= corner
            a01, a10 = amps[i01], amps[i10]
            amps[i01] = cc * a01 + ss * a10
            amps[i10] = ss * a01 + cc * a10

    def cnot(self, c: int, t: int):
        amps = self.amps
        for _, _, i10, i11 in _quads(self.n, c, t):
            amps[i10], amps[i11] = amps[i11], amps[i10]

    # -- measurement and reset ----------------------------------------------

    def born_p1(self, q: int) -> float:
        amps = self.amps
        total = 0.0
        for _, i1 in _pairs(self.n, q):
            a = amps[i1]
            total += a.real * a.real + a.imag * a.imag
        return total

    def measure(self, q: int, rng: random.Random) -> int:
        p1 = self.born_p1(q)
        outcome = 1 if rng.random() < p1 else 0
        amps = self.amps
        keep = p1 if outcome else 1.0 - p1
        scale = 1.0 / math.sqrt(keep) if keep > 0.0 else 1.0
        for i0, i1 in _pairs(self.n, q):
            if outcome:
                amps[i0] = 0j
                amps[i1] *= scale
            else:
                amps[i1] = 0j
                amps[i0] *= scale
        return outcome

    def reset(self, q: int, rng: random.Random):
        if self.measure(q, rng):
            self.x(q)

    # -- generic entry points -----------------------------------------------

    def apply_gate(self, gate: str, qubits: Iterable[int],
                   angle: float | None = None):
        """Apply a named gate; `angle` is in radians."""
        qs = tuple(qubits)
        arity = hir.GATE_ARITY.get(gate)
        if arity is None:
            raise BadQubitIndex(f"unknown gate {gate!r}")
        if len(qs) != arity or len(set(qs)) != len(qs) or \
                any(not (0 <= q < self.n) for q in qs):
            raise BadQubitIndex(f"bad qubits {qs} for {gate} on {self.n} qubits")
        if gate == "h":
            self.h(qs[0])
        elif gate == "x":
            self.x(qs[0])
        elif gate == "sx":
            self.sx(qs[0])
        elif gate == "rz":
            self.rz(qs[0], angle)
        elif gate == "crz":
            self.crz(qs[0], qs[1], angle)
        elif gate == "eswap":
            self.eswap(qs[0], qs[1], angle)
        elif gate == "cnot":
            self.cnot(qs[0], qs[1])

    def norm_sq(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amps)


def apply_noise(state: QuantumState, gate_class: str, qubits: tuple[int, ...],
                rng: random.Random, noise: "NoiseModel") -> None:
    """Depolarizing draw after one gate: with the class probability, apply a
    uniformly random non-identity Pauli on the touched qubits.  Virtual
    gates (rz) are exempt and must not be passed here."""
    if gate_class in NOISELESS_GATES:
        return
    if len(qubits) == 1:
        if rng.random() < noise.p_gate1:
            state.pauli(qubits[0], 1 + rng.randrange(3))
    else:
        if rng.random() < noise.p_gate2:
            m = 1 + rng.randrange(15)
            ka, kb = m >> 2, m & 3
            if ka:
                state.pauli(qubits[0], ka)
            if kb:
                state.pauli(qubits[1], kb)


def measure(state: QuantumState, q: int, rng: random.Random,
            noise: "NoiseModel | None" = None) -> int:
    """Projective measurement returning the *reported* bit: the collapse
    follows the true outcome; with noise, the report flips with p_readout."""
    bit = state.measure(q, rng)
    if noise is not None and rng.random() < noise.p_readout:
        bit ^= 1
    return bit


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
# Compilation of a program into per-shot closures.
#
# Registers live in a flat list indexed by compile-time slots: one slot per
# declared variable, then one per literal operand, so every
# classical operand is a slot index.

class _Ctx:
    __slots__ = ("state", "regs", "rng", "outputs", "evidence", "steps")

    def __init__(self, state, regs, rng):
        self.state = state
        self.regs = regs
        self.rng = rng
        self.outputs = []
        self.evidence = []
        self.steps = 0


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def derive_shot_seed(seed: int, shot_index: int) -> int:
    """Independent, order-free per-shot stream seed."""
    return _mix64(_mix64(seed & 0xFFFFFFFFFFFFFFFF) ^ (shot_index & 0xFFFFFFFFFFFFFFFF))


class _Compiled:
    def __init__(self, program: hir.HybridProgram, domain: Domain,
                 noise: NoiseModel | None):
        hir.check_semantics(program)
        proc = program.entry_procedure()
        self.domain = domain
        self.noise = noise
        self.nqubits = proc.qubits
        self.slot: dict[str, int] = {d.name: i for i, d in enumerate(proc.decls)}
        self.kinds: dict[str, str] = {d.name: d.kind for d in proc.decls}
        # Encode initializers now: range errors are load-time errors.
        self._regs0 = [domain.literal[d.kind](d.init) for d in proc.decls]
        block_index = {b.label: i for i, b in enumerate(proc.blocks)}
        self.blocks = [
            (tuple(self._compile_instr(i) for i in b.instructions),
             self._compile_terminator(b.terminator, block_index))
            for b in proc.blocks
        ]

    # -- operand helpers ----------------------------------------------------

    def _operand(self, tok, kind: str) -> int:
        """Slot of a variable, or of a new constant slot holding the
        encoded literal."""
        if isinstance(tok, str):
            return self.slot[tok]
        self._regs0.append(self.domain.literal[kind](tok))
        return len(self._regs0) - 1

    def _angle_getter(self, tok):
        """Angle operand -> radians at the quantum boundary."""
        radians = self.domain.radians
        if isinstance(tok, str):
            i = self.slot[tok]
            return lambda regs: radians(regs[i])
        rad = radians(self.domain.literal["fixed"](tok))
        return lambda regs: rad

    def _boxed(self, name: str):
        """Reader producing the typed register value for outputs/evidence."""
        i = self.slot[name]
        box = self.domain.box[self.kinds[name]]
        if box is None:
            return lambda regs: regs[i]
        return lambda regs: box(regs[i])

    # -- instruction compilation --------------------------------------------

    def _compile_instr(self, instr: hir.Instruction):
        if isinstance(instr, hir.Gate):
            return self._compile_gate(instr)
        if isinstance(instr, hir.Measure):
            return self._compile_measure(instr)
        if isinstance(instr, hir.Reset):
            q = instr.qubit
            return lambda ctx: ctx.state.reset(q, ctx.rng)
        if isinstance(instr, hir.ActiveReset):
            def active_reset(ctx):
                for q in range(ctx.state.n):
                    ctx.state.reset(q, ctx.rng)
            return active_reset
        if isinstance(instr, hir.Classical):
            return self._compile_classical(instr)
        if isinstance(instr, hir.Output):
            name = instr.name
            read = self._boxed(name)
            return lambda ctx: ctx.outputs.append((name, read(ctx.regs)))
        raise SemanticError(f"cannot compile {instr!r}")

    def _compile_gate(self, instr: hir.Gate):
        name, qs = instr.name, instr.qubits
        noise = self.noise
        if name in ("rz", "crz", "eswap"):
            angle = self._angle_getter(instr.angle)
            if name == "rz":
                q = qs[0]
                return lambda ctx: ctx.state.rz(q, angle(ctx.regs))
            if name == "crz":
                c, t = qs
                body = lambda ctx: ctx.state.crz(c, t, angle(ctx.regs))
            else:
                a, b = qs
                body = lambda ctx: ctx.state.eswap(a, b, angle(ctx.regs))
        elif name == "h":
            q = qs[0]
            body = lambda ctx: ctx.state.h(q)
        elif name == "x":
            q = qs[0]
            body = lambda ctx: ctx.state.x(q)
        elif name == "sx":
            q = qs[0]
            body = lambda ctx: ctx.state.sx(q)
        elif name == "cnot":
            c, t = qs
            body = lambda ctx: ctx.state.cnot(c, t)
        else:
            raise SemanticError(f"unknown gate {name!r}")
        if noise is None or name in NOISELESS_GATES:
            return body

        def noisy(ctx):
            body(ctx)
            apply_noise(ctx.state, name, qs, ctx.rng, noise)
        return noisy

    def _compile_measure(self, instr: hir.Measure):
        q = instr.qubit
        dest = self.slot[instr.dest]
        noise = self.noise
        readers = None
        if instr.record is not None:
            readers = (self._boxed(instr.record[0]), self._boxed(instr.record[1]))

        def do_measure(ctx):
            bit = measure(ctx.state, q, ctx.rng, noise)
            ctx.regs[dest] = bit
            if readers is not None:
                ctx.evidence.append(
                    (readers[0](ctx.regs), readers[1](ctx.regs), bit))
        return do_measure

    def _compile_classical(self, instr: hir.Classical):
        op = instr.op
        dest = self.slot[instr.dest]
        dkind = self.kinds[instr.dest]
        if op in _COMPARE:
            k = hir._infer_cmp_kind(self.kinds, instr.srcs, instr.line)
            kinds = (k, k)
            fn = _COMPARE[op]
        elif op == "select":
            kinds = ("bit", dkind, dkind)
        else:
            kinds = (dkind,) * len(instr.srcs)
            fn = self.domain.ops[op, dkind]
        srcs = [self._operand(s, k) for s, k in zip(instr.srcs, kinds)]
        if op == "select":
            c, a, b = srcs

            def select(ctx):
                regs = ctx.regs
                regs[dest] = regs[a] if regs[c] else regs[b]
            return select
        if len(srcs) == 1:
            (a,) = srcs

            def unary(ctx):
                regs = ctx.regs
                regs[dest] = fn(regs[a])
            return unary
        a, b = srcs

        def binary(ctx):
            regs = ctx.regs
            regs[dest] = fn(regs[a], regs[b])
        return binary

    def _compile_terminator(self, term: hir.Terminator, block_index: dict[str, int]):
        if isinstance(term, hir.Br):
            i = block_index[term.target]
            return lambda ctx: i
        if isinstance(term, hir.CondBr):
            c = self.slot[term.cond]
            then_i = block_index[term.then_target]
            else_i = block_index[term.else_target]
            return lambda ctx: then_i if ctx.regs[c] else else_i
        readers = tuple((v, self._boxed(v)) for v in term.values)

        def ret(ctx):
            for name, read in readers:
                ctx.outputs.append((name, read(ctx.regs)))
            return -1
        return ret

    # -- running ------------------------------------------------------------

    def run(self, seed: int, shot_index: int, step_limit: int) -> ShotRecord:
        record, _ = self.run_with_ctx(seed, shot_index, step_limit)
        return record

    def run_with_ctx(self, seed: int, shot_index: int, step_limit: int):
        shot_seed = derive_shot_seed(seed, shot_index)
        ctx = _Ctx(QuantumState(self.nqubits), list(self._regs0),
                   random.Random(shot_seed))
        blocks = self.blocks
        limit = step_limit
        steps = 0
        bi = 0
        while True:
            instrs, term = blocks[bi]
            steps += len(instrs) + 1
            if steps > limit:
                raise StepLimitExceeded(
                    f"instruction budget of {limit} exhausted")
            for fn in instrs:
                fn(ctx)
            bi = term(ctx)
            if bi < 0:
                break
        ctx.steps = steps
        record = ShotRecord(shot_index, shot_seed, tuple(ctx.outputs),
                            tuple(ctx.evidence))
        return record, ctx


def compile_program(program: hir.HybridProgram, cfg: ExecConfig) -> _Compiled:
    return _Compiled(program, select_domain(cfg.classical_mode), cfg.noise)


def run_shot(program: hir.HybridProgram, cfg: ExecConfig,
             shot_index: int = 0) -> ShotRecord:
    """Execute one shot.  Deterministic given (cfg.seed, shot_index)."""
    return run_shots(program, cfg, [shot_index])[0]


def run_shot_debug(program: hir.HybridProgram, cfg: ExecConfig,
                   shot_index: int = 0):
    """Like run_shot, but also returns the final statevector:
    (record, QuantumState)."""
    record, ctx = compile_program(program, cfg).run_with_ctx(
        cfg.seed, shot_index, cfg.step_limit)
    return record, ctx.state


def run_shots(program: hir.HybridProgram, cfg: ExecConfig,
              shot_indices: Iterable[int] | None = None) -> list[ShotRecord]:
    """Execute cfg.shots independent shots (or an explicit index subset).
    Results depend only on (seed, shot index), never on evaluation order."""
    compiled = compile_program(program, cfg)
    indices = range(cfg.shots) if shot_indices is None else shot_indices
    records = []
    for i in indices:
        try:
            records.append(compiled.run(cfg.seed, i, cfg.step_limit))
        except (DivideByZero, StepLimitExceeded, BadQubitIndex) as e:
            raise ShotError(i, e) from e
    return records


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
