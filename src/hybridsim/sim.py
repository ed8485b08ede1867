"""Shot-based executor for hybrid programs.

One shot = one pass over the program: a single statevector lives for the
whole shot while classical instructions and control flow run between
gates.  Three infidelity sources can be switched on independently:
finite shot counts, depolarizing/readout noise, and fixed-point classical
arithmetic instead of exact reals.

The classical mode is resolved once per compile into a `Domain`, exact
reals or bit-exact Q2.16 words.  The domain encodes literals, implements
the arithmetic ops, turns angles into radians and boxes register values
for records; the code generator is the same for both modes.

Each program is compiled into the source of one Python function, which
runs once per shot: registers are its locals, and every gate, measurement,
reset and noise draw is inlined (`codegen` writes the source, and runs the
measurement-independent classical work once, while writing it: the entry
block's start, and per-block tables of every value no measurement decides).  The
source, its line table and its encoded literals are generated once per
program object, mode and noise switch, and kept on the program; only the
namespace of domain ops and noise probabilities is rebuilt on each compile.
This is the only engine: the independent reference that checks it, an
interpreter that walks the same blocks one instruction at a time, lives in
`tests/oracles.py`.

Determinism contract: each shot draws from a generator seeded by a
splitmix-style mix of (config seed, shot index), so shots may be evaluated
in any order - serially, in slices, or permuted - and produce identical
records byte for byte.  A compiled program owns one generator and reseeds
it at the start of every shot, which gives the same stream as a fresh one;
so `CompiledProgram.shot` is not reentrant, and two threads must not run
shots of the same compiled program at once.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import linecache
import math
import operator
import random
import weakref
from dataclasses import dataclass
from functools import lru_cache
from types import CodeType, FunctionType
from typing import IO, Callable, Iterable

from . import fixedpoint as fx
from . import hir
from .codegen import Generator, namespace
from .errors import DivideByZero, OutOfRange, ShotError, StepLimitExceeded

DEFAULT_STEP_LIMIT = 10**6


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


@dataclass(frozen=True, slots=True, init=False)
class ShotRecord:
    shot: int
    seed: int
    outputs: tuple[tuple[str, object], ...]
    evidence: tuple[tuple[object, object, int], ...]

    def __init__(self, shot: int, seed: int,
                 outputs: tuple[tuple[str, object], ...],
                 evidence: tuple[tuple[object, object, int], ...]):
        # Every shot builds one.  Setting the slots through their
        # descriptors skips the attribute lookup of the four
        # `object.__setattr__` calls a frozen dataclass `__init__` makes.
        _set_shot(self, shot)
        _set_seed(self, seed)
        _set_outputs(self, outputs)
        _set_evidence(self, evidence)


_set_shot = ShotRecord.shot.__set__
_set_seed = ShotRecord.seed.__set__
_set_outputs = ShotRecord.outputs.__set__
_set_evidence = ShotRecord.evidence.__set__


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
    # (op, operand kind) -> the op as an expression over {0}, {1}, for the
    # ops (and "radians") that are a plain Python operator; every other op
    # is a call of its `ops` entry.
    forms: dict[tuple[str, str], str]


def _real_recip(a):
    if a == 0.0:
        raise DivideByZero("reciprocal of zero")
    return 1.0 / a


def _real_div(a, b):
    if b == 0.0:
        raise DivideByZero("division by zero")
    return a / b


_OPERATORS = {"add": "{0} + {1}", "sub": "{0} - {1}", "mul": "{0} * {1}",
              "neg": "-{0}"}


def _real_domain() -> Domain:
    return Domain(literal={"bit": int, "int18": int, "fixed": float},
                  ops={("recip", "fixed"): _real_recip,
                       ("div", "fixed"): _real_div},
                  radians=math.pi.__mul__,
                  box={"bit": None, "int18": None, "fixed": None},
                  forms={("radians", "fixed"): "PI * {0}",
                         **{(op, k): form for op, form in _OPERATORS.items()
                            for k in ("int18", "fixed")}})


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
                  box={"bit": None, "int18": fx.Int18, "fixed": fx.fixed_box},
                  forms={})


def select_domain(mode: ClassicalMode) -> Domain:
    """The domain for `mode`.  Built afresh on every call, so the fixed-point
    ops a shot calls are whatever `fixedpoint` holds when a program is
    compiled.  The ops of known values (`codegen`'s tables and fold) run
    once, when the program's source is generated, with the domain of that
    compile; later compiles reuse their results."""
    return _q216_domain() if mode is ClassicalMode.FIXED_POINT else _real_domain()


# ---------------------------------------------------------------------------
# Compiled programs and shots.  `codegen` writes the source of each
# program's `run`; this section caches it, compiles and runs it.

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_shot_seed(seed: int, shot_index: int) -> int:
    """Independent, order-free per-shot stream seed."""
    return _mix64(_mix64(seed & _MASK64) ^ (shot_index & _MASK64))


# Compile caches.  Each program object keeps its generated source, line
# table and static values in `HybridProgram.generated`, per mode and noise
# switch, so two equal programs keep their own HIR line numbers.  `_code`
# keeps the code object of each source text and program name.  Each code
# object it compiles has a file name of its own, `<hir NAME:N>`, under which
# its source stays in `linecache`, so that tracebacks show the generated
# lines, for as long as the code object lives.

_CACHE_SIZE = 128
_file_numbers = itertools.count()


def _generated(program: hir.HybridProgram, cfg: ExecConfig, domain: Domain):
    """(source, line table, static namespace) of `program` under `cfg`'s
    mode and noise switch.  Threads that miss at once generate equal
    entries, and either may stay."""
    key = (cfg.classical_mode, cfg.noise is not None)
    entry = program.generated.get(key)
    if entry is None:
        gen = Generator(program, domain, key[1])
        entry = program.generated[key] = (gen.source, gen.where, gen.static)
    return entry


@lru_cache(maxsize=_CACHE_SIZE)
def _code(source: str, name: str) -> CodeType:
    """The code object of the function `source` defines, compiled under the
    file name `<hir NAME:N>`, which no other code object has: its
    `linecache` entry goes when it does."""
    filename = f"<hir {name}:{next(_file_numbers)}>"
    module = compile(source, filename, "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    weakref.finalize(code, linecache.cache.pop, filename, None)
    return code


# What a shot may raise from inside the generated function: a zero divisor,
# an exhausted budget, or a real-mode overflow (`cos(inf)` raises
# ValueError, a float conversion OverflowError).
_SHOT_FAILURES = (DivideByZero, StepLimitExceeded, ArithmeticError, ValueError)


class CompiledProgram:
    """A program compiled for one configuration.  `shot` runs one shot of
    the generated function `run`; `source` is its text, kept in `linecache`
    under `filename` (its code object's own, `<hir NAME:N>`) while `run`
    lives, so tracebacks show the generated lines.  The generator the shots
    draw from is reseeded by every shot, so a compiled program runs one
    shot at a time."""

    def __init__(self, program: hir.HybridProgram, cfg: ExecConfig):
        domain = select_domain(cfg.classical_mode)
        self.source, self.where, static = _generated(program, cfg, domain)
        self.run = FunctionType(_code(self.source, program.name),
                                namespace(static, domain, cfg.noise))
        self.filename = self.run.__code__.co_filename
        self.nqubits = program.qubits
        self._rng = random.Random(0)
        # The C generator's own seed: `Random.seed` adds only argument checks
        # and clears the cache of `gauss`, which `run` never calls.
        self._reseed = super(random.Random, self._rng).seed

    def shot(self, seed: int, shot_index: int, step_limit: int):
        """(ShotRecord, final amplitudes) of one shot."""
        return self._shot(_mix64(seed & _MASK64), shot_index, step_limit)

    def _shot(self, mixed_seed: int, shot_index: int, step_limit: int):
        """`shot`, given the config seed already mixed once."""
        shot_seed = _mix64(mixed_seed ^ (shot_index & _MASK64))
        self._reseed(shot_seed)
        out: list = []
        ev: list = []
        try:
            amps = self.run(self._rng, out, ev, step_limit)
        except _SHOT_FAILURES as e:
            raise ShotError(shot_index, e, *self._locate(e)) from e
        return ShotRecord(shot_index, shot_seed, tuple(out), tuple(ev)), amps

    def _locate(self, exc: Exception) -> tuple[str | None, int | None]:
        """(block label, HIR line) of the generated line that raised."""
        code = self.run.__code__
        where = (None, None)
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code is code:
                k = bisect.bisect_right(self.where, tb.tb_lineno,
                                        key=operator.itemgetter(0))
                where = self.where[k - 1][1]
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
    shot = compile_program(program, cfg)._shot
    indices = range(cfg.shots) if shot_indices is None else shot_indices
    mixed = _mix64(cfg.seed & _MASK64)
    limit = cfg.step_limit
    return [shot(mixed, i, limit)[0] for i in indices]


# ---------------------------------------------------------------------------
# Shot-record serialization: JSON lines, one object per shot.  Fixed-point
# values carry both the raw word and its decoded decimal; 18-bit integers
# carry the raw word alone, which keeps them apart from bare ints.
#
# `write_records` formats each line itself instead of building a dict for
# `json.dumps`: every line is byte for byte what
# `json.dumps(obj, separators=(",", ":"))` gives for the record's object
# (NaN and +-Infinity included), and `tests/oracles.py` keeps that
# dict-building encoder as the reference.  Within one call each distinct
# nonzero float and each distinct Q2.16 word is rendered once: RWPE records
# the same 24 evolution times `t` in every shot, and float `repr` is most
# of the cost of a line.

_dumps = json.JSONEncoder(separators=(",", ":")).encode
_SCALE = fx.SCALE
# Memo entries one `write_records` call keeps before it starts over, so a
# long run cannot grow the memo without limit.
_MEMO_SIZE = 4096


def _float_text(v: float) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


def _plain(v) -> str:
    """A value that is never boxed (shot, seed, `d`)."""
    return "%d" % v if type(v) is int else _dumps(v)


def _value_from_json(v, int18: bool = True):
    """A bare number (not a bool), or a box with exactly the keys that
    `write_records` writes: `{"raw", "value"}` for Q2.16, whose decimal must
    be its word's exact value, and `{"raw"}` for int18 (unless `int18` is
    false, as for evidence)."""
    kind = type(v)
    if kind is float or kind is int:
        return v
    if kind is not dict:
        raise ValueError(f"value {v!r} is not a number or a box")
    n = len(v)
    if n == 2 and "value" in v:
        raw = v["raw"]
        # The shared box of an int word; any other raw fails the word check.
        box = (fx.fixed_box if type(raw) is int else fx.FixedQ216)(raw)
        value = v["value"]
        if type(value) is float and value * _SCALE == raw:
            return box
        raise ValueError(f"box value {value!r} is not raw word {raw} / 2**16")
    if n == 1 and "raw" in v:
        if int18:
            return fx.Int18(v["raw"])
        raise ValueError(f"evidence value {v!r} is an int18 box")
    raise ValueError(f"box {v!r} does not hold raw (int18) or raw and value "
                     "(Q2.16) alone")


def _int_from_json(obj: dict, name: str) -> int:
    v = obj[name]
    if type(v) is not int:
        raise ValueError(f"{name} {v!r} is not an int")
    return v


def _output_from_json(pair) -> tuple:
    if type(pair) is not list or len(pair) != 2 or type(pair[0]) is not str:
        raise ValueError(f"output {pair!r} is not a [name, value] pair")
    return pair[0], _value_from_json(pair[1])


def record_from_json(obj: dict) -> ShotRecord:
    if type(obj) is not dict:
        raise ValueError(f"record {obj!r} is not an object")
    outputs = obj["outputs"]
    if type(outputs) is not list:
        raise ValueError(f"outputs {outputs!r} is not a list")
    outputs = tuple(map(_output_from_json, outputs))
    evidence = obj["evidence"]
    if type(evidence) is not list:
        raise ValueError(f"evidence {evidence!r} is not a list")
    entries = []
    for e in evidence:      # one loop: RWPE records 24 entries a shot
        if type(e) is not dict:
            raise ValueError(f"evidence entry {e!r} is not an object")
        t = e["t"]
        kind = type(t)
        if kind is not float and kind is not int:
            t = _value_from_json(t, False)
        p = e["phi_inv"]
        kind = type(p)
        if kind is not float and kind is not int:
            p = _value_from_json(p, False)
        d = e["d"]
        if type(d) is not int or not 0 <= d <= 1:
            raise ValueError(f"evidence bit {d!r} is not 0 or 1")
        entries.append((t, p, d))
    return ShotRecord(_int_from_json(obj, "shot"), _int_from_json(obj, "seed"),
                      outputs, tuple(entries))


def write_records(records: Iterable[ShotRecord], fp: IO[str]):
    """Write one JSON line per record, with one `fp.write` per line."""
    floats: dict[float, str] = {}   # nonzero float -> its text
    words: dict[int, str] = {}      # Q2.16 raw word -> its boxed text

    def text(v) -> str:
        # By exact type: `1 == 1.0 == True` and `0.0 == -0.0` hash alike,
        # so ints, bools and zeros never reach the float memo.
        t = type(v)
        if t is float:
            if not v:
                return float.__repr__(v)
            s = floats.get(v)
            if s is None:
                if len(floats) >= _MEMO_SIZE:
                    floats.clear()
                s = floats[v] = _float_text(v)
            return s
        if t is fx.FixedQ216:
            raw = v.raw
            s = words.get(raw)
            if s is None:
                if len(words) >= _MEMO_SIZE:
                    words.clear()
                s = words[raw] = '{"raw":%d,"value":%s}' % (
                    raw, _float_text(v.value))
            return s
        if t is int:
            return "%d" % v
        if t is fx.Int18:
            return '{"raw":%d}' % v.raw
        return _dumps(v)

    write = fp.write
    for rec in records:
        outputs = ",".join(["[%s,%s]" % (_dumps(name), text(v))
                            for name, v in rec.outputs])
        evidence = ",".join(['{"t":%s,"phi_inv":%s,"d":%s}'
                             % (text(t), text(p), _plain(d))
                             for t, p, d in rec.evidence])
        write('{"shot":%s,"seed":%s,"outputs":[%s],"evidence":[%s]}\n'
              % (_plain(rec.shot), _plain(rec.seed), outputs, evidence))


def read_records(fp: IO[str]) -> list[ShotRecord]:
    """The records of a JSONL stream.  A malformed line raises ValueError
    naming its 1-based line number."""
    records = []
    for n, line in enumerate(fp, 1):
        line = line.strip()
        if line:
            try:
                records.append(record_from_json(json.loads(line)))
            except KeyError as e:
                raise ValueError(f"line {n}: missing field {e}") from e
            except (TypeError, ValueError, OutOfRange) as e:
                raise ValueError(f"line {n}: {e}") from e
    return records
