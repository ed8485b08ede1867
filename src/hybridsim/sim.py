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

`run_shots` relies on that contract to use every usable CPU: a call with
enough work splits its shots into contiguous pieces, runs the first in the
calling process and each other in a worker process forked on first use,
and joins the records in the order the shots were given.  The records, and
a failing shot's `ShotError`, are those of the serial path.  The usable
CPUs are `os.sched_getaffinity(0)`, so `taskset` limits them; with one, or
without `os.fork`, every call runs serially.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import enum
import gc
import itertools
import json
import linecache
import marshal
import math
import operator
import os
import pickle
import random
import signal
import threading
import time
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

    def __reduce__(self):
        # Through `__init__`: a frozen dataclass's own `__setstate__` makes
        # a Python call per field, 5 us a record where this takes 1.
        return ShotRecord, (self.shot, self.seed, self.outputs, self.evidence)


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
    compiled (in a worker process, whatever it held when the worker was
    forked).  The ops of known values (`codegen`'s tables and fold) run
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
# table, static values and worker payload in `HybridProgram.generated`, per
# mode and noise switch, so two equal programs keep their own HIR line
# numbers.  `_code` keeps the code object of each source text and program
# name.  Each code object it compiles has a file name of its own,
# `<hir NAME:N>`, under which its source stays in `linecache`, so that
# tracebacks show the generated lines, for as long as the code object lives.

_CACHE_SIZE = 128
_file_numbers = itertools.count()


def _generated(program: hir.HybridProgram, cfg: ExecConfig, domain: Domain):
    """(source, line table, static namespace, payload) of `program` under
    `cfg`'s mode and noise switch.  The payload is what a worker process
    builds the same `run` from (`_shipped`): the code object marshalled, the
    line table, the static values and the mode, pickled once here, so that
    every request can carry it.  Threads that miss at once generate equal
    entries, and either may stay."""
    key = (cfg.classical_mode, cfg.noise is not None)
    entry = program.generated.get(key)
    if entry is None:
        gen = Generator(program, domain, key[1])
        code = marshal.dumps(_code(gen.source, program.name))
        payload = pickle.dumps(
            (code, gen.where, gen.static, cfg.classical_mode),
            pickle.HIGHEST_PROTOCOL)
        entry = program.generated[key] = (gen.source, gen.where, gen.static,
                                          payload)
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
        self.source, where, static, payload = _generated(program, cfg, domain)
        self._bind(_code(self.source, program.name), where, static, domain,
                   cfg.noise)
        self.nqubits = program.qubits
        # What a worker process builds the same `run` from (`_shipped`).
        self._ship = (payload, cfg.noise)

    def _bind(self, code: CodeType, where, static: dict, domain: Domain,
              noise: NoiseModel | None):
        self.where = where
        self.run = FunctionType(code, namespace(static, domain, noise))
        self.filename = code.co_filename
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
    """Execute cfg.shots independent shots (or an explicit index subset),
    and return their records in the order the indices were given.  Results
    depend only on (seed, shot index), never on evaluation order, so a call
    whose work pays for it runs its shots on every usable CPU: the first
    shot, timed, then the rest of the first piece in this process, and each
    other piece in a worker process (`_pieces` says how many).  The records,
    and any `ShotError`, are those of a serial run."""
    compiled = compile_program(program, cfg)
    shot = compiled._shot
    indices = range(cfg.shots) if shot_indices is None else shot_indices
    if type(indices) is not range:
        indices = list(indices)
    if not indices:
        return []
    mixed = _mix64(cfg.seed & _MASK64)
    limit = cfg.step_limit
    start = time.perf_counter()
    first = shot(mixed, indices[0], limit)[0]
    pieces = _pieces(len(indices), time.perf_counter() - start)
    # The workers serve one call at a time: a call that another thread makes
    # meanwhile runs in its own thread alone.
    if pieces > 1 and _workers_lock.acquire(blocking=False):
        try:
            records = _run_split(compiled, mixed, indices, limit, pieces, first)
        finally:
            _workers_lock.release()
        if records is not None:
            return records
    return [first] + [shot(mixed, i, limit)[0]
                      for i in itertools.islice(indices, 1, None)]


# ---------------------------------------------------------------------------
# Worker processes.  A call that splits runs its first piece in this process
# and each other piece in a worker: one for each spare usable CPU, forked on
# first use and kept for the next calls.  Each request carries its program,
# as the payload `_generated` pickled once; a worker binds its code object to
# its own domain ops (so it calls the `fixedpoint` ops its process held when
# it was forked), never generates or compiles source, and keeps the last 16
# programs it used (`_shipped`).  It answers each request with its piece's
# records, or with the position of the first shot that raised, which this
# process then runs itself to raise the serial error.  A worker is a child
# made by `os.fork` that runs `_serve` and leaves by `os._exit`, so it runs
# none of this process's exit handlers and flushes none of its buffers;
# `_stop_workers`, run at exit, kills and reaps the workers, and a worker
# whose parent died reads EOF and leaves.  Fork, not spawn: a forked worker
# starts with the package imported and its caches warm, where a spawned one
# would import everything anew.  A worker runs only generated code and
# pickle, never numpy, whose BLAS threads do not survive a fork.

# The least work, in seconds of shots on one CPU, that a piece must hold to
# pay for sending it to a worker and its records back.  Measured on a
# 2-core host, a split into two pieces breaks even at 0.5-0.7 ms of work a
# call, for RWPE (3 shots of ~200 us) and IPE steps (30 of ~16 us) alike.
_PIECE_SECONDS = 3e-4
# How long a process polls a pipe before it blocks on it.  On a shared VM
# host a process blocked for a few milliseconds takes 0.1-2 ms (at times
# 10 ms) to wake; one that polls sees a request in 0.03-0.1 ms.  20 ms
# spans the work a caller typically does between two calls.  Blocking at
# once on both ends instead, over 6 alternating pairs of benchmark runs on a
# 2-core host, gave median `shots_per_s` x0.955, x0.946 and x0.967 and
# `chunk_ms_p90` x1.123, x1.072 and x1.038 on `rwpe-real`, `ipe-native` and
# `rwpe-fixed-noise`.
_POLL_SECONDS = 0.02


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _pieces(n: int, first: float) -> int:
    """How many processes share a call of `n` shots whose first shot took
    `first` seconds: one for each usable CPU (`taskset` limits them), but
    no more than the call's work pays for, nor than it has shots; one where
    `os.fork` is unavailable or this process may not start processes."""
    pieces = min(_usable_cpus(), n, int(n * first / _PIECE_SECONDS))
    if pieces > 1:
        import multiprocessing      # here, so that serial users never load it
        # A daemonic process, such as a `multiprocessing.Pool` worker, may
        # not start processes.
        if not hasattr(os, "fork") or multiprocessing.current_process().daemon:
            return 1
    return max(pieces, 1)


@lru_cache(maxsize=16)
def _shipped(payload: bytes, noise: NoiseModel | None) -> CompiledProgram:
    """A worker's copy of a compiled program, from the payload `_generated`
    pickled and the noise model: no source is generated or compiled.  Kept
    by content, so equal programs share one."""
    code, where, static, mode = pickle.loads(payload)
    compiled = CompiledProgram.__new__(CompiledProgram)
    compiled._bind(marshal.loads(code), where, static, select_domain(mode),
                   noise)
    return compiled


class _Worker:
    """This process's end of one worker: its pipe and its process id."""

    def __init__(self, conn, pid: int):
        self.conn = conn
        self.pid = pid

    def send(self, compiled: CompiledProgram, mixed: int, indices, limit: int):
        request = (compiled._ship, mixed, indices, limit)
        self.conn.send_bytes(pickle.dumps(request, pickle.HIGHEST_PROTOCOL))

    def receive(self):
        # With the collector paused: a reply of many records otherwise sets
        # off collections that free nothing (50k IPE records load in 43 ms
        # paused, and in 60-190 ms with collections).
        data = _recv(self.conn)
        enabled = gc.isenabled()
        gc.disable()
        try:
            return pickle.loads(data)
        finally:
            if enabled:
                gc.enable()


_workers: list[_Worker] = []
_workers_lock = threading.Lock()
# A process that this one forks by other means starts with no workers: it
# must not write to this process's pipes, nor stop its workers.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)


def _recv(conn) -> bytes:
    """The next message on `conn`, polled for up to `_POLL_SECONDS` before
    blocking."""
    deadline = time.perf_counter() + _POLL_SECONDS
    while not conn.poll(0) and time.perf_counter() < deadline:
        pass
    return conn.recv_bytes()


def _start_workers(count: int) -> list[_Worker]:
    """`count` workers, forking those not yet running.  Each new worker
    closes every pipe end of this process that it inherited, so that it
    reads EOF once this process has gone."""
    from multiprocessing.connection import Pipe
    while len(_workers) < count:
        conn, theirs = Pipe()
        inherited = [w.conn for w in _workers] + [conn]
        pid = os.fork()
        if pid == 0:        # the worker
            try:
                _serve(theirs, inherited)
            finally:
                os._exit(0)
        theirs.close()
        _workers.append(_Worker(conn, pid))
    return _workers[:count]


def _stop_workers():
    """Kill and reap every worker; the next split call forks new ones."""
    for w in _workers:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)
        w.conn.close()
    _workers.clear()


atexit.register(_stop_workers)


def _serve(conn, others=()):
    """A worker's loop.  Each request is ((program payload, noise model),
    mixed seed, shot indices, step limit); the reply is the records, or the
    position of the first shot that raised.  Returns when this process's
    end of the pipe closes."""
    for c in others:
        c.close()
    try:
        while True:
            ship, mixed, indices, limit = pickle.loads(_recv(conn))
            shot = _shipped(*ship)._shot
            records = []
            try:
                for i in indices:
                    records.append(shot(mixed, i, limit)[0])
            except Exception:       # the caller re-runs it to raise it
                records = len(records)
            conn.send_bytes(pickle.dumps(records, pickle.HIGHEST_PROTOCOL))
    except (EOFError, OSError):
        return


def _run_split(compiled: CompiledProgram, mixed: int, indices, limit: int,
               pieces: int, first: ShotRecord) -> list[ShotRecord] | None:
    """`run_shots` in `pieces` contiguous pieces, the first in this process,
    given the first shot's record.  Every worker's reply is read before
    anything is raised, so the pipes stay in step.  If a worker cannot be
    forked or has died, every worker is stopped and None returned: the
    caller runs the shots itself.  If this process is interrupted, every
    worker is stopped too."""
    # Rounded up, so this process, which also unpickles the replies, takes
    # the largest piece.
    n = len(indices)
    cuts = [-(-n * k // pieces) for k in range(pieces + 1)]
    shot = compiled._shot
    records = [first]
    failed = None
    try:
        workers = _start_workers(pieces - 1)
        for w, lo, hi in zip(workers, cuts[1:], cuts[2:]):
            w.send(compiled, mixed, indices[lo:hi], limit)
        try:
            for i in indices[1:cuts[1]]:
                records.append(shot(mixed, i, limit)[0])
        except Exception as e:
            failed = e
        replies = [w.receive() for w in workers]
    except (EOFError, OSError):     # no fork, or a closed pipe
        _stop_workers()
        return None
    except BaseException:
        _stop_workers()
        raise
    if failed is not None:
        raise failed
    for lo, reply in zip(cuts[1:], replies):
        if type(reply) is int:
            # The first failure in the given order: running the shot here
            # raises exactly the serial error.
            i = indices[lo + reply]
            shot(mixed, i, limit)
            raise RuntimeError(f"shot {i} raised in a worker process but "
                               "not in this one")
        records += reply
    return records


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
