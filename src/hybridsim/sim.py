"""Shot-based executor for hybrid programs.

One shot = one pass over the program: a single statevector lives for the
whole shot while classical instructions and control flow run between
gates.  Three infidelity sources can be switched on independently:
finite shot counts, depolarizing/readout noise, and fixed-point classical
arithmetic instead of exact reals.

The classical mode is resolved once per compile into a `Domain`, exact
reals or bit-exact Q2.16 words.  A domain is its literal encoders, the
functions that generated code calls by name (the arithmetic ops, an angle
word's radians, the boxes of record values) and the operator forms that
stand in for some of those calls; the code generator is the same for both
modes.

Each program is compiled into the source of one Python function, which
runs once per shot: registers are its locals, every gate, measurement,
reset and noise draw is inlined, and each block is written once, under the
branches that reach it, so that only loop heads and blocks that no branch
can hold take a dispatch (`codegen` writes the source, and runs the
measurement-independent classical work once, while writing it: the entry
block's start, and one stream of rows of every value no measurement
decides, which each shot reads in order).  The source, its line table
and its encoded literals are generated once per program object, mode and
noise switch, and kept on the program; only the namespace of domain ops
and noise probabilities is rebuilt on each compile.
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
and joins the records in the order the shots were given.  The records are
those of the serial path, and so is a failing shot's `ShotError`: each
piece stops at its first failing shot, and once every piece has answered,
the first failing shot in the given order runs again in the calling
process, which raises the error.  The usable CPUs are
`os.sched_getaffinity(0)`, so `taskset` limits them; with one, or without
`os.fork`, every call runs serially.

`write_records` writes the records as JSON lines, a block of records at a
time, grouped by shape and rendered by column; a block that fails is
rendered again one record at a time by the same renderer.  Every line is
byte for byte what `json.dumps` gives for the record's object.
"""

from __future__ import annotations

import atexit
import bisect
import contextlib
import enum
import gc
import itertools
import json
import marshal
import math
import operator
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from types import CodeType, FunctionType
from typing import IO, Callable, Iterable

from . import codegen
from . import fixedpoint as fx
from . import hir
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
        object.__setattr__(self, "seed", operator.index(self.seed))
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
    literal: dict[str, Callable]    # kind -> literal encoder
    # Each name generated code calls -> its function: `{op}_{kind}` for an
    # op on words of a kind, `radians_fixed` for an angle word's radians,
    # `box_{kind}` for a kind whose record value is boxed.
    names: dict[str, Callable]
    # (op, operand kind) -> the op as an expression over {0}, {1}, for the
    # ops (and "radians") that are a plain Python operator; every other op
    # is a call of its `names` entry.
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
                  names={"recip_fixed": _real_recip, "div_fixed": _real_div,
                         "radians_fixed": math.pi.__mul__},
                  forms={("radians", "fixed"): "PI * {0}",
                         **{(op, k): form for op, form in _OPERATORS.items()
                            for k in ("int18", "fixed")}})


def _q216_domain() -> Domain:
    wrap = fx.wrap_raw
    names = {f"{op}_{k}": fn for op, fn in (("add", fx.add_raw),
                                            ("sub", fx.sub_raw),
                                            ("neg", fx.neg_raw))
             for k in ("int18", "fixed")}
    return Domain(literal={"bit": int,
                           "int18": lambda v: fx.check_int_range(int(v)),
                           "fixed": lambda v: fx.encode(float(v))},
                  names=dict(names, mul_int18=lambda a, b: wrap(a * b),
                             mul_fixed=fx.mul_raw, recip_fixed=fx.recip_raw,
                             div_fixed=fx.div_raw, radians_fixed=fx.to_radians,
                             box_int18=fx.Int18, box_fixed=fx.fixed_box),
                  forms={})


def select_domain(mode: ClassicalMode) -> Domain:
    """The domain for `mode`.  Built afresh on every call, so the fixed-point
    functions in its `names`, which a shot calls, are whatever `fixedpoint`
    holds when a program is compiled (in a worker process, whatever it held
    when the worker was forked).  The ops of known values run once, in
    `codegen`'s walk (which folds the entry block and writes the rows),
    when the program's source is generated, with the domain of that
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
    return _mix64(_mix64(operator.index(seed) & _MASK64)
                  ^ (operator.index(shot_index) & _MASK64))


# Compile caches.  Each program object keeps its generated source, line
# table, static values and worker payload in `HybridProgram.generated`, per
# mode and noise switch, so two equal programs keep their own HIR line
# numbers.  `codegen.code` keeps the code object of each source text and
# program name, and the source of each under its own file name in
# `linecache`, as long as the code object lives.


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
        gen = codegen.Generator(program, domain, key[1])
        code = marshal.dumps(codegen.code(gen.source, program.name))
        payload = pickle.dumps(
            (code, gen.where, gen.static, cfg.classical_mode),
            pickle.HIGHEST_PROTOCOL)
        entry = program.generated[key] = (gen.source, gen.where, gen.static,
                                          payload)
    return entry


# What a shot may raise from inside the generated function: a zero divisor,
# an exhausted budget, an angle register with no finite radians, or another
# real-mode overflow (a float conversion raises OverflowError).
_SHOT_FAILURES = (DivideByZero, StepLimitExceeded, OutOfRange, ArithmeticError,
                  ValueError)


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
        self._bind(codegen.code(self.source, program.name), where, static,
                   domain, cfg.noise)
        # What a worker process builds the same `run` from (`_shipped`).
        self._ship = (payload, cfg.noise)

    def _bind(self, code: CodeType, where, static: dict, domain: Domain,
              noise: NoiseModel | None):
        self.where = where
        self.run = FunctionType(code, codegen.namespace(static, domain, noise))
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
    record, amps = compiled.shot(cfg.seed, operator.index(shot_index),
                                 cfg.step_limit)
    return record, QuantumState(program.qubits, amps)


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
        indices = list(map(operator.index, indices))
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
# programs it used (`_shipped`).  Every piece, this process's own too, runs
# through `_piece`, which gives its records or the position of its first
# shot that raised; once every reply is read, this process runs the first
# such shot in the given order itself, to raise the serial error.  A worker
# is a child made by `os.fork` that runs `_serve` and leaves by `os._exit`,
# so it runs none of this process's exit handlers and flushes none of its
# buffers; `_stop_workers`, run at exit, kills and reaps the workers, and a
# worker whose parent died reads EOF and leaves.  Fork, not spawn: a forked
# worker starts with the package imported and its caches warm, where a
# spawned one would import everything anew.  A worker runs only generated
# code and pickle, never numpy, whose BLAS threads do not survive a fork.

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


def _piece(compiled: CompiledProgram, mixed: int, indices, limit: int):
    """The records of the shots `indices`, or the position among them of
    the first shot that raised: the caller runs that shot again to raise its
    error."""
    shot = compiled._shot
    records = []
    try:
        for i in indices:
            records.append(shot(mixed, i, limit)[0])
    except Exception:
        return len(records)
    return records


def _serve(conn, others=()):
    """A worker's loop.  Each request is ((program payload, noise model),
    mixed seed, shot indices, step limit); the reply is `_piece`'s.
    Returns when this process's end of the pipe closes."""
    for c in others:
        c.close()
    try:
        while True:
            ship, mixed, indices, limit = pickle.loads(_recv(conn))
            reply = _piece(_shipped(*ship), mixed, indices, limit)
            conn.send_bytes(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
    except (EOFError, OSError):
        return


def _run_split(compiled: CompiledProgram, mixed: int, indices, limit: int,
               pieces: int, first: ShotRecord) -> list[ShotRecord] | None:
    """`run_shots` in `pieces` contiguous pieces, the first in this process,
    given the first shot's record.  Every piece, this process's too, gives
    `_piece`'s reply, and only once every reply is read does the first shot
    that raised, in the given order, run again here to raise the serial
    error; so the pipes stay in step.  If a worker cannot be forked or has
    died, every worker is stopped and None returned: the caller runs the
    shots itself.  If this process is interrupted, every worker is stopped
    too."""
    # Rounded up, so this process, which also unpickles the replies, takes
    # the largest piece.
    n = len(indices)
    cuts = [-(-n * k // pieces) for k in range(pieces + 1)]
    try:
        workers = _start_workers(pieces - 1)
        for w, lo, hi in zip(workers, cuts[1:], cuts[2:]):
            w.send(compiled, mixed, indices[lo:hi], limit)
        replies = [_piece(compiled, mixed, indices[1:cuts[1]], limit)]
        replies += [w.receive() for w in workers]
    except (EOFError, OSError):     # no fork, or a closed pipe
        _stop_workers()
        return None
    except BaseException:
        _stop_workers()
        raise
    records = [first]
    # This process's piece starts after the first shot, which ran already.
    for lo, reply in zip([1] + cuts[1:], replies):
        if type(reply) is int:
            # The first failure in the given order: running the shot here
            # raises exactly the serial error.
            i = indices[lo + reply]
            compiled._shot(mixed, i, limit)
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
# dict-building encoder as the reference.  It renders a block of records at
# a time, by column: `_block_lines` groups them by shape (output names and
# evidence length, `_shape`), and `_shape_lines`, the one renderer, gives
# the records of one shape one column per field and each line one `%` of
# the shape's template.  A block that fails goes through `_shape_lines`
# again one record at a time, without the grouping, which also takes a
# shape that is not a dict key (a list output name).  No column of exact
# ints, of exact finite floats without a zero or of Q2.16 boxes takes a
# Python call per value.  Ints go into the template as they are, through
# `%d`.  The text of each such float and of each Q2.16 word comes from one
# of two process-wide caches of _TEXTS entries (`_finite_text`,
# `_word_text`), so a value is rendered once per process while it stays
# among the recently used: RWPE records the same 24 evolution times `t` in
# every shot, and float `repr` is most of the cost of a line.  A float
# column that holds a zero or a non-finite value skips the cache: 0.0 ==
# -0.0 would give both zeros one entry, and `repr` does not write NaN and
# infinities as JSON does.  Any other column is rendered one value at a
# time (`_text`, `_plain`).

_dumps = json.JSONEncoder(separators=(",", ":")).encode
_SCALE = fx.SCALE
# Records `write_records` renders by column at once.
_BLOCK = 256
# Entries in each of the writer's two text caches.
_TEXTS = 512
_name = operator.itemgetter(0)
_raw = operator.attrgetter("raw")
_shot = operator.attrgetter("shot")
_seed = operator.attrgetter("seed")
_outputs = operator.attrgetter("outputs")
_evidence = operator.attrgetter("evidence")


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


def _float_text(v: float) -> str:
    if math.isfinite(v):
        return float.__repr__(v)
    return "NaN" if v != v else "Infinity" if v > 0 else "-Infinity"


def _plain(v) -> str:
    """A value that is never boxed (shot, seed, `d`)."""
    return "%d" % v if type(v) is int else _dumps(v)


# `float.__repr__` itself, so a miss makes no Python-level call.  Both
# text caches key on exact type, so no key finds the entry of an equal key
# of another type (1 == 1.0 == True).
_finite_text = lru_cache(maxsize=_TEXTS, typed=True)(float.__repr__)


@lru_cache(maxsize=_TEXTS, typed=True)
def _word_text(raw: int) -> str:
    """The box of a Q2.16 raw word."""
    return '{"raw":%d,"value":%r}' % (raw, raw / _SCALE)


def _text(v) -> str:
    """A value that may be boxed."""
    t = type(v)
    if t is float:
        return _float_text(v)
    if t is fx.FixedQ216:
        return _word_text(v.raw)
    if t is int:
        return "%d" % v
    if t is fx.Int18:
        return '{"raw":%d}' % v.raw
    return _dumps(v)


def _column(col, boxed: bool) -> tuple[list, str]:
    """(what a line's template formats for each value of a column, the
    conversion that formats it): exact ints as they are, through `%d`, and
    anything else as its text, through `%s`.  Values that may be boxed are
    rendered as `_text` does, those that are never boxed as `_plain`."""
    kinds = set(map(type, col))
    if kinds == {int}:
        return col, "%d"
    if kinds == {float} and 0.0 not in col and all(map(math.isfinite, col)):
        return list(map(_finite_text, col)), "%s"
    if not boxed:
        return list(map(_plain, col)), "%s"
    if kinds == {fx.FixedQ216}:
        return list(map(_word_text, map(_raw, col))), "%s"
    return list(map(_text, col)), "%s"


def _template(names: tuple, n: int, specs: list) -> str:
    """The template of a line with outputs `names` and `n` evidence entries,
    given the conversions of its columns (`_column`): shot, seed, each
    output, then t, phi_inv and d."""
    shot, seed, *outs, t, p, d = specs
    outputs = ",".join(["[%s,%s]" % (_dumps(name).replace("%", "%%"), spec)
                        for name, spec in zip(names, outs, strict=True)])
    evidence = ",".join(['{"t":%s,"phi_inv":%s,"d":%s}' % (t, p, d)] * n)
    return ('{"shot":%s,"seed":%s,"outputs":[%s],"evidence":[%s]}\n'
            % (shot, seed, outputs, evidence))


def _shape(rec: ShotRecord) -> tuple:
    """(output names, number of evidence entries) of a record."""
    return tuple(map(_name, rec.outputs)), len(rec.evidence)


def _shape_lines(recs: list[ShotRecord], names: tuple, n: int) -> list[str]:
    """The lines of `recs`, records with outputs `names` and `n` evidence
    entries, rendered by column.  Raises whenever a record does not have
    that shape."""
    cols = [_column(list(map(_shot, recs)), False),
            _column(list(map(_seed, recs)), False)]
    if names:
        _, outs = zip(*itertools.chain.from_iterable(map(_outputs, recs)),
                      strict=True)
        cols += [_column(outs[j::len(names)], True) for j in range(len(names))]
    ev = [((), "%s")] * 3
    if n:
        t, p, d = zip(*itertools.chain.from_iterable(map(_evidence, recs)),
                      strict=True)
        ev = [_column(t, True), _column(p, True), _column(d, False)]
    template = _template(names, n, [spec for _, spec in cols + ev])
    values = [col for col, _ in cols]
    for e in range(n):
        values += [col[e::n] for col, _ in ev]
    return list(map(template.__mod__, zip(*values)))


def _block_lines(block: list[ShotRecord]) -> list[str]:
    """The lines of `block`: its records grouped by shape (`_shape`), each
    group rendered by `_shape_lines`."""
    shapes: dict[tuple, list[int]] = {}
    for i, rec in enumerate(block):
        shapes.setdefault(_shape(rec), []).append(i)
    lines: list = [None] * len(block)
    for shape, where in shapes.items():
        recs = block if len(shapes) == 1 else [block[i] for i in where]
        for i, line in zip(where, _shape_lines(recs, *shape)):
            lines[i] = line
    return lines


def write_records(records: Iterable[ShotRecord], fp: IO[str]):
    """Write one JSON line per record, with one `fp.write` per line.
    Records are rendered _BLOCK at a time, by column (`_block_lines`).  A
    block that fails is rendered again record by record, by the same
    renderer (`_shape_lines`), so the lines before the first record that
    cannot be written are written, and its error raised, as they would be
    one record at a time.  When iterating `records` raises, the records it
    gave first are written before the error propagates."""
    write = fp.write
    todo = iter(records)
    while True:
        block = []
        try:
            for rec in todo:
                block.append(rec)
                if len(block) == _BLOCK:
                    break
        finally:
            try:
                lines = _block_lines(block)
            except Exception:       # raised again, for its record, below
                # or a shape that is not a key (a list output name)
                lines = (_shape_lines([rec], *_shape(rec))[0]
                         for rec in block)
            for line in lines:
                write(line)
        if len(block) < _BLOCK:
            return


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
