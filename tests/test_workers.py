"""Shots run in worker processes: the split path of `sim.run_shots`.

A call that splits runs its first piece in this process and each other
piece in a forked worker.  The records, their JSONL and any `ShotError`
must be those of the serial path, whatever the program, mode, noise or
index sequence.  The split is forced through the usable-CPU count
(`sim._usable_cpus`), the one input of the split rule a test can set.  The
rule also needs 0.9 ms of work for three pieces, as timed on the first
shot: the calls below hold twice that even at 3 us a shot of IPE, teleport
or active reset and 30 us of RWPE (about a fifth of their time on a 2-core
x86_64 host), so they split into three on any host that can fork.
"""

import io
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import pytest

from hybridsim import fixedpoint as fx
from hybridsim import hir, profiles, sim
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.errors import DivideByZero, ShotError
from hybridsim.lowering import lower_to_native
from hybridsim.sim import ClassicalMode, ExecConfig, NoiseModel

SRC = Path(__file__).resolve().parents[1] / "src"

# Each program with the shots of a call that splits into three pieces.
PROGRAMS = {
    "rwpe": (build_rwpe, 60),
    "rwpe_native": (lambda: lower_to_native(build_rwpe(), profiles.NATIVE),
                    60),
    "ipe": (lambda: build_ipe_program(0.3, 1.25, 0.7), 600),
    "teleport": (build_teleport, 600),
    "active_reset": (build_active_reset, 600),
}
SHOTS = 600     # of a call of `_FAILS_ON_ONE` that splits into three

# Half the shots of a measurement take `bad`, whose reciprocal of zero
# raises inside the generated code, in either mode.
_FAILS_ON_ONE = """proc main qubits 1
  var bit m = 0
  var fixed a = 0.0
  var fixed b = 0.0
entry:
  h q0
  mz q0 -> m
  condbr m, bad, done
bad:
  recip b, a
  br done
done:
  ret
endproc
"""


@pytest.fixture(scope="module", autouse=True)
def _no_workers_left():
    yield
    sim._stop_workers()


@pytest.fixture
def splits(monkeypatch):
    """Three usable CPUs, and the piece count of each call that splits."""
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    calls = []
    run_split = sim._run_split

    def spy(compiled, mixed, indices, limit, pieces, records):
        calls.append(pieces)
        return run_split(compiled, mixed, indices, limit, pieces, records)

    monkeypatch.setattr(sim, "_run_split", spy)
    return calls


def _serial(monkeypatch, program, cfg, indices):
    with monkeypatch.context() as m:
        m.setattr(sim, "_usable_cpus", lambda: 1)
        return sim.run_shots(program, cfg, indices)


def _jsonl(records) -> str:
    buf = io.StringIO()
    sim.write_records(records, buf)
    return buf.getvalue()


def _wait(pid: int, timeout: float = 60.0) -> int | None:
    """The wait status of this process's child `pid` once it has ended, or
    None if it is still running after `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return status
        time.sleep(0.01)
    return None


INDEX_KINDS = {
    "range": lambda n: range(5, 5 + n),
    "permuted": lambda n: random.Random(n).sample(range(10 * n), n),
    "generator": lambda n: (3 * i for i in range(n)),
    "repeats": lambda n: [(7 * i) % (n // 2) for i in range(n)],
}


@pytest.mark.parametrize("kind", INDEX_KINDS)
@pytest.mark.parametrize("noise", [None, NoiseModel()], ids=["ideal", "noise"])
@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", PROGRAMS)
def test_split_records_are_the_serial_records(monkeypatch, splits, name, mode,
                                              noise, kind):
    build, n = PROGRAMS[name]
    program = build()
    cfg = ExecConfig(classical_mode=mode, noise=noise, seed=len(name))
    want = _serial(monkeypatch, program, cfg, INDEX_KINDS[kind](n))
    got = sim.run_shots(program, cfg, INDEX_KINDS[kind](n))
    assert splits == [3]
    assert got == want
    assert _jsonl(got) == _jsonl(want)


def _failing_indices(program, cfg, n) -> tuple[list[int], list[int]]:
    """(n shot indices that pass, two that raise)."""
    ok, bad = [], []
    i = 0
    while len(ok) < n or len(bad) < 2:
        try:
            sim.run_shot(program, cfg, i)
            ok.append(i)
        except ShotError:
            bad.append(i)
        i += 1
    return ok[:n], bad[:2]


def _hir_frames(e: ShotError):
    """The generated statements in the traceback of a shot error's cause."""
    return [(f.filename, f.lineno, f.line)
            for f in traceback.extract_tb(e.cause.__traceback__)
            if f.filename.startswith("<hir ")]


def _error(monkeypatch, program, cfg, indices, serial: bool) -> ShotError:
    with pytest.raises(ShotError) as err:
        if serial:
            _serial(monkeypatch, program, cfg, indices)
        else:
            sim.run_shots(program, cfg, indices)
    return err.value


@pytest.mark.parametrize("where", ["two-workers", "this-process-and-worker"])
@pytest.mark.parametrize("mode", list(ClassicalMode), ids=lambda m: m.value)
def test_a_failing_shot_raises_the_serial_error(monkeypatch, splits, mode,
                                                where):
    program = hir.parse(_FAILS_ON_ONE)
    cfg = ExecConfig(classical_mode=mode, seed=5)
    n = SHOTS
    ok, bad = _failing_indices(program, cfg, n)
    cut1, cut2 = -(-n // 3), -(-2 * n // 3)     # where the pieces start
    indices = list(ok)
    indices[cut2 + 1] = bad[1]
    # After the first shot, which is timed to decide the split.
    indices[cut1 + 2 if where == "two-workers" else 1] = bad[0]
    want = _error(monkeypatch, program, cfg, indices, serial=True)
    pids = [w.pid for w in sim._workers]
    got = _error(monkeypatch, program, cfg, indices, serial=False)
    assert splits == [3]
    assert (got.shot_index, got.block, got.line) == (bad[0], "bad", 10)
    assert str(got) == str(want)
    assert isinstance(got.cause, DivideByZero)
    frames = _hir_frames(got)
    assert frames == _hir_frames(want)
    assert "recip_fixed(" in frames[-1][2]
    # The pipes stayed in step: the same workers run the next call.
    assert sim.run_shots(program, cfg, ok) == _serial(monkeypatch, program,
                                                      cfg, ok)
    assert [w.pid for w in sim._workers][:len(pids)] == pids


def test_a_shot_that_only_a_worker_fails_is_reported(monkeypatch, splits):
    # A worker calls the fixed-point ops of its process, as they were when
    # it was forked; this process's re-run of the failing shot passes here.
    program = hir.parse(_FAILS_ON_ONE)
    cfg = ExecConfig(classical_mode=ClassicalMode.FIXED_POINT, seed=5)
    ok, bad = _failing_indices(program, cfg, SHOTS)
    sim.run_shots(program, cfg, ok)            # forks the workers
    recip_raw = fx.recip_raw
    monkeypatch.setattr(fx, "recip_raw", lambda a: recip_raw(a) if a else 0)
    indices = ok[:-1] + [bad[0]]
    with pytest.raises(RuntimeError, match=f"shot {bad[0]} raised in a "
                                           "worker process but not in this"):
        sim.run_shots(program, cfg, indices)


def test_threads_that_call_at_once_get_their_own_records(monkeypatch,
                                                         splits):
    # The workers serve one call at a time; the others run serially.
    calls = [(build_rwpe(), ExecConfig(seed=k)) for k in range(4)]
    want = [_serial(monkeypatch, p, cfg, range(60)) for p, cfg in calls]
    results, errors = [], []

    def work(k):
        try:
            for _ in range(4):
                results.append(sim.run_shots(*calls[k], range(60)) == want[k])
        except Exception as e:      # reported by the assertion below
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [True] * 16
    assert 1 <= len(splits) <= 16


def test_the_split_rule(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    assert sim._pieces(1, 1.0) == 1             # one shot never splits
    assert sim._pieces(5, 1e-4) == 1            # 0.5 ms of work
    assert sim._pieces(7, 1e-4) == 2
    assert sim._pieces(10, 1e-4) == 3           # one piece per usable CPU
    assert sim._pieces(10 ** 6, 1e-4) == 3
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
    assert sim._pieces(10 ** 6, 1e-4) == 1


def test_usable_cpus_are_the_affinity_set(monkeypatch):
    assert sim._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert sim._usable_cpus() == 1          # as where no affinity call exists


def test_an_empty_call_has_no_records(splits):
    assert sim.run_shots(build_rwpe(), ExecConfig(), []) == []
    assert sim.run_shots(build_rwpe(), ExecConfig(), iter(())) == []
    assert splits == []


def test_one_usable_cpu_or_one_shot_starts_no_worker(monkeypatch):
    sim._stop_workers()
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
    sim.run_shots(program, cfg, range(200))
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 3)
    sim.run_shot(program, cfg, 4)
    sim.run_shot_debug(program, cfg, 4)
    sim.run_shots(program, cfg, [9])
    assert sim._workers == []


def test_no_split_where_fork_is_unavailable(monkeypatch, splits):
    monkeypatch.delattr(os, "fork")
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    records = sim.run_shots(program, cfg, range(60))
    assert splits == []
    assert records == _serial(monkeypatch, program, cfg,
                              range(len(records)))


def test_a_dead_worker_stops_the_workers_and_the_call_runs_here(monkeypatch,
                                                                splits):
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    indices = range(60)
    want = _serial(monkeypatch, program, cfg, indices)
    sim.run_shots(program, cfg, indices)
    dead = sim._workers[0].pid
    os.kill(dead, signal.SIGKILL)
    status = _wait(dead)
    assert status is not None and os.WIFSIGNALED(status)
    assert sim.run_shots(program, cfg, indices) == want
    assert sim._workers == []
    assert sim.run_shots(program, cfg, indices) == want
    assert len(sim._workers) == 2
    assert splits == [3, 3, 3]


def test_a_failed_fork_runs_the_call_here(monkeypatch, splits):
    sim._stop_workers()
    program = build_rwpe()
    cfg = ExecConfig(seed=3)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert sim.run_shots(program, cfg, range(60)) == \
        _serial(monkeypatch, program, cfg, range(60))
    assert splits == [3]
    assert sim._workers == []


def test_an_interrupted_call_stops_the_workers(monkeypatch, splits):
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    sim.run_shots(program, cfg, range(60))

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(sim._Worker, "receive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sim.run_shots(program, cfg, range(60))
    assert sim._workers == []


def test_a_daemonic_process_runs_its_shots_itself(monkeypatch, splits):
    # Such as a `multiprocessing.Pool` worker, which may not start processes.
    monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    assert sim.run_shots(program, cfg, range(60)) == \
        _serial(monkeypatch, program, cfg, range(60))
    assert splits == []


def test_a_worker_exits_when_its_pipe_closes(splits):
    program = build_rwpe()
    cfg = ExecConfig(seed=3)
    sim.run_shots(program, cfg, range(60))
    assert splits == [3]
    # The first worker's end of its pipe was inherited by the second, which
    # must have closed it, or the first would never read EOF.
    first = sim._workers.pop(0)
    first.conn.close()
    assert _wait(first.pid) == 0            # it left by `os._exit(0)`


def test_a_worker_serves_its_pipe_then_leaves_by_exit(monkeypatch):
    # The branch of `_start_workers` that only the forked child runs, run in
    # this process: the loop reads EOF at once, because it closes this
    # process's end of its pipe, which the child inherits.
    sim._stop_workers()     # or the loop would close their pipe ends too

    class Left(Exception):
        pass

    def leave(status):
        raise Left(status)

    monkeypatch.setattr(os, "fork", lambda: 0)
    monkeypatch.setattr(os, "_exit", leave)
    with pytest.raises(Left) as left:
        sim._start_workers(1)
    assert left.value.args == (0,)
    assert sim._workers == []


_PRINTS_THEN_SPLITS = """
import os, sys
from hybridsim import sim
from hybridsim.algorithms import build_rwpe
sim._usable_cpus = lambda: 3
print("before the split")
program = build_rwpe()
want = sim.run_shots(program, sim.ExecConfig(shots=200))
pids = [w.pid for w in sim._workers]
pid = os.fork()
if pid == 0:
    # A child forked by other means has no workers, and ends through the
    # exit handlers, which must leave this process's workers alone.
    sys.exit(0 if sim._workers == [] else 3)
assert os.waitpid(pid, 0)[1] == 0
for _ in range(2):
    assert sim.run_shots(program, sim.ExecConfig(shots=200)) == want
    # The same workers ran it: a dead one would have been dropped.
    assert [w.pid for w in sim._workers] == pids
print("workers", *pids)
"""


def test_a_process_that_splits_prints_once_and_leaves_no_worker():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _PRINTS_THEN_SPLITS],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""        # nor from the child's exit
    assert done.stdout.count("before the split") == 1
    pids = [int(p) for p in done.stdout.split("workers")[1].split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_the_worker_loop_keeps_programs_and_reports_failures(monkeypatch):
    # The loop a worker runs, driven in this process from a thread.
    sim._shipped.cache_clear()
    ours, theirs = multiprocessing.Pipe()
    inherited, _ = multiprocessing.Pipe()
    thread = threading.Thread(target=sim._serve, args=(theirs, [inherited]))
    thread.start()
    worker = sim._Worker(ours, None)

    def ask(program, cfg, indices):
        compiled = sim.compile_program(program, cfg)
        worker.send(compiled, sim._mix64(cfg.seed), indices, cfg.step_limit)
        assert ours.poll(60), "the loop did not answer"
        return worker.receive()

    def counts():
        info = sim._shipped.cache_info()
        return info.hits, info.misses, info.currsize

    programs = [build_ipe_program(0.05 * k, 1.0) for k in range(17)]
    cfg = ExecConfig(seed=8)
    want = [_serial(monkeypatch, p, cfg, range(6)) for p in programs]
    for k in range(16):
        assert ask(programs[k], cfg, range(6)) == want[k]
    assert sim._shipped.cache_info().maxsize == 16
    assert counts() == (0, 16, 16)
    assert ask(programs[0], cfg, range(6)) == want[0]
    # An equal program built anew has the same payload, so the same entry.
    assert ask(build_ipe_program(0.0, 1.0), cfg, range(6)) == want[0]
    assert counts() == (2, 16, 16)
    assert ask(programs[16], cfg, range(6)) == want[16]  # drops programs[1]
    assert counts() == (2, 17, 16)
    # A dropped program is built again from the payload of its request.
    assert ask(programs[1], cfg, range(6)) == want[1]
    assert counts() == (2, 18, 16)
    program = hir.parse(_FAILS_ON_ONE)
    ok, bad = _failing_indices(program, cfg, 3)
    assert ask(program, cfg, ok + [bad[0]] + ok) == 3
    ours.close()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert inherited.closed


def test_records_pickle_through_their_constructor():
    program = build_rwpe()
    cfg = ExecConfig(classical_mode=ClassicalMode.FIXED_POINT, seed=2)
    record = sim.run_shot(program, cfg, 1)
    back = pickle.loads(pickle.dumps(record))
    assert back == record
    assert _jsonl([back]) == _jsonl([record])
