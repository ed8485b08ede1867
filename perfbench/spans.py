"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, run id).  Spans come from two places:

- call sites in the benchmark's own files, through `Tracer.span`;
- wrappers that `Tracer.install` puts on module globals and class
  methods of hybridsim for the duration of a traced pass.  Callers inside
  the package look those names up at call time (or, for the fixed-point
  ops the interpreter captures, at compile time), so the wrappers see every
  call without any file under src/ being changed.  `Tracer.uninstall`
  restores the originals.

Spans are kept in a list and written out once, at the end.  Self time is a
span's duration minus the durations of its direct children, minus the
wrapper cost each child adds to its parent (`calibrate`).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (span id, name id, start ns, end ns, parent span id, run id),
        # appended when the span closes.
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.run_id = -1
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.child_cost_ns = 0.0
        self._columns = None
        self._next = itertools.count()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str) -> "_Span":
        """Context manager recording one span around a call site."""
        return _Span(self, self._id(name))

    def wrap(self, name: str, fn, on_call=None):
        """`fn` recording a span per call.  `on_call(args, result)` runs after
        the span closes, inside a `trace.bookkeeping` span of its own so its
        cost is not charged to the caller's self time."""
        nid = self._id(name)
        book = self._id("trace.bookkeeping")
        next_id, stack, record = self._next.__next__, self._stack, self.spans.append
        tracer = self

        def wrapper(*args, **kwargs):
            i = next_id()
            parent = stack[-1]
            stack.append(i)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                record((i, nid, t0, t1, parent, tracer.run_id))
            if on_call is not None:
                with _Span(tracer, book):
                    on_call(args, result)
            return result

        return wrapper

    def install(self, hooks):
        """hooks: (owner, attribute, span name, on_call or None).  A hook
        whose attribute no longer exists is skipped and listed in
        `missing`, so its metrics read 0 rather than failing the run."""
        for owner, attr, name, on_call in hooks:
            fn = getattr(owner, attr, None)
            if fn is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, on_call))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def calibrate(self, calls: int = 20000):
        """Measure `child_cost_ns`, the time one wrapped call adds to its
        caller outside the callee's own span, and drop the spans made."""
        def noop():
            pass

        wrapped = self.wrap("trace.calibration", noop)
        kept = len(self.spans)
        loops = []
        for f in (noop, wrapped) * 3:
            t0 = _clock()
            for _ in range(calls):
                f()
            loops.append(_clock() - t0)
        inside = sum(t1 - t0 for _, _, t0, t1, _, _ in self.spans[kept:])
        del self.spans[kept:]
        plain, traced = min(loops[0::2]), min(loops[1::2])
        self.child_cost_ns = max(0.0, (traced - inside / 3 - plain) / calls)
        self._columns = None

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        """Columns of the spans: name id, duration, row of the parent (-1
        for none), run id and self time in ns; then the raw rows."""
        if self._columns is None or self._columns[0] != len(self.spans):
            rows = np.array(sorted(self.spans), dtype=np.int64).reshape(-1, 6)
            dur = rows[:, 3] - rows[:, 2]
            has_parent = rows[:, 4] >= 0
            parent = np.where(has_parent,
                              np.searchsorted(rows[:, 0], rows[:, 4]), -1)
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            children = np.bincount(parent[has_parent], minlength=len(dur))
            self_ns = dur - child - children * self.child_cost_ns
            self._columns = (len(self.spans), rows[:, 1], dur, parent,
                             rows[:, 5], self_ns, rows)
        return self._columns[1:]

    def stats(self, name: str, traced_runs_only: bool):
        """(calls, total self ns, durations ns) of spans called `name`;
        with `traced_runs_only`, spans outside a chunk run (run id < 0,
        the set-up) are left out."""
        if name not in self._ids or not self.spans:
            return 0, 0.0, np.zeros(0)
        nid, dur, _, run, self_ns, _ = self._arrays()
        sel = nid == self._ids[name]
        if traced_runs_only:
            sel &= run >= 0
        return int(sel.sum()), float(self_ns[sel].sum()), dur[sel]

    def calls_under(self, name: str, parent_name: str) -> int:
        """Number of traced `name` spans whose direct parent is a
        `parent_name` span."""
        if name not in self._ids or parent_name not in self._ids:
            return 0
        nid, _, parent, run, _, _ = self._arrays()
        sel = (nid == self._ids[name]) & (parent >= 0) & (run >= 0)
        return int((nid[parent[sel]] == self._ids[parent_name]).sum())

    def write(self, path):
        """Tab-separated spans, one per line, after a header naming the ids;
        a path ending in .gz is compressed."""
        *_, rows = self._arrays()
        header = "names: " + " ".join(f"{i}={n}" for i, n in enumerate(self.names))
        header += "\nspan\tname\tstart_ns\tend_ns\tparent\trun"
        np.savetxt(path, rows, fmt="%d", delimiter="\t", header=header)


class _Span:
    __slots__ = ("tracer", "nid", "i", "parent", "t0")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        t = self.tracer
        self.i = next(t._next)
        self.parent = t._stack[-1]
        t._stack.append(self.i)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc):
        t1 = _clock()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.i, self.nid, self.t0, t1, self.parent, t.run_id))
        return False


class _NoSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


def no_span(name: str) -> _NoSpan:
    """Stand-in for `Tracer.span` when tracing is off."""
    return _NO_SPAN
