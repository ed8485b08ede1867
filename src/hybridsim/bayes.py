"""Offline Bayesian refit of recorded evidence.

Each shot's evidence is a sequence of (evolution time, inversion angle,
outcome) tuples.  The per-datum likelihood of an eigenphase phi (radians) is

    cos^2((phi - phi_inv) * t / 2)   for outcome 0
    sin^2((phi - phi_inv) * t / 2)   for outcome 1

and the product over a record, evaluated on a discrete grid of candidate
phases, gives a posterior whose mean is the minimum-mean-squared-error
estimate.  Everything is computed in log space with max subtraction; each
log factor is floored at -745 so contradictory evidence stays finite.

Both factors are one sine, since cos^2 x = sin^2(x + pi/2).  The direct
form, which `posterior` and `log_likelihood` use, evaluates
sin((phi - phi_inv) * t / 2 + s), with s = pi/2 for outcome 0, at every grid
node: one sine and one log per element.  The sine keeps full relative
accuracy next to a zero of the likelihood, where the one-cosine form
(1 -+ cos(2x)) / 2 cancels catastrophically.

`refit` would spend most of its time on those sines, so it forms each
record's row by angle addition instead.  Its grid is uniform, so node
j = 128h + l lies at phi_j = phi_128h + l * step.  For each distinct
evolution time (RWPE records the same 24 in every shot) it keeps, once per
process, the table cos B_l and sin B_l, B_l = l * step * t / 2 for l < 128,
shared by every grid of the same node spacing.  A run of records in a block
whose times equal its first record's, entry for entry (as RWPE's do), takes
the sine and cosine of C_h = phi_128h * t / 2 at each coarse node (16 of
them on the default 2001-node grid) once for each of its times, and gathers
their fine tables once.  An entry's coarse arguments
A_h = (phi_128h - phi_inv) * t / 2 + s = C_h - q, with
q = phi_inv * t / 2 - s, then take one sine and one cosine of q and an
angle subtraction, and its whole row
sin(A_h + B_l) = sin A_h cos B_l + cos A_h sin B_l is one batched matrix
product with the fine tables.  Angle addition and subtraction are accurate
only in absolute terms, so every factor below 1e-6 (|sine| < 1e-3) is
recomputed, floored and logged by the direct form.  Every other factor is
at least 1e-6, so the record's factors at a node are multiplied, 32 at a
time, before one log: a product of 32 cannot underflow.  Each record's row
is evaluated once: the per-shot posterior normalises log prior + row, and
the pooled posterior normalises log prior + the sum of all rows.

What `refit` keeps, and for how long:

- Per process: for each of the last 8 (grid size, prior interval) pairs,
  the grid's nodes, log prior, nodes in radians and coarse nodes; and the
  last ROW_BUDGET fine tables (2 kB each, 512 kB in all, whatever the
  grid), shared by every grid of the same node spacing.  All are read-only
  and shared by every call, in any thread, so a one-record call pays for
  its record, not for its grid.
- Per call: the pooled row.
- Per block of at most BLOCK_ENTRIES evidence entries (ten RWPE records;
  a longer record is a block of its own): the evidence columns, each built
  in one vectorised step (floats as they are, Q2.16 boxes from their raw
  words; any other column one `float` or `int` call per value) and checked
  by one vectorised pass (a block that fails is gone through again record
  by record, by the same conversion, so the error is the first failing
  record's, and names its shot); the coarse sines
  and gathered tables of one run at a time; one record's scratch buffers,
  sized by the block's longest record (for RWPE 24 x 2048 doubles, 393 kB,
  and as many near-zero flags); and its rows (10 x 2001 doubles, 160 kB).
  Per record there remain the matrix product, the search for near-zero
  factors and the products and logs.  The block's near-zero factors are
  recomputed by one direct-form call and added to their rows by one
  `np.add.at`, and every per-shot posterior of the block is normalised in
  one pass over its rows.

Every floating-point reduction keeps the order of a record-at-a-time
refit (each row's products and logs, its near-zero factors added by
`np.add.at` one after another in the order of its entries, the pooled sum
in record order, and the per-shot `np.dot` with the nodes), so no estimate
depends on the blocking or on what earlier calls left in the tables.
Memory does not grow with the number of records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegeneratePosterior
from .fixedpoint import FixedQ216, decode
from .sim import ShotRecord

LOG_FLOOR = -745.0
# Fewer grid nodes per likelihood period than this alias the posterior: on
# RWPE records (|t| up to 322) 4 nodes per period already moved per-shot
# refits by 0.065 from a 16001-node refit, 6 by 0.016.
MIN_NODES_PER_PERIOD = 6
# `refit`'s angle-addition rows: grid nodes per coarse node; the factor
# below which an element is recomputed by the direct form (|sine| < 1e-3);
# the rows multiplied before one log (NEAR_ZERO ** 32 = 1e-192 is far from
# underflow); and the most fine tables (2 kB each) the process keeps.
FINE_NODES = 128
NEAR_ZERO = 1e-6
PRODUCT_ROWS = 32
ROW_BUDGET = 256
# `refit` converts, checks and forms the rows of this many evidence entries
# at a time (ten RWPE records), and of a longer record alone.
BLOCK_ENTRIES = 256


@dataclass(frozen=True)
class EvidenceRecord:
    """Evidence in radians: tuples (t, phi_inv, d)."""

    entries: tuple[tuple[float, float, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


def evidence_from_record(rec: ShotRecord) -> EvidenceRecord:
    """Convert a shot record's evidence to radians (angles were stored in
    units of pi; times and angles are plain scalars or boxes, which `float`
    reads), as `refit` converts it: evidence it cannot read, or an outcome
    other than 0 or 1, is a ValueError that names the shot."""
    t, phi_inv, d = _record_columns(rec)
    return EvidenceRecord(tuple(zip(t.tolist(), phi_inv.tolist(),
                                    d.astype(int).tolist())))


@dataclass(frozen=True)
class PosteriorGrid:
    """Discrete distribution over candidate phases, in units of pi."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len(self.nodes) < 2 or len(self.nodes) != len(self.weights):
            raise ValueError("grid needs >= 2 nodes with matching weights")


def uniform_grid(size: int = 2001,
                 interval: tuple[float, float] = (-1.0, 1.0)) -> PosteriorGrid:
    if size < 2:
        raise ValueError(f"grid needs >= 2 nodes, got {size}")
    lo, hi = interval
    if not lo < hi:
        raise ValueError(f"prior interval needs lo < hi, got {tuple(interval)}")
    # Nodes are read in radians, so pi times each end and the width is finite.
    if not all(math.isfinite(x * math.pi) for x in (lo, hi, hi - lo)):
        raise ValueError("prior interval needs finite ends and width in "
                         f"radians, got {tuple(interval)}")
    nodes = np.linspace(lo, hi, size)
    return PosteriorGrid(nodes, np.full(size, 1.0 / size))


def _columns(ev: EvidenceRecord) -> np.ndarray:
    """Evidence as three rows: t, phi_inv and d."""
    return np.array(ev.entries, dtype=float).reshape(-1, 3).T


def _direct_log_factors(phi, t, phi_inv, d) -> np.ndarray:
    """Floored log of each datum's factor at `phi`, elementwise with
    broadcasting: one sine and one log per element."""
    buf = np.subtract(phi, phi_inv)
    buf *= 0.5 * t
    buf += np.where(d == 0, 0.5 * math.pi, 0.0)   # cos^2 x = sin^2(x + pi/2)
    np.sin(buf, out=buf)
    np.square(buf, out=buf)
    with np.errstate(divide="ignore"):
        np.log(buf, out=buf)
    np.maximum(buf, LOG_FLOOR, out=buf)
    return buf


def _log_factors(ev: EvidenceRecord, phis_rad: np.ndarray) -> np.ndarray:
    """Sum of floored per-datum log likelihoods at each candidate phase."""
    t, phi_inv, d = _columns(ev)[:, :, None]
    return _direct_log_factors(phis_rad, t, phi_inv, d).sum(axis=0)


def log_likelihood(ev: EvidenceRecord, phi: float) -> float:
    """Log likelihood of eigenphase `phi` (radians) under the evidence."""
    return float(_log_factors(ev, np.asarray([phi], dtype=float))[0])


def _log_weights(grid: PosteriorGrid) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(grid.weights > 0.0,
                        np.log(np.maximum(grid.weights, 1e-300)), -np.inf)


def _normalise(logw: np.ndarray) -> np.ndarray:
    """Each posterior of `logw` (log weights, one posterior per row of a
    2-D array) made to sum to 1, in place."""
    m = logw.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise DegeneratePosterior("no grid node carries posterior weight")
    logw -= m
    w = np.exp(logw, out=logw)          # 1 at the maximum, so the sum >= 1
    w /= w.sum(axis=-1, keepdims=True)
    return w


class _Grid:
    """What `refit` keeps per process for one grid, all read-only: the
    prior's nodes and log weights, the nodes in radians, the coarse nodes,
    and `step`, the node spacing in radians."""

    def __init__(self, size: int, interval: tuple[float, float]):
        prior = uniform_grid(size, interval)
        self.nodes = prior.nodes
        self.log_prior = _log_weights(prior)
        self.phis = self.nodes * math.pi
        self.coarse = self.phis[::FINE_NODES]
        self.step = (self.nodes[-1] - self.nodes[0]) / (size - 1) * math.pi
        for a in (self.nodes, self.log_prior, self.phis, self.coarse):
            a.flags.writeable = False


# The grids of the last few (grid size, prior interval) pairs refit was
# called with; uniform_grid's errors are raised, not kept.
_grid = lru_cache(maxsize=8)(_Grid)


@lru_cache(maxsize=ROW_BUDGET)
def _fine_table(step: float, t: float) -> np.ndarray:
    """The read-only table [cos B, sin B] of time `t` on every grid of node
    spacing `step` (radians): B_l = (t / 2) * (l * step) for l < FINE_NODES."""
    b = (0.5 * t) * (np.arange(FINE_NODES) * step)
    table = np.stack((np.cos(b), np.sin(b)))
    table.flags.writeable = False
    return table


def _runs(times: list[float], lengths: list[int]) -> list[list[int]]:
    """[first entry, entries per record, records] of each run of records
    in a block whose times equal the run's first record's, entry for
    entry; `lengths` gives each record's entries, `times` all of them."""
    runs, end = [], 0
    for m in lengths:
        start, end = end, end + m
        run = runs[-1] if runs else None
        if (run and run[1] == m
                and times[start:end] == times[run[0]:run[0] + m]):
            run[2] += 1
        else:
            runs.append([start, m, 1])
    return runs


def _block_rows(grid: _Grid, cols: np.ndarray,
                lengths: list[int]) -> np.ndarray:
    """`_log_factors` of a block's records on `grid`, one row per record, by
    angle addition (see the module docstring): `cols` holds the block's
    evidence columns (`_columns`), record after record, and `lengths` each
    record's number of entries."""
    t, phi_inv, d = cols
    times = t.tolist()
    q = phi_inv * (0.5 * t)
    q -= np.where(d == 0, 0.5 * math.pi, 0.0)
    cos_q, sin_q = np.cos(q), np.sin(q)
    coarse = len(grid.coarse)
    width = coarse * FINE_NODES
    rows = np.empty((len(lengths), len(grid.phis)))
    buf = np.empty((max(lengths), width))
    near = np.empty(buf.shape, dtype=bool)
    repairs = []        # near-zero factors, flat into block entries x width
    records = iter(rows)
    for start, m, count in _runs(times, lengths):
        end = start + m * count
        # The run's coarse sines, C_h = coarse_h * (t / 2), and its fine
        # tables, shared by its records.
        c = grid.coarse * (0.5 * t[start:start + m, None])
        sin_c, cos_c = np.sin(c), np.cos(c)
        cos_sin_b = np.array([_fine_table(grid.step, x)
                              for x in times[start:start + m]])
        # [sin A_h, cos A_h] of each entry, A_h = C_h - q.
        sin_cos_a = np.empty((count, m, coarse, 2))
        cq = cos_q[start:end].reshape(count, m, 1)
        sq = sin_q[start:end].reshape(count, m, 1)
        np.multiply(sin_c, cq, out=sin_cos_a[..., 0])
        sin_cos_a[..., 0] -= cos_c * sq
        np.multiply(cos_c, cq, out=sin_cos_a[..., 1])
        sin_cos_a[..., 1] += sin_c * sq
        for e, a in zip(range(start, end, m), sin_cos_a):
            k = _row(next(records), a, cos_sin_b, buf[:m], near[:m])
            repairs.append(k + e * width)
    # Every near-zero factor by the direct form, added to its record's row
    # at its node, in the order of the block's entries and nodes.
    i, j = np.divmod(np.concatenate(repairs), width)
    owner = np.repeat(np.arange(len(lengths)), lengths)[i]
    np.add.at(rows, (owner, j), _direct_log_factors(grid.phis[j], *cols[:, i]))
    return rows


def _row(row, sin_cos_a, cos_sin_b, buf, near):
    """Fill `row` with a record's row but for its near-zero factors, on the
    scratch `buf` and `near` (one row per entry), and return where those lie
    in `buf`, flat."""
    n = len(row)
    m = len(sin_cos_a)
    np.matmul(sin_cos_a, cos_sin_b, out=buf.reshape(m, -1, FINE_NODES))
    np.square(buf, out=buf)
    buf[:, n:] = 1.0                      # nodes past the grid's end
    k = np.flatnonzero(np.less(buf, NEAR_ZERO, out=near))
    np.put(buf, k, 1.0)
    # Every factor left is at least NEAR_ZERO, so a product of
    # PRODUCT_ROWS of them cannot underflow: one log per node and block.
    np.log(buf[:PRODUCT_ROWS].prod(axis=0)[:n], out=row)
    for r in range(PRODUCT_ROWS, m, PRODUCT_ROWS):
        row += np.log(buf[r:r + PRODUCT_ROWS].prod(axis=0)[:n])
    return k


def posterior(ev: EvidenceRecord, grid: PosteriorGrid) -> PosteriorGrid:
    """Bayes update of `grid` by the whole evidence record."""
    return PosteriorGrid(grid.nodes, _normalise(
        _log_weights(grid) + _log_factors(ev, grid.nodes * math.pi)))


def mmse_estimate(grid: PosteriorGrid) -> float:
    """Posterior mean (units of pi)."""
    return float(np.dot(grid.weights, grid.nodes))


def _blocks(records: Sequence[ShotRecord]) -> Iterator[list[ShotRecord]]:
    """`records` in runs of at most BLOCK_ENTRIES evidence entries; a
    longer record is a block of its own."""
    block, entries = [], 0
    for rec in records:
        if block and entries + len(rec.evidence) > BLOCK_ENTRIES:
            yield block
            block, entries = [], 0
        block.append(rec)
        entries += len(rec.evidence)
    yield block


def _fault(cols: np.ndarray, grid_size: int, width: float) -> str | None:
    """What keeps evidence columns (`_columns`) from a refit on a grid of
    `grid_size` nodes over an interval `width` wide (units of pi), as the
    text that follows `shot N: `, or None: the first entry whose time or
    angle is not finite, else the first whose likelihood argument's product
    t * phi_inv (in radians) overflows, else a grid with fewer than
    MIN_NODES_PER_PERIOD nodes per likelihood period of the largest |t|."""
    # The largest |t| and |phi_inv| (nan when a column holds one).  No
    # entry's product exceeds theirs, so only when theirs is not finite are
    # the entries gone through.
    (t_lo, phi_lo), (t_hi, phi_hi) = (cols[:2].min(axis=1).tolist(),
                                      cols[:2].max(axis=1).tolist())
    t = max(-t_lo, t_hi)
    if not math.isfinite(t * max(-phi_lo, phi_hi)):
        finite = np.isfinite(cols[:2])
        if not finite.all():
            return (f"evidence entry {finite.all(axis=0).argmin()} is not "
                    "finite")
        with np.errstate(over="ignore"):
            finite = np.isfinite(cols[0] * cols[1])
        if not finite.all():
            return (f"evidence entry {finite.argmin()} has t * phi_inv * pi "
                    "beyond the float range")
    # A factor of time t has period 2/|t| in units of pi.
    if 2.0 * (grid_size - 1) < MIN_NODES_PER_PERIOD * t * width:
        # inf if t * width overflows (np.ceil, unlike math.ceil, keeps it).
        need = np.ceil(MIN_NODES_PER_PERIOD * t * width / 2.0) + 1
        return (f"|t| = {t:.6g} needs a grid of at least {need:.0f} nodes "
                f"({MIN_NODES_PER_PERIOD} per likelihood period 2/|t|), "
                f"got {grid_size}")
    return None


_evidence = attrgetter("evidence")
_raw = attrgetter("raw")
_OUTCOMES = frozenset({0, 1})


def _column(values: tuple, kind: type = float) -> np.ndarray:
    """`kind` of each value, as a float: a column of `kind` as it is, a
    column of Q2.16 boxes from their words in one step (`decode`, as
    `FixedQ216.__float__` does it), and any other column one `kind` call
    per value."""
    n, kinds = len(values), set(map(type, values))
    if kinds == {FixedQ216} and kind is float:
        return decode(np.fromiter(map(_raw, values), float, n))
    return np.fromiter(values if kinds == {kind} else map(kind, values),
                       float, n)


def _evidence_columns(records: Iterable[ShotRecord]) -> np.ndarray:
    """The evidence columns (`_columns`) of `records`, record after record:
    a column of floats or of Q2.16 boxes in one vectorised step, any other
    one value at a time.  An outcome other than 0 or 1 is a ValueError
    naming its entry (counted over all of `records`); any other value that
    cannot be read raises what its conversion raises."""
    # strict: every entry as long as the first, which must be 3.
    t, p, d = tuple(zip(*chain.from_iterable(map(_evidence, records)),
                        strict=True)) or ((), (), ())
    if not _OUTCOMES.issuperset(d):
        k = next(k for k, x in enumerate(d) if x not in _OUTCOMES)
        raise ValueError(f"evidence entry {k} has outcome d = {d[k]!r}, "
                         "not 0 or 1")
    cols = np.empty((3, len(t)))
    cols[0] = _column(t)
    with np.errstate(over="ignore"):    # inf, as Python's product is
        np.multiply(_column(p), math.pi, out=cols[1])
    cols[2] = _column(d, int)
    return cols


def _record_columns(rec: ShotRecord) -> np.ndarray:
    """One record's evidence columns; evidence that cannot be read is a
    ValueError that names the shot."""
    try:
        return _evidence_columns([rec])
    except (TypeError, ValueError, ArithmeticError) as e:
        raise ValueError(f"shot {rec.shot}: {e}") from e


def _block_columns(block: list[ShotRecord], lengths: list[int],
                   grid_size: int, width: float) -> np.ndarray:
    """The block's evidence columns (`_evidence_columns`), converted and
    checked for the whole block at once.  When the block fails, the same
    conversion and checks go through its records one by one, so the error
    raised is the first failing record's first one, and names its shot."""
    try:
        cols = _evidence_columns(block)
    except Exception:       # raised again, for its record, below
        cols = None
    # (6 |t|) * width rounds monotonically in |t|, so the largest |t| of
    # the block fails the nodes-per-period check when any record does.
    if (cols is None or 0 in lengths
            or _fault(cols, grid_size, width) is not None):
        for rec in block:
            if not rec.evidence:
                raise ValueError(f"shot {rec.shot} has no evidence to refit")
            fault = _fault(_record_columns(rec), grid_size, width)
            if fault is not None:
                raise ValueError(f"shot {rec.shot}: {fault}")
    return cols


@dataclass(frozen=True)
class RefitResult:
    """Per-shot and pooled refits.  Estimates are reported on the doubled
    scale (2 * phase), matching the run-time estimate convention."""

    per_shot: tuple[float, ...]
    pooled: float
    mean: float
    mse: float | None          # vs true value, when known
    raw_mse: float | None      # run-time estimates' MSE, when comparable


def refit(records: Sequence[ShotRecord], grid_size: int = 2001,
          prior_interval: tuple[float, float] = (-1.0, 1.0),
          true_value: float | None = None,
          raw_estimates: Iterable[float] | None = None) -> RefitResult:
    """MMSE re-estimate per shot, plus a pooled estimate from all evidence.

    `true_value` and `raw_estimates` (both on the doubled scale) enable the
    mse / raw_mse summary fields.  Raises ValueError, naming the shot, when
    a record's evidence cannot be read, holds an outcome other than 0 or
    1, a non-finite time or angle, or a time and angle whose product
    overflows, or when the grid has fewer than MIN_NODES_PER_PERIOD nodes
    per likelihood period of some record.
    """
    if not records:
        raise ValueError("no records to refit")
    raw = None if raw_estimates is None else np.asarray(list(raw_estimates))
    if raw is not None and len(raw) != len(records):
        raise ValueError(f"{len(raw)} raw estimates for {len(records)} records")
    grid = _grid(grid_size, tuple(prior_interval))
    width = abs(prior_interval[1] - prior_interval[0])
    pooled_rows = np.zeros_like(grid.nodes)
    per_shot = []
    for block in _blocks(records):
        lengths = [len(rec.evidence) for rec in block]
        block_rows = _block_rows(
            grid, _block_columns(block, lengths, grid_size, width), lengths)
        for row in block_rows:                  # in record order
            pooled_rows += row
        block_rows += grid.log_prior
        per_shot += [2.0 * float(np.dot(w, grid.nodes))
                     for w in _normalise(block_rows)]
        del block_rows, row     # not kept while the next block's are formed
    pooled_rows += grid.log_prior
    pooled = 2.0 * float(np.dot(_normalise(pooled_rows), grid.nodes))
    arr = np.asarray(per_shot)
    mse = raw_mse = None
    if true_value is not None:
        mse = _mean((arr - true_value) ** 2)
        if raw is not None:
            raw_mse = _mean((raw - true_value) ** 2)
    return RefitResult(tuple(per_shot), pooled, _mean(arr), mse, raw_mse)


def _mean(x: np.ndarray) -> float:
    """`np.mean(x)`, the same sum over the same count, without its Python
    wrapper: refit is often called on a few records at a time."""
    return float(np.add.reduce(x, dtype=float) / len(x))
