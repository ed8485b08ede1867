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
evolution time of a call (RWPE records the same 24 in every shot), the
tables cos B_l and sin B_l, B_l = l * step * t / 2 for l < 128, are built
once and kept under a row budget; a record whose times equal the previous
record's, entry for entry, reuses the tables already in place.  Each entry
then costs a sine and a cosine of its coarse arguments
A_h = (phi_128h - phi_inv) * t / 2 + s only (16 of them on the default
2001-node grid), and its whole row
sin(A_h + B_l) = sin A_h cos B_l + cos A_h sin B_l is one batched matrix
product.  Angle addition is accurate only in absolute terms, so every
factor below 1e-6 (|sine| < 1e-3) is recomputed, floored and logged by the
direct form.  Every other factor is at least 1e-6, so the record's factors
at a node are multiplied, 32 at a time, before one log: a product of 32
cannot underflow.  Each record's row is evaluated once: the per-shot
posterior normalises log prior + row, and the pooled posterior normalises
log prior + the sum of all rows.

`refit` takes the records in blocks of at most BLOCK_ENTRIES evidence
entries (ten RWPE records; a longer record is a block of its own).  Each
block's evidence is converted to arrays by one `np.array` call, checked by
one vectorised pass (a block that fails is gone through again record by
record, so the error is the first failing record's), and given the sines
and cosines of all its coarse arguments at once.  The matrix product,
repair, products and normalisation stay per record.  What is alive at a
time is one block's columns and coarse sines and cosines (3 x 256 and
256 x 16 x 2 doubles on the default grid, 72 kB) and one record's buffers,
sized by the longest record so far (24 x 2048 doubles for RWPE, 393 kB):
memory does not grow with the number of records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegeneratePosterior
from .sim import ShotRecord

LOG_FLOOR = -745.0
# Fewer grid nodes per likelihood period than this alias the posterior: on
# RWPE records (|t| up to 322) 4 nodes per period already moved per-shot
# refits by 0.065 from a 16001-node refit, 6 by 0.016.
MIN_NODES_PER_PERIOD = 6
# `refit`'s angle-addition rows: grid nodes per coarse node; the factor
# below which an element is recomputed by the direct form (|sine| < 1e-3);
# the rows multiplied before one log (NEAR_ZERO ** 32 = 1e-192 is far from
# underflow); and the most per-time tables (2 kB each) one call keeps
# before it starts over.
FINE_NODES = 128
NEAR_ZERO = 1e-6
PRODUCT_ROWS = 32
ROW_BUDGET = 256
# `refit` converts, checks and takes the coarse sines of this many evidence
# entries at a time (ten RWPE records), and of a longer record alone.
BLOCK_ENTRIES = 256


@dataclass(frozen=True)
class EvidenceRecord:
    """Evidence in radians: tuples (t, phi_inv, d)."""

    entries: tuple[tuple[float, float, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


def evidence_from_record(rec: ShotRecord) -> EvidenceRecord:
    """Convert a shot record's evidence to radians (angles were stored in
    units of pi; evolution times are plain scalars or Q2.16 boxes, which
    `float` reads)."""
    return EvidenceRecord(tuple(
        (float(t), float(p) * math.pi, int(d))
        for t, p, d in rec.evidence))


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


def _normalised(nodes: np.ndarray, logw: np.ndarray) -> PosteriorGrid:
    m = np.max(logw)
    if not np.isfinite(m):
        raise DegeneratePosterior("no grid node carries posterior weight")
    w = np.exp(logw - m)                # 1 at the maximum, so the sum >= 1
    return PosteriorGrid(nodes, w / w.sum())


class _AngleSumRows:
    """`_log_factors` on a uniform grid by angle addition (see the module
    docstring).  One instance serves one `refit` call."""

    def __init__(self, grid: PosteriorGrid):
        nodes = grid.nodes
        self.phis = nodes * math.pi
        self.coarse = self.phis[::FINE_NODES]
        step = (nodes[-1] - nodes[0]) / (len(nodes) - 1) * math.pi
        self.fine = np.arange(FINE_NODES) * step
        self.tables: dict[float, np.ndarray] = {}   # t -> [cos B, sin B]
        self.entries = 0                            # rows the buffers hold
        self.filled = None              # the times cos_sin_b holds tables of

    def _buffers(self, entries: int):
        if entries > self.entries:
            coarse = len(self.coarse)
            self.cos_sin_b = np.empty((entries, 2, FINE_NODES))
            self.buf = np.empty((entries, coarse * FINE_NODES))
            self.near = np.empty(self.buf.shape, dtype=bool)
            self.entries = entries
            self.filled = None
        return (self.cos_sin_b[:entries], self.buf[:entries],
                self.near[:entries])

    def _fine_tables(self, times: list[float]) -> list[np.ndarray]:
        tables = self.tables
        new = [t for t in dict.fromkeys(times) if t not in tables]
        if new:
            if len(tables) + len(new) > ROW_BUDGET:
                tables.clear()
                new = list(dict.fromkeys(times))
            b = np.multiply.outer(np.multiply(new, 0.5), self.fine)
            tables.update(zip(new, np.stack((np.cos(b), np.sin(b)), axis=1)))
        return [tables[t] for t in times]

    def __call__(self, cols: np.ndarray,
                 lengths: list[int]) -> Iterator[np.ndarray]:
        """The row of each record of a block, in order: `cols` holds the
        block's evidence columns (`_columns`), record after record, and
        `lengths` each record's number of entries."""
        t, phi_inv, d = cols
        a = np.subtract(self.coarse, phi_inv[:, None])
        a *= (0.5 * t)[:, None]
        a += np.where(d == 0, 0.5 * math.pi, 0.0)[:, None]
        sin_cos_a = np.empty(a.shape + (2,))
        np.sin(a, out=sin_cos_a[:, :, 0])
        np.cos(a, out=sin_cos_a[:, :, 1])
        del a                   # not kept while the rows are formed
        times = t.tolist()
        end = 0
        for m in lengths:
            start, end = end, end + m
            yield self._row(sin_cos_a[start:end], times[start:end],
                            t[start:end], phi_inv[start:end], d[start:end])

    def _row(self, sin_cos_a, times, t, phi_inv, d) -> np.ndarray:
        n = len(self.phis)
        cos_sin_b, buf, near = self._buffers(len(t))
        # RWPE records share their times, entry for entry: the tables the
        # last record put in place are often the ones this record needs.
        if times != self.filled:
            for k, table in enumerate(self._fine_tables(times)):
                cos_sin_b[k] = table
            self.filled = times
        np.matmul(sin_cos_a, cos_sin_b,
                  out=buf.reshape(len(t), len(self.coarse), FINE_NODES))
        np.square(buf, out=buf)
        buf[:, n:] = 1.0                  # nodes past the grid's end
        k = np.flatnonzero(np.less(buf, NEAR_ZERO, out=near))
        i, j = np.divmod(k, buf.shape[1])
        repaired = _direct_log_factors(self.phis[j], t[i], phi_inv[i], d[i])
        np.put(buf, k, 1.0)
        # Every factor left is at least NEAR_ZERO, so a product of
        # PRODUCT_ROWS of them cannot underflow: one log per node and block.
        row = np.log(buf[:PRODUCT_ROWS].prod(axis=0)[:n])
        for r in range(PRODUCT_ROWS, len(t), PRODUCT_ROWS):
            row += np.log(buf[r:r + PRODUCT_ROWS].prod(axis=0)[:n])
        row += np.bincount(j, repaired, n)
        return row


def posterior(ev: EvidenceRecord, grid: PosteriorGrid) -> PosteriorGrid:
    """Bayes update of `grid` by the whole evidence record."""
    return _normalised(grid.nodes, _log_weights(grid)
                       + _log_factors(ev, grid.nodes * math.pi))


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


def _record_columns(rec: ShotRecord, grid_size: int,
                    width: float) -> np.ndarray:
    """One record's evidence columns (`_columns`), after `refit`'s checks:
    the record has evidence, every time and angle is finite, and the grid
    has MIN_NODES_PER_PERIOD nodes per likelihood period."""
    if not rec.evidence:
        raise ValueError(f"shot {rec.shot} has no evidence to refit")
    cols = _columns(evidence_from_record(rec))
    finite = np.isfinite(cols[:2]).all(axis=0)
    if not finite.all():
        raise ValueError(f"shot {rec.shot}: evidence entry "
                         f"{finite.argmin()} is not finite")
    t = float(np.abs(cols[0]).max())
    # A factor of time t has period 2/|t| in units of pi.
    if 2.0 * (grid_size - 1) < MIN_NODES_PER_PERIOD * t * width:
        # inf if t * width overflows (np.ceil, unlike math.ceil, keeps it).
        need = np.ceil(MIN_NODES_PER_PERIOD * t * width / 2.0) + 1
        raise ValueError(
            f"shot {rec.shot}: |t| = {t:.6g} needs a grid of at least "
            f"{need:.0f} nodes ({MIN_NODES_PER_PERIOD} per likelihood period "
            f"2/|t|), got {grid_size}")
    return cols


def _block_columns(block: list[ShotRecord], lengths: list[int],
                   grid_size: int, width: float) -> np.ndarray:
    """The block's evidence columns, record after record: those of
    `_record_columns`, converted and checked for the whole block at once.
    When the block fails a check, `_record_columns` goes through it record
    by record and so raises the first failing record's first error."""
    try:
        cols = np.array([(float(t), float(p) * math.pi, int(d))
                         for rec in block for t, p, d in rec.evidence],
                        dtype=float).reshape(-1, 3).T
    except Exception:       # raised again, in record order, below
        cols = None
    # (6 |t|) * width rounds monotonically in |t|, so the largest |t| of
    # the block fails the nodes-per-period check when any record does.
    if (cols is None or 0 in lengths or not np.isfinite(cols[:2]).all()
            or 2.0 * (grid_size - 1)
            < MIN_NODES_PER_PERIOD * float(np.abs(cols[0]).max()) * width):
        cols = np.concatenate([_record_columns(rec, grid_size, width)
                               for rec in block], axis=1)
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
    mse / raw_mse summary fields.  Raises ValueError when a record's
    evidence holds a non-finite time or angle, or when the grid has fewer
    than MIN_NODES_PER_PERIOD nodes per likelihood period of some record.
    """
    if not records:
        raise ValueError("no records to refit")
    raw = None if raw_estimates is None else np.asarray(list(raw_estimates))
    if raw is not None and len(raw) != len(records):
        raise ValueError(f"{len(raw)} raw estimates for {len(records)} records")
    prior = uniform_grid(grid_size, prior_interval)
    log_prior = _log_weights(prior)
    rows = _AngleSumRows(prior)
    width = abs(prior_interval[1] - prior_interval[0])
    pooled_rows = np.zeros_like(prior.nodes)
    per_shot = []
    for block in _blocks(records):
        lengths = [len(rec.evidence) for rec in block]
        cols = _block_columns(block, lengths, grid_size, width)
        for row in rows(cols, lengths):
            per_shot.append(2.0 * mmse_estimate(
                _normalised(prior.nodes, log_prior + row)))
            pooled_rows += row
    pooled = 2.0 * mmse_estimate(_normalised(prior.nodes,
                                             log_prior + pooled_rows))
    arr = np.asarray(per_shot)
    mse = raw_mse = None
    if true_value is not None:
        mse = float(np.mean((arr - true_value) ** 2))
        if raw is not None:
            raw_mse = float(np.mean((raw - true_value) ** 2))
    return RefitResult(tuple(per_shot), pooled, float(arr.mean()), mse, raw_mse)
