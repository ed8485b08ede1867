"""Offline Bayesian refit of recorded evidence.

Each shot's evidence is a sequence of (evolution time, inversion angle,
outcome) tuples.  The per-datum likelihood of an eigenphase phi (radians) is

    cos^2((phi - phi_inv) * t / 2)   for outcome 0
    sin^2((phi - phi_inv) * t / 2)   for outcome 1

and the product over a record, evaluated on a discrete grid of candidate
phases, gives a posterior whose mean is the minimum-mean-squared-error
estimate.  Everything is computed in log space with max subtraction; each
log factor is floored at -745 so contradictory evidence stays finite.

A record's log likelihood is evaluated in one pass over an (entries, grid)
buffer, using cos^2 x = sin^2(x + pi/2) so that every element costs one
sine and one log.  The sine form keeps full relative accuracy next to a
zero of the likelihood, where the one-cosine form (1 -+ cos(2x)) / 2
cancels catastrophically.  `refit` evaluates each record once: the per-shot
posterior normalises log prior + row, and the pooled posterior normalises
log prior + the sum of all rows.  Only one record's buffer is alive at a
time, so memory does not grow with the number of records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import fixedpoint as fx
from .errors import DegeneratePosterior
from .sim import ShotRecord

LOG_FLOOR = -745.0
# Fewer grid nodes per likelihood period than this alias the posterior: on
# RWPE records (|t| up to 322) 4 nodes per period already moved per-shot
# refits by 0.065 from a 16001-node refit, 6 by 0.016.
MIN_NODES_PER_PERIOD = 6


@dataclass(frozen=True)
class EvidenceRecord:
    """Evidence in radians: tuples (t, phi_inv, d)."""

    entries: tuple[tuple[float, float, int], ...]

    def __len__(self) -> int:
        return len(self.entries)


def _as_float(v) -> float:
    if isinstance(v, fx.FixedQ216):
        return v.value
    if isinstance(v, fx.Int18):
        return float(v.raw)
    return float(v)


def evidence_from_record(rec: ShotRecord) -> EvidenceRecord:
    """Convert a shot record's evidence to radians (angles were stored in
    units of pi; evolution times are plain scalars)."""
    return EvidenceRecord(tuple(
        (_as_float(t), _as_float(p) * math.pi, int(d))
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
    if not interval[0] < interval[1]:
        raise ValueError(f"prior interval needs lo < hi, got {tuple(interval)}")
    nodes = np.linspace(interval[0], interval[1], size)
    return PosteriorGrid(nodes, np.full(size, 1.0 / size))


def _log_factors(ev: EvidenceRecord, phis_rad: np.ndarray) -> np.ndarray:
    """Sum of floored per-datum log likelihoods at each candidate phase."""
    columns = np.array(ev.entries, dtype=float).reshape(-1, 3).T
    t, phi_inv, d = columns[:, :, None]
    buf = np.subtract(phis_rad, phi_inv)          # (entries, grid)
    buf *= 0.5 * t
    buf += np.where(d == 0, 0.5 * math.pi, 0.0)   # cos^2 x = sin^2(x + pi/2)
    np.sin(buf, out=buf)
    np.square(buf, out=buf)
    with np.errstate(divide="ignore"):
        np.log(buf, out=buf)
    np.maximum(buf, LOG_FLOOR, out=buf)
    return buf.sum(axis=0)


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
    w = np.exp(logw - m)
    total = w.sum()
    if total <= 0.0:
        raise DegeneratePosterior("posterior weights underflowed to zero")
    return PosteriorGrid(nodes, w / total)


def posterior(ev: EvidenceRecord, grid: PosteriorGrid) -> PosteriorGrid:
    """Bayes update of `grid` by the whole evidence record."""
    return _normalised(grid.nodes, _log_weights(grid)
                       + _log_factors(ev, grid.nodes * math.pi))


def mmse_estimate(grid: PosteriorGrid) -> float:
    """Posterior mean (units of pi)."""
    return float(np.dot(grid.weights, grid.nodes))


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
    phis = prior.nodes * math.pi
    width = abs(prior_interval[1] - prior_interval[0])
    pooled_rows = np.zeros_like(phis)
    per_shot = []
    for rec in records:
        if not rec.evidence:
            raise ValueError(f"shot {rec.shot} has no evidence to refit")
        ev = evidence_from_record(rec)
        for k, (t, phi_inv, _) in enumerate(ev.entries):
            if not (math.isfinite(t) and math.isfinite(phi_inv)):
                raise ValueError(
                    f"shot {rec.shot}: evidence entry {k} is not finite")
        t = max(abs(e[0]) for e in ev.entries)
        # A factor of time t has period 2/|t| in units of pi.
        if 2.0 * (grid_size - 1) < MIN_NODES_PER_PERIOD * t * width:
            need = math.ceil(MIN_NODES_PER_PERIOD * t * width / 2.0) + 1
            raise ValueError(
                f"shot {rec.shot}: |t| = {t:.6g} needs a grid of at least "
                f"{need} nodes ({MIN_NODES_PER_PERIOD} per likelihood period "
                f"2/|t|), got {grid_size}")
        row = _log_factors(ev, phis)
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
