"""Grid posterior and offline refit."""

import gc
import math
import random
import re
import sys
import threading
import tracemalloc
import warnings
import weakref
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybridsim import bayes, sim
from hybridsim import fixedpoint as fx
from hybridsim.algorithms import build_rwpe, runtime_estimate
from hybridsim.bayes import (EvidenceRecord, PosteriorGrid, log_likelihood,
                             mmse_estimate, posterior, refit, uniform_grid)
from hybridsim.errors import DegeneratePosterior
from hybridsim.sim import ClassicalMode, ExecConfig

TRUE_PHASE = 0.25          # units of pi, for the default oracle coefficient


def _ev(entries):
    return EvidenceRecord(tuple(entries))


def test_log_likelihood_trivial():
    assert log_likelihood(_ev([]), 0.3) == 0.0
    assert log_likelihood(_ev([(2.0, 0.7, 0)]), 0.7) == pytest.approx(0.0)
    # a contradictory outcome at the likelihood zero is floored, not -inf
    assert log_likelihood(_ev([(2.0, 0.7, 1)]), 0.7) == -745.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0.5, 400.0), st.floats(-3.0, 3.0), st.floats(1e-9, 1e-3),
       st.sampled_from([-1.0, 1.0]))
def test_log_likelihood_accurate_next_to_a_zero(t, phi_inv, gap, sign):
    """Outcome 1 next to its zero keeps full relative accuracy; a form
    built on 1 - cos(t * delta) rounds to the floor here."""
    phi = phi_inv + sign * gap
    delta = phi - phi_inv
    expected = 2.0 * math.log(abs(math.sin(t * delta / 2.0)))
    assert log_likelihood(_ev([(t, phi_inv, 1)]), phi) == pytest.approx(
        expected, rel=0.0, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(-10.0, 10.0), st.integers(0, 1),
       st.floats(-10.0, 10.0))
def test_log_factor_is_floored_and_never_nan(t, phi_inv, d, phi):
    value = log_likelihood(_ev([(t, phi_inv, d)]), phi)
    assert bayes.LOG_FLOOR <= value <= 0.0
    assert log_likelihood(_ev([(t, phi_inv, 1)]), phi_inv) == bayes.LOG_FLOOR


def test_posterior_uniform_empty_evidence():
    grid = uniform_grid(101)
    post = posterior(_ev([]), grid)
    assert np.allclose(post.weights, grid.weights)
    assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_matches_direct_product():
    """Log-space result equals naive normalized products."""
    rng = random.Random(8)
    entries = [(rng.uniform(0.5, 8), rng.uniform(-2, 2), rng.randint(0, 1))
               for _ in range(5)]
    grid = uniform_grid(101)
    post = posterior(_ev(entries), grid)
    naive = np.array(grid.weights, dtype=float)
    for i, node in enumerate(grid.nodes):
        for t, phi_inv, d in entries:
            half = 0.5 * t * (node * math.pi - phi_inv)
            f = math.cos(half) ** 2 if d == 0 else math.sin(half) ** 2
            naive[i] *= max(f, math.exp(-745))
    naive /= naive.sum()
    assert np.max(np.abs(naive - post.weights)) < 1e-10


def test_sequential_bayes_consistency():
    rng = random.Random(12)
    entries = [(rng.uniform(0.5, 9), rng.uniform(-2, 2), rng.randint(0, 1))
               for _ in range(8)]
    grid = uniform_grid(301)
    joint = posterior(_ev(entries), grid)
    seq = posterior(_ev(entries[3:]), posterior(_ev(entries[:3]), grid))
    assert np.max(np.abs(joint.weights - seq.weights)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.5, 0.5), st.integers(0, 2 ** 30))
def test_likelihood_shift_covariance(delta, seed):
    rng = random.Random(seed)
    entries = [(rng.uniform(0.5, 5), rng.uniform(-1, 1), rng.randint(0, 1))
               for _ in range(4)]
    phi = rng.uniform(-1, 1)
    shifted = [(t, p + delta, d) for t, p, d in entries]
    assert log_likelihood(_ev(entries), phi) == pytest.approx(
        log_likelihood(_ev(shifted), phi + delta), abs=1e-9)


def test_mmse_examples():
    nodes = np.linspace(0.0, 1.0, 11)
    sym = PosteriorGrid(nodes, np.full(11, 1 / 11))
    assert mmse_estimate(sym) == pytest.approx(0.5)
    point = np.zeros(11)
    point[3] = 1.0
    assert mmse_estimate(PosteriorGrid(nodes, point)) == pytest.approx(nodes[3])
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.random(11)
        w /= w.sum()
        grid = PosteriorGrid(nodes, w)
        assert mmse_estimate(grid) == pytest.approx(
            sum(wi * ni for wi, ni in zip(w, nodes)), abs=1e-12)


@pytest.mark.parametrize("nodes, weights", [([0.0], [1.0]),
                                            ([0.0, 1.0], [1.0])],
                         ids=["one-node", "weights-mismatched"])
def test_posterior_grid_needs_two_nodes_with_matching_weights(nodes, weights):
    with pytest.raises(ValueError, match="grid needs >= 2 nodes with "
                                         "matching weights"):
        PosteriorGrid(np.array(nodes), np.array(weights))


def test_degenerate_posterior_raises():
    grid = PosteriorGrid(np.linspace(-1, 1, 11), np.zeros(11))
    with pytest.raises(DegeneratePosterior):
        posterior(_ev([(1.0, 0.0, 0)]), grid)


def test_contradictory_evidence_stays_finite():
    entries = [(2.0, 0.3, 0), (2.0, 0.3, 1)] * 40
    post = posterior(_ev(entries), uniform_grid(101))
    assert np.isfinite(post.weights).all()
    assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_posterior_concentrates_on_true_phase():
    record = sim.run_shot(build_rwpe(), ExecConfig(seed=77), 0)
    post = posterior(bayes.evidence_from_record(record), uniform_grid(2001))
    near = np.abs(post.nodes - TRUE_PHASE) <= 0.02
    assert post.weights[near].sum() > 0.95


def test_evidence_from_record_units():
    record = sim.run_shot(build_rwpe(), ExecConfig(seed=3), 0)
    ev = bayes.evidence_from_record(record)
    assert len(ev) == 24
    (t0, phi0, d0) = ev.entries[0]
    (t_raw, phi_raw, d_raw) = record.evidence[0]
    assert t0 == pytest.approx(t_raw)                  # times pass through
    assert phi0 == pytest.approx(phi_raw * math.pi)    # angles to radians
    assert d0 == d_raw
    assert all(t > 0 for t, _, _ in ev.entries)        # ideal-mode times


def test_refit_matches_runtime_estimate_on_converged_shot():
    """A shot whose posterior sits wholly on the walk's endpoint refits to
    the run-time estimate, up to grid resolution.  (Shots that converged at
    run time can still hold residual posterior mass at a distant alias;
    those legitimately refit elsewhere.)"""
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=5, shots=20))
    raws = [runtime_estimate(r) for r in records]
    grid = uniform_grid(2001)
    grid_step = 2.0 / 2000
    perfect = 0
    for rec, raw in zip(records, raws):
        post = posterior(bayes.evidence_from_record(rec), grid)
        near = np.abs(post.nodes - raw / 2.0) <= 0.01
        if post.weights[near].sum() > 0.995:
            perfect += 1
            assert abs(2.0 * mmse_estimate(post) - raw) < 4 * grid_step
    assert perfect >= 2


def test_refit_reduces_mse_small():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=101, shots=150))
    raws = [runtime_estimate(r) for r in records]
    result = refit(records, true_value=0.5, raw_estimates=raws)
    assert result.mse is not None and result.raw_mse is not None
    assert result.mse <= result.raw_mse
    assert abs(result.pooled - 0.5) < 0.01


def _records(evidences):
    return [sim.ShotRecord(i, 0, (), tuple(ev)) for i, ev in enumerate(evidences)]


def _assert_matches_two_pass(records, grid_size):
    result = refit(records, grid_size=grid_size)
    per_shot, pooled = oracles.refit_two_pass(
        [bayes.evidence_from_record(r).entries for r in records], grid_size)
    assert np.max(np.abs(np.subtract(result.per_shot, per_shot))) <= 1e-10
    assert abs(result.pooled - pooled) <= 1e-10


ORACLE_GRID = 201
ORACLE_NODES = np.linspace(-1.0, 1.0, ORACLE_GRID)
node = st.integers(0, ORACLE_GRID - 1).map(lambda k: float(ORACLE_NODES[k]))
# Evidence angles are in units of pi.  t stays at or below 20 so the zeros of
# one factor lie at least 5 nodes apart: when every node sits on a zero, the
# posterior is decided by rounding alone and no two evaluations agree.
times = st.floats(0.5, 20.0)
entry_groups = st.one_of(
    st.tuples(times, st.floats(-2.0, 2.0), st.integers(0, 1)).map(lambda e: [e]),
    st.tuples(times, node).map(lambda e: [(e[0], e[1], 1)]),  # sin^2 zero
    node.map(lambda p: [(1.0, p - 1.0, 0)]),                  # cos^2 zero
    st.tuples(times, st.floats(-2.0, 2.0)).map(               # contradiction
        lambda e: [(e[0], e[1], 0), (e[0], e[1], 1)]),
)
evidences = st.lists(
    st.lists(entry_groups, min_size=1, max_size=6).map(
        lambda groups: [e for g in groups for e in g]),
    min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(evidences)
def test_refit_matches_two_pass_oracle(evs):
    _assert_matches_two_pass(_records(evs), ORACLE_GRID)


@pytest.mark.parametrize("mode", list(ClassicalMode))
def test_refit_matches_two_pass_oracle_on_rwpe_records(mode):
    records = sim.run_shots(build_rwpe(), ExecConfig(
        classical_mode=mode, seed=21, shots=8))
    _assert_matches_two_pass(records, 2001)


def test_refit_rejects_raw_estimates_of_wrong_length():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=4, shots=6))
    with pytest.raises(ValueError, match="2 raw estimates for 6 records"):
        refit(records, true_value=0.5, raw_estimates=[0.5, 0.5])


def test_refit_rejects_empty():
    with pytest.raises(ValueError):
        refit([])
    rec = sim.ShotRecord(0, 0, (("mu", 0.1),), ())
    with pytest.raises(ValueError):
        refit([rec])


def test_refit_rejects_grid_with_fewer_than_six_nodes_per_period():
    # 6 nodes per period 2/|t| of RWPE's largest evolution time over [-1, 1]
    # (322.085 and 1934 nodes today).
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=1, shots=3))
    t = oracles.largest_time(records)
    need = oracles.grid_nodes(t, 2.0)
    refit(records, grid_size=need)
    with pytest.raises(ValueError, match=re.escape(
            f"shot 0: |t| = {t:.6g} needs a grid of at least {need} nodes")):
        refit(records, grid_size=need - 1)
    # A narrower prior interval needs proportionally fewer nodes.
    need = oracles.grid_nodes(t, 1.0)
    refit(records, grid_size=need, prior_interval=(0.0, 1.0))
    with pytest.raises(ValueError, match=f"at least {need} nodes"):
        refit(records, grid_size=need - 1, prior_interval=(0.0, 1.0))


@pytest.mark.parametrize("interval", [(0.5, 0.5), (1.0, -1.0)],
                         ids=["empty", "reversed"])
def test_refit_rejects_a_prior_interval_without_width(interval):
    # A zero-width prior passed the nodes-per-period check trivially and
    # refit every record to 2 * interval[0].
    with pytest.raises(ValueError, match="prior interval needs lo < hi"):
        uniform_grid(11, interval)
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=1, shots=3))
    with pytest.raises(ValueError, match="prior interval needs lo < hi"):
        refit(records, prior_interval=interval)


@pytest.mark.parametrize("interval", [(0.0, math.inf), (-math.inf, 0.0),
                                      (-1e308, 1e308), (0.0, 1e308)],
                         ids=["infinite-hi", "infinite-lo", "width-overflows",
                              "radians-overflow"])
def test_uniform_grid_rejects_a_prior_interval_it_cannot_grid(interval):
    # Such an interval gave nodes like [nan inf inf inf inf], or nodes
    # whose radians overflow.
    with pytest.raises(ValueError, match=r"prior interval needs finite ends "
                                         r"and width in radians, got \("):
        uniform_grid(5, interval)


def test_refit_rejects_a_prior_interval_too_wide_for_any_grid():
    # The width is finite but t * width is not; the nodes-per-period message
    # raised OverflowError from math.ceil.
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=1, shots=1))
    with pytest.raises(ValueError, match="needs a grid of at least inf nodes"):
        refit(records, prior_interval=(0.0, 1e307))


# -- refit's angle-addition rows ----------------------------------------------

REFIT_GRID = uniform_grid(2001)
REFIT_PHIS = REFIT_GRID.nodes * math.pi
rwpe_times = st.floats(0.5, 400.0)
grid_node = st.integers(0, 2000).map(lambda k: float(REFIT_PHIS[k]))
gap = st.floats(-1e-9, 1e-9)


@st.composite
def rwpe_shaped_evidence(draw):
    """Records that share a few evolution times, as RWPE's do, with entries
    within 1e-9 of a sin^2 or cos^2 zero at a grid node, contradictory
    pairs, and times that appear only once."""
    shared = draw(st.lists(rwpe_times, min_size=1, max_size=6))
    records = []
    for _ in range(draw(st.integers(1, 4))):
        entries = []
        for _ in range(draw(st.integers(1, 30))):
            kind = draw(st.sampled_from(
                ["plain", "sin-zero", "cos-zero", "contradiction", "fresh"]))
            t = draw(rwpe_times if kind == "fresh" else st.sampled_from(shared))
            if kind == "sin-zero":
                entries.append((t, draw(grid_node) + draw(gap), 1))
            elif kind == "cos-zero":
                entries.append((t, draw(grid_node) - math.pi / t + draw(gap), 0))
            else:
                phi_inv = draw(st.floats(-2 * math.pi, 2 * math.pi))
                for d in ((0, 1) if kind == "contradiction"
                          else (draw(st.integers(0, 1)),)):
                    entries.append((t, phi_inv, d))
        records.append(_ev(entries))
    return records


@settings(max_examples=150, deadline=None)
@given(rwpe_shaped_evidence())
# Two near-zero factors of one record at one node, both repaired there.
@example([_ev([(3.0, float(REFIT_PHIS[1200]) + 1e-10, 1)] * 2)])
def test_refit_rows_match_direct_log_factors(evs):
    # Each record is followed by one with the same times and other angles
    # and outcomes, which reuses the tables the first put in place.
    evs = [e for ev in evs for e in (ev, _ev(
        (t, phi_inv + 0.1, 1 - d) for t, phi_inv, d in ev.entries))]
    block = np.concatenate([bayes._columns(ev) for ev in evs], axis=1)
    rows = bayes._block_rows(bayes._grid(2001, (-1.0, 1.0)), block,
                             [len(ev) for ev in evs])
    for ev, row in zip(evs, rows, strict=True):
        assert np.max(np.abs(row - bayes._log_factors(ev, REFIT_PHIS))) \
            <= 1e-8


def _peak_bytes(fn, *args) -> int:
    """Peak traced allocation of `fn(*args)` above what was live before,
    measured on a second call so that one-time set-up does not count."""
    fn(*args)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _direct_refit(records):
    """`refit`'s loop with the direct form's rows."""
    log_prior = bayes._log_weights(REFIT_GRID)
    pooled = np.zeros_like(REFIT_PHIS)
    for rec in records:
        row = bayes._log_factors(bayes.evidence_from_record(rec), REFIT_PHIS)
        mmse_estimate(PosteriorGrid(REFIT_GRID.nodes,
                                    bayes._normalise(log_prior + row)))
        pooled += row


def _first_refit_error(records, grid_size, width=2.0):
    """The message `refit` raises on `records`: the first record, in order,
    to fail one of its checks, taken in order; None if none fails."""
    for rec in records:
        if not rec.evidence:
            return f"shot {rec.shot} has no evidence to refit"
        try:
            entries = bayes.evidence_from_record(rec).entries
        except ValueError as e:
            return str(e)
        for k, (t, phi_inv, _) in enumerate(entries):
            if not (math.isfinite(t) and math.isfinite(phi_inv)):
                return f"shot {rec.shot}: evidence entry {k} is not finite"
        for k, (t, phi_inv, _) in enumerate(entries):
            if not math.isfinite(t * phi_inv):
                return (f"shot {rec.shot}: evidence entry {k} has "
                        "t * phi_inv * pi beyond the float range")
        t = max(abs(e[0]) for e in entries)
        if 2.0 * (grid_size - 1) < bayes.MIN_NODES_PER_PERIOD * t * width:
            need = math.ceil(bayes.MIN_NODES_PER_PERIOD * t * width / 2.0) + 1
            return (f"shot {rec.shot}: |t| = {t:.6g} needs a grid of at least "
                    f"{need} nodes ({bayes.MIN_NODES_PER_PERIOD} per likelihood "
                    f"period 2/|t|), got {grid_size}")
    return None


CHECK_GRID = 201        # |t| up to 33.3 has 6 nodes per period
faults = st.sampled_from(["empty", "t-nan", "t-inf", "phi_inv-nan",
                          "phi_inv-inf", "t-too-large", "t-not-a-number",
                          "product-overflow"])


@st.composite
def records_with_faults(draw):
    """Up to 40 records, several blocks' worth, with an empty record, a
    non-finite time or angle, a time too large for the grid, a time that
    `float` cannot read, or a time and angle whose product overflows
    injected at random records and entries."""
    evs = draw(st.lists(st.lists(
        st.tuples(st.floats(-30.0, 30.0), st.floats(-1.0, 1.0),
                  st.integers(0, 1)), min_size=1, max_size=24),
        min_size=1, max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, len(evs) - 1))
        kind = draw(faults)
        if kind == "empty":
            evs[r] = []
            continue
        if not evs[r]:
            continue
        k = draw(st.integers(0, len(evs[r]) - 1))
        t, phi_inv, d = evs[r][k]
        if kind == "t-too-large":
            t = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(34.0, 1e6))
        elif kind == "t-not-a-number":
            t = "?"
        elif kind == "product-overflow":     # each finite, in radians too
            t = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(10.0, 30.0))
            phi_inv = draw(st.sampled_from([-1.0, 1.0])) * 1e307
        else:
            value = float(kind.split("-")[1]) * draw(st.sampled_from([-1, 1]))
            t, phi_inv = (value, phi_inv) if kind[0] == "t" else (t, value)
        evs[r][k] = (t, phi_inv, d)
    return _records(evs)


@settings(max_examples=150, deadline=None)
@given(records_with_faults())
def test_refit_raises_the_first_failing_records_error(records):
    expected = _first_refit_error(records, CHECK_GRID)
    if expected is None:
        refit(records, grid_size=CHECK_GRID)
    else:
        with pytest.raises(ValueError) as raised:
            refit(records, grid_size=CHECK_GRID)
        assert str(raised.value) == expected


def _block_columns_per_value(block, lengths, grid_size, width):
    """`bayes._block_columns` with every value converted by its own `float`
    or `int` call, once every outcome is 0 or 1: the path the vectorised
    columns must agree with."""
    try:
        entries = [(t, p, d) for rec in block for t, p, d in rec.evidence]
        if not all(d in (0, 1) for _, _, d in entries):
            raise ValueError("an outcome is not 0 or 1")
        cols = np.fromiter(chain.from_iterable([
            (float(t), float(p) * math.pi, int(d)) for t, p, d in entries]),
            float, 3 * sum(lengths)).reshape(-1, 3).T
    except Exception:
        cols = None
    if (cols is None or 0 in lengths
            or bayes._fault(cols, grid_size, width) is not None):
        for rec in block:
            if not rec.evidence:
                raise ValueError(f"shot {rec.shot} has no evidence to refit")
            fault = bayes._fault(bayes._columns(
                bayes.evidence_from_record(rec)), grid_size, width)
            if fault is not None:
                raise ValueError(f"shot {rec.shot}: {fault}")
    return cols


def _columns_outcome(fn, block):
    """The columns `fn` gives for `block` as bytes, or the type and text of
    what it raises, and the warnings it gave."""
    lengths = [len(rec.evidence) for rec in block]
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        try:
            cols = fn(block, lengths, CHECK_GRID, 2.0)
            got = cols.shape, cols.tobytes()
        except Exception as e:
            got = type(e), str(e)
    return got, [str(w.message) for w in warned]


_WORD = st.integers(fx.RAW_MIN, fx.RAW_MAX)
_NUMBERS = {
    "float": st.floats(-40.0, 40.0),
    "odd float": st.floats(),             # non-finite and huge
    "int": st.integers(-40, 40),
    "big int": st.integers(),
    "bool": st.booleans(),
    "Q2.16": st.builds(fx.FixedQ216, _WORD),
    "shared Q2.16": _WORD.map(fx.fixed_box),
    "int18": st.builds(fx.Int18, _WORD),
    "text": st.sampled_from(["?", "1.5", ""]),
}
_BITS = {"int": st.sampled_from([0, 1]), "bool": st.booleans(),
         "float": st.floats(0.0, 1.0), "big int": st.integers(),
         "Q2.16": st.builds(fx.FixedQ216, _WORD)}


@st.composite
def evidence_blocks(draw):
    """A block of up to 12 records whose t, phi_inv and d columns are each
    of one kind of value more often than not, with now and then a value
    of another kind or an entry of two or four items."""
    kinds = [draw(st.sampled_from(sorted(table)))
             for table in (_NUMBERS, _NUMBERS, _BITS)]
    mixed = draw(st.booleans())

    def value(table, kind):
        if mixed and draw(st.integers(0, 5)) == 0:
            kind = draw(st.sampled_from(sorted(table)))
        return draw(table[kind])

    records = []
    for shot in range(draw(st.integers(1, 12))):
        entries = []
        for _ in range(draw(st.integers(0 if mixed else 1, 6))):
            entry = (value(_NUMBERS, kinds[0]), value(_NUMBERS, kinds[1]),
                     value(_BITS, kinds[2]))
            if mixed and draw(st.integers(0, 20)) == 0:
                entry = entry[:2] if draw(st.booleans()) else entry + (0,)
            entries.append(entry)
        records.append(sim.ShotRecord(shot, 0, (), tuple(entries)))
    return records


@settings(max_examples=400, deadline=None)
@given(evidence_blocks())
def test_vectorised_columns_match_the_per_value_path(block):
    got, warned = _columns_outcome(bayes._block_columns, block)
    assert got == _columns_outcome(_block_columns_per_value, block)[0]
    assert warned == []


def test_refit_memory_is_bounded():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=5, shots=300))
    ten = _peak_bytes(refit, records[:10])
    assert ten <= _peak_bytes(_direct_refit, records[:10]) + 1_000_000
    # Memory does not grow with the number of records.
    assert _peak_bytes(refit, records) <= 1.1 * ten
    # Every record brings a time no other record has: the per-time tables
    # stay within the row budget (2000 of them would take 4 MB).
    last = records[0].evidence[-1]
    fresh = [sim.ShotRecord(k, 0, (), records[0].evidence[:-1]
                            + ((1.0 + k * 1e-3, last[1], last[2]),))
             for k in range(2000)]
    budget = bayes.ROW_BUDGET * 2 * bayes.FINE_NODES * 8
    assert _peak_bytes(refit, fresh) <= _peak_bytes(refit, fresh[:10]) \
        + 2 * budget
    # No per-time table grows with the grid: on a 16001-node grid (126
    # coarse nodes) the same budget holds.
    def large(records):
        return refit(records, grid_size=16001)
    assert _peak_bytes(large, fresh[:300]) <= _peak_bytes(large, fresh[:10]) \
        + 2 * budget


# -- what refit keeps per process, per call and per block ---------------------

def _fresh_times(records, count):
    """`count` records like records[0], each with a last time no other
    record has."""
    last = records[0].evidence[-1]
    return [sim.ShotRecord(k, 0, (), records[0].evidence[:-1]
                           + ((1.0 + k * 1e-3, last[1], last[2]),))
            for k in range(count)]


def _sliced(records, size):
    return tuple(e for k in range(0, len(records), size)
                 for e in refit(records[k:k + size]).per_shot)


def test_refit_estimates_do_not_depend_on_blocking_or_cache_state():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=18, shots=300))
    whole = refit(records).per_shot
    for size in (1, 7, 10):
        assert _sliced(records, size) == whole
    # A refit on a grid of another node spacing adds tables of its own ...
    refit(records[:3], grid_size=4001, prior_interval=(0.0, 1.0))
    assert refit(records).per_shot == whole
    # ... and a call whose fresh times overflow the row budget evicts the
    # default grid's tables, some of them in the middle of a block.
    refit(_fresh_times(records, bayes.ROW_BUDGET + 20))
    assert refit(records).per_shot == whole
    assert _sliced(records, 7) == whole


def test_refit_is_reentrant():
    real = sim.run_shots(build_rwpe(), ExecConfig(seed=19, shots=40))
    fixed = sim.run_shots(build_rwpe(), ExecConfig(
        classical_mode=ClassicalMode.FIXED_POINT, seed=19, shots=40))
    # Two of the four threads bring fresh times, which clear the shared
    # tables while the others read them.
    fresh = _fresh_times(real, 300)
    work = [[real[k:k + 10] for k in (0, 10, 20, 30)] * 5,
            [fixed[k:k + 10] for k in (0, 10, 20, 30)] * 2
            + [fresh[k:k + 25] for k in range(0, 300, 25)],
            [fixed[k:k + 10] for k in (30, 20, 10, 0)] * 5,
            [fresh[k:k + 15] for k in range(0, 300, 15)]]
    serial = [[refit(records).per_shot for records in sets] for sets in work]
    got = [None] * len(work)
    start = threading.Barrier(len(work))

    def run(i):
        start.wait()
        got[i] = [refit(records).per_shot for records in work[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(work))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial
    assert bayes._fine_table.cache_info().currsize <= bayes.ROW_BUDGET


def test_refit_shares_its_grid_read_only():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=20, shots=1))
    refit(records)
    grid = bayes._grid(2001, (-1.0, 1.0))
    assert bayes._grid(2001, (-1.0, 1.0)) is grid
    hits = bayes._fine_table.cache_info().hits
    table = bayes._fine_table(grid.step, float(records[0].evidence[-1][0]))
    assert bayes._fine_table.cache_info().hits == hits + 1
    for a in (grid.nodes, grid.log_prior, grid.phis, grid.coarse, table):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_refit_tables_pin_no_grid():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=20, shots=1))
    refit(records)
    grid = weakref.ref(bayes._grid(2001, (-1.0, 1.0)))
    for size in range(2002, 2010):
        refit(records, grid_size=size)
    gc.collect()
    assert grid() is None


def test_grids_of_equal_node_spacing_share_their_tables():
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=21, shots=2))
    refit(records, prior_interval=(-1.0, 1.0))
    before = bayes._fine_table.cache_info()
    shared = refit(records, prior_interval=(0.0, 2.0))
    after = bayes._fine_table.cache_info()
    assert after.hits >= before.hits + 24 and after.misses == before.misses
    bayes._fine_table.cache_clear()
    assert refit(records, prior_interval=(0.0, 2.0)) == shared


def test_refit_raises_the_first_failing_records_error_within_a_block():
    good = ((2.0, 0.25, 0), (3.0, -0.5, 1))
    records = _records([good, good, good + (("?", 0.1, 1),),
                        good + ((math.nan, 0.0, 0),), good])
    with pytest.raises(ValueError, match="could not convert string"):
        refit(records)
    records[2] = sim.ShotRecord(2, 0, (), good)
    with pytest.raises(ValueError, match="shot 3: evidence entry 2 is not "
                                         "finite"):
        refit(records)


_GOOD = sim.ShotRecord(0, 0, (), ((2.0, 0.25, 0), (3.0, -0.5, 1)))


def _raises_for_shot_1(bad, message):
    """`refit` raises `message` for the record `bad` (shot 1) both within a
    block and alone, and `evidence_from_record` raises it too."""
    pattern = "^" + re.escape(message) + "$"
    for records in ([_GOOD, bad, _GOOD], [bad]):
        with pytest.raises(ValueError, match=pattern):
            refit(records)
    with pytest.raises(ValueError, match=pattern):
        bayes.evidence_from_record(bad)


@pytest.mark.parametrize("entry, message", [
    ((None, 0.1, 1),
     "float() argument must be a string or a real number, not 'NoneType'"),
    ((1.0, 0.1), "not enough values to unpack (expected 3, got 2)"),
    ((1.0, "x", 1), "could not convert string to float: 'x'"),
], ids=["time-none", "two-items", "angle-text"])
def test_evidence_that_cannot_be_read_names_its_shot(entry, message):
    _raises_for_shot_1(sim.ShotRecord(1, 0, (), (entry,)), f"shot 1: {message}")


@pytest.mark.parametrize("d", [2, -1, 0.5])
def test_refit_rejects_an_outcome_other_than_0_or_1(d):
    bad = sim.ShotRecord(1, 0, (), ((2.0, 0.25, 0), (3.0, -0.5, d)))
    _raises_for_shot_1(
        bad, f"shot 1: evidence entry 1 has outcome d = {d!r}, not 0 or 1")


def test_refit_names_the_entry_whose_likelihood_argument_overflows():
    # Each number is finite, but t * phi_inv * pi is not, so every factor
    # of the record would be nan: refit names the entry, within a block as
    # alone, and numpy warns of nothing.
    good = sim.ShotRecord(0, 0, (), ((1.0, 0.25, 0), (2.0, 0.5, 1)))
    bad = sim.ShotRecord(1, 0, (), ((10.0, 5e307, 0),))
    for records in ([good, bad, good], [bad]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^shot 1: evidence entry 0 "
                               r"has t \* phi_inv \* pi beyond the float range$"):
                refit(records)
