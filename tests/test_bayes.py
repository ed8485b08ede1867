"""Grid posterior and offline refit."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridsim import bayes, sim
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
    # RWPE's last evolution time is 322.08: 6 nodes per period of 2/|t| over
    # [-1, 1] need 1934 nodes.
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=1, shots=3))
    refit(records, grid_size=1934)
    with pytest.raises(ValueError, match=r"shot 0: \|t\| = 322\.085 needs a grid "
                                         r"of at least 1934 nodes"):
        refit(records, grid_size=1933)
    # A narrower prior interval needs proportionally fewer nodes.
    refit(records, grid_size=1001, prior_interval=(0.0, 1.0))
    with pytest.raises(ValueError, match="at least 968 nodes"):
        refit(records, grid_size=967, prior_interval=(0.0, 1.0))


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
