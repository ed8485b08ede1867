"""Program builders: estimation-step likelihood, walk updates, constants."""

import math
import random

import pytest

import oracles
from hybridsim import sim
from hybridsim.algorithms import (SHIFT_FACTOR, SHRINK_FACTOR, RwpeParams,
                                  analytic_pr0, build_active_reset,
                                  build_ipe_program, build_ipe_step,
                                  build_rwpe, build_teleport, runtime_estimate)
from hybridsim.profiles import PERMISSIVE, validate
from hybridsim.sim import ClassicalMode, ExecConfig


def test_constants_satisfy_identities():
    assert abs(SHIFT_FACTOR ** 2 - 1 / math.e) < 1e-12
    assert abs(SHRINK_FACTOR ** 2 - (math.e - 1) / math.e) < 1e-12
    assert abs(SHIFT_FACTOR - 0.6065307) < 1e-7


def test_params_validation():
    with pytest.raises(ValueError):
        RwpeParams(n_iter=0)
    with pytest.raises(ValueError):
        RwpeParams(refresh_period=0)
    with pytest.raises(ValueError):
        RwpeParams(mu0=2.5)
    assert RwpeParams().expected_estimate == 0.5


def test_analytic_pr0_trivial_points():
    assert analytic_pr0(0.7, 0.7, 3.0) == pytest.approx(1.0)
    assert analytic_pr0(math.pi / 2, 0.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert analytic_pr0(math.pi / 4, 0.0, 2.0) == pytest.approx(0.5)


def test_analytic_pr0_matches_circuit_oracle():
    """Dense-matrix evaluation of the emitted step equals the closed form."""
    rng = random.Random(4)
    from hybridsim import hir
    for _ in range(20):
        phi_inv = rng.uniform(-1, 1)
        t = rng.uniform(0.1, 6.0)
        coeff = rng.uniform(-1.9, 1.9)
        prog = build_ipe_program(phi_inv, t, coeff)
        instrs = prog.blocks[0].instructions
        env = {"phi_inv": phi_inv, "t": t}
        oracles.eval_classical_real(
            [i for i in instrs if isinstance(i, hir.Classical)], env)
        gates = [i for i in instrs
                 if isinstance(i, hir.Gate)]
        U = oracles.unitary_of_gates(gates, 2, env)
        state = U[:, 0]
        pr0_circuit = abs(state[0]) ** 2 + abs(state[1]) ** 2  # q0 = 0
        phi = -coeff / 2.0 * math.pi
        assert pr0_circuit == pytest.approx(
            analytic_pr0(phi, phi_inv * math.pi, t), abs=1e-12)


@pytest.mark.parametrize("delta_t,expected", [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)])
def test_ipe_step_likelihood_extremes(delta_t, expected):
    """(phi - phi_inv) * t set to 0, pi, pi/2 (in units of pi here)."""
    coeff = -0.5
    phi_u = -coeff / 2
    t = 2.0
    phi_inv = phi_u - delta_t / t
    prog = build_ipe_program(phi_inv, t, coeff)
    shots = 20000 if 0 < expected < 1 else 400
    records = sim.run_shots(prog, ExecConfig(seed=77, shots=shots))
    freq0 = sum(1 for r in records if dict(r.outputs)["d"] == 0) / shots
    assert abs(freq0 - expected) <= oracles.binom_3sigma(expected, shots) + 1e-9


def test_ipe_fragment_shape():
    frag = build_ipe_step()
    names = [type(i).__name__ for i in frag]
    assert names == ["Classical", "Classical", "Reset", "Gate", "Gate",
                     "Gate", "Gate", "Measure"]
    assert frag[-1].record == ("t", "phi_inv")


def test_rwpe_single_iteration_updates():
    """One iteration moves the mean by exactly sigma0 * SHIFT_FACTOR, with
    the direction set by the recorded outcome (up on 1, down on 0)."""
    params = RwpeParams(n_iter=1)
    prog = build_rwpe(params)
    seen = set()
    for seed in range(30):
        rec = sim.run_shot(prog, ExecConfig(seed=seed), 0)
        (t, phi_inv, d), = rec.evidence
        assert t == pytest.approx(1 / params.sigma0, rel=1e-12)
        assert phi_inv == pytest.approx(params.mu0 - 0.5 * params.sigma0)
        mu = dict(rec.outputs)["mu"]
        step = params.sigma0 * SHIFT_FACTOR
        expected = params.mu0 + step if d else params.mu0 - step
        assert mu == pytest.approx(expected, abs=1e-12)
        seen.add(d)
    assert seen == {0, 1}


def test_rwpe_sigma_closed_form_via_evidence():
    """Recorded evolution times are 1/(sigma0 * shrink^k) regardless of the
    outcome path, so sigma is strictly decreasing."""
    rec = sim.run_shot(build_rwpe(), ExecConfig(seed=123), 0)
    sigma0 = RwpeParams().sigma0
    times = [t for t, _, _ in rec.evidence]
    for k, t in enumerate(times):
        sigma_k = sigma0 * SHRINK_FACTOR ** k
        assert t == pytest.approx(1 / sigma_k, rel=1e-9)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_rwpe_evidence_consistent_with_walk_replay():
    rec = sim.run_shot(build_rwpe(), ExecConfig(seed=9), 0)
    assert len(rec.evidence) == 24
    outcomes = [d for *_, d in rec.evidence]
    traj, mu_final, _ = oracles.rwpe_walk_replay(0.7951, 0.6065, outcomes)
    for (mu_k, sigma_k, phi_inv_k, t_k), (t, phi_inv, _) in zip(traj, rec.evidence):
        assert phi_inv == pytest.approx(phi_inv_k, abs=1e-9)
        assert t == pytest.approx(t_k, rel=1e-9)
    assert dict(rec.outputs)["mu"] == pytest.approx(mu_final, abs=1e-9)


def test_rwpe_convention_lock_small_ensemble():
    """Mode of the reported (doubled) estimate sits at +0.5."""
    records = sim.run_shots(build_rwpe(), ExecConfig(seed=31, shots=600))
    values = [runtime_estimate(r) for r in records]
    from hybridsim.hist import histogram
    hist = histogram(values)
    assert hist.bin_center(hist.mode_bin()) == pytest.approx(0.5, abs=1e-9)


def test_rwpe_refresh_period_controls_eigenstate_resets():
    # refresh_period=1 refreshes before every iteration after the first
    prog = build_rwpe(RwpeParams(n_iter=4, refresh_period=1))
    rec = sim.run_shot(prog, ExecConfig(seed=2), 0)
    assert len(rec.evidence) == 4


def test_active_reset_markov_enumeration_light():
    for r in (0.0, 0.05):
        cfg = ExecConfig(seed=19, shots=20000,
                         noise=sim.NoiseModel(p_gate1=0, p_gate2=0,
                                              p_readout=r))
        recs = sim.run_shots(build_active_reset(), cfg)
        rate = sum(v for rec in recs for k, v in rec.outputs if k == "ok") \
            / len(recs)
        expect = oracles.active_reset_success_prob(r)
        assert abs(rate - expect) <= oracles.binom_3sigma(expect, len(recs))


def test_builders_validate_permissive():
    for prog in (build_rwpe(), build_active_reset(), build_teleport(),
                 build_ipe_program(0.1, 1.0)):
        assert validate(prog, PERMISSIVE) == []


def test_runtime_estimate_reads_doubled_mu():
    rec = sim.run_shot(build_rwpe(RwpeParams(n_iter=1)), ExecConfig(seed=0), 0)
    assert runtime_estimate(rec) == pytest.approx(2 * dict(rec.outputs)["mu"])
    rec_fx = sim.run_shot(build_rwpe(RwpeParams(n_iter=1)),
                          ExecConfig(seed=0, classical_mode=ClassicalMode.FIXED_POINT), 0)
    assert runtime_estimate(rec_fx) == pytest.approx(
        2 * dict(rec_fx.outputs)["mu"].value)
    with pytest.raises(KeyError):
        runtime_estimate(sim.run_shot(build_teleport(), ExecConfig(seed=0), 0))


def test_num_qubits_validation():
    with pytest.raises(ValueError):
        build_active_reset(0)
    prog = build_active_reset(3)
    assert prog.qubits == 3
