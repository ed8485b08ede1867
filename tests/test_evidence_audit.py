"""Evidence audit: each recorded datum's law is the probability that
produced it.

`bayes.refit` trusts that an evidence entry (t, phi_inv, d) gives outcome 1
with probability sin^2(pi (phi - phi_inv) t / 2) at the true phase phi
(units of pi).  The reference interpreter knows, at each measurement that
records evidence, the Born probability of outcome 1 before the draw, so
the law can be checked entry by entry, exactly, on noiseless shots.

Criterion 4 (test_acceptance.py) checks the same law by sampling 2M shots
of standalone IPE steps against `analytic_pr0`, so it also covers the
engine's draws; this audit covers every entry of every program that
records evidence, including the walk's own arithmetic and lowering, but
draws nothing it checks.
"""

import math
import random

import pytest

import oracles
from hybridsim import profiles
from hybridsim.algorithms import build_ipe_program, build_rwpe
from hybridsim.lowering import lower_to_native

SHOTS = 50
STEP_LIMIT = 10 ** 6
# In `real` mode the law holds to rounding.
REAL_BOUND = 1e-12
# In `fixed` mode the two gate angles are Q2.16 words, each within one word
# (2**-16, units of pi) of its exact value.  The work qubit's relative
# phase is pi * (a_inv + a_orc / 2), and |d sin^2(x / 2) / dx| <= 1/2, so
# P(1) is off by at most (pi / 2) * (2**-16 + 2**-17).
FIXED_BOUND = math.pi / 2 * (2.0 ** -16 + 2.0 ** -17)


def audit_gap(program, mode: str, phase: float, shots: int = SHOTS,
              seed: int = 0) -> float:
    """Largest |Born P(1) - sin^2(pi (phase - phi_inv) t / 2)| over the
    evidence entries of `shots` noiseless shots of `program`."""
    worst = 0.0
    for shot in range(shots):
        _, evidence, _, _, born = oracles.interpret(
            program, mode, None, random.Random(seed * 100_003 + shot),
            STEP_LIMIT)
        assert len(born) == len(evidence) > 0
        for (t, phi_inv, _), p1 in zip(evidence, born):
            law = math.sin(math.pi * (phase - float(phi_inv)) * float(t)
                           / 2.0) ** 2
            worst = max(worst, abs(p1 - law))
    return worst


# (program, true phase in units of pi); the IPE steps cover both signs of
# phi_inv and of the oracle coefficient, whose eigenphase is -coeff / 2.
RWPE_PHASE = 0.25          # the default oracle coefficient, -0.5
PROGRAMS = {
    "rwpe": (build_rwpe, RWPE_PHASE),
    "rwpe_native": (lambda: lower_to_native(build_rwpe(), profiles.NATIVE),
                    RWPE_PHASE),
}
IPE_STEPS = [(0.3, 1.25, -0.5), (-0.4, 1.7, 0.9), (0.85, 0.6, -1.3)]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rwpe_evidence_law_is_what_ran_real(name):
    build, phase = PROGRAMS[name]
    assert audit_gap(build(), "real", phase) <= REAL_BOUND


@pytest.mark.parametrize("mode, bound", [("real", REAL_BOUND),
                                         ("fixed", FIXED_BOUND)])
@pytest.mark.parametrize("phi_inv, t, coeff", IPE_STEPS)
def test_ipe_step_evidence_law_is_what_ran(mode, bound, phi_inv, t, coeff):
    program = build_ipe_program(phi_inv, t, coeff)
    assert audit_gap(program, mode, -coeff / 2.0, shots=3) <= bound


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1b: build_rwpe records "
                   "t = recip sigma, whose Q2.16 word wraps after the first "
                   "iteration, so refit's law is not what ran")
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rwpe_evidence_law_is_what_ran_fixed(name):
    build, phase = PROGRAMS[name]
    assert audit_gap(build(), "fixed", phase) <= FIXED_BOUND
