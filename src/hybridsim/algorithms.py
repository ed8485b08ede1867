"""Builders for the three reference hybrid programs.

All angles in emitted programs are in units of pi.  Two qubits are used by
the phase-estimation programs: q0 is the work/readout qubit, q1 holds the
eigenstate (|1>, prepared with reset + x).

Phase conventions (locked by the end-to-end float oracle in the tests):

- rz(theta) acts as diag(e^{-i theta/2}, e^{+i theta/2}) in radians.
- One estimation step applies h; rz(phi_inv * t); crz(oracle_coeff * t)
  controlled on the work qubit; h; mz.  With those signs, the probability
  of reading 0 is exactly cos^2(t * (phi - phi_inv) / 2) in radians, where
  phi = -oracle_coeff/2 (units of pi) for eigenstate |1>.  That is the same
  per-datum law the offline likelihood uses, so evidence records feed the
  refit without any sign fixup.
- Outcome 0 therefore says "phi is near phi_inv = mu - 0.5*sigma", i.e.
  *below* the running mean, so the walk steps down on 0 and up on 1.
- The program returns the raw mean; the reported eigenvalue estimate is
  2*mu, applied in post-processing only.

With the default oracle coefficient -0.5 the walk concentrates at
mu = 0.25, i.e. a reported estimate of +0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import fixedpoint as fx
from .hir import (BasicBlock, Br, Classical, CondBr, Gate, HybridProgram,
                  Measure, Output, Procedure, Reset, Ret, VarDecl,
                  make_program)

# Walk update factors (Gaussian-approximate Bayes update per measurement).
SHIFT_FACTOR = 1.0 / math.sqrt(math.e)                  # mean step, in sigmas
SHRINK_FACTOR = math.sqrt((math.e - 1.0) / math.e)      # deviation contraction


@dataclass(frozen=True)
class RwpeParams:
    """Run configuration for the random-walk estimator.

    mu0/sigma0 are the prior mean and deviation in units of pi;
    oracle_coeff is the coefficient applied to the evolution time in the
    controlled oracle rotation, so the implied eigenphase for eigenstate
    |1> is -oracle_coeff/2 (units of pi).
    """

    mu0: float = 0.7951
    sigma0: float = 0.6065
    n_iter: int = 24
    refresh_period: int = 2
    oracle_coeff: float = -0.5

    def __post_init__(self):
        if self.n_iter < 1:
            raise ValueError("n_iter must be >= 1")
        if self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        for name in ("mu0", "sigma0", "oracle_coeff"):
            v = getattr(self, name)
            if not (fx.REAL_MIN <= v <= fx.REAL_MAX):
                raise ValueError(f"{name}={v} is outside the Q2.16 range")

    @property
    def eigenphase(self) -> float:
        """Implied eigenphase in units of pi (pre-doubling)."""
        return -self.oracle_coeff / 2.0

    @property
    def expected_estimate(self) -> float:
        """Reported (post-doubled) estimate the walk converges to."""
        return 2.0 * self.eigenphase


def analytic_pr0(phi: float, phi_inv: float, t: float) -> float:
    """Probability of outcome 0 for one estimation step; angles in radians."""
    return math.cos(0.5 * t * (phi - phi_inv)) ** 2


# Gate portion of one estimation step: work qubit 0, eigenstate qubit 1,
# angles already in a_inv and a_orc; the outcome lands in d, recorded as
# evidence with (t, phi_inv).
_IPE_GATES = (
    Reset(0),
    Gate("h", (0,)),
    Gate("rz", (0,), "a_inv"),
    Gate("crz", (0, 1), "a_orc"),
    Gate("h", (0,)),
    Measure(0, "d", ("t", "phi_inv")),
)


def build_ipe_step(oracle_coeff: str | float = -0.5) -> tuple:
    """One estimation-step fragment over run-time variables.

    The caller declares `t` and `phi_inv` (fixed), the scratch angle
    registers `a_inv` and `a_orc` (fixed), and the bit `d`.  Qubit 1 must
    already hold an eigenstate of the oracle rotation.
    """
    return (Classical("mul", "a_inv", ("phi_inv", "t")),
            Classical("mul", "a_orc", ("t", oracle_coeff))) + _IPE_GATES


def build_ipe_program(phi_inv: float, t: float,
                      oracle_coeff: float = -0.5) -> HybridProgram:
    """Standalone single-step program: prepare |1>, run one step, output d."""
    decls = (
        VarDecl("phi_inv", "fixed", float(phi_inv)),
        VarDecl("t", "fixed", float(t)),
        VarDecl("a_inv", "fixed", 0.0),
        VarDecl("a_orc", "fixed", 0.0),
        VarDecl("d", "bit", 0),
    )
    body = (Gate("x", (1,)),) + build_ipe_step(oracle_coeff=oracle_coeff) + \
        (Output("d"),)
    proc = Procedure("ipe_step", 2, decls,
                     (BasicBlock("main", body, Ret()),))
    return make_program(proc)


def build_rwpe(params: RwpeParams = RwpeParams()) -> HybridProgram:
    """Full random-walk phase estimation program.

    Per iteration: phi_inv <- mu - 0.5*sigma (0.5 is pi/2 in units of pi),
    t <- 1/sigma via the reciprocal instruction, one estimation step, then
    the walk update and sigma shrink.  Every refresh_period iterations the
    eigenstate register is reset and re-prepared with x.  Outputs the final
    mean; evidence records (t, phi_inv, d) at every step.

    The two gate angles are computed as divisions by sigma (phi_inv/sigma
    and oracle_coeff/sigma) rather than products with the stored t.  The
    full-width divide wraps only the resulting angle, which an angle
    register represents exactly over its two-period range; multiplying by
    an already-wrapped t would corrupt the inversion angle once 1/sigma
    leaves [-2, 2) and stall the walk's progress.
    """
    decls = (
        VarDecl("mu", "fixed", params.mu0),
        VarDecl("sigma", "fixed", params.sigma0),
        VarDecl("phi_inv", "fixed", 0.0),
        VarDecl("t", "fixed", 0.0),
        VarDecl("step", "fixed", 0.0),
        VarDecl("a_inv", "fixed", 0.0),
        VarDecl("a_orc", "fixed", 0.0),
        VarDecl("i", "int18", 0),
        VarDecl("since_refresh", "int18", 0),
        VarDecl("d", "bit", 0),
        VarDecl("more", "bit", 0),
        VarDecl("do_refresh", "bit", 0),
    )
    blocks = (
        BasicBlock("prep", (Gate("x", (1,)),), Br("head")),
        BasicBlock("head", (
            Classical("cmp_lt", "more", ("i", params.n_iter)),
        ), CondBr("more", "refresh_check", "done")),
        BasicBlock("refresh_check", (
            Classical("cmp_eq", "do_refresh",
                      ("since_refresh", params.refresh_period)),
        ), CondBr("do_refresh", "refresh", "iterate")),
        BasicBlock("refresh", (
            Reset(1),
            Gate("x", (1,)),
            Classical("sub", "since_refresh",
                      ("since_refresh", params.refresh_period)),
        ), Br("iterate")),
        BasicBlock("iterate", (
            Classical("mul", "step", ("sigma", 0.5)),
            Classical("sub", "phi_inv", ("mu", "step")),
            Classical("recip", "t", ("sigma",)),
            Classical("div", "a_inv", ("phi_inv", "sigma")),
            Classical("div", "a_orc", (params.oracle_coeff, "sigma")),
        ) + _IPE_GATES, CondBr("d", "walk_up", "walk_down")),
        BasicBlock("walk_down", (
            Classical("mul", "step", ("sigma", SHIFT_FACTOR)),
            Classical("sub", "mu", ("mu", "step")),
        ), Br("tail")),
        BasicBlock("walk_up", (
            Classical("mul", "step", ("sigma", SHIFT_FACTOR)),
            Classical("add", "mu", ("mu", "step")),
        ), Br("tail")),
        BasicBlock("tail", (
            Classical("mul", "sigma", ("sigma", SHRINK_FACTOR)),
            Classical("add", "i", ("i", 1)),
            Classical("add", "since_refresh", ("since_refresh", 1)),
        ), Br("head")),
        BasicBlock("done", (Output("mu"),), Ret()),
    )
    proc = Procedure("rwpe", 2, decls, blocks)
    return make_program(proc)


def build_active_reset(num_qubits: int = 1) -> HybridProgram:
    """Active reset protocol on qubit 0: succeed on two consecutive 0
    readings within five measurements, flipping with x after each 1.
    Outputs the success flag (extra qubits, if any, sit idle)."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    decls = (
        VarDecl("counter", "int18", 0),
        VarDecl("successes", "int18", 0),
        VarDecl("m", "bit", 0),
        VarDecl("ok", "bit", 0),
        VarDecl("more", "bit", 0),
    )
    blocks = (
        BasicBlock("head", (
            Classical("cmp_lt", "more", ("counter", 5)),
        ), CondBr("more", "body", "give_up")),
        BasicBlock("body", (
            Measure(0, "m"),
        ), CondBr("m", "saw_one", "saw_zero")),
        BasicBlock("saw_zero", (
            Classical("add", "successes", ("successes", 1)),
            Classical("cmp_eq", "ok", ("successes", 2)),
        ), CondBr("ok", "succeed", "next")),
        BasicBlock("saw_one", (
            Gate("x", (0,)),
            Classical("sub", "successes", ("successes", "successes")),
        ), Br("next")),
        BasicBlock("next", (
            Classical("add", "counter", ("counter", 1)),
        ), Br("head")),
        BasicBlock("succeed", (Output("ok"),), Ret()),
        BasicBlock("give_up", (Output("ok"),), Ret()),
    )
    proc = Procedure("active_reset", num_qubits, decls, blocks)
    return make_program(proc)


def build_teleport() -> HybridProgram:
    """Teleport q0's state onto q2 through a Bell pair, with the two
    corrections as conditionally-branched blocks (z realized as rz(1.0),
    equal up to a phase)."""
    decls = (
        VarDecl("mx", "bit", 0),
        VarDecl("mzv", "bit", 0),
    )
    blocks = (
        BasicBlock("entry", (
            Gate("h", (1,)),
            Gate("cnot", (1, 2)),
            Gate("cnot", (0, 1)),
            Gate("h", (0,)),
            Measure(1, "mx"),
            Measure(0, "mzv"),
        ), CondBr("mx", "fix_x", "check_z")),
        BasicBlock("fix_x", (
            Gate("x", (2,)),
        ), Br("check_z")),
        BasicBlock("check_z", (), CondBr("mzv", "fix_z", "done")),
        BasicBlock("fix_z", (
            Gate("rz", (2,), 1.0),
        ), Br("done")),
        BasicBlock("done", (Output("mx"), Output("mzv")), Ret()),
    )
    proc = Procedure("teleport", 3, decls, blocks)
    return make_program(proc)


def runtime_estimate(record) -> float:
    """Reported eigenvalue estimate from one shot: 2 * final mu."""
    for name, value in record.outputs:
        if name == "mu":
            if isinstance(value, fx.FixedQ216):
                return 2.0 * value.value
            return 2.0 * float(value)
    raise KeyError("record has no 'mu' output")
