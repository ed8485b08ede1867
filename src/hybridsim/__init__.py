"""hybridsim: simulate and compile hybrid quantum-classical programs.

The toolkit models a control stack where classical arithmetic and control
flow execute between quantum gates inside a single shot: a line-oriented IR
with basic blocks (`hir`), backend profiles and lowering onto a native gate
set (`profiles`, `lowering`), a shot-based statevector engine that
compiles each program into one Python function, with switchable exact-real
or Q2.16 fixed-point register semantics and optional noise (`sim`,
`fixedpoint`), reference program builders for active reset,
single-step phase estimation, random-walk phase estimation and
teleportation (`algorithms`), and offline Bayesian refitting of recorded
evidence (`bayes`).
"""

from . import algorithms, bayes, fixedpoint, hir, lowering, profiles, sim
from .algorithms import (RwpeParams, analytic_pr0, build_active_reset,
                         build_ipe_program, build_ipe_step, build_rwpe,
                         build_teleport, runtime_estimate)
from .bayes import (EvidenceRecord, PosteriorGrid, RefitResult,
                    evidence_from_record, log_likelihood, mmse_estimate,
                    posterior, refit, uniform_grid)
from .errors import (BadQubitIndex, DegeneratePosterior, DivideByZero,
                     HybridSimError, IRSyntaxError, OutOfRange, SemanticError,
                     ShotError, StepLimitExceeded, UnloweredGate)
from .fixedpoint import FixedQ216, Int18
from .hir import HybridProgram, cfg, emit, parse
from .hist import Histogram, histogram
from .lowering import lower_to_native
from .profiles import NATIVE, PERMISSIVE, PROFILES, Diagnostic, Profile, validate
from .sim import (ClassicalMode, ExecConfig, NoiseModel, QuantumState,
                  ShotRecord, apply_noise, measure, read_records, run_shot,
                  run_shots, write_records)

__version__ = "0.1.0"
