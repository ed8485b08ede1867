"""Backend profiles and profile validation.

A profile restricts the IR to what one target can execute: which gates and
classical ops exist and how many qubits there are.  Validation never raises;
it returns diagnostics that serialize to JSON.  Out-of-range literals are
reported here because the target toolchain rejects them at compile time
(there is no run-time check).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixedpoint as fx
from . import hir

ALL_CLASSICAL_OPS = frozenset(hir.CLASSICAL_OPS)
NON_GATE_QUANTUM = frozenset({"mz", "reset", "active_reset"})


@dataclass(frozen=True)
class Profile:
    name: str
    gates: frozenset[str]            # gate names plus mz/reset/active_reset
    classical_ops: frozenset[str]
    max_qubits: int

    def __post_init__(self):
        if not self.gates:
            raise ValueError("profile gate set must be nonempty")


NATIVE = Profile(
    name="native",
    gates=frozenset({"h", "sx", "x", "rz", "eswap"}) | NON_GATE_QUANTUM,
    classical_ops=ALL_CLASSICAL_OPS,
    max_qubits=8,
)

PERMISSIVE = Profile(
    name="permissive",
    gates=NATIVE.gates | frozenset({"crz", "cnot"}),
    classical_ops=ALL_CLASSICAL_OPS,
    max_qubits=20,
)

PROFILES = {"native": NATIVE, "permissive": PERMISSIVE}


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    proc: str
    block: str | None = None
    line: int | None = None

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "location": {"proc": self.proc, "block": self.block,
                         "line": self.line},
        }


def _check_fixed_literal(v: float) -> bool:
    try:
        fx.encode(float(v))
        return True
    except fx.OutOfRange:
        return False


def _check_int_literal(v: int) -> bool:
    return fx.RAW_MIN <= v <= fx.RAW_MAX


def validate(prog: hir.HybridProgram, profile: Profile) -> list[Diagnostic]:
    """All reasons `prog` cannot run on `profile`; empty means admissible."""
    diags: list[Diagnostic] = []

    def add(code, message, proc, block=None, line=None):
        diags.append(Diagnostic(code, message, proc, block, line))

    def check_literal(v, kind, proc, block, line):
        if kind == "fixed" and not _check_fixed_literal(v):
            add("literal-out-of-range",
                f"literal {v!r} is outside the Q2.16 range [-2, 2 - 2**-16]",
                proc, block, line)
        elif kind == "int18" and not _check_int_literal(v):
            add("literal-out-of-range",
                f"literal {v!r} is outside the 18-bit signed range",
                proc, block, line)

    for p in prog.procedures:
        if p.qubits > profile.max_qubits:
            add("too-many-qubits",
                f"procedure {p.name!r} declares {p.qubits} qubits; "
                f"profile {profile.name!r} allows {profile.max_qubits}", p.name)
        kinds = {d.name: d.kind for d in p.decls}
        for d in p.decls:
            check_literal(d.init, d.kind, p.name, None, None)
        for b in p.blocks:
            for instr in b.instructions:
                if isinstance(instr, hir.Gate):
                    if instr.name not in profile.gates:
                        add("gate-not-native",
                            f"gate {instr.name!r} is not in profile "
                            f"{profile.name!r}; lowering required",
                            p.name, b.label, instr.line)
                    for q in instr.qubits:
                        if q >= profile.max_qubits:
                            add("bad-qubit-index",
                                f"qubit q{q} exceeds profile limit "
                                f"{profile.max_qubits}", p.name, b.label,
                                instr.line)
                    if isinstance(instr.angle, float):
                        check_literal(instr.angle, "fixed", p.name, b.label,
                                      instr.line)
                elif isinstance(instr, hir.Measure):
                    if "mz" not in profile.gates:
                        add("gate-not-native", "mz is not in profile",
                            p.name, b.label, instr.line)
                elif isinstance(instr, hir.Reset):
                    if "reset" not in profile.gates:
                        add("gate-not-native", "reset is not in profile",
                            p.name, b.label, instr.line)
                elif isinstance(instr, hir.ActiveReset):
                    if "active_reset" not in profile.gates:
                        add("gate-not-native", "active_reset is not in profile",
                            p.name, b.label, instr.line)
                elif isinstance(instr, hir.Classical):
                    if instr.op not in profile.classical_ops:
                        add("classical-op-unsupported",
                            f"classical op {instr.op!r} is not in profile "
                            f"{profile.name!r}", p.name, b.label, instr.line)
                    if instr.op in ("cmp_eq", "cmp_lt"):
                        opk = hir._infer_cmp_kind(kinds, instr.srcs, instr.line)
                    else:
                        opk = kinds.get(instr.dest, "fixed")
                    for s in instr.srcs:
                        if isinstance(s, float):
                            check_literal(s, "fixed", p.name, b.label, instr.line)
                        elif isinstance(s, int) and opk != "bit":
                            check_literal(s, "fixed" if opk == "fixed" else "int18",
                                          p.name, b.label, instr.line)
    return diags
