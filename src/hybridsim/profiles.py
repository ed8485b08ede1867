"""Backend profiles and profile validation.

A profile restricts the IR to what one target can execute: a gate set and
a qubit limit.  Measurement, reset, active reset and every classical op
run on every target.  Validation never raises; it returns diagnostics that
serialize to JSON.  Out-of-range literals are reported here because the
target toolchain rejects them at compile time (there is no run-time check).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fixedpoint as fx
from . import hir


@dataclass(frozen=True)
class Profile:
    name: str
    gates: frozenset[str]
    max_qubits: int

    def __post_init__(self):
        if not self.gates:
            raise ValueError("profile gate set must be nonempty")


NATIVE = Profile(
    name="native",
    gates=frozenset({"h", "sx", "x", "rz", "eswap"}),
    max_qubits=8,
)

PERMISSIVE = Profile(
    name="permissive",
    gates=NATIVE.gates | frozenset({"crz", "cnot"}),
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


# kind -> the encoder that loads a literal of that kind for fixed-point
# execution, and the diagnostic for a literal it rejects (`bit` literals
# are 0 or 1, so always in range).
_RANGES = {
    "fixed": (fx.encode,
              "literal {!r} is outside the Q2.16 range [-2, 2 - 2**-16]"),
    "int18": (fx.check_int_range,
              "literal {!r} is outside the 18-bit signed range"),
}


def validate(prog: hir.HybridProgram, profile: Profile) -> list[Diagnostic]:
    """All reasons `prog` cannot run on `profile`; empty means admissible."""
    diags: list[Diagnostic] = []

    def add(code, message, block=None, line=None):
        diags.append(Diagnostic(code, message, prog.name, block, line))

    def check_literal(v, kind, block, line):
        if kind in _RANGES and isinstance(v, (int, float)):
            encode, message = _RANGES[kind]
            try:
                encode(v)
            except fx.OutOfRange:
                add("literal-out-of-range", message.format(v), block, line)

    if prog.qubits > profile.max_qubits:
        add("too-many-qubits",
            f"procedure {prog.name!r} declares {prog.qubits} qubits; "
            f"profile {profile.name!r} allows {profile.max_qubits}")
    kinds = {d.name: d.kind for d in prog.decls}
    for d in prog.decls:
        check_literal(d.init, d.kind, None, d.line)
    for b in prog.blocks:
        for instr in b.instructions:
            if isinstance(instr, hir.Gate):
                if instr.name not in profile.gates:
                    add("gate-not-native",
                        f"gate {instr.name!r} is not in profile "
                        f"{profile.name!r}; lowering required",
                        b.label, instr.line)
                if instr.angle is not None:
                    check_literal(instr.angle, "fixed", b.label, instr.line)
            elif isinstance(instr, hir.Classical):
                for s, k in zip(instr.srcs, hir.operand_kinds(instr, kinds)):
                    check_literal(s, k, b.label, instr.line)
    return diags
