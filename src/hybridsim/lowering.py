"""Lowering of convenience gates onto the native set {h, sx, x, rz, eswap}.

The native entangler mixes |01> and |10> with cos/sin amplitudes and puts a
common phase on |00> and |11>; at a quarter turn it is a square-root-of-SWAP
up to global phase, which is what the standard two-root-swap construction of
CZ needs.  Derived rules (all verified against a dense-matrix oracle, equal
up to global phase):

    cnot c, t   ->  h t; rz(0.5) c; rz(-0.5) t; eswap(0.5) c, t;
                    rz(1.0) c; eswap(0.5) c, t; h t
    crz(a) c, t ->  cnot c, t; rz(-a/2) t; cnot c, t; rz(a/2) t   (exact)

Angles are in units of pi.  When a crz angle is a run-time variable the pass
materializes a/2 and -a/2 into fresh scratch registers with real classical
instructions, so the lowered program still accepts variable arguments; rz
itself stays native and keeps whatever operand it had.
"""

from __future__ import annotations

from . import hir
from .errors import UnloweredGate
from .profiles import Profile

# cnot lowering template: (gate, qubit-slots, angle) with c/t placeholders.
_CNOT_SEQ = (
    ("h", ("t",), None),
    ("rz", ("c",), 0.5),
    ("rz", ("t",), -0.5),
    ("eswap", ("c", "t"), 0.5),
    ("rz", ("c",), 1.0),
    ("eswap", ("c", "t"), 0.5),
    ("h", ("t",), None),
)


def _expand_cnot(c: int, t: int) -> list[hir.Gate]:
    env = {"c": c, "t": t}
    return [hir.Gate(name, tuple(env[s] for s in slots), angle)
            for name, slots, angle in _CNOT_SEQ]


def _fresh_names(taken: set[str], count: int) -> list[str]:
    names = []
    i = 0
    while len(names) < count:
        cand = f"_lo{i}"
        if cand not in taken:
            taken.add(cand)
            names.append(cand)
        i += 1
    return names


def _expand_crz(instr: hir.Gate, taken: set[str],
                new_decls: list[hir.VarDecl]) -> list[hir.Instruction]:
    c, t = instr.qubits
    angle = instr.angle
    out: list[hir.Instruction] = []
    if isinstance(angle, str):
        half, neg_half = _fresh_names(taken, 2)
        new_decls.append(hir.VarDecl(half, "fixed", 0.0))
        new_decls.append(hir.VarDecl(neg_half, "fixed", 0.0))
        out.append(hir.Classical("mul", half, (angle, 0.5)))
        out.append(hir.Classical("neg", neg_half, (half,)))
        a_half: str | float = half
        a_neg: str | float = neg_half
    else:
        a_half = angle / 2.0
        a_neg = -a_half
    out.append(hir.Gate("cnot", (c, t), None))
    out.append(hir.Gate("rz", (t,), a_neg))
    out.append(hir.Gate("cnot", (c, t), None))
    out.append(hir.Gate("rz", (t,), a_half))
    return out


def lower_to_native(prog: hir.HybridProgram, profile: Profile) -> hir.HybridProgram:
    """Rewrite every gate the profile rejects; raises UnloweredGate if some
    gate has no decomposition into the profile's set."""
    taken = {d.name for d in prog.decls}
    new_decls: list[hir.VarDecl] = []
    blocks = []
    for b in prog.blocks:
        instrs: list[hir.Instruction] = list(b.instructions)
        changed = True
        while changed:
            changed = False
            out: list[hir.Instruction] = []
            for instr in instrs:
                if not isinstance(instr, hir.Gate) or instr.name in profile.gates:
                    out.append(instr)
                elif instr.name == "cnot":
                    out.extend(_expand_cnot(*instr.qubits))
                    changed = True
                elif instr.name == "crz":
                    out.extend(_expand_crz(instr, taken, new_decls))
                    changed = True
                else:
                    raise UnloweredGate(
                        f"no decomposition of {instr.name!r} into profile "
                        f"{profile.name!r}")
            instrs = out
        blocks.append(hir.BasicBlock(b.label, tuple(instrs), b.terminator))
    return hir.HybridProgram(prog.name, prog.qubits,
                             prog.decls + tuple(new_decls), tuple(blocks))
