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

The pass is one recursive `lower(instr)`: a rejected cnot or crz becomes
its expansion, whose gates are lowered in turn (a crz's cnots too).  Scratch
registers take the first free names `_lo0`, `_lo1`, ... in program order.
"""

from __future__ import annotations

from . import hir
from .errors import UnloweredGate
from .profiles import Profile


def _expand_cnot(c: int, t: int) -> list[hir.Gate]:
    return [hir.Gate("h", (t,)), hir.Gate("rz", (c,), 0.5),
            hir.Gate("rz", (t,), -0.5), hir.Gate("eswap", (c, t), 0.5),
            hir.Gate("rz", (c,), 1.0), hir.Gate("eswap", (c, t), 0.5),
            hir.Gate("h", (t,))]


def _fresh_name(taken: set[str]) -> str:
    """The first of `_lo0`, `_lo1`, ... not in `taken`, which it joins."""
    i = 0
    while f"_lo{i}" in taken:
        i += 1
    taken.add(f"_lo{i}")
    return f"_lo{i}"


def _expand_crz(instr: hir.Gate, taken: set[str],
                new_decls: list[hir.VarDecl]) -> list[hir.Instruction]:
    c, t = instr.qubits
    out: list[hir.Instruction] = []
    if isinstance(instr.angle, str):
        half, neg_half = _fresh_name(taken), _fresh_name(taken)
        new_decls += (hir.VarDecl(half, "fixed", 0.0),
                      hir.VarDecl(neg_half, "fixed", 0.0))
        out += (hir.Classical("mul", half, (instr.angle, 0.5)),
                hir.Classical("neg", neg_half, (half,)))
    else:
        half = instr.angle / 2.0
        neg_half = -half
    return out + [hir.Gate("cnot", (c, t)), hir.Gate("rz", (t,), neg_half),
                  hir.Gate("cnot", (c, t)), hir.Gate("rz", (t,), half)]


def lower_to_native(prog: hir.HybridProgram, profile: Profile) -> hir.HybridProgram:
    """Rewrite every gate the profile rejects; raises UnloweredGate if some
    gate has no decomposition into the profile's set."""
    taken = {d.name for d in prog.decls}
    new_decls: list[hir.VarDecl] = []

    def lower(instr: hir.Instruction) -> list[hir.Instruction]:
        if not isinstance(instr, hir.Gate) or instr.name in profile.gates:
            return [instr]
        if instr.name == "cnot":
            expansion = _expand_cnot(*instr.qubits)
        elif instr.name == "crz":
            expansion = _expand_crz(instr, taken, new_decls)
        else:
            raise UnloweredGate(f"no decomposition of {instr.name!r} into "
                                f"profile {profile.name!r}")
        return [out for gate in expansion for out in lower(gate)]

    blocks = tuple(
        hir.BasicBlock(b.label, tuple(out for instr in b.instructions
                                      for out in lower(instr)), b.terminator)
        for b in prog.blocks)
    return hir.HybridProgram(prog.name, prog.qubits,
                             prog.decls + tuple(new_decls), blocks)
