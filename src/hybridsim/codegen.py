"""Source generation for the shot engine.

A program becomes the source of one Python function,
`run(rng, out, ev, limit)`, which `sim.CompiledProgram` runs once per shot.
Registers are the locals r0, r1, ... (one per declared variable), and each
block is one branch of a `while` dispatch on the block index `b`.  Gates,
measurements, resets and noise draws are inlined from the kernel templates
below, which loop over pair tuples.  Up to `UNROLL_QUBITS` qubits every such
loop is unrolled at compile time onto the amplitude locals a0, a1, ...;
above it the amplitudes are the list `A` and the loops stay.  Each kernel's
floating-point operations and draws from the shot's generator follow a
fixed order, the same in both forms, which the reference interpreter in
`tests/oracles.py` repeats, so a shot and its replay through that
interpreter give the same record, amplitudes and step count.

Every value the source refers to (encoded literals, the phases of literal
angles, noise probabilities, pair tuples, the domain's ops and boxes) is a
name bound in the exec namespace, never a literal in the text.  Programs
that differ only in literals therefore share one source.  `sim` owns
everything around the source: the number domains, the caches, the
generator each shot draws from, and the records.
"""

from __future__ import annotations

import math
import re
import textwrap
from functools import lru_cache
from typing import TYPE_CHECKING

from . import hir
from .errors import OutOfRange, StepLimitExceeded

if TYPE_CHECKING:
    from .sim import Domain, NoiseModel


_SQRT_HALF = 1.0 / math.sqrt(2.0)
_SX_A = 0.5 + 0.5j
_SX_B = 0.5 - 0.5j

NOISELESS_GATES = frozenset({"rz"})  # virtual: a bookkeeping phase, zero cost

# Largest qubit count whose amplitudes are unrolled into locals.
# `tools/unroll_cutoff.py` times both forms on a synthetic program: unrolled
# shots are 10-25% faster at every width, but the unrolled source of a new
# program shape takes longer to compile first, and with noise the shots
# needed to repay that grow from about 800-1400 at 4 qubits to about
# 1800-2300 at 5.  The benchmark's programs have 2 qubits, so it does not
# test this cut-off.
UNROLL_QUBITS = 4


@lru_cache(maxsize=None)
def _pairs(n: int, q: int) -> tuple[tuple[int, int], ...]:
    """(index with qubit q = 0, partner with q = 1); qubit 0 is the MSB."""
    mask = 1 << (n - 1 - q)
    return tuple((i, i | mask) for i in range(1 << n) if not i & mask)


@lru_cache(maxsize=None)
def _quads(n: int, a: int, b: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i00, i01, i10, i11) over qubits (a, b) with a the first bit."""
    ma = 1 << (n - 1 - a)
    mb = 1 << (n - 1 - b)
    return tuple((i, i | mb, i | ma, i | ma | mb)
                 for i in range(1 << n) if not i & (ma | mb))


_LOOP = re.compile(r"( *)for ([\w, ]+) in \{(\w+)\}:")
_AMPS = tuple(f"a{i}" for i in range(1 << UNROLL_QUBITS))


class _Kernel:
    """A kernel template.  Its text is the loop form: each `for` line loops
    over the index tuples that a format field such as {P} names.  The
    unrolled form repeats each loop body once per tuple, with the amplitude
    locals in place of `A[i0]`, `A[i1]`, ...; the template is split into
    scalar text and loop bodies once, here, so that unrolling only formats."""

    def __init__(self, text: str):
        self.text = text
        self.parts: list = []       # scalar text, or (field, body)
        lines = text.split("\n")
        scalar: list[str] = []
        i = 0
        while i < len(lines):
            m = _LOOP.fullmatch(lines[i])
            i += 1
            if m is None:
                scalar.append(lines[i - 1])
                continue
            if scalar:
                self.parts.append("\n".join(scalar))
                scalar = []
            pad, names, field = m.groups()
            body = []
            while i < len(lines) and lines[i].startswith(pad + "    "):
                line = pad + lines[i][len(pad) + 4:]
                for k, name in enumerate(names.split(", ")):
                    line = line.replace(f"A[{name}]", f"{{a[{k}]}}")
                body.append(line)
                i += 1
            self.parts.append((field, "\n".join(body)))
        if scalar:
            self.parts.append("\n".join(scalar))

    def render(self, unroll: bool, fields: dict) -> str:
        """The source of this kernel.  In the loop form the index fields
        hold namespace names; unrolled, they hold the index tuples."""
        if not unroll:
            return self.text.format(**fields)
        out = []
        for part in self.parts:
            if isinstance(part, str):
                out.append(part.format(**fields))
            else:
                field, body = part
                out += [body.format(a=[_AMPS[i] for i in idx], **fields)
                        for idx in fields[field]]
        return "\n".join(out)


@lru_cache(maxsize=1024)
def _rendered(template: _Kernel, unroll: bool, fields: tuple) -> tuple[str, int]:
    """A kernel's source, indented for a block body, and its line count.
    Programs of one shape render the same kernels, so a miss of the
    program cache mostly finds its kernels here; without this cache such
    a miss (a fresh parse of the lowered IPE program) took about 1.8 times
    as long."""
    text = textwrap.indent(template.render(unroll, dict(fields)), " " * 12)
    return text, text.count("\n") + 1


# Kernel templates.  {P} names a pair tuple (i0, i1), {Q} a quad tuple;
# angle gates read their phases from {p0}/{p1} or {corner}/{cc}/{ss}, which
# are locals computed from a register or names of precomputed constants.
_SWAP = _Kernel("""\
for i0, i1 in {P}:
    A[i0], A[i1] = A[i1], A[i0]""")

_H = _Kernel("""\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = (t0 + t1) * S
    A[i1] = (t0 - t1) * S""")

_SX = _Kernel("""\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = SXA * t0 + SXB * t1
    A[i1] = SXB * t0 + SXA * t1""")

_PHASE = _Kernel("""\
for i0, i1 in {P}:
    A[i0] *= {p0}
    A[i1] *= {p1}""")

_PHASE_OF_REGISTER = """\
th = {radians}
p1 = complex(cos(0.5 * th), sin(0.5 * th))
p0 = p1.conjugate()"""

_ESWAP = _Kernel("""\
for i00, i01, i10, i11 in {Q}:
    A[i00] *= {corner}
    A[i11] *= {corner}
    t0 = A[i01]
    t1 = A[i10]
    A[i01] = {cc} * t0 + {ss} * t1
    A[i10] = {ss} * t0 + {cc} * t1""")

_ESWAP_OF_REGISTER = """\
th = 0.5 * ({radians})
corner = complex(cos(th), -sin(th))
cc = cos(th)
ss = -1j * sin(th)"""

# Born probability of 1, then the draw.  Collapse keeps the surviving half
# and rescales it; `reset` fuses the collapse to 1 with the flip back to 0.
_BORN = """\
p = 0.0
for i0, i1 in {P}:
    t1 = A[i1]
    p += t1.real * t1.real + t1.imag * t1.imag
"""

_MEASURE = _Kernel(_BORN + """\
if rand() < p:
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i0] = 0j
        A[i1] *= s
    {dest} = 1
else:
    p = 1.0 - p
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i1] = 0j
        A[i0] *= s
    {dest} = 0""")

_RESET = _Kernel(_BORN + """\
if rand() < p:
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i0] = A[i1] * s
        A[i1] = 0j
else:
    p = 1.0 - p
    s = 1.0 / sqrt(p) if p > 0.0 else 1.0
    for i0, i1 in {P}:
        A[i1] = 0j
        A[i0] *= s""")

_READOUT_FLIP = """\
if rand() < p_readout:
    {dest} ^= 1"""

# Pauli `w` (1 = X, 2 = Y, 3 = Z) on the qubit that {P} spans.
_PAULI = """\
if w == 1:
    for i0, i1 in {P}:
        A[i0], A[i1] = A[i1], A[i0]
elif w == 2:
    for i0, i1 in {P}:
        t0 = A[i0]
        A[i0] = -1j * A[i1]
        A[i1] = 1j * t0
else:
    for i0, i1 in {P}:
        A[i1] = -A[i1]"""

_NOISE1 = _Kernel("""\
if rand() < p_gate1:
    w = 1 + randrange(3)
""" + textwrap.indent(_PAULI, " " * 4))

# m in 1..15 names a two-qubit Pauli: high two bits on a, low two on b.
_NOISE2 = _Kernel("""\
if rand() < p_gate2:
    m = 1 + randrange(15)
    w = m >> 2
    if w:
""" + textwrap.indent(_PAULI.replace("{P}", "{Pa}"), " " * 8) + """
    w = m & 3
    if w:
""" + textwrap.indent(_PAULI.replace("{P}", "{Pb}"), " " * 8))

_STEP_CHECK = """\
steps += {n}
if steps > limit:
    raise StepLimitExceeded(f"instruction budget of {{limit}} exhausted")"""

# Names every generated function may use, whatever the program.
_BUILTINS = {"StepLimitExceeded": StepLimitExceeded, "PI": math.pi, "S": _SQRT_HALF,
             "SXA": _SX_A, "SXB": _SX_B, "cos": math.cos, "sin": math.sin,
             "sqrt": math.sqrt}


class Generator:
    """Builds the source of `run` for one program, a table from each
    generated line to (block label, HIR line), and the `static` values its
    exec namespace needs: pair tuples, the initial amplitudes and the
    literal constants, encoded by `domain`.  Noise enters the source only
    through whether it is on; its probabilities are namespace entries.
    Programs are checked when they are built, so every instruction and
    gate it meets is one it knows."""

    def __init__(self, prog: hir.HybridProgram, domain: Domain, noisy: bool):
        self.domain = domain
        self.noisy = noisy
        self.n = prog.qubits
        self.unroll = self.n <= UNROLL_QUBITS
        self.reg = {d.name: f"r{i}" for i, d in enumerate(prog.decls)}
        self.kinds = {d.name: d.kind for d in prog.decls}
        self.static: dict[str, object] = {
            "A0": [1 + 0j] + [0j] * ((1 << self.n) - 1)}
        self.nconsts = 0
        self.chunks: list[str] = []
        # (first generated line, (block label, HIR line)) of each chunk
        self.where: list[tuple[int, tuple[str | None, int | None]]] = []
        self.nlines = 0
        self.at: tuple[str | None, int | None] = (None, None)

        amps = ", ".join(_AMPS[:1 << self.n]) + ", = A0" if self.unroll else \
            "A = A0[:]"
        self.emit(0, "def run(rng, out, ev, limit):")
        self.emit(1, "rand = rng.random\nrandrange = rng.randrange\n" + amps)
        # Initializers are encoded here: range errors are load-time errors.
        for d in prog.decls:
            self.emit(1, f"{self.reg[d.name]} = {self.literal(d.kind, d.init)}")
        self.emit(1, "steps = 0\nb = 0\nwhile True:")
        index = {b.label: i for i, b in enumerate(prog.blocks)}
        for i, block in enumerate(prog.blocks):
            first = block.instructions[0] if block.instructions else block.terminator
            self.at = (block.label, first.line)
            self.emit(2, f"{'if' if i == 0 else 'elif'} b == {i}:")
            self.emit(3, _STEP_CHECK.format(n=len(block.instructions) + 1))
            for instr in block.instructions:
                self.at = (block.label, instr.line)
                self.instruction(instr)
            self.at = (block.label, block.terminator.line)
            self.terminator(block.terminator, index)
        self.source = "\n".join(self.chunks) + "\n"

    # -- helpers ------------------------------------------------------------

    def emit(self, depth: int, text: str):
        pad = "    " * depth
        self.chunk(pad + text.replace("\n", "\n" + pad), text.count("\n") + 1)

    def chunk(self, text: str, nlines: int):
        self.chunks.append(text)
        self.where.append((self.nlines + 1, self.at))
        self.nlines += nlines

    def kernel(self, template: _Kernel, **fields):
        self.chunk(*_rendered(template, self.unroll, tuple(fields.items())))

    def const(self, *values) -> tuple[str, ...]:
        """Names of new namespace entries holding `values`."""
        first = self.nconsts
        self.nconsts += len(values)
        names = tuple([f"c{k}" for k in range(first, self.nconsts)])
        self.static.update(zip(names, values))
        return names

    def literal(self, kind: str, value) -> str:
        return self.const(self.domain.literal[kind](value))[0]

    def half_angle(self, angle) -> float:
        """Half the radians of a literal angle, as the domain rounds it."""
        half = 0.5 * self.domain.radians(self.domain.literal["fixed"](angle))
        if not math.isfinite(half):     # real mode: pi * angle overflows
            raise OutOfRange(f"angle {angle!r} has no finite radians")
        return half

    def indices(self, name: str, tuples: tuple):
        """The index tuples a kernel loops over: themselves when unrolled,
        else the name of a namespace entry holding them."""
        if self.unroll:
            return tuples
        self.static[name] = tuples
        return name

    def pairs(self, q: int):
        return self.indices(f"P{q}", _pairs(self.n, q))

    def quads(self, a: int, b: int):
        return self.indices(f"Q{a}_{b}", _quads(self.n, a, b))

    def controlled(self, c: int, t: int):
        """(i10, i11) over qubits (c, t): the pairs a controlled gate touches."""
        return self.indices(f"C{c}_{t}", tuple(
            (i10, i11) for _, _, i10, i11 in _quads(self.n, c, t)))

    def operand(self, tok, kind: str) -> str:
        """A register, or a constant holding the encoded literal."""
        if isinstance(tok, str):
            return self.reg[tok]
        return self.literal(kind, tok)

    def boxed(self, name: str) -> str:
        if self.domain.box[self.kinds[name]] is None:
            return self.reg[name]
        return f"box_{self.kinds[name]}({self.reg[name]})"

    def expr(self, op: str, kind: str, args: list[str]) -> str:
        """The domain's `op` on `args`: an operator form, else a call."""
        form = self.domain.forms.get((op, kind))
        return form.format(*args) if form else f"{op}_{kind}({', '.join(args)})"

    def amplitudes(self) -> str:
        return f"[{', '.join(_AMPS[:1 << self.n])}]" if self.unroll else "A"

    # -- instructions -------------------------------------------------------

    def instruction(self, instr: hir.Instruction):
        if isinstance(instr, hir.Gate):
            self.gate(instr)
        elif isinstance(instr, hir.Measure):
            dest = self.reg[instr.dest]
            self.kernel(_MEASURE, P=self.pairs(instr.qubit), dest=dest)
            if self.noisy:
                self.emit(3, _READOUT_FLIP.format(dest=dest))
            if instr.record is not None:
                t, phi_inv = (self.boxed(v) for v in instr.record)
                self.emit(3, f"ev.append(({t}, {phi_inv}, {dest}))")
        elif isinstance(instr, hir.Reset):
            self.kernel(_RESET, P=self.pairs(instr.qubit))
        elif isinstance(instr, hir.ActiveReset):
            for q in range(self.n):
                self.kernel(_RESET, P=self.pairs(q))
        elif isinstance(instr, hir.Classical):
            self.classical(instr)
        else:   # hir.Output
            self.emit(3, f"out.append(({instr.name!r}, {self.boxed(instr.name)}))")

    def gate(self, instr: hir.Gate):
        name, qs = instr.name, instr.qubits
        if name == "h":
            self.kernel(_H, P=self.pairs(qs[0]))
        elif name == "x":
            self.kernel(_SWAP, P=self.pairs(qs[0]))
        elif name == "sx":
            self.kernel(_SX, P=self.pairs(qs[0]))
        elif name == "cnot":
            self.kernel(_SWAP, P=self.controlled(*qs))
        elif name in ("rz", "crz"):
            pairs = self.pairs(qs[0]) if name == "rz" else self.controlled(*qs)
            if isinstance(instr.angle, str):
                self.emit(3, _PHASE_OF_REGISTER.format(
                    radians=self.expr("radians", "fixed", [self.reg[instr.angle]])))
                p0, p1 = "p0", "p1"
            else:
                half = self.half_angle(instr.angle)
                phase = complex(math.cos(half), math.sin(half))
                p0, p1 = self.const(phase.conjugate(), phase)
            self.kernel(_PHASE, P=pairs, p0=p0, p1=p1)
        else:   # eswap
            if isinstance(instr.angle, str):
                self.emit(3, _ESWAP_OF_REGISTER.format(
                    radians=self.expr("radians", "fixed", [self.reg[instr.angle]])))
                terms = ("corner", "cc", "ss")
            else:
                half = self.half_angle(instr.angle)
                terms = self.const(complex(math.cos(half), -math.sin(half)),
                                   math.cos(half), -1j * math.sin(half))
            self.kernel(_ESWAP, Q=self.quads(*qs),
                        **dict(zip(("corner", "cc", "ss"), terms)))
        if not self.noisy or name in NOISELESS_GATES:
            return
        if len(qs) == 1:
            self.kernel(_NOISE1, P=self.pairs(qs[0]))
        else:
            self.kernel(_NOISE2, Pa=self.pairs(qs[0]), Pb=self.pairs(qs[1]))

    def classical(self, instr: hir.Classical):
        op = instr.op
        dest = self.reg[instr.dest]
        args = [self.operand(s, k) for s, k in
                zip(instr.srcs, hir.operand_kinds(instr, self.kinds))]
        if op in ("cmp_eq", "cmp_lt"):
            rel = "==" if op == "cmp_eq" else "<"
            self.emit(3, f"{dest} = 1 if {args[0]} {rel} {args[1]} else 0")
        elif op == "select":
            self.emit(3, f"{dest} = {args[1]} if {args[0]} else {args[2]}")
        else:
            self.emit(3, f"{dest} = {self.expr(op, self.kinds[instr.dest], args)}")

    def terminator(self, term: hir.Terminator, index: dict[str, int]):
        if isinstance(term, hir.Br):
            self.emit(3, f"b = {index[term.target]}")
        elif isinstance(term, hir.CondBr):
            self.emit(3, f"b = {index[term.then_target]} if {self.reg[term.cond]} "
                         f"else {index[term.else_target]}")
        else:
            for v in term.values:
                self.emit(3, f"out.append(({v!r}, {self.boxed(v)}))")
            self.emit(3, f"return {self.amplitudes()}")


def namespace(static: dict, domain: Domain, noise: NoiseModel | None) -> dict:
    """The exec namespace of one compile of a generated `run`."""
    ns = dict(_BUILTINS, radians_fixed=domain.radians, **static)
    for (op, kind), fn in domain.ops.items():
        ns[f"{op}_{kind}"] = fn
    for kind, box in domain.box.items():
        ns[f"box_{kind}"] = box
    if noise is not None:
        ns.update(p_gate1=noise.p_gate1, p_gate2=noise.p_gate2,
                  p_readout=noise.p_readout)
    return ns
