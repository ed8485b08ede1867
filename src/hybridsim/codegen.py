"""Source generation for the shot engine.

A program becomes the source of one Python function,
`run(rng, out, ev, limit)`, which `sim.CompiledProgram` runs once per shot.
Registers are the locals r0, r1, ... (one per declared variable).  Each
block that runs is written once, inside a `while` loop that dispatches on
the block index `b` (`_place`): a block with a single predecessor is
written where that predecessor jumps to it, and the immediate
post-dominator of a `condbr` after its `if`, when every jump into it comes
from inside that `if`, which then falls through to it.  Only the entry, the
targets of retreating (loop back) edges and the blocks these rules cannot
place get a dispatch arm; a jump to one sets `b` and continues the loop.
RWPE's blocks thus take two arms, and an iteration one dispatch.  Gates,
measurements, resets and noise draws are inlined from the kernel templates
below: plain strings of Python that loop over pair tuples.  Up to
`UNROLL_QUBITS` qubits every such loop is unrolled onto the amplitude
locals a0, a1, ..., when a template is first rendered with its index
tuples (`_rendered`); above it the amplitudes are the list `A` and the
loops stay.  All text is generated unindented, and `_indent` indents each
piece where it is placed.  Each kernel's floating-point operations and
draws from the shot's generator follow a fixed order, the same in both
forms, which the reference interpreter in `tests/oracles.py` repeats over
every amplitude.  So a shot and its replay through that interpreter give
the same record and step count, and the same amplitudes but for the sign
of zero components; `sim.run_shot_debug` amplitudes may differ from those
of earlier versions in that sign alone.

Kernels touch only the basis states a shot can reach.  One forward
dataflow pass (`_support`) tracks a bit mask of the basis states that may
carry amplitude: |0…0⟩ at the entry, the union of the predecessors' masks
at a block's start, iterated to a fixpoint at loop heads.  `h`, `sx`, the
middle pair of `eswap` and each gate-noise Pauli (`_NOISE2`'s on a, then
on b) make a pair live if either member is; `x` and `cnot` swap its bits;
`reset`, and each reset of `active_reset` in turn, move a live pair onto its
q = 0 member; phases, measurements and classical work keep the mask
(`_FLOWS`).  Each kernel is rendered over the index tuples that have a live
member where it stands (`_sparse`), in both forms.  Every other amplitude
holds a zero that the skipped arithmetic would have kept zero, perhaps with
its sign flipped, so no nonzero amplitude, draw, record or step count
changes.  No phase is NaN: an angle register whose radians are not finite
(a `real`-mode `inf - inf`) raises `OutOfRange` before its phase is formed.
In noiseless RWPE q1 stays in |1⟩, so `reset`, `h`, `rz` and `mz` on q0
touch a1 and a3 only.

Every value the source refers to (encoded literals, the phases of literal
angles, noise probabilities, pair tuples, the domain's ops and boxes) is a
name bound in the exec namespace, never a literal in the text.  Programs
that differ only in literals therefore share one source, unless the
known-value walk below succeeds for one and raises for the other.  One
cache, `code`, compiles every generated function: `run`, and the walk,
which runs once here.  `sim` owns everything else around the source: the
number domains, the per-program caches, the generator each shot draws
from, and the records.

What no measurement outcome can change runs once, here, in one generated
function: the known-value walk (`Generator.walk`).  When no branch enters
the entry block, the walk first folds the block's start: it runs the
leading instructions, in order, on the initial amplitudes and registers,
through the same text a shot would run.  The fold's extent is fixed before
anything runs, by the program's shape alone: it stops at the first
instruction whose emitted text draws noise, flips a readout or appends to
`out`/`ev` (the emitter reports this as it writes the instruction), and at
the first measurement or reset (each reset of `active_reset` too) whose
q = 1 member is live under the support mask above.  So every draw it makes
has p = 0.0 and comes out 0 whatever `rand()` gives.  Each folded draw stays
in the shot as a bare `rand()`, and the folded state becomes the initial
values, so draws, records, step counts and amplitudes are unchanged.  When
the folded instructions raise, nothing folds and the shot raises it.

Classical work that no measurement can change leaves the shot too, for
every block but an entry block that no branch enters (the fold's).  The
known registers K are the largest set such that every write to one of them
is a classical instruction reading only literals and registers of K, in a
steady block: one that reaches a `ret` and is not control-dependent
(through post-dominators, directly or through other branches) on a
`condbr` whose condition is outside K.  No measurement destination is in
K.  The walk's blocks are placed as `run`'s are (`layout`).  From the
entry, after the fold, it runs each steady block's known instructions, and
the phase terms of each `rz`, `crz` or `eswap` whose angle is known,
through the text a shot would run, and appends the values they set to the
block's row list: the k-th visit to a block gives row k of its table.  It
follows a branch whose condition is known, goes from any other block to
its immediate post-dominator, and stops at a `ret` or where there is none.
In the shot each known instruction assigns its register (or phase terms)
from its block's next row, at its own position, so every register holds
the same value after every instruction, and draws, records, step counts
and amplitudes are unchanged.  When the walk raises, or makes more than
`WALK_VISITS` visits (its step limit), the program gets no tables and its
source is the one without them, but for the fold when the walk got past
it.
"""

from __future__ import annotations

import itertools
import linecache
import math
import re
import weakref
from functools import lru_cache
from types import CodeType, FunctionType
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
# shots are 5-40% faster from 3 qubits up, but the first compile of an
# unrolled program shape roughly doubles with each qubit (about 11-13,
# 22-29 and 48-79 ms at 4, 5 and 6 qubits, against 4-9 ms looped).  The
# shots needed to repay that overlap at 4 and 5 qubits (medians of 520-2200
# and 1250-2500, noisy or not, over four runs on a shared 2-core host), so
# unrolling 5 would double the first compile for no clear gain.  The
# benchmark's programs have 2 qubits, so it does not test this cut-off.
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


@lru_cache(maxsize=None)
def _controlled(n: int, c: int, t: int) -> tuple[tuple[int, int], ...]:
    """(i10, i11) over qubits (c, t): the pairs a controlled gate touches."""
    return tuple([(i10, i11) for _, _, i10, i11 in _quads(n, c, t)])


# A `for` line of a kernel template, and the lines of its body.
_LOOP = re.compile(r"^( *)for ([\w, ]+) in \{(\w+)\}:((?:\n\1    .*)+)", re.M)
_AMPS = tuple(f"a{i}" for i in range(1 << UNROLL_QUBITS))


def _unrolled(text: str, fields: dict) -> str:
    """The kernel template `text` with each loop written out: its body,
    dedented, once per index tuple of the field that the `for` line names,
    with the amplitude locals in place of `A[i0]`, `A[i1]`, ..."""
    def unroll(m: re.Match) -> str:
        pad, names, field, body = m.groups()
        body = body.replace("\n" + pad + "    ", "\n" + pad)
        keys = [f"A[{name}]" for name in names.split(", ")]
        out = ""
        for idx in fields[field]:
            copy = body
            for key, i in zip(keys, idx):
                copy = copy.replace(key, _AMPS[i])
            out += copy
        return out[1:]
    return _LOOP.sub(unroll, text)


@lru_cache(maxsize=1024)
def _rendered(template: str, unroll: bool, fields: tuple) -> str:
    """A kernel's source, unindented.  A template is a
    string, the loop form of its kernel: each `for` line loops over the
    index tuples that a format field such as {P} names, and its body reads
    the amplitudes `A[i0]`, `A[i1]`, ...  In the loop form the index fields
    hold namespace names; unrolled, they hold the index tuples, and
    `_unrolled` writes the loops out here, on a miss.  Programs of one
    shape render the same kernels, so a miss of the program cache mostly
    finds its kernels here; without this cache such a miss (a fresh parse
    of the lowered IPE program) takes about 1.6 times as long (median of
    400 interleaved pairs, 0.67 against 0.42 ms on a 2-core x86_64 host)."""
    fields = dict(fields)
    return (_unrolled(template, fields) if unroll else template).format(**fields)


def _indent(text: str, depth: int) -> str:
    """`text` with every line indented `depth` levels.  Generated text is
    written unindented and indented here, where it is placed."""
    pad = "    " * depth
    return pad + text.replace("\n", "\n" + pad)


# Kernel templates.  {P} names a pair tuple (i0, i1), {Q} a quad tuple;
# angle gates read their phases from {p0}/{p1} or {corner}/{cc}/{ss}, which
# are locals computed from a register or names of precomputed constants.
_SWAP = """\
for i0, i1 in {P}:
    A[i0], A[i1] = A[i1], A[i0]"""

_H = """\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = (t0 + t1) * S
    A[i1] = (t0 - t1) * S"""

_SX = """\
for i0, i1 in {P}:
    t0 = A[i0]
    t1 = A[i1]
    A[i0] = SXA * t0 + SXB * t1
    A[i1] = SXB * t0 + SXA * t1"""

_PHASE = """\
for i0, i1 in {P}:
    A[i0] *= {p0}
    A[i1] *= {p1}"""

_PHASE_OF_REGISTER = """\
th = {radians}
if th - th:
    raise OutOfRange("angle has no finite radians")
p1 = complex(cos(0.5 * th), sin(0.5 * th))
p0 = p1.conjugate()"""

_ESWAP = """\
for i00, i01, i10, i11 in {Q}:
    A[i00] *= {corner}
    A[i11] *= {corner}
    t0 = A[i01]
    t1 = A[i10]
    A[i01] = {cc} * t0 + {ss} * t1
    A[i10] = {ss} * t0 + {cc} * t1"""

_ESWAP_OF_REGISTER = """\
th = 0.5 * ({radians})
if th - th:
    raise OutOfRange("angle has no finite radians")
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

_MEASURE = _BORN + """\
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
    {dest} = 0"""

_RESET = _BORN + """\
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
        A[i0] *= s"""

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

_NOISE1 = """\
if rand() < p_gate1:
    w = 1 + randrange(3)
""" + _indent(_PAULI, 1)

# m in 1..15 names a two-qubit Pauli: high two bits on a, low two on b.
_NOISE2 = """\
if rand() < p_gate2:
    m = 1 + randrange(15)
    w = m >> 2
    if w:
""" + _indent(_PAULI.replace("{P}", "{Pa}"), 2) + """
    w = m & 3
    if w:
""" + _indent(_PAULI.replace("{P}", "{Pb}"), 2)

# How a kernel moves the support mask on each pair it touches (the middle
# pair (i01, i10) of a quad); any other kernel keeps the mask.
_FLOWS = {_H: "mix", _SX: "mix", _ESWAP: "mix", _NOISE1: "mix", _NOISE2: "mix",
          _SWAP: "swap", _RESET: "reset"}


@lru_cache(maxsize=4096)
def _sparse(template: str, fields: tuple, mask: int) -> tuple[tuple, int]:
    """(`fields` with each index field cut to the tuples that have a member
    in `mask`, the mask after the kernel).  Each field is cut by the mask
    the fields before it leave: `_NOISE2`'s second Pauli sees the first's."""
    flow = _FLOWS.get(template)
    out = []
    for name, value in fields:
        if type(value) is tuple:
            value = tuple([t for t in value if any([mask >> i & 1 for i in t])])
            for t in value:
                i0, i1 = t[1:3] if len(t) == 4 else t
                both = 1 << i0 | 1 << i1
                if flow == "mix" and mask & both:
                    mask |= both
                elif flow == "swap" and (mask >> i0 ^ mask >> i1) & 1:
                    mask ^= both
                elif flow == "reset":
                    mask = mask & ~(1 << i1) | 1 << i0
        out.append((name, value))
    return tuple(out), mask


def _support(kernels: list[list[tuple]], succ: list[tuple[int, ...]]) -> list[int]:
    """The support mask at the start of each block, given its kernels'
    (template, fields) and its successors; 0 where the entry never goes."""
    masks = [1] + [0] * (len(succ) - 1)
    todo = [0]
    while todo:
        x = todo.pop()
        mask = masks[x]
        for kernel in kernels[x]:
            mask = _sparse(*kernel, mask)[1]
        for t in succ[x]:
            if mask & ~masks[t]:
                masks[t] |= mask
                todo.append(t)
    return masks


# Visits the known-value walk (`Generator.walk`) may make.  Each visit to a
# steady block adds a row to its table, so the bound caps both the memory
# the tables hold for the life of the program and the time the walk takes
# when the source is generated.  RWPE's walk makes 127 visits; a program
# whose known loops run longer gets no tables and today's per-shot code.
WALK_VISITS = 4096


def _post_dominators(succ: list[tuple[int, ...]]) -> tuple[set[int], list]:
    """(the blocks from which a `ret` can be reached, the immediate
    post-dominator of each block: None for a `ret`, where paths end in
    different `ret`s, or for a block that never reaches one).  Paths into
    blocks that never reach a `ret` are left out."""
    pred: list[list[int]] = [[] for _ in succ]
    for i, targets in enumerate(succ):
        for t in targets:
            pred[t].append(i)
    reach = {i for i, targets in enumerate(succ) if not targets}
    todo = list(reach)
    while todo:
        for p in pred[todo.pop()]:
            if p not in reach:
                reach.add(p)
                todo.append(p)
    pdom = {i: {i} if not succ[i] else set(reach) for i in reach}
    order = sorted(reach, reverse=True)     # branches mostly go forward
    changed = True
    while changed:
        changed = False
        for i in order:
            if succ[i]:
                new = set.intersection(*[pdom[t] for t in succ[i] if t in reach])
                new.add(i)
                if new != pdom[i]:
                    pdom[i] = new
                    changed = True
    ipdom = [None] * len(succ)
    for i in reach:     # post-dominators form a chain: the next is one smaller
        ipdom[i] = next((d for d in pdom[i] if d != i
                         and len(pdom[d]) == len(pdom[i]) - 1), None)
    return reach, ipdom


def _known(prog: hir.HybridProgram, succ: list[tuple[int, ...]], reach: set[int],
           ipdom: list) -> tuple[frozenset[str], list[bool]]:
    """(K, whether each block is steady), given each block's successors
    `succ` and what `_post_dominators` gives for them.  K is the
    largest set of registers such that every write to one of them is a
    classical instruction that reads only literals and registers of K, in
    a steady block; a block is steady when it reaches a `ret` and is not
    control-dependent, directly or through other branches, on a `condbr`
    whose condition is outside K.  Measurement destinations are never in
    K.  Steadiness and K depend on each other, so both are narrowed
    together until neither changes."""
    blocks = prog.blocks
    # Ferrante, Ottenstein and Warren: the blocks control-dependent on the
    # branch of x lie on the post-dominator tree from each successor up to,
    # not including, x's immediate post-dominator.
    deps: dict[int, set[int]] = {}
    for x in reach:
        term = blocks[x].terminator
        if isinstance(term, hir.CondBr) and term.then_target != term.else_target:
            deps[x] = set()
            for s in succ[x]:
                while s in reach and s != ipdom[x]:
                    deps[x].add(s)
                    s = ipdom[s]
    reads: dict[str, set[str]] = {}     # register -> registers its writes read
    writers: dict[str, set[int]] = {}   # register -> blocks that write it
    known = {d.name for d in prog.decls}
    for i, block in enumerate(blocks):
        for instr in block.instructions:
            if isinstance(instr, hir.Measure):
                known.discard(instr.dest)
            elif isinstance(instr, hir.Classical):
                reads.setdefault(instr.dest, set()).update(
                    [s for s in instr.srcs if isinstance(s, str)])
                writers.setdefault(instr.dest, set()).add(i)
    while True:
        unsteady = set(range(len(blocks))) - reach
        grown = True
        while grown:
            grown = False
            for x, dep in deps.items():
                if (blocks[x].terminator.cond not in known or x in unsteady) \
                        and not dep <= unsteady:
                    unsteady |= dep
                    grown = True
        narrowed = {r for r in known if reads.get(r, set()) <= known
                    and unsteady.isdisjoint(writers.get(r, ()))}
        if narrowed == known:
            return frozenset(known), [i not in unsteady for i in range(len(blocks))]
        known = narrowed


# Levels of `if` a block may be placed under.  Python's tokenizer allows
# 100 levels of indentation; a block body starts at 3 and a kernel nests
# up to 4 more.
_NESTING = 32


def _heads(nexts: list[tuple[int, ...]]) -> tuple[set[int], set[int]]:
    """(the blocks reachable from the entry, the entry and the target of
    each retreating edge among them: an edge to a block on the path of a
    depth-first search from the entry)."""
    state = {0: 1}      # 1 on the path, 2 done
    heads = {0}
    path = [(0, iter(nexts[0]))]
    while path:
        x, todo = path[-1]
        for t in todo:
            if state.get(t) == 1:
                heads.add(t)
            elif t not in state:
                state[t] = 1
                path.append((t, iter(nexts[t])))
                break
        else:
            state[x] = 2
            path.pop()
    return set(state), heads


def _place(nexts: list[tuple[int, ...]], ipdom: list) -> dict[int, list]:
    """Where each block's code goes in `run`: the placed code of each
    dispatch arm, by block index.  Placed code is a list of items: a block
    index (that block's body), (x, then, else) for the `if` of block x's
    `condbr` with the placed code of each branch, and [x, t, falls] for
    block x's jump to block t, which falls through to the code that follows
    when `falls` is true and otherwise sets `b` and continues the loop.

    Each block that the entry reaches is placed once; the others never run
    and are left out.  A block whose single predecessor jumps to it is
    placed at that jump.  The immediate post-dominator m of a `condbr` is
    placed after its `if` when every jump into m is one of the `if`'s
    pending jumps: placed in it, not yet decided, and with nothing but the
    ends of other `if`s between it and the end of this one.  Those fall
    through to m, and the `if`'s other pending jumps continue the loop.  The
    entry, the targets of retreating edges and the targets of jumps that
    continue the loop get an arm; these are the blocks the two rules leave
    unplaced."""
    reached, arms = _heads(nexts)
    preds: list[set[int]] = [set() for _ in nexts]
    for x in reached:
        for t in nexts[x]:
            preds[t].add(x)
    todo = sorted(arms)
    code: dict[int, list] = {}

    def edge(x: int, t: int, depth: int, into: list) -> list:
        """Place x's jump to t, at `depth` levels of `if`, into `into`;
        return the pending jumps that it leaves."""
        if t not in arms and preds[t] == {x} and depth <= _NESTING:
            return place(t, depth, into)
        jump = [x, t, None]
        into.append(jump)
        if t not in arms and len(preds[t]) > 1:
            return [jump]
        resolve(jump, False)
        return []

    def resolve(jump: list, falls: bool):
        jump[2] = falls
        if not falls and jump[1] not in arms:
            arms.add(jump[1])
            todo.append(jump[1])

    def place(x: int, depth: int, into: list) -> list:
        """Place block x and what follows it; return the pending jumps."""
        while True:
            into.append(x)
            targets = nexts[x]
            if len(targets) == 1:
                t = targets[0]
                if t not in arms and preds[t] == {x}:
                    x = t
                    continue
                return edge(x, t, depth, into)
            if not targets:
                return []
            then, other = [], []
            pending = edge(x, targets[0], depth + 1, then) + \
                edge(x, targets[1], depth + 1, other)
            into.append((x, then, other))
            m = ipdom[x]
            if m is None or {j[0] for j in pending if j[1] == m} != preds[m]:
                return pending
            for jump in pending:
                resolve(jump, jump[1] == m)
            x = m

    while todo:
        x = todo.pop()
        code[x] = []
        for jump in place(x, 0, code[x]):
            resolve(jump, False)
    return code


_STEP_CHECK = """\
steps += {n}
if steps > limit:
    raise StepLimitExceeded(f"instruction budget of {{limit}} exhausted")"""

# Names every generated function may use, whatever the program.
_BUILTINS = {"StepLimitExceeded": StepLimitExceeded, "OutOfRange": OutOfRange,
             "PI": math.pi, "S": _SQRT_HALF, "SXA": _SX_A, "SXB": _SX_B,
             "cos": math.cos, "sin": math.sin, "sqrt": math.sqrt}


class Generator:
    """Builds the source of `run` for one program, a table from each
    generated line to (block label, HIR line), and the `static` values its
    exec namespace needs: pair tuples, the initial amplitudes and registers,
    the literal constants, encoded by `domain`, and the known-value tables.
    Noise enters the source only through whether it is on; its
    probabilities are namespace entries.  Each block's body is generated on
    its own (`bodies`), and `layout` places the bodies in `run`.  Every
    piece of text is generated unindented and indented where it is placed
    (`_indent`).  Programs are checked when they are built, so every
    instruction and gate it meets is one it knows."""

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
        self.names: dict[tuple, str] = {}   # index tuples -> namespace name
        # (text, (block label, HIR line)) of each generated piece
        self.chunks: list[tuple[str, tuple[str | None, int | None]]] = []
        self.at: tuple[str | None, int | None] = (None, None)

        self.unpack = ", ".join(_AMPS[:1 << self.n]) + ", = A0" \
            if self.unroll else "A = A0[:]"
        self.emit("rand = rng.random\nrandrange = rng.randrange\n" + self.unpack)
        prologue = len(self.chunks)
        # Initializers are encoded here: range errors are load-time errors.
        inits = []
        for d in prog.decls:
            inits.append(self.literal(d.kind, d.init))
            self.emit(f"{self.reg[d.name]} = {inits[-1]}")
        index = {b.label: i for i, b in enumerate(prog.blocks)}
        succ = [tuple(dict.fromkeys([index[t] for t in targets]))
                for targets in hir.cfg(prog).successors.values()]
        reach, ipdom = _post_dominators(succ)
        folds = not any(0 in targets for targets in succ)
        # An entry block that no branch enters runs once a shot: the walk
        # folds its start, and the rest keeps its known work, which a table
        # read through a per-shot iterator would not make cheaper.  So
        # tables start at block `tabled`; without a register computed from
        # there on, there is nothing to analyse.
        tabled = int(folds)
        if any(isinstance(instr, hir.Classical) or isinstance(instr, hir.Gate)
               and isinstance(instr.angle, str)
               for block in prog.blocks[tabled:] for instr in block.instructions):
            known, steady = _known(prog, succ, reach, ipdom)
        else:
            known, steady = frozenset(), [False] * len(succ)
        # The chunks before the loop, then each block's body without its
        # jump, which `layout` places.
        self.head = self.chunks
        self.bodies: list[list[tuple[str, tuple]]] = []
        # (first chunk, text, locals it sets) of each known instruction,
        # per block
        items: list[list[tuple[int, str, str]]] = []
        # where each leading instruction of the entry block that the walk
        # may fold ends, after the block's step check (chunk 0)
        lead = [1]
        for i, block in enumerate(prog.blocks):
            self.chunks = []
            self.bodies.append(self.chunks)
            first = block.instructions[0] if block.instructions else block.terminator
            self.at = (block.label, first.line)
            self.emit(_STEP_CHECK.format(n=len(block.instructions) + 1))
            items.append([])
            for instr in block.instructions:
                mark = len(self.chunks)
                self.at = (block.label, instr.line)
                shot_only = self.instruction(instr)
                if i == 0 and folds and lead[-1] == mark and not shot_only:
                    lead.append(len(self.chunks))
                names = self.known_locals(instr, known) if steady[i] else None
                if names:
                    items[i].append((mark, self.chunks[mark][0], names))
            if isinstance(block.terminator, hir.Ret):
                self.at = (block.label, block.terminator.line)
                self.ret(block.terminator)
        # The fold ends before the first draw that may come out 1, and runs
        # the known work of block 0 before its end; the walk runs the rest.
        stop = self.sparse(succ)
        end = max([k for k in lead if k <= stop])
        items[0] = [item for item in items[0] if item[0] >= end]
        if end > 1 or any(items[tabled:]):
            self.walk(prog, succ, known, steady, ipdom, items, inits, tabled,
                      prologue, end)
        self.chunks = [("def run(rng, out, ev, limit):", (None, None)),
                       *[(_indent(text, 1), at) for text, at in self.head],
                       *self.layout(prog, succ, ipdom, self.bodies)]
        # (first generated line, (block label, HIR line)) of each chunk
        self.where: list[tuple[int, tuple[str | None, int | None]]] = []
        line = 1
        for text, at in self.chunks:
            self.where.append((line, at))
            line += text.count("\n") + 1
        self.source = "\n".join([text for text, _ in self.chunks]) + "\n"

    # -- placing the blocks -------------------------------------------------

    def layout(self, prog: hir.HybridProgram, succ: list[tuple[int, ...]],
               ipdom: list, bodies: list) -> list:
        """The chunks of a dispatch loop over the blocks of `prog`, given
        each block's successors `succ` and the merge point `ipdom` of each
        branch: a dispatch on the block index `b` with one arm per block
        that `_place` gives one, in block order, and each block's body (from
        `bodies`) where `_place` puts it.  `run` and the walk are both
        written this way."""
        code = _place(succ, ipdom)
        out = [(_indent("steps = 0\nb = 0\nwhile True:", 1), (None, None))]
        for k, x in enumerate(sorted(code)):
            block = prog.blocks[x]
            first = block.instructions[0] if block.instructions else block.terminator
            out.append((_indent(f"{'elif' if k else 'if'} b == {x}:", 2),
                        (block.label, first.line)))
            self.render(prog, code[x], 3, out, bodies)
        return out

    def render(self, prog: hir.HybridProgram, code: list, depth: int, out: list,
               bodies: list):
        """Append the chunks of placed code (`_place`), with the bodies of
        `bodies`, indented `depth` levels."""
        for item in code:
            if type(item) is int:       # a body
                out += [(_indent(text, depth), at) for text, at in bodies[item]]
                continue
            block = prog.blocks[item[0]]
            at = (block.label, block.terminator.line)
            if type(item) is list:
                if not item[2]:
                    out.append((_indent(f"b = {item[1]}\ncontinue", depth), at))
                continue
            then, other = [], []
            self.render(prog, item[1], depth + 1, then, bodies)
            self.render(prog, item[2], depth + 1, other, bodies)
            cond = self.reg[block.terminator.cond]
            if then:
                out += [(_indent(f"if {cond}:", depth), at), *then]
                if other:
                    out += [(_indent("else:", depth), at), *other]
            else:
                out += [(_indent(f"if not {cond}:", depth), at), *other]

    # -- the basis states a shot can reach ----------------------------------

    def sparse(self, succ: list[tuple[int, ...]]) -> int:
        """Render each kernel of the bodies over the index tuples with a
        live member there; a block the entry never reaches keeps them all.
        Return the first chunk of the entry block that measures or resets a
        qubit whose q = 1 member may be live there, a draw that may come
        out 1, or the block's length when there is none."""
        masks = _support([[text for text, _ in body if type(text) is tuple]
                          for body in self.bodies], succ)
        stop = len(self.bodies[0])
        for x, (body, mask) in enumerate(zip(self.bodies, masks)):
            mask = mask or (1 << (1 << self.n)) - 1
            for k, (text, at) in enumerate(body):
                if type(text) is tuple:
                    if x == 0 and text[0] in (_MEASURE, _RESET) and any(
                            [mask >> i1 & 1 for _, i1 in dict(text[1])["P"]]):
                        stop = min(stop, k)
                    fields, mask = _sparse(*text, mask)
                    if not self.unroll:     # the loop form names each tuple
                        fields = tuple([(f, self.indices(v) if type(v) is tuple
                                         else v) for f, v in fields])
                    body[k] = (_rendered(text[0], self.unroll, fields), at)
        return stop

    # -- known values: per-block tables -------------------------------------

    def known_locals(self, instr: hir.Instruction,
                     known: frozenset[str]) -> str | None:
        """The locals a known instruction of a steady block sets: its
        register, or the phase terms of a gate whose angle is known."""
        if isinstance(instr, hir.Classical):
            return self.reg[instr.dest] if instr.dest in known else None
        if isinstance(instr, hir.Gate) and instr.angle in known:
            return "corner, cc, ss" if instr.name == "eswap" else "p0, p1"
        return None

    def walk(self, prog: hir.HybridProgram, succ: list[tuple[int, ...]],
             known: frozenset[str], steady: list[bool], ipdom: list,
             items: list, inits: list[str], first: int, prologue: int,
             end: int):
        """Fold the entry block's leading instructions, the chunks of its
        body after its step check and before chunk `end`, and tabulate the
        known work of the blocks from `first` on.  `inits` name the
        registers' initial values.

        The walk is a function of a visit bound and those values, generated
        and placed like `run` (`layout`) from a body per block, and run
        once, from the entry.  Each body counts its visit with the step
        check of `run`, so the bound is the walk's step limit.  The entry
        block's body first runs the folded instructions through the text a
        shot would run, on the initial amplitudes, and appends the state
        they leave to `F`.  No branch enters that block, so they are the
        first thing every shot runs; they stop before any that draws noise,
        flips a readout or appends to `out` or `ev` (as `instruction`
        reports), and before the first measurement or reset whose q = 1
        member may be live (`sparse`).  Every draw they make has p = 0.0,
        so it comes out 0 whatever `rand()` gives: the walk's `rand` counts
        the draws and returns 0.0.  The folded chunks give way to one bare
        `rand()` per draw, which keeps every later draw of the shot where
        it was, and the state becomes the initial amplitudes and registers.

        Then a steady block runs its known instructions through the text a
        shot would run and appends the values they set to its row list:
        row k of a block's table holds them at the k-th visit.  Each known
        instruction then reads its block's next row, at its own position,
        through an iterator bound at the start of the shot (before chunk
        `prologue` of `self.head`).  A steady block whose `condbr` has a
        known condition goes where the shot goes; any other block (a `br`
        too, since its target is its immediate post-dominator) goes to its
        immediate post-dominator, and where there is none (after a `ret`
        too), or when there is nothing to tabulate, the walk returns its
        tables.  The program's immediate post-dominators serve as the merge
        points of `layout`.  A shot visits the steady blocks in the same
        order, with the same known values, because no register of K
        changes anywhere else; it may stop sooner.  When the walk raises,
        or makes more than WALK_VISITS visits, the source keeps its known
        work, and its fold if the walk got past it; the shot raises what
        the walk raised at its own block and line."""
        tabled = [i for i in range(first, len(items)) if items[i]]
        check = _STEP_CHECK.format(n=1)
        regs = ", ".join(self.reg.values())
        ret = f"return [{', '.join([f'T{i}' for i in tabled])}]"
        bodies, nexts = [], []
        for i, block in enumerate(prog.blocks):
            body = [check]
            if i == 0 and end > 1:
                body += [self.unpack,
                         *[text for text, _ in self.bodies[0][1:end]],
                         f"F.append(({self.amplitudes()}, [{regs}]))"]
            # each value as it stands right after its instruction
            for j, (_, text, names) in enumerate(items[i]):
                body += [text, f"v{j} = {names}"]
            if i in tabled:
                row = ", ".join([f"v{j}" for j in range(len(items[i]))])
                body.append(f"T{i}.append(({row}))")
            term = block.terminator
            if not tabled:
                nexts.append(())
            elif steady[i] and isinstance(term, hir.CondBr) and term.cond in known:
                nexts.append(succ[i])
            else:
                nexts.append(() if ipdom[i] is None else (ipdom[i],))
            if not nexts[i]:
                body.append(ret)
            bodies.append([("\n".join(body), (None, None))])
        text = "\n".join([
            f"def walk(limit, rand, F, {regs}):",
            _indent("\n".join([f"T{i} = []" for i in tabled]), 1),
            *[t for t, _ in self.layout(prog, nexts, ipdom, bodies)]])
        walk = FunctionType(code(text, "walk"),
                            namespace(self.static, self.domain, None))
        draws = 0

        def rand() -> float:
            nonlocal draws
            draws += 1
            return 0.0

        folded: list = []
        try:
            tables = walk(WALK_VISITS, rand, folded,
                          *[self.static[c] for c in inits])
        except Exception:
            tables = []     # the shot raises it at its own block and line
        if folded:
            self.static["A0"], values = folded[0]
            self.static.update(zip(inits, values))
            self.bodies[0][1:end] = [
                ("\n".join(["rand()"] * draws), self.bodies[0][1][1])
            ] if draws else []
        binds = []
        for i, rows in zip(tabled, tables):
            if not rows:
                continue
            binds.append(f"next{i} = iter(T{i}).__next__")
            self.static[f"T{i}"] = tuple(rows)
            one = len(items[i]) == 1
            body = self.bodies[i]
            for j, (k, _, names) in enumerate(items[i]):
                text = f"{names} = next{i}()" if one else \
                    f"R = next{i}()\n" * (j == 0) + f"{names} = R[{j}]"
                body[k] = (text, body[k][1])
        if binds:
            self.head.insert(prologue, ("\n".join(binds), (None, None)))

    # -- helpers ------------------------------------------------------------

    def emit(self, text: str):
        self.chunks.append((text, self.at))

    def kernel(self, template: str, **fields):
        """Emit a kernel over every index tuple; `sparse` renders it."""
        self.chunks.append(((template, tuple(fields.items())), self.at))

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

    def indices(self, tuples: tuple) -> str:
        """The name of a namespace entry holding the index tuples a kernel
        loops over, in the loop form: one name per distinct tuple."""
        name = self.names.setdefault(tuples, f"I{len(self.names)}")
        self.static[name] = tuples
        return name

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

    def instruction(self, instr: hir.Instruction) -> bool:
        """Emit `instr`.  Returns whether it drew noise, flipped a readout
        or appended to `out` or `ev`: work that a fold never runs ahead of
        the shot (noise probabilities are not part of the generated code's
        key)."""
        if isinstance(instr, hir.Gate):
            return self.gate(instr)
        if isinstance(instr, hir.Measure):
            dest = self.reg[instr.dest]
            self.kernel(_MEASURE, P=_pairs(self.n, instr.qubit), dest=dest)
            if self.noisy:
                self.emit(_READOUT_FLIP.format(dest=dest))
            if instr.record is not None:
                t, phi_inv = (self.boxed(v) for v in instr.record)
                self.emit(f"ev.append(({t}, {phi_inv}, {dest}))")
            return self.noisy or instr.record is not None
        if isinstance(instr, hir.Reset):
            self.kernel(_RESET, P=_pairs(self.n, instr.qubit))
        elif isinstance(instr, hir.ActiveReset):
            for q in range(self.n):
                self.kernel(_RESET, P=_pairs(self.n, q))
        elif isinstance(instr, hir.Classical):
            self.classical(instr)
        else:   # hir.Output
            self.emit(f"out.append(({instr.name!r}, {self.boxed(instr.name)}))")
            return True
        return False

    def gate(self, instr: hir.Gate) -> bool:
        """Emit a gate, and its noise draw when noise is on; whether it drew."""
        name, qs = instr.name, instr.qubits
        if name == "h":
            self.kernel(_H, P=_pairs(self.n, qs[0]))
        elif name == "x":
            self.kernel(_SWAP, P=_pairs(self.n, qs[0]))
        elif name == "sx":
            self.kernel(_SX, P=_pairs(self.n, qs[0]))
        elif name == "cnot":
            self.kernel(_SWAP, P=_controlled(self.n, *qs))
        elif name in ("rz", "crz"):
            pairs = _pairs(self.n, *qs) if name == "rz" else _controlled(self.n, *qs)
            if isinstance(instr.angle, str):
                self.emit(_PHASE_OF_REGISTER.format(
                    radians=self.expr("radians", "fixed", [self.reg[instr.angle]])))
                p0, p1 = "p0", "p1"
            else:
                half = self.half_angle(instr.angle)
                phase = complex(math.cos(half), math.sin(half))
                p0, p1 = self.const(phase.conjugate(), phase)
            self.kernel(_PHASE, P=pairs, p0=p0, p1=p1)
        else:   # eswap
            if isinstance(instr.angle, str):
                self.emit(_ESWAP_OF_REGISTER.format(
                    radians=self.expr("radians", "fixed", [self.reg[instr.angle]])))
                terms = ("corner", "cc", "ss")
            else:
                half = self.half_angle(instr.angle)
                terms = self.const(complex(math.cos(half), -math.sin(half)),
                                   math.cos(half), -1j * math.sin(half))
            self.kernel(_ESWAP, Q=_quads(self.n, *qs),
                        **dict(zip(("corner", "cc", "ss"), terms)))
        if not self.noisy or name in NOISELESS_GATES:
            return False
        if len(qs) == 1:
            self.kernel(_NOISE1, P=_pairs(self.n, qs[0]))
        else:
            self.kernel(_NOISE2, Pa=_pairs(self.n, qs[0]),
                        Pb=_pairs(self.n, qs[1]))
        return True

    def classical(self, instr: hir.Classical):
        op = instr.op
        dest = self.reg[instr.dest]
        args = [self.operand(s, k) for s, k in
                zip(instr.srcs, hir.operand_kinds(instr, self.kinds))]
        if op in ("cmp_eq", "cmp_lt"):
            rel = "==" if op == "cmp_eq" else "<"
            self.emit(f"{dest} = 1 if {args[0]} {rel} {args[1]} else 0")
        elif op == "select":
            self.emit(f"{dest} = {args[1]} if {args[0]} else {args[2]}")
        else:
            self.emit(f"{dest} = {self.expr(op, self.kinds[instr.dest], args)}")

    def ret(self, term: hir.Ret):
        for v in term.values:
            self.emit(f"out.append(({v!r}, {self.boxed(v)}))")
        self.emit(f"return {self.amplitudes()}")


# The compile cache of generated functions: `run`, and the walk that runs
# once at generation time.  Programs of one shape generate the same text,
# and compiling it costs far more than running a walk: about 0.6 ms for
# the 146 lines of the lowered IPE step's walk, which then runs in about
# 0.01 ms (medians of 30 and 50 runs on a 2-core x86_64 host).
CACHE_SIZE = 256
_file_numbers = itertools.count()


@lru_cache(maxsize=CACHE_SIZE)
def code(source: str, name: str) -> CodeType:
    """The code object of the function `source` defines, compiled under the
    file name `<hir NAME:N>`, which no other code object has.  The source
    stays in `linecache` under that name, so that tracebacks show the
    generated lines, for as long as the code object lives."""
    filename = f"<hir {name}:{next(_file_numbers)}>"
    module = compile(source, filename, "exec")
    obj = next(c for c in module.co_consts if isinstance(c, CodeType))
    linecache.cache[filename] = (len(source), None, source.splitlines(True),
                                 filename)
    weakref.finalize(obj, linecache.cache.pop, filename, None)
    return obj


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
