"""Textual hybrid intermediate representation.

A program is exactly one procedure: a prologue of variable declarations
followed by labelled basic blocks.  Blocks mix quantum instructions,
classical register arithmetic and IO, and end in exactly one terminator
(`br`, `condbr`, or `ret`).  The grammar is line-oriented:

    # comment
    proc main qubits 2
      var fixed mu = 0.7951
      var int18 i = 0
      var bit d = 0
    entry:
      h q0
      rz(0.5) q0
      mz q0 -> d record(t, phi_inv)
      condbr d, took_one, took_zero
    ...
    endproc

Variable kinds are `bit`, `int18` and `fixed` (Q2.16).  Angles are written
in units of pi and may be a `fixed` variable or a decimal literal.  Qubit
operands are `q0`, `q1`, ... with static indices.  No instruction calls
another procedure, so any text after `endproc` is a syntax error.

`check_semantics`, which every `HybridProgram` runs when it is built, states
the IR's rules once; the parser checks syntax only.  The program, its
variables and its labels have names (`is_name`), and keywords are names
too.  A literal is a finite int or float, never a bool; an `int18` slot
takes an int and a `bit` slot 0 or 1.  The `mz` destination and record, the
`condbr` condition and what `output` and `ret` name are declared variables.
`operand_kinds` gives each classical operand's kind.  A mistyped field (a
list for a name, a tuple for a `VarDecl`, a number for a sequence, a float
for a qubit) is a `SemanticError` as well.
Literal ranges are left to `profiles.validate`.  `parse` and `emit` are
exact inverses for every program, parsed or built in code.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field

from .errors import IRSyntaxError, SemanticError

KINDS = ("bit", "int18", "fixed")

GATE_ARITY = {
    "h": 1, "x": 1, "sx": 1,
    "rz": 1, "crz": 2, "eswap": 2, "cnot": 2,
}
ANGLE_GATES = ("rz", "crz", "eswap")
CLASSICAL_OPS = {
    # op -> number of source operands
    "add": 2, "sub": 2, "mul": 2,
    "recip": 1, "div": 2, "neg": 1,
    "cmp_eq": 2, "cmp_lt": 2,
    "select": 3,
}

_NAME_RE = re.compile(r"(?!q\d+\Z)[A-Za-z_]\w*")
_QUBIT_RE = re.compile(r"q(\d+)$")
_INT_RE = re.compile(r"[+-]?\d+$")
_FLOAT_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+(?:\.\d*)?[eE][+-]?\d+)$")
_FLOAT_MAX = sys.float_info.max


def is_name(tok) -> bool:
    """Whether `tok` can name the program, a variable or a label: an
    identifier that is not shaped like a qubit (`q0`)."""
    return isinstance(tok, str) and _NAME_RE.fullmatch(tok) is not None


# ---------------------------------------------------------------------------
# Object model.  `line` fields are source positions and never take part in
# structural equality, so parse(emit(p)) == p holds.

def _store_tuple(node, name: str):
    """Store the sequence field `name` of a node as a tuple; a value that is
    not a sequence is a SemanticError."""
    value = getattr(node, name)
    try:
        object.__setattr__(node, name, tuple(value))
    except TypeError:
        raise SemanticError(f"{type(node).__name__} {name} {value!r} is not a "
                            "sequence", getattr(node, "line", None)) from None


@dataclass(frozen=True, slots=True)
class Gate:
    name: str
    qubits: tuple[int, ...]
    angle: str | float | None = None     # variable name or literal, units of pi
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        _store_tuple(self, "qubits")
        if type(self.angle) is int and abs(self.angle) <= _FLOAT_MAX:
            object.__setattr__(self, "angle", float(self.angle))


@dataclass(frozen=True, slots=True)
class Measure:
    qubit: int
    dest: str
    record: tuple[str, str] | None = None  # (t-var, phi_inv-var) evidence tag
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.record is not None:
            _store_tuple(self, "record")


@dataclass(frozen=True, slots=True)
class Reset:
    qubit: int
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class ActiveReset:
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Classical:
    op: str
    dest: str
    srcs: tuple[str | float | int, ...]
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        _store_tuple(self, "srcs")


@dataclass(frozen=True, slots=True)
class Output:
    name: str
    line: int | None = field(default=None, compare=False)


Instruction = Gate | Measure | Reset | ActiveReset | Classical | Output


@dataclass(frozen=True, slots=True)
class Br:
    target: str
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class CondBr:
    cond: str
    then_target: str
    else_target: str
    line: int | None = field(default=None, compare=False)


@dataclass(frozen=True, slots=True)
class Ret:
    values: tuple[str, ...] = ()
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        _store_tuple(self, "values")


Terminator = Br | CondBr | Ret


@dataclass(frozen=True, slots=True)
class VarDecl:
    name: str
    kind: str
    init: float | int
    line: int | None = field(default=None, compare=False)

    def __post_init__(self):
        # An int too large for a float stays, and the check rejects it.
        if self.kind == "fixed" and type(self.init) is int \
                and abs(self.init) <= _FLOAT_MAX:
            object.__setattr__(self, "init", float(self.init))


@dataclass(frozen=True, slots=True)
class BasicBlock:
    label: str
    instructions: tuple[Instruction, ...]
    terminator: Terminator

    def __post_init__(self):
        _store_tuple(self, "instructions")


@dataclass(frozen=True, slots=True)
class HybridProgram:
    """A program: one procedure, checked by `check_semantics` when it is
    built, so every program that exists is valid.  Its sequences (and those
    of its blocks and instructions) are stored as tuples, whatever sequence
    they were built from, so no program can change after its check."""

    name: str
    qubits: int
    decls: tuple[VarDecl, ...]
    blocks: tuple[BasicBlock, ...]
    # The engine's generated code for this program object, filled and read
    # only by `sim`; it dies with the program.
    generated: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        _store_tuple(self, "decls")
        _store_tuple(self, "blocks")
        check_semantics(self)

    def entry_procedure(self) -> HybridProgram:
        """The program itself.  Kept only for the benchmark's
        `perfbench/workloads.py`, which calls it; nothing else does."""
        return self


# ---------------------------------------------------------------------------
# Semantic checking over the object model, run by every `HybridProgram`
# when it is built: parsed and builder-made programs get the same scrutiny.

def _is_number(v) -> bool:
    """A finite int or float, not a bool; an int must fit a float."""
    return type(v) in (int, float) and abs(v) <= _FLOAT_MAX


# kind -> (test of a literal of that kind, what the test asks)
_LITERALS = {"fixed": (_is_number, "a finite int or float"),
             "int18": (lambda v: type(v) is int and abs(v) <= _FLOAT_MAX, "an int"),
             "bit": (lambda v: type(v) is int and v in (0, 1), "the int 0 or 1")}


def _check_operand(kinds: dict[str, str], tok, want: str | None, line,
                   what: str, register: bool = False):
    """`tok` in a slot of kind `want` (None: any kind): a declared variable
    of that kind or, unless the slot is `register`-only, a literal of it."""
    if isinstance(tok, str):
        got = kinds.get(tok)
        if got is None:
            raise SemanticError(f"undeclared variable {tok!r} in {what}", line)
        if want is not None and got != want:
            raise SemanticError(
                f"{what} expects {want}, got {got} variable {tok!r}", line)
    elif register:
        raise SemanticError(f"{what} must be a variable, got {tok!r}", line)
    elif not _LITERALS[want][0](tok):
        raise SemanticError(
            f"{what} literal must be {_LITERALS[want][1]}, got {tok!r}", line)


def _check_qubits(qubits: tuple, nqubits: int, line):
    for q in qubits:
        if type(q) is not int:
            raise SemanticError(f"qubit {q!r} is not an int", line)
        if not 0 <= q < nqubits:
            raise SemanticError(
                f"qubit q{q} out of range for {nqubits}-qubit procedure", line)


def operand_kinds(instr: Classical, kinds: dict[str, str]) -> tuple:
    """The kind of each source operand of a classical instruction.  A
    comparison's operands take the kind of its first declared variable, else
    `fixed` if a literal is a float, else `int18`."""
    op, n = instr.op, len(instr.srcs)
    if op in ("cmp_eq", "cmp_lt"):
        for s in instr.srcs:
            if isinstance(s, str) and s in kinds:
                return (kinds[s],) * n
        return ("fixed" if any(isinstance(s, float) for s in instr.srcs)
                else "int18",) * n
    dkind = kinds.get(instr.dest)
    if op == "select":
        return ("bit", dkind, dkind)
    return ("fixed" if op in ("recip", "div") else dkind,) * n


def _check_instruction(instr: Instruction, kinds: dict[str, str], nqubits: int):
    if not isinstance(instr, Instruction):
        raise SemanticError(f"unknown instruction {instr!r}")
    line = instr.line
    if isinstance(instr, Gate):
        arity = GATE_ARITY.get(instr.name) if isinstance(instr.name, str) \
            else None
        if arity is None:
            raise SemanticError(f"unknown gate {instr.name!r}", line)
        if len(instr.qubits) != arity:
            raise SemanticError(f"{instr.name} takes {arity} qubit(s)", line)
        _check_qubits(instr.qubits, nqubits, line)
        if len(set(instr.qubits)) != len(instr.qubits):
            raise SemanticError(f"{instr.name} qubits must be distinct", line)
        wants_angle = instr.name in ANGLE_GATES
        if wants_angle and instr.angle is None:
            raise SemanticError(f"{instr.name} requires an angle", line)
        if not wants_angle and instr.angle is not None:
            raise SemanticError(f"{instr.name} takes no angle", line)
        if wants_angle:
            _check_operand(kinds, instr.angle, "fixed", line, f"{instr.name} angle")
    elif isinstance(instr, Measure):
        _check_qubits((instr.qubit,), nqubits, line)
        _check_operand(kinds, instr.dest, "bit", line, "mz destination", True)
        if instr.record is not None:
            if len(instr.record) != 2:
                raise SemanticError("mz record takes two variables", line)
            for v in instr.record:
                _check_operand(kinds, v, "fixed", line, "mz record", True)
    elif isinstance(instr, Reset):
        _check_qubits((instr.qubit,), nqubits, line)
    elif isinstance(instr, ActiveReset):
        pass  # always the full register
    elif isinstance(instr, Classical):
        op = instr.op
        if not isinstance(op, str) or op not in CLASSICAL_OPS:
            raise SemanticError(f"unknown classical op {op!r}", line)
        if len(instr.srcs) != CLASSICAL_OPS[op]:
            raise SemanticError(
                f"{op} takes {CLASSICAL_OPS[op]} source operand(s)", line)
        _check_operand(kinds, instr.dest, None, line, op, True)
        dkind = kinds[instr.dest]
        if op in ("add", "sub", "mul", "neg") and dkind == "bit":
            raise SemanticError(f"{op} cannot target a bit variable", line)
        if op in ("recip", "div") and dkind != "fixed":
            raise SemanticError(f"{op} targets a fixed variable", line)
        if op in ("cmp_eq", "cmp_lt") and dkind != "bit":
            raise SemanticError(f"{op} targets a bit variable", line)
        for s, k in zip(instr.srcs, operand_kinds(instr, kinds)):
            _check_operand(kinds, s, k, line, op)
    else:  # Output
        _check_operand(kinds, instr.name, None, line, "output", True)


def check_semantics(prog: HybridProgram):
    if not is_name(prog.name):
        raise SemanticError(f"bad procedure name {prog.name!r}")
    if type(prog.qubits) is not int or prog.qubits < 0:
        raise SemanticError(
            f"procedure {prog.name!r}: bad qubit count {prog.qubits!r}")
    kinds: dict[str, str] = {}
    for d in prog.decls:
        if not isinstance(d, VarDecl):
            raise SemanticError(f"declaration {d!r} is not a VarDecl")
        if d.kind not in KINDS:
            raise SemanticError(f"unknown kind {d.kind!r} for var {d.name!r}",
                                d.line)
        if not is_name(d.name):
            raise SemanticError(f"bad variable name {d.name!r}", d.line)
        if d.name in kinds:
            raise SemanticError(f"duplicate declaration of {d.name!r}", d.line)
        if not _LITERALS[d.kind][0](d.init):
            raise SemanticError(f"initializer of {d.name!r} must be "
                                f"{_LITERALS[d.kind][1]}, got {d.init!r}", d.line)
        kinds[d.name] = d.kind
    if not prog.blocks:
        raise SemanticError(f"procedure {prog.name!r} has no blocks")
    labels = set()
    for b in prog.blocks:
        if not isinstance(b, BasicBlock):
            raise SemanticError(f"block {b!r} is not a BasicBlock")
        if not is_name(b.label):
            raise SemanticError(f"bad label {b.label!r}")
        if b.label in labels:
            raise SemanticError(f"duplicate label {b.label!r}")
        labels.add(b.label)
    for b in prog.blocks:
        for instr in b.instructions:
            _check_instruction(instr, kinds, prog.qubits)
        t = b.terminator
        if isinstance(t, Br):
            targets = (t.target,)
        elif isinstance(t, CondBr):
            _check_operand(kinds, t.cond, "bit", t.line, "condbr condition", True)
            targets = (t.then_target, t.else_target)
        elif isinstance(t, Ret):
            for v in t.values:
                _check_operand(kinds, v, None, t.line, "ret", True)
            targets = ()
        else:
            raise SemanticError(f"block {b.label!r} has no valid terminator")
        for tgt in targets:
            if not isinstance(tgt, str) or tgt not in labels:
                raise SemanticError(f"branch to unknown label {tgt!r}", t.line)


# ---------------------------------------------------------------------------
# Parser.  It checks syntax only: every rule of the IR is checked when
# `parse` builds the program.

def _classify_operand(tok: str, line: int) -> str | float | int:
    if _FLOAT_RE.match(tok):
        return float(tok)
    if _INT_RE.match(tok):
        return int(tok)
    if _QUBIT_RE.match(tok):
        raise SemanticError(f"qubit {tok} cannot be a classical operand", line)
    if is_name(tok):
        return tok
    raise IRSyntaxError(f"bad operand {tok!r}", line)


def _parse_qubit(tok: str, line: int) -> int:
    m = _QUBIT_RE.match(tok)
    if not m:
        raise IRSyntaxError(f"expected a qubit (q0, q1, ...), got {tok!r}", line)
    return int(m.group(1))


def _parse_name(tok: str, line: int, what: str = "variable") -> str:
    if not is_name(tok):
        raise IRSyntaxError(f"bad {what} name {tok!r}", line)
    return tok


def _split_args(rest: str) -> list[str]:
    return [a.strip() for a in rest.split(",")] if rest.strip() else []


_GATE_ANGLE_RE = re.compile(
    rf"({'|'.join(ANGLE_GATES)})\s*\(\s*([^()\s]+)\s*\)\s*(.*)$")
_MZ_RE = re.compile(
    r"mz\s+(\S+)\s*->\s*(\w+)\s*"
    r"(?:record\s*\(\s*(\w+)\s*,\s*(\w+)\s*\)\s*)?$")
_LABEL_RE = re.compile(r"([A-Za-z_]\w*)\s*:$")


def _parse_instruction(text: str, ln: int) -> Instruction | Terminator:
    m = _GATE_ANGLE_RE.match(text)
    if m:
        name, angle_tok, rest = m.groups()
        qubits = tuple(_parse_qubit(a, ln) for a in _split_args(rest))
        return Gate(name, qubits, _classify_operand(angle_tok, ln), line=ln)
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head in GATE_ARITY:
        if head in ANGLE_GATES:
            raise IRSyntaxError(f"{head} requires a parenthesized angle", ln)
        qubits = tuple(_parse_qubit(a, ln) for a in _split_args(rest))
        return Gate(head, qubits, None, line=ln)
    if head == "mz":
        m = _MZ_RE.match(text)
        if not m:
            raise IRSyntaxError("expected: mz qN -> var [record(t, phi)]", ln)
        qtok, dest, rec_t, rec_p = m.groups()
        record = (rec_t, rec_p) if rec_t else None
        return Measure(_parse_qubit(qtok, ln), _parse_name(dest, ln),
                       record, line=ln)
    if head == "reset":
        return Reset(_parse_qubit(rest, ln), line=ln)
    if head == "active_reset":
        if rest:
            raise IRSyntaxError("active_reset takes no operands", ln)
        return ActiveReset(line=ln)
    if head in CLASSICAL_OPS:
        args = _split_args(rest)
        if len(args) != CLASSICAL_OPS[head] + 1:
            raise IRSyntaxError(
                f"{head} takes {CLASSICAL_OPS[head] + 1} operands", ln)
        dest = _parse_name(args[0], ln)
        srcs = tuple(_classify_operand(a, ln) for a in args[1:])
        return Classical(head, dest, srcs, line=ln)
    if head == "output":
        return Output(_parse_name(rest, ln), line=ln)
    if head == "br":
        return Br(_parse_name(rest, ln, "label"), line=ln)
    if head == "condbr":
        args = _split_args(rest)
        if len(args) != 3:
            raise IRSyntaxError("condbr takes: cond, then_label, else_label", ln)
        return CondBr(_parse_name(args[0], ln), _parse_name(args[1], ln, "label"),
                      _parse_name(args[2], ln, "label"), line=ln)
    if head == "ret":
        values = tuple(_parse_name(a, ln) for a in _split_args(rest))
        return Ret(values, line=ln)
    raise IRSyntaxError(f"unknown instruction {head!r}", ln,
                        col=text.find(head) + 1)


def parse(text: str) -> HybridProgram:
    """Parse program text.  Raises IRSyntaxError / SemanticError."""
    closed: tuple | None = None      # the procedure's fields, once closed
    cur: dict | None = None          # open procedure under construction
    blocks: list[BasicBlock] = []
    label: str | None = None
    instrs: list[Instruction] = []
    terminator: Terminator | None = None

    def close_block(ln: int):
        nonlocal label, instrs, terminator
        if label is None:
            return
        if terminator is None:
            raise SemanticError(f"block {label!r} has no terminator", ln)
        blocks.append(BasicBlock(label, tuple(instrs), terminator))
        label, instrs, terminator = None, [], None

    for ln, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if closed is not None:
            raise IRSyntaxError("text after endproc (a program is one "
                                "procedure)", ln)
        tokens = line.split()
        if tokens[0] == "proc":
            if cur is not None:
                raise IRSyntaxError("nested proc (missing endproc?)", ln)
            if len(tokens) != 4 or tokens[2] != "qubits" or not _INT_RE.match(tokens[3]):
                raise IRSyntaxError("expected: proc NAME qubits N", ln)
            cur = {"name": _parse_name(tokens[1], ln, "procedure"),
                   "qubits": int(tokens[3]), "decls": []}
            blocks = []
            continue
        if cur is None:
            raise IRSyntaxError("text outside any procedure", ln)
        if tokens[0] == "endproc":
            if len(tokens) != 1:
                raise IRSyntaxError("endproc takes nothing", ln)
            close_block(ln)
            closed = (cur["name"], cur["qubits"], tuple(cur["decls"]),
                      tuple(blocks))
            cur = None
            continue
        if tokens[0] == "var":
            if label is not None or blocks:
                raise IRSyntaxError("var declaration after first block", ln)
            m = re.match(r"var\s+(\w+)\s+(\w+)\s*(?:=\s*(\S+))?$", line)
            if not m or m.group(1) not in KINDS:
                raise IRSyntaxError("expected: var KIND NAME [= LITERAL]", ln)
            kind, name, init_tok = m.group(1), _parse_name(m.group(2), ln), m.group(3)
            init = 0 if init_tok is None else _classify_operand(init_tok, ln)
            cur["decls"].append(VarDecl(name, kind, init, line=ln))
            continue
        m = _LABEL_RE.match(line)
        if m:
            close_block(ln)
            label = _parse_name(m.group(1), ln, "label")
            continue
        if label is None:
            raise IRSyntaxError("instruction outside any block", ln)
        if terminator is not None:
            raise SemanticError(
                f"instruction after terminator in block {label!r}", ln)
        item = _parse_instruction(line, ln)
        if isinstance(item, (Br, CondBr, Ret)):
            terminator = item
        else:
            instrs.append(item)
    if cur is not None:
        raise IRSyntaxError("missing endproc", len(text.splitlines()) or 1)
    if closed is None:
        raise IRSyntaxError("no procedure", 1)
    # Built, and so checked, only now: text after `endproc` is reported
    # before any semantic error of the procedure.
    return HybridProgram(*closed)


# ---------------------------------------------------------------------------
# Emitter.  Deterministic; parse(emit(p)) == p.

def _fmt_instruction(instr: Instruction | Terminator) -> str:
    if isinstance(instr, Gate):
        qs = ", ".join(f"q{q}" for q in instr.qubits)
        if instr.angle is not None:
            return f"{instr.name}({instr.angle}) {qs}"
        return f"{instr.name} {qs}"
    if isinstance(instr, Measure):
        s = f"mz q{instr.qubit} -> {instr.dest}"
        if instr.record:
            s += f" record({instr.record[0]}, {instr.record[1]})"
        return s
    if isinstance(instr, Reset):
        return f"reset q{instr.qubit}"
    if isinstance(instr, ActiveReset):
        return "active_reset"
    if isinstance(instr, Classical):
        ops = ", ".join([instr.dest, *map(str, instr.srcs)])
        return f"{instr.op} {ops}"
    if isinstance(instr, Output):
        return f"output {instr.name}"
    if isinstance(instr, Br):
        return f"br {instr.target}"
    if isinstance(instr, CondBr):
        return f"condbr {instr.cond}, {instr.then_target}, {instr.else_target}"
    # A Ret: every program was checked when it was built.
    return "ret" + (" " + ", ".join(instr.values) if instr.values else "")


def emit(prog: HybridProgram) -> str:
    out = [f"proc {prog.name} qubits {prog.qubits}"]
    for d in prog.decls:
        out.append(f"  var {d.kind} {d.name} = {d.init}")
    for b in prog.blocks:
        out.append(f"{b.label}:")
        for instr in b.instructions:
            out.append(f"  {_fmt_instruction(instr)}")
        out.append(f"  {_fmt_instruction(b.terminator)}")
    out.append("endproc")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Control-flow graph.

@dataclass(frozen=True)
class Cfg:
    entry: str
    successors: dict[str, tuple[str, ...]]

    def edges(self) -> tuple[tuple[str, str], ...]:
        return tuple((src, dst) for src in self.successors
                     for dst in self.successors[src])

    def to_dot(self, name: str = "cfg") -> str:
        lines = [f"digraph {name} {{"]
        for label in self.successors:
            shape = ', shape=box' if label == self.entry else ''
            lines.append(f'  "{label}" [label="{label}"{shape}];')
        for src, dst in self.edges():
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def cfg(prog: HybridProgram) -> Cfg:
    succ: dict[str, tuple[str, ...]] = {}
    for b in prog.blocks:
        t = b.terminator
        if isinstance(t, Br):
            succ[b.label] = (t.target,)
        elif isinstance(t, CondBr):
            succ[b.label] = (t.then_target, t.else_target)
        else:
            succ[b.label] = ()
    return Cfg(prog.blocks[0].label, succ)
