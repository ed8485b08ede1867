"""The IR's rules, stated once in the check every `HybridProgram` runs.

The property test draws program fields from pools that mix valid values
with the values the rules exist for: names that are keywords, shaped like
a qubit or not identifiers at all; literals that are bools, None, NaN,
infinite, too large for a float, out of the Q2.16 or 18-bit range, or of
the wrong kind; and literals where only a variable may stand.  Whatever
the constructor accepts must then emit text that parses back to it,
validate the same way before and after that round trip, and compile in
both modes, failing only on a literal that `validate` reports.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hybridsim import hir, sim
from hybridsim.algorithms import RwpeParams, build_rwpe
from hybridsim.errors import IRSyntaxError, OutOfRange, SemanticError
from hybridsim.fixedpoint import REAL_MAX
from hybridsim.profiles import PERMISSIVE, validate

GOOD_NAMES = ["a", "b", "x", "ret", "h", "record", "var", "proc", "True", "q"]
BAD_NAMES = ["q1", "q01", "1x", "a b", "", "x\n", 5]
GOOD_LABELS = ["entry", "ret", "x", "br", "b2"]
BAD_LITERALS = [True, False, None, math.nan, math.inf, -math.inf, 2 ** 1100,
                "1.5"]
# Per kind: literals of that kind, in range and out of it.
LITERALS = {"fixed": [0.0, 0.5, -1.25, 1, -2, 3.0, 1e6, -1e308, 1e308, 2 ** 40],
            "int18": [0, 1, -7, 131071, 200000, -131073, 2 ** 40],
            "bit": [0, 1]}
ALL_LITERALS = [v for vs in LITERALS.values() for v in vs] + BAD_LITERALS


def _pick(draw, good, wild):
    """Mostly a value from `good`; one draw in sixteen (or every draw, when
    `good` is empty) from `wild`."""
    if not good or draw(st.integers(0, 15)) == 15:
        return draw(st.sampled_from(wild))
    return draw(st.sampled_from(good))


@st.composite
def program_fields(draw):
    """(name, qubits, decls, blocks), each part of which may break a rule."""
    nq = _pick(draw, [1, 2, 3], [0])
    names = draw(st.lists(st.sampled_from(GOOD_NAMES), min_size=1,
                          max_size=5, unique=True))
    # Each kind once, then any: most programs have a variable of each kind.
    kinds = draw(st.permutations(hir.KINDS)) + [
        draw(st.sampled_from(hir.KINDS)) for _ in names[3:]]
    decls = []
    for name, kind in zip(names, kinds):
        decls.append(hir.VarDecl(_pick(draw, [name], BAD_NAMES), kind,
                                 _pick(draw, LITERALS[kind], BAD_LITERALS)))
    byk = {k: [d.name for d in decls if d.kind == k] for k in hir.KINDS}
    wild = names + BAD_NAMES + ALL_LITERALS

    def var(kind=None):
        return _pick(draw, names if kind is None else byk[kind], wild)

    def operand(kind):
        return _pick(draw, byk[kind] + LITERALS[kind], wild)

    def qubits(n):
        """`n` distinct qubits, each of which may be out of range or not
        an int."""
        good = draw(st.permutations(range(nq)))[:n]
        return tuple(_pick(draw, [q], [nq, -1, True, 0.0]) for q in good) \
            if len(good) == n else tuple(_pick(draw, [], [0, 1, nq])
                                         for _ in range(n))

    def instruction():
        what = draw(st.sampled_from(["gate", "mz", "reset", "active_reset",
                                     "classical", "output"]))
        if what == "gate":
            name = _pick(draw, sorted(hir.GATE_ARITY), ["cz"])
            angle = operand("fixed") if name in hir.ANGLE_GATES else None
            return hir.Gate(name, qubits(hir.GATE_ARITY.get(name, 1)), angle)
        if what == "mz":
            record = _pick(draw, [None, "pair"], ["one"])
            record = (None if record is None else
                      (var("fixed"), var("fixed"))[:2 if record == "pair" else 1])
            return hir.Measure(qubits(1)[0], var("bit"), record)
        if what == "reset":
            return hir.Reset(qubits(1)[0])
        if what == "active_reset":
            return hir.ActiveReset()
        if what == "output":
            return hir.Output(var())
        # An op that may target the destination's kind, then operands of
        # the kinds it reads.
        dest = var()
        kind = dict(zip(names, kinds)).get(dest, "fixed")
        ops = {"bit": ["cmp_eq", "cmp_lt", "select"],
               "int18": ["add", "sub", "mul", "neg", "select"]}.get(
                   kind, sorted(hir.CLASSICAL_OPS))
        op = _pick(draw, ops, sorted(hir.CLASSICAL_OPS))
        if op in ("cmp_eq", "cmp_lt"):
            srcs = [draw(st.sampled_from(hir.KINDS))] * 2
        elif op == "select":
            srcs = ["bit", kind, kind]
        else:
            srcs = [kind] * hir.CLASSICAL_OPS[op]
        return hir.Classical(op, dest, tuple(operand(k) for k in srcs))

    labels = draw(st.lists(st.sampled_from(GOOD_LABELS), min_size=1,
                           max_size=3, unique=True))
    labels = [_pick(draw, [label], ["q0", "1b", ""]) for label in labels]
    blocks = []
    for label in labels:
        instrs = tuple(instruction() for _ in range(draw(st.integers(0, 4))))
        term = draw(st.sampled_from(["br", "condbr", "ret"]))
        if term == "br":
            term = hir.Br(_pick(draw, labels, ["nowhere"]))
        elif term == "condbr":
            term = hir.CondBr(var("bit"), _pick(draw, labels, ["nowhere"]),
                              _pick(draw, labels, ["nowhere"]))
        else:
            term = hir.Ret(tuple(var() for _ in range(draw(st.integers(0, 2)))))
        blocks.append(hir.BasicBlock(label, instrs, term))
    return _pick(draw, ["main", "ret"], BAD_NAMES), nq, decls, blocks


def _diagnostics(prog):
    return [(d.code, d.message, d.block) for d in validate(prog, PERMISSIVE)]


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program_fields())
def test_every_program_the_constructor_accepts_is_whole(fields):
    try:
        prog = hir.HybridProgram(*fields)
    except SemanticError:
        return
    parsed = hir.parse(hir.emit(prog))
    assert parsed == prog
    diags = _diagnostics(prog)
    assert _diagnostics(parsed) == diags
    for mode in sim.ClassicalMode:
        try:
            sim.compile_program(prog, sim.ExecConfig(classical_mode=mode))
        except OutOfRange:
            assert "literal-out-of-range" in [code for code, _, _ in diags]


# -- one case per rule ----------------------------------------------------------

def _one_block(decls, instrs, term=hir.Ret()):
    return hir.HybridProgram("main", 1, decls,
                             (hir.BasicBlock("entry", instrs, term),))


def test_keywords_are_names():
    prog = hir.HybridProgram("main", 1, (hir.VarDecl("x", "bit", 0),), (
        hir.BasicBlock("entry", (hir.Measure(0, "x"),), hir.Br("ret")),
        hir.BasicBlock("ret", (hir.Output("x"),), hir.Ret(("x",)))))
    assert hir.parse(hir.emit(prog)) == prog
    assert hir.is_name("ret") and hir.is_name("h") and hir.is_name("q")
    assert not any(map(hir.is_name, ["q0", "1x", "a b", "", 5]))
    text = "proc main qubits 0\nentry:\n  br x\nx:\n  ret\nendproc\n"
    assert [b.label for b in hir.parse(text).blocks] == ["entry", "x"]


@pytest.mark.parametrize("make, message", [
    (lambda: _one_block((hir.VarDecl("q1", "bit", 0),), ()),
     "bad variable name 'q1'"),
    (lambda: hir.HybridProgram("main", 0, (), (
        hir.BasicBlock("q0", (), hir.Ret()),)), "bad label 'q0'"),
    (lambda: hir.HybridProgram("a b", 0, (), (
        hir.BasicBlock("entry", (), hir.Ret()),)), "bad procedure name 'a b'"),
], ids=["qubit-shaped-variable", "qubit-shaped-label", "procedure-name"])
def test_names_must_be_names(make, message):
    with pytest.raises(SemanticError, match=message):
        make()


def test_parser_reads_a_keyword_operand_as_a_variable():
    text = "proc main qubits 0\n  var int18 a = 0\nentry:\n  add a, a, h\n" \
           "  ret\nendproc\n"
    with pytest.raises(SemanticError, match="undeclared variable 'h'"):
        hir.parse(text)
    with pytest.raises(IRSyntaxError, match="bad label name 'q0'"):
        hir.parse("proc main qubits 0\nq0:\n  ret\nendproc\n")


@pytest.mark.parametrize("make, message", [
    (lambda: _one_block((hir.VarDecl("v", "bit", 2),), ()),
     "initializer of 'v' must be the int 0 or 1, got 2"),
    (lambda: _one_block((hir.VarDecl("a", "fixed", 0.0),),
                        (hir.Classical("add", "a", ("a", None)),)),
     "add literal must be a finite int or float, got None"),
    (lambda: _one_block((), (hir.Gate("rz", (0,), math.nan),)),
     "rz angle literal must be a finite int or float, got nan"),
    (lambda: _one_block((hir.VarDecl("i", "int18", True),), ()),
     "initializer of 'i' must be an int, got True"),
    (lambda: _one_block((hir.VarDecl("f", "fixed", 2 ** 1100),), ()),
     "initializer of 'f' must be a finite int or float"),
], ids=["bit-two", "none-operand", "nan-angle", "bool-int18", "huge-int"])
def test_literals_must_be_of_their_kind(make, message):
    with pytest.raises(SemanticError, match=message):
        make()


def test_variables_must_be_of_their_kind():
    with pytest.raises(SemanticError, match="add expects fixed, got bit "
                                            "variable 'b'"):
        _one_block((hir.VarDecl("a", "fixed", 0.0), hir.VarDecl("b", "bit", 0)),
                   (hir.Classical("add", "a", ("a", "b")),))


def test_fixed_initialisers_and_literal_angles_are_stored_as_floats():
    prog = _one_block((hir.VarDecl("f", "fixed", 1),),
                      (hir.Gate("rz", (0,), -1),))
    assert type(prog.decls[0].init) is float
    assert type(prog.blocks[0].instructions[0].angle) is float
    assert hir.emit(prog) == hir.emit(hir.parse(hir.emit(prog)))


@pytest.mark.parametrize("make, message", [
    (lambda: _one_block((), (hir.Measure(0, 1),)),
     "mz destination must be a variable, got 1"),
    (lambda: _one_block((hir.VarDecl("d", "bit", 0),
                         hir.VarDecl("w", "fixed", 0.0)),
                        (hir.Measure(0, "d", (0.5, "w")),)),
     "mz record must be a variable, got 0.5"),
    (lambda: hir.HybridProgram("main", 0, (), (
        hir.BasicBlock("entry", (), hir.CondBr(1, "entry", "entry")),)),
     "condbr condition must be a variable, got 1"),
    (lambda: _one_block((), (hir.Output(0),)), "output must be a variable"),
    (lambda: _one_block((), (), hir.Ret((1,))), "ret must be a variable"),
], ids=["mz-dest", "mz-record", "condbr", "output", "ret"])
def test_register_slots_take_variables(make, message):
    with pytest.raises(SemanticError, match=message):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: _one_block((), (hir.Gate(["h"], (0,)),)), r"unknown gate \['h'\]"),
    (lambda: _one_block((hir.VarDecl("a", "int18", 0),),
                        (hir.Classical(["add"], "a", ("a", 1)),)),
     r"unknown classical op \['add'\]"),
    (lambda: hir.HybridProgram("main", 2, (), (
        hir.BasicBlock("entry", (hir.Gate("cnot", ([0], 1)),), hir.Ret()),)),
     r"qubit \[0\] is not an int"),
    (lambda: _one_block((), (hir.Gate("h", (True,)),)),
     "qubit True is not an int"),
    (lambda: _one_block((), (), hir.Br(["e"])),
     r"branch to unknown label \['e'\]"),
    (lambda: _one_block((("x", "bit", 0),), ()), "is not a VarDecl"),
    (lambda: hir.HybridProgram("main", 0, (), (("entry", (), hir.Ret()),)),
     "is not a BasicBlock"),
    (lambda: _one_block((), ("h",)), "unknown instruction 'h'"),
    (lambda: _one_block((), (hir.Gate("h", 0),)),
     "Gate qubits 0 is not a sequence"),
    (lambda: hir.HybridProgram("main", 1, (), (
        hir.BasicBlock("e", 5, hir.Ret()),)),
     "BasicBlock instructions 5 is not a sequence"),
    (lambda: _one_block((), (), hir.Ret(5)), "Ret values 5 is not a sequence"),
    (lambda: _one_block((hir.VarDecl("d", "bit", 0),),
                        (hir.Measure(0, "d", 5),)),
     "Measure record 5 is not a sequence"),
    (lambda: _one_block((hir.VarDecl("a", "fixed", 0.0),),
                        (hir.Classical("add", "a", 5),)),
     "Classical srcs 5 is not a sequence"),
    (lambda: hir.HybridProgram("main", 1, 5, ()),
     "HybridProgram decls 5 is not a sequence"),
], ids=["gate-name-list", "classical-op-list", "gate-qubit-list",
        "gate-qubit-bool", "br-target-list", "decl-tuple", "block-tuple",
        "instruction-str", "gate-qubits-int", "block-instructions-int",
        "ret-values-int", "mz-record-int", "classical-srcs-int",
        "program-decls-int"])
def test_mistyped_fields_are_semantic_errors(make, message):
    with pytest.raises(SemanticError, match=message):
        make()


def test_operand_kinds():
    kinds = {"f": "fixed", "i": "int18", "c": "bit"}
    cases = [(("select", "f", ("c", 0.5, 1)), ("bit", "fixed", "fixed")),
             (("cmp_lt", "c", (1, "f")), ("fixed", "fixed")),
             (("cmp_eq", "c", (1, 2)), ("int18", "int18")),
             (("cmp_eq", "c", (1, 2.0)), ("fixed", "fixed")),
             (("div", "f", ("f", 1)), ("fixed", "fixed")),
             (("add", "i", ("i", 1)), ("int18", "int18"))]
    for (op, dest, srcs), want in cases:
        assert hir.operand_kinds(hir.Classical(op, dest, srcs), kinds) == want


def test_every_literal_angle_is_range_checked():
    prog = _one_block((), (hir.Gate("rz", (0,), 3),))
    diags = validate(prog, PERMISSIVE)
    assert [(d.code, d.message) for d in diags] == [(
        "literal-out-of-range",
        "literal 3.0 is outside the Q2.16 range [-2, 2 - 2**-16]")]
    assert _diagnostics(hir.parse(hir.emit(prog))) == _diagnostics(prog)
    with pytest.raises(OutOfRange):
        sim.compile_program(prog, sim.ExecConfig(
            classical_mode=sim.ClassicalMode.FIXED_POINT))


def test_real_mode_angle_that_overflows_radians_is_out_of_range():
    prog = _one_block((), (hir.Gate("rz", (0,), 1e308),))
    assert "literal-out-of-range" in [d.code for d in validate(prog, PERMISSIVE)]
    with pytest.raises(OutOfRange):
        sim.compile_program(prog, sim.ExecConfig())


def test_rwpe_params_accept_what_q216_loads():
    # Rounds to the largest word, so fixed-point execution loads it.
    params = RwpeParams(mu0=REAL_MAX + 2 ** -18)
    sim.compile_program(build_rwpe(params), sim.ExecConfig(
        classical_mode=sim.ClassicalMode.FIXED_POINT))
    for bad in (2.0, math.nan):
        with pytest.raises(ValueError, match="outside the Q2.16 range"):
            RwpeParams(mu0=bad)
