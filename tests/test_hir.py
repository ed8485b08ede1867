"""Parser, emitter, semantic checks, and control-flow graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim import hir
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.errors import IRSyntaxError, SemanticError

MINIMAL = """proc main qubits 0
entry:
  ret
endproc
"""


def test_empty_body_single_block_ret():
    prog = hir.parse(MINIMAL)
    assert len(prog.blocks) == 1
    assert prog.blocks[0].instructions == ()
    assert isinstance(prog.blocks[0].terminator, hir.Ret)


def test_parse_basic_program():
    prog = hir.parse("""
# teleport-ish snippet
proc main qubits 2
  var bit d = 0
  var fixed theta = 0.5
entry:
  h q0
  rz(theta) q0
  rz(-0.25) q0
  mz q0 -> d
  condbr d, one, zero
one:
  x q1
  br zero
zero:
  output d
  ret
endproc
""")
    assert [b.label for b in prog.blocks] == ["entry", "one", "zero"]
    gate = prog.blocks[0].instructions[1]
    assert gate == hir.Gate("rz", (0,), "theta")
    lit = prog.blocks[0].instructions[2]
    assert lit.angle == -0.25


def test_branch_to_unknown_label():
    with pytest.raises(SemanticError, match="unknown label"):
        hir.parse("proc main qubits 1\nentry:\n  br nowhere\nendproc\n")


def test_duplicate_label():
    with pytest.raises(SemanticError, match="duplicate label"):
        hir.parse("proc main qubits 0\na:\n  ret\na:\n  ret\nendproc\n")


def test_undeclared_variable():
    with pytest.raises(SemanticError, match="undeclared"):
        hir.parse("proc main qubits 0\na:\n  add y, y, 1\n  ret\nendproc\n")


def test_instruction_after_terminator():
    with pytest.raises(SemanticError, match="after terminator"):
        hir.parse("proc main qubits 1\na:\n  ret\n  h q0\nendproc\n")


def test_block_without_terminator():
    with pytest.raises(SemanticError, match="no terminator"):
        hir.parse("proc main qubits 1\na:\n  h q0\nb:\n  ret\nendproc\n")


def test_kind_mismatch():
    with pytest.raises(SemanticError):
        hir.parse("proc main qubits 0\n  var int18 i = 0\n"
                  "a:\n  add i, i, 0.5\n  ret\nendproc\n")
    with pytest.raises(SemanticError):
        hir.parse("proc main qubits 0\n  var bit b = 0\n"
                  "a:\n  recip b, b\n  ret\nendproc\n")


def test_qubit_out_of_range():
    with pytest.raises(SemanticError, match="out of range"):
        hir.parse("proc main qubits 1\na:\n  h q3\n  ret\nendproc\n")


@pytest.mark.parametrize("blocks, message", [
    ((hir.BasicBlock("entry", (), hir.Br("nowhere")),),
     "branch to unknown label 'nowhere'"),
    ((), "procedure 'main' has no blocks"),
], ids=["unknown-label", "no-blocks"])
def test_invalid_program_cannot_be_built(blocks, message):
    # A program is checked when it is built, not when it is compiled.
    with pytest.raises(SemanticError, match=message):
        hir.HybridProgram("main", 1, (), blocks)


def test_built_program_cannot_change():
    # Lists are stored as tuples: appending an unchecked block, which once
    # let a branch to an unknown label reach the engine, is impossible.
    block = hir.BasicBlock("entry", [hir.Gate("h", [0]),
                                     hir.Classical("add", "acc", ["acc", 1.0])],
                           hir.Ret(["acc"]))
    prog = hir.HybridProgram("main", 1, [hir.VarDecl("acc", "fixed", 0.0)],
                             [block])
    with pytest.raises(AttributeError):
        prog.blocks.append(hir.BasicBlock("next", (), hir.Br("nowhere")))
    for seq in (prog.decls, prog.blocks, block.instructions,
                block.terminator.values, block.instructions[0].qubits,
                block.instructions[1].srcs):
        assert type(seq) is tuple
    assert hash(prog) == hash(hir.parse(hir.emit(prog)))


def test_second_procedure_is_a_syntax_error():
    with pytest.raises(IRSyntaxError) as e:
        hir.parse(MINIMAL + "\nproc other qubits 99\nentry:\n  ret\nendproc\n")
    assert e.value.line == 6
    with pytest.raises(IRSyntaxError, match="after endproc"):
        hir.parse(MINIMAL + "  h q0\n")


def test_syntax_error_carries_line():
    try:
        hir.parse("proc main qubits 1\nentry:\n  frobnicate q0\n  ret\nendproc\n")
    except IRSyntaxError as e:
        assert e.line == 3
    else:
        pytest.fail("expected IRSyntaxError")


def test_emit_deterministic_and_single_line():
    prog = hir.parse("proc main qubits 1\nentry:\n  h q0\n  ret\nendproc\n")
    text1, text2 = hir.emit(prog), hir.emit(prog)
    assert text1 == text2
    body = [l for l in text1.splitlines()
            if l.startswith("  ") and not l.lstrip().startswith(("var", "ret"))]
    assert body == ["  h q0"]


@pytest.mark.parametrize("builder", [build_rwpe, build_active_reset,
                                     build_teleport,
                                     lambda: build_ipe_program(0.3, 1.7)])
def test_roundtrip_builders(builder):
    prog = builder()
    assert hir.parse(hir.emit(prog)) == prog


# -- random program generator for the round-trip property ---------------------

_NAMES = ["a", "b", "c", "v0", "v1", "loop_x", "tmp_"]


@st.composite
def programs(draw):
    nqubits = draw(st.integers(min_value=1, max_value=3))
    kinds = draw(st.lists(st.sampled_from(hir.KINDS), min_size=1, max_size=5))
    decls = []
    for i, kind in enumerate(kinds):
        init = {"bit": draw(st.integers(0, 1)),
                "int18": draw(st.integers(-100, 100)),
                "fixed": draw(st.floats(-1.9, 1.9, allow_nan=False))}[kind]
        decls.append(hir.VarDecl(_NAMES[i], kind, init))
    byk = {k: [d.name for d in decls if d.kind == k] for k in hir.KINDS}
    nblocks = draw(st.integers(min_value=1, max_value=4))
    labels = [f"blk{i}" for i in range(nblocks)]

    def gen_instr():
        choices = ["gate", "output"]
        if byk["fixed"]:
            choices += ["arith", "angle_gate", "div"]
        if byk["int18"]:
            choices.append("iarith")
        if byk["bit"]:
            choices.append("cmp")
        kind = draw(st.sampled_from(choices))
        q = draw(st.integers(0, nqubits - 1))
        if kind == "gate":
            return hir.Gate(draw(st.sampled_from(["h", "x", "sx"])), (q,))
        if kind == "angle_gate":
            var = draw(st.sampled_from(byk["fixed"]))
            return hir.Gate("rz", (q,), var)
        if kind == "arith":
            d = draw(st.sampled_from(byk["fixed"]))
            s = draw(st.sampled_from(byk["fixed"]))
            return hir.Classical(draw(st.sampled_from(["add", "sub", "mul"])),
                                 d, (s, draw(st.floats(-1.5, 1.5, allow_nan=False))))
        if kind == "div":
            d = draw(st.sampled_from(byk["fixed"]))
            s = draw(st.sampled_from(byk["fixed"]))
            op = draw(st.sampled_from(["div", "recip", "neg", "select"]))
            if op == "div":
                return hir.Classical("div", d, (s, 1.0))
            if op in ("recip", "neg"):
                return hir.Classical(op, d, (s,))
            if byk["bit"]:
                cond = draw(st.sampled_from(byk["bit"]))
                return hir.Classical("select", d, (cond, s, 0.25))
            return hir.Classical("neg", d, (s,))
        if kind == "iarith":
            d = draw(st.sampled_from(byk["int18"]))
            return hir.Classical("add", d, (d, draw(st.integers(-5, 5))))
        if kind == "cmp":
            d = draw(st.sampled_from(byk["bit"]))
            s = draw(st.sampled_from(byk["fixed"] + byk["int18"] + byk["bit"]))
            return hir.Classical("cmp_eq", d, (s, s))
        return hir.Output(draw(st.sampled_from([d.name for d in decls])))

    blocks = []
    for i, label in enumerate(labels):
        instrs = tuple(gen_instr()
                       for _ in range(draw(st.integers(0, 4))))
        if i + 1 < nblocks and byk["bit"] and draw(st.booleans()):
            term = hir.CondBr(draw(st.sampled_from(byk["bit"])),
                              draw(st.sampled_from(labels)),
                              draw(st.sampled_from(labels)))
        elif i + 1 < nblocks:
            term = hir.Br(labels[i + 1])
        else:
            term = hir.Ret(tuple(draw(st.sampled_from([[], [decls[0].name]]))))
        blocks.append(hir.BasicBlock(label, instrs, term))
    return hir.HybridProgram("main", nqubits, tuple(decls), tuple(blocks))


@settings(max_examples=150, deadline=None)
@given(programs())
def test_roundtrip_random_programs(prog):
    assert hir.parse(hir.emit(prog)) == prog


def test_cfg_straight_line_path():
    prog = hir.parse("""proc main qubits 1
a:
  h q0
  br b
b:
  br c
c:
  ret
endproc
""")
    g = hir.cfg(prog)
    assert g.entry == "a"
    assert g.successors == {"a": ("b",), "b": ("c",), "c": ()}


def test_cfg_teleport_reconvergent_branches():
    g = hir.cfg(build_teleport())
    assert g.entry == "entry"
    assert set(g.successors["entry"]) == {"fix_x", "check_z"}
    assert g.successors["fix_x"] == ("check_z",)   # both arms reconverge
    assert set(g.successors["check_z"]) == {"fix_z", "done"}
    assert g.successors["fix_z"] == ("done",)


def test_cfg_rwpe_loop_backedge():
    g = hir.cfg(build_rwpe())
    assert "head" in g.successors["tail"]          # loop back-edge
    assert set(g.successors["head"]) == {"refresh_check", "done"}


def test_cfg_dot_export():
    dot = hir.cfg(build_active_reset()).to_dot()
    assert dot.startswith("digraph")
    assert '"head" -> "body"' in dot


@pytest.mark.parametrize("name,builder", [
    ("rwpe", build_rwpe),
    ("teleport", build_teleport),
    ("active_reset", build_active_reset),
])
def test_golden_ir_text(name, builder):
    """Canonical emission is frozen; builder changes must update goldens."""
    from pathlib import Path
    golden = Path(__file__).parent / "golden" / f"{name}.hir"
    assert hir.emit(builder()) == golden.read_text(encoding="utf-8")


def test_golden_lowered_rwpe():
    from pathlib import Path
    from hybridsim.lowering import lower_to_native
    from hybridsim.profiles import NATIVE
    golden = Path(__file__).parent / "golden" / "rwpe_native.hir"
    lowered = lower_to_native(build_rwpe(), NATIVE)
    assert hir.emit(lowered) == golden.read_text(encoding="utf-8")
    assert hir.parse(golden.read_text(encoding="utf-8")) == lowered


def test_param_is_a_syntax_error():
    with pytest.raises(IRSyntaxError):
        hir.parse("proc main qubits 0\n  param fixed w\na:\n  output w\n"
                  "  ret\nendproc\n")


# -- every error the parser and the program check raise names its line -------

def _prog(body: str, decls: str = "  var bit d = 0") -> str:
    """A 2-qubit program: `decls` from line 2, then `entry:` and `body`
    (from line 4 when `decls` is one line)."""
    return f"proc main qubits 2\n{decls}\nentry:\n{body}\n  ret\nendproc\n"


@pytest.mark.parametrize("text, message, line", [
    ("proc a qubits 1\nproc b qubits 1\n", "nested proc (missing endproc?)", 2),
    ("proc main qubit 1\n", "expected: proc NAME qubits N", 1),
    ("entry:\n  ret\n", "text outside any procedure", 1),
    ("proc main qubits 0\nentry:\n  ret\nendproc main\n",
     "endproc takes nothing", 4),
    (_prog("  var bit e = 0"), "var declaration after first block", 4),
    (_prog("", "  var float x = 0"), "expected: var KIND NAME [= LITERAL]", 2),
    ("proc main qubits 0\nentry:\n  ret\n", "missing endproc", 3),
    ("# nothing here\n", "no procedure", 1),
    (_prog("  rz q0"), "rz requires a parenthesized angle", 4),
    (_prog("  mz q0 d"), "expected: mz qN -> var [record(t, phi)]", 4),
    (_prog("  active_reset q0"), "active_reset takes no operands", 4),
    (_prog("  add d, d"), "add takes 3 operands", 4),
    (_prog("  condbr d, entry"), "condbr takes: cond, then_label, else_label", 4),
    (_prog("  add d, d, 1x"), "bad operand '1x'", 4),
    (_prog("  h x0"), "expected a qubit (q0, q1, ...), got 'x0'", 4),
], ids=["nested-proc", "proc-header", "outside-procedure", "endproc-operand",
        "late-var", "var-syntax", "missing-endproc", "no-procedure",
        "angle-unparenthesized", "mz-syntax", "active-reset-operand",
        "operand-count", "condbr-operands", "bad-operand", "bad-qubit"])
def test_syntax_errors_name_their_line(text, message, line):
    with pytest.raises(IRSyntaxError) as e:
        hir.parse(text)
    assert type(e.value) is IRSyntaxError
    assert str(e.value) == f"line {line}, col 1: {message}"
    assert e.value.line == line


def _built(instrs=(), decls=(hir.VarDecl("d", "bit", 0, line=2),),
           qubits=2, term=hir.Ret()):
    return lambda: hir.HybridProgram(
        "main", qubits, decls, (hir.BasicBlock("entry", instrs, term),))


@pytest.mark.parametrize("make, message, line", [
    (lambda: hir.parse(_prog("  add a, a, q0",
                             "  var bit d = 0\n  var int18 a = 0")),
     "qubit q0 cannot be a classical operand", 5),
    (lambda: hir.parse(_prog("  h q0, q1")), "h takes 1 qubit(s)", 4),
    (_built((hir.Gate("rz", (0,), line=7),)), "rz requires an angle", 7),
    (_built((hir.Gate("x", (0,), 0.5, line=7),)), "x takes no angle", 7),
    (_built((hir.Measure(0, "d", ("d",), line=7),)),
     "mz record takes two variables", 7),
    (_built((hir.Classical("neg", "d", ("d", "d"), line=7),)),
     "neg takes 1 source operand(s)", 7),
    (lambda: hir.parse(_prog("  add d, d, d")),
     "add cannot target a bit variable", 4),
    (lambda: hir.parse(_prog("  cmp_eq a, a, a",
                             "  var bit d = 0\n  var int18 a = 0")),
     "cmp_eq targets a bit variable", 5),
    (_built(qubits=-1), "procedure 'main': bad qubit count -1", None),
    (_built(decls=(hir.VarDecl("x", "float", 0, line=2),)),
     "unknown kind 'float' for var 'x'", 2),
    (lambda: hir.parse(_prog("", "  var bit d = 0\n  var bit d = 1")),
     "duplicate declaration of 'd'", 3),
    (_built(term=hir.Output("d")), "block 'entry' has no valid terminator",
     None),
], ids=["qubit-operand", "gate-arity", "angle-missing", "angle-extra",
        "record-arity", "source-count", "bit-target", "compare-target",
        "qubit-count",
        "unknown-kind", "duplicate-declaration", "no-terminator"])
def test_semantic_errors_name_their_line(make, message, line):
    with pytest.raises(SemanticError) as e:
        make()
    assert type(e.value) is SemanticError
    assert str(e.value) == (message if line is None
                            else f"line {line}: {message}")
    assert e.value.line == line
