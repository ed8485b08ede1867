"""Profile validation diagnostics."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridsim import hir
from hybridsim.algorithms import build_rwpe, build_teleport
from hybridsim.profiles import NATIVE, PERMISSIVE, Profile, validate


def test_rwpe_native_needs_lowering():
    diags = validate(build_rwpe(), NATIVE)
    codes = {d.code for d in diags}
    assert codes == {"gate-not-native"}
    assert any("crz" in d.message and "lowering" in d.message for d in diags)


def test_rwpe_permissive_clean():
    assert validate(build_rwpe(), PERMISSIVE) == []


def test_literal_out_of_range_diagnostic():
    prog = hir.parse("""proc main qubits 1
  var fixed a = 3.0
entry:
  rz(a) q0
  ret
endproc
""")
    diags = validate(prog, PERMISSIVE)
    assert [d.code for d in diags] == ["literal-out-of-range"]
    assert (diags[0].block, diags[0].line) == (None, 2)

    prog = hir.parse("""proc main qubits 1
entry:
  rz(3.0) q0
  ret
endproc
""")
    assert [d.code for d in validate(prog, PERMISSIVE)] == ["literal-out-of-range"]


def test_int_literal_out_of_range():
    prog = hir.parse("""proc main qubits 0
  var int18 i = 0
entry:
  add i, i, 200000
  ret
endproc
""")
    assert [d.code for d in validate(prog, PERMISSIVE)] == ["literal-out-of-range"]


def test_too_many_qubits():
    prog = hir.parse("proc main qubits 12\nentry:\n  ret\nendproc\n")
    assert any(d.code == "too-many-qubits" for d in validate(prog, NATIVE))
    assert validate(prog, PERMISSIVE) == []


def test_diagnostic_json_shape():
    diags = validate(build_rwpe(), NATIVE)
    obj = diags[0].to_json()
    blob = json.loads(json.dumps(obj))
    assert set(blob) == {"code", "message", "location"}
    assert set(blob["location"]) == {"proc", "block", "line"}


def test_empty_gate_set_rejected():
    with pytest.raises(ValueError):
        Profile(name="empty", gates=frozenset(), max_qubits=1)


@settings(max_examples=60, deadline=None)
@given(st.sets(st.sampled_from(sorted(PERMISSIVE.gates))),
       st.integers(min_value=1, max_value=20))
def test_validate_monotone_in_profile(gates, maxq):
    """Enlarging a profile never adds diagnostics."""
    small = Profile(name="small", gates=frozenset(gates) | {"h"},
                    max_qubits=maxq)
    big = Profile(name="big", gates=small.gates | PERMISSIVE.gates,
                  max_qubits=max(maxq, PERMISSIVE.max_qubits))
    for prog in (build_rwpe(), build_teleport()):
        n_small = len(validate(prog, small))
        n_big = len(validate(prog, big))
        assert n_big <= n_small
        assert n_big == 0
