"""Byte-identity guard for shot records.

`golden/records.sha256.json` holds the SHA-256 of the JSONL for the first
100 shots of each reference program (RWPE and IPE also lowered to the
NATIVE profile), in both classical modes, with and without the default
noise model, at fixed seeds.  Two of them, `active_reset6` and `wide`, have
more qubits than the engine unrolls (`codegen.UNROLL_QUBITS`), so both
kernel forms are guarded.  Any change to the engine that alters a
single byte of a record fails here.  A change
that alters records on purpose regenerates the file with

    PYTHONPATH=src python tests/test_records_golden.py

and says so in CHANGES.md.
"""

import hashlib
import io
import json
from pathlib import Path

from hybridsim import hir, profiles, sim
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.lowering import lower_to_native
from hybridsim.sim import ClassicalMode, ExecConfig, NoiseModel

GOLDEN = Path(__file__).parent / "golden" / "records.sha256.json"
SHOTS = 100

# Six qubits: every gate kind, a literal and a register angle on the
# controlled rotation, a recorded measurement and a data-dependent branch.
WIDE = """proc wide qubits 6
  var fixed th = 0.375
  var fixed half = 0.0
  var bit m0 = 0
  var bit m1 = 0
entry:
  h q0
  cnot q0, q1
  cnot q1, q2
  h q3
  crz(th) q3, q4
  crz(-0.5) q2, q5
  x q4
  sx q1
  rz(th) q2
  eswap(0.25) q0, q5
  mul half, th, 0.5
  mz q0 -> m0 record(th, half)
  condbr m0, flip, keep
flip:
  add th, th, 0.125
  crz(th) q1, q2
  eswap(half) q3, q4
  br done
keep:
  h q2
  reset q3
  br done
done:
  mz q2 -> m1
  mz q5 -> m0
  output th
  ret m0, m1
endproc
"""

PROGRAMS = {
    "rwpe": (build_rwpe, 2024),
    "active_reset": (build_active_reset, 7),
    "teleport": (build_teleport, 31),
    "ipe": (lambda: build_ipe_program(0.3, 1.25), 99),
    # Lowered to NATIVE, so `sx` and `eswap` reach a golden too.
    "rwpe_native": (lambda: lower_to_native(build_rwpe(), profiles.NATIVE), 2025),
    "ipe_native": (lambda: lower_to_native(build_ipe_program(-0.4, 1.7, 0.9),
                                           profiles.NATIVE), 101),
    "active_reset6": (lambda: build_active_reset(6), 11),
    "wide": (lambda: hir.parse(WIDE), 13),
}


def record_digests() -> dict[str, str]:
    out = {}
    for name, (build, seed) in PROGRAMS.items():
        prog = build()
        for mode in ClassicalMode:
            for noise_name, noise in (("ideal", None), ("noise", NoiseModel())):
                cfg = ExecConfig(classical_mode=mode, noise=noise, seed=seed,
                                 shots=SHOTS)
                buf = io.StringIO()
                sim.write_records(sim.run_shots(prog, cfg), buf)
                key = f"{name}/{mode.value}/{noise_name}"
                out[key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return out


def test_records_byte_identical_to_golden():
    assert record_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_digests(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
