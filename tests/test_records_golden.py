"""Byte-identity guard for shot records.

`golden/records.sha256.json` holds the SHA-256 of the JSONL for the first
100 shots of each reference program (RWPE and IPE also lowered to the
NATIVE profile), in both classical modes, with and without the default
noise model, at fixed seeds.  Any change to the engine that alters a
single byte of a record fails here.  A change
that alters records on purpose regenerates the file with

    PYTHONPATH=src python tests/test_records_golden.py

and says so in CHANGES.md.
"""

import hashlib
import io
import json
from pathlib import Path

from hybridsim import profiles, sim
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.lowering import lower_to_native
from hybridsim.sim import ClassicalMode, ExecConfig, NoiseModel

GOLDEN = Path(__file__).parent / "golden" / "records.sha256.json"
SHOTS = 100

PROGRAMS = {
    "rwpe": (build_rwpe, 2024),
    "active_reset": (build_active_reset, 7),
    "teleport": (build_teleport, 31),
    "ipe": (lambda: build_ipe_program(0.3, 1.25), 99),
    # Lowered to NATIVE, so `sx` and `eswap` reach a golden too.
    "rwpe_native": (lambda: lower_to_native(build_rwpe(), profiles.NATIVE), 2025),
    "ipe_native": (lambda: lower_to_native(build_ipe_program(-0.4, 1.7, 0.9),
                                           profiles.NATIVE), 101),
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
