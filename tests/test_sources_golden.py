"""Byte-identity guard for generated sources.

`golden/sources.sha256.json` holds the SHA-256 of the source
`codegen.Generator` writes for each shipped program (RWPE and IPE also
lowered to the NATIVE profile), in both classical modes, with and without
noise.  A change to the engine that must not alter the generated code
passes here unchanged.  A change that alters it on purpose regenerates the
file with

    PYTHONPATH=src python tests/test_sources_golden.py

and says so in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

from hybridsim import profiles, sim
from hybridsim.algorithms import (build_active_reset, build_ipe_program,
                                  build_rwpe, build_teleport)
from hybridsim.codegen import Generator
from hybridsim.lowering import lower_to_native
from hybridsim.sim import ClassicalMode

GOLDEN = Path(__file__).parent / "golden" / "sources.sha256.json"

PROGRAMS = {
    "rwpe": build_rwpe,
    "ipe": lambda: build_ipe_program(0.3, 1.25),
    "active_reset": build_active_reset,
    "active_reset6": lambda: build_active_reset(6),
    "teleport": build_teleport,
    "rwpe_native": lambda: lower_to_native(build_rwpe(), profiles.NATIVE),
    "ipe_native": lambda: lower_to_native(build_ipe_program(-0.4, 1.7, 0.9),
                                          profiles.NATIVE),
}


def golden_sources():
    """(key, source) of each golden configuration."""
    for name, build in PROGRAMS.items():
        prog = build()
        for mode in ClassicalMode:
            domain = sim.select_domain(mode)
            for noise_name, noisy in (("ideal", False), ("noise", True)):
                yield (f"{name}/{mode.value}/{noise_name}",
                       Generator(prog, domain, noisy).source)


def source_digests() -> dict[str, str]:
    return {key: hashlib.sha256(source.encode()).hexdigest()
            for key, source in golden_sources()}


def test_sources_byte_identical_to_golden():
    assert source_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_no_golden_source_has_a_blank_line():
    # A kernel that touches no reachable state and draws nothing gets no
    # line at all, in either form.
    for key, source in golden_sources():
        assert [line for line in source.splitlines() if not line.strip()] == [], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(source_digests(), indent=2, sort_keys=True)
                      + "\n", encoding="utf-8")
