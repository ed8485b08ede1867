"""Value guard for `bayes.refit`.

`golden/refit_estimates.json` holds the per-shot and pooled estimates of a
300-shot RWPE run in each classical mode, at fixed seeds, as computed by the
direct evaluation of every likelihood factor (one sine per grid node, as
`bayes.posterior` still does).  `refit` must reproduce them within 1e-10.
A change that alters refit estimates on purpose regenerates the file with

    PYTHONPATH=src python tests/test_refit_golden.py

and says so in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hybridsim import bayes, sim
from hybridsim.algorithms import build_rwpe
from hybridsim.sim import ClassicalMode, ExecConfig

GOLDEN = Path(__file__).parent / "golden" / "refit_estimates.json"
SHOTS = 300
SEEDS = {ClassicalMode.EXACT_REAL: 1201, ClassicalMode.FIXED_POINT: 1202}
TOLERANCE = 1e-10


def refit_estimates() -> dict[str, dict]:
    out = {}
    for mode, seed in SEEDS.items():
        records = sim.run_shots(build_rwpe(), ExecConfig(
            classical_mode=mode, seed=seed, shots=SHOTS))
        result = bayes.refit(records)
        out[mode.value] = {"seed": seed, "per_shot": list(result.per_shot),
                           "pooled": result.pooled}
    return out


@pytest.fixture(scope="module")
def estimates():
    return refit_estimates()


@pytest.mark.parametrize("mode", [m.value for m in SEEDS])
def test_refit_estimates_match_golden(estimates, mode):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[mode]
    got = estimates[mode]
    assert got["seed"] == golden["seed"]
    assert len(got["per_shot"]) == len(golden["per_shot"]) == SHOTS
    assert np.max(np.abs(np.subtract(got["per_shot"], golden["per_shot"]))) \
        <= TOLERANCE
    assert abs(got["pooled"] - golden["pooled"]) <= TOLERANCE


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(refit_estimates(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
