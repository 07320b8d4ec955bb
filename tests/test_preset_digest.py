"""``tools/preset_digest.py`` hashes what a run computed, and hashes it the
same way every time; and the 18 preset runs keep the final densities it
pinned in ``tests/data/preset_rho.json``.

The tool pins BLAS to one thread and puts the checkout's ``src/`` on
``sys.path`` when it is imported, so it is imported in a fresh interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_digest.py"
PINNED = json.loads((Path(__file__).parent / "data" / "preset_rho.json").read_text())["runs"]
# round-off bound on the final rho, relative to max |rho|: the largest
# reordering so far moved it by 1.1e-13 over 1e4 steps; scaling C and D by
# 1 + 1e-9 moves the diffusive runs by about 3e-11
RHO_ROUND_OFF = 1e-11

# loads the tool and makes a 2-step run on a 10 x 4 mesh
SMALL_RUN = """
import dataclasses, importlib.util, os, sys
spec = importlib.util.spec_from_file_location("preset_digest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
from ugks1d.scenarios import Scenario
small = Scenario(name="digest", operator="bgk", eta=1.0, epsilon=1.0, sigma=1.0, nx=10, nv=4,
                 dt=1e-3, t_snapshots=(1e-3, 2e-3), reference="transport")
"""
# twice with bgk and once with sc
SCRIPT = SMALL_RUN + """
for scenario in (small, small, dataclasses.replace(small, operator="sc")):
    print(tool.run_digest(scenario)[0])
"""


def test_digest_is_repeatable_and_tells_operators_apart():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(TOOL)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    first, second, other = done.stdout.split()
    assert len(first) == 64 and int(first, 16) >= 0
    assert first == second
    assert other != first


def test_state_digest_tells_a_state_change_from_a_reference_change():
    # without its reference the run writes other CSVs and rows, from the same state
    script = SMALL_RUN + """
for scenario in (small, dataclasses.replace(small, reference=None)):
    digest, result = tool.run_digest(scenario)
    print(digest, tool.state_digest(result))
"""
    done = subprocess.run(
        [sys.executable, "-c", script, str(TOOL)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    with_ref, with_ref_state, without, without_state = done.stdout.split()
    assert with_ref != without
    assert with_ref_state == without_state


@pytest.mark.parametrize("variant", ["explicit", "implicit"])
def test_preset_runs_keep_their_pinned_final_density(variant, request):
    fixture = "preset_runs" if variant == "explicit" else "implicit_preset_runs"
    runs = request.getfixturevalue(fixture)
    assert len(runs) == len(PINNED) // 2 == 9
    for (preset, operator), run in runs.items():
        pin = PINNED[f"{preset}-{operator}-{variant}"]
        rho, pinned = run.result.final.rho, np.array(pin["rho"])
        gap = np.abs(rho - pinned).max() / np.abs(pinned).max()
        assert gap <= RHO_ROUND_OFF, (preset, operator, gap)
        assert abs(run.result.mass_drift - pin["mass_drift"]) <= 1e-13, (preset, operator)
