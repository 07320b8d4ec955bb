"""``tools/preset_digest.py`` hashes what a run computed, and hashes it the
same way every time.

The tool pins BLAS to one thread and puts the checkout's ``src/`` on
``sys.path`` when it is imported, so it is imported in a fresh interpreter.
"""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "preset_digest.py"

# a 2-step run on a 10 x 4 mesh, twice with bgk and once with sc
SCRIPT = """
import dataclasses, importlib.util, os, sys
spec = importlib.util.spec_from_file_location("preset_digest", sys.argv[1])
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
from ugks1d.scenarios import Scenario
small = Scenario(name="digest", operator="bgk", eta=1.0, epsilon=1.0, sigma=1.0, nx=10, nv=4,
                 dt=1e-3, t_snapshots=(1e-3, 2e-3), reference="transport")
for scenario in (small, small, dataclasses.replace(small, operator="sc")):
    print(tool.run_digest(scenario))
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
