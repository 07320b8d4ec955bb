"""The package's runtime reaches scipy only through ``scipy.linalg``, and its
velocity-space layer not at all.

The runtime check runs in a fresh interpreter: the test process itself has
loaded other scipy subpackages (the oracles import ``scipy.integrate``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from ugks1d import velocity_space

SRC = Path(__file__).resolve().parents[1] / "src"

# a small diffusive sc run (heat-kernel reference), a small transport bgk run
# (transport reference) and validate-operator (structural checks)
SCRIPT = """
import contextlib, dataclasses, io, sys, tempfile
import ugks1d
from ugks1d import cli, scenarios
from ugks1d.velocity_space import OperatorKind

with tempfile.TemporaryDirectory() as out:
    diffusive = dataclasses.replace(
        scenarios.PRESETS["diffusive"], operator=OperatorKind.SCATTERING_PERIODIC,
        nx=20, nv=10, t_snapshots=(1e-4,),
    )
    assert len(scenarios.run_and_report(diffusive, out).files) == 1
    transport = dataclasses.replace(scenarios.PRESETS["transport"], nx=20, nv=10, t_snapshots=(1e-3,))
    assert len(scenarios.run_and_report(transport, out).files) == 1
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["validate-operator", "--operator", "sc", "--nv", "10"]) == 0
print("\\n".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def _allowed(name: str) -> bool:
    return (
        name in ("scipy", "scipy.linalg", "scipy.__config__", "scipy.version")
        or name.startswith(("scipy.linalg.", "scipy._"))
    )


def test_runs_load_no_scipy_subpackage_but_linalg():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "scipy.linalg" in loaded
    assert [name for name in loaded if not _allowed(name)] == []


def test_velocity_space_imports_only_the_standard_library_and_numpy():
    # the builders write U and lambda_star in closed form, so the layer solves nothing
    tree = ast.parse((SRC / "ugks1d" / "velocity_space.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert {name for name in imported if name.split(".")[0] not in sys.stdlib_module_names} == {
        "numpy", ".errors"}
    for builder in (velocity_space.build_bgk, velocity_space.build_fokker_planck,
                    velocity_space.build_scattering):
        for half in (2, 50, 400):
            op = builder(velocity_space.build_grid(half))
            assert velocity_space.operator_contract(
                op.matrix, op.grid.velocities, op.u_vector, op.lambda_star
            ).passed
