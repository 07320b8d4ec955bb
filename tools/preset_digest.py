"""Print a SHA-256 digest of every preset run, to check that a change keeps
the numbers bitwise.

For each preset, operator and stepping variant (3 x 3 x 2 = 18 runs) the
script runs ``run_and_report`` once, into a temporary directory, and prints
one line: the run's name and a SHA-256 over the snapshot CSV bytes, the report
rows, and the ``mass_drift`` and the bytes of the final f and rho of the run
the report holds.  The ms/step timing is left out.  The last line is a
SHA-256 over all the lines above it.

BLAS is pinned to one thread before numpy loads, so a product sums in one
order whatever the host, and the package is imported from the ``src/`` of
this checkout.  Run it at two commits and compare the output:

    python3 tools/preset_digest.py > digest.txt
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from ugks1d.scenarios import PRESETS, run_and_report  # noqa: E402
from ugks1d.scheme import Variant  # noqa: E402
from ugks1d.velocity_space import OperatorKind  # noqa: E402


def run_digest(scenario) -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out_dir:
        report = run_and_report(scenario, out_dir)
        for path in report.files:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    for row in report.rows:
        digest.update(repr(dataclasses.astuple(row)).encode())
    result = report.run.result
    digest.update(repr(result.mass_drift).encode())
    digest.update(np.ascontiguousarray(result.final.f).tobytes())
    digest.update(np.ascontiguousarray(result.final.rho).tobytes())
    return digest.hexdigest()


def main() -> None:
    lines = []
    for preset in PRESETS.values():
        for operator in OperatorKind:
            for variant in Variant:
                scenario = dataclasses.replace(preset, operator=operator, variant=variant)
                name = f"{preset.name}-{operator.value}-{variant.value}"
                lines.append(f"{name} {run_digest(scenario)}")
                print(lines[-1], flush=True)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")


if __name__ == "__main__":
    main()
