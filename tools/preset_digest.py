"""Print a SHA-256 digest of every preset run, to check that a change keeps
the numbers bitwise; with ``--write``, also pin their final densities.

For each preset, operator and stepping variant (3 x 3 x 2 = 18 runs) the
script runs ``run_and_report`` once, into a temporary directory, and prints
one line: the run's name, a SHA-256 over the snapshot CSV bytes, the report
rows, and the ``mass_drift`` and the bytes of the final f and rho of the run
the report holds, and a second SHA-256 over the ``mass_drift``, f and rho
alone.  A change to the reference columns or the row labels moves only the
first; a change to what the solver computed moves both.  The ms/step timing
is left out.  The last line is a SHA-256 over all the lines above it.

BLAS is pinned to one thread before numpy loads, so a product sums in one
order whatever the host, and the package is imported from the ``src/`` of
this checkout.  Run it at two commits and compare the output:

    python3 tools/preset_digest.py > digest.txt

``--write`` also writes ``tests/data/preset_rho.json``: each run's final rho
and ``mass_drift``, and the commit of the ``src/`` that computed them (with
"-dirty" when ``src/`` differs from it).  A tier-1 test holds every later
run to it within round-off; a change that moves the numbers on purpose
rewrites it:

    python3 tools/preset_digest.py --write
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "tests" / "data" / "preset_rho.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ugks1d.scenarios import PRESETS, run_and_report  # noqa: E402
from ugks1d.scheme import Variant  # noqa: E402
from ugks1d.velocity_space import OperatorKind  # noqa: E402


def _final_state(result):
    """The ``mass_drift`` and the bytes of the final f and rho of a ``RunResult``."""
    return (
        repr(result.mass_drift).encode(),
        np.ascontiguousarray(result.final.f).tobytes(),
        np.ascontiguousarray(result.final.rho).tobytes(),
    )


def state_digest(result):
    """SHA-256 over the run's final state alone, without the CSVs and rows."""
    return hashlib.sha256(b"".join(_final_state(result))).hexdigest()


def run_digest(scenario):
    """The run's digest, and its ``RunResult``."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as out_dir:
        report = run_and_report(scenario, out_dir)
        for path in report.files:
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    for row in report.rows:
        digest.update(repr(dataclasses.astuple(row)).encode())
    result = report.run.result
    for part in _final_state(result):
        digest.update(part)
    return digest.hexdigest(), result


def _src_commit() -> str:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip()

    dirty = git("status", "--porcelain", "--", "src")
    return git("rev-parse", "HEAD") + ("-dirty" if dirty else "")


def main(argv: list[str]) -> None:
    if argv not in ([], ["--write"]):
        sys.exit("usage: preset_digest.py [--write]")
    lines, pins = [], {}
    for preset in PRESETS.values():
        for operator in OperatorKind:
            for variant in Variant:
                scenario = dataclasses.replace(preset, operator=operator, variant=variant)
                name = f"{preset.name}-{operator.value}-{variant.value}"
                digest, result = run_digest(scenario)
                pins[name] = {"rho": result.final.rho.tolist(), "mass_drift": result.mass_drift}
                lines.append(f"{name} {digest} {state_digest(result)}")
                print(lines[-1], flush=True)
    print(f"all {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}")
    if argv:
        # one line per run, so a rewrite diffs run by run
        runs = ",\n".join(f"  {json.dumps(name)}: {json.dumps(pin)}" for name, pin in pins.items())
        PINNED.parent.mkdir(exist_ok=True)
        PINNED.write_text(f'{{"commit": {json.dumps(_src_commit())}, "runs": {{\n{runs}\n}}}}\n')
        print(f"wrote {PINNED}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
