"""Session-scoped caches for the expensive preset runs.

The full-resolution preset runs (N_x = N_v = 100, 10^4 steps) take a few
seconds each and several tests consume them, so they run once per
session.  Everything here is pure computation; no files are written.
"""

import dataclasses

import pytest

import ugks1d as u

PRESET_NAMES = ("transport", "intermediate", "diffusive")


def _preset_runs(variant):
    runs = {}
    for preset in PRESET_NAMES:
        for kind in u.OperatorKind:
            scenario = dataclasses.replace(u.PRESETS[preset], operator=kind, variant=variant)
            runs[preset, kind.value] = u.run_scenario(scenario)
    return runs


@pytest.fixture(scope="session")
def preset_runs():
    """{(preset, operator-value): ScenarioRun} for all nine combinations."""
    return _preset_runs(u.Variant.EXPLICIT_DIFFUSION)


@pytest.fixture(scope="session")
def implicit_preset_runs():
    """The same nine runs with the implicit-diffusion variant."""
    return _preset_runs(u.Variant.IMPLICIT_DIFFUSION)


@pytest.fixture(scope="session")
def diffusive_variant_gaps():
    """Explicit-vs-implicit density gap at t = 0.05 for dt and dt/2 (BGK)."""
    scenario = u.PRESETS["diffusive"]
    return (
        u.variant_gap(scenario, 1e-5, 0.05),
        u.variant_gap(scenario, 5e-6, 0.05),
    )
