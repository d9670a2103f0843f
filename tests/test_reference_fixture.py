"""The committed reference fixture matches what its build script computes today."""

import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_reference_fixture.py"


@pytest.fixture(scope="module")
def rebuilt():
    """The law, metadata and manifest ``scripts/build_reference_fixture.py`` computes; nothing is written."""
    return runpy.run_path(str(SCRIPT), run_name="build_reference_fixture")["build"]()


def test_committed_manifest_matches_the_build_script(rebuilt, ref_manifest):
    _, _, manifest = rebuilt
    assert manifest["law_fingerprint"] == ref_manifest["law_fingerprint"]
    assert manifest["sigma2"] == pytest.approx(ref_manifest["sigma2"], rel=ref_manifest["sigma2_rel_tolerance"])
    assert manifest["A"] == pytest.approx(ref_manifest["A"], abs=ref_manifest["A_tolerance"])
    assert manifest["gamma_after_calibration"] == pytest.approx(
        ref_manifest["gamma_after_calibration"], abs=ref_manifest["gamma_tolerance"]
    )
    # the same estimator on the same seed: only floating-point noise may differ
    pin = ref_manifest["V"]
    assert manifest["V"]["value"] == pytest.approx(pin["value"], abs=1e-3 * pin["stderr"])
