"""Regenerate the packaged reference fixture.

Starts from a hand-picked pair of interior atoms, removes the drift by
rescaling (calibration at grid resolution 512), then measures and pins the
spectral and Monte Carlo quantities that the test suite checks against.

Run from the repository root:

    python scripts/build_reference_fixture.py

Overwrites src/conefluct/fixtures/reference_law.json and
src/conefluct/fixtures/reference_manifest.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from conefluct import (
    MatrixLaw,
    SimplexGrid,
    SimplexVector,
    calibrate,
    contraction_coeff,
    convolution_contraction,
    dominant_eigenvalue,
    estimate_V,
    lyapunov_exact,
    solve_poisson,
    stationary_measure,
)
from conefluct.cli import law_fingerprint, save_law

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "conefluct" / "fixtures"

BASE_ENTRIES = [
    [[3.0, 2.0], [2.0, 4.0]],
    [[1.0, 2.0], [1.0, 1.0]],
]
WEIGHTS = [0.5, 0.5]
GRID_RESOLUTION = 512
A_START = 1.0
V_SCHEDULE = [16, 32, 64, 128, 256, 512, 1024]
V_PATHS = 200_000
V_SEED = 20240901


def main() -> None:
    base = MatrixLaw.from_entries(
        [np.array(m) for m in BASE_ENTRIES], np.array(WEIGHTS)
    )
    grid = SimplexGrid(GRID_RESOLUTION)

    nu_base = stationary_measure(base, grid)
    gamma_base = lyapunov_exact(base, nu_base)
    law = calibrate(base, gamma_base)

    nu = stationary_measure(law, grid)
    gamma_after = lyapunov_exact(law, nu)
    poisson = solve_poisson(law, nu)
    sigma2 = poisson.sigma2
    # pins for dominant_eigenvalue at h = sigma2_h
    h = 0.05
    lam_h, kappa_power = dominant_eigenvalue(law, grid, h)

    conv = {n: convolution_contraction(law, n) for n in range(1, 7)}
    atom_contractions = [contraction_coeff(g) for g in law.atoms]

    x0 = SimplexVector.barycenter(2)
    v_est = estimate_V(law, x0, A_START, V_SCHEDULE, V_PATHS, V_SEED, poisson=poisson)

    metadata = {
        "description": (
            "Two interior 2x2 atoms with equal weights, rescaled so the top "
            "Lyapunov exponent vanishes (centered case). Base entries and the "
            "removed drift are recorded in the reference manifest."
        ),
        "base_entries": BASE_ENTRIES,
        "base_weights": WEIGHTS,
        "calibration": {
            "gamma_removed": gamma_base,
            "scale_factor": math.exp(-gamma_base),
            "grid_resolution": GRID_RESOLUTION,
        },
    }
    save_law(law, FIXTURE_DIR / "reference_law.json", metadata=metadata)

    manifest = {
        "law_fingerprint": law_fingerprint(law),
        "grid_resolution": GRID_RESOLUTION,
        "gamma_base": gamma_base,
        "gamma_after_calibration": gamma_after,
        "gamma_tolerance": 1e-6,
        "sigma2": sigma2,
        "sigma2_h": h,
        "sigma2_rel_tolerance": 1e-3,
        "kappa_power": kappa_power,
        "lambda_h": {"re": lam_h.real, "im": lam_h.imag},
        "A": poisson.A,
        "A_tolerance": 1e-6,
        "poisson_truncation_n": poisson.truncation_n,
        "poisson_residual": poisson.residual,
        "poisson_dense_gap": poisson.dense_gap,
        "poisson_interp_slack": poisson.interp_slack,
        "atom_contractions": atom_contractions,
        "convolution_contraction": {str(n): conv[n] for n in sorted(conv)},
        "V": {
            "x": "barycenter",
            "a": A_START,
            "n_schedule": V_SCHEDULE,
            "paths": V_PATHS,
            "seed": V_SEED,
            "value": v_est.V_hat,
            "stderr": v_est.V_stderr,
            "plateau_n": v_est.plateau_n,
            "tolerance_stderrs": 4.0,
        },
    }
    (FIXTURE_DIR / "reference_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    print(f"gamma_base           = {gamma_base!r}")
    print(f"gamma_after          = {gamma_after!r}")
    print(f"sigma2               = {sigma2!r}")
    print(f"A                    = {poisson.A!r}")
    print(f"kappa_power          = {kappa_power!r}")
    print(f"V_hat({A_START})     = {v_est.V_hat!r} +- {v_est.V_stderr!r} (plateau n={v_est.plateau_n})")
    print(f"conv contraction     = {[round(conv[n], 6) for n in sorted(conv)]}")
    print(f"fingerprint          = {law_fingerprint(law)}")


if __name__ == "__main__":
    main()
