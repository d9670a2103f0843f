"""Acceptance suite: one test per headline capability, at full stated budgets.

Each test prints a single PASS line with the measured numbers (visible with
``pytest -s`` or in the captured output); the pytest verdict line itself is
the pass/fail record.  Budgets and tolerances are fixed here on purpose —
they are the contract, not tuning knobs.
"""

import json
import math
import time

import numpy as np
import pytest

from conefluct import (
    GridFunction,
    MatrixLaw,
    SimplexGrid,
    act,
    apply_P,
    bm_corridor,
    bm_survival,
    conditional_endpoint_samples,
    contraction_coeff,
    covariance_decay,
    estimate_V,
    hennion_distance,
    martingale_guards,
    mc_sigma2,
    random_simplex_point,
    rayleigh_cdf,
    solve_poisson,
    stationary_measure,
    survival_probability,
    validate_conditional_law,
    validate_exit_asymptotics,
    check_V_properties,
)
from conefluct.cli import main as cli_main
from conftest import scalar_law
from oracles import enumerate_walk, quad_corridor, quad_survival

GRID_RESOLUTION = 512


@pytest.fixture(scope="module")
def grid():
    return SimplexGrid(GRID_RESOLUTION)


@pytest.fixture(scope="module")
def ref_nu(ref_law, grid):
    return stationary_measure(ref_law, grid)


@pytest.fixture(scope="module")
def ref_poisson(ref_law, ref_nu):
    return solve_poisson(ref_law, ref_nu)


@pytest.fixture(scope="module")
def sigma_hat(ref_manifest):
    return math.sqrt(ref_manifest["sigma2"])


@pytest.fixture(scope="module")
def v_reference(ref_law, barycenter, ref_manifest, ref_poisson):
    """Recompute the pinned harmonic-function value with the pinned seed."""
    pin = ref_manifest["V"]
    est = estimate_V(
        ref_law,
        barycenter,
        pin["a"],
        pin["n_schedule"],
        pin["paths"],
        pin["seed"],
        poisson=ref_poisson,
    )
    assert est.V_hat == pytest.approx(pin["value"], abs=pin["tolerance_stderrs"] * pin["stderr"])
    return est


def test_criterion_01_projective_metric_and_contraction_suite(rng):
    """Metric axioms, cocycle, and the vertex contraction coefficient
    cross-checked against 2000 random pairs per matrix: no sampled pair of
    image points is further apart than the vertex value by more than 1e-12."""
    start = time.perf_counter()
    for dim in (2, 3, 4):
        for _ in range(8):
            entries = rng.uniform(0.1, 4.0, size=(dim, dim))
            g = MatrixLaw.from_entries([entries], np.array([1.0])).atoms[0]
            base = contraction_coeff(g)
            sampled = max(
                hennion_distance(act(g, random_simplex_point(dim, rng))[0], act(g, random_simplex_point(dim, rng))[0])
                for _ in range(2000)
            )
            assert sampled <= base + 1e-12
            assert base < 1.0
            for _ in range(20):
                x = random_simplex_point(dim, rng)
                y = random_simplex_point(dim, rng)
                gx, _ = act(g, x)
                gy, _ = act(g, y)
                assert hennion_distance(gx, gy) <= base * hennion_distance(x, y) + 1e-12
                assert hennion_distance(x, y) <= hennion_distance(x, gx) + hennion_distance(gx, y) + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"metric suite took {elapsed:.1f}s, budget 10s"
    print(f"\nCRITERION 1 PASS: vertex contraction bounds a 2000-pair sweep within 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_exact_enumeration_vs_monte_carlo(ref_law, barycenter):
    """Survival, killed mean, and conditional mean at n <= 6 within 3 SE of
    the exact tree enumeration, using 1e5 paths."""
    start = time.perf_counter()
    paths = 100_000
    n_values = [1, 2, 3, 4, 5, 6]
    oracle = enumerate_walk(ref_law, barycenter.coords, 1.0, 6)
    curve = survival_probability(ref_law, barycenter, 1.0, n_values, paths, seed=214)
    worst_z = 0.0
    for i, n in enumerate(n_values):
        se = max(curve.ci_half_width[i] / 1.959963984540054, 1e-12)
        worst_z = max(worst_z, abs(curve.p_hat[i] - oracle["survival"][n]) / se)
    assert worst_z <= 3.0, f"survival off by {worst_z:.2f} SE"
    est = estimate_V(ref_law, barycenter, 1.0, n_values, paths, seed=215)
    for i, n in enumerate(n_values):
        assert est.estimates[i] == pytest.approx(oracle["killed_mean"][n], abs=3.0 * est.stderrs[i])
    samples = conditional_endpoint_samples(ref_law, barycenter, 1.0, [4, 6], paths, seed=216)
    for n in (4, 6):
        s = samples[n]
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert s.mean() == pytest.approx(oracle["scaled_mean"][n], abs=3.0 * se)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"enumeration check took {elapsed:.1f}s, budget 60s"
    print(f"\nCRITERION 2 PASS: 1e5-path MC within 3 SE of exact enumeration, worst z = {worst_z:.2f} ({elapsed:.1f}s)")


def test_criterion_03_operator_pipeline_residuals(ref_law, grid, ref_nu, ref_poisson):
    """Constants preserved exactly; invariance residual < 1e-8 at resolution
    512; potential residual < 1e-8; series vs GMRES solve of the bordered
    system < 1e-7."""
    start = time.perf_counter()
    ones = GridFunction(grid, np.ones(grid.resolution))
    assert np.array_equal(apply_P(ref_law, ones).values, ones.values)
    worst = 0.0
    for probe in (grid.params, grid.params**2, np.cos(np.pi * grid.params)):
        f = GridFunction(grid, probe)
        worst = max(worst, abs(float(ref_nu.values @ apply_P(ref_law, f).values) - float(ref_nu.values @ probe)))
    assert worst < 1e-8, f"invariance residual {worst:.2e}"
    assert ref_poisson.residual < 1e-8, f"potential residual {ref_poisson.residual:.2e}"
    assert ref_poisson.dense_gap < 1e-7, f"series vs GMRES gap {ref_poisson.dense_gap:.2e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nCRITERION 3 PASS: P1=1 exact, invariance {worst:.1e}, potential residual "
        f"{ref_poisson.residual:.1e}, GMRES gap {ref_poisson.dense_gap:.1e} ({elapsed:.1f}s)"
    )


def test_criterion_04_variance_two_routes(ref_law, barycenter, ref_manifest):
    """Spectral sigma^2 vs Monte Carlo (n = 4096, 1e5 paths) within 5%;
    scalar mixture closed form within 3 stderr."""
    start = time.perf_counter()
    spectral = ref_manifest["sigma2"]
    mc, se = mc_sigma2(ref_law, barycenter, 4096, 100_000, seed=414)
    rel_gap = abs(mc - spectral) / spectral
    assert rel_gap < 0.05, f"sigma^2 routes disagree by {100 * rel_gap:.2f}%"
    law = scalar_law((math.exp(0.5), 0.5), (math.exp(-0.5), 0.5))
    mc_s, se_s = mc_sigma2(law, barycenter, 1024, 50_000, seed=415)
    assert mc_s == pytest.approx(0.25, abs=3.0 * se_s)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"variance check took {elapsed:.1f}s, budget 120s"
    print(
        f"\nCRITERION 4 PASS: spectral {spectral:.6f} vs MC {mc:.6f} "
        f"({100 * rel_gap:.2f}% gap); scalar closed form within 3 SE ({elapsed:.1f}s)"
    )


def test_criterion_05_martingale_comparison(ref_law, barycenter, ref_poisson):
    """1e4 paths x 1e3 steps: |S - M| <= A with zero violations and the exit
    ordering tau_a <= T_{a+A} with zero violations, streamed as validate runs them."""
    start = time.perf_counter()
    gap, violations, ordering = martingale_guards(
        ref_law, barycenter, 1.0, 1000, 10_000, seed=514, poisson=ref_poisson
    )
    assert violations == 0, f"{violations} paths violate |S - M| <= A"
    assert ordering == 0, f"{ordering} paths exit after the shifted compensated walk"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"martingale check took {elapsed:.1f}s, budget 120s"
    print(
        f"\nCRITERION 5 PASS: max |S - M| = {gap:.4f} <= A = {ref_poisson.A:.4f}, "
        f"0 bound / 0 ordering violations on 1e4 x 1e3 ({elapsed:.1f}s)"
    )


def test_criterion_06_exit_time_asymptotics(ref_law, barycenter, sigma_hat, v_reference):
    """1e6 paths, n in {2^8 .. 2^13}: sqrt(n) p_hat over 2V/(sigma sqrt(2 pi))
    inside [0.85, 1.15] with CI qualification on the top half, and flat."""
    curve = survival_probability(
        ref_law, barycenter, 1.0, [256, 512, 1024, 2048, 4096, 8192], 1_000_000, seed=614
    )
    section = validate_exit_asymptotics(
        curve, v_reference.V_hat, v_reference.V_stderr, sigma_hat
    )
    assert section.top_half_in_band, f"ratios {np.round(section.ratio, 4)} leave the band"
    assert section.flat, "normalized survival shows a trend beyond noise"
    assert section.verdict
    print(
        f"\nCRITERION 6 PASS: ratios {np.round(section.ratio, 3)} in [0.85, 1.15], "
        f"flat, V_hat = {v_reference.V_hat:.4f}"
    )


def test_criterion_07_conditional_limit_law(ref_law, barycenter, sigma_hat):
    """KS at n = 2^10 below 0.03, non-increasing over {2^6, 2^8, 2^10}, and
    the doubled-sigma negative control stays above 0.15."""
    samples = conditional_endpoint_samples(
        ref_law, barycenter, 1.0, [64, 256, 1024], 1_000_000, seed=714
    )
    section = validate_conditional_law(samples, sigma_hat)
    assert section.final_ks_ok, f"final KS {section.ks[-1]:.4f} >= 0.03"
    assert section.non_increasing, f"KS values {np.round(section.ks, 4)} rise beyond allowance"
    assert section.verdict
    control = validate_conditional_law(samples, 2.0 * sigma_hat)
    assert control.ks[-1] > 0.15, "negative control failed to reject the doubled scale"
    print(
        f"\nCRITERION 7 PASS: KS {np.round(section.ks, 4)} decreasing, final "
        f"{section.ks[-1]:.4f} < 0.03; doubled-sigma control KS = {control.ks[-1]:.3f} > 0.15"
    )


def test_criterion_08_harmonic_function_shape(ref_law, barycenter, sigma_hat, ref_poisson):
    """V_hat on a level grid of sigma multiples: monotone within noise,
    above a - A - 3 SE, and V(50 sigma) / (50 sigma) inside [0.9, 1.1]."""
    multiples = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 50.0]
    a_grid = [m * sigma_hat for m in multiples]
    schedule = [16, 32, 64, 128, 256, 512, 1024]
    seeds = np.random.SeedSequence(814).spawn(len(a_grid))
    v_hats, v_ses = [], []
    for level, ss in zip(a_grid, seeds):
        est = estimate_V(ref_law, barycenter, level, schedule, 30_000, ss, poisson=ref_poisson)
        v_hats.append(est.V_hat)
        v_ses.append(est.V_stderr)
    section = check_V_properties(a_grid, v_hats, v_ses, ref_poisson.A)
    assert section.monotone_violations == 0
    assert section.lower_bound_ok
    assert section.slope_ok, f"V(50 sigma)/(50 sigma) = {section.slope_at_top:.4f}"
    assert section.verdict
    print(
        f"\nCRITERION 8 PASS: V monotone on {len(a_grid)} levels, lower bound holds, "
        f"slope at 50 sigma = {section.slope_at_top:.4f}"
    )


def test_criterion_09_covariance_decay(ref_law, barycenter, ref_manifest):
    """Scalar mixture: all lagged covariances within 3 SE of zero.  Reference
    law: fitted decay rate below 1 and within 0.1 of the convolution
    contraction rate."""
    law = scalar_law((math.exp(0.5), 0.5), (math.exp(-0.5), 0.5))
    table = covariance_decay(law, barycenter, 20, 6, 200_000, seed=914)
    for lag in range(1, 7):
        assert abs(table.cov[lag]) <= 3.0 * table.stderr[lag], f"scalar lag {lag} covariance nonzero"
    assert table.kappa_fit is None

    fix = covariance_decay(ref_law, barycenter, 50, 6, 1_000_000, seed=915)
    assert fix.kappa_fit is not None, fix.note
    conv4 = ref_manifest["convolution_contraction"]["4"] ** 0.25
    assert fix.kappa_fit < 1.0
    assert fix.kappa_fit <= conv4 + 0.1, (
        f"fitted rate {fix.kappa_fit:.3f} exceeds convolution rate {conv4:.3f} + 0.1"
    )
    print(
        f"\nCRITERION 9 PASS: scalar lags within 3 SE of 0; fitted rate "
        f"{fix.kappa_fit:.3f} <= {conv4:.3f} + 0.1 over lags {fix.fit_lags}"
    )


def test_criterion_10_limit_profile_closed_forms(rng):
    """Survival and corridor closed forms within 1e-10 of quadrature on 100
    seeded draws; scaled-endpoint median identity at 1e-12."""
    for _ in range(100):
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(0.1, 6.0))
        n = float(rng.uniform(0.5, 100.0))
        sigma = float(rng.uniform(0.2, 2.0))
        assert bm_survival(a, n, sigma) == pytest.approx(quad_survival(a, n, sigma), abs=1e-10)
        assert bm_corridor(a, b, n, sigma) == pytest.approx(quad_corridor(a, b, n, sigma), abs=1e-10)
    sigma = 0.437
    median = sigma * math.sqrt(2.0 * math.log(2.0))
    assert rayleigh_cdf(median, sigma) == pytest.approx(0.5, abs=1e-12)
    print("\nCRITERION 10 PASS: closed forms within 1e-10 of quadrature on 100 draws; median identity at 1e-12")


def test_criterion_11_reproducibility(ref_law, barycenter, tmp_path):
    """Same (config, seed) reruns are byte-identical, including across
    worker counts, at both the library and command-line levels."""
    c1 = survival_probability(ref_law, barycenter, 1.0, [32, 64], 50_000, seed=1114, workers=1)
    c2 = survival_probability(ref_law, barycenter, 1.0, [32, 64], 50_000, seed=1114, workers=4)
    assert np.array_equal(c1.p_hat, c2.p_hat)

    from conefluct.fixtures import reference_law_text

    law_path = tmp_path / "law.json"
    law_path.write_text(reference_law_text(), encoding="utf-8")
    cfg = {
        "law": str(law_path),
        "seed": 1115,
        "simulate": {
            "n_values": [16, 32],
            "paths": 20000,
            "v_schedule": [8, 16],
            "v_paths": 5000,
            "a_grid": [0.5, 1.0],
            "a_paths": 2000,
            "conditional_n": [16],
            "conditional_paths": 5000,
            "sigma2_n": 128,
            "sigma2_paths": 5000,
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--workers", "3"]) == 0
    mismatched = [
        p.name
        for p in sorted(out1.iterdir())
        if p.read_bytes() != (out2 / p.name).read_bytes()
    ]
    assert mismatched == [], f"artifacts differ across worker counts: {mismatched}"
    print("\nCRITERION 11 PASS: library results and CLI artifacts byte-identical across worker counts")
