"""Closed forms for the limiting objects and the verdict assembly logic."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from conefluct import (
    ConditionalLawSection,
    SurvivalCurve,
    ValidationReport,
    ValidationThresholds,
    bm_corridor,
    bm_survival,
    check_V_properties,
    ks_statistic,
    rayleigh_cdf,
    validate_conditional_law,
    validate_exit_asymptotics,
)
from conefluct.theorem_validation import negative_control
from oracles import quad_corridor, quad_rayleigh_cdf, quad_survival


# ---------------------------------------------------------------------------
# closed forms vs quadrature


def test_bm_survival_known_value():
    assert bm_survival(1.0, 1.0, 1.0) == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-14)


def test_bm_survival_limits():
    assert bm_survival(0.0, 4.0, 1.0) == 0.0
    assert bm_survival(80.0, 4.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    values = [bm_survival(a, 4.0, 1.0) for a in (0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_bm_survival_matches_quadrature(rng):
    for _ in range(25):
        a = float(rng.uniform(0.1, 5.0))
        n = float(rng.uniform(0.5, 100.0))
        sigma = float(rng.uniform(0.2, 2.0))
        assert bm_survival(a, n, sigma) == pytest.approx(quad_survival(a, n, sigma), abs=1e-10)


def test_bm_corridor_matches_quadrature(rng):
    for _ in range(25):
        a = float(rng.uniform(0.1, 4.0))
        b = float(rng.uniform(0.1, 6.0))
        n = float(rng.uniform(0.5, 50.0))
        sigma = float(rng.uniform(0.2, 2.0))
        assert bm_corridor(a, b, n, sigma) == pytest.approx(quad_corridor(a, b, n, sigma), abs=1e-10)


def test_bm_corridor_limits():
    a, n, sigma = 1.3, 9.0, 0.7
    assert bm_corridor(a, 0.0, n, sigma) == 0.0
    assert bm_corridor(a, 1e6, n, sigma) == pytest.approx(bm_survival(a, n, sigma), abs=1e-12)
    grid = [bm_corridor(a, b, n, sigma) for b in (0.5, 1.0, 2.0, 4.0)]
    assert all(later >= earlier for earlier, later in zip(grid, grid[1:]))
    assert all(v <= bm_survival(a, n, sigma) + 1e-14 for v in grid)


def test_rayleigh_cdf_median():
    sigma = 0.7
    median = sigma * math.sqrt(2.0 * math.log(2.0))
    assert rayleigh_cdf(median, sigma) == pytest.approx(0.5, abs=1e-12)
    assert rayleigh_cdf(0.0, sigma) == 0.0
    assert rayleigh_cdf(-1.0, sigma) == 0.0
    assert rayleigh_cdf(50.0 * sigma, sigma) == pytest.approx(1.0, abs=1e-12)


def test_rayleigh_cdf_matches_quadrature(rng):
    for _ in range(25):
        t = float(rng.uniform(0.05, 4.0))
        sigma = float(rng.uniform(0.2, 2.0))
        assert rayleigh_cdf(t, sigma) == pytest.approx(quad_rayleigh_cdf(t, sigma), abs=1e-10)


def test_rayleigh_cdf_vectorized():
    out = rayleigh_cdf(np.array([-1.0, 0.0, 1.0]), 1.0)
    assert out.shape == (3,)
    assert out[0] == 0.0 and out[1] == 0.0 and 0.0 < out[2] < 1.0


# ---------------------------------------------------------------------------
# KS statistic


def test_ks_single_point_at_median():
    sigma = 1.0
    median = sigma * math.sqrt(2.0 * math.log(2.0))
    assert ks_statistic([median], lambda t: rayleigh_cdf(t, sigma)) == pytest.approx(0.5, abs=1e-12)


def test_ks_perfect_quantile_sample():
    m = 50
    sigma = 0.8
    # inverse CDF at the mid-quantiles: the one-sided gaps are both 1/(2m)
    probs = (np.arange(m) + 0.5) / m
    sample = sigma * np.sqrt(-2.0 * np.log1p(-probs))
    assert ks_statistic(sample, lambda t: rayleigh_cdf(t, sigma)) == pytest.approx(
        1.0 / (2 * m), abs=1e-12
    )


def test_ks_matches_scipy(rng):
    sample = rng.rayleigh(scale=1.3, size=400)
    ours = ks_statistic(sample, lambda t: rayleigh_cdf(t, 1.3))
    ref = kstest(sample, lambda t: np.asarray(rayleigh_cdf(t, 1.3))).statistic
    assert ours == pytest.approx(ref, abs=1e-12)
    shuffled = sample.copy()
    rng.shuffle(shuffled)
    assert ks_statistic(shuffled, lambda t: rayleigh_cdf(t, 1.3)) == ours


# ---------------------------------------------------------------------------
# exit asymptotics section


def _synthetic_curve(V, sigma, n_values, paths=10**6, wobble=None):
    n = np.asarray(n_values, dtype=float)
    p = 2.0 * V / (sigma * np.sqrt(2.0 * math.pi * n))
    if wobble is not None:
        p = p * wobble
    se = np.sqrt(p * (1.0 - p) / paths)
    return SurvivalCurve(
        n_values=np.asarray(n_values),
        p_hat=p,
        ci_half_width=1.959963984540054 * se,
        survivors=np.round(p * paths).astype(int),
        paths=paths,
        start_a=1.0,
        seed=None,
    )


def test_exit_asymptotics_accepts_exact_curve():
    n_values = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    curve = _synthetic_curve(1.2, 0.4, n_values)
    section = validate_exit_asymptotics(curve, V_hat=1.2, V_stderr=0.01, sigma_hat=0.4)
    assert section.verdict and section.top_half_in_band and section.flat
    assert np.allclose(section.ratio, 1.0, atol=1e-6)
    assert section.uniform_constant == pytest.approx(max(section.sqrt_n_p) / 1.2, abs=1e-12)


def test_exit_asymptotics_rejects_wrong_constant():
    n_values = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    curve = _synthetic_curve(1.2, 0.4, n_values)
    section = validate_exit_asymptotics(curve, V_hat=0.8, V_stderr=0.01, sigma_hat=0.4)
    assert not section.top_half_in_band
    assert not section.verdict


def test_exit_asymptotics_rejects_kinked_curve():
    n_values = [64, 128, 256, 512, 1024, 2048, 4096, 8192]
    wobble = np.ones(8)
    wobble[5] = 1.35
    curve = _synthetic_curve(1.2, 0.4, n_values, wobble=wobble)
    section = validate_exit_asymptotics(curve, V_hat=1.2, V_stderr=0.01, sigma_hat=0.4)
    assert not section.flat
    assert not section.verdict


# ---------------------------------------------------------------------------
# conditional law section


def test_conditional_law_accepts_matching_samples(rng):
    sigma = 0.42
    samples = {
        64: rng.rayleigh(scale=sigma, size=2000),
        256: rng.rayleigh(scale=sigma, size=20000),
        1024: rng.rayleigh(scale=sigma, size=200000),
    }
    section = validate_conditional_law(samples, sigma)
    assert isinstance(section, ConditionalLawSection)
    assert section.final_ks_ok and section.non_increasing and section.verdict
    assert section.ks[-1] < 0.03
    assert not negative_control(section, 1.0)["pass"]


def test_conditional_law_rejects_wrong_scale(rng):
    sigma = 0.42
    samples = {256: rng.rayleigh(scale=sigma, size=50000)}
    section = validate_conditional_law(samples, 2.0 * sigma)
    assert not section.final_ks_ok
    assert not section.verdict
    assert section.ks[-1] > 0.15  # the negative-control margin
    assert negative_control(section, 2.0) == {
        "sigma_scale": 2.0, "sigma_used": 2.0 * sigma, "final_ks": section.ks[-1], "pass": True
    }


def test_negative_control_reads_the_conditional_verdict(rng):
    # a 10% sigma error moves the final KS only to about 0.07, but that is
    # over the 0.03 bar: the conditional law fails, so the control passes
    sigma = 0.42
    samples = {256: rng.rayleigh(scale=sigma, size=50000)}
    section = validate_conditional_law(samples, 1.1 * sigma)
    assert 0.03 < section.ks[-1] < 0.15 and not section.verdict
    assert negative_control(section, 1.1)["pass"]


def test_conditional_law_requires_survivors(rng):
    sigma = 0.42
    samples = {64: rng.rayleigh(scale=sigma, size=5000), 4096: rng.rayleigh(scale=sigma, size=3)}
    with pytest.raises(ValueError, match="adequate"):
        validate_conditional_law(samples, sigma)


# ---------------------------------------------------------------------------
# harmonic-function properties section


def test_v_properties_accept_affine_v():
    a = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 20.0])
    V = a + 0.3
    se = np.full_like(a, 0.01)
    section = check_V_properties(a, V, se, A=0.35)
    assert section.monotone_violations == 0
    assert section.lower_bound_ok
    assert section.slope_ok and section.slope_at_top == pytest.approx(20.3 / 20.0, abs=1e-12)
    assert section.verdict
    assert section.upper_envelope == pytest.approx(max(V / (1.0 + a)), abs=1e-12)


def test_v_properties_flag_monotone_break():
    a = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    V = a + 0.3
    V[2] -= 1.5
    section = check_V_properties(a, V, np.full_like(a, 0.01), A=0.35)
    assert section.monotone_violations >= 1
    assert not section.verdict


def test_v_properties_flag_wrong_slope():
    a = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    V = 2.0 * a
    section = check_V_properties(a, V, np.full_like(a, 0.01), A=0.35)
    assert not section.slope_ok
    assert not section.verdict


def test_v_properties_flag_lower_bound():
    a = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
    V = 0.1 * np.ones_like(a)
    section = check_V_properties(a, V, np.full_like(a, 0.001), A=0.35)
    assert not section.lower_bound_ok
    assert not section.verdict


# ---------------------------------------------------------------------------
# report assembly


def test_report_verdicts_and_all_pass(rng):
    sigma = 0.5
    curve = _synthetic_curve(1.0, sigma, [64, 128, 256, 512])
    exit_section = validate_exit_asymptotics(curve, 1.0, 0.01, sigma)
    samples = {256: rng.rayleigh(scale=sigma, size=100000)}
    cond = validate_conditional_law(samples, sigma)
    a = np.array([0.5, 1.0, 2.0, 4.0])
    v_section = check_V_properties(a, a + 0.2, np.full_like(a, 0.01), A=0.3)
    report = ValidationReport(
        law_fingerprint="deadbeef",
        gamma={"quadrature": 0.0},
        sigma2={"spectral": sigma**2},
        exit_section=exit_section,
        conditional_section=cond,
        negative_control=None,
        v_section=v_section,
        checklist={"martingale_bound": True, "harmonicity": None},
    )
    verdicts = report.verdicts()
    assert verdicts == {
        "exit_asymptotics": True,
        "conditional_law": True,
        "v_properties": True,
        "martingale_bound": True,
    }
    assert report.all_pass
    failing = ValidationReport(
        law_fingerprint="deadbeef",
        gamma={},
        sigma2={},
        exit_section=None,
        conditional_section=None,
        negative_control={"pass": False},
        v_section=None,
        checklist={},
    )
    assert failing.verdicts() == {"negative_control": False}
    assert not failing.all_pass


def test_thresholds_are_overridable():
    t = ValidationThresholds(ratio_band=(0.7, 1.3), ks_threshold=0.1)
    assert t.ratio_band == (0.7, 1.3)
    assert t.ks_threshold == 0.1
    assert t.min_survivors == 200
