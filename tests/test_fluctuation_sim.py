"""Monte Carlo layer: path simulation, exit times, killed expectations,
reproducibility across worker counts, and the martingale comparison."""

import math

import numpy as np
import pytest

from conefluct import (
    MatrixLaw,
    SimplexGrid,
    SimplexVector,
    calibrate,
    conditional_endpoint_samples,
    covariance_decay,
    estimate_V,
    estimate_lyapunov,
    exit_ordering_violations,
    martingale_gap,
    mc_sigma2,
    simulate_paths,
    solve_poisson,
    stationary_measure,
    survival_probability,
)
from conftest import scalar_law
from oracles import enumerate_walk


@pytest.fixture(scope="module")
def ref_poisson(ref_law):
    grid = SimplexGrid(512)
    return solve_poisson(ref_law, stationary_measure(ref_law, grid))


# ---------------------------------------------------------------------------
# single-path simulation


def test_single_path_is_reproducible(ref_law, barycenter):
    (p1,) = simulate_paths(ref_law, barycenter, 1.0, 64, paths=1, seed=5)
    (p2,) = simulate_paths(ref_law, barycenter, 1.0, 64, paths=1, seed=5)
    assert np.array_equal(p1.S, p2.S)
    assert p1.tau == p2.tau
    assert p1.S[0] == 1.0


def test_deterministic_exit_time(barycenter):
    law = scalar_law((0.82, 1.0))
    (path,) = simulate_paths(law, barycenter, 1.0, 100, paths=1, seed=0)
    expected_tau = math.ceil(1.0 / abs(math.log(0.82)))
    assert path.tau == expected_tau == 6
    assert not path.censored
    S = path.S[: path.tau + 1]
    assert len(S) == path.tau + 1
    for n, s in enumerate(S):
        assert s == pytest.approx(1.0 + n * math.log(0.82), abs=1e-12)


def test_full_horizon_continues_past_exit(barycenter):
    law = scalar_law((0.82, 1.0))
    (path,) = simulate_paths(law, barycenter, 1.0, 10, paths=1, seed=0)
    assert path.tau == 6
    assert len(path.S) == 11


def test_censoring_at_horizon(barycenter):
    law = scalar_law((1.2, 1.0))
    (path,) = simulate_paths(law, barycenter, 5.0, 50, paths=1, seed=0)
    assert path.tau is None and path.censored


def test_batch_paths_match_shapes(ref_law, barycenter, ref_poisson):
    records = simulate_paths(ref_law, barycenter, 1.0, 32, 40, seed=9, poisson=ref_poisson)
    assert len(records) == 40
    for rec in records:
        assert rec.S.shape == (33,)
        assert rec.M.shape == (33,)
        assert rec.M[0] == pytest.approx(rec.S[0], abs=1e-12)
        if rec.tau is not None:
            assert rec.S[rec.tau] <= 0.0
            assert np.all(rec.S[1 : rec.tau] > 0.0)


# ---------------------------------------------------------------------------
# survival and killed expectations against exact enumeration


def test_survival_matches_enumeration(ref_law, barycenter):
    n_values = [1, 2, 3, 4, 5, 6]
    oracle = enumerate_walk(ref_law, barycenter.coords, 1.0, 6)
    curve = survival_probability(ref_law, barycenter, 1.0, n_values, 20000, seed=21)
    assert np.all(np.diff(curve.p_hat) <= 0.0)
    for i, n in enumerate(n_values):
        se = curve.ci_half_width[i] / 1.959963984540054
        assert curve.p_hat[i] == pytest.approx(oracle["survival"][n], abs=max(3.0 * se, 1e-12))
        assert curve.survivors[i] == round(curve.p_hat[i] * curve.paths)


def test_killed_mean_matches_enumeration(ref_law, barycenter):
    oracle = enumerate_walk(ref_law, barycenter.coords, 1.0, 6)
    est = estimate_V(ref_law, barycenter, 1.0, [2, 4, 6], 30000, seed=22)
    for i, n in enumerate([2, 4, 6]):
        assert est.estimates[i] == pytest.approx(
            oracle["killed_mean"][n], abs=3.0 * est.stderrs[i]
        )


def test_conditional_endpoints_match_enumeration(ref_law, barycenter):
    oracle = enumerate_walk(ref_law, barycenter.coords, 1.0, 6)
    samples = conditional_endpoint_samples(ref_law, barycenter, 1.0, [4, 6], 30000, seed=23)
    for n in (4, 6):
        s = samples[n]
        se = s.std(ddof=1) / math.sqrt(s.size)
        assert s.mean() == pytest.approx(oracle["scaled_mean"][n], abs=3.0 * se)
        assert np.all(s > 0.0)


# ---------------------------------------------------------------------------
# reproducibility across worker counts


def test_worker_count_does_not_change_results(ref_law, barycenter, ref_poisson):
    kw = dict(n_values=[8, 16], paths=40000, seed=31)
    c1 = survival_probability(ref_law, barycenter, 1.0, workers=1, **kw)
    c3 = survival_probability(ref_law, barycenter, 1.0, workers=3, **kw)
    assert np.array_equal(c1.p_hat, c3.p_hat)
    assert np.array_equal(c1.survivors, c3.survivors)

    v1 = estimate_V(ref_law, barycenter, 1.0, [8, 16], 40000, seed=32, workers=1)
    v3 = estimate_V(ref_law, barycenter, 1.0, [8, 16], 40000, seed=32, workers=3)
    assert np.array_equal(v1.estimates, v3.estimates)

    s1 = mc_sigma2(ref_law, barycenter, 64, 40000, seed=33, workers=1)
    s3 = mc_sigma2(ref_law, barycenter, 64, 40000, seed=33, workers=3)
    assert s1 == s3

    k1 = conditional_endpoint_samples(ref_law, barycenter, 1.0, [8], 40000, seed=34, workers=1)
    k3 = conditional_endpoint_samples(ref_law, barycenter, 1.0, [8], 40000, seed=34, workers=3)
    assert np.array_equal(k1[8], k3[8])

    kw = dict(horizon=32, paths=40000, seed=35, poisson=ref_poisson)
    r1 = simulate_paths(ref_law, barycenter, 1.0, workers=1, **kw)
    r3 = simulate_paths(ref_law, barycenter, 1.0, workers=3, **kw)
    assert len(r1) == len(r3) == 40000
    for a, b in zip(r1, r3):
        assert np.array_equal(a.S, b.S) and np.array_equal(a.M, b.M)
        assert (a.tau, a.T) == (b.tau, b.T)
        assert np.array_equal(a.x_final, b.x_final)


def test_worker_count_does_not_change_d3_results():
    law = MatrixLaw.from_entries(np.random.default_rng(36).random((64, 3, 3)) + 0.05, np.full(64, 1 / 64))
    x = SimplexVector.barycenter(3)
    law = calibrate(law, estimate_lyapunov(law, x, 256, 4000, seed=36)[0])
    runs = {}
    for workers in (1, 2):
        runs[workers] = (
            survival_probability(law, x, 1.0, [8, 16], 40000, seed=37, workers=workers).survivors,
            estimate_V(law, x, 1.0, [8, 16], 40000, seed=38, workers=workers).estimates,
            np.array(mc_sigma2(law, x, 64, 40000, seed=39, workers=workers)),
            conditional_endpoint_samples(law, x, 1.0, [8], 40000, seed=40, workers=workers)[8],
            covariance_decay(law, x, 10, 3, 40000, seed=41, workers=workers).cov,
            np.stack([r.S for r in simulate_paths(law, x, 1.0, 16, 40000, seed=42, workers=workers)]),
        )
    for one, two in zip(runs[1], runs[2], strict=True):
        assert np.array_equal(one, two)
    # the killed walk must kill some paths and keep others
    assert 0 < runs[1][0][-1] < 40000


def test_start_point_of_another_dimension_is_refused(ref_law):
    x3 = SimplexVector(np.array([0.2, 0.3, 0.5]))
    with pytest.raises(ValueError, match="3 coordinates, but the law has dimension 2"):
        survival_probability(ref_law, x3, 1.0, [4], 1000, seed=1)
    with pytest.raises(ValueError, match="3 coordinates, but the law has dimension 2"):
        mc_sigma2(ref_law, x3, 4, 1000, seed=1)


def test_seed_is_required(ref_law, barycenter):
    with pytest.raises(ValueError, match="seed"):
        survival_probability(ref_law, barycenter, 1.0, [4], 1000, seed=None)


# ---------------------------------------------------------------------------
# variance of the additive functional


def test_mc_sigma2_scalar_closed_form(barycenter, centered_scalar_law):
    s2, se = mc_sigma2(centered_scalar_law, barycenter, 256, 20000, seed=41)
    assert se > 0.0
    assert s2 == pytest.approx(0.25, abs=3.0 * se)


def test_mc_sigma2_agrees_with_manifest(ref_law, barycenter, ref_manifest):
    s2, se = mc_sigma2(ref_law, barycenter, 1024, 20000, seed=42)
    assert s2 == pytest.approx(ref_manifest["sigma2"], abs=max(4.0 * se, 0.05 * ref_manifest["sigma2"]))


# ---------------------------------------------------------------------------
# martingale comparison


def test_martingale_bound_and_ordering(ref_law, barycenter, ref_poisson):
    records = simulate_paths(
        ref_law, barycenter, 1.0, 256, 2000, seed=51, poisson=ref_poisson
    )
    gap, violations = martingale_gap(records, ref_poisson.A, slack=ref_poisson.interp_slack)
    assert violations == 0
    assert 0.0 < gap <= ref_poisson.A + ref_poisson.interp_slack
    assert exit_ordering_violations(records, ref_poisson.A) == 0


def test_martingale_mean_is_conserved(ref_law, barycenter, ref_poisson):
    # E[M_n] = a at every n, not only at the horizon: a wrong-sign potential
    # breaks it at small n and can pass at n = 64
    records = simulate_paths(ref_law, barycenter, 1.0, 64, 20000, seed=52, poisson=ref_poisson)
    M = np.array([rec.M[1:] for rec in records])
    se = M.std(axis=0, ddof=1) / math.sqrt(len(records))
    z = (M.mean(axis=0) - 1.0) / se
    assert np.all(np.abs(z) <= 4.0), np.abs(z).max()


# ---------------------------------------------------------------------------
# harmonic-function estimation


def test_estimate_v_converges_on_fixture(ref_law, barycenter, ref_poisson):
    est = estimate_V(
        ref_law, barycenter, 1.0, [16, 32, 64, 128, 256], 20000, seed=61, poisson=ref_poisson
    )
    assert est.converged and est.plateau_n is not None
    assert 1.0 <= est.V_hat <= 1.4
    assert est.V_stderr > 0.0
    assert "bound" in est.diagnostics


def test_estimate_v_flags_drifting_walk(barycenter):
    law = scalar_law((1.1, 0.5), (1.05, 0.5))
    est = estimate_V(law, barycenter, 1.0, [4, 8, 16, 32], 2000, seed=62)
    assert not est.converged
    assert np.all(np.diff(est.estimates) > 0.0)


# ---------------------------------------------------------------------------
# covariance decay


def test_covariance_scalar_law_has_no_memory(barycenter, centered_scalar_law):
    table = covariance_decay(centered_scalar_law, barycenter, 20, 4, 100000, seed=71)
    assert table.cov[0] == pytest.approx(0.25, abs=3.0 * table.stderr[0])
    for lag in range(1, 5):
        assert abs(table.cov[lag]) <= 3.0 * table.stderr[lag]
    assert table.kappa_fit is None
    assert "within noise" in table.note


def test_covariance_fixture_decays(ref_law, barycenter):
    table = covariance_decay(ref_law, barycenter, 50, 3, 200000, seed=72)
    assert np.array_equal(table.lags, np.arange(4))
    assert table.cov[0] > 0.0
    assert abs(table.cov[1]) < table.cov[0]
    t1 = covariance_decay(ref_law, barycenter, 50, 3, 200000, seed=72, workers=3)
    assert np.array_equal(table.cov, t1.cov)
