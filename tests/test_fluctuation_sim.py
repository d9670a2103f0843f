"""Monte Carlo layer: path simulation, exit times, killed expectations,
reproducibility across worker counts, and the martingale comparison."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from conefluct import (
    GridFunction,
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
    martingale_guards,
    mc_sigma2,
    simulate_paths,
    solve_poisson,
    stationary_measure,
    survival_probability,
)
from conefluct._batch import chunk_layout
from conefluct.cli import _DEFAULTS
from conftest import scalar_law
from oracles import enumerate_walk


@pytest.fixture(scope="module")
def ref_poisson(ref_law):
    grid = SimplexGrid(512)
    return solve_poisson(ref_law, stationary_measure(ref_law, grid))


# ---------------------------------------------------------------------------
# path simulation


def _assert_same_paths(batches, records):
    """Column p of each batch is the next per-path record, field for field."""
    assert len(records) == sum(b.S.shape[1] for b in batches)
    paths = iter(records)
    for batch in batches:
        for p, rec in zip(range(batch.S.shape[1]), paths):
            assert np.array_equal(batch.S[:, p], rec.S)
            assert (int(batch.tau[p]) or None) == rec.tau
            assert np.array_equal(batch.x_final[p], rec.x_final)
            if rec.M is None:
                assert batch.M is None and batch.T is None
            else:
                assert np.array_equal(batch.M[:, p], rec.M)
                assert (int(batch.T[p]) or None) == rec.T


def test_single_path_is_reproducible(ref_law, barycenter):
    (p1,) = simulate_paths(ref_law, barycenter, 1.0, 64, paths=1, seed=5)
    (p2,) = simulate_paths(ref_law, barycenter, 1.0, 64, paths=1, seed=5)
    assert np.array_equal(p1.S, p2.S)
    assert np.array_equal(p1.tau, p2.tau)
    assert p1.S[0, 0] == 1.0


def test_deterministic_exit_time(barycenter):
    law = scalar_law((0.82, 1.0))
    (batch,) = simulate_paths(law, barycenter, 1.0, 100, paths=1, seed=0)
    expected_tau = math.ceil(1.0 / abs(math.log(0.82)))
    assert expected_tau == 6
    assert batch.tau.tolist() == [expected_tau]
    for n, s in enumerate(batch.S[: expected_tau + 1, 0]):
        assert s == pytest.approx(1.0 + n * math.log(0.82), abs=1e-12)


def test_full_horizon_continues_past_exit(barycenter):
    law = scalar_law((0.82, 1.0))
    batches = simulate_paths(law, barycenter, 1.0, 10, paths=3, seed=0)
    (batch,) = batches
    assert batch.tau.tolist() == [6, 6, 6]
    assert batch.S.shape == (11, 3)
    _assert_same_paths(batches, oracles.simulate_paths(law, barycenter, 1.0, 10, paths=3, seed=0))


def test_censoring_at_horizon(barycenter):
    law = scalar_law((1.2, 1.0))
    batches = simulate_paths(law, barycenter, 5.0, 50, paths=3, seed=0)
    (batch,) = batches
    assert batch.tau.tolist() == [0, 0, 0]
    assert batch.M is None and batch.T is None
    records = oracles.simulate_paths(law, barycenter, 5.0, 50, paths=3, seed=0)
    assert [rec.tau for rec in records] == [None, None, None]
    _assert_same_paths(batches, records)


def test_batch_paths_match_shapes(ref_law, barycenter, ref_poisson):
    (batch,) = simulate_paths(ref_law, barycenter, 1.0, 32, 40, seed=9, poisson=ref_poisson)
    assert batch.S.shape == batch.M.shape == (33, 40)
    assert batch.tau.shape == batch.T.shape == (40,)
    assert batch.x_final.shape == (40, 2)
    assert np.array_equal(batch.M[0], batch.S[0])
    steps = np.arange(33)[:, None]
    for walk, first in ((batch.S, batch.tau), (batch.M, batch.T)):
        assert np.any(first > 0)
        crossed = np.flatnonzero(first)
        assert np.all(walk[first[crossed], crossed] <= 0.0)
        before = (steps >= 1) & ((steps < first) | (first == 0))
        assert np.all(walk[before] > 0.0)


@pytest.mark.parametrize("workers", [1, 3])
def test_batches_match_per_path_records(ref_law, barycenter, ref_poisson, workers):
    kw = dict(horizon=32, paths=40000, seed=35, workers=workers)
    batches = simulate_paths(ref_law, barycenter, 1.0, poisson=ref_poisson, **kw)
    records = oracles.simulate_paths(ref_law, barycenter, 1.0, poisson=ref_poisson, **kw)
    assert [b.S.shape[1] for b in batches] == chunk_layout(40000) == [16384, 16384, 7232]
    _assert_same_paths(batches, records)
    slack = ref_poisson.interp_slack
    violations = []
    for poisson in (ref_poisson, dataclasses.replace(ref_poisson, A=ref_poisson.A / 20)):
        A = poisson.A
        gap = martingale_gap(batches, A, slack=slack)
        late = oracles.exit_ordering_violations(records, A)
        assert gap == oracles.martingale_gap(records, A, slack=slack)
        assert exit_ordering_violations(batches, A) == late
        # the streamed guards, through the pool at three workers, are the same numbers
        assert martingale_guards(ref_law, barycenter, 1.0, poisson=poisson, **kw) == (*gap, late)
        violations.append(gap[1])
    assert violations[0] == 0 and violations[1] > 0


# ---------------------------------------------------------------------------
# survival and killed expectations against exact enumeration


def test_survival_matches_enumeration(ref_law, barycenter):
    n_values = [1, 2, 3, 4, 5, 6]
    oracle = enumerate_walk(ref_law, barycenter.coords, 1.0, 6)
    curve = survival_probability(ref_law, barycenter, 1.0, n_values, 20000, seed=21)
    assert np.all(np.diff(curve.p_hat) <= 0.0)
    for i, n in enumerate(n_values):
        se = curve.stderr[i]
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

    levels = [0.5, 1.0, 2.0, 4.0]
    g1 = estimate_V(ref_law, barycenter, levels, [8, 16], 40000, seed=30, workers=1)
    g3 = estimate_V(ref_law, barycenter, levels, [8, 16], 40000, seed=30, workers=3)
    assert len(g1) == len(g3) == len(levels)
    for a, b in zip(g1, g3):
        for field in ("estimates", "stderrs", "survival"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    s1 = mc_sigma2(ref_law, barycenter, 64, 40000, seed=33, workers=1)
    s3 = mc_sigma2(ref_law, barycenter, 64, 40000, seed=33, workers=3)
    assert s1 == s3

    k1 = conditional_endpoint_samples(ref_law, barycenter, 1.0, [8], 40000, seed=34, workers=1)
    k3 = conditional_endpoint_samples(ref_law, barycenter, 1.0, [8], 40000, seed=34, workers=3)
    assert np.array_equal(k1[8], k3[8])

    kw = dict(horizon=32, paths=40000, seed=35, poisson=ref_poisson)
    r1 = simulate_paths(ref_law, barycenter, 1.0, workers=1, **kw)
    r3 = simulate_paths(ref_law, barycenter, 1.0, workers=3, **kw)
    assert len(r1) == len(r3) == len(chunk_layout(40000))
    for a, b in zip(r1, r3):
        for field in ("S", "M", "tau", "T", "x_final"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


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
            np.concatenate([b.S for b in simulate_paths(law, x, 1.0, 16, 40000, seed=42, workers=workers)], axis=1),
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
    batches = simulate_paths(
        ref_law, barycenter, 1.0, 256, 2000, seed=51, poisson=ref_poisson
    )
    gap, violations = martingale_gap(batches, ref_poisson.A, slack=ref_poisson.interp_slack)
    assert violations == 0
    assert 0.0 < gap <= ref_poisson.A + ref_poisson.interp_slack
    assert exit_ordering_violations(batches, ref_poisson.A) == 0


def test_martingale_guards_can_fail(ref_law, barycenter, ref_poisson):
    kw = dict(horizon=256, paths=2000, seed=51)
    # on this law |S - M| = |Theta(X_n) - Theta(X_0)| reaches about A / 9, so
    # the bound fails once A is shrunk to A / 20
    slack = ref_poisson.interp_slack
    batches = simulate_paths(ref_law, barycenter, 1.0, poisson=ref_poisson, **kw)
    records = oracles.simulate_paths(ref_law, barycenter, 1.0, poisson=ref_poisson, **kw)
    gap, violations = martingale_gap(batches, ref_poisson.A / 20, slack=slack)
    assert violations > 0 and gap > ref_poisson.A / 20
    assert (gap, violations) == oracles.martingale_gap(records, ref_poisson.A / 20, slack=slack)
    want = (gap, violations, oracles.exit_ordering_violations(records, ref_poisson.A / 20))
    shrunk = dataclasses.replace(ref_poisson, A=ref_poisson.A / 20)
    assert martingale_guards(ref_law, barycenter, 1.0, poisson=shrunk, **kw) == want
    # a potential twenty times too large lets M reach -A while S is still positive
    scaled = dataclasses.replace(
        ref_poisson, theta=GridFunction(ref_poisson.theta.grid, 20.0 * ref_poisson.theta.values)
    )
    batches = simulate_paths(ref_law, barycenter, 1.0, poisson=scaled, **kw)
    records = oracles.simulate_paths(ref_law, barycenter, 1.0, poisson=scaled, **kw)
    bad = exit_ordering_violations(batches, ref_poisson.A)
    assert bad > 0 and bad == oracles.exit_ordering_violations(records, ref_poisson.A)
    want = (*oracles.martingale_gap(records, ref_poisson.A, slack=slack), bad)
    assert martingale_guards(ref_law, barycenter, 1.0, poisson=scaled, **kw) == want


def test_martingale_guards_hold_no_trajectory(ref_law, barycenter, ref_poisson):
    """At validate's default budget, 4000 paths x 512 steps, the guards allocate
    O(paths): a (horizon + 1, paths) float row pair would be 33 MB."""
    kw = dict(horizon=_DEFAULTS["validate"]["martingale_horizon"], paths=_DEFAULTS["validate"]["martingale_paths"])
    assert (kw["horizon"], kw["paths"]) == (512, 4000)
    tracemalloc.start()
    try:
        martingale_guards(ref_law, barycenter, 1.0, seed=51, poisson=ref_poisson, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_martingale_guards_refuse_d3(barycenter, ref_poisson):
    law = MatrixLaw.from_entries(np.random.default_rng(36).random((4, 3, 3)) + 0.05)
    with pytest.raises(ValueError, match="d = 2 tabulated potential"):
        martingale_guards(law, SimplexVector.barycenter(3), 1.0, 8, 10, 0, ref_poisson)


def test_martingale_mean_is_conserved(ref_law, barycenter, ref_poisson):
    # E[M_n] = a at every n, not only at the horizon: a wrong-sign potential
    # breaks it at small n and can pass at n = 64
    batches = simulate_paths(ref_law, barycenter, 1.0, 64, 20000, seed=52, poisson=ref_poisson)
    M = np.concatenate([b.M[1:] for b in batches], axis=1)
    se = M.std(axis=1, ddof=1) / math.sqrt(M.shape[1])
    z = (M.mean(axis=1) - 1.0) / se
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


def test_level_grid_agrees_with_single_level_runs(ref_law, barycenter):
    """Each level of a shared-path grid against its own independent run."""
    levels = [0.5, 1.5, 3.0, 6.0]
    schedule = [8, 32, 128, 256]
    grid = estimate_V(ref_law, barycenter, levels, schedule, 20000, seed=63)
    singles = np.random.SeedSequence(64).spawn(len(levels))
    for level, est, ss in zip(levels, grid, singles, strict=True):
        alone = estimate_V(ref_law, barycenter, level, schedule, 20000, ss)
        assert est.start_a == level
        z = (est.estimates - alone.estimates) / np.hypot(est.stderrs, alone.stderrs)
        assert np.all(np.abs(z) <= 4.0), (level, z)
        p_se = np.sqrt((est.survival * (1 - est.survival) + alone.survival * (1 - alone.survival)) / 20000)
        assert np.all(np.abs(est.survival - alone.survival) <= 4.0 * np.maximum(p_se, 1.0 / 20000)), level
    # the grid must span killed and nearly free levels for the check to bite
    assert grid[0].survival[-1] < 0.3 and grid[-1].survival[0] == 1.0


def test_survival_reported_next_to_v(ref_law, barycenter):
    est = estimate_V(ref_law, barycenter, 1.0, [2, 4, 6], 30000, seed=22)
    curve = survival_probability(ref_law, barycenter, 1.0, [2, 4, 6], 30000, seed=22)
    assert np.array_equal(est.survival, curve.p_hat)
    n = est.plateau_n or est.n_schedule[-1]
    assert est.reported_survival == est.survival[list(est.n_schedule).index(n)]


def test_estimate_v_flags_drifting_walk(barycenter):
    law = scalar_law((1.1, 0.5), (1.05, 0.5))
    est = estimate_V(law, barycenter, 1.0, [4, 8, 16, 32], 2000, seed=62)
    assert not est.converged
    assert np.all(np.diff(est.estimates) > 0.0)


# ---------------------------------------------------------------------------
# exact-answer lattice laws
#
# Multiples of the identity step every path by the same log-factor, and
# log e^{+-1}, log e^{+-2} are exact in float64, so the walk stays on the
# integers and its exit at S = 0 is exact.  These laws are centred.

# steps +2 w.p. 1/3 and -1 w.p. 2/3: skip-free downward, so from an integer
# level the walk exits exactly at 0 and V_n = a at every n; sigma^2 = 2
SKIP_FREE_STEPS = [(2, 1 / 3), (-1, 2 / 3)]


def _lattice_law(steps) -> MatrixLaw:
    return scalar_law(*[(math.exp(step), w) for step, w in steps])


def test_survival_matches_lattice_dp(barycenter):
    n_values = (64, 256, 1024)
    paths = 100_000
    exact, killed = oracles.lattice_killed_walk(SKIP_FREE_STEPS, 3, n_values)
    # the DP itself: V_n = a, and sqrt(n) P(tau > n) tends to the paper's
    # constant 2 V / (sigma sqrt(2 pi)) with V = 3 and sigma^2 = 2
    assert np.allclose(killed, 3.0, rtol=1e-12, atol=0.0)
    scaled = np.sqrt(n_values) * exact
    assert np.allclose(scaled, [1.6705, 1.6870, 1.6912], rtol=0.0, atol=5e-5)
    limit = 2.0 * 3.0 / (math.sqrt(2.0) * math.sqrt(2.0 * math.pi))
    assert np.all(np.diff(np.abs(scaled - limit)) < 0.0) and abs(scaled[-1] - limit) < 2e-3
    curve = survival_probability(_lattice_law(SKIP_FREE_STEPS), barycenter, 3.0, n_values, paths, seed=91)
    z = (curve.p_hat - exact) / np.sqrt(exact * (1.0 - exact) / paths)
    assert np.all(np.abs(z) <= 4.0), z


def test_level_tuple_matches_lattice_dp(barycenter):
    levels = (1, 2, 3, 5)
    schedule = (16, 64, 256)
    paths = 40_000
    grid = estimate_V(_lattice_law(SKIP_FREE_STEPS), barycenter, [float(a) for a in levels], schedule, paths, 92)
    for a, est in zip(levels, grid, strict=True):
        exact, _ = oracles.lattice_killed_walk(SKIP_FREE_STEPS, a, schedule)
        z = (est.survival - exact) / np.sqrt(exact * (1.0 - exact) / paths)
        assert np.all(np.abs(z) <= 4.0), (a, z)
        assert np.all(np.abs(est.estimates - a) <= 4.0 * est.stderrs), (a, est.estimates)


# steps +1 w.p. 2/3 and -2 w.p. 1/3: the walk exits at 0 or -1, and
# V(a) = a + 1/3 - (1/3)(-1/2)^a for integer a >= 1
OVERSHOOT_STEPS = [(1, 2 / 3), (-2, 1 / 3)]

# the plateau rule stops before paths from the high levels have had the time
# to exit, so V_hat stays near a there
_FALSE_PLATEAU = pytest.mark.xfail(
    strict=True, reason="false plateau: estimate_V stops early at large a (ROADMAP V item, optional stopping)"
)


@pytest.mark.parametrize("a", [1, 2, 4] + [pytest.param(a, marks=_FALSE_PLATEAU) for a in (8, 16, 71)])
def test_estimate_v_matches_overshoot_law(barycenter, a):
    """``estimate_V`` at the CLI's schedule and level-grid budget against the exact V."""
    sim = _DEFAULTS["simulate"]
    est = estimate_V(_lattice_law(OVERSHOOT_STEPS), barycenter, float(a), sim["v_schedule"], sim["a_paths"], 11)
    exact = a + 1.0 / 3.0 - (-0.5) ** a / 3.0
    z = (est.V_hat - exact) / est.V_stderr
    assert abs(z) <= 4.0, z


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
