"""Grid-discretized transfer operator: invariant weights, drift, variance,
eigenvalue family, and the potential (the centered-walk compensator)."""

import cmath
import math

import numpy as np
import pytest

from conefluct import (
    ConvergenceError,
    DegenerateLawError,
    GridFunction,
    MatrixLaw,
    SimplexGrid,
    SimplexVector,
    act,
    apply_P,
    dominant_eigenvalue,
    lyapunov_exact,
    sigma2_spectral,
    solve_poisson,
    stationary_measure,
)
from conefluct.transfer_operator import _Workspace, richardson_sigma2
from conftest import scalar_law

import oracles


@pytest.fixture(scope="module")
def grid():
    return SimplexGrid(512)


@pytest.fixture(scope="module")
def ref_nu(ref_law, grid):
    return stationary_measure(ref_law, grid)


@pytest.fixture(scope="module")
def ref_poisson(ref_law, ref_nu):
    return solve_poisson(ref_law, ref_nu)


# ---------------------------------------------------------------------------
# grid plumbing


def test_grid_nodes_cover_the_edge():
    g = SimplexGrid(5)
    assert np.allclose(g.params, [0.0, 0.25, 0.5, 0.75, 1.0])
    nodes = g.nodes()
    assert np.allclose(nodes.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        SimplexGrid(1)


def test_grid_function_validation_and_interp(grid):
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(3))
    f = GridFunction(grid, grid.params**2)
    assert np.allclose(f.interp(grid.params), f.values, atol=1e-15)
    assert f.interp(0.5) == pytest.approx(0.25, abs=1e-5)


def test_operator_refuses_other_dimensions():
    law3 = MatrixLaw.from_entries([np.eye(3) + 1.0], np.array([1.0]))
    with pytest.raises(ValueError, match="Monte Carlo"):
        stationary_measure(law3, SimplexGrid(64))


# ---------------------------------------------------------------------------
# operator action


def test_constants_are_preserved_exactly(ref_law, grid):
    ones = GridFunction(grid, np.ones(grid.resolution))
    out = apply_P(ref_law, ones)
    assert np.array_equal(out.values, np.ones(grid.resolution))


def test_operator_is_positive_and_averaging(ref_law, grid):
    f = GridFunction(grid, grid.params)
    out = apply_P(ref_law, f).values
    assert np.all(out >= -1e-15) and np.all(out <= 1.0 + 1e-15)


def _random_law(K: int) -> MatrixLaw:
    rng = np.random.default_rng(20240918)
    return MatrixLaw.from_entries(list(rng.uniform(0.1, 3.0, size=(K, 2, 2))), rng.dirichlet(np.ones(K)))


@pytest.mark.parametrize("K", [2, 64])
@pytest.mark.parametrize("G", [64, 512, 4096])
def test_scatter_list_matches_add_at_loops(ref_law, K, G):
    # the adjoint and the dense matrix are one bincount over the stencil
    # entries, bit-identical to the per-atom np.add.at loops they replace
    ws = _Workspace(ref_law if K == 2 else _random_law(K), SimplexGrid(G))
    nu = np.random.default_rng(G).random(G)
    assert np.array_equal(ws.apply_adjoint(nu), oracles.apply_adjoint(ws, nu))
    if G <= 512:
        assert np.array_equal(ws.dense(), oracles.dense(ws))


# ---------------------------------------------------------------------------
# stationary measure and drift


def test_stationary_measure_is_a_distribution(ref_nu):
    nu = ref_nu.values
    assert np.all(nu >= 0.0)
    assert nu.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_measure_invariance_residual(ref_law, ref_nu, grid):
    for probe in (grid.params, grid.params**2, np.cos(np.pi * grid.params), np.exp(grid.params)):
        f = GridFunction(grid, probe)
        lhs = float(ref_nu.values @ apply_P(ref_law, f).values)
        rhs = float(ref_nu.values @ probe)
        assert abs(lhs - rhs) < 1e-8


def test_stationary_measure_single_atom_concentrates():
    law = MatrixLaw.from_entries([np.array([[2.0, 1.0], [1.0, 2.0]])], np.array([1.0]))
    grid = SimplexGrid(256)
    nu = stationary_measure(law, grid)
    mean = float(nu.values @ grid.params)
    assert mean == pytest.approx(0.5, abs=1e-9)


def test_lyapunov_single_atom_is_log_spectral_radius():
    grid = SimplexGrid(512)
    law = MatrixLaw.from_entries([np.array([[2.0, 1.0], [1.0, 2.0]])], np.array([1.0]))
    nu = stationary_measure(law, grid)
    assert lyapunov_exact(law, nu) == pytest.approx(math.log(3.0), abs=1e-9)
    law2 = MatrixLaw.from_entries([np.array([[3.0, 2.0], [2.0, 4.0]])], np.array([1.0]))
    nu2 = stationary_measure(law2, grid)
    expected = math.log((7.0 + math.sqrt(17.0)) / 2.0)
    assert lyapunov_exact(law2, nu2) == pytest.approx(expected, abs=1e-5)


def test_lyapunov_scalar_mixture_is_exact(centered_scalar_law):
    grid = SimplexGrid(64)
    nu = stationary_measure(centered_scalar_law, grid)
    assert lyapunov_exact(centered_scalar_law, nu) == pytest.approx(0.0, abs=1e-14)


def test_fixture_drift_vanishes(ref_law, ref_nu, ref_manifest):
    gamma = lyapunov_exact(ref_law, ref_nu)
    assert abs(gamma) < ref_manifest["gamma_tolerance"]


def test_stationary_measure_raises_without_budget(ref_law, grid):
    with pytest.raises(ConvergenceError):
        stationary_measure(ref_law, grid, tol=1e-10, max_iter=2)


# ---------------------------------------------------------------------------
# eigenvalue family and variance


def test_eigenvalue_at_zero_is_one(ref_law, grid):
    lam, kappa = dominant_eigenvalue(ref_law, grid, 0.0)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= kappa < 1.0


def test_eigenvalue_modulus_below_one(ref_law, grid):
    for t in (0.02, 0.05, 0.1):
        lam, _ = dominant_eigenvalue(ref_law, grid, t)
        assert abs(lam) <= 1.0 + 1e-12


def test_eigenvalue_scalar_mixture_closed_form(centered_scalar_law):
    grid = SimplexGrid(64)
    for t in (0.05, 0.2):
        lam, _ = dominant_eigenvalue(centered_scalar_law, grid, t)
        assert lam == pytest.approx(math.cos(0.5 * t), abs=1e-12)


def test_eigenvalue_argument_recovers_drift():
    base = MatrixLaw.from_entries(
        [np.array([[3.0, 2.0], [2.0, 4.0]]), np.array([[1.0, 2.0], [1.0, 1.0]])],
        np.array([0.5, 0.5]),
    )
    grid = SimplexGrid(512)
    nu = stationary_measure(base, grid)
    gamma = lyapunov_exact(base, nu)
    t = 0.01
    lam, _ = dominant_eigenvalue(base, grid, t)
    assert cmath.phase(lam) / t == pytest.approx(gamma, rel=5e-3)


def test_sigma2_scalar_mixture_closed_form(centered_scalar_law):
    grid = SimplexGrid(64)
    assert sigma2_spectral(centered_scalar_law, grid) == pytest.approx(0.25, abs=1e-8)


def test_sigma2_degenerate_law_is_zero():
    law = scalar_law((1.0, 1.0))
    assert sigma2_spectral(law, SimplexGrid(64)) == 0.0


def test_richardson_refuses_negative_extrapolation():
    with pytest.raises(DegenerateLawError, match="degenerate"):
        richardson_sigma2(1.0, 1.0 + 1e-6, 0.05)
    assert richardson_sigma2(1.0, 1.0 + 1e-13, 0.05) == 0.0  # rounding-level negatives clamp to zero
    h = 0.05
    gaussian = [cmath.exp(-0.25 * t**2 / 2.0) for t in (h, h / 2.0)]
    assert richardson_sigma2(*gaussian, h) == pytest.approx(0.25, abs=1e-6)


def test_sigma2_matches_manifest(ref_law, grid, ref_manifest):
    s2 = sigma2_spectral(ref_law, grid, h=ref_manifest["sigma2_h"])
    assert s2 == pytest.approx(ref_manifest["sigma2"], rel=ref_manifest["sigma2_rel_tolerance"])


def test_kappa_matches_manifest(ref_law, grid, ref_manifest):
    _, kappa = dominant_eigenvalue(ref_law, grid, ref_manifest["sigma2_h"])
    assert kappa == pytest.approx(ref_manifest["kappa_power"], abs=0.05)


def test_grid_refinement_stability(ref_law, ref_nu, grid, ref_manifest):
    coarse = SimplexGrid(256)
    nu_c = stationary_measure(ref_law, coarse)
    assert abs(lyapunov_exact(ref_law, nu_c) - lyapunov_exact(ref_law, ref_nu)) < 1e-5
    s2_c = sigma2_spectral(ref_law, coarse)
    assert abs(s2_c - ref_manifest["sigma2"]) < 1e-4


# ---------------------------------------------------------------------------
# potential (Poisson equation for the centered increment)


def test_poisson_solution_shape(ref_poisson, ref_manifest):
    sol = ref_poisson
    assert sol.residual < 1e-8
    assert sol.dense_gap < 1e-7
    assert abs(sol.drift) < ref_manifest["gamma_tolerance"]
    assert sol.A == pytest.approx(2.0 * float(np.max(np.abs(sol.theta.values))), abs=1e-14)
    assert sol.A == pytest.approx(ref_manifest["A"], abs=ref_manifest["A_tolerance"])
    assert sol.truncation_n == ref_manifest["poisson_truncation_n"]
    assert sol.tail_bound < 1e-10


def test_poisson_theta_is_centered(ref_poisson, ref_nu):
    assert float(ref_nu.values @ ref_poisson.theta.values) == pytest.approx(0.0, abs=1e-9)


def test_poisson_equation_holds_pointwise(ref_law, ref_poisson, grid):
    theta = GridFunction(grid, ref_poisson.theta.values)
    lhs = theta.values - apply_P(ref_law, theta).values
    ws_rho_bar = np.zeros(grid.resolution)
    for g, w in zip(ref_law.atoms, ref_law.weights):
        for i, t in enumerate(grid.params):
            _, rho = act(g, SimplexVector(np.array([t, 1.0 - t])))
            ws_rho_bar[i] += w * rho
    rhs = ws_rho_bar - ref_poisson.drift
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_poisson_trivial_for_scalar_mixture(centered_scalar_law):
    grid = SimplexGrid(64)
    nu = stationary_measure(centered_scalar_law, grid)
    sol = solve_poisson(centered_scalar_law, nu)
    assert np.allclose(sol.theta.values, 0.0, atol=1e-14)
    assert sol.A <= 1e-14
