"""Grid-discretized transfer operator: invariant weights, drift, variance,
eigenvalue family, and the potential (the centered-walk compensator)."""

import cmath
import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conefluct import (
    ConvergenceError,
    GridFunction,
    MatrixLaw,
    SimplexGrid,
    SimplexVector,
    act,
    apply_P,
    calibrate,
    dominant_eigenvalue,
    lyapunov_exact,
    solve_poisson,
    stationary_measure,
)
from conefluct.fixtures import reference_law_text
from conefluct.theorem_validation import sigma2_agreement
from conefluct.transfer_operator import _gmres, _gordin_sigma2, _Workspace
from conftest import scalar_law

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import weak_law  # noqa: E402


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


def _same_bits(got, want) -> bool:
    return type(got) is type(want) and np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


# floor(x * (G - 1)) is one node too high one ulp below some node at G = 6
# and 1001, and one node too low at some node at G = 512, 1000 and 4096, so
# both corrections of the guess are exercised
@pytest.mark.parametrize("G", [2, 3, 6, 512, 513, 1000, 1001, 4096])
def test_interp_equals_numpy_bit_for_bit(G):
    """The index lookup gives ``np.interp``'s values bit for bit, inside and outside [0, 1].

    numpy precomputes its slopes only when it reads at least as many points
    as there are nodes, so every probe set is read whole and cut below ``G``.
    """
    rng = np.random.default_rng(G)
    grid = SimplexGrid(G)
    f = GridFunction(grid, rng.standard_normal(G) * 10.0 ** rng.integers(-3, 4, G))
    nodes = grid.params
    probes = [
        nodes,
        np.nextafter(nodes, -np.inf),
        np.nextafter(nodes, np.inf),
        np.array([0.0, 1.0, -0.1, 1.1]),
        rng.random(100_000),
    ]
    for x in probes:
        for part in (x, x[: max(1, G // 2)]):
            assert _same_bits(f.interp(part), np.interp(part, nodes, f.values))
    for x in (0.0, 1.0, -0.1, 1.1, float(rng.random())):
        assert _same_bits(f.interp(x), np.interp(x, nodes, f.values))


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
    # the adjoint is one bincount over the stencil entries, bit-identical to
    # the per-atom np.add.at loops it replaces; the row-wise stencil product
    # is the dense matrix's, up to summation order
    ws = _Workspace(ref_law if K == 2 else _random_law(K), SimplexGrid(G))
    nu = np.random.default_rng(G).random(G)
    assert np.array_equal(ws.apply_adjoint(nu), oracles.apply_adjoint(ws, nu))
    if G <= 512:
        np.testing.assert_allclose(ws.apply_stencil(nu), oracles.dense(ws) @ nu, rtol=1e-14, atol=0.0)


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
    sol = solve_poisson(centered_scalar_law, stationary_measure(centered_scalar_law, grid))
    assert sol.sigma2 == pytest.approx(0.25, abs=1e-8)


def test_sigma2_degenerate_law_is_zero():
    law = scalar_law((1.0, 1.0))
    grid = SimplexGrid(64)
    assert solve_poisson(law, stationary_measure(law, grid)).sigma2 == 0.0


def test_sigma2_matches_manifest(ref_poisson, ref_manifest):
    assert ref_poisson.sigma2 == pytest.approx(ref_manifest["sigma2"], rel=ref_manifest["sigma2_rel_tolerance"])


def test_kappa_matches_manifest(ref_law, grid, ref_manifest):
    _, kappa = dominant_eigenvalue(ref_law, grid, ref_manifest["sigma2_h"])
    assert kappa == pytest.approx(ref_manifest["kappa_power"], abs=0.05)


def test_grid_refinement_stability(ref_law, ref_nu, grid, ref_manifest):
    coarse = SimplexGrid(256)
    nu_c = stationary_measure(ref_law, coarse)
    assert abs(lyapunov_exact(ref_law, nu_c) - lyapunov_exact(ref_law, ref_nu)) < 1e-5
    s2_c = solve_poisson(ref_law, nu_c).sigma2
    assert abs(s2_c - ref_manifest["sigma2"]) < 1e-4


@pytest.mark.parametrize("G", [64, 512])
@pytest.mark.parametrize("law_name", ["reference", "weak", "random64"])
def test_gordin_sigma2_matches_eigenvalue_curvature(ref_law, law_name, G):
    # two routes to the variance of the same discretized chain: the
    # martingale increments of the potential, and the curvature of the
    # twisted operator's eigenvalue modulus; the weak and random laws drift
    law = {"reference": ref_law, "weak": _weak_law(), "random64": _random_law(64)}[law_name]
    grid = SimplexGrid(G)
    sol = solve_poisson(law, stationary_measure(law, grid))
    assert sol.sigma2 == pytest.approx(oracles.curvature_sigma2(law, grid), rel=1e-5)


def test_sigma2_does_not_see_the_drift(ref_law):
    # calibration shifts every increment by the same constant, which the
    # variance must not see; 2 (1 - Re lambda_h) / h^2 read sigma^2 + gamma^2
    # here (1.8696 on the base law against 0.1747)
    meta = json.loads(reference_law_text())["metadata"]
    base = MatrixLaw.from_entries([np.array(m) for m in meta["base_entries"]], np.array(meta["base_weights"]))
    grid = SimplexGrid(512)
    nu_base = stationary_measure(base, grid)
    gamma = lyapunov_exact(base, nu_base)
    assert gamma > 1.0
    centred = calibrate(base, gamma)
    s_base = solve_poisson(base, nu_base).sigma2
    s_centred = solve_poisson(centred, stationary_measure(centred, grid)).sigma2
    assert s_base == pytest.approx(s_centred, rel=1e-12)


def test_sigma2_agreement_fails_for_a_wrong_potential(ref_law, ref_nu, ref_poisson, grid):
    # negative control: validate's Monte Carlo variance at seed 7 and default
    # budgets, against sigma^2 from the true potential and from wrong ones
    # (-Theta is 17.6% low, Theta = 0 is 9.3% low, 2 Theta is 10.2% high)
    mc, mc_se = 0.17397907972904328, 0.0014173443819249056
    ws = _Workspace(ref_law, grid)
    theta = ref_poisson.theta.values

    def agrees(potential):
        return sigma2_agreement(_gordin_sigma2(ws, ref_nu.values, ref_poisson.drift, potential), mc, mc_se)

    assert _gordin_sigma2(ws, ref_nu.values, ref_poisson.drift, theta) == ref_poisson.sigma2
    assert agrees(theta)
    for wrong in (-theta, np.zeros_like(theta), 2.0 * theta):
        assert not agrees(wrong)


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


def _weak_law():
    spec = weak_law(np.random.default_rng(7))
    return MatrixLaw.from_entries(list(np.asarray(spec["atoms"])), np.asarray(spec["weights"]))


@pytest.mark.parametrize("G", [64, 512])
@pytest.mark.parametrize("law_name", ["reference", "weak", "random64", "scalar"])
def test_krylov_check_matches_dense_lu(ref_law, centered_scalar_law, law_name, G):
    # the dense LU solve the GMRES cross-check replaced is its reference here;
    # both routes must call the identity-action system singular
    law = {"reference": ref_law, "weak": _weak_law(), "random64": _random_law(64), "scalar": centered_scalar_law}[law_name]
    grid = SimplexGrid(G)
    nu_grid = stationary_measure(law, grid)
    nu = nu_grid.values
    ws = _Workspace(law, grid)
    rhs = ws.rho_bar() - float(nu @ ws.rho_bar())
    krylov = _gmres(lambda v: v - ws.apply_stencil(v) + nu @ v, rhs, 1e-13, G)
    system = np.eye(G) - oracles.dense(ws) + np.outer(np.ones(G), nu)
    if law_name == "scalar":
        assert krylov is None
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(system, rhs)
        return
    lu = np.linalg.solve(system, rhs)
    assert np.abs(krylov - lu).max() <= 1e-12
    sol = solve_poisson(law, nu_grid)
    assert sol.dense_gap == pytest.approx(np.abs(sol.theta.values - lu).max(), abs=1e-12)


def test_gmres_edge_cases():
    # a zero right-hand side returns 0 at once; on a cyclic shift the residual
    # stays |b| until the Krylov space is the whole space, so a cap of 4 < 8 raises
    assert np.array_equal(_gmres(lambda v: v, np.zeros(8), 1e-13, 8), np.zeros(8))
    assert np.allclose(_gmres(lambda v: np.roll(v, 1), np.eye(8)[0], 1e-13, 8), np.eye(8)[7])
    with pytest.raises(ConvergenceError, match="GMRES"):
        _gmres(lambda v: np.roll(v, 1), np.eye(8)[0], 1e-13, 4)


@pytest.mark.parametrize("law_name", ["reference", "weak"])
def test_krylov_check_can_fail(ref_law, grid, law_name):
    # a series truncated at 1e-4 is off by about that much; the check sees it
    law = ref_law if law_name == "reference" else _weak_law()
    sol = solve_poisson(law, stationary_measure(law, grid), tol=1e-4)
    assert sol.dense_gap > 1e-6


@pytest.mark.parametrize("law_name", ["reference", "weak"])
def test_poisson_memory_is_linear_in_resolution(ref_law, ref_manifest, law_name):
    # a dense G x G matrix at G = 16384 would take 2 GiB
    law = ref_law if law_name == "reference" else _weak_law()
    nu = stationary_measure(law, SimplexGrid(16384))
    tracemalloc.start()
    try:
        sol = solve_poisson(law, nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"solve_poisson peak {peak / 2**20:.1f} MiB"
    assert sol.dense_gap < 1e-7
    if law_name == "reference":
        assert sol.A == pytest.approx(ref_manifest["A"], abs=ref_manifest["A_tolerance"])
