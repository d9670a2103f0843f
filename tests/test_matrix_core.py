"""Projective geometry layer: norms, cocycle, metric, contraction."""

import math

import numpy as np
import pytest

from conefluct import (
    PositiveMatrix,
    SimplexVector,
    act,
    contraction_coeff,
    hennion_distance,
    left_product,
    matrix_norms,
    random_simplex_point,
)
from conefluct.matrix_core import _min_ratio, hennion_distances
from oracles import dense_walk_log, hennion_scalar


def _random_matrix(rng, dim, zeros=False):
    entries = rng.uniform(0.2, 3.0, size=(dim, dim))
    if zeros:
        i, j = rng.integers(0, dim, size=2)
        entries[i, j] = 0.0
        # never zero out a full column
        entries[(i + 1) % dim, j] = max(entries[(i + 1) % dim, j], 0.5)
    return PositiveMatrix(entries)


# ---------------------------------------------------------------------------
# construction and validation


def test_matrix_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        PositiveMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2"):
        PositiveMatrix(np.ones((1, 1)))
    with pytest.raises(ValueError, match="negative"):
        PositiveMatrix(np.array([[1.0, -0.1], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        PositiveMatrix(np.array([[1.0, np.inf], [1.0, 1.0]]))
    with pytest.raises(ValueError, match="column"):
        PositiveMatrix(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_simplex_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        SimplexVector(np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([1.2, -0.2]))
    with pytest.raises(ValueError):
        SimplexVector(np.array([1.0]))


def test_simplex_constructors():
    b = SimplexVector.barycenter(3)
    assert np.allclose(b.coords, 1.0 / 3.0)
    v = SimplexVector.vertex(3, 1)
    assert v.coords[1] == 1.0 and v.coords.sum() == 1.0
    n = SimplexVector.normalized(np.array([2.0, 6.0]))
    assert np.allclose(n.coords, [0.25, 0.75])
    with pytest.raises(ValueError):
        SimplexVector.normalized(np.array([0.0, 0.0]))


def test_interior_flag():
    assert PositiveMatrix(np.array([[3.0, 2.0], [2.0, 4.0]])).interior
    assert not PositiveMatrix(np.array([[1.0, 1.0], [0.0, 1.0]])).interior


def test_matmul_is_matrix_product(rng):
    g = _random_matrix(rng, 3)
    h = _random_matrix(rng, 3)
    assert np.allclose((g @ h).entries, g.entries @ h.entries)


# ---------------------------------------------------------------------------
# norms and the cocycle


def test_norms_worked_example():
    g = PositiveMatrix(np.array([[3.0, 2.0], [2.0, 4.0]]))
    v, norm, N = matrix_norms(g)
    assert v == 5.0 and norm == 6.0 and N == 6.0


def test_norms_small_matrix_uses_reciprocal():
    g = PositiveMatrix(np.array([[0.1, 0.1], [0.1, 0.1]]))
    v, norm, N = matrix_norms(g)
    assert v == pytest.approx(0.2) and N == pytest.approx(5.0)


def test_act_worked_example(barycenter):
    g = PositiveMatrix(np.array([[3.0, 2.0], [2.0, 4.0]]))
    y, rho = act(g, barycenter)
    assert np.allclose(y.coords, [5.0 / 11.0, 6.0 / 11.0])
    assert rho == pytest.approx(math.log(5.5), abs=1e-14)


def test_act_is_column_sum_functional(rng):
    for dim in (2, 3, 4):
        for _ in range(25):
            g = _random_matrix(rng, dim)
            x = random_simplex_point(dim, rng)
            y, rho = act(g, x)
            direct = g.entries @ x.coords
            assert np.allclose(y.coords, direct / direct.sum(), atol=1e-14)
            assert rho == pytest.approx(math.log(g.entries.sum(axis=0) @ x.coords), abs=1e-12)


def test_cocycle_identity(rng):
    for _ in range(50):
        g = _random_matrix(rng, 3)
        h = _random_matrix(rng, 3)
        x = random_simplex_point(3, rng)
        hx, rho_h = act(h, x)
        _, rho_g = act(g, hx)
        _, rho_gh = act(g @ h, x)
        assert rho_gh == pytest.approx(rho_g + rho_h, abs=1e-10)


def test_rho_between_log_norms(rng):
    for _ in range(50):
        g = _random_matrix(rng, 3, zeros=True)
        x = random_simplex_point(3, rng)
        v, norm, _ = matrix_norms(g)
        _, rho = act(g, x)
        assert math.log(v) - 1e-12 <= rho <= math.log(norm) + 1e-12


def test_scaling_shifts_rho_only(rng):
    g = _random_matrix(rng, 2)
    x = random_simplex_point(2, rng)
    y, rho = act(g, x)
    y2, rho2 = act(g.scaled(0.25), x)
    assert np.array_equal(y.coords, y2.coords)
    assert rho2 == pytest.approx(rho + math.log(0.25), abs=1e-12)


def test_left_product_matches_dense_oracle(rng):
    for dim in (2, 3):
        for _ in range(10):
            gs = [_random_matrix(rng, dim) for _ in range(30)]
            x = random_simplex_point(dim, rng)
            _, S = left_product(gs, x, a=0.7)
            expected = dense_walk_log([g.entries for g in gs], x.coords, a=0.7)
            assert np.allclose(S, expected, atol=1e-9)


def test_left_product_final_point(rng):
    gs = [_random_matrix(rng, 2) for _ in range(5)]
    x = random_simplex_point(2, rng)
    x_final, S = left_product(gs, x)
    y = x
    for g in gs:
        y, _ = act(g, y)
    assert np.allclose(x_final.coords, y.coords, atol=1e-14)
    assert S[0] == 0.0 and len(S) == 6


# ---------------------------------------------------------------------------
# projective metric


def test_min_ratio_worked_example():
    x = SimplexVector(np.array([0.5, 0.5]))
    y = SimplexVector(np.array([1.0 / 3.0, 2.0 / 3.0]))
    assert _min_ratio(x.coords, y.coords) == pytest.approx(0.75, abs=1e-12)
    assert _min_ratio(y.coords, x.coords) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_distance_worked_example():
    x = SimplexVector(np.array([0.5, 0.5]))
    y = SimplexVector(np.array([1.0 / 3.0, 2.0 / 3.0]))
    assert hennion_distance(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_distance_extremes():
    e1, e2 = SimplexVector.vertex(2, 0), SimplexVector.vertex(2, 1)
    assert hennion_distance(e1, e2) == 1.0
    assert hennion_distance(e1, e1) == 0.0


def test_array_distance_matches_scalar_distance(rng):
    # random interior points, points on faces (zero coordinates), vertices and
    # repeated points; the array routine agrees with the scalar one and with
    # a coordinate-by-coordinate Python evaluation bit for bit
    for dim in (2, 3, 5):
        pts = [random_simplex_point(dim, rng).coords for _ in range(20)]
        for _ in range(10):
            c = rng.dirichlet(np.ones(dim))
            c[rng.integers(0, dim, size=dim - 1)] = 0.0
            pts.append(c / c.sum())
        pts += [np.eye(dim)[i] for i in range(dim)]
        X = np.array(pts)
        a, b = np.meshgrid(np.arange(len(X)), np.arange(len(X)), indexing="ij")
        got = hennion_distances(X[a], X[b])
        assert got.shape == a.shape
        for p, q in zip(a.ravel(), b.ravel()):
            want = hennion_distance(SimplexVector(X[p]), SimplexVector(X[q]))
            assert got[p, q] == want == hennion_scalar(X[p], X[q])
        assert np.all(np.diag(got) == 0.0)


def test_metric_axioms(rng):
    for dim in (2, 3, 5):
        for _ in range(60):
            x = random_simplex_point(dim, rng)
            y = random_simplex_point(dim, rng)
            z = random_simplex_point(dim, rng)
            dxy = hennion_distance(x, y)
            assert 0.0 <= dxy <= 1.0
            assert hennion_distance(x, x) == pytest.approx(0.0, abs=1e-12)
            assert dxy == pytest.approx(hennion_distance(y, x), abs=1e-12)
            assert dxy <= hennion_distance(x, z) + hennion_distance(z, y) + 1e-12


def test_distance_dominates_l1(rng):
    for dim in (2, 3, 5):
        for _ in range(200):
            x = random_simplex_point(dim, rng)
            y = random_simplex_point(dim, rng)
            l1 = float(np.abs(x.coords - y.coords).sum())
            assert l1 <= 2.0 * hennion_distance(x, y) + 1e-9


# ---------------------------------------------------------------------------
# contraction coefficient


def test_contraction_worked_examples():
    sym = PositiveMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert contraction_coeff(sym) == pytest.approx(0.6, abs=1e-12)
    ident = PositiveMatrix(np.eye(2))
    assert contraction_coeff(ident) == 1.0
    rank_one = PositiveMatrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
    assert contraction_coeff(rank_one) == 0.0
    triangular = PositiveMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert contraction_coeff(triangular) == 1.0


def test_contraction_bounds_distance(rng):
    for dim in (2, 3):
        for _ in range(40):
            g = _random_matrix(rng, dim)
            c = contraction_coeff(g)
            assert 0.0 <= c < 1.0  # interior
            for _ in range(5):
                x = random_simplex_point(dim, rng)
                y = random_simplex_point(dim, rng)
                gx, _ = act(g, x)
                gy, _ = act(g, y)
                assert hennion_distance(gx, gy) <= c * hennion_distance(x, y) + 1e-12


def test_contraction_submultiplicative(rng):
    for _ in range(40):
        g = _random_matrix(rng, 3, zeros=True)
        h = _random_matrix(rng, 3, zeros=True)
        assert contraction_coeff(g @ h) <= contraction_coeff(g) * contraction_coeff(h) + 1e-12


def test_contraction_interior_iff_less_than_one(rng):
    for _ in range(40):
        g = _random_matrix(rng, 2, zeros=rng.random() < 0.5)
        c = contraction_coeff(g)
        if g.interior:
            assert c < 1.0
        rank = np.linalg.matrix_rank(g.entries)
        if c == 1.0:
            assert not g.interior


def test_contraction_cross_check_agrees(rng):
    for _ in range(20):
        g = _random_matrix(rng, 3)
        base = contraction_coeff(g)
        checked = contraction_coeff(g, check_pairs=200, rng=rng)
        assert checked == pytest.approx(base, abs=1e-12)
