"""Law-level layer: standing hypotheses, drift estimation, calibration."""

import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conefluct import (
    MatrixLaw,
    PositiveMatrix,
    act,
    calibrate,
    check_P1,
    check_P3,
    check_P5,
    contraction_coeff,
    convolution_contraction,
    estimate_lyapunov,
    hennion_distance,
    hypothesis_report,
    random_simplex_point,
    _batch,
    matrix_law,
)
from conftest import scalar_law
from oracles import convolution_contraction_loop, enumerate_word_products

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import centered_law  # noqa: E402


def _law(*entry_weight_pairs):
    entries = [np.asarray(e, dtype=float) for e, _ in entry_weight_pairs]
    weights = np.array([w for _, w in entry_weight_pairs])
    return MatrixLaw.from_entries(entries, weights)


# ---------------------------------------------------------------------------
# construction


def test_law_validation():
    g = np.eye(2)
    with pytest.raises(ValueError, match="at least one atom"):
        MatrixLaw.from_entries([], np.array([]))
    with pytest.raises(ValueError, match="one weight per atom"):
        MatrixLaw.from_entries([g], np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="strictly positive"):
        MatrixLaw.from_entries([g, 2 * g], np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="sum to 1"):
        MatrixLaw.from_entries([g, 2 * g], np.array([0.6, 0.5]))
    with pytest.raises(ValueError, match="dimension"):
        MatrixLaw.from_entries([np.eye(2), np.eye(3)], np.array([0.5, 0.5]))


def test_law_cached_arrays(ref_law):
    stack = ref_law.atom_stack
    assert stack.shape == (2, 2, 2)
    assert np.array_equal(stack[0], ref_law.atoms[0].entries)
    cw = ref_law.cum_weights
    assert cw[-1] == 1.0 and np.all(np.diff(cw) > 0)
    assert ref_law.interior


def test_cum_weights_stay_sorted_when_the_running_sum_passes_one():
    # the weights sum to 1 within the 1e-12 tolerance, but the running sum
    # passes 1.0 before the last atom; the clamped array stays nondecreasing
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    law = _law((g, 0.6), (2 * g, 0.4 + 1e-13), (3 * g, 1e-14))
    cw = law.cum_weights
    assert np.array_equal(cw, [0.6, 1.0, 1.0])
    u = np.concatenate([np.random.default_rng(3).random(100_000), [0.0, 0.6, np.nextafter(1.0, 0.0)]])
    assert np.array_equal(_batch.draw_indices(_batch.guide_table(cw), u), np.searchsorted(cw, u, side="right"))


@pytest.mark.parametrize("dim", [2, 3])
def test_cum_weights_unchanged_below_one(ref_law, dim):
    # no clamp fires while the running sum stays at or below 1.0: the
    # reference law and K = 64 laws keep the plain cumulative sum bit for bit
    spec = centered_law(np.random.default_rng(20240917), dim=dim, atoms_count=64, smoke=True)
    for law in (ref_law, MatrixLaw.from_entries(spec["atoms"], spec["weights"])):
        old = np.cumsum(law.weights)
        old[-1] = 1.0
        assert np.array_equal(law.cum_weights, old)


# ---------------------------------------------------------------------------
# standing hypotheses


def test_p1_single_atom_worked_example():
    law = _law(([[3.0, 2.0], [2.0, 4.0]], 1.0))
    assert check_P1(law, 1.0) == pytest.approx(6.0, abs=1e-12)


def test_p1_mixture_worked_example():
    law = _law(([[1.0, 1.0], [1.0, 1.0]], 0.5), ([[1.0, 2.0], [1.0, 1.0]], 0.5))
    assert check_P1(law, 2.0) == pytest.approx(6.5, abs=1e-12)
    with pytest.raises(ValueError):
        check_P1(law, 0.0)


def test_p3_interior_is_immediate(ref_law):
    assert check_P3(ref_law) == 1


def test_p3_needs_two_steps():
    law = _law(([[1.0, 1.0], [1.0, 0.0]], 1.0))
    assert check_P3(law) == 2


def test_p3_mixture_reaches_positivity():
    law = _law((np.eye(2), 0.5), ([[1.0, 1.0], [1.0, 0.0]], 0.5))
    assert check_P3(law) == 2


def test_p3_permutation_never_positive():
    law = _law(([[0.0, 1.0], [1.0, 0.0]], 1.0))
    assert check_P3(law) is None


def test_p3_triangular_never_positive():
    law = _law(([[1.0, 1.0], [0.0, 1.0]], 1.0))
    assert check_P3(law) is None


def test_p5_worked_example():
    law = _law(([[2.0, 1.0], [1.0, 2.0]], 1.0))
    assert check_P5(law) == pytest.approx(math.log(3.0), abs=1e-12)


def test_p5_contracting_law_fails():
    law = scalar_law((0.5, 1.0))
    assert check_P5(law) < 0.0


# ---------------------------------------------------------------------------
# drift estimation and calibration


def test_lyapunov_deterministic_scalar(barycenter):
    law = scalar_law((1.7, 1.0))
    gamma, se = estimate_lyapunov(law, barycenter, n=64, paths=256, seed=3)
    assert gamma == pytest.approx(math.log(1.7), abs=1e-13)
    assert se <= 1e-15


def test_lyapunov_mixture_scalar(barycenter):
    law = scalar_law((2.0, 0.5), (0.5, 0.5))
    gamma, se = estimate_lyapunov(law, barycenter, n=256, paths=4096, seed=5)
    assert se > 0.0
    assert abs(gamma) <= 4.0 * se


def test_calibrate_shifts_estimate_exactly(barycenter):
    base = _law(([[3.0, 2.0], [2.0, 4.0]], 0.5), ([[1.0, 2.0], [1.0, 1.0]], 0.5))
    g0, se0 = estimate_lyapunov(base, barycenter, n=128, paths=2048, seed=11)
    shifted = calibrate(base, 0.3)
    g1, se1 = estimate_lyapunov(shifted, barycenter, n=128, paths=2048, seed=11)
    assert g1 == pytest.approx(g0 - 0.3, abs=1e-12)
    assert se1 == pytest.approx(se0, abs=1e-12)


def test_calibrated_fixture_is_centered(ref_law, ref_manifest, barycenter):
    gamma, se = estimate_lyapunov(ref_law, barycenter, n=1024, paths=20000, seed=13)
    assert abs(gamma) <= max(3.0 * se, 1e-3)


# ---------------------------------------------------------------------------
# convolution contraction


def test_convolution_contraction_identity_law():
    law = scalar_law((1.0, 1.0))
    for n in (1, 2, 4):
        assert convolution_contraction(law, n) == convolution_contraction_loop(law, n) == 1.0


def test_convolution_contraction_rank_one():
    law = _law(([[1.0, 2.0], [1.0, 2.0]], 1.0))
    assert convolution_contraction(law, 1) == convolution_contraction_loop(law, 1) == 0.0
    assert convolution_contraction(law, 3) == convolution_contraction_loop(law, 3) == 0.0


def test_convolution_contraction_matches_manifest(ref_law, ref_manifest):
    pinned = ref_manifest["convolution_contraction"]
    for n_str, value in pinned.items():
        assert convolution_contraction(ref_law, int(n_str)) == pytest.approx(value, abs=1e-12)


def test_convolution_contraction_monotone_and_bounded(ref_law):
    values = [convolution_contraction(ref_law, n) for n in range(1, 6)]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    worst_atom = max(contraction_coeff(g) for g in ref_law.atoms)
    for n, value in enumerate(values, start=1):
        assert value <= worst_atom**n + 1e-12


def test_convolution_contraction_dominates_interior_pairs(ref_law, rng):
    n = 3
    exact = convolution_contraction(ref_law, n)
    products = enumerate_word_products(ref_law, n)
    for _ in range(30):
        x = random_simplex_point(2, rng)
        y = random_simplex_point(2, rng)
        dxy = hennion_distance(x, y)
        if dxy < 1e-6:
            continue
        mean = sum(
            w * hennion_distance(act(PositiveMatrix(p), x)[0], act(PositiveMatrix(p), y)[0])
            for p, w in products
        )
        assert mean / dxy <= exact + 1e-9


def test_convolution_contraction_budget_and_sampled(ref_law):
    with pytest.raises(ValueError, match="budget"):
        convolution_contraction(ref_law, 20, budget=1000)


def _zero_law():
    # d = 3, K = 5, with zero entries, so some column pairs of a product have
    # support on one coordinate fewer than the other
    rng = np.random.default_rng(20240919)
    atoms = rng.uniform(0.0, 2.0, (5, 3, 3))
    atoms[atoms < 0.6] = 0.0
    atoms[:, 0, :] += 0.1
    return MatrixLaw.from_entries(list(atoms), rng.dirichlet(np.ones(5)))


def test_convolution_contraction_matches_loop_on_reference_law(ref_law):
    for n in range(1, 13):
        assert convolution_contraction(ref_law, n) == convolution_contraction_loop(ref_law, n)


def test_convolution_contraction_matches_loop_on_d3k64_law():
    spec = centered_law(np.random.default_rng(20240918), dim=3, atoms_count=64, smoke=True)
    law = MatrixLaw.from_entries(spec["atoms"], spec["weights"])
    for n in (1, 2):
        assert convolution_contraction(law, n) == convolution_contraction_loop(law, n)


def test_convolution_contraction_matches_loop_with_zero_entries():
    law = _zero_law()
    # 5^6 = 15625 products: three full stacks and a partial one
    assert 5**6 > matrix_law._PRODUCT_BLOCK and 5**6 % matrix_law._PRODUCT_BLOCK != 0
    for n in (1, 2, 5, 6):
        assert convolution_contraction(law, n) == convolution_contraction_loop(law, n)


def test_convolution_contraction_disjoint_supports_is_one():
    # diagonal atoms: every product maps the vertices to themselves, whose
    # supports are not nested, so every pair is at distance exactly 1
    law = _law(([[2.0, 0.0], [0.0, 1.0]], 0.3), ([[1.0, 0.0], [0.0, 3.0]], 0.7))
    for n in (1, 3, 7):
        assert convolution_contraction(law, n) == convolution_contraction_loop(law, n) == 1.0


@pytest.mark.parametrize("block", [1, 3, 7, 30])
def test_convolution_contraction_any_block_size(monkeypatch, ref_law, block):
    # small stacks reach every branch: a block below the support size holds
    # one letter's worth of words, and stacks split mid-level
    monkeypatch.setattr(matrix_law, "_PRODUCT_BLOCK", block)
    for law, n in ((ref_law, 5), (_zero_law(), 3)):
        assert convolution_contraction(law, n) == convolution_contraction_loop(law, n)


def test_convolution_contraction_refuses_overflow_and_underflow():
    for scale in (1e200, 1e-200):
        law = _law(([[scale, scale], [scale, 2.0 * scale]], 0.5), ([[scale, 0.0], [scale, scale]], 0.5))
        assert convolution_contraction(law, 1) > 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="column"):
                convolution_contraction(law, 2)
            with pytest.raises(ValueError):
                convolution_contraction_loop(law, 2)


def test_convolution_contraction_memory_is_bounded(ref_law):
    # 2^17 = 131072 products, near the enumeration budget; as one stack their
    # entries alone would take 4 MiB
    tracemalloc.start()
    try:
        value = convolution_contraction(ref_law, 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < value < convolution_contraction(ref_law, 12)
    assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# hypothesis battery


def test_hypothesis_report_passes_on_fixture(ref_law, barycenter):
    report = hypothesis_report(ref_law, barycenter, seed=7)
    assert report.failures() == []
    assert report.all_pass
    assert report.p3_n0 == 1
    assert report.p5_margin > 0.0
    assert report.p1_moment > 1.0
    assert report.sigma2_proxy > report.sigma2_threshold
    assert "invariant affine set" in report.p2_note


def test_hypothesis_report_flags_drift(barycenter):
    law = scalar_law((0.5, 1.0))
    report = hypothesis_report(law, barycenter, seed=7, n=128, paths=512)
    messages = "\n".join(report.failures())
    assert not report.all_pass
    assert "drift" in messages
    assert "expansion" in messages
    assert "non-degeneracy" in messages


def test_hypothesis_report_flags_positivity(barycenter):
    law = _law(([[0.0, 1.0], [1.0, 0.0]], 1.0))
    report = hypothesis_report(law, barycenter, seed=7, n=64, paths=256)
    assert "positivity" in "\n".join(report.failures())
