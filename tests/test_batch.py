"""The walk kernels against the generic (m, d) reference kernels in ``oracles``.

The library carries the walk state as one coordinate row per simplex
coordinate in every dimension and sums left to right.  At d = 2 every
output equals the ``einsum`` reference bit for bit.  At d >= 3 it equals the
left-fold reference bit for bit, and the ``einsum`` reference, whose
summation order is numpy's own, to rounding level with the same survivors.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from conefluct import MatrixLaw, SimplexVector, _batch
from conefluct.fixtures import reference_law
from conefluct.matrix_core import left_product

import oracles

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import centered_law  # noqa: E402


def _law(name: str) -> MatrixLaw:
    if name == "reference":
        return reference_law()
    rng = np.random.default_rng(20240917)
    dim = {"random-d2k64": 2, "d3k64": 3, "d4k64": 4}[name]
    spec = centered_law(rng, dim=dim, atoms_count=64, smoke=True)
    return MatrixLaw.from_entries(spec["atoms"], spec["weights"])


# at a = 16 many early steps kill nobody, so the survival kernel's skipped
# compaction is compared as well
CASES = [
    ("reference", 1.0),
    ("reference", 8.0),
    ("reference", 16.0),
    ("random-d2k64", 1.0),
    ("d3k64", 1.0),
    ("d4k64", 1.0),
]
SIZE = 5000

# distance allowed between the library and the einsum reference at d >= 3,
# where only the order of the sums differs: per-path values are O(1), so this
# is about 100 ulp absolute; survivor sums of 5000 paths are held to it
# relative
EINSUM_TOL = 1e-12


def _assert_close(got, want, rtol: float = 0.0, atol: float = 0.0) -> None:
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=rtol, atol=atol)


def _probes(cum: np.ndarray, rng) -> np.ndarray:
    """Random uniforms, every bin edge and its predecessor, each cumulative
    weight and its neighbours one ulp away, and both ends of [0, 1)."""
    bins = 1 << _batch.GUIDE_BITS
    edges = np.arange(bins + 1) / bins
    u = np.concatenate(
        [
            rng.random(500_000),
            edges[:-1],
            np.nextafter(edges[1:], 0.0),
            np.nextafter(cum, 0.0),
            cum,
            np.nextafter(cum, 2.0),
            [0.0, 1.0 - 2.0**-53],
        ]
    )
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("K", [1, 2, 64, 1000, 20000, "repeat", "over"])
def test_draw_indices_matches_searchsorted(K):
    rng = np.random.default_rng(17)
    if K == "repeat":  # 0.6 + 0.4 rounds to 1.0, so 1.0 appears twice
        weights = np.array([0.6, 0.4, 1e-14])
    elif K == "over":  # the running sum passes 1.0 before the closing entry
        weights = np.array([0.6, 0.4 + 1e-13, 1e-14])
    else:
        weights = rng.random(K) + 0.01
        weights /= weights.sum()
    cum = MatrixLaw.from_entries([np.ones((2, 2))] * len(weights), weights).cum_weights
    u = _probes(cum, rng)
    got = _batch.draw_indices(_batch.guide_table(cum), u)
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


@pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a:g}" for n, a in CASES])
def test_survival_chunk_matches_einsum_reference(name, a):
    """A one-level tuple is the plain killed walk: row 0 against the reference, bit for bit."""
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n_values = (1, 2, 3, 10, 50, 200, 400)
    head = (law.atom_stack, law.cum_weights, x0)
    tail = (n_values, True, SIZE, np.random.SeedSequence(11))
    got = _batch.survival_chunk(*head, (a,), *tail)
    assert all(g.shape == (1, len(n_values)) for g in got[:3])
    got = [g[0] for g in got[:3]] + [got[3]]
    einsum = oracles.survival_chunk(*head, a, *tail)
    want = einsum if law.dim == 2 else oracles.survival_chunk(*head, a, *tail, stepper=oracles.left_fold_step)
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    assert len(got[3]) == len(want[3]) == len(n_values)
    for g, w in zip(got[3], want[3]):
        assert np.array_equal(g, w)
    # the einsum order moves d >= 3 floats at rounding level, never a survivor
    assert np.array_equal(got[0], einsum[0])
    _assert_close(got[1], einsum[1], rtol=EINSUM_TOL)
    _assert_close(got[2], einsum[2], rtol=EINSUM_TOL)
    for g, w in zip(got[3], einsum[3]):
        _assert_close(g, w, atol=EINSUM_TOL)
    # the run must kill paths, or compaction goes unchecked
    assert 0 < got[0][-1] < SIZE


# levels of a few sigma (0.42 for the reference law, 0.16 for d3k64), so by
# n = 400 every level loses paths and the top one keeps some
LEVEL_CASES = [
    ("reference", (0.5, 1.0, 2.5, 6.0)),
    ("d3k64", (0.1, 0.3, 0.7, 1.6)),
]


@pytest.mark.parametrize("name,levels", LEVEL_CASES, ids=[n for n, _ in LEVEL_CASES])
def test_multilevel_survival_chunk_matches_masked_reference(name, levels):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n_values = (1, 2, 3, 10, 50, 200, 400)
    stepper = oracles.projective_step if law.dim == 2 else oracles.left_fold_step
    got = _batch.survival_chunk(
        law.atom_stack, law.cum_weights, x0, levels, n_values, False, SIZE, np.random.SeedSequence(13)
    )
    want = oracles.multilevel_survival_chunk(
        law.atom_stack, law.cum_weights, x0, levels, n_values, SIZE, np.random.SeedSequence(13), stepper=stepper
    )
    # the kernel adds a_l - a_0 to a walk carried from a_0, the reference
    # carries a_l itself, so values agree to rounding and survivors exactly
    assert np.array_equal(got[0], want[0])
    _assert_close(got[1], want[1], rtol=EINSUM_TOL)
    _assert_close(got[2], want[2], rtol=EINSUM_TOL)
    assert got[3] == []
    # every level loses paths, the top level keeps some, and the levels differ
    assert np.all(got[0][:, -1] < SIZE) and got[0][-1, -1] > 0
    assert np.all(np.diff(got[0][:, -1]) > 0)


# NaN and infinite levels pass the ``np.diff`` check, since every comparison
# with NaN is False; a bare number is not a sequence
@pytest.mark.parametrize("levels", [(), (1.0, 1.0), (2.0, 1.0), (1.0, np.nan), (np.nan,), (1.0, np.inf), 1.0])
def test_survival_chunk_refuses_bad_levels(levels):
    law = _law("reference")
    with pytest.raises(ValueError, match="strictly increasing sequence of finite numbers"):
        _batch.survival_chunk(law.atom_stack, law.cum_weights, (0.5, 0.5), levels, (1,), False, 10, 0)


@pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a:g}" for n, a in CASES])
def test_walk_chunk_matches_einsum_reference(name, a):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n = 60
    s_steps = (1, 2, 7, 30, 60)
    rho_steps = (1, 5, 6, 59, 60)
    x_steps = (1, 3, 60)
    head = (law.atom_stack, law.cum_weights, x0, a, n, s_steps, rho_steps, x_steps)
    einsum = oracles.walk_chunk(*head, SIZE, np.random.SeedSequence(12))
    want = einsum
    if law.dim > 2:
        want = oracles.walk_chunk(*head, SIZE, np.random.SeedSequence(12), stepper=oracles.left_fold_step)
    got = _batch.walk_chunk(*head, True, SIZE, np.random.SeedSequence(12))
    for g, w, e in zip(got, want, einsum, strict=True):
        assert np.array_equal(g, w)
        _assert_close(g, e, atol=EINSUM_TOL)
    assert got[3].shape == (SIZE, law.dim)
    bare = _batch.walk_chunk(*head, False, SIZE, np.random.SeedSequence(12))
    assert bare[3] is None
    for g, w in zip(bare[:3], want[:3]):
        assert np.array_equal(g, w)


# the id keeps its d = 2 name; the d >= 3 laws run the same step
@pytest.mark.parametrize("name", ["reference", "random-d2k64", "d3k64", "d4k64"])
def test_d2_step_follows_left_product(name):
    law = _law(name)
    x = SimplexVector.barycenter(law.dim)
    words = np.random.default_rng(5).integers(0, law.support_size, size=(40, 4))
    table = _batch.step_table(law.atom_stack)
    X = _batch._start(law.atom_stack, x.coords, words.shape[1])
    S = np.full(words.shape[1], 0.5)
    for idx in words:
        X, rho = _batch.projective_step(table, idx, X)
        S = S + rho
    points = np.stack(X, axis=1)
    for p in range(words.shape[1]):
        end, traj = left_product([law.atoms[k] for k in words[:, p]], x, 0.5)
        assert abs(S[p] - traj[-1]) < 1e-12
        assert np.max(np.abs(points[p] - end.coords)) < 1e-12
