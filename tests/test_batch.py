"""The walk kernels against the generic einsum reference in ``oracles``.

The d = 2 kernels carry the state as two coordinate rows; every output must
still equal the (m, d) einsum reference bit for bit, at d = 2 and d = 3.
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
    dim = 2 if name == "random-d2k64" else 3
    spec = centered_law(rng, dim=dim, atoms_count=64, smoke=True)
    return MatrixLaw.from_entries(spec["atoms"], spec["weights"])


# at a = 16 many early steps kill nobody, so the survival kernel's skipped
# compaction is compared as well
CASES = [("reference", 1.0), ("reference", 8.0), ("reference", 16.0), ("random-d2k64", 1.0), ("d3k64", 1.0)]
SIZE = 5000


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
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n_values = (1, 2, 3, 10, 50, 200, 400)
    args = (law.atom_stack, law.cum_weights, x0, a, n_values, True, SIZE)
    got = _batch.survival_chunk(*args, np.random.SeedSequence(11))
    want = oracles.survival_chunk(*args, np.random.SeedSequence(11))
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    assert len(got[3]) == len(want[3]) == len(n_values)
    for g, w in zip(got[3], want[3]):
        assert np.array_equal(g, w)
    # the run must kill paths, or compaction goes unchecked
    assert 0 < got[0][-1] < SIZE


@pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a:g}" for n, a in CASES])
def test_walk_chunk_matches_einsum_reference(name, a):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n = 60
    s_steps = (1, 2, 7, 30, 60)
    rho_steps = (1, 5, 6, 59, 60)
    x_steps = (1, 3, 60) if law.dim == 2 else ()
    head = (law.atom_stack, law.cum_weights, x0, a, n, s_steps, rho_steps, x_steps)
    want = oracles.walk_chunk(*head, SIZE, np.random.SeedSequence(12))
    got = _batch.walk_chunk(*head, True, SIZE, np.random.SeedSequence(12))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert got[3].shape == (SIZE, law.dim)
    bare = _batch.walk_chunk(*head, False, SIZE, np.random.SeedSequence(12))
    assert bare[3] is None
    for g, w in zip(bare[:3], want[:3]):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("name", ["reference", "random-d2k64"])
def test_d2_step_follows_left_product(name):
    law = _law(name)
    x = SimplexVector.barycenter(2)
    words = np.random.default_rng(5).integers(0, law.support_size, size=(40, 4))
    table = _batch.step_table(law.atom_stack)
    X = _batch._start(x.coords, words.shape[1])
    S = np.full(words.shape[1], 0.5)
    for idx in words:
        X, rho = _batch.projective_step(table, idx, X)
        S = S + rho
    points = _batch._points(X)
    for p in range(words.shape[1]):
        end, traj = left_product([law.atoms[k] for k in words[:, p]], x, 0.5)
        assert abs(S[p] - traj[-1]) < 1e-12
        assert np.max(np.abs(points[p] - end.coords)) < 1e-12
