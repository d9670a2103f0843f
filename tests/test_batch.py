"""The walk kernels against the generic (m, d) reference kernels in ``oracles``.

The library carries the walk state as one coordinate row per simplex
coordinate in every dimension and sums left to right.  Laws that step by
letters (one atom, more than 64 atoms, or word products out of the float
range): at d = 2 every output equals the ``einsum`` reference bit for bit,
and at d >= 3 it equals the left-fold reference bit for bit and the
``einsum`` reference, whose summation order is numpy's own, to rounding
level with the same survivors.  Laws of 2 to 64 atoms step by words of b
letters; against the word-decoding references, which step every letter of
every word, survivor counts match exactly and values to rounding level.
"""

import itertools
import multiprocessing
import os
import sys
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
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
    if name == "one-atom":
        return MatrixLaw.from_entries([[[0.5, 0.3], [0.2, 0.4]]])
    if name == "k3":  # weights with no short binary expansion, so word bins split
        ref = reference_law().atom_stack
        return MatrixLaw.from_entries([ref[0], ref[1], [[0.5, 0.7], [0.6, 0.4]]], [0.45, 0.35, 0.2])
    rng = np.random.default_rng(20240917)
    dim, atoms_count = {"random-d2k64": (2, 64), "d3k64": (3, 64), "d4k64": (4, 64), "d3k65": (3, 65)}[name]
    spec = centered_law(rng, dim=dim, atoms_count=atoms_count, smoke=True)
    return MatrixLaw.from_entries(spec["atoms"], spec["weights"])


# at a = 16 many early steps kill nobody, so the survival kernel's skipped
# compaction is compared as well.  Every law but d3k65 steps by words, against
# the word-decoding references: the reference law by b = 8 letters, the K = 3
# law by b = 7 and the 64-atom laws by b = 2, drawn from 4096 words through a
# 2**16-bin guide with split bins.  d3k65 has 65 atoms, so b = 1: it holds
# the d = 3 letter step to the left-fold reference bit for bit
CASES = [
    ("reference", 1.0),
    ("reference", 8.0),
    ("reference", 16.0),
    ("k3", 1.0),
    ("random-d2k64", 1.0),
    ("d3k64", 1.0),
    ("d3k65", 1.0),
    ("d4k64", 1.0),
]
SIZE = 5000

# distance allowed between the library and the einsum reference at d >= 3,
# where only the order of the sums differs: per-path values are O(1), so this
# is about 100 ulp absolute; survivor sums of 5000 paths are held to it
# relative
EINSUM_TOL = 1e-12

# distance allowed between a word kernel and the word-decoding reference: a
# word's log-mass and end point round differently from its letters', by a few
# ulp per word
WORD_TOL = 1e-12


def _one_chunk(kernel, *args):
    """One chunk through a group kernel; ``args`` end with the chunk's size and seed."""
    *head, size, ss = args
    (result,) = kernel(*head, [size], [ss])
    return result


def _words(law: MatrixLaw) -> bool:
    return _batch.word_length(law.support_size) > 1


def _assert_mid_word_exits(exits: np.ndarray, spans: list) -> None:
    """Some exit falls strictly inside a drawn word, so the prefix masses decided it."""
    inside = np.zeros(exits.max() + 1, dtype=bool)
    for start, end in spans:
        inside[start + 1 : end] = True
    assert inside[exits[exits > 0]].any()


def _assert_close(got, want, rtol: float = 0.0, atol: float = 0.0) -> None:
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=rtol, atol=atol)


def _probes(cum: np.ndarray, guide, rng) -> np.ndarray:
    """Random uniforms, every bin edge of ``guide`` and its predecessor, each
    cumulative weight and its neighbours one ulp away, and both ends of [0, 1)."""
    bins = guide[3]
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


# raw cumulative weights on 2**12 bins: bins 409 and 1228 hold two distinct
# values inside, bin 2457 one value twice (a zero weight), bin 3686 a value
# once; 0.25 repeats on a bin edge and 0.0 opens the list with a zero weight
CROWDED = np.array([0.0, 0.1, 0.1 + 1e-6, 0.25, 0.25, 0.3, 0.3 + 2e-5, 0.6, 0.6, 0.9, 1.0])


@pytest.mark.parametrize("K", [1, 2, 64, 1000, 20000, "repeat", "over", "crowded", "d3k64-words"])
def test_draw_indices_matches_searchsorted(K):
    rng = np.random.default_rng(17)
    if K == "crowded":
        cum = CROWDED
    elif K == "d3k64-words":  # one weight inside each of 4095 of 2**16 bins
        law = _law("d3k64")
        cum = _batch.word_table(law.atom_stack, law.cum_weights).guide[0]
    else:
        if K == "repeat":  # 0.6 + 0.4 rounds to 1.0, so 1.0 appears twice
            weights = np.array([0.6, 0.4, 1e-14])
        elif K == "over":  # the running sum passes 1.0 before the closing entry
            weights = np.array([0.6, 0.4 + 1e-13, 1e-14])
        else:
            weights = rng.random(K) + 0.01
            weights /= weights.sum()
        cum = MatrixLaw.from_entries([np.ones((2, 2))] * len(weights), weights).cum_weights
    guide = _batch.guide_table(cum)
    if K == "crowded":  # the two-entry bins take the binary search, the others the compare
        marker, bins = guide[2], guide[3]
        assert bins == 2**12 and np.flatnonzero(guide[1] == marker).tolist() == [409, 1228, 2457]
        assert guide[4]
    u = _probes(cum, guide, rng)
    got = _batch.draw_indices(guide, u)
    assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


def test_draw_skips_the_compare_when_every_weight_is_on_a_bin_edge():
    """The reference law's weights and words fall on bin edges: its draws read ``lo`` alone."""
    law = reference_law()
    for guide in (_batch.guide_table(law.cum_weights), _batch.word_table(law.atom_stack, law.cum_weights).guide):
        assert guide[2] is None and not guide[4]
        # with every weight replaced by -inf, a compare would add one to every index
        u = np.random.default_rng(19).random(10_000)
        poisoned = (np.full_like(guide[0], -np.inf),) + guide[1:]
        assert np.array_equal(_batch.draw_indices(poisoned, u), np.searchsorted(guide[0], u, side="right"))


def test_guide_table_grows_with_the_stack():
    """4096 words fall inside at most 1/8 of their guide's bins, one to a bin; no guide exceeds 2**16 bins."""
    law = _law("d3k64")
    words = _batch.word_table(law.atom_stack, law.cum_weights)
    assert words.length == 2 and words.guide[0].shape == (4096,)
    cum, lo, marker, bins, inside = words.guide
    assert bins == 2**16 and lo.shape == (bins,) and lo.dtype.itemsize <= 4
    scaled = cum * bins
    held = np.bincount(np.floor(scaled[scaled != np.floor(scaled)]).astype(np.intp), minlength=bins)
    assert inside and 0 < np.count_nonzero(held) <= bins // 8
    # so no uniform of this draw reaches the binary search
    assert held.max() == 1 and marker is None
    # a law of 256 atoms or words keeps 2**12 bins
    assert _batch.guide_table(reference_law().cum_weights)[3] == 2**12
    assert _batch.word_table(reference_law().atom_stack, reference_law().cum_weights).guide[3] == 2**12
    weights = np.random.default_rng(18).random(20000) + 0.01
    cum = MatrixLaw.from_entries([np.ones((2, 2))] * weights.size, weights / weights.sum()).cum_weights
    _, lo, _, bins, _ = _batch.guide_table(cum)
    assert bins == 2**16 and lo.shape == (bins,)


@pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a:g}" for n, a in CASES])
def test_survival_chunk_matches_einsum_reference(name, a):
    """A one-level tuple is the plain killed walk: row 0 against the reference.

    Letter laws match bit for bit; word laws match the word-decoding
    reference in every count, and in values to ``WORD_TOL``.
    """
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n_values = (1, 2, 3, 10, 50, 200, 400)
    head = (law.atom_stack, law.cum_weights, x0)
    tail = (n_values, True, SIZE, np.random.SeedSequence(11))
    got = _one_chunk(_batch.survival_chunk, *head, (a,), *tail)
    assert all(g.shape == (1, len(n_values)) for g in got[:3])
    got = [g[0] for g in got[:3]] + [got[3]]
    # the run must kill paths, or compaction goes unchecked
    assert 0 < got[0][-1] < SIZE
    assert len(got[3]) == len(n_values)
    if _words(law):
        counts, sums, sums2, samples, exits, spans = oracles.word_survival_chunk(*head, (a,), *tail)
        assert np.array_equal(got[0], counts[0])
        _assert_close(got[1], sums[0], rtol=WORD_TOL)
        _assert_close(got[2], sums2[0], rtol=WORD_TOL)
        for g, w in zip(got[3], samples, strict=True):
            _assert_close(g, w, atol=WORD_TOL)
        _assert_mid_word_exits(exits, spans)
        return
    einsum = oracles.survival_chunk(*head, a, *tail)
    want = einsum if law.dim == 2 else oracles.survival_chunk(*head, a, *tail, stepper=oracles.left_fold_step)
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g, w)
    assert len(want[3]) == len(n_values)
    for g, w in zip(got[3], want[3]):
        assert np.array_equal(g, w)
    # the einsum order moves d >= 3 floats at rounding level, never a survivor
    assert np.array_equal(got[0], einsum[0])
    _assert_close(got[1], einsum[1], rtol=EINSUM_TOL)
    _assert_close(got[2], einsum[2], rtol=EINSUM_TOL)
    for g, w in zip(got[3], einsum[3]):
        _assert_close(g, w, atol=EINSUM_TOL)


# levels of a few sigma (0.42 for the reference law, 0.16 for d3k64), so by
# n = 400 every level loses paths and the top one keeps some
LEVEL_CASES = [
    ("reference", (0.5, 1.0, 2.5, 6.0)),
    ("k3", (0.5, 1.0, 2.5, 6.0)),
    ("d3k64", (0.1, 0.3, 0.7, 1.6)),
    ("d3k65", (0.1, 0.3, 0.7, 1.6)),
]


@pytest.mark.parametrize("name,levels", LEVEL_CASES, ids=[n for n, _ in LEVEL_CASES])
def test_multilevel_survival_chunk_matches_masked_reference(name, levels):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n_values = (1, 2, 3, 10, 50, 200, 400)
    stepper = oracles.projective_step if law.dim == 2 else oracles.left_fold_step
    args = (law.atom_stack, law.cum_weights, x0, levels, n_values, False, SIZE)
    got = _one_chunk(_batch.survival_chunk, *args, np.random.SeedSequence(13))
    head = (law.atom_stack, law.cum_weights, x0, levels, n_values)
    if _words(law):
        want = oracles.word_survival_chunk(*head, False, SIZE, np.random.SeedSequence(13), stepper=stepper)
        # lower levels die inside words too, read by the running minimum
        for exits in want[4][:-1]:
            _assert_mid_word_exits(exits, want[5])
    else:
        want = oracles.multilevel_survival_chunk(*head, SIZE, np.random.SeedSequence(13), stepper=stepper)
    # the kernel adds a_l - a_0 to a walk carried from a_0, the reference
    # carries a_l itself, so values agree to rounding and survivors exactly
    assert np.array_equal(got[0], want[0])
    _assert_close(got[1], want[1], rtol=EINSUM_TOL)
    _assert_close(got[2], want[2], rtol=EINSUM_TOL)
    assert got[3] == []
    # every level loses paths, the top level keeps some, and the levels differ
    assert np.all(got[0][:, -1] < SIZE) and got[0][-1, -1] > 0
    assert np.all(np.diff(got[0][:, -1]) > 0)


@pytest.mark.parametrize("name", ["reference", "k3"])
def test_word_exits_match_at_every_word_end(name):
    """Reported at every word end, the kernel's counts place each exit, at every level, in its word.

    With reports every b steps the kernel still steps by words only, and
    the reference's letter-by-letter exit steps give every count.
    """
    law = _law(name)
    b = _batch.word_length(law.support_size)
    n_values = tuple(range(b, 401, b))
    args = (law.atom_stack, law.cum_weights, (0.5, 0.5), (0.5, 1.0, 2.5), n_values, False, SIZE)
    got = _one_chunk(_batch.survival_chunk, *args, np.random.SeedSequence(14))
    exits, spans = oracles.word_survival_chunk(*args, np.random.SeedSequence(14))[4:]
    assert spans == [(n - b, n) for n in n_values]
    alive = (exits[:, :, None] == 0) | (exits[:, :, None] > np.array(n_values))
    assert np.array_equal(got[0], alive.sum(axis=1))
    for level_exits in exits:
        _assert_mid_word_exits(level_exits, spans)


# NaN and infinite levels pass the ``np.diff`` check, since every comparison
# with NaN is False; a bare number is not a sequence
@pytest.mark.parametrize("levels", [(), (1.0, 1.0), (2.0, 1.0), (1.0, np.nan), (np.nan,), (1.0, np.inf), 1.0])
def test_survival_chunk_refuses_bad_levels(levels):
    law = _law("reference")
    with pytest.raises(ValueError, match="strictly increasing sequence of finite numbers"):
        _one_chunk(_batch.survival_chunk, law.atom_stack, law.cum_weights, (0.5, 0.5), levels, (1,), False, 10, 0)


@pytest.mark.parametrize("name,a", CASES, ids=[f"{n}-a{a:g}" for n, a in CASES])
def test_walk_chunk_matches_einsum_reference(name, a):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    n = 60
    s_steps = (1, 2, 7, 30, 60)
    rho_steps = (1, 5, 6, 59, 60)
    x_steps = (1, 3, 60)
    head = (law.atom_stack, law.cum_weights, x0, a, n, s_steps, rho_steps, x_steps)
    got = _one_chunk(_batch.walk_chunk, *head, True, SIZE, np.random.SeedSequence(12))
    bare = _one_chunk(_batch.walk_chunk, *head, False, SIZE, np.random.SeedSequence(12))
    assert got[3].shape == (SIZE, law.dim)
    assert bare[3] is None
    if _words(law):
        want = oracles.word_walk_chunk(*head, SIZE, np.random.SeedSequence(12))
        for g, w in zip(got, want, strict=True):
            _assert_close(g, w, atol=WORD_TOL)
        for g, w in zip(bare[:3], got[:3]):
            assert np.array_equal(g, w)
        return
    einsum = oracles.walk_chunk(*head, SIZE, np.random.SeedSequence(12))
    want = einsum
    if law.dim > 2:
        want = oracles.walk_chunk(*head, SIZE, np.random.SeedSequence(12), stepper=oracles.left_fold_step)
    for g, w, e in zip(got, want, einsum, strict=True):
        assert np.array_equal(g, w)
        _assert_close(g, e, atol=EINSUM_TOL)
    for g, w in zip(bare[:3], want[:3]):
        assert np.array_equal(g, w)


def test_word_length():
    Ks = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 64, 65)
    assert [_batch.word_length(K) for K in Ks] == [1, 8, 7, 6, 5, 4, 4, 4, 3, 3, 2, 2, 1]
    for K in range(1, 300):
        assert _batch.word_length(K) == oracles.word_length(K)


def test_one_atom_law_steps_by_letters():
    """b = 1 for one atom: no word stack, and both kernels are the letter kernels, bit for bit."""
    law = _law("one-atom")
    assert _batch.word_table(law.atom_stack, law.cum_weights) is None
    x0 = SimplexVector.barycenter(2).coords
    head = (law.atom_stack, law.cum_weights, x0)
    n_values = (5, 50, 400)
    got = _one_chunk(_batch.survival_chunk, *head, (3.0,), n_values, True, 100, np.random.SeedSequence(3))
    want = oracles.survival_chunk(*head, 3.0, n_values, True, 100, np.random.SeedSequence(3))
    for g, w in zip(got[:3], want[:3]):
        assert np.array_equal(g[0], w)
    assert want[0][0] == 100 and want[0][-1] == 0  # every path steps by log 0.7: all exit at step 9
    walk = (*head, 0.0, 400, (400,), (), (400,))
    got = _one_chunk(_batch.walk_chunk, *walk, True, 100, np.random.SeedSequence(4))
    want = oracles.walk_chunk(*walk, 100, np.random.SeedSequence(4))
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


def _word_letters(K: int, b: int, w: int) -> list:
    """The letters of word ``w``, first to act first: its base-K digits, most significant first."""
    return [w // K ** (b - 1 - j) % K for j in range(b)]


@pytest.mark.parametrize("name", ["reference", "k3"])
def test_word_table_matches_enumerated_products(name):
    law = _law(name)
    K = law.support_size
    b = _batch.word_length(K)
    words = _batch.word_table(law.atom_stack, law.cum_weights)
    assert words.length == b
    assert [_word_letters(K, b, w) for w in range(K**b)] == [list(t) for t in itertools.product(range(K), repeat=b)]
    enumerated = oracles.enumerate_word_products(law, b)
    prods = np.array([[[words.table[i][j][w] for j in range(law.dim)] for i in range(law.dim)] for w in range(K**b)])
    assert np.allclose(prods, [p for p, _ in enumerated], rtol=1e-13, atol=0.0)
    word_cum, _ = oracles.word_draw_table(law.cum_weights, b)
    assert np.array_equal(words.guide[0], word_cum)
    assert np.allclose(np.diff(word_cum, prepend=0.0), [w for _, w in enumerated], rtol=0.0, atol=1e-14)
    # the reference law's word weights all fall on bin edges; the K = 3 law
    # puts some inside bins, one to a bin
    assert words.guide[4] == (name != "reference") and words.guide[2] is None
    # the drop bound from the enumerated prefix products of every length
    drop = np.zeros(K**b)
    for j in range(1, b + 1):
        low = np.array([p.sum(axis=0).min() for p, _ in oracles.enumerate_word_products(law, j)])
        drop = np.maximum(drop, np.repeat(-np.log(low), K ** (b - j)))
    assert np.allclose(words.drop, drop, rtol=1e-13, atol=1e-15)
    # and it bounds the fall of every letter walk inside a word
    rng = np.random.default_rng(8)
    for w in rng.integers(0, K**b, size=20):
        x = SimplexVector(rng.dirichlet(np.ones(law.dim)))
        _, traj = left_product([law.atoms[k] for k in _word_letters(K, b, w)], x, 0.0)
        assert np.min(traj) >= -words.drop[w] - 1e-12


@pytest.mark.parametrize("name", ["reference", "k3"])
def test_prefix_table_matches_enumerated_products(name):
    """Row j - 1, column w of ``prefix[i]`` is column sum i of word w's j-letter prefix, for j < b."""
    law = _law(name)
    K = law.support_size
    b = _batch.word_length(K)
    words = _batch.word_table(law.atom_stack, law.cum_weights)
    assert len(words.prefix) == law.dim
    for c in words.prefix:
        assert c.shape == (b - 1, K**b) and c.flags.c_contiguous
    for j in range(1, b):
        # every word extending a j-letter prefix, in word order, repeats its sums
        sums = np.array([p.sum(axis=0) for p, _ in oracles.enumerate_word_products(law, j)])
        want = np.repeat(sums, K ** (b - j), axis=0)
        got = np.stack([c[j - 1] for c in words.prefix], axis=1)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        # the drop bound covers every prefix's lowest mass on the simplex
        assert np.all(-np.log(got.min(axis=1)) <= words.drop)


# at a vertex of the simplex c_j . x is a single column sum, so a word whose
# drop bound is set by that column leaves no slack between the bound and the
# walk's lowest point inside the word.  The tuple's levels lie 0.1 apart,
# less than many words' drop bounds, so a path near one level's threshold
# often has a dead level just above it, which only the running minimum
# keeps dead
VERTEX_CASES = [
    (name, x0, levels)
    for name in ("reference", "k3")
    for x0 in ((1.0, 0.0), (0.0, 1.0))
    for levels in ((1.0,), (0.5, 0.6, 0.7, 0.8))
]


@pytest.mark.parametrize(
    "name,x0,levels", VERTEX_CASES, ids=[f"{n}-x{x[0]:g}{x[1]:g}-{len(lv)}lv" for n, x, lv in VERTEX_CASES]
)
def test_survival_chunk_from_a_vertex_matches_word_reference(name, x0, levels):
    law = _law(name)
    n_values = (1, 2, 3, 10, 50, 200, 400)
    args = (law.atom_stack, law.cum_weights, x0, levels, n_values, len(levels) == 1, SIZE)
    got = _one_chunk(_batch.survival_chunk, *args, np.random.SeedSequence(15))
    want = oracles.word_survival_chunk(*args, np.random.SeedSequence(15))
    assert np.array_equal(got[0], want[0])
    _assert_close(got[1], want[1], rtol=WORD_TOL)
    _assert_close(got[2], want[2], rtol=WORD_TOL)
    for g, w in zip(got[3], want[3], strict=True):
        _assert_close(g, w, atol=WORD_TOL)
    # every level loses paths, some of them inside a word, and the top level keeps some
    assert np.all(got[0][:, -1] < SIZE) and got[0][-1, -1] > 0
    for exits in want[4]:
        _assert_mid_word_exits(exits, want[5])


# laws whose word products leave the normal float range: the 8-letter
# products of the 1e-60/1e60 law overflow or underflow wherever one letter
# leads the other by six; the scaled reference law's overflow, or fall to
# subnormal numbers while their column sums stay positive
FLOAT_RANGE_LAWS = {
    "mixed-1e60": lambda: MatrixLaw.from_entries([np.full((2, 2), 1e-60), np.full((2, 2), 1e60)]),
    "reference-1e40": lambda: MatrixLaw.from_entries(reference_law().atom_stack * 1e40),
    "reference-1e-40": lambda: MatrixLaw.from_entries(reference_law().atom_stack * 1e-40),
}


@pytest.mark.parametrize("name", list(FLOAT_RANGE_LAWS))
def test_word_table_refuses_products_out_of_float_range(name):
    """No word stack, no warning, and both kernels are the letter kernels, bit for bit."""
    law = FLOAT_RANGE_LAWS[name]()
    head = (law.atom_stack, law.cum_weights, (0.5, 0.5))
    walk = (*head, 0.0, 64, (32, 64), (), (64,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = _batch.word_table(law.atom_stack, law.cum_weights)
        got_walk = _one_chunk(_batch.walk_chunk, *walk, True, 200, np.random.SeedSequence(2))
        got_survival = _one_chunk(_batch.survival_chunk, *head, (1.0,), (8, 16), False, 200, np.random.SeedSequence(1))
    assert words is None
    want_walk = oracles.walk_chunk(*walk, 200, np.random.SeedSequence(2))
    for g, w in zip(got_walk, want_walk, strict=True):
        assert np.array_equal(g, w)
    want_survival = oracles.survival_chunk(*head, 1.0, (8, 16), False, 200, np.random.SeedSequence(1))
    for g, w in zip(got_survival[:3], want_survival[:3]):
        assert np.array_equal(g[0], w)


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


# ---------------------------------------------------------------------------
# groups of chunks
#
# ``survival_chunk`` steps a group of chunks in waves to its first report and
# as one batch from there.  Each chunk must report bit for bit what
# ``oracles.chunk_survival``, the kernel that ran one chunk per call, reports
# for it: whatever the group, the law and the stepping


GROUP_LAWS = {
    "reference": lambda: _law("reference"),  # words of b = 8 letters
    "k3": lambda: _law("k3"),  # words of b = 7, split bins
    "d3k64": lambda: _law("d3k64"),  # d = 3, K = 64: words of b = 2, split bins
    "mixed-1e60": FLOAT_RANGE_LAWS["mixed-1e60"],  # word products out of the float range: letters
}

# ascending level tuples, the first level of each also run alone with
# survivor samples; every letter of the mixed law moves S by log(2e60) = 138.8
# or log(2e-60) = -137.5
GROUP_LEVELS = {
    "reference": (0.5, 1.0, 2.5, 6.0),
    "k3": (0.5, 1.0, 2.5, 6.0),
    "d3k64": (0.1, 0.3, 0.7, 1.6),
    "mixed-1e60": (0.5, 140.0, 280.0, 420.0),
}

# single paths and a few, most of which die out long before the last n, and
# whole chunks
CHUNK_LISTS = {
    "tiny": (1, 1, 5, 3, 700, 4096, 1, 1),
    "whole": (_batch.CHUNK_PATHS, _batch.CHUNK_PATHS, 3392),
}

GROUP_CASES = [(name, many, sizes) for name in GROUP_LAWS for many in (False, True) for sizes in CHUNK_LISTS]


def _assert_same_chunks(got: list, want: list) -> None:
    """Every output of every chunk is equal, bit for bit."""
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        assert len(g) == len(w) == 4
        for a, b in zip(g[:3], w[:3], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert len(g[3]) == len(w[3])
        for a, b in zip(g[3], w[3], strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "name,many,sizes", GROUP_CASES, ids=[f"{n}-{'4lv' if m else '1lv'}-{s}" for n, m, s in GROUP_CASES]
)
def test_grouped_survival_matches_chunk_oracle(name, many, sizes):
    law = GROUP_LAWS[name]()
    x0 = SimplexVector.barycenter(law.dim).coords
    levels = GROUP_LEVELS[name] if many else GROUP_LEVELS[name][:1]
    n_values = (1, 2, 3, 10, 50, 200, 400)
    sizes = CHUNK_LISTS[sizes]
    seeds = np.random.SeedSequence(21).spawn(len(sizes))
    head = (law.atom_stack, law.cum_weights, x0, levels, n_values, not many)
    got = _batch.survival_chunk(*head, list(sizes), seeds)
    want = [oracles.chunk_survival(*head, size, ss) for size, ss in zip(sizes, seeds)]
    _assert_same_chunks(got, want)
    counts = np.array([w[0] for w in want])  # (chunk, level, n)
    # paths die, and the largest chunk holds some at the end
    assert counts[:, 0, -1].sum() < sum(sizes) and counts[int(np.argmax(sizes)), -1, -1] > 0
    if not many and len(sizes) > 3:
        # chunks die out while the group steps on
        assert np.any(counts[:, 0, -2] == 0)


# The killed walk steps a group in waves of one tile of chunks, each alone to
# the first report; the partitions below put the waves' edges elsewhere.  The
# first report is at n = 1, at n = 3, which ends no word of b = 8 letters, so
# the waves step by letters to it, and at n = 4096, past the last death of the
# "few" chunks' paths, so every wave empties before it.  13 chunks is the shape
# of validate's 200,000-path conditional stage
PARTITION_REPORTS = {
    "n1": ((1, 2, 3, 10, 50, 200, 400), "many"),
    "n3": ((3, 10, 50, 400), "many"),
    "dead": ((4096, 4100), "few"),
}
PARTITION_CHUNKS = {
    "many": {
        1: (3392,),
        2: (_batch.CHUNK_PATHS, 3392),
        3: (1, _batch.CHUNK_PATHS, 700),
        13: tuple(_batch.chunk_layout(200_000)),
    },
    "few": {1: (5,), 2: (1, 4), 3: (3, 1, 5), 13: (1, 1, 5, 3, 2, 1, 4, 1, 1, 2, 3, 1, 1)},
}
PARTITION_LEVELS = {"1lv": (0.5,), "8lv": (0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8), "1lv-samples": (0.5,)}
PARTITION_CASES = list(itertools.product(PARTITION_REPORTS, PARTITION_LEVELS, (1, 2, 3, 13)))


def _splits(count: int) -> list:
    """The chunk bounds of one group, of a group per chunk and of uneven groups of ``count`` chunks."""
    cuts = [(), tuple(range(1, count)), (1,), (count - 1,), (count // 3, count // 2 + 1)]
    return sorted({(0, *sorted({c for c in cut if 0 < c < count}), count) for cut in cuts})


def test_grouped_survival_is_partition_invariant():
    """One group, a group per chunk and uneven splits give each chunk's one-chunk result, bit for bit."""
    law = _law("reference")
    for reports, levels, count in PARTITION_CASES:
        n_values, chunks = PARTITION_REPORTS[reports]
        sizes = PARTITION_CHUNKS[chunks][count]
        seeds = np.random.SeedSequence(24).spawn(len(sizes))
        samples = levels.endswith("samples")
        head = (law.atom_stack, law.cum_weights, (0.5, 0.5), PARTITION_LEVELS[levels], n_values, samples)
        want = [oracles.chunk_survival(*head, size, ss) for size, ss in zip(sizes, seeds)]
        first = sum(int(w[0][-1, 0]) for w in want)  # survivors at the first report, top level
        assert first == 0 if reports == "dead" else first > 0, (reports, levels, count)
        for bounds in _splits(count):
            parts = []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                parts += _batch.survival_chunk(*head, list(sizes[lo:hi]), seeds[lo:hi])
            _assert_same_chunks(parts, want)


@pytest.mark.parametrize("levels", [(1.0,), (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)], ids=["1lv", "8lv"])
def test_killed_walk_writes_no_row_past_the_survivors_and_one_wave(monkeypatch, levels):
    """Thirteen whole chunks from (barycenter, a = 1): no state row is written past the survivors at 64 and one tile."""
    walks = []

    class NanWalk(_batch._Walk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for row in self.rows:
                row.fill(np.nan)
            walks.append(self)

    monkeypatch.setattr(_batch, "_Walk", NanWalk)
    law = _law("reference")
    sizes = [_batch.CHUNK_PATHS] * 13
    seeds = np.random.SeedSequence(35).spawn(len(sizes))
    got = _batch.survival_chunk(law.atom_stack, law.cum_weights, (0.5, 0.5), levels, (64, 256), False, sizes, seeds)
    (walk,) = walks
    survivors = sum(int(counts[-1, 0]) for counts, *_ in got)  # held at n = 64
    bound = survivors + _batch.TILE_PATHS
    assert len(walk.rows) == (3 if len(levels) == 1 else 4) and bound < sum(sizes)
    for row in walk.rows:
        assert row.shape == (sum(sizes),)
        assert not np.isnan(row[:survivors]).any() and np.isnan(row[bound:]).all()


def test_chunk_groups_cover_the_layout():
    most = _batch.GROUP_PATHS // _batch.CHUNK_PATHS
    for count, workers in itertools.product(range(1, 41), (1, 2, 3, 4)):
        groups = _batch.chunk_groups(count, workers)
        # contiguous, in order, and covering every chunk once
        assert [g.start for g in groups] == [0] + [g.stop for g in groups[:-1]] and groups[-1].stop == count
        sizes = [g.stop - g.start for g in groups]
        assert len(groups) >= min(workers, count) and max(sizes) <= most and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_chunks_returns_each_chunk_in_order(workers):
    """A budget over ``GROUP_PATHS`` runs as several groups at any worker count, with one result per chunk."""
    law = _law("reference")
    paths = _batch.GROUP_PATHS + 5000
    sizes = _batch.chunk_layout(paths)
    seeds = np.random.SeedSequence(23).spawn(len(sizes))
    args = (law.atom_stack, law.cum_weights, (0.5, 0.5), (0.5,), (1, 9, 12), True)
    got = _batch.run_chunks(_batch.survival_chunk, args, paths, np.random.SeedSequence(23), workers)
    want = [oracles.chunk_survival(*args, size, ss) for size, ss in zip(sizes, seeds)]
    assert len(_batch.chunk_groups(len(sizes), workers)) >= 2
    _assert_same_chunks(got, want)
    # the free walk: three chunks, as one group at one worker and as groups of 1 and 2 at two
    walk = (law.atom_stack, law.cum_weights, (0.5, 0.5), 0.5, 12, (1, 9, 12), (12,), (2,), True)
    paths = 2 * _batch.CHUNK_PATHS + 3000
    got = _batch.run_chunks(_batch.walk_chunk, walk, paths, np.random.SeedSequence(24), workers)
    seeds = np.random.SeedSequence(24).spawn(3)
    want = [_one_chunk(_batch.walk_chunk, *walk, size, ss) for size, ss in zip(_batch.chunk_layout(paths), seeds)]
    assert len(got) == len(want) == 3
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g, w, strict=True):
            assert np.array_equal(a, b)


class _RecordingPool(ProcessPoolExecutor):
    """A process pool that records the size it is asked for."""

    sizes: list = []

    def __init__(self, max_workers=None, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers=max_workers, **kwargs)


def _walk_args():
    law = _law("reference")
    return (law.atom_stack, law.cum_weights, (0.5, 0.5), 0.5, 12, (1, 9, 12), (12,), (2,), True)


def _assert_same_walks(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g, w, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_run_chunks_pool_has_no_more_processes_than_groups(monkeypatch, workers):
    """A stage of two chunks forks one process at any worker count: the calling process runs the other group."""
    walk = _walk_args()
    paths = _batch.CHUNK_PATHS + 3000
    want = _batch.run_chunks(_batch.walk_chunk, walk, paths, np.random.SeedSequence(25), 1)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_batch, "_executor", _RecordingPool)
    got = _batch.run_chunks(_batch.walk_chunk, walk, paths, np.random.SeedSequence(25), workers)
    assert len(_batch.chunk_groups(2, workers)) == 2
    assert _RecordingPool.sizes == [1]
    assert len(got) == 2
    _assert_same_walks(got, want)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("workers", [2, 3])
def test_pool_scope_forks_once_for_every_call(monkeypatch, workers):
    """Inside a scope, every call of more than one group shares the one pool of ``workers - 1`` processes."""
    walk = _walk_args()
    budgets = (3000, 2 * _batch.CHUNK_PATHS + 3000, _batch.CHUNK_PATHS + 1, 5 * _batch.CHUNK_PATHS)

    def run_all(w):
        seeds = [np.random.SeedSequence(26 + i) for i in range(len(budgets))]
        return [_batch.run_chunks(_batch.walk_chunk, walk, p, ss, w) for p, ss in zip(budgets, seeds)]

    want = run_all(1)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_batch, "_executor", _RecordingPool)
    with _batch.pool_scope(workers):
        got = run_all(workers)
        assert _RecordingPool.sizes == [workers - 1] and len(multiprocessing.active_children()) == workers - 1
    assert not multiprocessing.active_children()
    for g, w in zip(got, want, strict=True):
        _assert_same_walks(g, w)


def _walk_with_pid(*args):
    """``walk_chunk``, each chunk's result tagged with the process that ran it."""
    return [(os.getpid(), part) for part in _batch.walk_chunk(*args)]


def test_pool_scope_caller_takes_the_groups_the_pool_has_not(monkeypatch):
    """With more groups than workers the calling process runs several, and no bit moves."""
    monkeypatch.setattr(_batch, "GROUP_PATHS", _batch.CHUNK_PATHS)  # one chunk per group
    walk = _walk_args()
    paths = 11 * _batch.CHUNK_PATHS + 100
    want = _batch.run_chunks(_batch.walk_chunk, walk, paths, np.random.SeedSequence(27), 1)
    with _batch.pool_scope(2):
        got = _batch.run_chunks(_walk_with_pid, walk, paths, np.random.SeedSequence(27), 2)
    pids = [pid for pid, _ in got]
    # group 0 is the caller's; by the time it is done, the one pool process has not taken all eleven others
    assert len(got) == 12 and pids[0] == os.getpid() and len(set(pids)) <= 2 and pids.count(os.getpid()) >= 2
    _assert_same_walks([part for _, part in got], want)
    assert not multiprocessing.active_children()


def test_pool_scope_reaps_the_pool_on_an_exception():
    walk = _walk_args()
    with pytest.raises(RuntimeError, match="stage failed"):
        with _batch.pool_scope(2):
            _batch.run_chunks(_batch.walk_chunk, walk, _batch.CHUNK_PATHS + 1, np.random.SeedSequence(28), 2)
            assert multiprocessing.active_children()
            raise RuntimeError("stage failed")
    assert not multiprocessing.active_children()


def test_pool_scope_leaves_other_worker_counts_their_own_pools(monkeypatch):
    """A call at another worker count than the scope's starts, and reaps, a pool of its own."""
    walk = _walk_args()
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_batch, "_executor", _RecordingPool)
    with _batch.pool_scope(2):
        _batch.run_chunks(_batch.walk_chunk, walk, 2 * _batch.CHUNK_PATHS + 1, np.random.SeedSequence(29), 3)
        assert _RecordingPool.sizes == [2] and not multiprocessing.active_children()
        _batch.run_chunks(_batch.walk_chunk, walk, 2 * _batch.CHUNK_PATHS + 1, np.random.SeedSequence(29), 2)
        assert _RecordingPool.sizes == [2, 1]
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# tiles
#
# Every kernel steps its paths a tile of ``TILE_PATHS`` at a time, in place
# over buffers allocated once per call.  A tile of 5 paths cuts every chunk,
# single paths included, into several tiles, and compaction reads and writes
# across tile edges; 4099 cuts a whole chunk off-centre.  No tile size may
# move a bit: every kernel is held to its one-chunk oracle at both sizes and
# at the module's own.  The reference law steps by words of 8 letters (d = 2);
# d3k65 has 65 atoms, so it steps by letters (d = 3)

TILE_SIZES = (5, 4099, None)
TILE_LAWS = ("reference", "d3k65")

# a few hundred paths in small chunks keep 5-path tiles quick; the larger
# tiles cut a whole chunk.  Both lists hold chunks that empty long before the
# last report.  With 7-path tiles the second tile holds the last path of the
# first chunk, the whole second chunk and the head of the third, and the
# second chunk empties mid-walk while both its neighbours step on, so the
# tile's uniforms come from three substreams and then from two
TILE_CHUNKS = {5: (1, 1, 5, 3, 70, 300, 1), 7: (8, 4, 11, 30), 4099: (_batch.CHUNK_PATHS, 3392, 1, 5)}

# one level of about one step's spread, and eight up to 50 times it, so that
# at the top level no path dies in the first steps and nothing is compacted
TILE_LEVELS = {
    "reference": ((0.5,), tuple(0.42 * k for k in (0.5, 1, 2, 4, 8, 16, 32, 50))),
    "d3k65": ((0.2,), tuple(0.16 * k for k in (0.5, 1, 2, 4, 8, 16, 32, 50))),
}

TILE_SURVIVAL_CASES = [
    (name, tile, levels, samples)
    for name in TILE_LAWS
    for tile in TILE_SIZES
    for levels, samples in (("1lv", False), ("8lv", False), ("1lv", True))
] + [(name, 7, "1lv", False) for name in TILE_LAWS]


def _tile_chunks(tile):
    return TILE_CHUNKS[tile if tile in (5, 7) else 4099]


@pytest.mark.parametrize(
    "name,tile,levels,samples",
    TILE_SURVIVAL_CASES,
    ids=[f"{n}-tile{t}-{lv}{'-samples' if s else ''}" for n, t, lv, s in TILE_SURVIVAL_CASES],
)
def test_survival_chunk_is_tile_invariant(monkeypatch, name, tile, levels, samples):
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    one, eight = TILE_LEVELS[name]
    n_values = (1, 2, 3, 10, 50, 200)
    sizes = _tile_chunks(tile)
    seeds = np.random.SeedSequence(31).spawn(len(sizes))
    head = (law.atom_stack, law.cum_weights, x0, one if levels == "1lv" else eight, n_values, samples)
    want = [oracles.chunk_survival(*head, size, ss) for size, ss in zip(sizes, seeds)]
    if tile is not None:
        monkeypatch.setattr(_batch, "TILE_PATHS", tile)
    _assert_same_chunks(_batch.survival_chunk(*head, list(sizes), seeds), want)
    counts = np.array([w[0] for w in want])  # (chunk, level, n)
    if tile == 7:
        # the second chunk, inside the second tile, empties between the reports while its neighbours hold paths
        assert counts[1, 0, 0] > 0 and counts[1, 0, -1] == 0
        assert counts[0, 0, -1] > 0 and counts[2, 0, -1] > 0
    elif levels == "1lv":
        # a chunk empties while others step on
        assert np.any(counts[:, 0, -2] == 0) and counts[:, 0, -1].sum() > 0
    else:
        # the first steps drop no path, and by the last report the lower levels have lost some
        assert counts[:, -1, 2].sum() == sum(sizes)
        assert counts[:, 0, -1].sum() < sum(sizes)


@pytest.mark.parametrize("tile", TILE_SIZES)
@pytest.mark.parametrize("name", TILE_LAWS)
def test_walk_chunk_is_tile_invariant(monkeypatch, name, tile):
    """Step-0 records and letter steps between words, every output bit for bit."""
    law = _law(name)
    x0 = SimplexVector.barycenter(law.dim).coords
    walk = (law.atom_stack, law.cum_weights, x0, 0.5, 60, (0, 1, 2, 7, 30, 60), (1, 5, 6, 59, 60), (0, 1, 3, 60))
    sizes = _tile_chunks(tile)
    seeds = np.random.SeedSequence(32).spawn(len(sizes))
    want = [oracles.chunk_walk(*walk, size, ss) for size, ss in zip(sizes, seeds)]
    if tile is not None:
        monkeypatch.setattr(_batch, "TILE_PATHS", tile)
    _assert_same_walks(_batch.walk_chunk(*walk, True, list(sizes), seeds), want)


@pytest.mark.parametrize("tile", TILE_SIZES)
def test_martingale_chunk_is_tile_invariant(monkeypatch, tile):
    """Each path's gap and each chunk's late count, against ``np.interp`` on the left-fold walk."""
    law = _law("reference")
    params = np.linspace(0.0, 1.0, 65)
    theta = 0.1 * np.sin(2.0 * np.pi * params) + 0.05  # no node of -0.0
    # A is far below sup |Theta|, so M often reaches -A before S exits
    args = (law.atom_stack, law.cum_weights, (0.3, 0.7), 0.5, 60, params, theta, 0.02)
    sizes = _tile_chunks(tile)
    seeds = np.random.SeedSequence(33).spawn(len(sizes))
    want = [oracles.chunk_martingale(*args, size, ss) for size, ss in zip(sizes, seeds)]
    if tile is not None:
        monkeypatch.setattr(_batch, "TILE_PATHS", tile)
    got = _batch.martingale_chunk(*args, list(sizes), seeds)
    assert len(got) == len(want)
    for (gap, late), (want_gap, want_late) in zip(got, want, strict=True):
        assert np.array_equal(gap, want_gap) and late == want_late
    assert sum(late for _, late in want) > 0


# ---------------------------------------------------------------------------
# memory
#
# The tracemalloc peak of one call on a group of four whole chunks (65,536
# paths) to n = 256, per path, with the results held, each call building its
# law's tables.  The walk bounds are the figures of the kernels that
# allocated every temporary anew at every step, measured on these laws and
# calls; the kernels that step in place over fixed buffers must stay at or
# below them.  The survival bounds are 10% over the killed walk that draws
# each tile's uniforms into a tile row, finds its exits among the near paths
# and keeps the near paths' temporaries in tile rows (61.6, 72.3, 81.8 and
# 90.9 B/path); a full-length uniform row held by the call breaks both
# reference rows

# measured with numpy 2.4.6: another numpy may allocate differently
MEMORY_BOUNDS = {
    ("reference", "survival 1 level"): 67.8,
    ("reference", "survival 8 levels"): 79.5,
    ("reference", "walk"): 31.0,
    ("d3k64", "survival 1 level"): 90.0,
    ("d3k64", "survival 8 levels"): 100.0,
    ("d3k64", "walk"): 45.3,
    # the tiled kernel's figure before it shared the walk loop; the row
    # fails when a chunk's state outlives the start of the next chunk
    ("reference", "martingale"): 32.0,
}


def _memory_call(name: str, kernel: str):
    """The kernel call ``(function, args)`` whose peak ``MEMORY_BOUNDS`` bounds, sizes and seeds left off."""
    law = _law(name)
    scale = {"reference": 0.42, "d3k64": 0.16}[name]
    head = (law.atom_stack, law.cum_weights, SimplexVector.barycenter(law.dim).coords)
    if kernel == "walk":
        return _batch.walk_chunk, (*head, 0.0, 256, (256,), (), (), False)
    if kernel == "martingale":
        params = np.linspace(0.0, 1.0, 513)
        return _batch.martingale_chunk, (*head, 1.0, 256, params, 0.1 * np.sin(2.0 * np.pi * params), 0.2)
    levels = (2.0 * scale,) if kernel == "survival 1 level" else tuple(scale * k for k in (0.5, 1, 2, 4, 8, 16, 32, 50))
    return _batch.survival_chunk, (*head, levels, (64, 256), False)


def _peak_bytes_per_path(fn, args, chunks: int = 4) -> float:
    sizes = [_batch.CHUNK_PATHS] * chunks
    seeds = np.random.SeedSequence(34).spawn(chunks)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, sizes, seeds)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak / sum(sizes)


@pytest.mark.parametrize("name,kernel", list(MEMORY_BOUNDS), ids=[f"{n}-{k}" for n, k in MEMORY_BOUNDS])
def test_kernel_memory_per_path_is_bounded(name, kernel):
    assert _peak_bytes_per_path(*_memory_call(name, kernel)) <= MEMORY_BOUNDS[name, kernel]


def test_kernel_costs_script_reports_every_kernel(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "scripts"))
    import kernel_costs

    assert kernel_costs.main(["--chunks", "1", "--steps", "8", "--repeat", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [" ".join(r.split()[:-3]) for r in rows] == [
        f"{law} {kernel}"
        for law in ("reference", "d3k64")
        for kernel in ("walk_chunk", "survival_chunk 1 level", "survival_chunk 8 levels", "martingale_chunk")
        if law == "reference" or kernel != "martingale_chunk"
    ]
