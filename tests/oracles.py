"""Independent reference computations used to check the library.

Everything here is deliberately written by a different route than the
library: full matrix products without projective renormalization, explicit
tree enumeration over the (finite) support, numerical quadrature of the
limiting densities, and per-path loops where the library reduces arrays.
Slow and simple on purpose.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from conefluct import _batch
from conefluct.cli import _fmt
from conefluct.matrix_core import SimplexVector, hennion_distance
from conefluct.transfer_operator import ConvergenceError


def dense_walk_log(entry_arrays, x_coords, a=0.0):
    """Additive functional via the full, un-renormalized matrix product.

    Returns the array ``S`` with ``S[0] = a`` and
    ``S[n] = a + log |g_n ... g_1 x|_1`` computed from the explicit product
    (safe for short words with moderate entries).
    """
    x = np.asarray(x_coords, dtype=float)
    prod = np.eye(len(x))
    out = [a]
    for entries in entry_arrays:
        prod = np.asarray(entries, dtype=float) @ prod
        out.append(a + math.log(float(np.sum(prod @ x))))
    return np.array(out)


def enumerate_walk(law, x_coords, a, n_max):
    """Exact law of the killed walk up to time ``n_max`` by tree enumeration.

    Returns a dict with, for each n in 1..n_max:
      - ``survival[n]`` = P(tau > n)
      - ``killed_mean[n]`` = E[S_n ; tau > n]
      - ``scaled_mean[n]`` = E[S_n / sqrt(n) | tau > n]  (None if extinct)
    Ties S_n == 0 count as exit, matching the library convention.
    """
    entries = [np.asarray(g.entries, dtype=float) for g in law.atoms]
    weights = np.asarray(law.weights, dtype=float)
    x0 = np.asarray(x_coords, dtype=float)
    survival = {}
    killed_mean = {}
    scaled_mean = {}
    # states: (vector, log-correction, cumulative weight); alive paths only
    states = [(x0, a, 1.0)]
    for n in range(1, n_max + 1):
        nxt = []
        p_alive = 0.0
        s_sum = 0.0
        for vec, s, w in states:
            for g, wk in zip(entries, weights):
                y = g @ vec
                norm = float(np.sum(y))
                s_new = s + math.log(norm)
                w_new = w * wk
                if s_new <= 0.0:
                    continue
                p_alive += w_new
                s_sum += w_new * s_new
                nxt.append((y / norm, s_new, w_new))
        survival[n] = p_alive
        killed_mean[n] = s_sum
        scaled_mean[n] = (s_sum / p_alive) / math.sqrt(n) if p_alive > 0 else None
        states = nxt
    return {"survival": survival, "killed_mean": killed_mean, "scaled_mean": scaled_mean}


def lattice_killed_walk(steps, a: int, n_values):
    """Exact survival and killed mean of an integer-step walk, by a DP over levels.

    ``steps`` lists ``(step, probability)`` pairs with integer steps; the walk
    starts at the integer ``a`` and is killed at the first ``n`` with
    ``S_n <= 0``.  Returns ``(survival, killed_mean)`` arrays over
    ``n_values``: ``P(tau > n)`` and ``E[S_n; tau > n]``.  Entry k of the
    state is the probability of being alive at level k, so no path is ever
    sampled.
    """
    n_max = max(n_values)
    up = max(max(s for s, _ in steps), 0)
    p = np.zeros(a + up * n_max + 1)
    p[a] = 1.0
    levels = np.arange(p.size)
    survival, killed_mean = [], []
    for n in range(1, n_max + 1):
        q = np.zeros_like(p)
        for s, w in steps:
            if s >= 0:
                q[s:] += w * p[: p.size - s]
            else:  # mass pushed below level 0 falls off the front
                q[:s] += w * p[-s:]
        q[0] = 0.0
        p = q
        if n in n_values:
            survival.append(p.sum())
            killed_mean.append(levels @ p)
    return np.array(survival), np.array(killed_mean)


def enumerate_word_products(law, n):
    """All length-n products ``g_{i_n} ... g_{i_1}`` with their weights."""
    entries = [np.asarray(g.entries, dtype=float) for g in law.atoms]
    weights = np.asarray(law.weights, dtype=float)
    out = []
    for word in itertools.product(range(len(entries)), repeat=n):
        prod = np.eye(law.dim)
        w = 1.0
        for i in word:
            prod = entries[i] @ prod
            w *= weights[i]
        out.append((prod, w))
    return out


def convolution_contraction_loop(law, n):
    """``matrix_law.convolution_contraction`` as one Python loop over ``itertools.product``.

    One product, one weight and one pair-sum update at a time, in word order;
    the batched library version must return this value bit for bit.
    """
    K = law.support_size
    d = law.dim
    pair_sums = np.zeros((d, d))
    for seq in itertools.product(range(K), repeat=n):
        prod = law.atoms[seq[0]].entries
        for k in seq[1:]:
            prod = law.atoms[k].entries @ prod
        weight = float(np.prod(law.weights[list(seq)]))
        cols = prod / prod.sum(axis=0)
        pts = [SimplexVector(cols[:, j]) for j in range(d)]
        for i in range(d):
            for j in range(i + 1, d):
                pair_sums[i, j] += weight * hennion_distance(pts[i], pts[j])
    return float(pair_sums.max())


def hennion_scalar(x, y):
    """Hennion distance of two coordinate sequences, coordinate by coordinate in Python floats."""
    m_xy = min(float(a) / float(b) for a, b in zip(x, y) if b > 0.0)
    m_yx = min(float(b) / float(a) for a, b in zip(x, y) if a > 0.0)
    s = m_xy * m_yx
    return (1.0 - s) / (1.0 + s)


def _reflection_density(y, a, scale):
    z1 = (y - a) / scale
    z2 = (y + a) / scale
    return (math.exp(-0.5 * z1 * z1) - math.exp(-0.5 * z2 * z2)) / (scale * math.sqrt(2.0 * math.pi))


def quad_survival(a, n, sigma):
    """P(min over [0, n] of a Brownian motion from a stays positive), by quadrature."""
    scale = sigma * math.sqrt(n)
    val, err = quad(_reflection_density, 0.0, a + 12.0 * scale, args=(a, scale), limit=400, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-12:
        raise RuntimeError(f"quadrature error {err:.2e} too large")
    return val


def quad_corridor(a, b, n, sigma):
    """P(positive on [0, n] and endpoint below b), by quadrature."""
    if b <= 0.0:
        return 0.0
    scale = sigma * math.sqrt(n)
    val, err = quad(_reflection_density, 0.0, b, args=(a, scale), limit=400, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-12:
        raise RuntimeError(f"quadrature error {err:.2e} too large")
    return val


def quad_rayleigh_cdf(t, sigma):
    """CDF of the scaled endpoint limit law, by quadrature of its density."""
    if t <= 0.0:
        return 0.0
    s2 = sigma * sigma
    val, err = quad(lambda u: (u / s2) * math.exp(-u * u / (2.0 * s2)), 0.0, t, limit=400, epsabs=1e-13, epsrel=1e-13)
    if err > 1e-12:
        raise RuntimeError(f"quadrature error {err:.2e} too large")
    return val


# ---------------------------------------------------------------------------
# reference walk kernels
#
# Generic (m, d) kernels over a gathered (m, d, d) stack, stepped by
# ``stepper``: the ``einsum`` step, or ``left_fold_step``, which sums in the
# library's order.  The library carries the state as one row per coordinate
# and sums left to right; at d = 2 both steps give its bits, at d >= 3 only
# the left fold does, and ``einsum`` differs from it at rounding level.


def draw_indices(cum_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to atom indices via the cumulative weights."""
    return np.searchsorted(cum_weights, u, side="right")


def projective_step(atom_stack: np.ndarray, idx: np.ndarray, X: np.ndarray):
    """One projective step for a batch of paths.

    ``atom_stack`` is (K, d, d), ``idx`` the chosen atom per path, ``X`` the
    (m, d) simplex points.  Returns the renormalized images and the log-mass
    increments ``rho(g_idx, x)``.
    """
    Y = np.einsum("pij,pj->pi", atom_stack[idx], X)
    mass = Y.sum(axis=1)
    return Y / mass[:, None], np.log(mass)


def left_fold_step(atom_stack: np.ndarray, idx: np.ndarray, X: np.ndarray):
    """``projective_step`` with every sum taken left to right, one column at a time."""
    G = atom_stack[idx]
    d = X.shape[1]
    Y = np.empty_like(X)
    for i in range(d):
        y = G[:, i, 0] * X[:, 0]
        for j in range(1, d):
            y = y + G[:, i, j] * X[:, j]
        Y[:, i] = y
    mass = Y[:, 0]
    for j in range(1, d):
        mass = mass + Y[:, j]
    return Y / mass[:, None], np.log(mass)


def walk_chunk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, size, ss, stepper=projective_step):
    """Full-horizon walk (no exit filtering) recording selected step data.

    Records ``S_k`` at steps in ``s_steps``, the raw increment ``rho`` at
    steps in ``rho_steps``, and the first simplex coordinate at steps in
    ``x_steps``.  Step indices are 1-based; all three are sorted tuples.
    Each record has one row per requested step and one column per path; the
    final simplex points are returned last.
    """
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.full(size, float(a))
    s_rec = np.empty((len(s_steps), size))
    rho_rec = np.empty((len(rho_steps), size))
    x_rec = np.empty((len(x_steps), size))
    want_s = {step: i for i, step in enumerate(s_steps)}
    want_rho = {step: i for i, step in enumerate(rho_steps)}
    want_x = {step: i for i, step in enumerate(x_steps)}
    for step in range(1, n + 1):
        idx = draw_indices(cum_weights, rng.random(size))
        X, rho = stepper(atom_stack, idx, X)
        S = S + rho
        if step in want_s:
            s_rec[want_s[step]] = S
        if step in want_rho:
            rho_rec[want_rho[step]] = rho
        if step in want_x:
            x_rec[want_x[step]] = X[:, 0]
    return s_rec, rho_rec, x_rec, X


def survival_chunk(atom_stack, cum_weights, x0, a, n_values, want_samples, size, ss, stepper=projective_step):
    """Killed walk: paths exit at the first step with ``S <= 0``.

    Dead paths are dropped from the working arrays, so cost tracks the alive
    count.  At each ``n`` in ``n_values`` (sorted, 1-based) the chunk reports
    the survivor count and the survivor sums of ``S`` and ``S^2`` (paths
    already dead contribute zero, which is exactly the killed expectation).
    With ``want_samples`` the survivor ``S`` values are returned as well.
    """
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.full(size, float(a))
    counts = np.zeros(len(n_values), dtype=np.int64)
    sums = np.zeros(len(n_values))
    sums2 = np.zeros(len(n_values))
    samples: list = [np.empty(0)] * len(n_values) if want_samples else []
    pos = 0
    for step in range(1, n_values[-1] + 1):
        if S.shape[0]:
            idx = draw_indices(cum_weights, rng.random(S.shape[0]))
            X, rho = stepper(atom_stack, idx, X)
            S = S + rho
            alive = S > 0.0
            X = X[alive]
            S = S[alive]
        if step == n_values[pos]:
            counts[pos] = S.shape[0]
            sums[pos] = S.sum()
            sums2[pos] = np.square(S).sum()
            if want_samples:
                samples[pos] = S.copy()
            pos += 1
            if pos == len(n_values):
                break
    return counts, sums, sums2, samples


def multilevel_survival_chunk(atom_stack, cum_weights, x0, levels, n_values, size, ss, stepper=projective_step):
    """Killed walks from every level in ``levels`` on one path set, by masking.

    Nothing is compacted: the state keeps all ``size`` paths, and each step
    draws ``rng.random`` for the paths still alive at the top level, in path
    order, and steps those paths only.  Each level carries its own
    ``a_l + sum rho`` and its own alive mask, killed at the first step with
    a value ``<= 0``.  Returns per-level survivor counts and survivor sums
    of the value and its square, each of shape ``(len(levels), len(n_values))``.
    """
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.tile(np.asarray(levels, dtype=float)[:, None], (1, size))
    alive = np.ones(S.shape, dtype=bool)
    counts = np.zeros((len(levels), len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    for step in range(1, n_values[-1] + 1):
        live = np.flatnonzero(alive[-1])
        idx = draw_indices(cum_weights, rng.random(live.size))
        X[live], rho = stepper(atom_stack, idx, X[live])
        S[:, live] += rho
        alive[:, live] &= S[:, live] > 0.0
        if step in n_values:
            pos = n_values.index(step)
            for l in range(len(levels)):
                value = S[l, alive[l]]
                counts[l, pos] = value.size
                sums[l, pos] = value.sum()
                sums2[l, pos] = np.square(value).sum()
    return counts, sums, sums2


# ---------------------------------------------------------------------------
# word-decoding reference kernels
#
# The library steps a law of K atoms by words of b letters, b the largest up
# to 8 with K**b <= 4096, through a stack of word products and a drop bound.
# These references draw the same one uniform per held path per word, look the
# word up in cumulative word weights built by a loop over
# ``itertools.product``, and step its letters one at a time with ``stepper``,
# testing every exit after every letter; they use no word product and no
# bound.  A word is taken where the library takes one, by the same rule
# written out again here.


def word_length(K: int) -> int:
    """The largest b <= 8 with ``K**b <= 4096``, at least 1; 1 for a one-atom law.

    Counts down from 8, where the library counts up from 1.
    """
    if K == 1:
        return 1
    b = 8
    while b > 1 and K**b > 4096:
        b -= 1
    return b


def word_draw_table(cum_weights: np.ndarray, b: int):
    """Cumulative weights of the ``K**b`` words, and their (K**b, b) letters, in word order.

    Words run over ``itertools.product``, first letter slowest; a word's
    weight is its letters' weights, the steps of ``cum_weights``, multiplied
    first letter first.  The sums are clamped and closed at 1 as the letter
    weights are.
    """
    letter_weights = np.diff(cum_weights, prepend=0.0)
    words = list(itertools.product(range(len(letter_weights)), repeat=b))
    weights = []
    for word in words:
        w = 1.0
        for k in word:
            w *= letter_weights[k]
        weights.append(w)
    cum = np.minimum(np.cumsum(weights), 1.0)
    cum[-1] = 1.0
    return cum, np.array(words, dtype=np.intp).reshape(len(words), b)


def word_walk_chunk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, size, ss, stepper=projective_step):
    """``walk_chunk`` stepped word by word, each word's letters decoded and stepped one at a time.

    A word is drawn when none of its first ``b - 1`` steps is recorded and
    its last is not a ``rho_steps`` step; a letter otherwise.
    """
    b = word_length(len(cum_weights))
    word_cum, words = word_draw_table(cum_weights, b)
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.full(size, float(a))
    s_rec = np.empty((len(s_steps), size))
    rho_rec = np.empty((len(rho_steps), size))
    x_rec = np.empty((len(x_steps), size))
    recorded = set(s_steps) | set(rho_steps) | set(x_steps)
    step = 0
    while step < n:
        u = rng.random(size)
        inside = range(step + 1, step + b)
        if b > 1 and step + b <= n and step + b not in rho_steps and not any(k in recorded for k in inside):
            letters = words[draw_indices(word_cum, u)]
        else:
            letters = draw_indices(cum_weights, u)[:, None]
        for idx in letters.T:
            step += 1
            X, rho = stepper(atom_stack, idx, X)
            S = S + rho
            if step in s_steps:
                s_rec[s_steps.index(step)] = S
            if step in rho_steps:
                rho_rec[rho_steps.index(step)] = rho
            if step in x_steps:
                x_rec[x_steps.index(step)] = X[:, 0]
    return s_rec, rho_rec, x_rec, X


def word_survival_chunk(atom_stack, cum_weights, x0, levels, n_values, want_samples, size, ss, stepper=projective_step):
    """Killed walks from every level, stepped word by word, by masking.

    Each draw is one uniform per path alive at the top level, in path order:
    a word's when the word ends by the next n in ``n_values``, a letter's
    otherwise.  Each level carries its own value ``a_l + sum rho``, tested
    after every letter: the level exits at the first letter that leaves it
    ``<= _batch.EXIT_TOL``.  Returns per-level survivor counts and survivor
    sums of the value and its square, each (len(levels), len(n_values)); the
    survivor values at each n when ``want_samples`` (one level); the exit
    step of every level and path, 0 for a survivor; and the ``(start, end)``
    step spans of the words drawn.
    """
    b = word_length(len(cum_weights))
    word_cum, words = word_draw_table(cum_weights, b)
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.tile(np.asarray(levels, dtype=float)[:, None], (1, size))
    exits = np.zeros(S.shape, dtype=np.int64)
    counts = np.zeros((len(levels), len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    samples = []
    spans = []
    step = 0
    for pos, n in enumerate(n_values):
        while step < n:
            live = np.flatnonzero(exits[-1] == 0)
            if not live.size:
                break
            u = rng.random(live.size)
            if b > 1 and step + b <= n:
                letters = words[draw_indices(word_cum, u)]
                spans.append((step, step + b))
            else:
                letters = draw_indices(cum_weights, u)[:, None]
            for idx in letters.T:
                step += 1
                X[live], rho = stepper(atom_stack, idx, X[live])
                S[:, live] += rho
                hit = (exits[:, live] == 0) & (S[:, live] <= _batch.EXIT_TOL)
                exits[:, live] = np.where(hit, step, exits[:, live])
        step = n
        for l in range(len(levels)):
            value = S[l, exits[l] == 0]
            counts[l, pos] = value.size
            sums[l, pos] = value.sum()
            sums2[l, pos] = np.square(value).sum()
        if want_samples:
            samples.append(S[0, exits[0] == 0].copy())
    return counts, sums, sums2, samples, exits, spans


# ---------------------------------------------------------------------------
# the killed walk one chunk at a time
#
# ``_batch.survival_chunk`` steps a group of chunks in waves to its first
# report and as one batch from there.  These are its kernel and word step as
# they ran one chunk per call, before chunks were grouped and before the word
# step searched only the paths near the highest threshold for their own; every
# chunk of a group must report these numbers bit for bit.


def chunk_word_step(words: _batch.Words, u, X, S, runmin, rising):
    """Advance every held path by one word; returns ``X``, ``S``, ``runmin`` and the alive mask.

    Every path takes the word's product.  A path whose start ``S`` less the
    word's drop bound clears its threshold (the lowest alive level's, read
    from ``rising``, the thresholds in increasing order, through the running
    minimum) by ``WORD_MARGIN`` cannot exit inside the word.  For every other
    path the prefix masses give the lowest point inside the word, ``S +
    log(min_j c_j . x)``; folded with the word-end ``S`` and the running
    minimum, it is alive while that minimum stays above ``rising[0]``, the
    top level's threshold.
    """
    floor = rising[0]
    widx = _batch.draw_indices(words.guide, u)
    thr = floor if runmin is None else rising[np.searchsorted(rising, runmin) - 1]
    near = np.flatnonzero(S - words.drop.take(widx) <= thr + _batch.WORD_MARGIN)
    X_end, rho = _batch.projective_step(words.table, widx, X)
    S_end = S + rho
    alive = S_end > floor
    if runmin is not None:
        runmin = np.minimum(runmin, S_end)
    if near.size:
        wn = widx.take(near)
        mass = words.prefix[0].T.take(wn, axis=0) * X[0].take(near)[:, None]
        for c, x in zip(words.prefix[1:], X[1:], strict=True):
            mass += c.T.take(wn, axis=0) * x.take(near)[:, None]
        inside = S.take(near) + np.log(mass.min(axis=1))
        low = np.minimum((S_end if runmin is None else runmin).take(near), inside)
        alive[near] = low > floor
        if runmin is not None:
            runmin[near] = low
    return X_end, S_end, runmin, alive


def chunk_survival(atom_stack, cum_weights, x0, levels, n_values, want_samples, size, ss):
    """Killed walk: paths exit at the first step with ``S <= EXIT_TOL``.

    ``levels`` is a non-empty, strictly increasing sequence of finite start
    levels ``a_0 < ... < a_top``; one level is a one-element sequence.  The
    increments do not depend on the level, so one path set, carried from
    ``a_0``, serves them all: level l's value is ``S + (a_l - a_0)``, and it
    is dead once ``S`` falls to its threshold ``EXIT_TOL - (a_l - a_0)``.  A
    path is dropped once dead at the top level, so cost tracks the alive
    count there and every path still held is alive there.  A lower level is
    alive while the running minimum of ``S`` stays above its threshold; that
    minimum is kept only when there is such a level.

    At each ``n`` in ``n_values`` (sorted, 1-based) the chunk reports, per
    level, the survivor count and the survivor sums of the value and its
    square (paths already dead contribute zero, which is exactly the killed
    expectation), as ``(len(levels), len(n_values))`` arrays.  With
    ``want_samples`` (one level only) the survivor values come as well.

    The walk steps by a word whenever the word ends by the next ``n``
    (see ``chunk_word_step``), and by a letter otherwise.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or not levels.size or not np.isfinite(levels).all() or np.any(np.diff(levels) <= 0.0):
        raise ValueError("levels must be a non-empty, strictly increasing sequence of finite numbers")
    if want_samples and levels.size > 1:
        raise ValueError("survivor samples are returned for one level only")
    shift = levels - levels[0]  # a_l - a_0
    thresholds = _batch.EXIT_TOL - shift
    top = levels.size - 1
    rising = thresholds[::-1]
    floor = rising[0]
    rng = np.random.default_rng(ss)
    table = _batch.step_table(atom_stack)
    guide = _batch.guide_table(cum_weights)
    words = _batch.word_table(atom_stack, cum_weights)
    b = 1 if words is None else words.length
    X = _batch._start(atom_stack, x0, size)
    S = np.full(size, levels[0])
    runmin = np.full(size, np.inf) if top else None
    counts = np.zeros((levels.size, len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    samples: list = [np.empty(0)] * len(n_values) if want_samples else []
    step = 0
    for pos, n in enumerate(n_values):
        while step < n and S.shape[0]:
            u = rng.random(S.shape[0])
            if b > 1 and step + b <= n:
                X, S, runmin, alive = chunk_word_step(words, u, X, S, runmin, rising)
                step += b
            else:
                X, rho = _batch.projective_step(table, _batch.draw_indices(guide, u), X)
                S = S + rho
                step += 1
                alive = S > floor
                if top:
                    np.minimum(runmin, S, out=runmin)
            if not alive.all():
                X = [x[alive] for x in X]
                S = S[alive]
                if top:
                    runmin = runmin[alive]
        step = n
        for l, off in enumerate(shift):
            value = (S if l == top else S[runmin > thresholds[l]]) + off
            counts[l, pos] = value.shape[0]
            sums[l, pos] = value.sum()
            sums2[l, pos] = np.square(value).sum()
        if want_samples:
            samples[pos] = value
    return counts, sums, sums2, samples


# ---------------------------------------------------------------------------
# the free walks one chunk at a time, on (m, d) arrays
#
# ``_batch.walk_chunk`` and ``_batch.martingale_chunk`` step their paths in
# place, a tile at a time.  These step one chunk as a whole with the left
# fold, on the letter stack and on the word stack that ``_batch.word_table``
# built, drawn by ``searchsorted``, and read the potential with ``np.interp``;
# their sums run in the library's order, so every output matches bit for bit.


def chunk_walk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, size, ss):
    """The free walk of one chunk, stepped by words where ``_batch.walk_chunk`` takes them.

    Returns the ``S``, ``rho`` and first-coordinate records, step 0 allowed
    in ``s_steps`` and ``x_steps``, and the final (size, d) points.
    """
    words = _batch.word_table(atom_stack, cum_weights)
    b = 1 if words is None else words.length
    # table[i][j][w] is entry (i, j) of word w
    word_stack = None if words is None else np.array(words.table).transpose(2, 0, 1)
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.full(size, float(a))
    s_rec = np.empty((len(s_steps), size))
    rho_rec = np.empty((len(rho_steps), size))
    x_rec = np.empty((len(x_steps), size))
    if 0 in s_steps:
        s_rec[s_steps.index(0)] = S
    if 0 in x_steps:
        x_rec[x_steps.index(0)] = X[:, 0]
    recorded = set(s_steps) | set(rho_steps) | set(x_steps)
    step = 0
    while step < n:
        u = rng.random(size)
        inside = range(step + 1, step + b)
        if b > 1 and step + b <= n and step + b not in rho_steps and not any(k in recorded for k in inside):
            X, rho = left_fold_step(word_stack, draw_indices(words.guide[0], u), X)
            step += b
        else:
            X, rho = left_fold_step(atom_stack, draw_indices(cum_weights, u), X)
            step += 1
        S = S + rho
        if step in s_steps:
            s_rec[s_steps.index(step)] = S
        if step in rho_steps:
            rho_rec[rho_steps.index(step)] = rho
        if step in x_steps:
            x_rec[x_steps.index(step)] = X[:, 0]
    return s_rec, rho_rec, x_rec, X


def chunk_martingale(atom_stack, cum_weights, x0, a, n, params, theta, A, size, ss):
    """The martingale guards of one chunk, as ``_batch.martingale_chunk`` returns them.

    ``M_n = (S_n + Theta(X_n)) - Theta(x_0)`` with ``Theta`` read by
    ``np.interp``.  Returns each path's ``sup_n |S_n - M_n|`` and the count
    of paths whose ``M`` reaches ``-A + EXIT_TOL`` at a step where ``S`` has
    not exited yet.
    """
    rng = np.random.default_rng(ss)
    X = np.tile(np.asarray(x0, dtype=float), (size, 1))
    S = np.full(size, float(a))
    theta0 = np.interp(x0[0], params, theta)
    gap = np.zeros(size)
    exited = np.zeros(size, dtype=bool)
    crossed = np.zeros(size, dtype=bool)
    late = 0
    for _ in range(n):
        X, rho = left_fold_step(atom_stack, draw_indices(cum_weights, rng.random(size)), X)
        S = S + rho
        M = S + np.interp(X[:, 0], params, theta) - theta0
        exited |= S <= _batch.EXIT_TOL
        first = ~crossed & (M <= -A + _batch.EXIT_TOL)
        late += int(np.count_nonzero(first & ~exited))
        crossed |= first
        gap = np.maximum(gap, np.abs(S - M))
    return gap, late


# ---------------------------------------------------------------------------
# reference path records
#
# One record per path, cut out of the free walk's rows, and the martingale
# guards as Python loops over the records.  The library keeps each chunk's
# rows as one batch of step-major arrays and reduces them as arrays; path for
# path it must hold the same numbers, and its guards must count the same.


@dataclass(frozen=True, eq=False)
class PathRecord:
    """One realized trajectory of the walk.

    ``S[0] = start_a``; when a potential was supplied, ``M`` is the
    compensated trajectory ``M_n = S_n + Theta(X_n) - Theta(X_0)`` aligned
    with ``S``.  ``tau`` is the first step with ``S <= 0`` (None when the
    path was censored at the horizon); ``T`` is the first step with
    ``M <= 0`` within the recorded range.
    """

    start_x: np.ndarray
    start_a: float
    S: np.ndarray
    M: np.ndarray | None
    tau: int | None
    T: int | None
    horizon: int
    censored: bool
    x_final: np.ndarray


def _first_step(values: np.ndarray, level: float) -> int | None:
    """1-based position of the first entry ``<= level`` (None when there is none)."""
    hits = np.nonzero(values <= level)[0]
    return int(hits[0]) + 1 if hits.size else None


def simulate_paths(law, x, a, horizon, paths, seed, poisson=None, workers=1) -> list[PathRecord]:
    """``conefluct.simulate_paths`` as one ``PathRecord`` per path."""
    if poisson is not None and law.dim != 2:
        raise ValueError("compensated trajectories need the d = 2 tabulated potential")
    steps = tuple(range(1, horizon + 1))
    parts = _batch.run_chunks(
        _batch.walk_chunk,
        (law.atom_stack, law.cum_weights, x.coords, a, horizon, steps, (), steps if poisson is not None else (), True),
        paths,
        seed,
        workers,
    )
    a = float(a)
    records = []
    for s_rec, _, m_rec, X_final in parts:
        if poisson is not None:
            # M over the coordinate rows in place, one step at a time: a
            # whole-array pass would hold a second (horizon, paths) buffer
            theta0 = poisson.theta_at(x.coords[0])
            for k in range(horizon):
                m_rec[k] = s_rec[k] + poisson.theta_at(m_rec[k]) - theta0
        for p in range(s_rec.shape[1]):
            tau = _first_step(s_rec[:, p], 0.0)
            M = T = None
            if poisson is not None:
                M = np.concatenate(([a], m_rec[:, p]))
                T = _first_step(M[1:], 0.0)
            records.append(
                PathRecord(
                    start_x=x.coords,
                    start_a=a,
                    S=np.concatenate(([a], s_rec[:, p])),
                    M=M,
                    tau=tau,
                    T=T,
                    horizon=horizon,
                    censored=tau is None,
                    x_final=X_final[p].copy(),
                )
            )
    return records


def martingale_gap(records, A: float, slack: float = 0.0):
    """Pathwise sup of ``|S - M|`` and the count of paths exceeding ``A + slack``."""
    max_gap = 0.0
    violations = 0
    for rec in records:
        if rec.M is None:
            raise ValueError("records carry no compensated trajectory; simulate with a potential")
        gap = float(np.abs(rec.S - rec.M).max())
        max_gap = max(max_gap, gap)
        if gap > A + slack:
            violations += 1
    return max_gap, violations


def exit_ordering_violations(records, A: float) -> int:
    """Count paths on which ``M`` reaches ``-A`` before ``S`` exits."""
    bad = 0
    for rec in records:
        if rec.M is None:
            raise ValueError("records carry no compensated trajectory; simulate with a potential")
        t_shift = _first_step(rec.M[1:], -A)
        if t_shift is not None and (rec.tau is None or rec.tau > t_shift):
            bad += 1
    return bad


# ---------------------------------------------------------------------------
# reference grid scatters
#
# Per-atom ``np.add.at`` loops over a ``transfer_operator._Workspace``.  The
# library lists the stencil entries once and scatters them with one
# ``np.bincount``, which must match these bit for bit.


def apply_adjoint(ws, nu: np.ndarray) -> np.ndarray:
    out = np.zeros(ws.grid.resolution)
    for k, w in enumerate(ws.weights):
        lo, frac = ws.lo[k], ws.frac[k]
        np.add.at(out, lo, w * nu * (1.0 - frac))
        np.add.at(out, lo + 1, w * nu * frac)
    return out


def dense(ws) -> np.ndarray:
    G = ws.grid.resolution
    B = np.zeros((G, G))
    rows = np.arange(G)
    for k, w in enumerate(ws.weights):
        lo, frac = ws.lo[k], ws.frac[k]
        np.add.at(B, (rows, lo), w * (1.0 - frac))
        np.add.at(B, (rows, lo + 1), w * frac)
    return B


# ---------------------------------------------------------------------------
# reference GMRES
#
# ``transfer_operator._gmres`` as it was before it tracked the residual by
# Givens rotations: the Hessenberg least-squares problem is re-solved by
# ``lstsq`` at every iteration.  The library solves it near the stop only,
# and must stop after as many products with the same bits.


def gmres(matvec, b: np.ndarray, rtol: float, max_iter: int) -> np.ndarray | None:
    """Solve ``M x = b`` by GMRES from ``x = 0`` (Saad & Schultz 1986), no restarts.

    Arnoldi with modified Gram-Schmidt grows the Krylov basis one vector per
    iteration; the small Hessenberg least-squares problem is re-solved each
    time, and the iteration stops once its residual is below ``rtol |b|``
    (2-norms).  Returns None on a breakdown before that point: the Krylov
    space is then invariant under ``M`` but holds no solution, so ``M`` is
    singular.  The breakdown test is absolute, which assumes ``|M| >= 1``
    (the bordered Poisson operator maps constants to themselves), so a new
    direction shorter than 1e-8 is rounding noise.  A zero ``b`` returns 0;
    ConvergenceError is raised after ``max_iter`` iterations.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    basis = [b / beta]
    hess = np.zeros((1, 0))
    residual = beta
    for j in range(max_iter):
        w = matvec(basis[j])
        h = np.zeros(j + 2)
        for i, v in enumerate(basis):
            h[i] = v @ w
            w = w - h[i] * v
        h[j + 1] = np.linalg.norm(w)
        hess = np.pad(hess, ((0, 1), (0, 1)))
        hess[:, j] = h
        target = np.zeros(j + 2)
        target[0] = beta
        y = np.linalg.lstsq(hess, target, rcond=None)[0]
        residual = float(np.linalg.norm(hess @ y - target))
        if residual < rtol * beta:
            return y @ np.array(basis)
        if h[j + 1] < 1e-8:
            return None
        basis.append(w / h[j + 1])
    raise ConvergenceError("GMRES cross-check did not reach tolerance", residual)


def curvature_sigma2(law, grid, h: float = 0.05) -> float:
    """Fluctuation variance from the curvature of ``log |lambda_t|`` at 0.

    ``lambda_t = exp(i gamma t - sigma^2 t^2 / 2 + O(t^3))``, so the modulus
    drops the drift: ``-2 log |lambda_t| / t^2 = sigma^2 + O(t^2)``.  The
    values at ``h`` and ``h/2`` are Richardson-combined to cancel the
    ``t^2`` term.  Unlike ``2 (1 - Re lambda_t) / t^2``, which reads
    ``sigma^2 + gamma^2``, this holds for any drift.
    """
    from conefluct import dominant_eigenvalue

    s_h, s_h2 = (-2.0 * math.log(abs(dominant_eigenvalue(law, grid, t)[0])) / t**2 for t in (h, h / 2.0))
    return (4.0 * s_h2 - s_h) / 3.0


# ---------------------------------------------------------------------------
# reference CSV writer
#
# ``cli._write_csv`` joins the formatted cells itself; ``csv.writer`` with
# its default dialect is the reference for the bytes it writes.


def csv_bytes(header, columns) -> bytes:
    """A header row and equal-length columns, formatted cell by cell with ``cli._fmt``, as ``csv.writer`` writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*([_fmt(v) for v in col] for col in columns)))
    return buf.getvalue().encode("utf-8")
