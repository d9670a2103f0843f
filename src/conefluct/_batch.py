"""Vectorized projective-walk kernels shared by the law and simulation layers.

There are two walk kernels, both built on ``draw_indices`` and
``projective_step``: ``walk_chunk`` runs the free walk over the full horizon
and records selected steps, and ``survival_chunk`` runs the killed walk,
dropping each path at its exit.  The killed walk always takes a strictly
increasing tuple of start levels, one level being a one-element tuple.
The increments do not depend on the level, so one path set carried from
the lowest level ``a_0`` is the killed walk at every level: level l is
shifted by ``a_l - a_0``, a path is dropped once it is dead at the top
level, and the levels below the top read a running minimum of the walk.

Paths are processed in fixed-size chunks.  The master seed is expanded with
``SeedSequence.spawn`` into one substream per chunk and partial results are
reduced in chunk order, so outputs are bit-identical for any worker count.
``CHUNK_PATHS`` is part of that reproducibility contract: it is a module
constant, not configuration, because changing it relays paths onto different
substreams.

Workers are plain module-level functions over (atom stack, cumulative
weights) arrays so they can be shipped to a process pool.

The walk state is one contiguous (m,) array per simplex coordinate, in
every dimension, and the step reads each atom entry as a (K,) array built
once per chunk, so no (m, d, d) stack is gathered per step.  Every sum in
the step runs left to right over the coordinates; that order is part of the
reproducibility contract.  For d = 2 each sum is a single addition, which
commutes, so the d = 2 bits depend on no summation order.

The atom draw is an indexed search (Chen & Asau, AIIE Transactions 6, 1974)
that returns exactly the index ``np.searchsorted(cum_weights, u,
side="right")`` would.  ``[0, 1)`` is cut into ``2**GUIDE_BITS`` equal bins;
scaling ``u`` by that power of two is exact, so truncation finds the bin of
``u`` without rounding.  A bin that holds no cumulative weight maps every
uniform in it to one index, read from a table; only uniforms in a bin that
holds one (a split bin) fall back to the binary search.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

CHUNK_PATHS = 16384

# bins of the atom draw's guide table.  Any value gives the same indices; 4096
# bins keep the table small and leave few bins split (none for the reference
# law, 1.5% for 64 atoms)
GUIDE_BITS = 12


def chunk_layout(paths: int) -> list[int]:
    """Split a path budget into chunk sizes (all CHUNK_PATHS but the last)."""
    if paths <= 0:
        raise ValueError("need a positive number of paths")
    full, rem = divmod(paths, CHUNK_PATHS)
    return [CHUNK_PATHS] * full + ([rem] if rem else [])


def as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if seed is None:
        raise ValueError("a seed is required; wall-clock seeding is not supported")
    return np.random.SeedSequence(seed)


def _invoke(job):
    fn, args, size, ss = job
    return fn(*args, size, ss)


def run_chunks(fn, args: tuple, paths: int, seed, workers: int = 1) -> list:
    """Run ``fn(*args, chunk_size, chunk_seed)`` over the chunk layout.

    Returns the per-chunk results in chunk order regardless of ``workers``.
    """
    sizes = chunk_layout(paths)
    seeds = as_seed_sequence(seed).spawn(len(sizes))
    jobs = [(fn, args, size, ss) for size, ss in zip(sizes, seeds)]
    if workers <= 1 or len(jobs) == 1:
        return [_invoke(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_invoke, jobs, chunksize=1))


def guide_table(cum_weights: np.ndarray):
    """The guide table ``draw_indices`` reads for these cumulative weights.

    Bin ``b`` covers ``[b/B, (b+1)/B)`` with ``B = 2**GUIDE_BITS``.  ``lo[b]``
    is the atom ``searchsorted(..., side="right")`` gives at the bin's left
    edge; the bin is split when a cumulative weight lies inside it, that is
    when the count of weights below its right edge differs from ``lo[b]``.
    The split mask is ``None`` when no bin is split.  Kernels build the table
    once per chunk.
    """
    bins = 1 << GUIDE_BITS
    edges = np.arange(bins + 1) / bins
    lo = np.searchsorted(cum_weights, edges[:-1], side="right")
    split = lo != np.searchsorted(cum_weights, edges[1:], side="left")
    return cum_weights, lo, split if split.any() else None


def draw_indices(guide, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to atom indices via the cumulative weights.

    ``guide`` comes from ``guide_table``.  The result equals
    ``np.searchsorted(cum_weights, u, side="right")``, the count of weights
    ``<= u``, exactly: ``u * B`` is exact because ``B`` is a power of two,
    and truncation is the floor for ``u >= 0``, so ``b`` is the bin that
    holds ``u``.  For ``u`` in bin ``b`` that count lies between ``lo[b]``,
    the count ``<= b/B``, and the count ``< (b+1)/B``; in an unsplit bin the
    two agree.  Only uniforms in split bins go through ``searchsorted``.
    """
    cum_weights, lo, split = guide
    b = (u * (1 << GUIDE_BITS)).astype(np.intp)
    idx = lo.take(b)
    if split is not None:
        fix = np.flatnonzero(split.take(b))
        if fix.size:
            idx[fix] = np.searchsorted(cum_weights, u.take(fix), side="right")
    return idx


def step_table(atom_stack: np.ndarray):
    """What ``projective_step`` reads for a (K, d, d) atom stack.

    ``table[i][j]`` holds the entry ``g_ij`` of every atom as a contiguous
    (K,) array.  Kernels build it once per chunk.
    """
    d = atom_stack.shape[1]
    return [[np.ascontiguousarray(atom_stack[:, i, j]) for j in range(d)] for i in range(d)]


def _start(atom_stack: np.ndarray, x0, size: int) -> list:
    """``size`` copies of the start point, one (size,) array per coordinate."""
    d = atom_stack.shape[1]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (d,):
        raise ValueError(f"the start point has {x0.size} coordinates, but the law has dimension {d}")
    return [np.full(size, c) for c in x0]


def projective_step(table, idx: np.ndarray, X: list):
    """One projective step for a batch of paths.

    ``table`` comes from ``step_table``, ``idx`` is the chosen atom per path
    and ``X`` the state, one (m,) array per simplex coordinate.  Returns the
    renormalized images in the same layout and the log-mass increments
    ``rho(g_idx, x)``.  Row i is ``y_i = g_i0[idx]*x_0 + g_i1[idx]*x_1 + ...``
    and the mass ``y_0 + y_1 + ...``, both summed left to right.
    """
    Y = []
    for row in table:
        y = row[0].take(idx) * X[0]
        for g, x in zip(row[1:], X[1:], strict=True):
            y += g.take(idx) * x
        Y.append(y)
    mass = sum(Y[1:], Y[0])
    return [y / mass for y in Y], np.log(mass)


def walk_chunk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, want_points, size, ss):
    """Full-horizon walk (no exit filtering) recording selected step data.

    Records ``S_k`` at steps in ``s_steps``, the raw increment ``rho`` at
    steps in ``rho_steps``, and the first simplex coordinate at steps in
    ``x_steps``; all three are sorted tuples.  Step 0 is the start point,
    which ``s_steps`` and ``x_steps`` may ask for; increments begin at step 1.
    Each record has one row per requested step and one column per path.
    With ``want_points`` the final (size, d) simplex points are returned
    last, otherwise ``None``.
    """
    rng = np.random.default_rng(ss)
    table = step_table(atom_stack)
    guide = guide_table(cum_weights)
    X = _start(atom_stack, x0, size)
    S = np.full(size, float(a))
    s_rec = np.empty((len(s_steps), size))
    rho_rec = np.empty((len(rho_steps), size))
    x_rec = np.empty((len(x_steps), size))
    want_s = {step: i for i, step in enumerate(s_steps)}
    want_rho = {step: i for i, step in enumerate(rho_steps)}
    want_x = {step: i for i, step in enumerate(x_steps)}
    if 0 in want_s:
        s_rec[0] = S
    if 0 in want_x:
        x_rec[0] = X[0]
    for step in range(1, n + 1):
        idx = draw_indices(guide, rng.random(size))
        X, rho = projective_step(table, idx, X)
        S = S + rho
        if step in want_s:
            s_rec[want_s[step]] = S
        if step in want_rho:
            rho_rec[want_rho[step]] = rho
        if step in want_x:
            x_rec[want_x[step]] = X[0]
    return s_rec, rho_rec, x_rec, np.stack(X, axis=1) if want_points else None


def survival_chunk(atom_stack, cum_weights, x0, levels, n_values, want_samples, size, ss):
    """Killed walk: paths exit at the first step with ``S <= 0``.

    ``levels`` is a non-empty, strictly increasing sequence of finite start
    levels ``a_0 < ... < a_top``; one level is a one-element sequence.  The
    increments do not depend on the level, so one path set, carried from
    ``a_0``, serves them all: level l's value is ``S + (a_l - a_0)``.  A path
    is dropped once ``S <= a_0 - a_top``, so cost tracks the alive count at
    the top level and every path still held is alive there.  A lower level
    is alive while the running minimum of ``S`` stays above ``a_0 - a_l``;
    that minimum is kept only when there is such a level.

    At each ``n`` in ``n_values`` (sorted, 1-based) the chunk reports, per
    level, the survivor count and the survivor sums of the value and its
    square (paths already dead contribute zero, which is exactly the killed
    expectation), as ``(len(levels), len(n_values))`` arrays.  With
    ``want_samples`` (one level only) the survivor values come as well.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or not levels.size or not np.isfinite(levels).all() or np.any(np.diff(levels) <= 0.0):
        raise ValueError("levels must be a non-empty, strictly increasing sequence of finite numbers")
    if want_samples and levels.size > 1:
        raise ValueError("survivor samples are returned for one level only")
    shift = levels - levels[0]  # a_l - a_0; a_0 - a_l is its exact negative
    top = levels.size - 1
    rng = np.random.default_rng(ss)
    table = step_table(atom_stack)
    guide = guide_table(cum_weights)
    X = _start(atom_stack, x0, size)
    S = np.full(size, levels[0])
    runmin = np.full(size, np.inf) if top else None
    floor = -shift[top]
    counts = np.zeros((levels.size, len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    samples: list = [np.empty(0)] * len(n_values) if want_samples else []
    pos = 0
    for step in range(1, n_values[-1] + 1):
        if S.shape[0]:
            idx = draw_indices(guide, rng.random(S.shape[0]))
            X, rho = projective_step(table, idx, X)
            S = S + rho
            alive = S > floor
            if not alive.all():
                X = [x[alive] for x in X]
                S = S[alive]
                if top:
                    runmin = runmin[alive]
            if top:
                np.minimum(runmin, S, out=runmin)
        if step == n_values[pos]:
            for l, off in enumerate(shift):
                value = (S if l == top else S[runmin > -off]) + off
                counts[l, pos] = value.shape[0]
                sums[l, pos] = value.sum()
                sums2[l, pos] = np.square(value).sum()
            if want_samples:
                samples[pos] = value
            pos += 1
            if pos == len(n_values):
                break
    return counts, sums, sums2, samples
