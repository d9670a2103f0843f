"""Vectorized projective-walk kernels shared by the law and simulation layers.

There are two walk kernels, both built on ``draw_indices`` and
``projective_step``: ``walk_chunk`` runs the free walk over the full horizon
and records selected steps, and ``survival_chunk`` runs the killed walk,
dropping each path at its exit.

Paths are processed in fixed-size chunks.  The master seed is expanded with
``SeedSequence.spawn`` into one substream per chunk and partial results are
reduced in chunk order, so outputs are bit-identical for any worker count.
``CHUNK_PATHS`` is part of that reproducibility contract: it is a module
constant, not configuration, because changing it relays paths onto different
substreams.

Workers are plain module-level functions over (atom stack, cumulative
weights) arrays so they can be shipped to a process pool.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

CHUNK_PATHS = 16384


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


def walk_chunk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, size, ss):
    """Full-horizon walk (no exit filtering) recording selected step data.

    Records ``S_k`` at steps in ``s_steps``, the raw increment ``rho`` at
    steps in ``rho_steps``, and the first simplex coordinate at steps in
    ``x_steps``.  Step indices are 1-based; all three are sorted tuples.
    Each record has one row per requested step and one column per path; the
    final simplex points are returned last.
    """
    if x_steps and atom_stack.shape[1] != 2:
        raise ValueError("coordinate recording is only defined for d = 2")
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
        X, rho = projective_step(atom_stack, idx, X)
        S = S + rho
        if step in want_s:
            s_rec[want_s[step]] = S
        if step in want_rho:
            rho_rec[want_rho[step]] = rho
        if step in want_x:
            x_rec[want_x[step]] = X[:, 0]
    return s_rec, rho_rec, x_rec, X


def survival_chunk(atom_stack, cum_weights, x0, a, n_values, want_samples, size, ss):
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
            X, rho = projective_step(atom_stack, idx, X)
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
