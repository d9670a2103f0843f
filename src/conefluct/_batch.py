"""Vectorized projective-walk kernels shared by the law and simulation layers.

There are three walk kernels, all built on ``draw_indices`` and
``projective_step``: ``walk_chunk`` runs the free walk over the full horizon
and records selected steps, ``martingale_chunk`` runs it over the full
horizon and reduces the two martingale guards as it steps, keeping O(paths)
state, and ``survival_chunk`` runs the killed walk, dropping each path at its
exit.  The killed walk always takes a strictly increasing tuple of start
levels, one level being a one-element tuple.  The increments do not depend
on the level, so one path set carried from the lowest level ``a_0`` is the
killed walk at every level: level l is shifted by ``a_l - a_0``, a path is
dropped once it is dead at the top level, and each path keeps the threshold
of its lowest level still alive, lowered only when the walk reaches it.

Paths are processed in fixed-size chunks.  The master seed is expanded with
``SeedSequence.spawn`` into one substream per chunk, each chunk has its own
result, and callers reduce the results in chunk order.  ``CHUNK_PATHS`` is
part of the reproducibility contract: it is a module constant, not
configuration, because changing it relays paths onto different substreams.

``run_chunks`` hands the chunks to the kernels in contiguous groups, at least
one per worker and at most ``GROUP_PATHS`` paths each, and a kernel builds
its tables once per group.  The free walk runs a group's chunks one after
the other.  The killed walk steps them as one batch in which each chunk's
held paths are one contiguous segment: every step, each chunk draws its
segment's uniforms from its own substream; every operation of the step acts
on each path alone; dropping paths keeps their order, so the segments stay
contiguous; and each chunk's counts, sums and samples are taken over its own
segment.  A chunk's result therefore does not depend on the chunks that
share its group, so neither the grouping, nor ``GROUP_PATHS``, nor the
worker count can move a bit.

``workers=N`` means N processes compute, the calling process included.
``run_chunks`` hands groups 1.. to a pool of ``N - 1`` processes, runs group
0 in the calling process and then, last first, every group no pool process
has taken yet, and collects the results in chunk order.  Inside a
``pool_scope(N)`` block every call at N workers shares one pool, started
(forked once) by the first call with more than one group and shut down when
the block ends, however it ends; the CLI opens one scope per command.  A
call outside such a scope starts a pool of ``min(N, groups) - 1`` processes
for itself, through the same code.  Which process runs a group moves no bit.
The kernels are plain module-level functions over (atom stack, cumulative
weights) arrays so they can be shipped to the pool.

The walk state is one contiguous (m,) array per simplex coordinate, in
every dimension, and the step reads each atom entry as a (K,) array built
once per group, so no (m, d, d) stack is gathered per step.  Every sum in
the step runs left to right over the coordinates; that order is part of the
reproducibility contract.  For d = 2 each sum is a single addition, which
commutes, so the d = 2 bits depend on no summation order.

The atom draw is an indexed search (Chen & Asau, AIIE Transactions 6, 1974)
that returns exactly the index ``np.searchsorted(cum_weights, u,
side="right")`` would.  ``[0, 1)`` is cut into a power of two of equal bins,
``2**GUIDE_BITS`` or 16 per entry of a longer stack, at most
``2**GUIDE_MAX_BITS``; scaling ``u`` by that power of two is exact, so
truncation finds the bin of ``u`` without rounding.  A table gives each bin
the index of its left edge, and one compare of ``u`` with the next
cumulative weight corrects it in a bin that holds one weight strictly
inside (a split bin).  Only uniforms in a bin that holds two or more fall
back to the binary search, and a stack with no split bin, such as the
reference law's, skips the compare.  Sizing the table to the stack keeps
crowded bins rare: the benchmark's 4096-word stack splits 4095 of 2**16
bins and puts two weights in none.

``martingale_chunk`` reads the potential at every step through
``grid_interp``: the grid is uniform, so index arithmetic and one compare
each way find the segment that ``np.interp`` finds by binary search, and
the value is numpy's own formula (see ``grid_interp``).

``walk_chunk`` and ``survival_chunk`` step by words of ``b`` letters where
they can; ``martingale_chunk`` reads every step, so it steps by letters.  The
walk sampled every ``b`` steps is the walk of the b-fold convolution, whose
atoms are the ``K**b`` products of ``b`` letters, so one uniform and one
projective step through the word stack (``word_table``) cover ``b`` steps.  ``b`` is the
largest value up to ``WORD_LETTERS`` with ``K**b <= WORD_ATOMS``: 8 for ``K =
2``, 2 for ``17 <= K <= 64``.  It is 1 for a one-atom law and for ``K > 64``,
and such laws step by letters only, with the same bits as a letter kernel.  So
does a law whose word products leave the normal float range: a prefix product
with an infinite or subnormal entry, or a column sum that is not finite and
positive, would step ``X`` and ``S`` inexactly, so ``word_table`` gives such a
law no words.  The letters of a word are the base-K digits of its index, the
first letter to act the most significant, so the word weights are the letter
weights multiplied in that order and the word stack decodes back to the letter
walk.

A word never steps past a recorded or reported step.  In the killed walk the
exits stay exact by the word's prefix masses: with ``c_j`` the column sums of
the product ``p_j`` of the word's first ``j`` letters, ``|p_j x|_1 = c_j .
x``, so the walk inside the word stands at ``S + log(c_j . x)`` after ``j``
letters.  On the simplex ``c_j . x >= min_i c_{j,i}``, so no step inside the
word falls more than ``H(w) = max(0, max_j -log min_i c_{j,i})`` below its
start.  Every path takes the word's product for ``X`` and ``S``.  A path
whose ``S - H(w)`` clears the threshold of the lowest level still alive for
it by ``WORD_MARGIN`` cannot exit inside the word; for every other path the
in-word minimum ``S + log(min_j c_j . x)`` over the prefixes ``j < b``, with
the word-end ``S``, gives its exit at every level and its new lowest live
level.  No letter is replayed.

Every exit test counts ``S <= EXIT_TOL`` (``2**-30``) as an exit.  The
log-mass of a word or of a prefix differs from the sum of its letters' by
rounding, so a walk whose letters move it on a lattice, where ``S`` meets 0
exactly, leaves the lattice by ulps after a word; the tolerance keeps those
ties exits.
"""

from __future__ import annotations

import contextlib
import contextvars
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

CHUNK_PATHS = 16384

# most paths in one kernel call, a whole number of chunks.  It bounds memory
# only: a group's chunks keep their own substreams and results
GROUP_PATHS = 2**18

# bins of the atom draw's guide table: 2**GUIDE_BITS, or 16 per entry of a
# longer stack, at most 2**GUIDE_MAX_BITS.  Any size gives the same indices.
# A bin that holds two or more cumulative weights falls back to a binary
# search, so the table grows with the stack: the benchmark's 4096 words put
# two or more weights in 660 of 2**12 bins and in none of 2**16
GUIDE_BITS = 12
GUIDE_MAX_BITS = 16

# most atoms of a word stack: a K-atom law steps by words of the largest b <=
# WORD_LETTERS with K**b <= WORD_ATOMS (8 for K = 2, 2 for K = 17 to 64, 1
# from K = 65 on).  The cap keeps the two-atom reference law at 256 words
WORD_ATOMS = 4096
WORD_LETTERS = 8

# every exit test counts S <= EXIT_TOL as an exit (see the module docstring)
EXIT_TOL = 2.0**-30

# room a path needs above its threshold, past the drop bound, to take a whole
# word; far above the rounding of the bound and of a word's log-mass
WORD_MARGIN = 1e-9


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


def chunk_groups(count: int, workers: int) -> list[slice]:
    """Split ``count`` chunks into contiguous groups, one kernel call each.

    There are at least ``min(workers, count)`` groups, so every worker gets
    one, and no group holds more than ``GROUP_PATHS // CHUNK_PATHS`` chunks;
    the groups' chunk counts differ by at most one.
    """
    most = GROUP_PATHS // CHUNK_PATHS
    groups = max(min(workers, count), -(-count // most))
    bounds = [count * g // groups for g in range(groups + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _invoke(job):
    fn, args, sizes, seeds = job
    return fn(*args, sizes, seeds)


class _Pool:
    """``workers - 1`` pool processes beside the calling process, started at first need."""

    def __init__(self, workers: int):
        self.workers = workers
        self._executor = None

    def run(self, jobs: list) -> list:
        """Each job's result, in job order.

        Jobs 1.. go to the pool and job 0 runs here; then this process also
        runs, last first, every job that no pool process has taken yet.
        """
        if self.workers <= 1 or len(jobs) == 1:
            return [_invoke(job) for job in jobs]
        if self._executor is None:
            # with the fork start method every process is forked here, once
            self._executor = ProcessPoolExecutor(max_workers=self.workers - 1)
        futures = [self._executor.submit(_invoke, job) for job in jobs[1:]]
        first = _invoke(jobs[0])
        # the pool takes jobs first to last, so this process takes them last first
        mine = {f: _invoke(job) for f, job in reversed(list(zip(futures, jobs[1:]))) if f.cancel()}
        return [first] + [mine[f] if f in mine else f.result() for f in futures]

    def close(self) -> None:
        """Cancel the jobs not started, wait for the rest, and reap every pool process."""
        if self._executor is not None:
            self._executor.shutdown(cancel_futures=True)
            self._executor = None


# the pool of the innermost open ``pool_scope``; ``run_chunks`` keeps its
# signature, so the pool reaches it through the context, not an argument
_scope: contextvars.ContextVar = contextvars.ContextVar("pool_scope", default=None)


@contextlib.contextmanager
def pool_scope(workers: int):
    """Share one pool among the ``run_chunks`` calls at ``workers`` inside the block.

    The pool starts at the first call with more than one group, so a block
    that has none forks nothing, and it is shut down when the block ends, on
    an exception too, with every pool process reaped.
    """
    pool = _Pool(workers)
    token = _scope.set(pool)
    try:
        yield
    finally:
        _scope.reset(token)
        pool.close()


def run_chunks(fn, args: tuple, paths: int, seed, workers: int = 1) -> list:
    """Run the kernel ``fn(*args, sizes, seeds)`` over the chunk layout, a group of chunks per call.

    ``fn`` returns one result per chunk of its group.  Returns the per-chunk
    results in chunk order regardless of ``workers``.  ``workers`` processes
    compute, the calling process included: the pool of the open
    ``pool_scope`` at this worker count, else a pool of this call's own.
    """
    sizes = chunk_layout(paths)
    seeds = as_seed_sequence(seed).spawn(len(sizes))
    jobs = [(fn, args, sizes[g], seeds[g]) for g in chunk_groups(len(sizes), workers)]
    shared = _scope.get()
    if shared is not None and shared.workers == workers:
        pool = contextlib.nullcontext(shared)
    else:
        # a pool starts all of its processes up front, so it gets no more than the groups need
        pool = contextlib.closing(_Pool(min(workers, len(jobs))))
    with pool as p:
        groups = p.run(jobs)
    return [part for group in groups for part in group]


def guide_table(cum_weights: np.ndarray):
    """The guide table ``draw_indices`` reads for these cumulative weights.

    ``cum_weights`` is non-decreasing and ends at 1.0, as
    ``MatrixLaw.cum_weights`` and ``word_table`` build it.  The table has
    ``B = 2**bits`` bins, ``bits`` the larger of ``GUIDE_BITS`` and
    ``ceil(log2 N) + 4`` for ``N`` weights (at least 16 bins per weight), at
    most ``GUIDE_MAX_BITS``.  Bin ``b`` covers ``[b/B, (b+1)/B)``.  ``lo[b]``
    is the atom ``searchsorted(..., side="right")`` gives at the bin's left
    edge, the count of weights ``w`` with ``w * B <= b``, that is with
    ``ceil(w * B) <= b``.  A weight lies strictly inside bin ``b`` when
    ``floor(w * B) = b`` and ``w * B`` is not a whole number; ``B`` is a power
    of two, so ``w * B`` is exact and both tests are exact.  A bin that holds
    two or more such entries (a repeated value counts once per entry) holds
    the marker ``N + 1``, which no count reaches, in place of its count.
    ``lo`` has the narrowest unsigned type that holds the marker.  The guide
    is ``(cum_weights, lo, marker, B, inside)``, with the marker ``None``
    when no bin holds two entries and ``inside`` false when no weight lies
    strictly inside a bin.  Kernels build the table once per group of
    chunks.
    """
    count = cum_weights.shape[0]
    bits = min(GUIDE_MAX_BITS, max(GUIDE_BITS, (count - 1).bit_length() + 4))
    scale = 1 << bits
    scaled = cum_weights * scale
    marker = count + 1
    # weight i sends every bin from ceil(w_i * B) on to an atom past i
    first = np.ceil(scaled).astype(np.intp)
    lo = np.repeat(np.arange(marker, dtype=np.min_scalar_type(marker)), np.diff(first, prepend=0, append=scale))
    inside = np.floor(scaled)
    inside = inside[inside != scaled].astype(np.intp)
    # the weights are sorted, so the entries of one bin are adjacent
    many = inside[1:][inside[1:] == inside[:-1]]
    lo[many] = marker
    return cum_weights, lo, marker if many.size else None, scale, bool(inside.size)


def draw_indices(guide, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to atom indices via the cumulative weights.

    ``guide`` comes from ``guide_table``.  The result equals
    ``np.searchsorted(cum_weights, u, side="right")``, the count of weights
    ``<= u``, exactly: ``u * B`` is exact because ``B`` is a power of two,
    and truncation is the floor for ``u >= 0``, so it is the bin ``b`` that
    holds ``u``.  Uniforms in a bin that holds two or more weights go
    through ``searchsorted``.  Every other bin holds at most one weight
    strictly inside, and ``lo[b]`` is the count ``<= b/B``, so the count
    ``<= u`` is ``lo[b]``, plus one when the next weight ``cum[lo[b]]`` is
    ``<= u``: that weight is either the one inside the bin or at least
    ``(b+1)/B > u``.  The same compare adds nothing to an exact count ``i``,
    since ``cum[i] > u`` (``u < 1`` and the last weight is 1.0), so it runs
    over every uniform, after the fallback, and is skipped when no weight
    lies inside a bin.
    """
    cum_weights, lo, marker, scale, inside = guide
    idx = lo.take((u * scale).astype(np.intp))
    fix = None if marker is None else np.flatnonzero(idx == marker)
    # ``take`` converts narrower indices on every call, so they widen here, once
    idx = idx.astype(np.intp)
    if fix is not None and fix.size:
        idx[fix] = np.searchsorted(cum_weights, u.take(fix), side="right")
    if inside:
        idx += cum_weights.take(idx) <= u
    return idx


def step_table(atom_stack: np.ndarray):
    """What ``projective_step`` reads for a (K, d, d) atom stack.

    ``table[i][j]`` holds the entry ``g_ij`` of every atom as a contiguous
    (K,) array.  Kernels build it once per group of chunks.
    """
    d = atom_stack.shape[1]
    return [[np.ascontiguousarray(atom_stack[:, i, j]) for j in range(d)] for i in range(d)]


def word_length(K: int) -> int:
    """Letters per word for a K-atom law: the largest b <= ``WORD_LETTERS`` with ``K**b <= WORD_ATOMS``."""
    b = 1
    while K > 1 and b < WORD_LETTERS and K ** (b + 1) <= WORD_ATOMS:
        b += 1
    return b


@dataclass(frozen=True, eq=False)
class Words:
    """The b-letter words of a law, as ``word_table`` builds them.

    ``table`` and ``guide`` are the ``step_table`` of the word products and
    the ``guide_table`` of the word weights; ``drop`` is each word's drop
    bound ``H(w)``.  ``prefix[i]`` is a contiguous (K**b, b - 1) array whose
    row ``w``, column ``j - 1`` holds ``c_{j,i}``, column sum i of the
    product of word w's first j letters, for j = 1 .. b - 1.
    """

    table: list
    guide: tuple
    drop: np.ndarray
    prefix: list

    @property
    def length(self) -> int:
        """Letters per word, b."""
        return self.prefix[0].shape[1] + 1


def word_table(atom_stack: np.ndarray, cum_weights: np.ndarray) -> Words | None:
    """The word stack of a (K, d, d) atom stack, or None when the law steps by letters.

    That is when b = 1, and when some word's prefix product has an infinite
    or subnormal entry or a column sum that is not finite and positive: its
    product would step ``X`` and ``S`` inexactly, so the whole law steps by
    letters.  No warning is raised either way.

    Word ``w`` has letters ``k_1 ... k_b``, the base-K digits of ``w`` with
    ``k_1`` the most significant; it stands for ``g_{k_b} ... g_{k_1}`` and
    has weight ``((w_{k_1} w_{k_2}) ...) w_{k_b}``, where the letter weights
    are the steps of ``cum_weights``.  The cumulative word weights are
    clamped and closed at 1 as ``MatrixLaw.cum_weights`` is.  Kernels build
    the table once per group of chunks.
    """
    K, d = atom_stack.shape[:2]
    b = word_length(K)
    if b == 1:
        return None
    weights = np.diff(cum_weights, prepend=0.0)
    prods = np.eye(d)[None]
    w = np.ones(1)
    drop = np.zeros(1)
    prefix = [np.empty((K**b, b - 1)) for _ in range(d)]
    tiny = np.finfo(float).tiny
    for j in range(1, b + 1):
        with np.errstate(over="ignore", under="ignore"):
            prods = np.matmul(atom_stack[None], prods[:, None]).reshape(-1, d, d)
            cols = prods.sum(axis=1)
        w = (w[:, None] * weights[None]).reshape(-1)
        normal = (prods == 0.0) | ((prods >= tiny) & (prods < np.inf))
        if not normal.all() or not ((cols > 0.0) & (cols < np.inf)).all():
            return None
        drop = np.maximum(np.repeat(drop, K), -np.log(cols.min(axis=1)))
        if j < b:
            # the j-letter prefixes' sums, each repeated for the K**(b-j) words that extend it
            for i, c in enumerate(prefix):
                c[:, j - 1] = np.repeat(cols[:, i], K ** (b - j))
    table = step_table(prods)
    del prods, cols  # the step table holds copies
    cum = np.minimum(np.cumsum(w), 1.0)
    cum[-1] = 1.0
    return Words(table=table, guide=guide_table(cum), drop=drop, prefix=prefix)


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


def walk_chunk(atom_stack, cum_weights, x0, a, n, s_steps, rho_steps, x_steps, want_points, sizes, seeds):
    """Full-horizon walk (no exit filtering) recording selected step data.

    Runs one chunk of ``size`` paths per ``(size, seed)`` of ``sizes`` and
    ``seeds``, each on its own substream, and returns one result per chunk.
    Records ``S_k`` at steps in ``s_steps``, the raw increment ``rho`` at
    steps in ``rho_steps``, and the first simplex coordinate at steps in
    ``x_steps``; all three are sorted tuples.  Step 0 is the start point,
    which ``s_steps`` and ``x_steps`` may ask for; increments begin at step 1.
    Each record has one row per requested step and one column per path.
    With ``want_points`` the final (size, d) simplex points are returned
    last, otherwise ``None``.

    The walk steps by a word whenever none of the next ``b - 1`` steps is
    recorded and the b-th is not a ``rho_steps`` step, and by a letter
    otherwise; one uniform per path feeds either.  No path ever leaves, so
    the chunks run one after the other on the tables built once.
    """
    table = step_table(atom_stack)
    guide = guide_table(cum_weights)
    words = word_table(atom_stack, cum_weights)
    want_s = {step: i for i, step in enumerate(s_steps)}
    want_rho = {step: i for i, step in enumerate(rho_steps)}
    want_x = {step: i for i, step in enumerate(x_steps)}
    recorded = want_s.keys() | want_rho.keys() | want_x.keys()
    b = 1 if words is None else words.length
    out = []
    for size, ss in zip(sizes, seeds, strict=True):
        rng = np.random.default_rng(ss)
        X = _start(atom_stack, x0, size)
        S = np.full(size, float(a))
        s_rec = np.empty((len(s_steps), size))
        rho_rec = np.empty((len(rho_steps), size))
        x_rec = np.empty((len(x_steps), size))
        if 0 in want_s:
            s_rec[0] = S
        if 0 in want_x:
            x_rec[0] = X[0]
        step = 0
        while step < n:
            if b > 1 and step + b <= n and step + b not in want_rho and recorded.isdisjoint(range(step + 1, step + b)):
                stack, draw, step = words.table, words.guide, step + b
            else:
                stack, draw, step = table, guide, step + 1
            # the uniforms are dropped once drawn, before the step allocates
            X, rho = projective_step(stack, draw_indices(draw, rng.random(size)), X)
            S = S + rho
            if step in want_s:
                s_rec[want_s[step]] = S
            if step in want_rho:
                rho_rec[want_rho[step]] = rho
            if step in want_x:
                x_rec[want_x[step]] = X[0]
        out.append((s_rec, rho_rec, x_rec, np.stack(X, axis=1) if want_points else None))
    return out


def martingale_chunk(atom_stack, cum_weights, x0, a, n, params, theta, A, sizes, seeds):
    """Full-horizon walk (no exit filtering) that reduces the martingale guards as it steps.

    ``params`` and ``theta`` tabulate the d = 2 potential on the
    ``SimplexGrid``, read at the first simplex coordinate by ``grid_interp``
    with slopes built once per group.  At every step n the
    compensated walk is ``M_n = (S_n + Theta(X_n)) - Theta(x_0)``.  Runs one
    chunk of ``size`` paths per ``(size, seed)`` of ``sizes`` and ``seeds``
    and returns one ``(gap, late)`` per chunk: ``gap`` is each path's
    ``sup_n |S_n - M_n|``, a (size,) array, and ``late`` the count of paths
    whose first step with ``M_n <= -A + EXIT_TOL`` has no step ``<= n`` with
    ``S <= EXIT_TOL`` (the exit ordering fails).  Every step is read, so the
    walk steps by letters only; memory is O(size), not O(size * n).
    """
    table = step_table(atom_stack)
    guide = guide_table(cum_weights)
    slopes = grid_slopes(params, theta)
    shifted = -A + EXIT_TOL
    out = []
    for size, ss in zip(sizes, seeds, strict=True):
        rng = np.random.default_rng(ss)
        X = _start(atom_stack, x0, size)
        theta0 = grid_interp(X[0][0], params, theta, slopes)
        S = np.full(size, float(a))
        gap = np.zeros(size)
        # paths on which S has not exited and M has not crossed the shifted level
        pending = np.ones(size, dtype=bool)
        late = 0
        for _ in range(n):
            X, rho = projective_step(table, draw_indices(guide, rng.random(size)), X)
            S = S + rho
            M = S + grid_interp(X[0], params, theta, slopes)
            M -= theta0
            crossed = M <= shifted
            pending &= S > EXIT_TOL
            late += int(np.count_nonzero(crossed & pending))
            pending &= ~crossed
            np.subtract(S, M, out=M)
            np.maximum(gap, np.abs(M, out=M), out=gap)
        out.append((gap, late))
    return out


def grid_slopes(params: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The slopes ``grid_interp`` reads: ``np.diff(values) / np.diff(params)``, then 0.0 past the last node."""
    return np.append(np.diff(values) / np.diff(params), 0.0)


def grid_interp(x, params: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    """``np.interp(x, params, values)`` on the grid ``params = linspace(0, 1, G)``, with no binary search.

    ``slopes`` comes from ``grid_slopes``.  ``x`` is clamped to [0, 1], and
    ``j = floor(x * (G - 1))``, at most ``G - 2``, lands within one node of
    the segment ``params[j] <= x < params[j + 1]``, so one comparison each way
    finds it; ``x >= params[-1]`` takes ``j = G - 1``, whose slope is 0.0.
    The value is numpy's own formula, ``slope * (x - params[j]) +
    values[j]``, so it equals ``np.interp`` bit for bit, clamping and scalar
    input included; the one exception is a node value of -0.0, which may
    read back as +0.0.
    """
    top = params.shape[0] - 1
    x = np.clip(x, 0.0, 1.0)
    j = np.fmin(x * top, top - 1).astype(np.intp)
    j -= x < params.take(j)
    j += x >= params.take(j + 1)
    return (x - params.take(j)) * slopes.take(j) + values.take(j)


def _lower(thr: np.ndarray, low: np.ndarray, rising: np.ndarray, at: np.ndarray | None = None) -> None:
    """Lower the live thresholds ``thr`` in place wherever a path's new low reaches its own.

    ``low`` holds the lows of the paths ``at``, of every path when ``at`` is
    None.  A path whose low is ``<=`` its threshold has lost that level; its
    new threshold is the highest of ``rising`` (the thresholds in increasing
    order) below the low.  A low that reaches ``rising[0]`` kills the path,
    which is dropped before its threshold is read again.
    """
    dip = np.flatnonzero(low <= (thr if at is None else thr.take(at)))
    if dip.size:
        thr[dip if at is None else at.take(dip)] = rising[np.searchsorted(rising, low.take(dip)) - 1]


def _word_step(words: Words, widx, X, S, thr, rising):
    """Advance every held path by the words ``widx``; returns ``X``, ``S`` and the alive mask.

    ``thr`` is each path's live threshold, that of its lowest level still
    alive, updated in place; with one level it is the scalar ``rising[0]``.
    Every path takes the word's product.  A path whose start ``S`` less the
    word's drop bound clears ``thr`` by ``WORD_MARGIN`` cannot exit inside
    the word.  For every other path the prefix masses give the lowest point
    inside the word, ``S + log(min_j c_j . x)``.  The lower of that point
    and the word-end ``S`` is the path's low over the word: it is alive
    while its low stays above ``rising[0]``, the top level's threshold.
    """
    floor = rising[0]
    room = words.drop.take(widx)
    np.subtract(S, room, out=room)
    near = np.flatnonzero(room <= thr + WORD_MARGIN)
    del room
    if near.size:
        wn = widx.take(near)
        mass = words.prefix[0].take(wn, axis=0)
        mass *= X[0].take(near)[:, None]
        for c, x in zip(words.prefix[1:], X[1:], strict=True):
            term = c.take(wn, axis=0)
            term *= x.take(near)[:, None]
            mass += term
        # the lowest point inside the word, from the start state
        low = np.log(mass.min(axis=1))
        low += S.take(near)
        del wn, mass, term  # before the step allocates the end state
    X_end, S_end = projective_step(words.table, widx, X)
    S_end += S
    alive = S_end > floor
    many = isinstance(thr, np.ndarray)
    if near.size:
        np.minimum(low, S_end.take(near), out=low)
        alive[near] = low > floor
        if many:
            _lower(thr, low, rising, near)
    if many:
        # a near path's threshold is now below its word-end S, so only far paths can move here
        _lower(thr, S_end, rising)
    return X_end, S_end, alive


def survival_chunk(atom_stack, cum_weights, x0, levels, n_values, want_samples, sizes, seeds):
    """Killed walk: paths exit at the first step with ``S <= EXIT_TOL``.

    Runs one chunk of ``size`` paths per ``(size, seed)`` of ``sizes`` and
    ``seeds`` and returns one result per chunk.  The chunks step as one
    batch: each chunk's held paths are one contiguous segment of the state,
    in chunk order, and each chunk draws its segment's uniforms from its own
    substream, nothing once it holds no path.  Dropping paths keeps the
    order, so the segments stay contiguous, and every chunk reports from its
    own segment: its results are bit for bit those of the chunk run alone.

    ``levels`` is a non-empty, strictly increasing sequence of finite start
    levels ``a_0 < ... < a_top``; one level is a one-element sequence.  The
    increments do not depend on the level, so one path set, carried from
    ``a_0``, serves them all: level l's value is ``S + (a_l - a_0)``, and it
    is dead once ``S`` falls to its threshold ``EXIT_TOL - (a_l - a_0)``.  A
    path is dropped once dead at the top level, so cost tracks the alive
    count there and every path still held is alive there.  A lower level is
    alive while the running minimum of ``S`` stays above its threshold, so
    the live levels of a path are those whose threshold is at most that of
    its lowest live level.  Each path keeps that live threshold, lowered
    only when the walk reaches it, and only when there is more than one
    level.

    At each ``n`` in ``n_values`` (sorted, 1-based) each chunk reports, per
    level, the survivor count and the survivor sums of the value and its
    square (paths already dead contribute zero, which is exactly the killed
    expectation), as ``(len(levels), len(n_values))`` arrays.  With
    ``want_samples`` (one level only) the survivor values come as well.

    The walk steps by a word whenever the word ends by the next ``n``
    (see ``_word_step``), and by a letter otherwise.
    """
    levels = np.asarray(levels, dtype=float)
    if levels.ndim != 1 or not levels.size or not np.isfinite(levels).all() or np.any(np.diff(levels) <= 0.0):
        raise ValueError("levels must be a non-empty, strictly increasing sequence of finite numbers")
    if want_samples and levels.size > 1:
        raise ValueError("survivor samples are returned for one level only")
    shift = levels - levels[0]  # a_l - a_0
    thresholds = EXIT_TOL - shift
    top = levels.size - 1
    rising = thresholds[::-1]
    floor = rising[0]
    rngs = [np.random.default_rng(ss) for ss in seeds]
    table = step_table(atom_stack)
    guide = guide_table(cum_weights)
    words = word_table(atom_stack, cum_weights)
    b = 1 if words is None else words.length
    held = list(sizes)  # each chunk's held paths
    size = sum(held)
    X = _start(atom_stack, x0, size)
    S = np.full(size, levels[0])
    thr = np.full(size, rising[-1]) if top else floor
    counts = np.zeros((len(held), levels.size, len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    samples = [[np.empty(0)] * len(n_values) if want_samples else [] for _ in held]
    step = 0
    for pos, n in enumerate(n_values):
        while step < n and S.shape[0]:
            u = np.empty(S.shape[0])
            lo = 0
            for rng, k in zip(rngs, held, strict=True):
                if k:
                    rng.random(k, out=u[lo : lo + k])
                    lo += k
            word = b > 1 and step + b <= n
            idx = draw_indices(words.guide if word else guide, u)
            del u  # before the step allocates
            if word:
                X, S, alive = _word_step(words, idx, X, S, thr, rising)
                step += b
            else:
                X, rho = projective_step(table, idx, X)
                rho += S
                S = rho
                step += 1
                alive = S > floor
                if top:
                    _lower(thr, S, rising)
            if not alive.all():
                X = [x[alive] for x in X]
                S = S[alive]
                if top:
                    thr = thr[alive]
                lo = 0
                for c, k in enumerate(held):
                    held[c] = np.count_nonzero(alive[lo : lo + k])
                    lo += k
        step = n
        # no view of S outlives the report: it would keep the whole array
        # alive after the next compaction replaces it
        lo = 0
        for c, k in enumerate(held):
            hi = lo + k
            for l, off in enumerate(shift):
                value = (S[lo:hi] if l == top else S[lo:hi][thr[lo:hi] >= thresholds[l]]) + off
                counts[c, l, pos] = value.shape[0]
                sums[c, l, pos] = value.sum()
                sums2[c, l, pos] = np.square(value).sum()
            if want_samples:
                samples[c][pos] = value
            lo = hi
    return list(zip(counts, sums, sums2, samples, strict=True))
