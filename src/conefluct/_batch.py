"""Vectorized projective-walk kernels shared by the law and simulation layers.

There are three walk kernels over one walk loop, ``_Walk``: ``walk_chunk``
runs the free walk over the full horizon and records selected steps,
``martingale_chunk`` runs it over the full horizon and reduces the two
martingale guards as it steps, keeping O(paths) state, and
``survival_chunk`` runs the killed walk at one or more start levels,
dropping each path at its exit at the top level.  A kernel call builds one
``_Walk``, which builds the law's step, guide and word tables and the
step buffers once.  ``start`` lays out a group of chunks, ``word`` picks a
word or a letter for the next step from the next step the kernel reads and
the steps that must be letters, and ``tiles`` takes that step: each chunk
draws its uniforms, and the paths step a tile at a time through the tile
draw ``_draw`` and the tile step ``_step`` (``_word_step`` for a killed
walk's word).  Each kernel keeps only what it reads after each tile: its
records, its two guards, or its thresholds, compaction and reports.
``draw_indices`` and ``projective_step`` are the allocating front-ends of
``_draw`` and ``_step``.

Paths are processed in fixed-size chunks.  The master seed is expanded with
``SeedSequence.spawn`` into one substream per chunk, each chunk has its own
result, and callers reduce the results in chunk order.  ``CHUNK_PATHS`` is
part of the reproducibility contract: it is a module constant, not
configuration, because changing it relays paths onto different substreams.

``run_chunks`` hands the chunks to the kernels in contiguous groups, at least
one per worker and at most ``GROUP_PATHS`` paths each, one kernel call per
group.  The free walks start a group's chunks one after the other: grouped,
their state would be a whole group long, where per chunk it is one chunk
long.  The killed walk starts the whole group as one batch: each chunk's
held paths are one contiguous segment, and at every step each chunk draws
its segment's uniforms from its own substream; every operation of the step
acts on each path alone; dropping paths keeps their order, so the segments
stay contiguous; and each chunk's counts, sums and samples are taken over
its own segment.  A chunk's result therefore does not depend on the chunks
that share its group, so neither the grouping, nor ``GROUP_PATHS``, nor the
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
every dimension, and the step reads each atom entry as a (K,) array, so no
(m, d, d) stack is gathered per step.  Every sum in the step runs left to
right over the coordinates; that order is part of the reproducibility
contract.  For d = 2 each sum is a single addition, which commutes, so the
d = 2 bits depend on no summation order.

A kernel call holds full-length arrays only for its state (the coordinate
rows, ``S`` and, with several levels, the thresholds), its uniforms and its
alive mask.  The temporaries of the step itself are one tile long, at most
``TILE_PATHS`` paths, in a ``_Tile`` of buffers allocated once per call: the
draw writes the tile's atoms into an index row, each product is formed in
place, ``y_i / mass`` goes straight back into the state and ``log(mass)``
into a row that ``S`` then adds.  The exception is a killed walk's word
step, whose near-path temporaries (``_word_step``) are allocated at every
word step, each at most a tile long.  Neither the buffers nor the tile size
can move a bit: every operation acts on each path alone, in the order the
whole-array expressions take, and IEEE addition and multiplication commute,
so ``S += rho`` is ``S + rho`` and ``g *= x`` is ``g * x``.  The killed
walk drops paths in place, a tile at a time: a tile's survivors are read
into a tile buffer and written back no higher than they were read, so no
read meets an entry already overwritten.

The atom draw is an indexed search (Chen & Asau, AIIE Transactions 6, 1974)
through a guide table sized to the stack (``guide_table``): it returns
exactly the index ``np.searchsorted(cum_weights, u, side="right")`` would
(see ``draw_indices``).  ``martingale_chunk`` reads the potential at every
step through ``grid_interp``, ``np.interp`` bit for bit with no binary
search.

The walk steps by words of ``b`` letters where the kernel reads no step
inside the word; ``martingale_chunk`` reads every step, so it steps by
letters.  The walk sampled every ``b`` steps is the walk of the b-fold
convolution, whose atoms are the ``K**b`` products of ``b`` letters, so one
uniform and one projective step through the word stack (``word_table``)
cover ``b`` steps.  ``b`` is ``word_length(K)``; a law with ``b = 1``, or
whose word products leave the normal float range, steps by letters only,
with the same bits as a letter kernel.

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

import bisect
import contextlib
import contextvars
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

CHUNK_PATHS = 16384

# most paths in one kernel call, a whole number of chunks.  It bounds memory
# only: a group's chunks keep their own substreams and results
GROUP_PATHS = 2**18

# most paths in one tile of a kernel's step: every temporary of a step is one
# tile long (see the module docstring).  Any size gives the same bits
TILE_PATHS = 2**15

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


class _Tile:
    """The one-tile temporaries of a kernel call, allocated once and reused at every step.

    ``rows`` are ``d`` float rows, ``scratch`` one more, ``idx`` an index row,
    ``narrow`` a row of the widest type ``guide_table`` gives its table
    (viewed as the table's type) and ``flag`` a mask row, each
    ``min(paths, TILE_PATHS)`` long; a tile of ``n`` paths works on their
    first ``n`` entries.
    """

    def __init__(self, d: int, paths: int):
        self.size = max(1, min(paths, TILE_PATHS))
        self.rows = [np.empty(self.size) for _ in range(d)]
        self.scratch = np.empty(self.size)
        self.idx = np.empty(self.size, dtype=np.intp)
        self.narrow = np.empty(self.size, dtype=np.uint32)
        self.flag = np.empty(self.size, dtype=bool)

    def spans(self, m: int) -> list:
        """The ``(lo, hi)`` bounds of the tiles over ``m`` paths, in path order."""
        return [(lo, min(lo + self.size, m)) for lo in range(0, m, self.size)]


def _draw(guide, u: np.ndarray, tile: _Tile) -> np.ndarray:
    """``draw_indices`` for one tile of uniforms, into ``tile.idx``; returns that view.

    ``u * B`` goes through ``tile.scratch`` and truncates into ``tile.idx``
    (``copyto`` with unsafe casting is ``astype``'s cast); the table read
    lands in a row of the table's narrow type and widens back into
    ``tile.idx``.  Every index is in range, so ``take`` runs in ``"clip"``
    mode, which changes no index and writes into ``out`` unbuffered.
    """
    cum_weights, lo, marker, scale, inside = guide
    n = u.shape[0]
    idx, f, flag = tile.idx[:n], tile.scratch[:n], tile.flag[:n]
    np.multiply(u, scale, out=f)
    np.copyto(idx, f, casting="unsafe")
    np.copyto(idx, lo.take(idx, out=tile.narrow.view(lo.dtype)[:n], mode="clip"))
    if marker is not None:
        fix = np.flatnonzero(np.equal(idx, marker, out=flag))
        if fix.size:
            idx[fix] = np.searchsorted(cum_weights, u.take(fix), side="right")
    if inside:
        idx += np.less_equal(cum_weights.take(idx, out=f, mode="clip"), u, out=flag)
    return idx


def draw_indices(guide, u: np.ndarray) -> np.ndarray:
    """Map uniforms in [0, 1) to atom indices via the cumulative weights.

    The allocating front-end of the kernels' tile draw, ``_draw``.  ``guide``
    comes from ``guide_table``.  The result equals
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
    m = u.shape[0]
    tile = _Tile(0, m)
    idx = np.empty(m, dtype=np.intp)
    for lo, hi in tile.spans(m):
        idx[lo:hi] = _draw(guide, u[lo:hi], tile)
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
    bound ``H(w)``.  ``prefix[i]`` is a contiguous (b - 1, K**b) array whose
    row ``j - 1``, column ``w`` holds ``c_{j,i}``, column sum i of the
    product of word w's first j letters, for j = 1 .. b - 1.
    """

    table: list
    guide: tuple
    drop: np.ndarray
    prefix: list

    @property
    def length(self) -> int:
        """Letters per word, b."""
        return self.prefix[0].shape[0] + 1


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
    prefix = [np.empty((b - 1, K**b)) for _ in range(d)]
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
                c[j - 1] = np.repeat(cols[:, i], K ** (b - j))
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


def _step(table, idx: np.ndarray, X: list, tile: _Tile) -> np.ndarray:
    """One projective step of one tile, in place: ``X`` takes the images; returns the increments.

    ``X`` is the tile's state, one (n,) view per simplex coordinate, and
    ``idx`` its atoms.  Row i is ``y_i = g_i0[idx]*x_0 + g_i1[idx]*x_1 +
    ...``, formed in ``tile.rows[i]``, and the mass ``y_0 + y_1 + ...`` in
    ``tile.scratch``, both summed left to right; each product is formed in
    place, and IEEE multiplication and addition commute, so the bits are
    those of the expressions.  ``X[i]`` becomes ``y_i / mass`` and the
    returned view of ``tile.scratch`` holds ``log(mass)``, ``rho(g_idx, x)``.
    """
    n = idx.shape[0]
    Y = [y[:n] for y in tile.rows]
    g = tile.scratch[:n]
    for row, y in zip(table, Y, strict=True):
        row[0].take(idx, out=y, mode="clip")
        y *= X[0]
        for c, x in zip(row[1:], X[1:], strict=True):
            c.take(idx, out=g, mode="clip")
            g *= x
            y += g
    mass = np.add(Y[0], Y[1], out=g)
    for y in Y[2:]:
        mass += y
    for x, y in zip(X, Y, strict=True):
        np.divide(y, mass, out=x)
    return np.log(mass, out=mass)


def projective_step(table, idx: np.ndarray, X: list):
    """One projective step for a batch of paths.

    The allocating front-end of the kernels' tile step, ``_step``.
    ``table`` comes from ``step_table``, ``idx`` is the chosen atom per path
    and ``X`` the state, one (m,) array per simplex coordinate, left as it
    is.  Returns the renormalized images in the same layout and the
    log-mass increments ``rho(g_idx, x)``.
    """
    X = [np.array(x, dtype=float) for x in X]
    m = idx.shape[0]
    tile = _Tile(len(X), m)
    rho = np.empty(m)
    for lo, hi in tile.spans(m):
        rho[lo:hi] = _step(table, idx[lo:hi], [x[lo:hi] for x in X], tile)
    return X, rho


def _compact(state: tuple, alive: np.ndarray, first: int, m: int, tile: _Tile) -> int:
    """Move the paths ``alive`` marks among ``[first, m)`` of every state array down to ``first``, in place.

    Returns the new path count.  A tile of paths at a time is read into
    ``tile.scratch`` and written back no higher than it was read, so no read
    meets an entry an earlier write has overwritten.
    """
    dst = first
    for lo, hi in tile.spans(m - first):
        keep = np.flatnonzero(alive[first + lo : first + hi])
        k = keep.shape[0]
        for arr in state:
            arr[dst : dst + k] = arr[first + lo : first + hi].take(keep, out=tile.scratch[:k], mode="clip")
        dst += k
    return dst


class _Walk:
    """The walk loop of one kernel call (see the module docstring).

    It builds the law's step and guide tables, its word stack (``words``
    None when the law steps by letters, or when the kernel reads every step
    and asks for none) and one ``_Tile`` for ``paths`` paths.  ``start``
    lays out a group of chunks; then, until the kernel is done, ``word``
    picks the next step and ``tiles`` takes it.  The held paths are the
    first ``m`` entries of the coordinate rows ``X``, of ``S`` and of the
    uniforms ``u``, chunk c's the ``held[c]`` entries after the chunks
    before it; a kernel that drops paths updates ``held`` and ``m``.
    """

    def __init__(self, atom_stack: np.ndarray, cum_weights: np.ndarray, x0, paths: int, words: bool = True):
        self.atom_stack, self.x0 = atom_stack, x0
        self.table = step_table(atom_stack)
        self.guide = guide_table(cum_weights)
        self.words = word_table(atom_stack, cum_weights) if words else None
        self.b = 1 if self.words is None else self.words.length
        self.tile = _Tile(atom_stack.shape[1], paths)

    def start(self, a: float, sizes, seeds) -> None:
        """Start one chunk of ``size`` paths at ``(x0, a)`` per ``(size, seed)``, each on its own substream, at step 0."""
        self.rngs = [np.random.default_rng(ss) for ss in seeds]
        self.held = list(sizes)
        self.m = sum(self.held)
        self.X = _start(self.atom_stack, self.x0, self.m)
        self.S = np.full(self.m, float(a))
        self.u = np.empty(self.m)
        self.step = 0

    def word(self, until: int, letters=()) -> bool:
        """Whether the next step is a word: its ``b`` letters end by ``until``, the next step the kernel reads, and not at a step of ``letters``."""
        end = self.step + self.b
        return self.b > 1 and end <= until and end not in letters

    def tiles(self, word: bool, thr=None):
        """Take the next step, a word or a letter, tile by tile; yields ``(lo, hi, rho, low)`` after each tile's step.

        Each chunk first draws its segment's uniforms from its own
        substream, nothing once it holds no path.  Paths ``lo:hi`` of ``X``
        and ``S`` then hold the tile's images and ``rho`` its increments.
        ``thr`` is the killed walk's live threshold, per held path or one
        scalar; with it, ``low`` is each path's lowest ``S`` over the step
        (``_word_step``), and otherwise the tile's ``S``.  ``rho`` and
        ``low`` are views valid until the next tile.
        """
        lo = 0
        for rng, k in zip(self.rngs, self.held, strict=True):
            if k:
                rng.random(k, out=self.u[lo : lo + k])
                lo += k
        stack, guide = (self.words.table, self.words.guide) if word else (self.table, self.guide)
        self.step += self.b if word else 1
        for lo, hi in self.tile.spans(self.m):
            idx = _draw(guide, self.u[lo:hi], self.tile)
            X, S = [x[lo:hi] for x in self.X], self.S[lo:hi]
            if word and thr is not None:
                tt = thr[lo:hi] if isinstance(thr, np.ndarray) else thr
                rho, low = _word_step(self.words, idx, X, S, tt, self.tile)
            else:
                rho = _step(stack, idx, X, self.tile)
                S += rho
                low = S
            yield lo, hi, rho, low


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

    The walk steps by a word whenever it ends by the next recorded step
    and that step is not a ``rho_steps`` step, and by a letter otherwise.
    The chunks start one after the other.
    """
    walk = _Walk(atom_stack, cum_weights, x0, max(sizes))
    want_s = {step: i for i, step in enumerate(s_steps)}
    want_rho = {step: i for i, step in enumerate(rho_steps)}
    want_x = {step: i for i, step in enumerate(x_steps)}
    reads = sorted(want_s.keys() | want_rho.keys() | want_x.keys() | {n})
    out = []
    for size, ss in zip(sizes, seeds, strict=True):
        walk.start(a, [size], [ss])
        s_rec = np.empty((len(s_steps), size))
        rho_rec = np.empty((len(rho_steps), size))
        x_rec = np.empty((len(x_steps), size))
        if 0 in want_s:
            s_rec[0] = walk.S
        if 0 in want_x:
            x_rec[0] = walk.X[0]
        while walk.step < n:
            word = walk.word(reads[bisect.bisect_right(reads, walk.step)], want_rho)
            for lo, hi, rho, _ in walk.tiles(word):
                if walk.step in want_rho:
                    rho_rec[want_rho[walk.step], lo:hi] = rho
            if walk.step in want_s:
                s_rec[want_s[walk.step]] = walk.S
            if walk.step in want_x:
                x_rec[want_x[walk.step]] = walk.X[0]
        out.append((s_rec, rho_rec, x_rec, np.stack(walk.X, axis=1) if want_points else None))
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
    walk = _Walk(atom_stack, cum_weights, x0, max(sizes), words=False)
    tile = walk.tile
    slopes = grid_slopes(params, theta)
    shifted = -A + EXIT_TOL
    out = []
    for size, ss in zip(sizes, seeds, strict=True):
        walk.start(a, [size], [ss])
        theta0 = grid_interp(walk.X[0][0], params, theta, slopes)
        gap = np.zeros(size)
        # paths on which S has not exited and M has not crossed the shifted level
        pending = np.ones(size, dtype=bool)
        late = 0
        while walk.step < n:
            for lo, hi, _, S in walk.tiles(False):
                k, pend = hi - lo, pending[lo:hi]
                M = _interp(walk.X[0][lo:hi], params, theta, slopes, tile.rows[1][:k], tile.scratch[:k], tile.idx[:k], tile.flag[:k])
                M += S
                M -= theta0
                flag = tile.flag[:k]
                pend &= np.greater(S, EXIT_TOL, out=flag)
                # the pending paths that cross now are late
                late += int(np.count_nonzero(pend))
                pend &= np.logical_not(np.less_equal(M, shifted, out=flag), out=flag)
                late -= int(np.count_nonzero(pend))
                np.subtract(S, M, out=M)
                np.maximum(gap[lo:hi], np.abs(M, out=M), out=gap[lo:hi])
        out.append((gap, late))
    return out


def grid_slopes(params: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The slopes ``grid_interp`` reads: ``np.diff(values) / np.diff(params)``, then 0.0 past the last node."""
    return np.append(np.diff(values) / np.diff(params), 0.0)


def _interp(x: np.ndarray, params: np.ndarray, values: np.ndarray, slopes: np.ndarray, value, t, j, flag):
    """``grid_interp`` of the points ``x``, into ``value``; returns it.

    ``value`` and ``t`` are float arrays, ``j`` an index array and ``flag``
    a mask, each of the shape of ``x``.  ``value`` holds the clamped points
    until the formula overwrites them in place, ``j`` the segment indices
    and ``t`` the table reads.  Every index is in range (``fmin`` takes ``G - 2`` for a NaN
    point), so ``take`` runs in ``"clip"`` mode.
    """
    top = params.shape[0] - 1
    xc = np.clip(x, 0.0, 1.0, out=value)
    np.copyto(j, np.fmin(np.multiply(xc, top, out=t), top - 1, out=t), casting="unsafe")
    j -= np.less(xc, params.take(j, out=t, mode="clip"), out=flag)
    # j <= G - 2 here, so params[1:] at j is params at j + 1
    j += np.greater_equal(xc, params[1:].take(j, out=t, mode="clip"), out=flag)
    value -= params.take(j, out=t, mode="clip")
    value *= slopes.take(j, out=t, mode="clip")
    value += values.take(j, out=t, mode="clip")
    return value


def grid_interp(x, params: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    """``np.interp(x, params, values)`` on the grid ``params = linspace(0, 1, G)``, with no binary search.

    The allocating front-end of the martingale kernel's tile read,
    ``_interp``, over all of ``x`` at once.  ``slopes`` comes from
    ``grid_slopes``.  ``x`` is clamped to [0, 1], and ``j = floor(x * (G -
    1))``, at most ``G - 2``, lands within one node of the segment
    ``params[j] <= x < params[j + 1]``, so one comparison each way finds
    it; ``x >= params[-1]`` takes ``j = G - 1``, whose slope is 0.0.  The value is numpy's own formula, ``slope * (x -
    params[j]) + values[j]``, so it equals ``np.interp`` bit for bit,
    clamping and scalar input included; the one exception is a node value
    of -0.0, which may read back as +0.0.
    """
    x = np.asarray(x, dtype=float)
    value = np.empty(x.shape)
    _interp(x, params, values, slopes, value, np.empty(x.shape), np.empty(x.shape, dtype=np.intp), np.empty(x.shape, dtype=bool))
    return value[()]


def _lower(thr: np.ndarray, low: np.ndarray, rising: np.ndarray) -> None:
    """Lower the live thresholds ``thr`` in place wherever a path's new low ``low`` reaches its own.

    A path whose low is ``<=`` its threshold has lost that level; its new
    threshold is the highest of ``rising`` (the thresholds in increasing
    order) below the low.  A low that reaches ``rising[0]`` kills the path,
    which is dropped before its threshold is read again.
    """
    dip = np.flatnonzero(low <= thr)
    if dip.size:
        thr[dip] = rising[np.searchsorted(rising, low.take(dip)) - 1]


def _word_step(words: Words, widx, X, S, thr, tile: _Tile):
    """One killed-walk tile's step by the words ``widx``, in place (see the module docstring); returns ``rho`` and ``low``.

    ``X`` and ``S`` are the tile's state and ``thr`` each path's live
    threshold, or one scalar.  ``rho`` holds the increments and ``low`` each
    path's lowest ``S`` over the word: its word-end ``S``, lowered to the
    in-word minimum for a path whose start ``S`` less the drop bound does
    not clear ``thr`` by ``WORD_MARGIN`` (a near path).  Both are views of
    the tile's buffers; the near paths' temporaries are allocated anew.
    """
    n = widx.shape[0]
    room = words.drop.take(widx, out=tile.rows[0][:n], mode="clip")
    np.subtract(S, room, out=room)
    clear = np.add(thr, WORD_MARGIN, out=tile.rows[1][:n]) if isinstance(thr, np.ndarray) else thr + WORD_MARGIN
    near = np.flatnonzero(np.less_equal(room, clear, out=tile.flag[:n]))
    if near.size:
        wn = widx.take(near)
        xn = [x.take(near) for x in X]
        mass, term, least = np.empty(near.size), np.empty(near.size), None
        # the least prefix mass c_j . x, folded one (near,) row per prefix j.
        # Word indices are in range, so "clip" changes no index; it lets take
        # write into ``out`` directly, where "raise" would buffer a copy
        for rows in zip(*words.prefix):
            rows[0].take(wn, out=mass, mode="clip")
            mass *= xn[0]
            for c, x in zip(rows[1:], xn[1:], strict=True):
                c.take(wn, out=term, mode="clip")
                term *= x
                mass += term
            least = mass.copy() if least is None else np.minimum(least, mass, out=least)
        # the lowest point inside the word, from the start state
        inside = np.log(least)
        inside += S.take(near)
    rho = _step(words.table, widx, X, tile)
    S += rho
    low = tile.rows[0][:n]
    np.copyto(low, S)
    if near.size:
        low[near] = np.minimum(inside, S.take(near), out=inside)
    return rho, low


def survival_chunk(atom_stack, cum_weights, x0, levels, n_values, want_samples, sizes, seeds):
    """Killed walk: paths exit at the first step with ``S <= EXIT_TOL``.

    Runs one chunk of ``size`` paths per ``(size, seed)`` of ``sizes`` and
    ``seeds`` and returns one result per chunk.  The chunks start as one
    batch, and each reports from its own segment (see the module docstring).

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

    The walk steps by a word whenever the word ends by the next ``n``, and
    by a letter otherwise; a path is alive while its lowest ``S`` over the
    step stays above the top level's threshold.
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
    walk = _Walk(atom_stack, cum_weights, x0, sum(sizes))
    walk.start(levels[0], sizes, seeds)
    thr = np.full(walk.m, rising[-1]) if top else floor
    state = (*walk.X, walk.S, thr) if top else (*walk.X, walk.S)
    alive = np.empty(walk.m, dtype=bool)
    counts = np.zeros((len(sizes), levels.size, len(n_values)), dtype=np.int64)
    sums = np.zeros(counts.shape)
    sums2 = np.zeros(counts.shape)
    samples = [[np.empty(0)] * len(n_values) if want_samples else [] for _ in sizes]
    for pos, n in enumerate(n_values):
        while walk.step < n and walk.m:
            for lo, hi, _, low in walk.tiles(walk.word(n), thr):
                np.greater(low, floor, out=alive[lo:hi])
                if top:
                    _lower(thr[lo:hi], low, rising)
            first = int(np.argmin(alive[: walk.m]))  # the first dropped path, if any
            if not alive[first]:
                lo = 0
                for c, k in enumerate(walk.held):
                    walk.held[c] = np.count_nonzero(alive[lo : lo + k])
                    lo += k
                # the paths before the first dropped one stay where they are
                walk.m = _compact(state, alive, first, walk.m, walk.tile)
        walk.step = n
        # the reports copy out of the state, which the next step overwrites
        lo = 0
        for c, k in enumerate(walk.held):
            hi = lo + k
            for l, off in enumerate(shift):
                value = (walk.S[lo:hi] if l == top else walk.S[lo:hi][thr[lo:hi] >= thresholds[l]]) + off
                counts[c, l, pos] = value.shape[0]
                sums[c, l, pos] = value.sum()
                sums2[c, l, pos] = np.square(value).sum()
            if want_samples:
                samples[c][pos] = value
            lo = hi
    return list(zip(counts, sums, sums2, samples, strict=True))
