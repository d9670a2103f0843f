"""Finitely supported laws on the matrix semigroup and their standing hypotheses.

A law is a finite list of atoms (matrices acting on the same simplex) with
positive weights summing to one.  The checks provided here decide, exactly
where possible and by bounded search or Monte Carlo otherwise, the standing
hypotheses behind the fluctuation machinery:

* a moment bound ``sum_k w_k N(g_k)^delta0 < inf`` (automatic for finite
  support; the value is reported),
* reachable positivity: some convolution power puts mass on strictly
  positive matrices (decided on boolean zero patterns),
* expansion: some atom has minimal column sum above one,
* zero drift: the top Lyapunov exponent vanishes (estimated, and enforced
  by an exact rescaling),
* non-degeneracy of the additive fluctuations (variance proxy; the absence
  of a bounded invariant affine set is not algorithmically decidable, so it
  is carried as a textual note).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from .matrix_core import (
    PositiveMatrix,
    SimplexVector,
    hennion_distances,
    matrix_norms,
)
# unused here; perfbench/tracing.py wraps both names on this module
from .matrix_core import contraction_coeff, hennion_distance  # noqa: F401

__all__ = [
    "MatrixLaw",
    "HypothesisReport",
    "check_P1",
    "check_P3",
    "check_P5",
    "estimate_lyapunov",
    "calibrate",
    "convolution_contraction",
    "hypothesis_report",
]

# most products ``convolution_contraction`` enumerates before refusing
ENUMERATION_BUDGET = 200_000
# most products ``convolution_contraction`` holds in one stack (the stack
# exceeds it only when the law has more atoms than this)
_PRODUCT_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class MatrixLaw:
    """Finitely supported law: atoms with positive weights summing to one."""

    atoms: tuple
    weights: np.ndarray

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("a law needs at least one atom")
        if not all(isinstance(g, PositiveMatrix) for g in atoms):
            raise ValueError("atoms must be PositiveMatrix instances")
        d = atoms[0].dim
        if any(g.dim != d for g in atoms):
            raise ValueError("all atoms must share one dimension")
        w = np.array(self.weights, dtype=float)
        if w.shape != (len(atoms),):
            raise ValueError(f"need one weight per atom, got shape {w.shape} for {len(atoms)} atoms")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_entries(cls, entry_list, weights=None) -> "MatrixLaw":
        """Build a law from raw entry arrays; default weights are uniform."""
        atoms = tuple(PositiveMatrix(e) for e in entry_list)
        if weights is None:
            weights = np.full(len(atoms), 1.0 / len(atoms))
        return cls(atoms, weights)

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def atom_stack(self) -> np.ndarray:
        """Atoms stacked into a (K, d, d) array for the batch kernels."""
        return np.stack([g.entries for g in self.atoms])

    @property
    def cum_weights(self) -> np.ndarray:
        # weights sum to 1 only within 1e-12: clamp so the array stays sorted
        # when the running sum passes 1.0 early, and close the partition so
        # uniforms in [0, 1) always land
        c = np.minimum(np.cumsum(self.weights), 1.0)
        c[-1] = 1.0
        return c

    @property
    def interior(self) -> bool:
        return all(g.interior for g in self.atoms)


def check_P1(law: MatrixLaw, delta0: float) -> float:
    """Moment value ``sum_k w_k N(g_k)^delta0`` (always finite here)."""
    if delta0 <= 0.0:
        raise ValueError("delta0 must be positive")
    Ns = np.array([matrix_norms(g)[2] for g in law.atoms])
    return float(law.weights @ Ns**delta0)


def check_P3(law: MatrixLaw, cap: int = 16):
    """Smallest n with positive mass on strictly positive products, or None.

    Works on boolean zero patterns: the set of patterns reachable by length-n
    products is computed level by level.  The search stops when an all-positive
    pattern appears (returns n), when a level set repeats (the pattern
    dynamics are periodic, so positivity is never reached; returns None), or
    at ``cap`` levels (returns None).
    """
    pats = frozenset(g.entries.astype(bool).tobytes() for g in law.atoms)
    atom_pats = [g.entries > 0.0 for g in law.atoms]
    d = law.dim
    full = np.ones((d, d), dtype=bool).tobytes()
    seen = set()
    for n in range(1, cap + 1):
        if full in pats:
            return n
        if pats in seen:
            return None
        seen.add(pats)
        nxt = set()
        for blob in pats:
            p = np.frombuffer(blob, dtype=bool).reshape(d, d)
            for q in atom_pats:
                nxt.add((q.astype(float) @ p.astype(float) > 0.0).tobytes())
        pats = frozenset(nxt)
    return None


def check_P5(law: MatrixLaw) -> float:
    """Expansion margin ``max_k log v(g_k)``; positive iff some atom expands."""
    return float(max(math.log(matrix_norms(g)[0]) for g in law.atoms))


def _endpoint_sums(law: MatrixLaw, x: SimplexVector, n: int, paths: int, seed, workers: int) -> np.ndarray:
    parts = _batch.run_chunks(
        _batch.walk_chunk,
        (law.atom_stack, law.cum_weights, x.coords, 0.0, n, (n,), (), (), False),
        paths,
        seed,
        workers,
    )
    return np.concatenate([s[0] for s, _, _, _ in parts])


def estimate_lyapunov(law: MatrixLaw, x: SimplexVector, n: int, paths: int, seed, workers: int = 1):
    """Monte Carlo top Lyapunov exponent: mean of ``S_n / n`` over paths.

    Returns ``(gamma_hat, stderr)``; the stderr is the sample one, so it is
    exactly zero for deterministic laws.
    """
    vals = _endpoint_sums(law, x, n, paths, seed, workers) / n
    stderr = float(vals.std(ddof=1) / math.sqrt(paths)) if paths > 1 else 0.0
    return float(vals.mean()), stderr


def calibrate(law: MatrixLaw, gamma: float) -> MatrixLaw:
    """Rescale every atom by ``exp(-gamma)``.

    The projective action is unchanged and the cocycle shifts by exactly
    ``-gamma`` per step, so the Lyapunov exponent of the result is the old
    one minus ``gamma``.
    """
    factor = math.exp(-gamma)
    return MatrixLaw(tuple(g.scaled(factor) for g in law.atoms), law.weights)


def _product_blocks(atoms: np.ndarray, weights: np.ndarray, n: int):
    """Yield ``(products, weights)`` stacks of all length-n words, in lexicographic order.

    A word ``(k_1, ..., k_n)`` stands for ``g_{k_n} ... g_{k_1}``: ``k_1``
    acts first and varies slowest.  Stacks hold at most ``_PRODUCT_BLOCK``
    words, or one letter's worth when the law has more atoms.
    """
    for s in range(0, len(atoms), _PRODUCT_BLOCK):
        yield from _extend(atoms, weights, atoms[s : s + _PRODUCT_BLOCK], weights[s : s + _PRODUCT_BLOCK], n - 1)


def _extend(atoms, weights, prods, w, letters: int):
    # each letter multiplies every prefix product from the left and every
    # prefix weight from the right, as one left-to-right loop over the word
    # would; the prefix index stays the slow one
    if letters == 0:
        yield prods, w
        return
    step = max(1, _PRODUCT_BLOCK // len(atoms))
    for s in range(0, len(prods), step):
        nxt = np.matmul(atoms[None], prods[s : s + step, None]).reshape(-1, *atoms.shape[1:])
        nxt_w = (w[s : s + step, None] * weights[None]).reshape(-1)
        yield from _extend(atoms, weights, nxt, nxt_w, letters - 1)


def convolution_contraction(law: MatrixLaw, n: int, budget: int = ENUMERATION_BUDGET) -> float:
    """Contraction coefficient of the n-fold convolution power.

    Enumerates all ``support^n`` products (refused beyond ``budget``) and
    maximizes the weighted mean of ``d(h.e_i, h.e_j)`` over vertex pairs,
    where ``d(e_i, e_j) = 1``.  The value is non-increasing in n; a value
    below one certifies eventual contraction of the averaged action.

    Products are built in batched stacks of bounded size, one letter at a
    time, and each pair's weighted sum is carried across stacks in the
    lexicographic word order, left to right, so the value equals that of a
    plain loop over ``itertools.product`` bit for bit.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    K = law.support_size
    d = law.dim
    if K**n > budget:
        raise ValueError(
            f"exact enumeration needs {K}^{n} = {K**n} products, over the budget {budget}; raise the budget"
        )
    pairs = list(zip(*np.triu_indices(d, 1)))
    pair_sums = np.zeros(len(pairs))
    for prods, weights in _product_blocks(law.atom_stack, law.weights, n):
        mass = prods.sum(axis=1, keepdims=True)
        if not np.all((mass > 0.0) & (mass < np.inf)):
            raise ValueError(f"a product of {n} atoms has an all-zero or non-finite column (underflow or overflow)")
        cols = prods / mass
        values = np.stack([weights * hennion_distances(cols[:, :, a], cols[:, :, b]) for a, b in pairs], axis=1)
        # a running sum in word order (np.sum would add pairwise)
        pair_sums = np.cumsum(np.concatenate([pair_sums[None], values]), axis=0)[-1]
    return float(pair_sums.max())


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the standing-hypothesis battery for one law.

    ``gamma_hat`` comes with its Monte Carlo stderr; the drift check passes
    when ``|gamma_hat| <= max(3 stderr, gamma_tol)``.  The moment value is
    always finite for finite support and is reported, never failed.  The
    affine-set hypothesis is carried textually with the variance proxy as
    its operational stand-in.
    """

    delta0: float
    p1_moment: float
    p3_n0: int | None
    p5_margin: float
    gamma_hat: float
    gamma_stderr: float
    gamma_tol: float
    sigma2_proxy: float
    sigma2_threshold: float
    p2_note: str

    def failures(self) -> list[str]:
        out = []
        if self.p3_n0 is None:
            out.append("positivity: no convolution power reaches strictly positive matrices")
        if not self.p5_margin > 0.0:
            out.append(f"expansion: max log v(atom) = {self.p5_margin:.6g} is not positive")
        if abs(self.gamma_hat) > max(3.0 * self.gamma_stderr, self.gamma_tol):
            out.append(
                f"drift: gamma_hat = {self.gamma_hat:.6g} +- {self.gamma_stderr:.2g} "
                f"is not zero within tolerance {self.gamma_tol:g}"
            )
        if not self.sigma2_proxy > self.sigma2_threshold:
            out.append(
                f"non-degeneracy: variance proxy {self.sigma2_proxy:.6g} <= "
                f"threshold {self.sigma2_threshold:g}"
            )
        return out

    @property
    def all_pass(self) -> bool:
        return not self.failures()


_P2_NOTE = (
    "no algorithmic test exists for the absence of a bounded invariant affine set; "
    "the additive-fluctuation variance proxy above is used as its operational stand-in"
)


def hypothesis_report(
    law: MatrixLaw,
    x: SimplexVector | None = None,
    *,
    delta0: float = 1.0,
    p3_cap: int = 16,
    n: int = 1024,
    paths: int = 20_000,
    gamma_tol: float = 1e-3,
    sigma2_threshold: float = 1e-6,
    seed,
    workers: int = 1,
) -> HypothesisReport:
    """Run the full hypothesis battery from one start point.

    The drift and variance proxies share one endpoint sample of ``S_n``:
    ``gamma_hat = mean(S_n) / n`` and ``sigma2_proxy = var(S_n) / n``.
    """
    if x is None:
        x = SimplexVector.barycenter(law.dim)
    endpoints = _endpoint_sums(law, x, n, paths, seed, workers)
    gamma_hat = float(endpoints.mean() / n)
    gamma_stderr = float(endpoints.std(ddof=1) / (n * math.sqrt(paths)))
    sigma2_proxy = float(endpoints.var(ddof=1) / n)
    return HypothesisReport(
        delta0=delta0,
        p1_moment=check_P1(law, delta0),
        p3_n0=check_P3(law, cap=p3_cap),
        p5_margin=check_P5(law),
        gamma_hat=gamma_hat,
        gamma_stderr=gamma_stderr,
        gamma_tol=gamma_tol,
        sigma2_proxy=sigma2_proxy,
        sigma2_threshold=sigma2_threshold,
        p2_note=_P2_NOTE,
    )
