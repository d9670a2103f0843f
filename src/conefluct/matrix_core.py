"""Cone and simplex geometry for products of non-negative matrices.

The state space is the unit simplex ``X = {x >= 0, sum(x) = 1}``, acted on
projectively by the multiplicative semigroup of non-negative square matrices
whose columns each contain a positive entry.  This module provides the
norm-like functionals ``v(g)`` (minimal column sum), ``|g|`` (maximal column
sum) and ``N(g) = max(1/v(g), |g|)``, the projective action ``g . x`` with
its additive cocycle ``rho(g, x) = log|gx|``, and the projective contraction
metric under which every such matrix acts as a 1-Lipschitz map and every
strictly positive matrix as a strict contraction.

Everything here is exact small-dimension geometry; the vectorized path
kernels built on top of it live in the simulation layer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PositiveMatrix",
    "SimplexVector",
    "matrix_norms",
    "act",
    "left_product",
    "hennion_distance",
    "hennion_distances",
    "contraction_coeff",
    "random_simplex_point",
]

# sum-to-one slack accepted by the SimplexVector constructor; projective
# renormalization keeps iterates well inside this
_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PositiveMatrix:
    """Square matrix with non-negative entries and no all-zero column.

    The entry array is copied, coerced to float64 and frozen.  ``interior``
    is True when every entry is strictly positive, which is exactly the
    condition for the projective action to be a strict contraction.
    """

    entries: np.ndarray
    interior: bool = field(init=False)

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 2:
            raise ValueError(f"expected a square matrix with d >= 2, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValueError("matrix entries must be finite")
        if np.any(e < 0.0):
            raise ValueError("matrix entries must be non-negative")
        if np.any(e.sum(axis=0) <= 0.0):
            raise ValueError("every column must contain a positive entry")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "interior", bool(np.all(e > 0.0)))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def scaled(self, factor: float) -> "PositiveMatrix":
        """Return ``factor * g``; the projective action is unchanged."""
        if not factor > 0.0:
            raise ValueError("scale factor must be positive")
        return PositiveMatrix(self.entries * factor)

    def __matmul__(self, other: "PositiveMatrix") -> "PositiveMatrix":
        return PositiveMatrix(self.entries @ other.entries)

    def __repr__(self) -> str:
        return f"PositiveMatrix({self.entries.tolist()!r})"


@dataclass(frozen=True, eq=False)
class SimplexVector:
    """Point of the unit simplex: non-negative coordinates summing to one."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.shape[0] < 2:
            raise ValueError(f"expected a 1-d coordinate array with d >= 2, got shape {c.shape}")
        if np.any(c < 0.0) or not np.all(np.isfinite(c)):
            raise ValueError("coordinates must be finite and non-negative")
        if abs(c.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError(f"coordinates must sum to 1 within {_SIMPLEX_TOL}, got {float(c.sum())!r}")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @classmethod
    def normalized(cls, v) -> "SimplexVector":
        """Project a non-zero non-negative vector onto the simplex."""
        v = np.asarray(v, dtype=float)
        s = v.sum()
        if not s > 0.0:
            raise ValueError("vector must have positive total mass")
        return cls(v / s)

    @classmethod
    def barycenter(cls, dim: int) -> "SimplexVector":
        return cls(np.full(dim, 1.0 / dim))

    @classmethod
    def vertex(cls, dim: int, i: int) -> "SimplexVector":
        c = np.zeros(dim)
        c[i] = 1.0
        return cls(c)

    def __repr__(self) -> str:
        return f"SimplexVector({self.coords.tolist()!r})"


def matrix_norms(g: PositiveMatrix) -> tuple[float, float, float]:
    """Column-sum functionals ``(v(g), |g|, N(g))``.

    ``v`` is the minimal column sum, ``|g|`` the maximal one, and
    ``N(g) = max(1/v, |g|) >= 1``.  For any simplex point ``x`` the mass
    ``|gx|`` is the column-sum average ``sum_j colsum_j * x_j``, so
    ``v(g) <= |gx| <= |g|``.
    """
    colsums = g.entries.sum(axis=0)
    v = float(colsums.min())
    norm = float(colsums.max())
    return v, norm, max(1.0 / v, norm)


def act(g: PositiveMatrix, x: SimplexVector) -> tuple[SimplexVector, float]:
    """Projective action ``g . x = gx / |gx|`` together with ``rho(g, x) = log|gx|``.

    The cocycle identity ``rho(gh, x) = rho(g, h.x) + rho(h, x)`` holds
    because mass is multiplicative along the renormalized orbit.
    """
    if g.dim != x.dim:
        raise ValueError(f"dimension mismatch: matrix d={g.dim}, vector d={x.dim}")
    y = g.entries @ x.coords
    mass = y.sum()
    return SimplexVector(y / mass), float(np.log(mass))


def left_product(gs, x: SimplexVector, a: float = 0.0) -> tuple[SimplexVector, np.ndarray]:
    """Apply ``g_n ... g_1`` to ``x`` one factor at a time.

    ``gs`` is given in application order (``gs[0]`` acts first).  Returns the
    final projective point and the additive trajectory
    ``S_k = a + sum_{j<=k} rho(g_j, X_{j-1})`` with ``S_0 = a``.
    Renormalizing at every step keeps the mass in the log domain, so the
    trajectory never overflows even for long products.
    """
    S = np.empty(len(gs) + 1)
    S[0] = a
    for k, g in enumerate(gs, start=1):
        x, r = act(g, x)
        S[k] = S[k - 1] + r
    return x, S


def _min_ratio(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``m(x, y) = min{x_i / y_i : y_i > 0}`` over the last axis, values in ``[0, 1]``.

    The minimum is at most 1 because both points have unit mass, and it
    vanishes exactly when ``x`` misses part of the support of ``y``.
    """
    ratio = np.divide(x, y, out=np.full(np.broadcast_shapes(x.shape, y.shape), np.inf), where=y > 0.0)
    return ratio.min(axis=-1)


def hennion_distances(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hennion distance between simplex points stored along the last axis of ``x`` and ``y``.

    ``d(x, y) = (1 - s) / (1 + s)`` with ``s = m(x,y) m(y,x)``, elementwise
    over the leading axes.  ``hennion_distance``, ``contraction_coeff`` and
    the matrix-law contraction all evaluate the metric here.
    """
    s = _min_ratio(x, y) * _min_ratio(y, x)
    return (1.0 - s) / (1.0 + s)


def hennion_distance(x: SimplexVector, y: SimplexVector) -> float:
    """Projective distance ``d(x, y) = (1 - s) / (1 + s)`` with ``s = m(x,y) m(y,x)``.

    This is a metric on the simplex with values in ``[0, 1]``; it equals 1
    exactly when the supports are not nested either way (``s = 0``), and it
    dominates total variation: ``|x - y|_1 <= 2 d(x, y)``.
    """
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    return float(hennion_distances(x.coords, y.coords))


def contraction_coeff(g: PositiveMatrix, check_pairs: int = 0, rng=None) -> float:
    """Projective contraction coefficient ``c(g) = sup_{x,y} d(g.x, g.y)``.

    The image of the simplex under ``g . `` is the projective convex hull of
    the normalized columns (the images of the vertices), so the supremum is
    evaluated over vertex pairs.  With ``check_pairs > 0`` the vertex value
    is cross-checked against that many random simplex pairs; if a sampled
    pair exceeds it beyond 1e-12 the sampled maximum is returned and a
    warning is emitted.

    ``c(g) <= 1`` always, ``c(g) < 1`` iff every entry of ``g`` is positive,
    and ``d(g.x, g.y) <= c(g) d(x, y)`` for all pairs.
    """
    pts = (g.entries / g.entries.sum(axis=0)).T
    i, j = np.triu_indices(g.dim, 1)
    best = float(hennion_distances(pts[i], pts[j]).max())
    if check_pairs > 0:
        rng = np.random.default_rng(rng)
        sampled = 0.0
        for _ in range(check_pairs):
            x = random_simplex_point(g.dim, rng)
            y = random_simplex_point(g.dim, rng)
            sampled = max(sampled, hennion_distance(act(g, x)[0], act(g, y)[0]))
        if sampled > best + 1e-12:
            warnings.warn(
                f"sampled contraction {sampled!r} exceeds vertex value {best!r}; "
                "reporting the sampled maximum",
                RuntimeWarning,
            )
            return sampled
    return best


def random_simplex_point(dim: int, rng=None) -> SimplexVector:
    """Draw a uniform point of the simplex (flat Dirichlet)."""
    rng = np.random.default_rng(rng)
    return SimplexVector(rng.dirichlet(np.ones(dim)))
