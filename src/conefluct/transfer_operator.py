"""Grid-discretized transfer operator on the two-dimensional simplex.

For ``d = 2`` the simplex is the segment ``x = (t, 1 - t)``, ``t in [0, 1]``,
so the averaging operator

    P f(x)   = sum_k w_k f(g_k . x)
    P_t f(x) = sum_k w_k exp(i t rho(g_k, x)) f(g_k . x)

is discretized exactly on a uniform parameter grid with piecewise-linear
interpolation at the mapped points.  The discretized ``P`` is row-stochastic
by construction, which gives four spectral quantities:

* the invariant weights ``nu`` (adjoint power iteration),
* the drift ``gamma = nu(rho_bar)``,
* the centered-drift potential ``Theta = sum_n P^n rho_bar`` solving
  ``Theta - P Theta = rho_bar``, whose sup norm calibrates the
  martingale-approximation constant ``A = 2 sup |Theta|``.  The series is
  cross-checked against a GMRES solve of the bordered system
  ``(I - B + 1 nu^T) Theta = rho_bar``, matrix-free, so memory and time stay
  linear in the grid resolution per iteration; Givens rotations track the
  least-squares residual, so the small Hessenberg problem is solved only
  near the stop,
* the fluctuation variance ``sigma^2``, the variance under ``nu`` of the
  martingale increment ``rho - gamma + Theta(g . x) - Theta(x)`` (Gordin,
  Soviet Math. Dokl. 10, 1969).

The dominant eigenvalue ``lambda_t`` of ``P_t`` is an independent check:
``-(d^2/dt^2) log |lambda_t|`` at 0 is the same variance.

Operator work is d = 2 only; higher dimensions are refused here and covered
by the Monte Carlo layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _batch
from .matrix_law import MatrixLaw

__all__ = [
    "SimplexGrid",
    "GridFunction",
    "PoissonSolution",
    "ConvergenceError",
    "DegenerateLawError",
    "stationary_measure",
    "lyapunov_exact",
    "apply_P",
    "dominant_eigenvalue",
    "solve_poisson",
]


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (last residual {residual:.3e})")
        self.residual = residual


class DegenerateLawError(RuntimeError):
    """The fluctuation variance is not positive: the walk is degenerate."""


@dataclass(frozen=True, eq=False)
class SimplexGrid:
    """Uniform grid on the d = 2 simplex parametrized by the first coordinate.

    Node i is ``x_i = (t_i, 1 - t_i)`` with ``t_i = i / (resolution - 1)``,
    so the nodes are strictly increasing in the first coordinate and include
    both vertices.
    """

    resolution: int
    params: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid needs at least 2 nodes")
        t = np.linspace(0.0, 1.0, self.resolution)
        t.setflags(write=False)
        object.__setattr__(self, "params", t)

    def nodes(self) -> np.ndarray:
        """Grid nodes as (resolution, 2) simplex points."""
        return np.stack([self.params, 1.0 - self.params], axis=1)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values tabulated on the nodes of a SimplexGrid."""

    grid: SimplexGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.shape != (self.grid.resolution,):
            raise ValueError(f"need one value per node, got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def interp(self, params):
        """Piecewise-linear evaluation, ``np.interp`` bit for bit (see ``_batch.grid_interp``).

        Parameters outside [0, 1] read the end values.  The slopes are built
        on every call, as ``np.interp`` builds them.
        """
        params = np.asarray(params, dtype=float)
        t = self.grid.params
        return _batch.grid_interp(params, t, self.values, _batch.grid_slopes(t, self.values))


class _Workspace:
    """Tabulated atom actions on a grid: interpolation stencil plus cocycle.

    For node ``x_i`` and atom ``g_k`` the mapped parameter of ``g_k . x_i``
    is stored as a lower index and fraction, and ``rho(g_k, x_i)`` as a
    table.  Forward application uses the gather form
    ``f(lo) + frac * (f(hi) - f(lo))`` so that constants are preserved
    exactly.  The adjoint scatters mass with a stencil built once as
    ``(K, 2, G)`` arrays of columns and shares: atom by atom, every node's
    lower neighbour with share ``1 - frac``, then every node's upper
    neighbour with share ``frac``.  One ``np.bincount`` adds the entries in
    that order, as per-atom ``np.add.at`` calls would, so the sums are the
    same bit for bit.  ``apply_stencil`` reads the same list row by row: a
    second route to ``B v`` that shares no code with ``apply``.
    """

    def __init__(self, law: MatrixLaw, grid: SimplexGrid):
        if law.dim != 2:
            raise ValueError(
                f"grid transfer operators support d = 2 only, got d = {law.dim}; "
                "use the Monte Carlo estimators for higher dimensions"
            )
        self.law = law
        self.grid = grid
        G = grid.resolution
        X = grid.nodes()
        lo, frac, rho = [], [], []
        for g in law.atom_stack:
            Y = X @ g.T
            mass = Y.sum(axis=1)
            pos = (Y[:, 0] / mass) * (G - 1)
            lo_k = np.clip(np.floor(pos).astype(np.int64), 0, G - 2)
            lo.append(lo_k)
            frac.append(pos - lo_k)
            rho.append(np.log(mass))
        self.lo = np.stack(lo)
        self.frac = np.stack(frac)
        self.rho = np.stack(rho)
        self.weights = law.weights
        # stencil entries (K, 2, G): atom k, lower then upper neighbour, node i
        self.cols = np.stack([self.lo, self.lo + 1], axis=1)
        self.share = np.stack([1.0 - self.frac, self.frac], axis=1)

    def rho_bar(self) -> np.ndarray:
        return self.weights @ self.rho

    def apply(self, values: np.ndarray, phases=None) -> np.ndarray:
        out = np.zeros(self.grid.resolution, dtype=complex if phases is not None else values.dtype)
        for k, w in enumerate(self.weights):
            lo, frac = self.lo[k], self.frac[k]
            mapped = values[lo] + frac * (values[lo + 1] - values[lo])
            if phases is not None:
                mapped = phases[k] * mapped
            out = out + w * mapped
        return out

    def apply_adjoint(self, nu: np.ndarray) -> np.ndarray:
        mass = self.weights[:, None, None] * nu * self.share
        return np.bincount(self.cols.ravel(), mass.ravel(), self.grid.resolution)

    def apply_stencil(self, values: np.ndarray) -> np.ndarray:
        return self.weights @ (self.share * values[self.cols]).sum(axis=1)


def apply_P(law: MatrixLaw, f: GridFunction) -> GridFunction:
    """One application of the averaging operator to a tabulated function.

    Row-stochasticity is inherited from the gather form: constants map to
    themselves up to the floating sum of the weights.
    """
    ws = _Workspace(law, f.grid)
    return GridFunction(f.grid, ws.apply(f.values))


def stationary_measure(
    law: MatrixLaw,
    grid: SimplexGrid,
    tol: float = 1e-10,
    max_iter: int = 20_000,
) -> GridFunction:
    """Invariant weights of the discretized operator on the grid nodes.

    Adjoint power iteration from the uniform start.  A law that meets
    positivity (``spectral`` and ``validate`` stop on any other) contracts the
    simplex, so the plain iteration converges; ConvergenceError is raised once
    ``max_iter`` iterations have not brought successive iterates within
    ``tol / 100`` in L1.  The returned weights are non-negative, sum to one,
    and satisfy ``|nu(P f) - nu(f)| <= tol`` for the polynomial test family.
    """
    ws = _Workspace(law, grid)
    G = grid.resolution
    nu = np.full(G, 1.0 / G)
    err = math.inf
    for _ in range(max_iter):
        nxt = ws.apply_adjoint(nu)
        nxt /= nxt.sum()
        err = float(np.abs(nxt - nu).sum())
        nu = nxt
        if err < tol * 1e-2:
            break
    else:
        raise ConvergenceError("stationary measure iteration did not converge", err)
    t = grid.params
    for f in (t, t**2, np.cos(np.pi * t)):
        residual = abs(float(nu @ ws.apply(f)) - float(nu @ f))
        if residual > tol:
            raise ConvergenceError("stationary weights fail the invariance residual", residual)
    return GridFunction(grid, nu)


def lyapunov_exact(law: MatrixLaw, nu: GridFunction) -> float:
    """Drift ``gamma = nu(rho_bar)`` by quadrature against the grid weights."""
    ws = _Workspace(law, nu.grid)
    return float(nu.values @ ws.rho_bar())


def dominant_eigenvalue(
    law: MatrixLaw,
    grid: SimplexGrid,
    t: float,
    tol: float = 1e-13,
    max_iter: int = 5000,
):
    """Dominant eigenvalue of the twisted operator, with a gap surrogate.

    Power iteration from a fixed non-constant start; the eigenvalue is the
    average of the last (up to) 20 Rayleigh ratios once successive ratios
    agree within ``tol``.  ``kappa_hat`` estimates the subdominant-to-dominant
    modulus ratio from the geometric decay of the ratio increments (0.0 when
    convergence is immediate).  Raises ConvergenceError when the ratios still
    oscillate after ``max_iter`` iterations.
    """
    ws = _Workspace(law, grid)
    phases = np.exp(1j * t * ws.rho) if t != 0.0 else None
    phi = (1.0 + 0.5 * np.cos(np.pi * grid.params)).astype(complex)
    history: list[complex] = []
    for _ in range(max_iter):
        psi = ws.apply(phi, phases) if phases is not None else ws.apply(phi)
        lam = complex(np.vdot(phi, psi) / np.vdot(phi, phi))
        history.append(lam)
        scale = np.abs(psi).max()
        if scale == 0.0:
            raise ConvergenceError("iterate collapsed to zero", math.inf)
        phi = psi / scale
        if len(history) >= 30 and abs(history[-1] - history[-2]) < tol:
            break
    else:
        raise ConvergenceError(
            "power iteration ratios kept oscillating",
            abs(history[-1] - history[-2]) if len(history) > 1 else math.inf,
        )
    lam_est = complex(np.mean(history[-20:]))
    deltas = np.abs(np.diff(np.asarray(history)))
    usable = np.nonzero(deltas > 1e-14)[0]
    if usable.size >= 3:
        ks = usable[-min(usable.size, 40):]
        slope = np.polyfit(ks.astype(float), np.log(deltas[ks]), 1)[0]
        kappa_hat = float(min(math.exp(slope), 1.0))
    else:
        kappa_hat = 0.0
    return lam_est, kappa_hat


def _hessenberg_lstsq(columns: list, beta: float):
    """Least-squares solution of ``H y = beta e_1`` and the 2-norm of its residual.

    ``columns[i]`` holds the ``i + 2`` leading entries of column ``i`` of the
    ``(n + 1, n)`` Hessenberg matrix ``H``, ``n = len(columns)``; the entries
    below are zero.
    """
    n = len(columns)
    hess = np.zeros((n + 1, n))
    for i, h in enumerate(columns):
        hess[: i + 2, i] = h
    target = np.zeros(n + 1)
    target[0] = beta
    y = np.linalg.lstsq(hess, target, rcond=None)[0]
    return y, float(np.linalg.norm(hess @ y - target))


def _gmres(matvec, b: np.ndarray, rtol: float, max_iter: int) -> np.ndarray | None:
    """Solve ``M x = b`` by GMRES from ``x = 0`` (Saad & Schultz 1986), no restarts.

    Arnoldi with modified Gram-Schmidt grows the Krylov basis one vector per
    iteration, O(j G) work at iteration j.  Each new Hessenberg column is
    reduced by the Givens rotations of the earlier ones and one new rotation,
    whose last rotated entry ``|g_{j+1}|`` is the least-squares residual,
    updated in O(j).  Once that residual is below ``10 rtol |b|``, or on a
    breakdown, the Hessenberg least-squares problem is solved by ``lstsq``, and
    the iteration stops when that solve's residual is below ``rtol |b|``
    (2-norms).  The
    stop test and the solution are thus ``lstsq``'s, which the rotations
    only gate, and ``lstsq`` runs on the few iterations near the stop.
    Returns None on a breakdown before that point: the Krylov space is then
    invariant under ``M`` but holds no solution, so ``M`` is singular.  The
    breakdown test is absolute, which assumes ``|M| >= 1`` (the bordered
    Poisson operator maps constants to themselves), so a new direction
    shorter than 1e-8 is rounding noise.  A zero ``b`` returns 0;
    ConvergenceError is raised after ``max_iter`` iterations.  The basis is
    kept as a list of rows and stacked once, on return.
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b)
    basis = [b / beta]
    columns = []
    # rotation i takes entries (i, i + 1) of a column (p, q) to (c p + s q, c q - s p)
    rotations = []
    g = beta  # the last entry of the rotated right-hand side beta e_1
    for j in range(max_iter):
        w = matvec(basis[j])
        h = np.zeros(j + 2)
        for i, v in enumerate(basis):
            h[i] = v @ w
            w = w - h[i] * v
        h[j + 1] = np.linalg.norm(w)
        columns.append(h)
        r = h.tolist()
        for i, (c, s) in enumerate(rotations):
            r[i], r[i + 1] = c * r[i] + s * r[i + 1], c * r[i + 1] - s * r[i]
        norm = math.hypot(r[j], r[j + 1])
        # both entries are 0 only when h[j + 1] = 0, a breakdown that ends the
        # iteration below; the identity rotation stands in for 0 / 0 there
        c, s = (r[j] / norm, r[j + 1] / norm) if norm > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        g = -s * g
        if abs(g) < 10.0 * rtol * beta or h[j + 1] < 1e-8:
            y, residual = _hessenberg_lstsq(columns, beta)
            if residual < rtol * beta:
                return y @ np.array(basis)
        if h[j + 1] < 1e-8:
            return None
        basis.append(w / h[j + 1])
    raise ConvergenceError("GMRES cross-check did not reach tolerance", _hessenberg_lstsq(columns, beta)[1])


def _gordin_sigma2(ws: _Workspace, nu: np.ndarray, drift: float, theta: np.ndarray) -> float:
    """Fluctuation variance from the potential (Gordin, Soviet Math. Dokl. 10, 1969).

    ``S_n - n drift + Theta(X_n)`` is a martingale; its increment from node
    ``i`` by atom ``k`` is ``rho_k(x_i) - drift + Theta(g_k . x_i) - Theta(x_i)``,
    and ``sigma^2`` is the increment's second moment under ``nu``.  The
    mapped point is read through the interpolation stencil: each neighbour is
    its own transition with its share of the weight, as in the discretized
    chain whose twisted operator ``dominant_eigenvalue`` iterates, so this is
    that chain's variance exactly.
    """
    d = ws.rho[:, None, :] - drift + theta[ws.cols] - theta
    return float(nu @ (ws.weights @ (ws.share * d * d).sum(axis=1)))


@dataclass(frozen=True, eq=False)
class PoissonSolution:
    """Potential ``Theta`` with the variance it gives and its diagnostics.

    ``theta`` solves ``Theta - P Theta = rho_bar - drift`` on the grid;
    ``sigma2`` is the fluctuation variance by Gordin's martingale formula
    (``_gordin_sigma2``) and ``A = 2 sup |Theta|`` the
    martingale-approximation constant.
    ``residual`` is the sup norm of the defining equation, ``tail_bound`` a
    geometric estimate of the discarded series tail, and ``interp_slack`` a
    second-difference estimate of the piecewise-linear interpolation error.
    ``dense_gap`` is the sup gap between the series and an independent GMRES
    solve of the bordered system; it keeps the name it had when that second
    route was a dense LU solve, because ``spectral.json``, the benchmark's
    output checks and the reference fixture read that key.
    """

    theta: GridFunction
    drift: float
    sigma2: float
    A: float
    truncation_n: int
    tail_bound: float
    residual: float
    dense_gap: float
    interp_slack: float

    def theta_at(self, params):
        return self.theta.interp(params)


def solve_poisson(
    law: MatrixLaw,
    nu: GridFunction,
    tol: float = 1e-10,
    max_terms: int = 20_000,
) -> PoissonSolution:
    """Sum the series ``Theta = sum_n P^n (rho_bar - drift)`` on the grid.

    The drift is removed by quadrature against ``nu`` before summing, which
    is what makes the series summable.  Terms are added until the sup norm
    of the next term falls below ``tol``.  The series is the solution; as a
    cross-check, GMRES solves ``(I - B + 1 nu^T) Theta = rho_bar - drift``
    to a relative residual of ``tol * 1e-3`` in at most
    ``min(max_terms, resolution)`` iterations, applying ``B`` through the
    scatter stencil rather than the series' gather form, and ``dense_gap`` is
    the sup gap between the two.  Identity-action laws make that system
    singular; ``dense_gap`` is then the defect of the series solution in it.
    ``sigma2`` comes from the summed ``Theta`` by ``_gordin_sigma2``.
    Raises ConvergenceError when the increments stop decreasing or GMRES
    hits its iteration cap.
    """
    ws = _Workspace(law, nu.grid)
    rho_bar = ws.rho_bar()
    drift = float(nu.values @ rho_bar)
    rhs = rho_bar - drift
    theta = rhs.copy()
    term = rhs
    increments = [float(np.abs(term).max())]
    for n_terms in range(1, max_terms + 1):
        term = ws.apply(term)
        inc = float(np.abs(term).max())
        increments.append(inc)
        if inc < tol:
            break
        theta += term
        if n_terms >= 50 and inc > max(increments[n_terms - 40 : n_terms]):
            raise ConvergenceError("potential series increments stopped decreasing", inc)
    else:
        raise ConvergenceError("potential series did not reach tolerance", increments[-1])
    # geometric tail estimate from the last decade of increments
    rate = (increments[-1] / increments[-11]) ** 0.1 if len(increments) > 11 else 0.5
    tail_bound = increments[-1] * rate / (1.0 - rate) if rate < 1.0 else math.inf
    residual = float(np.abs(theta - rhs - ws.apply(theta)).max())

    def bordered(v):
        return v - ws.apply_stencil(v) + nu.values @ v

    theta_krylov = _gmres(bordered, rhs, tol * 1e-3, min(max_terms, nu.grid.resolution))
    if theta_krylov is None:
        dense_gap = float(np.abs(bordered(theta) - rhs).max())
    else:
        dense_gap = float(np.abs(theta - theta_krylov).max())
    interp_slack = float(np.abs(np.diff(theta, 2)).max() / 8.0)
    return PoissonSolution(
        theta=GridFunction(nu.grid, theta),
        drift=drift,
        sigma2=_gordin_sigma2(ws, nu.values, drift, theta),
        A=2.0 * float(np.abs(theta).max()),
        truncation_n=len(increments) - 1,
        tail_bound=tail_bound,
        residual=residual,
        dense_gap=dense_gap,
        interp_slack=interp_slack,
    )
