"""Monte Carlo machinery for the additive walk and its exit-time statistics.

The walk is ``S_n = a + sum_k rho(g_k, X_{k-1})`` along the projective orbit
``X_k = g_k . X_{k-1}`` of i.i.d. atoms; the exit time is the first ``n >= 1``
with ``S_n <= 0`` (ties count as exit, and every exit test counts
``S_n <= _batch.EXIT_TOL = 2**-30`` as a tie).  Estimators here cover survival
probabilities, killed expectations ``V_n = E[S_n; tau > n]`` (whose plateau
estimates the harmonic function ``V``), conditional endpoint laws, the
fluctuation variance, increment covariances, and the martingale
approximation ``M_n = S_n + Theta(X_n) - Theta(X_0)`` built from a tabulated
potential, with ``sup_n |S_n - M_n| <= A = 2 sup |Theta|`` checked pathwise.

Everything runs on the three walk kernels of ``_batch``, which share one
walk loop.  The killed walk ``survival_chunk`` runs a tuple of start levels:
one level for survival and the conditional endpoints, all the levels of
``estimate_V`` on one path set, and every ``HarmonicEstimate`` carries
``P(tau > n)`` from its own paths.
The free walk ``walk_chunk`` feeds the variance, the covariances and
``simulate_paths``.  ``martingale_guards`` runs the free walk in
``martingale_chunk``, which reduces the two martingale guards while the
paths step, in O(paths) memory; this is the route ``validate`` takes.
``simulate_paths`` is the trajectory API: it keeps each chunk's recorded
rows as one ``PathBatch`` of step-major arrays and builds ``M``, ``tau`` and
``T`` on them, and ``martingale_gap`` and ``exit_ordering_violations``
reduce those batches to the numbers ``martingale_guards`` gives.  Results
are reproducible bit for bit for a given seed regardless of worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _batch
from .matrix_core import SimplexVector
from .matrix_law import MatrixLaw, _endpoint_sums
from .transfer_operator import PoissonSolution

__all__ = [
    "PathBatch",
    "SurvivalCurve",
    "HarmonicEstimate",
    "CovarianceDecay",
    "simulate_paths",
    "survival_probability",
    "estimate_V",
    "conditional_endpoint_samples",
    "mc_sigma2",
    "covariance_decay",
    "martingale_guards",
    "martingale_gap",
    "exit_ordering_violations",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True, eq=False)
class PathBatch:
    """One chunk of full-horizon trajectories, one column per path.

    ``S`` and ``M`` are step-major ``(horizon + 1, m)`` arrays: row n is step
    n, so ``S[0] = M[0] = a``, and column p is path p.  ``M`` is the
    compensated walk ``M_n = S_n + Theta(X_n) - Theta(X_0)``.  ``tau`` is each
    path's first step with ``S <= EXIT_TOL`` and ``T`` its first step with
    ``M <= EXIT_TOL``, as (m,) integer arrays that hold 0 where the path does
    not cross within the horizon (steps start at 1, so 0 is never a crossing).
    ``M`` and ``T`` are None when no potential was supplied.  ``x_final``
    holds the (m, d) simplex points at the horizon.
    """

    S: np.ndarray
    M: np.ndarray | None
    tau: np.ndarray
    T: np.ndarray | None
    x_final: np.ndarray


@dataclass(frozen=True, eq=False)
class SurvivalCurve:
    """Survival estimates ``p_hat(n) = P(tau > n)`` on a grid of times."""

    n_values: np.ndarray
    p_hat: np.ndarray
    ci_half_width: np.ndarray
    survivors: np.ndarray
    paths: int
    start_a: float
    seed: object


@dataclass(frozen=True, eq=False)
class HarmonicEstimate:
    """Plateau estimate of ``V(x, a) = lim_n E[S_n; tau > n]``.

    ``survival`` is ``P_hat(tau > n)`` at each schedule point, from the same
    paths as the estimates.  Near 1 at the reported n, few paths have had
    the time to exit, and the plateau says little about ``V``.
    """

    start_x: np.ndarray
    start_a: float
    n_schedule: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    survival: np.ndarray
    V_hat: float
    V_stderr: float
    plateau_n: int | None
    converged: bool
    diagnostics: str

    @property
    def reported_survival(self) -> float:
        """``P_hat(tau > n)`` at the n that ``V_hat`` is read at."""
        n = self.plateau_n or self.n_schedule[-1]
        return float(self.survival[np.searchsorted(self.n_schedule, n)])


@dataclass(frozen=True, eq=False)
class CovarianceDecay:
    """Lagged increment covariances after burn-in, with a geometric-rate fit."""

    burn_in: int
    lags: np.ndarray
    cov: np.ndarray
    stderr: np.ndarray
    kappa_fit: float | None
    fit_lags: list
    paths: int
    note: str


def _sorted_steps(values) -> tuple:
    steps = tuple(sorted({int(v) for v in values}))
    if not steps or steps[0] < 1:
        raise ValueError("step values must be integers >= 1")
    return steps


def _first_crossing(rows: np.ndarray, level: float) -> np.ndarray:
    """Per column, the first step n >= 1 with ``rows[n] <= level + EXIT_TOL``, else 0."""
    hit = rows[1:] <= level + _batch.EXIT_TOL
    return np.where(hit.any(axis=0), hit.argmax(axis=0) + 1, 0)


def simulate_paths(
    law: MatrixLaw,
    x: SimplexVector,
    a: float,
    horizon: int,
    paths: int,
    seed,
    poisson: PoissonSolution | None = None,
    workers: int = 1,
) -> list[PathBatch]:
    """Simulate full-horizon paths, continued past the exit.

    Returns one ``PathBatch`` per chunk of ``_batch.chunk_layout(paths)``, in
    chunk order.  The batches are the free walk's own rows: it records ``S``
    and, when a potential is supplied (d = 2 only), the first simplex
    coordinate at steps 0 to ``horizon``, and ``M`` is built in place over the
    coordinate rows.  They are returned as a list, not joined, because
    concatenating would copy every trajectory once more.  Memory is
    ``O(paths * horizon)``; use the aggregate estimators for large budgets.
    """
    if poisson is not None and law.dim != 2:
        raise ValueError("compensated trajectories need the d = 2 tabulated potential")
    steps = tuple(range(horizon + 1))
    parts = _batch.run_chunks(
        _batch.walk_chunk,
        (law.atom_stack, law.cum_weights, x.coords, a, horizon, steps, (), steps if poisson is not None else (), True),
        paths,
        seed,
        workers,
    )
    batches = []
    for S, _, M, x_final in parts:
        T = None
        if poisson is None:
            M = None
        else:
            # M over the coordinate rows in place, one step at a time: a
            # whole-array pass would hold a second (horizon + 1, m) buffer
            theta0 = poisson.theta_at(x.coords[0])
            M[0] = S[0]
            for k in range(1, horizon + 1):
                M[k] = S[k] + poisson.theta_at(M[k]) - theta0
            T = _first_crossing(M, 0.0)
        batches.append(PathBatch(S=S, M=M, tau=_first_crossing(S, 0.0), T=T, x_final=x_final))
    return batches


def _survival_reduce(law, x, levels, n_values, paths, seed, workers, want_samples):
    parts = _batch.run_chunks(
        _batch.survival_chunk,
        (law.atom_stack, law.cum_weights, x.coords, levels, n_values, want_samples),
        paths,
        seed,
        workers,
    )
    counts = np.sum([p[0] for p in parts], axis=0)
    sums = np.sum([p[1] for p in parts], axis=0)
    sums2 = np.sum([p[2] for p in parts], axis=0)
    samples = None
    if want_samples:
        samples = [np.concatenate([p[3][i] for p in parts]) for i in range(len(n_values))]
    return counts, sums, sums2, samples


def survival_probability(
    law: MatrixLaw,
    x: SimplexVector,
    a: float,
    n_values,
    paths: int,
    seed,
    workers: int = 1,
) -> SurvivalCurve:
    """Estimate ``P(tau > n)`` at every n in ``n_values`` from one path set.

    The evaluation times are nested into a single killed run, so the curve
    is monotone by construction.  CI half-widths are 95% normal.
    """
    n_values = _sorted_steps(n_values)
    counts = _survival_reduce(law, x, (a,), n_values, paths, seed, workers, False)[0][0]  # the level's row
    p_hat = counts / paths
    ci = _Z95 * np.sqrt(p_hat * (1.0 - p_hat) / paths)
    return SurvivalCurve(
        n_values=np.asarray(n_values),
        p_hat=p_hat,
        ci_half_width=ci,
        survivors=counts,
        paths=paths,
        start_a=float(a),
        seed=seed,
    )


def estimate_V(
    law: MatrixLaw,
    x: SimplexVector,
    a,
    n_schedule,
    paths: int,
    seed,
    poisson: PoissonSolution | None = None,
    workers: int = 1,
    rel_tol: float = 0.02,
) -> HarmonicEstimate | list[HarmonicEstimate]:
    """Estimate ``V(x, a)`` as the plateau of ``V_n = E[S_n; tau > n]``.

    ``a`` is one level, which gives one ``HarmonicEstimate``, or a strictly
    increasing sequence of levels, which gives a list with one estimate per
    level.  All levels run as one tuple on one path set (see
    ``_batch.survival_chunk``), so their estimates are not independent.

    Dead paths contribute zero to the killed expectation.  The plateau is
    the first schedule point whose estimate moved by less than
    ``max(stderr, rel_tol * V_n)`` from its predecessor; without one the
    last estimate is returned and the result is flagged unconverged.  When a
    potential is supplied, the diagnostics quote the deterministic lower
    band ``a - A`` and the empirical upper envelope ``V_hat / (1 + a)``.
    """
    n_schedule = _sorted_steps(n_schedule)
    levels = tuple(float(v) for v in np.atleast_1d(a))
    counts, sums, sums2, _ = _survival_reduce(law, x, levels, n_schedule, paths, seed, workers, False)
    estimates = [
        _plateau(x, level, n_schedule, c, s, s2, paths, poisson, rel_tol)
        for level, c, s, s2 in zip(levels, counts, sums, sums2, strict=True)
    ]
    return estimates[0] if np.ndim(a) == 0 else estimates


def _plateau(x, a, n_schedule, counts, sums, sums2, paths, poisson, rel_tol) -> HarmonicEstimate:
    """One level's ``HarmonicEstimate`` from its survivor counts and sums."""
    est = sums / paths
    var = np.maximum(sums2 / paths - est**2, 0.0)
    se = np.sqrt(var / paths)
    plateau_n = None
    pick = len(n_schedule) - 1
    for i in range(1, len(n_schedule)):
        if abs(est[i] - est[i - 1]) < max(se[i], rel_tol * abs(est[i])):
            plateau_n = n_schedule[i]
            pick = i
            break
    converged = plateau_n is not None
    notes = [
        f"V_hat = {est[pick]:.6g} +- {se[pick]:.3g} at n = {n_schedule[pick]}",
        "plateau reached" if converged else "no plateau in the schedule; using the last estimate",
    ]
    if poisson is not None:
        notes.append(
            f"bounds: max(0, a - A) = {max(0.0, a - poisson.A):.6g} <= V_hat; "
            f"empirical upper envelope V_hat / (1 + a) = {est[pick] / (1.0 + a):.6g}"
        )
    return HarmonicEstimate(
        start_x=x.coords,
        start_a=float(a),
        n_schedule=np.asarray(n_schedule),
        estimates=est,
        stderrs=se,
        survival=counts / paths,
        V_hat=float(est[pick]),
        V_stderr=float(se[pick]),
        plateau_n=plateau_n,
        converged=converged,
        diagnostics="; ".join(notes),
    )


def conditional_endpoint_samples(
    law: MatrixLaw,
    x: SimplexVector,
    a: float,
    n_values,
    paths: int,
    seed,
    workers: int = 1,
) -> dict:
    """Survivor samples of ``S_n / sqrt(n)`` at each n, from one path set."""
    n_values = _sorted_steps(n_values)
    samples = _survival_reduce(law, x, (a,), n_values, paths, seed, workers, True)[3]
    return {n: samples[i] / math.sqrt(n) for i, n in enumerate(n_values)}


def mc_sigma2(
    law: MatrixLaw,
    x: SimplexVector,
    n: int,
    paths: int,
    seed,
    workers: int = 1,
):
    """Monte Carlo fluctuation variance ``var(S_n) / n`` with its stderr.

    The stderr comes from the fourth-moment formula for the sample variance,
    so it vanishes for deterministic laws.
    """
    S = _endpoint_sums(law, x, int(n), paths, seed, workers)
    v = float(S.var(ddof=1))
    centered = S - S.mean()
    m4 = float(np.mean(centered**4))
    stderr = math.sqrt(max(m4 - v**2, 0.0) / paths) / n
    return v / n, stderr


def covariance_decay(
    law: MatrixLaw,
    x: SimplexVector,
    burn_in: int,
    max_lag: int,
    paths: int,
    seed,
    workers: int = 1,
) -> CovarianceDecay:
    """Covariances of the increments at the burn-in step and lagged steps.

    Row l is ``cov(rho_m, rho_{m+l})`` across paths (l = 0 is the variance
    anchor).  The geometric rate ``kappa_fit`` is fitted on the variance
    anchor together with the lags l >= 1 whose covariance exceeds 3 stderr
    in magnitude; anchoring at l = 0 is conservative (the variance sits on
    or above the geometric envelope) and keeps the fit defined whenever any
    lag carries signal.  With no significant lag the window is reported
    empty and no rate is fitted.
    """
    if burn_in < 1 or max_lag < 1:
        raise ValueError("burn_in and max_lag must be >= 1")
    steps = tuple(burn_in + l for l in range(max_lag + 1))
    parts = _batch.run_chunks(
        _batch.walk_chunk,
        (law.atom_stack, law.cum_weights, x.coords, 0.0, steps[-1], (), steps, (), False),
        paths,
        seed,
        workers,
    )
    # one (lags, paths) array filled chunk by chunk; each chunk's rows are
    # freed as they are copied, so the chunks and the whole are never both held
    rho = np.empty((len(steps), paths))
    lo = 0
    parts.reverse()
    while parts:
        chunk = parts.pop()[1]
        rho[:, lo : lo + chunk.shape[1]] = chunk
        lo += chunk.shape[1]
        del chunk
    base = rho[0] - rho[0].mean()
    lags = np.arange(max_lag + 1)
    cov = np.empty(max_lag + 1)
    stderr = np.empty(max_lag + 1)
    for l in lags:
        other = rho[l] - rho[l].mean()
        prods = base * other
        cov[l] = prods.mean() * paths / (paths - 1)
        stderr[l] = prods.std(ddof=1) / math.sqrt(paths)
    window = [int(l) for l in lags[1:] if abs(cov[l]) > 3.0 * stderr[l]]
    if window:
        fit_lags = [0] + window
        slope = np.polyfit(np.asarray(fit_lags, dtype=float), np.log(np.abs(cov[fit_lags])), 1)[0]
        kappa_fit = float(math.exp(slope))
        note = f"geometric fit over lags {fit_lags}"
    else:
        fit_lags = []
        kappa_fit = None
        note = "fit window empty: lag covariances are within noise"
    return CovarianceDecay(
        burn_in=burn_in,
        lags=lags,
        cov=cov,
        stderr=stderr,
        kappa_fit=kappa_fit,
        fit_lags=fit_lags,
        paths=paths,
        note=note,
    )


def martingale_guards(
    law: MatrixLaw,
    x: SimplexVector,
    a: float,
    horizon: int,
    paths: int,
    seed,
    poisson: PoissonSolution,
    workers: int = 1,
):
    """Both martingale guards, reduced while the paths step: no trajectory is kept.

    With ``A = poisson.A`` and ``slack = poisson.interp_slack``, returns
    ``(max_gap, over, late)``: the sup of ``|S - M|`` over every path and
    step, the count of paths whose sup exceeds ``A + slack``, and the count
    of paths on which ``M`` reaches ``-A`` before ``S`` exits.  These are
    ``martingale_gap(batches, A, slack)`` and
    ``exit_ordering_violations(batches, A)`` over ``simulate_paths`` with the
    same arguments, bit for bit, in ``O(paths)`` memory.  d = 2 only.
    """
    if law.dim != 2:
        raise ValueError("compensated trajectories need the d = 2 tabulated potential")
    theta, A = poisson.theta, poisson.A
    parts = _batch.run_chunks(
        _batch.martingale_chunk,
        (law.atom_stack, law.cum_weights, x.coords, a, horizon, theta.grid.params, theta.values, A),
        paths,
        seed,
        workers,
    )
    max_gap = 0.0
    over = late = 0
    for gap, chunk_late in parts:
        max_gap = max(max_gap, float(gap.max()))
        over += int(np.count_nonzero(gap > A + poisson.interp_slack))
        late += chunk_late
    return max_gap, over, late


def martingale_gap(batches, A: float, slack: float = 0.0):
    """Pathwise sup of ``|S - M|`` and the count of paths exceeding ``A + slack``.

    ``slack`` should be the interpolation slack of the potential used to
    build the batches; the bound itself is deterministic, so any violation
    indicates a broken potential or mismatched trajectories.  The sup is
    taken one step at a time, so no array the size of ``S`` is allocated.
    """
    max_gap = 0.0
    violations = 0
    for batch in batches:
        if batch.M is None:
            raise ValueError("batches carry no compensated trajectory; simulate with a potential")
        gap = np.zeros(batch.S.shape[1])
        for s_row, m_row in zip(batch.S, batch.M):
            np.maximum(gap, np.abs(s_row - m_row), out=gap)
        max_gap = max(max_gap, float(gap.max()))
        violations += int(np.count_nonzero(gap > A + slack))
    return max_gap, violations


def exit_ordering_violations(batches, A: float) -> int:
    """Count paths where the exit fails to precede the shifted crossing.

    For every path on which ``M`` reaches ``-A`` within the horizon, the
    exit ``tau`` must already have happened by then (since ``S <= M + A``);
    returns the number of paths violating that ordering.
    """
    bad = 0
    for batch in batches:
        if batch.M is None:
            raise ValueError("batches carry no compensated trajectory; simulate with a potential")
        t_shift = _first_crossing(batch.M, -A)
        late = (batch.tau == 0) | (batch.tau > t_shift)
        bad += int(np.count_nonzero((t_shift > 0) & late))
    return bad
