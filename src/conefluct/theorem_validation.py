"""Closed forms and statistical checks for the conditioned limit behavior.

The walk killed at its first non-positive level has three asymptotic
fingerprints, each checked here against simulation:

* survival decay ``P(tau > n) ~ 2 V(x, a) / (sigma sqrt(2 pi n))``, tracked
  through the normalized ratio ``sqrt(n) p_hat(n) / (2 V / (sigma sqrt(2 pi)))``,
* the conditioned endpoint law: ``S_n / sqrt(n)`` given ``tau > n`` tends to
  the Rayleigh law ``1 - exp(-t^2 / (2 sigma^2))``,
* the harmonic function: ``V(x, .)`` is non-decreasing, sits above ``a - A``,
  and has unit slope at infinity.

The Gaussian closed forms (killed survival and corridor probabilities) serve
as oracles for the scaling limit and as quadrature cross-checks.  The
pass/fail bands of the sections live in ``ValidationThresholds`` defaults;
the two agreement checks between the spectral and Monte Carlo routes use
the fixed bands stated in their docstrings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "bm_survival",
    "bm_corridor",
    "rayleigh_cdf",
    "ks_statistic",
    "ValidationThresholds",
    "ExitAsymptoticsSection",
    "ConditionalLawSection",
    "VPropertiesSection",
    "ValidationReport",
    "validate_exit_asymptotics",
    "validate_conditional_law",
    "check_V_properties",
    "negative_control",
    "sigma2_agreement",
    "gamma_agreement",
]


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def bm_survival(a: float, n: float, sigma: float) -> float:
    """Survival of a killed driftless Gaussian walk: ``erf(a / (sigma sqrt(2 n)))``.

    This is the probability that a variance-``sigma^2`` Brownian path started
    at ``a > 0`` stays positive up to time ``n``; it is the scaling limit the
    matrix walk is validated against.
    """
    if a < 0.0 or n <= 0.0 or sigma <= 0.0:
        raise ValueError("need a >= 0, n > 0, sigma > 0")
    return math.erf(a / (sigma * math.sqrt(2.0 * n)))


def bm_corridor(a: float, b: float, n: float, sigma: float) -> float:
    """Killed corridor mass: ``P(stay positive up to n, end at or below b)``.

    By reflection the killed endpoint density at ``y`` is
    ``phi_s(y - a) - phi_s(y + a)`` with ``s = sigma sqrt(n)``, so the mass of
    ``(0, b]`` is ``Phi((b-a)/s) - Phi((b+a)/s) + 2 Phi(a/s) - 1``.  Sending
    ``b`` to infinity recovers ``bm_survival``.
    """
    if a < 0.0 or b < 0.0 or n <= 0.0 or sigma <= 0.0:
        raise ValueError("need a >= 0, b >= 0, n > 0, sigma > 0")
    s = sigma * math.sqrt(n)
    return _norm_cdf((b - a) / s) - _norm_cdf((b + a) / s) + 2.0 * _norm_cdf(a / s) - 1.0


def rayleigh_cdf(t, sigma: float):
    """Limit law of the conditioned endpoint: ``1 - exp(-t^2 / (2 sigma^2))``."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.0, 1.0 - np.exp(-np.square(t) / (2.0 * sigma**2)), 0.0)
    return float(out) if out.ndim == 0 else out


def ks_statistic(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance of a sample to a given CDF."""
    xs = np.sort(np.asarray(sample, dtype=float))
    m = xs.size
    if m == 0:
        raise ValueError("empty sample")
    F = np.asarray(cdf(xs), dtype=float)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - F), np.max(F - (grid - 1.0 / m))))


@dataclass(frozen=True)
class ValidationThresholds:
    """Pass/fail bands for the validation verdicts.

    Library callers may pass their own; the command line takes only
    ``ks_threshold`` and ``min_survivors`` from a config, because the KS
    distance is not scaled by the survivor count and a small budget needs its
    own bar.  Every other band is scaled by the run's standard error or
    survivor count, or is a fixed bias band or floor, so no budget needs
    another value.
    """

    ratio_band: tuple = (0.85, 1.15)
    ratio_z: float = 1.96
    flat_z: float = 3.0
    ks_threshold: float = 0.03
    ks_rise_allowance: float = 1.0
    min_survivors: int = 200
    bound_z: float = 3.0
    slope_band: tuple = (0.9, 1.1)


@dataclass(frozen=True, eq=False)
class ExitAsymptoticsSection:
    """Ratio table for the survival decay against ``2 V / (sigma sqrt(2 pi n))``."""

    n_values: np.ndarray
    p_hat: np.ndarray
    sqrt_n_p: np.ndarray
    sqrt_n_p_stderr: np.ndarray
    reference: float
    ratio: np.ndarray
    ratio_stderr: np.ndarray
    band: tuple
    top_half_in_band: bool
    flat: bool
    uniform_constant: float
    verdict: bool


@dataclass(frozen=True, eq=False)
class ConditionalLawSection:
    """KS distances of the conditioned endpoints to the Rayleigh law."""

    n_values: np.ndarray
    survivors: np.ndarray
    ks: np.ndarray
    sigma_used: float
    final_ks_ok: bool
    non_increasing: bool
    verdict: bool


@dataclass(frozen=True, eq=False)
class VPropertiesSection:
    """Structural checks of the estimated harmonic function on a level grid."""

    a_values: np.ndarray
    V_hat: np.ndarray
    V_stderr: np.ndarray
    A: float
    monotone_violations: int
    lower_bound_ok: bool
    slope_at_top: float
    slope_ok: bool
    upper_envelope: float
    verdict: bool


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Assembled verdicts for one law, ready for JSON serialization.

    ``verdicts()`` is the one verdict list: the section verdicts, the
    negative control, and every ``checklist`` flag that is not None.
    """

    law_fingerprint: str
    gamma: dict
    sigma2: dict
    exit_section: ExitAsymptoticsSection | None
    conditional_section: ConditionalLawSection | None
    negative_control: dict | None
    v_section: VPropertiesSection | None
    checklist: dict
    thresholds: ValidationThresholds = field(default_factory=ValidationThresholds)

    def verdicts(self) -> dict:
        out = {}
        if self.exit_section is not None:
            out["exit_asymptotics"] = self.exit_section.verdict
        if self.conditional_section is not None:
            out["conditional_law"] = self.conditional_section.verdict
        if self.negative_control is not None:
            out["negative_control"] = self.negative_control["pass"]
        if self.v_section is not None:
            out["v_properties"] = self.v_section.verdict
        for name, flag in self.checklist.items():
            if flag is not None:
                out[name] = flag
        return out

    @property
    def all_pass(self) -> bool:
        verdicts = self.verdicts()
        return bool(verdicts) and all(verdicts.values())


def validate_exit_asymptotics(
    curve,
    V_hat: float,
    V_stderr: float,
    sigma_hat: float,
    thresholds: ValidationThresholds = ValidationThresholds(),
) -> ExitAsymptoticsSection:
    """Check ``sqrt(n) p_hat(n)`` against ``2 V / (sigma sqrt(2 pi))``.

    The verdict requires every point in the top half of the n grid to have
    its CI intersect the ratio band, and the normalized values to show no
    adjacent move beyond ``flat_z`` combined stderrs.
    """
    if V_hat <= 0.0 or sigma_hat <= 0.0:
        raise ValueError("need positive V_hat and sigma_hat")
    n = np.asarray(curve.n_values, dtype=float)
    p = np.asarray(curve.p_hat, dtype=float)
    se_p = curve.stderr
    y = np.sqrt(n) * p
    se_y = np.sqrt(n) * se_p
    reference = 2.0 * V_hat / (sigma_hat * math.sqrt(2.0 * math.pi))
    ratio = y / reference
    rel = np.sqrt(
        np.divide(se_y, y, out=np.full_like(y, np.inf), where=y > 0) ** 2
        + (V_stderr / V_hat) ** 2
    )
    ratio_se = ratio * rel
    lo, hi = thresholds.ratio_band
    z = thresholds.ratio_z
    top = np.arange(len(n)) >= len(n) // 2
    in_band = (ratio + z * ratio_se >= lo) & (ratio - z * ratio_se <= hi) & (y > 0)
    top_ok = bool(np.all(in_band[top]))
    top_idx = np.nonzero(top)[0]
    flat = True
    for i, j in zip(top_idx[:-1], top_idx[1:]):
        if abs(y[i] - y[j]) > thresholds.flat_z * math.hypot(se_y[i], se_y[j]):
            flat = False
            break
    uniform_constant = float(np.max(y) / V_hat)
    return ExitAsymptoticsSection(
        n_values=np.asarray(curve.n_values),
        p_hat=p,
        sqrt_n_p=y,
        sqrt_n_p_stderr=se_y,
        reference=reference,
        ratio=ratio,
        ratio_stderr=ratio_se,
        band=(lo, hi),
        top_half_in_band=top_ok,
        flat=flat,
        uniform_constant=uniform_constant,
        verdict=top_ok and flat,
    )


def validate_conditional_law(
    samples_by_n: dict,
    sigma_hat: float,
    thresholds: ValidationThresholds = ValidationThresholds(),
) -> ConditionalLawSection:
    """KS distances of ``S_n / sqrt(n) | tau > n`` to the Rayleigh law.

    Requires at least ``min_survivors`` at every n (raising otherwise with
    the usable n values named).  The verdict wants the final KS below
    threshold and the sequence non-increasing up to sampling noise
    (allowance ``ks_rise_allowance * (1/sqrt(m_i) + 1/sqrt(m_j))``).
    """
    if sigma_hat <= 0.0:
        raise ValueError("sigma_hat must be positive")
    n_values = np.asarray(sorted(samples_by_n), dtype=int)
    counts = np.asarray([samples_by_n[n].size for n in n_values])
    if np.any(counts < thresholds.min_survivors):
        ok = [int(n) for n, c in zip(n_values, counts) if c >= thresholds.min_survivors]
        raise ValueError(
            f"insufficient survivors for a KS test: counts {dict(zip(n_values.tolist(), counts.tolist()))}; "
            + (
                f"adequate n values at this budget: {ok} (smallest {min(ok)}, largest {max(ok)})"
                if ok
                else "no n value is adequate at this budget"
            )
        )
    ks = np.asarray(
        [ks_statistic(samples_by_n[int(n)], lambda t: rayleigh_cdf(t, sigma_hat)) for n in n_values]
    )
    final_ok = bool(ks[-1] < thresholds.ks_threshold)
    non_increasing = True
    for i in range(len(n_values) - 1):
        allowance = thresholds.ks_rise_allowance * (
            1.0 / math.sqrt(counts[i]) + 1.0 / math.sqrt(counts[i + 1])
        )
        if ks[i + 1] > ks[i] + allowance:
            non_increasing = False
            break
    return ConditionalLawSection(
        n_values=n_values,
        survivors=counts,
        ks=ks,
        sigma_used=float(sigma_hat),
        final_ks_ok=final_ok,
        non_increasing=non_increasing,
        verdict=final_ok and non_increasing,
    )


def check_V_properties(
    a_values,
    V_hat,
    V_stderr,
    A: float,
    thresholds: ValidationThresholds = ValidationThresholds(),
) -> VPropertiesSection:
    """Structural checks of ``V_hat`` on an increasing level grid.

    Monotonicity violations are counted only when the drop exceeds
    ``bound_z`` combined stderrs; the lower bound ``V >= a - A`` is checked
    with the same slack; the slope check compares ``V_hat / a`` at the
    largest level against ``slope_band`` (the grid should reach well into
    the linear regime for that to be meaningful).
    """
    a = np.asarray(a_values, dtype=float)
    V = np.asarray(V_hat, dtype=float)
    se = np.asarray(V_stderr, dtype=float)
    if not (a.shape == V.shape == se.shape) or a.ndim != 1 or a.size < 2:
        raise ValueError("need matching 1-d arrays with at least two levels")
    if np.any(np.diff(a) <= 0.0):
        raise ValueError("level grid must be strictly increasing")
    z = thresholds.bound_z
    drops = V[1:] - V[:-1]
    comb = np.hypot(se[1:], se[:-1])
    monotone_violations = int(np.sum(drops < -z * comb))
    lower_ok = bool(np.all(V >= a - A - z * se))
    slope = float(V[-1] / a[-1])
    lo, hi = thresholds.slope_band
    slope_ok = lo <= slope <= hi
    upper_envelope = float(np.max(V / (1.0 + a)))
    return VPropertiesSection(
        a_values=a,
        V_hat=V,
        V_stderr=se,
        A=float(A),
        monotone_violations=monotone_violations,
        lower_bound_ok=lower_ok,
        slope_at_top=slope,
        slope_ok=slope_ok,
        upper_envelope=upper_envelope,
        verdict=(monotone_violations == 0) and lower_ok and slope_ok,
    )


def negative_control(section: ConditionalLawSection, sigma_scale: float) -> dict:
    """The conditional-law check rerun with sigma scaled by ``sigma_scale`` != 1.

    A wrong sigma must move the endpoints away from the Rayleigh law, so the
    control passes exactly when the conditional-law verdict at the scaled
    sigma fails.
    """
    return {
        "sigma_scale": sigma_scale,
        "sigma_used": section.sigma_used,
        "final_ks": float(section.ks[-1]),
        "pass": not section.verdict,
    }


def sigma2_agreement(spectral: float, monte_carlo: float, mc_stderr: float) -> bool:
    """The two variance routes agree within 5% or three Monte Carlo stderrs."""
    return bool(abs(monte_carlo - spectral) <= max(0.05 * spectral, 3.0 * mc_stderr))


def gamma_agreement(quadrature: float, monte_carlo: float, mc_stderr: float, tol: float) -> bool:
    """The two drift routes agree within three Monte Carlo stderrs or ``tol``."""
    return bool(abs(monte_carlo - quadrature) <= max(3.0 * mc_stderr, tol))
