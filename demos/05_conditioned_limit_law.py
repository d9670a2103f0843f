"""The scaled endpoint S_n / sqrt(n), conditioned on survival, converges to
the one-sided heat-kernel profile; a wrong variance is loudly rejected.

Run:  python3 demos/05_conditioned_limit_law.py   (about a minute)
"""

import math

import numpy as np

from conefluct import (
    SimplexGrid,
    SimplexVector,
    conditional_endpoint_samples,
    ks_statistic,
    rayleigh_cdf,
    solve_poisson,
    stationary_measure,
)
from conefluct.fixtures import reference_law

law = reference_law()
x = SimplexVector.barycenter(2)
sigma = math.sqrt(solve_poisson(law, stationary_measure(law, SimplexGrid(512))).sigma2)

samples = conditional_endpoint_samples(law, x, 1.0, [64, 256, 1024], 400000, seed=6)

print(f"limit profile: density (t / sigma^2) exp(-t^2 / (2 sigma^2)), sigma = {sigma:.5f}")
print(f"\n{'n':>6} {'survivors':>10} {'KS distance':>12}")
for n, s in samples.items():
    ks = ks_statistic(s, lambda t: rayleigh_cdf(t, sigma))
    print(f"{n:>6} {s.size:>10} {ks:>12.4f}")

print("\nQuantiles of S_n / sqrt(n) at n = 1024 vs the limit law:")
s = np.sort(samples[1024])
print(f"{'level':>7} {'sample':>9} {'limit':>9}")
for q in (0.1, 0.25, 0.5, 0.75, 0.9):
    sample_q = float(np.quantile(s, q))
    limit_q = sigma * math.sqrt(-2.0 * math.log1p(-q))
    print(f"{q:>7} {sample_q:>9.4f} {limit_q:>9.4f}")

ks_wrong = ks_statistic(samples[1024], lambda t: rayleigh_cdf(t, 2.0 * sigma))
print(f"\nnegative control: KS against the profile with sigma doubled = {ks_wrong:.3f}")
print("(an order of magnitude above the matched fit - the test has teeth)")
