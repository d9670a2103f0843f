"""Exit of the log-size walk from the positive half-line: survival decay
like 1/sqrt(n) and the harmonic function V that sets the constant.

Run:  python3 demos/04_exit_times.py   (about half a minute)
"""

import math

from conefluct import (
    SimplexGrid,
    SimplexVector,
    estimate_V,
    solve_poisson,
    stationary_measure,
    survival_probability,
)
from conefluct.fixtures import reference_law

law = reference_law()
x = SimplexVector.barycenter(2)
a = 1.0
grid = SimplexGrid(512)
nu = stationary_measure(law, grid)
poisson = solve_poisson(law, nu)
sigma = math.sqrt(poisson.sigma2)

print(f"start: barycenter direction, level a = {a}, sigma = {sigma:.5f}")

print("\nKilled expectation E[S_n ; tau > n] stabilizes to V(x, a):")
est = estimate_V(law, x, a, [16, 32, 64, 128, 256, 512, 1024], 100000, seed=4, poisson=poisson)
for n, e, s in zip(est.n_schedule, est.estimates, est.stderrs):
    print(f"  n = {n:>5}:  {e:.4f} +- {s:.4f}")
print(f"plateau at n = {est.plateau_n}:  V_hat = {est.V_hat:.4f} +- {est.V_stderr:.4f}")
print(f"({est.diagnostics})")

print("\nSurvival P(tau > n) against the predicted 2 V / (sigma sqrt(2 pi n)):")
n_values = [64, 256, 1024, 4096]
curve = survival_probability(law, x, a, n_values, 200000, seed=5)
print(f"{'n':>6} {'p_hat':>10} {'predicted':>10} {'ratio':>7}")
for n, p in zip(curve.n_values, curve.p_hat):
    pred = 2.0 * est.V_hat / (sigma * math.sqrt(2.0 * math.pi * n))
    print(f"{n:>6} {p:>10.5f} {pred:>10.5f} {p / pred:>7.3f}")
print("\nThe ratio settles near 1: the walk conditioned to stay positive")
print("survives exactly as often as a Brownian motion started at V(x, a).")
