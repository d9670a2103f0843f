"""From the transfer operator to the three constants that drive the limit
theorems: the drift gamma, the variance sigma^2, and the potential bound A.

Run:  python3 demos/03_spectral_pipeline.py
"""

import numpy as np

from conefluct import (
    SimplexGrid,
    dominant_eigenvalue,
    lyapunov_exact,
    sigma2_spectral,
    solve_poisson,
    stationary_measure,
)
from conefluct.fixtures import reference_law

law = reference_law()
grid = SimplexGrid(512)

print("Stationary direction weights (adjoint power iteration):")
nu = stationary_measure(law, grid)
mass = nu.values
for lo, hi in [(0.0, 0.2), (0.2, 0.4), (0.4, 0.6), (0.6, 0.8), (0.8, 1.0)]:
    sel = (grid.params >= lo) & (grid.params < hi if hi < 1 else grid.params <= 1)
    bar = "#" * int(200 * mass[sel].sum())
    print(f"  t in [{lo:.1f}, {hi:.1f}):  {bar}")

gamma = lyapunov_exact(law, nu)
print(f"\ndrift gamma = nu(rho_bar) = {gamma:.2e}  (centered law)")

print("\nPerturbed-operator eigenvalue lambda_t for small t:")
print(f"{'t':>6} {'Re lambda':>12} {'Im lambda':>12} {'2(1 - Re)/t^2':>14}")
for t in (0.1, 0.05, 0.025):
    lam, _ = dominant_eigenvalue(law, grid, t)
    print(f"{t:>6} {lam.real:>12.8f} {lam.imag:>12.2e} {2 * (1 - lam.real) / t**2:>14.8f}")
sigma2 = sigma2_spectral(law, grid)
print(f"\nRichardson-extrapolated curvature: sigma^2 = {sigma2:.8f}")
print(f"so the walk fluctuates like a Brownian motion of scale sigma = {np.sqrt(sigma2):.5f}")

sol = solve_poisson(law, nu)
print(f"\nPotential Theta (series of {sol.truncation_n} operator powers):")
print(f"  residual of Theta - P Theta = rho_bar - drift:  {sol.residual:.1e}")
print(f"  gap to an independent GMRES solve:              {sol.dense_gap:.1e}")
print(f"  sup |Theta| = {np.max(np.abs(sol.theta.values)):.5f}, so A = {sol.A:.5f}")
print("\nA bounds how far the walk can sit from its martingale companion:")
print("|S_n - M_n| <= A for every path, which transfers Brownian exit")
print("estimates to the matrix walk at the cost of an A-shift in the level.")
