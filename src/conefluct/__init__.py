"""Products of positive random matrices: geometry, spectra, exit-time fluctuations.

The package is organized bottom-up:

* ``matrix_core``: simplex geometry, projective action, contraction metric.
* ``matrix_law``: finitely supported matrix laws and standing hypotheses.
* ``transfer_operator``: d = 2 grid operator, invariant weights, drift,
  fluctuation variance, and the additive potential.
* ``fluctuation_sim``: chunk-reproducible Monte Carlo for exits, killed
  expectations, conditional endpoints, and martingale diagnostics.
* ``theorem_validation``: Gaussian closed forms, Rayleigh law, KS checks,
  and the verdict report.
* ``cli``: experiment driver with stable on-disk artifacts.
"""

from .matrix_core import (
    PositiveMatrix,
    SimplexVector,
    act,
    contraction_coeff,
    hennion_distance,
    left_product,
    matrix_norms,
    random_simplex_point,
)
from .matrix_law import (
    HypothesisReport,
    MatrixLaw,
    calibrate,
    check_P1,
    check_P3,
    check_P5,
    convolution_contraction,
    estimate_lyapunov,
    hypothesis_report,
)
from .transfer_operator import (
    ConvergenceError,
    DegenerateLawError,
    GridFunction,
    PoissonSolution,
    SimplexGrid,
    apply_P,
    dominant_eigenvalue,
    lyapunov_exact,
    solve_poisson,
    stationary_measure,
)
from .fluctuation_sim import (
    CovarianceDecay,
    HarmonicEstimate,
    PathBatch,
    SurvivalCurve,
    conditional_endpoint_samples,
    covariance_decay,
    estimate_V,
    exit_ordering_violations,
    martingale_gap,
    martingale_guards,
    mc_sigma2,
    simulate_paths,
    survival_probability,
)
from .theorem_validation import (
    ConditionalLawSection,
    ExitAsymptoticsSection,
    ValidationReport,
    ValidationThresholds,
    VPropertiesSection,
    bm_corridor,
    bm_survival,
    check_V_properties,
    ks_statistic,
    rayleigh_cdf,
    validate_conditional_law,
    validate_exit_asymptotics,
)

__version__ = "0.1.0"
