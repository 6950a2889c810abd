"""surro: surrogate-minimization algorithms with asymptotic-rate verification.

The package iterates schemes of the form  theta_{n+1} = argmin Q(theta_n, .)
over a convex set (EM and its alpha variant, mirror descent, the
extragradient/prox variant, Newton's method), extracts the curvature pair of
the surrogate at the fixed point, and checks measured geometric decay against
the rate pair that curvature predicts.
"""

from .descent import (
    IncompatibleDomain,
    SingularHessian,
    audit_prox_hypotheses,
    mirror_descent_problem,
    mirror_prox_problem,
    newton_problem,
)
from .domains import (
    AffineSlice,
    Box,
    ConvexDomain,
    DegenerateDomain,
    EuclideanBall,
    FullSpace,
    Simplex,
)
from .errors import SurroError
from .latent import (
    AlphaIndex,
    EmptyData,
    GaussianLatentModel,
    QuadratureFailure,
    TwoComponentMixture,
    alpha_em_problem,
    em_population_problem,
    em_sample_problem,
    fisher_information,
)
from .linalg import (
    DimensionMismatch,
    InternalNumericalFailure,
    NotPositiveDefinite,
    RatePair,
    Spectrum,
    eigh,
    generalized_rate_pair,
    inv_sqrt,
    spectral_norm,
    symmetrize,
)
from .mirror_maps import (
    BallMap,
    NegEntropyMap,
    OutsideMirrorDomain,
    ProjectionFailed,
    QuadraticMap,
    bregman,
    bregman_project,
)
from .objectives import (
    CustomObjective,
    Quartic1D,
    QuadraticForm,
    ShiftedQuadratic,
    SmoothLogSumExp,
)
from .rates import (
    CurvatureFrame,
    H4Violated,
    RateReport,
    SingularAcceleration,
    accelerate,
    alpha_transform,
    curvature_at,
    decay_estimate,
    direction_basis,
    mirror_prox_spectrum_map,
    optimal_alpha,
    reparam_invariance_check,
    theoretical_rates,
    verdicts,
)
from .rng import CounterRNG
from .surrogate import (
    InfeasibleInput,
    InnerSolveFailed,
    StopReason,
    StopRule,
    SurrogateProblem,
    Trace,
    inner_minimize,
    iterate,
)
from .sweep import SweepTable, sample_rate_sweep

__version__ = "0.1.0"
