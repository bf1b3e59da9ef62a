"""Positive-part moments of random variables from their transforms.

The package computes E X_+^p for p > 0 through half-line integral
representations of the Fourier-Laplace transform or the characteristic
function, applies them to the optimal tail bound for sums of bounded random
variables, and ships independent oracles (direct density quadrature, the
naive Poisson-mixture series, seeded Monte Carlo) to validate every route.
"""

from .distributions import (
    CenteredScaledPoisson,
    DistributionSpec,
    FiniteDiscrete,
    IndependentSum,
    Normal,
    PointMass,
    Shift,
    fl_transform,
    raw_moment,
    remainder_transform,
    sample,
)
from .errors import (
    BracketFailure,
    BudgetExceeded,
    DegenerateMoment,
    DomainError,
    MomentMismatch,
    NonFiniteIntegrand,
    NumericalDegeneracy,
    PositivePartError,
    PreconditionError,
    QuadratureError,
    SeriesGuard,
    SpecParseError,
    SpecSemanticError,
    UnmetBudget,
)
from .moments import (
    MomentOrder,
    MomentResult,
    gamma_p1,
    i_p,
    improper_cf_moment,
    j_p,
    match_discrete,
    ppm_cf,
    ppm_diff,
    ppm_laplace,
    ppm_negative_s,
)
from .oracles import OracleEstimate, density_ppm, mc_ppm, mc_tail, naive_series_ppm
from .quadrature import HeadRule, IntegrandProfile, QuadratureResult, integrate_halfline, partial_integrals
from .remainders import exp_remainder, inv_power
from .specparse import parse_spec, render
from .tailbound import (
    TailBoundProblem,
    TailBoundResult,
    eta_spec,
    m_of_t,
    pin,
    pin_curve,
    solve_tx,
)

__version__ = "0.1.0"
