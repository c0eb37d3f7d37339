"""hrlab: a desk-scale laboratory for extremes of dependent Gaussian arrays.

Exact evaluation and sampling of the bivariate Husler-Reiss law, generative
models for weakly and strongly dependent bivariate Gaussian triangular
arrays, and Monte Carlo / quadrature machinery that confronts simulated
componentwise extremes with the corresponding limit laws.
"""

__version__ = "0.1.0"

from .errors import DomainError, HrlabError, ModelError
from .evd_core import (
    HrParam,
    MixtureParams,
    gumbel_cdf,
    gumbel_quantile,
    hr_cdf,
    hr_cdf_dx,
    hr_copula,
    hr_exponent,
    hr_sample,
    std_normal_cdf,
)
from .norming import Norming, lambda_from_rho0, norming_constants, rho0_from_lambda
from .gauss_arrays import (
    AssumptionReport,
    ExplicitModel,
    RowSample,
    StrongFactorModel,
    WeakAR1Model,
    induced_correlation,
    row_extremes,
    sample_row,
    validate_assumption,
)
from .experiments import (
    ASLTPath,
    AsltRateReport,
    BoundSeries,
    Coupling,
    EmpiricalLaw2D,
    EmpiricalLaw4D,
    INDEPENDENT_ROWS,
    aslt_average,
    aslt_bound_rate,
    comparison_bound_series,
    empirical_max_law,
    empirical_maxmin_law,
    mixture_limit_cdf,
    mixture_limit_mc,
    shared_innovations,
    sup_distance,
    univariate_mixture_cdf,
)
from .seeding import SeedLineage

__all__ = [
    "ASLTPath",
    "AsltRateReport",
    "AssumptionReport",
    "BoundSeries",
    "Coupling",
    "DomainError",
    "EmpiricalLaw2D",
    "EmpiricalLaw4D",
    "ExplicitModel",
    "HrParam",
    "HrlabError",
    "INDEPENDENT_ROWS",
    "MixtureParams",
    "ModelError",
    "Norming",
    "RowSample",
    "SeedLineage",
    "StrongFactorModel",
    "WeakAR1Model",
    "aslt_average",
    "aslt_bound_rate",
    "comparison_bound_series",
    "empirical_max_law",
    "empirical_maxmin_law",
    "gumbel_cdf",
    "gumbel_quantile",
    "hr_cdf",
    "hr_cdf_dx",
    "hr_copula",
    "hr_exponent",
    "hr_sample",
    "induced_correlation",
    "lambda_from_rho0",
    "mixture_limit_cdf",
    "mixture_limit_mc",
    "norming_constants",
    "rho0_from_lambda",
    "row_extremes",
    "sample_row",
    "shared_innovations",
    "std_normal_cdf",
    "sup_distance",
    "univariate_mixture_cdf",
    "validate_assumption",
]
