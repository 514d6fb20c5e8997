"""Extremes of squared Bessel and Brownian scalar-product processes.

A simulation and numerical-verification toolkit: exact-increment path
simulation, the norming constants and locally rescaled processes whose maxima
converge to the Brown-Resnick process, a sampler of those maxima that
simulates only the copies that can reach them, a truncation-controlled and
an exact simulator of that limit, the closed-form tail asymptotics of the
product laws involved, and the empirical machinery that turns the
convergence statements into desk-scale statistical checks.
"""

__version__ = "0.1.0"

from .brown_resnick import (
    BRTruncationSpec,
    TruncationError,
    extremal_coefficient,
    gumbel_cdf,
    hr_bivariate_cdf,
    hr_lambda,
    sample_br,
    sample_br_batch,
    sample_br_exact,
)
from .numerics import (
    DEFAULT_QUADRATURE,
    QuadratureError,
    QuadratureSpec,
    StreamKey,
    integrate,
)
from .paths import (
    SamplePath,
    make_dyadic_grid,
    scalar_product_batch,
    squared_bessel_batch,
    time_index,
)
from .rescale import (
    NormingConstants,
    bessel_constants,
    generic_constants,
    local_bessel_batch,
    local_bessel_split_batch,
    local_scalar_batch,
    normal_constants,
    pair_maxima,
    scalar_constants,
)
from .stats import (
    bivariate_cdf_diff,
    fdd_check,
    ks_statistic,
    marginal_gumbel_sweep,
    two_sample_ks,
)
from .tails import (
    TailParams,
    check_condition_kk,
    check_gumbel_intensity,
    chi_square_density,
    chi_square_tail,
    chi_square_tail_asymptotic,
    chi_square_tail_fn,
    chi_square_tail_params,
    laplace_tail_fn,
    product_tail_oracle,
    scalar_product_tail_asymptotic,
    scalar_product_tail_params,
    weibull_product_density,
    weibull_product_tail,
)
