"""Exact and Monte Carlo tools for Verblunsky coefficients of random
orthogonal polynomials on the unit circle."""

from .alphamoments import (
    alpha_x_moment,
    count_tuples,
    nice_identity_check,
    tuple_counts_all_m,
    verify_cn_identity,
)
from .combinatorics import MultiIndex, MultiplicityVector
from .gaussian import MomentPolynomial, gaussian_x_moment, gaussian_x_moment_raw, variance_pmf
from .graphs import MCondGraph, c_via_graphs, count_colorings, enumerate_m_graphs
from .montecarlo import (
    SampleStats,
    mc_x_moment,
    pushforward_experiment,
    sample_alpha_batch,
    sample_f_batch,
)
from .opuc import (
    NotPositiveDefiniteError,
    jacobian_determinant,
    measure_density,
    reversed_polynomial,
    szego_identity_gap,
    trig_moments,
    verblunsky_from_moments,
)

__version__ = "0.1.0"

__all__ = [
    "MCondGraph",
    "MomentPolynomial",
    "MultiIndex",
    "MultiplicityVector",
    "NotPositiveDefiniteError",
    "SampleStats",
    "alpha_x_moment",
    "c_via_graphs",
    "count_colorings",
    "count_tuples",
    "enumerate_m_graphs",
    "gaussian_x_moment",
    "gaussian_x_moment_raw",
    "jacobian_determinant",
    "mc_x_moment",
    "measure_density",
    "nice_identity_check",
    "pushforward_experiment",
    "reversed_polynomial",
    "sample_alpha_batch",
    "sample_f_batch",
    "szego_identity_gap",
    "trig_moments",
    "tuple_counts_all_m",
    "variance_pmf",
    "verblunsky_from_moments",
    "verify_cn_identity",
]
