"""The package's public API is exactly the production names below.

Names that only the tests call live in ``tests/*_oracle.py``; this list keeps
them from coming back to ``verblunsky.__all__`` unnoticed.
"""

import verblunsky

PUBLIC_API = [
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


def test_all_is_the_public_api():
    assert sorted(verblunsky.__all__) == PUBLIC_API


def test_every_public_name_resolves():
    for name in PUBLIC_API:
        assert getattr(verblunsky, name) is not None, name
