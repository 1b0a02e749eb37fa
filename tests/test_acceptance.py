"""Acceptance gate: twelve numbered criteria, one verdict line per criterion.

Run with ``pytest -v`` so every ``test_criterion_NN`` shows its own
PASSED/FAILED line.  Each test also prints a summary line (visible with
``-s`` or on failure); the two findings that matter even on a green run --
the factor-two gap against previously reported two-mode values, and the
outcome of the experimental pushforward study -- are additionally emitted
as warnings so the default run surfaces them.
"""

import itertools
import math
import time
import warnings
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from graph_oracle import unpruned_count

from verblunsky import (
    MultiIndex,
    MultiplicityVector,
    alpha_x_moment,
    c_via_graphs,
    count_tuples,
    gaussian_x_moment,
    gaussian_x_moment_raw,
    jacobian_determinant,
    mc_x_moment,
    measure_density,
    multiplicity_free_moment,
    pushforward_experiment,
    sample_alpha_batch,
    sample_f_batch,
    szego_identity_gap,
    trig_moments,
    tuple_counts_all_m,
    variance_pmf,
    verblunsky_from_moments,
    verify_cn_identity,
)
from verblunsky.combinatorics import partitions
from verblunsky.gaussian import MomentPolynomial, a_coefficients
from verblunsky.kernels import exp_neg_series, szego_low_coefficients
from verblunsky.montecarlo import _stats, mc_reference
from verblunsky.opuc import jacobian_determinant_exact

F = Fraction


def _multi_indices(max_deg):
    """All multiplicity multi-indices of degree 0..max_deg."""
    out = []
    for d in range(max_deg + 1):
        out.extend(MultiIndex(dict(pt.items())) for pt in partitions(d))
    return out


def _verdict(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_01_diagonal_moment_equals_variance_pmf():
    t0 = time.perf_counter()
    for n in range(1, 11):
        d = MultiIndex({n: 1})
        assert gaussian_x_moment(d, d) == variance_pmf(n), n
    assert gaussian_x_moment(MultiIndex({1: 1}), MultiIndex({1: 1})).to_map() == {1: F(1)}
    assert variance_pmf(3).to_map() == {3: F(1, 6), 2: F(1, 2), 1: F(1, 3)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _verdict(1, True, f"E|x_n|^2 == variance pmf exactly for n<=10 ({elapsed:.1f}s)")


def test_criterion_02_raw_engine_matches_partition_engine():
    t0 = time.perf_counter()
    idx = _multi_indices(5)
    pairs = 0
    for p in idx:
        for q in idx:
            assert gaussian_x_moment_raw(p, q) == gaussian_x_moment(p, q), (p, q)
            pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    _verdict(2, True, f"both engines agree on all {pairs} pairs with deg<=5 ({elapsed:.1f}s)")


def test_criterion_03_two_mode_examples_and_reference_discrepancy():
    two_two = MultiIndex({2: 2})
    assert gaussian_x_moment(two_two, two_two).to_map() == {
        2: F(1, 2),
        3: F(1),
        4: F(3, 2),
    }

    # Independent oracle for E|x_1 x_2|^2: expand x_1 x_2 = f_1 f_2 - f_1^3/2
    # (from x_1 = -f_1, x_2 = -f_2 + f_1^2/2) and integrate term products
    # against E|f_1|^{2a}|f_2|^{2b} = a! b! / (beta^a (2 beta)^b).
    def integral(a1, b1, a2, b2):
        if a1 != b1 or a2 != b2:
            return {}
        return {a1 + a2: F(factorial(a1)) * factorial(a2) / 2**a2}

    oracle = Counter()
    for (c1, e1), (c2, e2) in itertools.product(
        [(F(1), (1, 1)), (F(-1, 2), (3, 0))], repeat=2
    ):
        for k, v in integral(e1[0], e2[0], e1[1], e2[1]).items():
            oracle[k] += v * c1 * c2
    oracle = {k: v for k, v in oracle.items() if v}
    assert oracle == {2: F(1, 2), 3: F(3, 2)}

    mixed = MultiIndex({1: 1, 2: 1})
    engine = gaussian_x_moment(mixed, mixed).to_map()
    assert engine == oracle

    reported = {2: F(1, 4), 3: F(3, 4)}
    ratios = {k: engine[k] / reported[k] for k in reported}
    note = (
        "two-mode mixed moment: engines and the direct Gaussian integral give "
        "(1/2)b^-2 + (3/2)b^-3; previously reported values (1/4)b^-2 + (3/4)b^-3 "
        f"differ by a uniform factor {set(ratios.values())} -- reported, not asserted"
    )
    warnings.warn(note)
    _verdict(3, True, note)


def test_criterion_04_pmf_recursion_and_coefficient_positivity():
    for n in range(2, 11):
        step = MomentPolynomial.from_terms({0: F(n - 1, n), 1: F(1, n)})
        assert variance_pmf(n) == variance_pmf(n - 1) * step, n
    for n in range(2, 13):
        coeffs = a_coefficients(n)
        assert sum(coeffs) == 1, n
        odd = sum(c for k, c in enumerate(coeffs, start=1) if k % 2 == 1)
        assert odd == F(1, 2), n
    neg = 0
    for p in _multi_indices(5):
        for q in _multi_indices(5):
            if p.deg != q.deg:
                continue
            neg += sum(1 for c in gaussian_x_moment(p, q).to_map().values() if c < 0)
    assert neg == 0
    _verdict(4, True, "pmf recursion n<=10, coefficient sums n<=12, positivity deg<=5")


def test_criterion_05_multiplicity_free_specialization():
    for p in _multi_indices(5):
        if p.deg == 0:
            continue
        assert multiplicity_free_moment(p) == gaussian_x_moment(
            p, MultiIndex.delta(p.deg)
        ), p
    _verdict(5, True, "single-slot specialization matches the general engine, deg<=5")


def test_criterion_06_series_identity_at_rational_beta():
    t0 = time.perf_counter()
    betas = [F(1, 2), F(1), F(2)]
    N = 10**4
    cases = [(MultiIndex({n: 1}), MultiIndex({n: 1})) for n in range(1, 5)]
    cases += [
        (MultiIndex({1: 1, 2: 1}), MultiIndex({3: 1})),
        (MultiIndex({1: 2}), MultiIndex({2: 1})),
    ]
    for p, q in cases:
        rep = verify_cn_identity(p, q, betas, N)
        assert rep.passed, (p, q)
        for c in rep.checks:
            assert abs(c.difference) <= 10 * c.tail_estimate, (p, q, c.beta)
            assert isinstance(c.difference, Fraction)
    for b in betas:
        partial = alpha_x_moment(MultiIndex({1: 1}), MultiIndex({1: 1}), b, N).value
        assert partial == 1 / b - (1 / b) / (N * b + 1), b
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    _verdict(6, True, f"series identity within 10x tail for all cases ({elapsed:.1f}s)")


def test_criterion_07_graph_count_equals_tuple_count():
    checked = 0
    for d in range(1, 5):
        parts = [MultiIndex(dict(pt.items())) for pt in partitions(d)]
        pairs = [(p, q) for p in parts for q in parts]
        realized = {(p, q): tuple_counts_all_m(p, q, 6) for p, q in pairs}
        rng = np.random.default_rng(700 + d)
        for size in range(1, 2 * d + 1):
            for combo in itertools.combinations_with_replacement(range(7), size):
                m = MultiplicityVector(Counter(combo))
                for p, q in pairs:
                    want = realized[(p, q)].get(m, 0)
                    assert c_via_graphs(p, q, m) == want, (p, q, m)
                    # The unpruned count must agree too; at d=4 checking it on
                    # every realized m plus a random slice keeps runtime sane.
                    if d < 4 or want or rng.random() < 0.02:
                        assert unpruned_count(p, q, m) == want, (p, q, m)
                    checked += 1

    p8 = MultiIndex({3: 1, 5: 1})
    q8 = MultiIndex({2: 2, 4: 1})
    m8 = MultiplicityVector({1: 1, 2: 1, 5: 2, 7: 2})
    spot = c_via_graphs(p8, q8, m8)
    assert spot == count_tuples(p8, q8, m8) == 1
    _verdict(7, True, f"graph and tuple counts agree on {checked} triples + degree-8 spot")


def test_criterion_08_jacobian_volume_identity():
    rng = np.random.default_rng(80)
    for _ in range(20):
        N = int(rng.integers(1, 5))
        a = rng.uniform(0.05, 0.7, N) * np.exp(2j * np.pi * rng.random(N))
        det, prod = jacobian_determinant(a)
        assert abs(det - prod) <= 1e-6 * abs(prod), a
    for N in (1, 2, 3):
        for _ in range(2):
            pairs = [
                (F(int(rng.integers(-3, 4)), 8), F(int(rng.integers(-3, 4)), 8))
                for _ in range(N)
            ]
            det, prod = jacobian_determinant_exact(pairs)
            assert det == prod, pairs
    _verdict(8, True, "|det J| = prod (1-|a_n|^2)^(n-1): 20 numeric + exact N<=3")


def test_criterion_09_szego_mass_identity():
    rng = np.random.default_rng(90)
    for _ in range(12):
        N = int(rng.integers(1, 5))
        a = rng.uniform(0.05, 0.5, N) * np.exp(2j * np.pi * rng.random(N))
        gap = szego_identity_gap(a, 200)
        assert gap <= 1e-8, (a, gap)
    _verdict(9, True, "log-series mass matches the coefficient product at order 200")


def test_criterion_10_measure_roundtrip():
    rng = np.random.default_rng(100)
    for _ in range(10):
        N = int(rng.integers(1, 7))
        a = rng.uniform(0.05, 0.6, N) * np.exp(2j * np.pi * rng.random(N))
        rec = verblunsky_from_moments(trig_moments(measure_density(a, 4096), N))
        assert np.abs(rec - a).max() <= 1e-9, a
    _verdict(10, True, "alpha -> density -> moments -> alpha to 1e-9 for N<=6")


def test_criterion_11_sampler_moments():
    samples = 10**5
    for beta in (0.5, 1.0):
        # first/second moments of the sampled variables themselves
        a = sample_alpha_batch(beta, 3, samples, seed=110)
        f = sample_f_batch(beta, 3, samples, seed=111)
        for n in (1, 2, 3):
            st = _stats(a[:, n - 1])
            assert abs(st.mean) <= 4 * st.stderr, ("alpha mean", beta, n)
            st = _stats(np.abs(a[:, n - 1]) ** 2)
            assert abs(st.mean - 1 / (n * beta + 1)) <= 4 * st.stderr, (beta, n)
            st = _stats(f[:, n])
            assert abs(st.mean) <= 4 * st.stderr, ("f mean", beta, n)
            st = _stats(np.abs(f[:, n]) ** 2)
            assert abs(st.mean - 1 / (n * beta)) <= 4 * st.stderr, (beta, n)
        # E(x_n x_n^*) from both samplers against the exact engines
        for side in ("gaussian", "alpha"):
            for n in (1, 2, 3):
                p = MultiIndex({n: 1})
                st = mc_x_moment(side, p, p, beta, 200, samples, seed=112)
                ref = mc_reference(side, p, p, beta, 200)
                assert abs(st.mean - ref) <= 4 * st.stderr, (side, beta, n)
    _verdict(11, True, "both samplers match exact moments within 4 stderr at 1e5")


def test_criterion_12_pushforward_experimental():
    target = 0.5
    study = []
    for modes, radius in [(64, 0.98), (128, 0.99), (256, 0.995)]:
        st = pushforward_experiment(1.0, modes, radius, 2000, 1, seed=120)[0]
        study.append((modes, radius, st))
    table = "; ".join(
        f"(modes={m}, r={r}): {s.mean:.4f}+-{s.stderr:.4f}" for m, r, s in study
    )
    final = study[-1][2]
    ok = abs(final.mean - target) <= 0.1 * target
    note = (
        f"pushforward doubling study toward E|alpha_1|^2 = 1/2 at beta=1: {table}; "
        f"final rung within 10%: {ok}"
    )
    warnings.warn(note)
    status = "PASS" if ok else "ATTENTION"
    print(f"criterion 12: {status} (EXPERIMENTAL) - {note}")
    # experimental criterion: the study must run and be reported, but its
    # outcome alone never fails the build
    assert len(study) == 3
    for _, _, st in study:
        assert st.count == 2000 and math.isfinite(st.stderr)
