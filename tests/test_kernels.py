"""Kernel series and the exponential moment recurrence.

Every derived number here is checked against an independent oracle:
adaptive quadrature of the defining integral, or term-by-term summation
of the series at a different truncation.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from duhamelcheb import (
    KernelSeries,
    heat_basis,
    homogeneous_v,
    moment_integrals,
)
from duhamelcheb.kernels import SMALL_ARGUMENT, exp_integral, exp_sigma_moments


def moment_quadrature(mu: float, lo: float, hi: float, s: int) -> float:
    """Oracle: int_lo^hi e^{-mu (hi - lam)} lam^s dlam by adaptive quadrature."""
    val, err = quad(
        lambda lam: np.exp(-mu * (hi - lam)) * lam**s,
        lo,
        hi,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    return val


def independent_K(t: float, modes: int) -> float:
    """Oracle: direct loop over the series definition, no shared code."""
    total = 0.0
    for n in range(1, modes + 1):
        total += 2.0 * np.exp(-((np.pi * (2 * n - 1) / 2) ** 2) * t)
    return total


@pytest.fixture(scope="module")
def series():
    return KernelSeries(heat_basis(128))


def test_moment_i0_unit_case():
    table = moment_integrals(1.0, 0.0, 1.0, 0)
    assert table.value(0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)


def test_moment_small_mu_limit():
    table = moment_integrals(1e-8, 0.0, 1.0, 0)
    assert table.value(0) == pytest.approx(1.0, rel=1e-7)


def test_moment_i3_against_quadrature():
    mu = np.pi**2 / 4
    table = moment_integrals(mu, 0.25, 0.75, 3)
    assert abs(table.value(3) - moment_quadrature(mu, 0.25, 0.75, 3)) <= 1e-11


@pytest.mark.parametrize(
    "args, name",
    [
        ((np.nan, 0.0, 1.0, 2), "mu"),
        ((np.inf, 0.0, 1.0, 2), "mu"),
        ((1.0, np.nan, 1.0, 2), "lo, hi"),
        ((1.0, 0.0, np.nan, 2), "lo, hi"),
        ((1.0, 0.0, np.inf, 2), "lo, hi"),
        ((1.0, 0.0, 1.0, -1), "s_max"),
        ((1.0, 0.0, 1.0, 2.0), "s_max"),
    ],
    ids=["mu-nan", "mu-inf", "lo-nan", "hi-nan", "hi-inf", "s_max-negative", "s_max-float"],
)
def test_moment_integrals_name_a_bad_argument(args, name):
    """NaN rates and endpoints used to pass the ``< 0`` checks and return NaN
    tables; a negative s_max raised a bare IndexError."""
    with pytest.raises(ValueError, match=f"^[a-z ]*{name} must be"):
        moment_integrals(*args)


@pytest.mark.parametrize(
    "nu, delta, s_max, name",
    [
        (np.ones(2), np.nan, 2, "delta"),
        (np.ones(2), np.inf, 2, "delta"),
        (np.array([np.nan]), 1.0, 2, "nu"),
        (np.array([1.0, np.inf]), 1.0, 2, "nu"),
        (np.ones(2), 1.0, -1, "s_max"),
    ],
    ids=["delta-nan", "delta-inf", "nu-nan", "nu-inf", "s_max-negative"],
)
def test_exp_sigma_moments_name_a_bad_argument(nu, delta, s_max, name):
    with pytest.raises(ValueError, match=f"^[a-z ]*{name} must be"):
        exp_sigma_moments(nu, delta, s_max)


def test_moment_rejects_bad_inputs():
    with pytest.raises(ValueError):
        moment_integrals(-1.0, 0.0, 1.0, 2)
    with pytest.raises(ValueError):
        moment_integrals(1.0, 1.0, 0.5, 2)


def test_moments_nonnegative_on_positive_interval():
    table = moment_integrals(3.7, 0.1, 0.9, 6)
    assert (table.values >= 0).all()


@settings(max_examples=40)
@given(
    mu=st.floats(1e-4, 1e4),
    lo=st.floats(0.0, 2.0),
    width=st.floats(1e-3, 2.0),
    s=st.integers(min_value=0, max_value=6),
)
def test_moment_recurrence_matches_quadrature(mu, lo, width, s):
    hi = lo + width
    table = moment_integrals(mu, lo, hi, s)
    oracle = moment_quadrature(mu, lo, hi, s)
    assert abs(table.value(s) - oracle) <= 1e-10 * (1.0 + abs(oracle))


def test_taylor_and_analytic_branches_agree_at_crossover():
    """Both I_0 formulas evaluated on either side of the switch."""
    delta = 1.0
    for m in (SMALL_ARGUMENT / 2, SMALL_ARGUMENT, 2 * SMALL_ARGUMENT):
        nu = m / delta
        analytic = -np.expm1(-m) / nu
        taylor = delta * (1.0 - m / 2.0 + m**2 / 6.0 - m**3 / 24.0)
        assert abs(analytic - taylor) <= 1e-12 * abs(analytic)
        got = exp_sigma_moments(np.array([nu]), delta, 0)[0, 0]
        assert got == pytest.approx(analytic, rel=1e-12)


@pytest.mark.parametrize("nu", [1e200, 1e300])
def test_huge_rates_take_the_analytic_branch_without_overflow(nu):
    """At m = nu delta far above 5.6e102, m**3 would overflow; the series
    branches are evaluated at m = 0 there, so no RuntimeWarning is raised
    and J_i = i! / nu^(i+1) is returned: 1 / nu, then zero by underflow."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        J0 = exp_integral(np.array([nu]), 1.0)
        J = exp_sigma_moments(np.array([nu]), 1.0, 3)
    assert J0.tolist() == [1.0 / nu]
    assert J.tolist() == [[1.0 / nu, 0.0, 0.0, 0.0]]


def test_exp_sigma_moments_against_quadrature():
    """Every moment up to s_max = 11 within 1e-13 relative: against
    adaptive quadrature for moderate rates and on both sides of
    SMALL_ARGUMENT, against the limit delta^(i+1) / (i+1) at nu = 0 and
    nu = 1e-300, and against i! / nu^(i+1) at m = nu delta = 2e4."""
    delta, s_max = 0.4, 11
    i = np.arange(s_max + 1)
    m_small = [SMALL_ARGUMENT * (1.0 - 1e-9), SMALL_ARGUMENT * (1.0 + 1e-9)]
    nus = np.array([0.5, 2.0, 40.0, 300.0] + [m / delta for m in m_small])
    J = exp_sigma_moments(nus, delta, s_max)
    for row, nu in zip(J, nus):
        for s in i:
            oracle, _ = quad(
                lambda sig: np.exp(-nu * sig) * sig**s, 0.0, delta,
                epsabs=0.0, epsrel=2e-14, limit=200,
            )
            assert abs(row[s] - oracle) <= 1e-13 * oracle, (nu, s)
    limits = [
        (0.0, delta ** (i + 1) / (i + 1)),
        (1e-300, delta ** (i + 1) / (i + 1)),
        (2e4 / delta, np.array([math.factorial(s) for s in i]) / (2e4 / delta) ** (i + 1)),
    ]
    for nu, limit in limits:
        row = exp_sigma_moments(np.array([nu]), delta, s_max)[0]
        assert (np.abs(row - limit) <= 1e-13 * limit).all(), nu


def test_kernel_K_values(series):
    assert series.K(10.0) < 1e-10
    assert series.K(1.0) == pytest.approx(independent_K(1.0, 128), rel=1e-14)


def test_kernel_K_monotone(series):
    ts = (0.05, 0.1, 0.5, 1.0, 2.0)
    vals = [series.K(t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_kernel_K_rejects_nonpositive_time(series):
    with pytest.raises(ValueError):
        series.K(0.0)
    with pytest.raises(ValueError):
        series.K1(-0.5, 0.5)
    with pytest.raises(ValueError):
        series.K(np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        series.K1(np.nan, 0.5)
    with pytest.raises(ValueError):
        series.K1(0.5, np.nan)


def test_K1_boundary_trace_equals_K(series):
    for t in (0.1, 0.5, 1.0):
        assert abs(series.K1(t, 1.0) - series.K(t)) <= 1e-12


def test_K1_vanishes_at_origin(series):
    for t in (0.1, 0.7):
        assert series.K1(t, 0.0) == 0.0


def test_K1_truncation_stable_at_unit_time():
    a = KernelSeries(heat_basis(50)).K1(1.0, 0.5)
    b = KernelSeries(heat_basis(200)).K1(1.0, 0.5)
    assert abs(a - b) < 1e-20


def test_homogeneous_v_first_mode():
    basis = heat_basis(16)
    u0 = np.zeros(16)
    u0[0] = 1.0
    got = homogeneous_v(basis, u0, 0.5, 1.0)
    assert got == pytest.approx(np.exp(-np.pi**2 / 4) * np.sin(np.pi / 4), rel=1e-14)


def test_homogeneous_v_at_time_zero_is_partial_sum():
    basis = heat_basis(12)
    u0 = 1.0 / (1.0 + np.arange(12.0))
    x = 0.37
    assert homogeneous_v(basis, u0, x, 0.0) == pytest.approx(
        float(u0 @ basis.eigenfunctions(x)), abs=1e-15
    )


def test_homogeneous_v_second_mode_decay_rate():
    basis = heat_basis(8)
    u0 = np.zeros(8)
    u0[1] = 1.0
    v1 = homogeneous_v(basis, u0, 0.3, 0.2)
    v2 = homogeneous_v(basis, u0, 0.3, 0.4)
    assert v2 / v1 == pytest.approx(np.exp(-9 * np.pi**2 / 4 * 0.2), rel=1e-12)


def test_integrated_tail_controls_truncation():
    """Partial sums of the integrated kernel differ by less than the
    1/mu tail bound actually used for truncation control."""
    lo, hi = 0.0, 0.5
    sums = {}
    for M in (64, 128):
        basis = heat_basis(M)
        sums[M] = sum(
            2.0 * moment_integrals(float(mu), lo, hi, 0).value(0) for mu in basis.mu
        )
    tail = heat_basis(64).inv_mu_tail(64) * 2.0
    assert abs(sums[128] - sums[64]) < tail


def test_truncation_report_fields(series):
    rep = series.truncation_report(delta=0.1)
    assert rep["modes"] == 128
    assert rep["integrated_tail"] > 0
    assert rep["off_coincidence_tail"] < rep["integrated_tail"]


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan], ids=repr)
def test_off_coincidence_tail_rejects_a_delta_that_is_not_positive(series, delta):
    """A NaN delta used to pass the ``<= 0`` check, and the report read
    ``off_coincidence_tail: nan``."""
    for call in (lambda: series.off_coincidence_tail(delta), lambda: series.truncation_report(delta=delta)):
        with pytest.raises(ValueError, match=rf"^off-coincidence bound needs delta > 0, got {delta}$"):
            call()


@pytest.mark.parametrize(
    "t, first",
    [(0.0, "0.0"), (-1.0, "-1.0"), (np.array([[0.5, -2.0], [0.0, 1.0]]), "-2.0"), (np.array([0.5, np.nan]), "nan")],
    ids=["zero", "negative", "array", "nan"],
)
def test_kernels_name_the_first_offending_time(series, t, first):
    for name, call in (("K", lambda: series.K(t)), ("K1", lambda: series.K1(t, 0.5))):
        with pytest.raises(ValueError, match=rf"^kernel {name} needs t > 0 .*, got t={first}$"):
            call()
