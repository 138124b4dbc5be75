"""Kernel series and the exponential moment recurrence.

Every derived number here is checked against an independent oracle:
adaptive quadrature of the defining integral, or term-by-term summation
of the series at a different truncation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from duhamelcheb import (
    KernelSeries,
    heat_basis,
    homogeneous_v,
    kernel_K,
    kernel_K1,
    moment_integrals,
)
from duhamelcheb.kernels import SMALL_ARGUMENT, exp_sigma_moments


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


def test_exp_sigma_moments_against_quadrature():
    nus = np.array([0.5, 2.0, 40.0, 300.0])
    delta = 0.4
    J = exp_sigma_moments(nus, delta, 5)
    for i, nu in enumerate(nus):
        for s in range(6):
            oracle, _ = quad(
                lambda sig: np.exp(-nu * sig) * sig**s, 0.0, delta,
                epsabs=1e-14, epsrel=1e-13,
            )
            assert abs(J[i, s] - oracle) <= 1e-12 * (1.0 + abs(oracle))


def test_kernel_K_values(series):
    assert kernel_K(series, 10.0) < 1e-10
    assert kernel_K(series, 1.0) == pytest.approx(independent_K(1.0, 128), rel=1e-14)


def test_kernel_K_monotone(series):
    ts = (0.05, 0.1, 0.5, 1.0, 2.0)
    vals = [kernel_K(series, t) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(v > 0 for v in vals)


def test_kernel_K_rejects_nonpositive_time(series):
    with pytest.raises(ValueError):
        kernel_K(series, 0.0)
    with pytest.raises(ValueError):
        kernel_K1(series, -0.5, 0.5)
    with pytest.raises(ValueError):
        kernel_K(series, np.array([0.5, np.nan]))
    with pytest.raises(ValueError):
        kernel_K1(series, np.nan, 0.5)
    with pytest.raises(ValueError):
        kernel_K1(series, 0.5, np.nan)


def test_K1_boundary_trace_equals_K(series):
    for t in (0.1, 0.5, 1.0):
        assert abs(kernel_K1(series, t, 1.0) - kernel_K(series, t)) <= 1e-12


def test_K1_vanishes_at_origin(series):
    for t in (0.1, 0.7):
        assert kernel_K1(series, t, 0.0) == 0.0


def test_K1_truncation_stable_at_unit_time():
    a = kernel_K1(KernelSeries(heat_basis(50)), 1.0, 0.5)
    b = kernel_K1(KernelSeries(heat_basis(200)), 1.0, 0.5)
    assert abs(a - b) < 1e-20


def test_homogeneous_v_first_mode():
    basis = heat_basis(16)
    ks = KernelSeries(basis)
    u0 = np.zeros(16)
    u0[0] = 1.0
    got = homogeneous_v(ks, u0, 0.5, 1.0)
    assert got == pytest.approx(np.exp(-np.pi**2 / 4) * np.sin(np.pi / 4), rel=1e-14)


def test_homogeneous_v_at_time_zero_is_partial_sum():
    basis = heat_basis(12)
    ks = KernelSeries(basis)
    u0 = 1.0 / (1.0 + np.arange(12.0))
    x = 0.37
    assert homogeneous_v(ks, u0, x, 0.0) == pytest.approx(
        float(u0 @ basis.eigenfunctions(x)), abs=1e-15
    )


def test_homogeneous_v_second_mode_decay_rate():
    basis = heat_basis(8)
    ks = KernelSeries(basis)
    u0 = np.zeros(8)
    u0[1] = 1.0
    v1 = homogeneous_v(ks, u0, 0.3, 0.2)
    v2 = homogeneous_v(ks, u0, 0.3, 0.4)
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


@pytest.mark.parametrize(
    "t, first",
    [(0.0, "0.0"), (-1.0, "-1.0"), (np.array([[0.5, -2.0], [0.0, 1.0]]), "-2.0"), (np.array([0.5, np.nan]), "nan")],
    ids=["zero", "negative", "array", "nan"],
)
def test_kernels_name_the_first_offending_time(series, t, first):
    for name, call in (("K", lambda: kernel_K(series, t)), ("K1", lambda: kernel_K1(series, t, 0.5))):
        with pytest.raises(ValueError, match=rf"^kernel {name} needs t > 0 .*, got t={first}$"):
            call()
