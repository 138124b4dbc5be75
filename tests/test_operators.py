"""Eigenbasis data, operator calculus, and the lift."""

import re

import numpy as np
from numpy.polynomial import polynomial as P
import pytest
from scipy.integrate import quad

from duhamelcheb import build_reference_example, heat_basis, constant_family
from duhamelcheb.operators import (
    OperatorFamily,
    apply_exponential,
    lift_derivative_trace,
)


@pytest.fixture(scope="module")
def basis():
    return heat_basis(32)


@pytest.fixture(scope="module")
def family(basis):
    return constant_family(basis)


def test_heat_basis_closed_forms(basis):
    n = np.arange(1, 33)
    omega = 0.5 * np.pi * (2 * n - 1)
    assert np.allclose(basis.mu, omega**2, rtol=1e-15)
    assert np.array_equal(basis.boundary_trace, (-1.0) ** (n + 1))
    assert np.allclose(basis.lift_coeffs, 2.0 * (-1.0) ** (n + 1) / omega**2, rtol=1e-15)
    assert basis.omega == pytest.approx(np.pi**2 / 4, rel=1e-15)
    assert (np.diff(basis.mu) > 0).all()


def test_basis_rejects_empty():
    with pytest.raises(ValueError):
        heat_basis(0)


@pytest.mark.parametrize("M", [0, 2.5, True, "4"])
def test_basis_rejects_a_mode_count_that_is_not_a_positive_integer(M):
    """2.5 used to build 3 modes, True 1 mode, and build_reference_example
    with M = 2.5 failed with a TypeError inside numpy."""
    message = f"^mode count must be an integer >= 1, got {re.escape(repr(M))}$"
    with pytest.raises(ValueError, match=message):
        heat_basis(M)
    with pytest.raises(ValueError, match=message):
        build_reference_example(M=M)


def test_basis_accepts_a_numpy_integer_mode_count():
    basis = heat_basis(np.int64(8))
    assert basis.M == 8 and basis.mu.shape == (8,)


def test_lift_coefficients_match_quadrature(basis):
    """b_n against the projection integral 2 int_0^1 x sin(omega_n x) dx."""
    for n in range(1, 21):
        omega_n = 0.5 * np.pi * (2 * n - 1)
        val, _ = quad(lambda x, w=omega_n: x * np.sin(w * x), 0.0, 1.0, epsabs=1e-13)
        assert abs(basis.lift_coeffs[n - 1] - 2.0 * val) <= 1e-10


def test_lift_derivative_trace_exact(basis):
    # closed-form trace from the lift profile w(x) = y x, not the series
    for y in (-2.0, 0.0, 0.5, 3.0):
        assert lift_derivative_trace(basis, y) == y


def test_lift_series_converges_slowly_at_boundary():
    basis = heat_basis(200)
    y = 3.0
    partial = float((basis.lift_coeffs * y) @ basis.boundary_trace)
    exact = y * basis.lift_boundary_value
    assert abs(partial - exact) < 0.02
    assert abs(partial - exact) > 1e-6  # genuinely slow, so closed forms matter


def test_apply_exponential_identity_at_zero(family):
    v = np.linspace(1, 2, 32)
    assert np.array_equal(apply_exponential(family, 0.3, v, 0.0), v)


def test_apply_exponential_rejects_negative_lag(family):
    with pytest.raises(ValueError):
        apply_exponential(family, 0.0, np.ones(32), -0.1)


@pytest.mark.parametrize("lam", [np.nan, np.inf])
def test_apply_exponential_rejects_a_non_finite_duration(family, lam):
    """A NaN duration used to pass the ``< 0`` check and return NaN modes."""
    with pytest.raises(ValueError, match=f"duration lam, got {lam}$"):
        apply_exponential(family, 0.0, np.ones(32), lam)


def test_semigroup_property(family):
    """Composition equals the combined step, in operator norm.

    High modes sit at exponents of order mu_M * lam where exp itself is
    conditioned like |arg| * eps, so the law is asserted in the sup norm
    against ||v|| (the operators are contractions) plus a strict relative
    check on the well-conditioned first mode.
    """
    v = np.cos(np.arange(32.0))
    one = apply_exponential(family, 0.5, apply_exponential(family, 0.5, v, 0.3), 0.45)
    both = apply_exponential(family, 0.5, v, 0.75)
    assert np.abs(one - both).max() <= 1e-14 * np.abs(v).max()
    assert abs(one[0] - both[0]) <= 1e-14 * abs(both[0])


def test_exponential_first_mode_value(family):
    v = np.zeros(32)
    v[0] = 1.0
    out = apply_exponential(family, 0.0, v, 1.0)
    assert out[0] == pytest.approx(np.exp(-np.pi**2 / 4), rel=1e-15)
    assert np.array_equal(out[1:], np.zeros(31))


def test_exponential_decay_bound(family, basis):
    v = np.ones(32)
    for lam in (0.01, 0.3, 2.0):
        out = apply_exponential(family, 0.7, v, lam)
        assert np.abs(out).max() <= np.exp(-basis.omega * lam) * (1 + 1e-15)


def test_power_and_exponential_commute(family):
    v = np.sin(np.arange(1.0, 33.0))
    root = family.frozen_eigenvalues(0.4) ** 0.5
    a = root * apply_exponential(family, 0.4, v, 0.2)
    b = apply_exponential(family, 0.4, root * v, 0.2)
    assert np.abs(a - b).max() <= 1e-14 * np.abs(a).max()


def test_varying_family_frozen_eigenvalues(basis):
    fam = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([2.0]))
    assert np.allclose(fam.frozen_eigenvalues(0.0), basis.mu + 2.0, rtol=1e-15)
    assert np.allclose(fam.frozen_eigenvalues(1.0), 1.5 * basis.mu + 2.0, rtol=1e-15)
    assert not fam.is_constant
    assert constant_family(basis).is_constant


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["a_coeffs", "c_coeffs"])
def test_non_finite_operator_coefficients_are_rejected(basis, name, bad):
    """A NaN passed march's positivity check (NaN <= 0 is False) and ended
    in a NonFiniteStageError that blamed g, b and f; an infinity ended in
    a RuntimeWarning.  The family now refuses both, naming the array."""
    coeffs = {"a_coeffs": np.array([1.0, 0.5]), "c_coeffs": np.array([0.0, 0.3])}
    coeffs[name][1] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        OperatorFamily(basis=basis, **coeffs)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        OperatorFamily(basis=basis, **{name: coeffs[name].tolist()})


@pytest.mark.parametrize("bad", [2.0, [], [[1.0]]], ids=["scalar", "empty", "2-d"])
@pytest.mark.parametrize("name", ["a_coeffs", "c_coeffs"])
def test_coefficient_arrays_must_be_one_dimensional_and_non_empty(basis, name, bad):
    """A scalar used to fail in ``is_constant`` and an empty list in
    ``polyval``, both with an IndexError; a 2-d array was accepted, and
    a(0.5) returned an array.  The family now refuses all three, naming
    the array."""
    with pytest.raises(ValueError, match=f"^{name} must be a non-empty 1-d array"):
        OperatorFamily(basis=basis, **{name: bad})


def test_list_coefficients_are_kept_as_float_arrays(basis):
    """A list used to be kept as given, and ``is_constant`` then failed
    with an AttributeError ('list' object has no attribute 'any')."""
    fam = OperatorFamily(basis=basis, a_coeffs=[1, 0.5], c_coeffs=[2])
    assert fam.a_coeffs.dtype == fam.c_coeffs.dtype == np.float64
    assert not fam.is_constant
    assert np.array_equal(fam.frozen_eigenvalues(1.0), 1.5 * basis.mu + 2.0)


CGL_POINTS = np.cos(np.linspace(np.pi, 0.0, 17))
"""Clock coordinates of a slab: the degree-16 CGL points of [-1, 1]."""

EPS = np.finfo(float).eps


def slab_clock(family, t0, t1, r):
    """The clock of the slab [t0, t1] frozen at its midpoint: its clock
    length, the times of its clock coordinates ``r`` and C^ there."""
    half = 0.5 * (t1 - t0)
    mean, xi, log_scale = family.slab_clocks(np.array([t0 + half]), half, r)
    return 2.0 * half * mean[0], t0 + half * (xi[0] + 1.0), P.polyval(xi[0], log_scale[:, 0])


SLABS = [(0.0, 0.25), (0.4, 0.7), (2.0 / 3.0, 1.0), (12.0, 15.0), (40.0, 43.0)]
"""Slabs near t = 0 and far from it, where c(t_m) a / a(t_m) nearly cancels c."""


@pytest.mark.parametrize("t0, t1", SLABS)
def test_linear_clock_matches_its_closed_forms(basis, t0, t1):
    """a = 1 + t / 2 and c = 0.3 + 3 t frozen at the midpoint t_m:
    int a = s(t) = t + t^2 / 4, whose inverse is t = 2 s / (1 + sqrt(1 + s)),
    and C^(t) = int_{t0}^t (c - c(t_m) a / a(t_m)) = q (t - t0) + p (t^2 - t0^2)
    with q = 0.3 - c(t_m) / a(t_m) and p = 1.5 - c(t_m) / (4 a(t_m)).  The
    clock length, the times and C^ agree with them to a few ulps of s(t1),
    of t1, and of int |c| over the slab (near t_m the integrand of C^ is a
    small difference)."""
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.array([0.3, 3.0]))
    s = lambda t: t + 0.25 * t**2
    t_m = 0.5 * (t0 + t1)
    a_m, c_m = family.a(t_m), family.c(t_m)
    length, t, log_scale = slab_clock(family, t0, t1, CGL_POINTS)
    assert abs(length * a_m - (s(t1) - s(t0))) <= 4 * EPS * s(t1)
    clock = s(t0) + 0.5 * length * a_m * (CGL_POINTS + 1.0)
    assert np.abs(t - 2.0 * clock / (1.0 + np.sqrt(1.0 + clock))).max() <= 4 * EPS * t1
    assert (t[0], t[-1]) == (t0, t1)
    want = (0.3 - c_m / a_m) * (t - t0) + (1.5 - 0.25 * c_m / a_m) * (t**2 - t0**2)
    assert log_scale[0] == 0.0
    assert np.abs(log_scale - want).max() <= 4 * EPS * family.c(t1) * (t1 - t0)


@pytest.mark.parametrize("t0, t1", SLABS)
def test_the_clock_of_a_constant_a_is_the_identity_under_a_drifting_c(basis, t0, t1):
    """a = 1 and c = 0.3 + 3 t: rho = 1, so the Newton steps settle at
    once, with the mean exactly 1.0 and the clock coordinates back bit for
    bit, and C^(t) = (0.3 - c(t_m)) (t - t0) + 1.5 (t^2 - t0^2) to a few
    ulps of int |c| over the slab."""
    family = OperatorFamily(basis=basis, a_coeffs=np.array([1.0]), c_coeffs=np.array([0.3, 3.0]))
    half = 0.5 * (t1 - t0)
    mean, xi, _ = family.slab_clocks(np.array([t0 + half]), half, CGL_POINTS)
    assert mean.tolist() == [1.0]
    assert xi.tobytes() == CGL_POINTS.tobytes()
    _, t, log_scale = slab_clock(family, t0, t1, CGL_POINTS)
    want = (0.3 - family.c(t0 + half)) * (t - t0) + 1.5 * (t**2 - t0**2)
    assert log_scale[0] == 0.0
    assert np.abs(log_scale - want).max() <= 4 * EPS * family.c(t1) * (t1 - t0)


@pytest.mark.parametrize("t0, t1", SLABS[:3])
def test_quadratic_clock_matches_its_closed_form(basis, t0, t1):
    """a = 2 (1 + t / 4 + t^2) and c = 0: int a = 2 s(t) with
    s(t) = t + t^2 / 8 + t^3 / 3; the times of the slab's clock coordinates
    put s at (r + 1) / 2 of the way from s(t0) to s(t1) to a few ulps of
    s(t1), and C^ is zero."""
    family = OperatorFamily(basis=basis, a_coeffs=np.array([2.0, 0.5, 2.0]))
    s = lambda t: t + t**2 / 8.0 + t**3 / 3.0
    length, t, log_scale = slab_clock(family, t0, t1, CGL_POINTS)
    a_m = family.a(0.5 * (t0 + t1))
    assert abs(length * a_m - 2.0 * (s(t1) - s(t0))) <= 8 * EPS * s(t1)
    clock = s(t0) + 0.5 * (s(t1) - s(t0)) * (CGL_POINTS + 1.0)
    assert np.abs(s(t) - clock).max() <= 4 * EPS * s(t1)
    assert (np.diff(t) > 0).all()
    assert (log_scale == 0.0).all()


@pytest.mark.parametrize("K", [1, 3, 7, 32])
def test_the_clock_of_a_constant_family_is_the_identity(basis, K):
    """rho = 1 and C^ = 0 exactly: on every slab of K the mean of rho is
    1.0, the clock coordinates come back bit for bit, with no Newton step,
    and C^ has only zero coefficients, also when the family's coefficients
    carry zeros past degree 0."""
    padded = OperatorFamily(basis, np.array([3.0, 0.0]), np.array([0.2, 0.0, 0.0]))
    for family in (constant_family(basis, a=2.5, c=0.7), padded):
        tau = 1.0 / K
        mean, xi, log_scale = family.slab_clocks(0.5 * tau * np.arange(1, 2 * K, 2), 0.5 * tau, CGL_POINTS)
        assert (mean == 1.0).all()
        assert xi.tobytes() == np.tile(CGL_POINTS, K).tobytes()
        assert (log_scale == 0.0).all()


@pytest.mark.parametrize(
    "a_coeffs, T, where",
    [
        ([4651.0, -30500.0, 5e4], 1.0, "0.3027639320"),  # a dip between t = 0, 1/2 and 1
        ([1.0, -4.0, 4.0], 1.0, "0.4999999"),  # a double root, a = (1 - 2 t)^2
        ([-1.0, 3.0], 1.0, "0.0"),
        ([0.0], 2.0, "0.0"),
        ([1.0, -1.0], 1.0, "1.0"),
    ],
    ids=["dip", "double-root", "negative-start", "zero", "root-at-T"],
)
def test_a_not_positive_on_the_horizon_is_named(basis, a_coeffs, T, where):
    family = OperatorFamily(basis=basis, a_coeffs=np.array(a_coeffs))
    message = rf"^operator coefficient a\(t\) must be positive on \[0, T={T}\], but a\({where}"
    with pytest.raises(ValueError, match=message):
        family.require_positive_a(T)


def test_a_positive_on_the_horizon_passes(basis):
    """Roots past T, before 0 or off the real axis do not count."""
    for a_coeffs, T in (([1.0, -1.0], 0.99), ([1.0, 1.0], 1.0), ([1.0, 0.0, 1.0], 5.0), ([2.0], 1.0)):
        OperatorFamily(basis=basis, a_coeffs=np.array(a_coeffs)).require_positive_a(T)
