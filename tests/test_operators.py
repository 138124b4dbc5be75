"""Eigenbasis data, operator calculus, and the lift."""

import re

import numpy as np
import pytest
from scipy.integrate import quad

from duhamelcheb import build_reference_example, heat_basis, constant_family, verify_assumptions
from duhamelcheb.operators import (
    OperatorFamily,
    apply_exponential,
    lift,
    lift_derivative_trace,
    project_initial,
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


def test_lift_of_zero_is_zero(basis):
    assert np.array_equal(lift(basis, 0.0), np.zeros(32))


def test_lift_derivative_trace_exact(basis):
    # closed-form trace from the lift profile w(x) = y x, not the series
    for y in (-2.0, 0.0, 0.5, 3.0):
        assert lift_derivative_trace(basis, y) == y


def test_lift_series_converges_slowly_at_boundary():
    basis = heat_basis(200)
    y = 3.0
    partial = float(lift(basis, y) @ basis.boundary_trace)
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


def test_project_initial_recovers_first_eigenfunction(basis):
    coeffs = project_initial(basis, lambda x: np.sin(np.pi * x / 2))
    assert coeffs[0] == pytest.approx(1.0, abs=1e-11)
    assert np.abs(coeffs[1:]).max() <= 1e-10


def test_verify_assumptions_constant(family):
    rep = verify_assumptions(family, T=1.0, b=lambda t: np.exp(-np.pi**2 * t / 2))
    assert rep.omega == pytest.approx(np.pi**2 / 4, rel=1e-14)
    assert rep.positive
    assert rep.max_boundary_multiplier == pytest.approx(1.0, rel=1e-14)
    assert rep.holder_ratio == 0.0


def test_verify_assumptions_varying(basis):
    fam = OperatorFamily(basis=basis, a_coeffs=np.array([1.0, 0.5]), c_coeffs=np.zeros(1))
    rep = verify_assumptions(fam, T=1.0)
    assert rep.positive
    # |(a(t)-a(s)) mu / (a(t) mu)| / |t-s| = 0.5 / a(t) <= 0.5
    assert 0.0 < rep.holder_ratio <= 0.5 + 1e-12
