"""Tests for truncated series arithmetic."""

import math

import numpy as np
import pytest

from cswcd.errors import DomainError, TruncationMismatchError
from cswcd.series import (
    TruncatedSeries,
    binomial_series,
    expand_rational_kernel,
    monomial,
    one_series,
    polynomial,
    series_add,
    series_conjugate_reflect,
    series_eval,
    series_mul,
    series_power,
    series_scale,
)
from reproducing_reference import series_derivative


def rand_series(rng, N):
    return TruncatedSeries(rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1))


def zeros(N):
    return TruncatedSeries(np.zeros(N + 1, dtype=complex))


def tail_bound(f, z):
    """Geometric bound max|c_j| |z|^(N+1) / (1 - |z|) on the truncation error
    of f at z, valid when the dropped coefficients are bounded by max|c_j|."""
    return float(np.max(np.abs(f.coeffs))) * abs(z) ** (f.order + 1) / (1.0 - abs(z))


class TestAdd:
    def test_linearity(self):
        f = polynomial([1, 0, 0], 2)
        g = polynomial([0, 1, 0], 2)
        assert np.array_equal(series_add(f, g).coeffs, [1, 1, 0])

    def test_identity(self):
        rng = np.random.default_rng(7)
        f = rand_series(rng, 10)
        assert np.array_equal(series_add(f, zeros(10)).coeffs, f.coeffs)

    def test_arithmetic(self):
        out = series_add(polynomial([1, 2], 1), polynomial([3, -2], 1))
        assert np.array_equal(out.coeffs, [4, 0])

    def test_mismatched_orders(self):
        with pytest.raises(TruncationMismatchError):
            series_add(zeros(3), zeros(4))


class TestMul:
    def test_square_of_one_plus_z(self):
        f = polynomial([1, 1], 3)
        assert np.array_equal(series_mul(f, f).coeffs, [1, 2, 1, 0])

    def test_identity(self):
        rng = np.random.default_rng(8)
        f = rand_series(rng, 12)
        assert np.array_equal(series_mul(f, one_series(12)).coeffs, f.coeffs)

    def test_monomials(self):
        z = monomial(1, 3)
        assert np.array_equal(series_mul(z, z).coeffs, [0, 0, 1, 0])

    def test_commutative(self):
        rng = np.random.default_rng(9)
        f, g = rand_series(rng, 20), rand_series(rng, 20)
        fg, gf = series_mul(f, g), series_mul(g, f)
        assert np.allclose(fg.coeffs, gf.coeffs, rtol=1e-14, atol=1e-14)

    def test_associative(self):
        rng = np.random.default_rng(10)
        f, g, h = (rand_series(rng, 16) for _ in range(3))
        lhs = series_mul(series_mul(f, g), h)
        rhs = series_mul(f, series_mul(g, h))
        assert np.allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)

    def test_mismatched_orders(self):
        with pytest.raises(TruncationMismatchError):
            series_mul(zeros(3), zeros(5))


class TestDerivative:
    def test_z_squared(self):
        out = series_derivative(polynomial([0, 0, 1], 3), 1)
        assert np.array_equal(out.coeffs, [0, 2, 0, 0])

    def test_order_zero_is_identity(self):
        rng = np.random.default_rng(11)
        f = rand_series(rng, 9)
        assert series_derivative(f, 0) is f

    def test_second_derivative_of_cube(self):
        out = series_derivative(polynomial([0, 0, 0, 1], 3), 2)
        assert np.array_equal(out.coeffs, [0, 6, 0, 0])

    def test_coefficient_formula(self):
        # coefficient j of the k-th derivative is (j+k)!/j! c_{j+k}
        rng = np.random.default_rng(12)
        f = rand_series(rng, 15)
        k = 3
        out = series_derivative(f, k)
        for j in range(15 + 1 - k):
            expect = math.factorial(j + k) / math.factorial(j) * f.coeffs[j + k]
            assert out.coeffs[j] == pytest.approx(expect)


class TestEval:
    def test_geometric_series(self):
        # oracle: closed form 1/(1-z) at z = 0.5
        N = 64
        f = TruncatedSeries(np.ones(N + 1, dtype=complex))
        value = series_eval(f, 0.5)
        assert abs(value - 2.0) <= tail_bound(f, 0.5)

    def test_constant_term_at_zero(self):
        f = polynomial([3.5 - 1j, 2, 7], 4)
        assert series_eval(f, 0.0) == 3.5 - 1j

    def test_identity_map(self):
        z = 0.3 + 0.4j
        assert series_eval(polynomial([0, 1], 1), z) == pytest.approx(z)

    def test_refuses_near_boundary(self):
        with pytest.raises(DomainError):
            series_eval(one_series(4), 0.9999999)


class TestPower:
    def test_zeroth_power(self):
        rng = np.random.default_rng(13)
        f = rand_series(rng, 6)
        assert np.array_equal(series_power(f, 0).coeffs, one_series(6).coeffs)

    def test_monomial_power(self):
        out = series_power(monomial(1, 8), 5)
        assert np.array_equal(out.coeffs, monomial(5, 8).coeffs)

    def test_square_constant_term(self):
        # direct polynomial multiplication oracle on the automorphism at p = 1/2
        phi = polynomial([0.5, -0.75, -0.375], 4)
        direct = np.convolve(phi.coeffs, phi.coeffs)[:5]
        out = series_power(phi, 2)
        assert out.coeffs[0] == pytest.approx(0.25)
        assert np.allclose(out.coeffs, direct)


class TestExpandRationalKernel:
    def test_square_inverse(self):
        # oracle: term-by-term differentiation of the geometric series gives
        # coefficients (j+1) c^j for (1 - c z)^(-2)
        N, c = 12, 0.5
        geo = TruncatedSeries(np.array([c**j for j in range(N + 2)])[: N + 1])
        oracle = series_scale(series_derivative(geo, 1), 1.0)
        out = expand_rational_kernel(2.0, c, N)
        # derivative of sum c^j z^j is sum j c^j z^(j-1) = c * (1-cz)^(-2)
        assert np.allclose(out.coeffs[:-1], oracle.coeffs[:-1] / c)
        assert out.coeffs[2] == pytest.approx(0.75)

    def test_zero_parameter(self):
        out = expand_rational_kernel(3.0, 0.0, 5)
        assert np.array_equal(out.coeffs, one_series(5).coeffs)

    def test_geometric(self):
        out = expand_rational_kernel(1.0, 0.3, 6)
        assert out.coeffs[3] == pytest.approx(0.027)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expand_rational_kernel(2.0, 1.0, 4)
        with pytest.raises(DomainError):
            expand_rational_kernel(0.0, 0.5, 4)

    def test_matches_closed_form_inside_disk(self):
        # evaluation agrees with (1-cz)^(-s) within the geometric tail bound
        N = 64
        for s, c, z in [(2.5, 0.7, 0.6), (1.0, 0.5j, 0.7), (4.0, -0.6, 0.5 + 0.3j)]:
            f = expand_rational_kernel(s, c, N)
            closed = (1 - c * z) ** (-s)
            assert abs(series_eval(f, z) - closed) <= tail_bound(f, z) + 1e-14


class TestBinomialSeries:
    def test_positive_exponent_cancels_negative(self):
        # (1-cz)^t * (1-cz)^(-t) = 1, coefficientwise exact to truncation
        c, t, N = 0.4 - 0.2j, 2.7, 20
        prod = series_mul(binomial_series(t, c, N), binomial_series(-t, c, N))
        assert np.allclose(prod.coeffs, one_series(N).coeffs, atol=1e-14)


class TestConjugateReflect:
    def test_fixes_real_coefficients(self):
        f = polynomial([1.0, -2.0, 0.5], 4)
        assert np.array_equal(series_conjugate_reflect(f).coeffs, f.coeffs)

    def test_conjugates(self):
        out = series_conjugate_reflect(polynomial([1j, 0], 1))
        assert np.array_equal(out.coeffs, [-1j, 0])

    def test_involution_exact(self):
        rng = np.random.default_rng(14)
        f = rand_series(rng, 10)
        twice = series_conjugate_reflect(series_conjugate_reflect(f))
        assert np.array_equal(twice.coeffs, f.coeffs)

    def test_antilinear_on_scalars(self):
        rng = np.random.default_rng(15)
        f = rand_series(rng, 5)
        lhs = series_conjugate_reflect(series_scale(f, 1j))
        rhs = series_scale(series_conjugate_reflect(f), -1j)
        assert np.array_equal(lhs.coeffs, rhs.coeffs)


class TestChainRule:
    def test_derivative_of_power(self):
        # d/dz phi^k = k phi^(k-1) phi' on the first N-1 coefficients
        rng = np.random.default_rng(16)
        N, k = 24, 4
        phi = rand_series(rng, N)
        lhs = series_derivative(series_power(phi, k), 1)
        rhs = series_mul(
            series_scale(series_power(phi, k - 1), k), series_derivative(phi, 1)
        )
        assert np.allclose(lhs.coeffs[: N - 1], rhs.coeffs[: N - 1], rtol=1e-12, atol=1e-12)


class TestInvariants:
    def test_coeffs_immutable(self):
        f = one_series(3)
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            TruncatedSeries(np.array([np.nan + 0j]))
