"""Tests for the weighted-space structure: norms, inner products, kernels."""

import inspect
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest

from cswcd.bergman import (
    KernelNorm,
    SpaceParams,
    beta_sq_vector,
    inner_product,
    kernel,
    kernel_norm_sq,
    t_constant,
)
from cswcd.errors import DomainError, TruncationMismatchError
from cswcd.series import (
    TruncatedSeries,
    expand_rational_kernel,
    monomial,
    polynomial,
    series_scale,
)
from reproducing_reference import reproducing_check


GRID_POINTS = (0.0, 0.3j, -0.6, 0.85, 0.85 * np.exp(1.3j), 0.95)


def hypergeometric_norm_sq(w, m, alpha):
    """||kernel(w, m)||^2 = m! Gamma(m+alpha+2)/Gamma(alpha+2)
    2F1(m+1, m+alpha+2; 1; |w|^2), in mpmath at the caller's precision."""
    scale = mpmath.factorial(m) * mpmath.gamma(m + alpha + 2) / mpmath.gamma(alpha + 2)
    return scale * mpmath.hyp2f1(m + 1, m + alpha + 2, 1, abs(w) ** 2)


def gamma_oracle(j, alpha):
    """beta(j)^2 from the Gamma-function formula directly."""
    return math.factorial(j) * math.gamma(alpha + 2) / math.gamma(j + alpha + 2)


class TestBetaSq:
    def test_unit_constant(self):
        for alpha in (-0.5, 0.0, 1.0, 3.7):
            assert beta_sq_vector(0, alpha)[0] == 1.0

    def test_alpha_zero(self):
        assert beta_sq_vector(3, 0.0)[3] == pytest.approx(0.25)
        assert beta_sq_vector(3, 0.0)[3] == pytest.approx(gamma_oracle(3, 0.0))

    def test_alpha_one(self):
        assert beta_sq_vector(2, 1.0)[2] == pytest.approx(1.0 / 6.0)
        assert beta_sq_vector(2, 1.0)[2] == pytest.approx(gamma_oracle(2, 1.0))

    def test_matches_gamma_oracle(self):
        for alpha in (-0.5, 0.0, 1.0, 2.3):
            vec = beta_sq_vector(30, alpha)
            for j in range(31):
                assert vec[j] == pytest.approx(gamma_oracle(j, alpha), rel=1e-12)

    def test_strictly_decreasing(self):
        for alpha in (-0.9, 0.0, 2.0):
            vec = beta_sq_vector(50, alpha)
            assert np.all(np.diff(vec) < 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_sq_vector(2, -1.0)

    def test_cached_table_matches_uncached_loop(self):
        for N, alpha in ((0, 0.5), (96, 0.5), (431, -0.5), (64, 2.3)):
            loop = np.empty(N + 1)
            loop[0] = 1.0
            for j in range(1, N + 1):
                loop[j] = loop[j - 1] * j / (j + alpha + 1)
            for _ in range(2):      # the first call fills the cache, the second reads it
                assert beta_sq_vector(N, alpha).tobytes() == loop.tobytes()

    def test_shared_table_is_read_only(self):
        vec = beta_sq_vector(12, 0.7)
        with pytest.raises(ValueError):
            vec[3] = 0.0
        assert beta_sq_vector(12, 0.7)[3] == pytest.approx(gamma_oracle(3, 0.7), rel=1e-14)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        alpha, N = 0.7, 12
        broot = np.sqrt(beta_sq_vector(N, alpha))
        for j in (0, 3, 7):
            for k in (0, 3, 7):
                ej = monomial(j, N, 1.0 / broot[j])
                ek = monomial(k, N, 1.0 / broot[k])
                ip = inner_product(ej, ek, alpha)
                assert ip == pytest.approx(1.0 if j == k else 0.0, abs=1e-14)

    def test_positive(self):
        rng = np.random.default_rng(21)
        f = TruncatedSeries(rng.normal(size=9) + 1j * rng.normal(size=9))
        ip = inner_product(f, f, 0.3)
        assert ip.imag == pytest.approx(0.0, abs=1e-15)
        assert ip.real >= 0

    def test_z_with_itself(self):
        assert inner_product(monomial(1, 4), monomial(1, 4), 0.0) == pytest.approx(0.5)

    def test_mismatch(self):
        with pytest.raises(TruncationMismatchError):
            inner_product(monomial(0, 3), monomial(0, 4), 0.0)


class TestKernel:
    def test_at_origin_order_zero(self):
        k = kernel(0.0, 0, 1.3, 8)
        assert np.array_equal(k.coeffs, monomial(0, 8).coeffs)

    def test_coefficient_formula(self):
        # oracle: coefficient j is conj(w)^j / beta(j)^2; alpha = 0 gives (j+1) 0.5^j
        k = kernel(0.5, 0, 0.0, 10)
        for j in range(11):
            assert k.coeffs[j] == pytest.approx((j + 1) * 0.5**j)
        assert k.coeffs[2] == pytest.approx(0.75)

    def test_at_origin_higher_order(self):
        alpha, n, N = 0.4, 3, 10
        k = kernel(0.0, n, alpha, N)
        expect = monomial(n, N, math.factorial(n) / beta_sq_vector(n, alpha)[n])
        assert np.allclose(k.coeffs, expect.coeffs)

    def test_matches_rational_closed_form(self):
        # t_m z^m (1 - conj(w) z)^(-(m+alpha+2)) coefficientwise to 1e-12 relative
        for alpha in (-0.5, 0.0, 1.0):
            for m in (0, 1, 2):
                w = 0.4 - 0.3j
                N = 32
                k = kernel(w, m, alpha, N)
                expanded = expand_rational_kernel(m + alpha + 2, np.conj(w), N)
                closed = np.zeros(N + 1, dtype=complex)
                closed[m:] = t_constant(alpha, m) * expanded.coeffs[: N + 1 - m]
                assert np.allclose(k.coeffs, closed, rtol=1e-12, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel(1.0, 0, 0.0, 4)


class TestReproducingCheck:
    def test_polynomials_reproduce(self):
        rng = np.random.default_rng(22)
        N = 64
        for _ in range(10):
            deg = rng.integers(0, 20)
            f = polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1), N)
            w = 0.7 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            m = int(rng.integers(0, 4))
            assert reproducing_check(f, w, m, 0.5) <= 1e-10

    def test_kernel_against_closed_form(self):
        # <K_v, K_w> should reproduce K_v(w) = (1 - conj(v) w)^(-(alpha+2))
        alpha, N = 0.0, 96
        v, w = 0.4 + 0.2j, -0.3 + 0.25j
        kv = kernel(v, 0, alpha, N)
        ip = inner_product(kv, kernel(w, 0, alpha, N), alpha)
        closed = (1 - np.conj(v) * w) ** (-(alpha + 2))
        assert abs(ip - closed) <= 1e-10

    def test_first_derivative_of_square(self):
        f = polynomial([0, 0, 1], 16)
        w = 0.35 + 0.1j
        assert reproducing_check(f, w, 1, 0.0) <= 1e-12


class TestKernelNormSq:
    def test_origin(self):
        out = kernel_norm_sq(0.0, 0, 0.8)
        assert out.value == 1.0

    def test_origin_first_order(self):
        # single surviving term (1!)^2 / beta(1)^2 = 2 at alpha = 0
        out = kernel_norm_sq(0.0, 1, 0.0)
        assert out.value == pytest.approx(2.0)

    def test_closed_form_alpha_zero(self):
        # sum (j+1) x^j = (1-x)^(-2)
        for w in (0.5, 0.3j, -0.55):
            out = kernel_norm_sq(w, 0, 0.0)
            assert out.value == pytest.approx(1.0 / (1.0 - abs(w) ** 2) ** 2, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            kernel_norm_sq(1.0, 0, 0.0)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.0])
    def test_mpmath_hypergeometric_oracle(self, alpha):
        # each of the m + 1 terms may round
        with mpmath.workdps(40):
            for m in range(4):
                for w in (0.0, 0.3j, -0.6, 0.85, 0.85 * np.exp(1.3j)):
                    got = kernel_norm_sq(w, m, alpha)
                    ref = hypergeometric_norm_sq(w, m, alpha)
                    err = abs(mpmath.mpf(got.value) - ref)
                    assert err <= 1e-12 + got.terms * 2.2e-16 * ref, (m, w)

    @pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 0.5, 2.0, 10.0, 50.0, 100.0, 400.0])
    def test_finite_sum_on_the_hypergeometric_grid(self, alpha):
        # m 0..5 at six points: a relative 1e-13 wherever the norm is finite,
        # and inf exactly where the oracle leaves the double range
        with mpmath.workdps(40):
            for m in range(6):
                for w in GRID_POINTS:
                    got = kernel_norm_sq(w, m, alpha)
                    ref = hypergeometric_norm_sq(w, m, alpha)
                    assert got.terms == m + 1
                    if ref > sys.float_info.max:
                        assert got.value == math.inf, (m, w)
                    else:
                        assert abs(mpmath.mpf(got.value) - ref) <= 1e-13 * ref, (m, w)

    def test_overflow_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [kernel_norm_sq(0.95, m, 400.0).value for m in range(6)]
        assert values == [math.inf] * 6

    def test_fields_and_parameters(self):
        assert KernelNorm._fields == ("value", "terms")
        assert list(inspect.signature(kernel_norm_sq).parameters) == ["w", "m", "alpha"]


class TestTConstant:
    def test_values(self):
        assert t_constant(0.0, 1) == pytest.approx(2.0)
        assert t_constant(0.0, 2) == pytest.approx(6.0)
        assert t_constant(0.5, 2) == pytest.approx(8.75)

    def test_empty_product(self):
        assert t_constant(1.7, 0) == 1.0


class TestParseval:
    def test_kernel_self_inner_product(self):
        # truncated <K_w, K_w> matches the closed-form norm; the kernel's
        # own tail beyond N 96 is below 1e-10
        alpha, N = -0.5, 96
        for w in (0.3, 0.5j, -0.6):
            kw = kernel(w, 0, alpha, N)
            ip = inner_product(kw, kw, alpha).real
            norm = kernel_norm_sq(w, 0, alpha)
            assert abs(ip - norm.value) <= 1e-10


class TestSpaceParams:
    def test_validates(self):
        SpaceParams(0.0, 1, 64)
        with pytest.raises(DomainError):
            SpaceParams(-1.0, 1, 64)
        with pytest.raises(DomainError):
            SpaceParams(0.0, 0, 64)
        with pytest.raises(DomainError):
            SpaceParams(0.0, 3, 4)
