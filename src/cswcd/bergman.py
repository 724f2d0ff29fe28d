"""Weighted Bergman space structure: monomial norms, inner products, kernels.

The space with weight alpha > -1 consists of analytic f(z) = sum c_j z^j on
the disk with sum |c_j|^2 beta(j)^2 finite, where

    beta(j)^2 = j! Gamma(alpha+2) / Gamma(j+alpha+2).

The point-evaluation kernels of derivative order m satisfy
<f, kernel(w, m)> = f^(m)(w); their coefficients come from the coefficient
formulas, and their squared norm is a finite sum of m + 1 terms
(``kernel_norm_sq``). The tests check that sum against an independent closed
form, evaluated in mpmath at 40 digits:

    ||kernel(w, m)||^2 = m! Gamma(m+alpha+2) / Gamma(alpha+2)
                         * 2F1(m+1, m+alpha+2; 1; |w|^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, TruncationMismatchError, format_magnitude
from .series import TruncatedSeries


@dataclass(frozen=True)
class SpaceParams:
    """Weight alpha > -1, differentiation order n >= 1, truncation order N.

    N >= n + 2 keeps every symbol family non-degenerate in the truncation.
    """

    alpha: float
    n: int
    N: int

    def __post_init__(self):
        if not self.alpha > -1:
            raise DomainError(f"alpha must exceed -1, got {self.alpha}")
        if self.n < 1:
            raise DomainError(f"order n must be >= 1, got {self.n}")
        if self.N < self.n + 2:
            raise DomainError(f"truncation N={self.N} must be >= n+2={self.n + 2}")


@lru_cache(maxsize=128)
def beta_sq_vector(N: int, alpha: float) -> np.ndarray:
    """beta(j)^2 for j = 0..N by the stable recurrence, read-only.

    beta(0)^2 = 1 and beta(j)^2 = beta(j-1)^2 * j / (j + alpha + 1); no Gamma
    ratios, so large j and non-integer alpha cannot overflow. One draw asks
    for the same few (N, alpha) tens of times, so the tables are cached and
    shared; the returned array cannot be written.
    """
    if not alpha > -1:
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    out = np.empty(N + 1)
    out[0] = 1.0
    for j in range(1, N + 1):
        out[j] = out[j - 1] * j / (j + alpha + 1)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=128)
def beta_root_vector(N: int, alpha: float) -> np.ndarray:
    """beta(j) = sqrt(beta(j)^2) for j = 0..N, read-only; cached with the
    squares, which the build, the kernel coordinates and the adjoint on
    kernels all scale by."""
    out = np.sqrt(beta_sq_vector(N, alpha))
    out.flags.writeable = False
    return out


def inner_product(f: TruncatedSeries, g: TruncatedSeries, alpha: float) -> complex:
    """sum_j c_j conj(d_j) beta(j)^2, truncated at the shared order."""
    if f.order != g.order:
        raise TruncationMismatchError(
            f"truncation orders differ: {f.order} vs {g.order}"
        )
    w = beta_sq_vector(f.order, alpha)
    return complex(np.sum(f.coeffs * np.conj(g.coeffs) * w))


def space_norm(f: TruncatedSeries, alpha: float) -> float:
    """Norm induced by the weighted inner product."""
    return float(np.sqrt(inner_product(f, f, alpha).real))


def falling_factorial(j, m: int):
    """j! / (j - m)!, elementwise for an integer array j, always in the
    product order (j - m + 1)(j - m + 2)...j; 1.0 when m is 0."""
    out = 1.0
    for i in range(1, m + 1):
        out = out * (j - m + i)
    return out


def kernel_table(points, m: int, alpha: float, N: int) -> np.ndarray:
    """Coefficients of the order-m kernels at ``points``, truncated at N, one
    row per point.

    Coefficient j is (j!/(j-m)!) conj(w)^(j-m) / beta(j)^2 for j >= m and 0
    below; this is the coefficient form of t_m z^m / (1 - conj(w) z)^(m+alpha+2).
    Every power is a complex integer power taken by ``np.power``, so a row does
    not depend on which other points share the table.
    """
    if m < 0:
        raise DomainError("derivative order m must be nonnegative")
    w = np.asarray(points, dtype=complex).reshape(-1)
    outside = np.abs(w) >= 1.0
    if outside.any():
        raise DomainError("kernel point must satisfy |w| < 1, "
                          f"got {format_magnitude(abs(w[outside][0]))}")
    falling, exponents = _kernel_exponents(m, N)
    out = np.zeros((w.size, N + 1), dtype=complex)
    out[:, m:] = (falling * np.power(np.conj(w)[:, None], exponents)
                  / beta_sq_vector(N, alpha)[m:])
    return out


@lru_cache(maxsize=32)
def _kernel_exponents(m: int, N: int) -> tuple:
    """j!/(j-m)! and j - m for j = m..N, both read-only: the factor and the
    power of conj(w) of each coefficient of ``kernel_table``, the same for
    every point and every draw at (m, N)."""
    j = np.arange(m, N + 1)
    # a 0-d array of 1.0 when m is 0, the empty product
    falling, exponents = np.asarray(falling_factorial(j, m)), j - m
    falling.flags.writeable = exponents.flags.writeable = False
    return falling, exponents


def kernel(w: complex, m: int, alpha: float, N: int) -> TruncatedSeries:
    """Point-evaluation kernel of derivative order m at w, truncated at N:
    the one row of ``kernel_table``."""
    return TruncatedSeries(kernel_table(w, m, alpha, N)[0])


class KernelNorm(NamedTuple):
    value: float
    terms: int


def kernel_norm_sq(w: complex, m: int, alpha: float) -> KernelNorm:
    """Squared norm of kernel(w, m): with x = |w|^2, the m-th derivative in z
    and in conj(w) of (1 - conj(w) z)^-(alpha+2) at z = w,

        sum_(k <= m) C(m, k) (m!/k!) (alpha+2)_(m+k) x^k (1 - x)^-(alpha+2+m+k),

    summed from k = 0 by the ratio of consecutive terms (only the first is
    nonzero at x = 0, so an inf one stays inf); inf beyond the double range.
    """
    if abs(w) >= 1.0:
        raise DomainError(f"kernel norm requires |w| < 1, got {format_magnitude(abs(w))}")
    if m < 0:
        raise DomainError("derivative order m must be nonnegative")
    x = abs(w) ** 2
    with np.errstate(over="ignore"):
        total = term = (falling_factorial(m, m) * t_constant(alpha, m)
                        * np.float64(1.0 - x) ** -(alpha + 2 + m))
        for k in range(m if x else 0):
            term *= (m - k) / (k + 1) ** 2 * (alpha + 2 + m + k) * x / (1.0 - x)
            total += term
    return KernelNorm(float(total), m + 1)


def t_constant(alpha: float, n: int) -> float:
    """Product (alpha+2)(alpha+3)...(alpha+n+1); empty product is 1."""
    out = 1.0
    for i in range(n):
        out *= alpha + 2 + i
    return out
