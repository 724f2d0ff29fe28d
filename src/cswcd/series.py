"""Truncated Taylor series arithmetic on the unit disk.

A series is the coefficient vector c_0..c_N of an analytic function at 0.
All arithmetic keeps the shared truncation order N. Sums, Cauchy products
and powers are coefficient-exact: coefficient m of a product depends only
on coefficients 0..m of the factors, so every retained coefficient equals
the infinite function's coefficient up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import EVAL_EDGE
from .errors import DomainError, NonFiniteError, TruncationMismatchError, format_magnitude


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c_0..c_N of an analytic function, truncated at order N.

    The invariant length == N+1 with finite entries is checked at
    construction; a non-finite entry is a ``NonFiniteError``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise NonFiniteError("series coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def order(self) -> int:
        """Truncation order N."""
        return self.coeffs.size - 1


def polynomial(coeffs, N: int) -> TruncatedSeries:
    """Series of a polynomial, zero-padded to truncation order N."""
    arr = np.zeros(N + 1, dtype=complex)
    given = np.asarray(coeffs, dtype=complex)
    if given.size > N + 1:
        raise DomainError(f"polynomial degree {given.size - 1} exceeds truncation {N}")
    arr[: given.size] = given
    return TruncatedSeries(arr)


def one_series(N: int) -> TruncatedSeries:
    return monomial(0, N)


def monomial(k: int, N: int, coeff: complex = 1.0) -> TruncatedSeries:
    """coeff * z^k as a truncated series."""
    if not 0 <= k <= N:
        raise DomainError(f"monomial degree {k} outside 0..{N}")
    arr = np.zeros(N + 1, dtype=complex)
    arr[k] = coeff
    return TruncatedSeries(arr)


def _check_same_order(f: TruncatedSeries, g: TruncatedSeries):
    if f.order != g.order:
        raise TruncationMismatchError(
            f"truncation orders differ: {f.order} vs {g.order}"
        )


def series_add(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum at the shared truncation order."""
    _check_same_order(f, g)
    return TruncatedSeries(f.coeffs + g.coeffs)


def series_scale(f: TruncatedSeries, a: complex) -> TruncatedSeries:
    return TruncatedSeries(a * f.coeffs)


def series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at the shared order N.

    Each retained coefficient is exact for the product function because it
    only reads coefficients 0..m of the factors.
    """
    _check_same_order(f, g)
    prod = np.convolve(f.coeffs, g.coeffs)[: f.order + 1]
    return TruncatedSeries(prod)


def series_eval(f: TruncatedSeries, z: complex) -> complex:
    """Horner evaluation of the truncated polynomial at z, |z| <= 1 - EVAL_EDGE."""
    if abs(z) > 1.0 - EVAL_EDGE:
        raise DomainError(f"|z| = {format_magnitude(abs(z))} too close to the unit circle")
    acc = 0.0 + 0.0j
    for c in f.coeffs[::-1]:
        acc = acc * z + c
    return complex(acc)


def power_table(x: np.ndarray, count: int) -> np.ndarray:
    """The (len(x), count) array of x^j for j = 0..count-1, by running products."""
    out = np.empty((x.size, count), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = x[:, None]
    return np.multiply.accumulate(out, axis=1, out=out)


def series_values(f: TruncatedSeries, points) -> np.ndarray:
    """The truncated polynomial at each of ``points``: its coefficients
    summed against ``power_table`` by an unoptimized ``einsum``, with no
    Horner loop and no BLAS."""
    z = np.asarray(points, dtype=complex).reshape(-1)
    return np.einsum("pj,j->p", power_table(z, f.order + 1), f.coeffs, optimize=False)


def series_power(phi: TruncatedSeries, k: int) -> TruncatedSeries:
    """phi^k by repeated Cauchy product; exact in every retained coefficient."""
    if k < 0:
        raise DomainError("power exponent must be nonnegative")
    out = one_series(phi.order)
    for _ in range(k):
        out = series_mul(out, phi)
    return out


def binomial_series(t: float, c: complex, N: int) -> TruncatedSeries:
    """Coefficients of (1 - c z)^t for real t and |c| < 1.

    Recurrence u_0 = 1, u_j = u_{j-1} * c * (j - 1 - t) / j.
    """
    if abs(c) >= 1.0:
        raise DomainError(f"binomial series requires |c| < 1, got {format_magnitude(abs(c))}")
    u = np.zeros(N + 1, dtype=complex)
    u[0] = 1.0
    for j in range(1, N + 1):
        u[j] = u[j - 1] * c * (j - 1 - t) / j
    return TruncatedSeries(u)


def expand_rational_kernel(s: float, c: complex, N: int) -> TruncatedSeries:
    """Coefficients of (1 - c z)^(-s) for s > 0 and |c| < 1.

    Generalized binomial series: u_0 = 1, u_j = u_{j-1} * c * (s + j - 1) / j.
    """
    if s <= 0:
        raise DomainError("exponent s must be positive")
    return binomial_series(-s, c, N)


def series_conjugate_reflect(f: TruncatedSeries) -> TruncatedSeries:
    """The map f(z) -> conj(f(conj z)); conjugates every coefficient.

    An involution, exact on the coefficient vector.
    """
    return TruncatedSeries(np.conj(f.coeffs))
