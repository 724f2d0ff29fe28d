"""Linear fractional self-maps of the disk and the closed-form symbol families.

Every weight/composition pair handled here is rational: the composition
symbol phi is an exact linear fractional map, and the weight psi is carried
in closed form as a ``RationalWeight``,

    psi(z) = exp(g) P(z) (1 - rho z)^(-e),

a polynomial P times one affine power, with a constant gain exp(g) kept as
its logarithm g. Each closed-form family, and each transport of one by a
rotation or by a disk automorphism, has this shape with P of degree at most
n; an explicit weight is its own P, with e = 0. The kernel forms evaluate
psi at points from this closed form. The Taylor series of psi is built
only when a reader asks for it (``SymbolPair.psi``): P times one
``expand_rational_kernel``, with no factor of positive power.
Family constructors validate the standing assumptions (psi not identically
zero, phi nonconstant, parameters inside the disk) before any computation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SingularityError, format_magnitude
from .series import (
    TruncatedSeries,
    binomial_series,
    expand_rational_kernel,
    polynomial,
    power_table,
    series_mul,
    series_power,
    series_scale,
)


@dataclass(frozen=True)
class LinearFractionalMap:
    """z -> (a z + b) / (c z + d) with a d - b c != 0."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if type(value) is not complex:  # numpy's complex128 is a subclass
                object.__setattr__(self, name, complex(value))
        if self.det == 0:
            raise SingularityError("degenerate map: a d - b c = 0")

    @property
    def det(self) -> complex:
        return self.a * self.d - self.b * self.c


IDENTITY_MAP = LinearFractionalMap(1, 0, 0, 1)


def rotation_map(lam: complex) -> LinearFractionalMap:
    """z -> lam z."""
    return LinearFractionalMap(lam, 0, 0, 1)


def is_unimodular(z: complex) -> bool:
    """Whether |z| = 1 to within 1e-12: the one unit-circle test."""
    return abs(abs(z) - 1.0) <= 1e-12


def lft_eval(phi: LinearFractionalMap, z: complex) -> complex:
    den = phi.c * z + phi.d
    if den == 0:
        raise SingularityError(f"pole of the map at z = {z}")
    return (phi.a * z + phi.b) / den


def lft_values(phi: LinearFractionalMap, u: np.ndarray) -> np.ndarray:
    """phi at each point of the array u; a point at the pole gives inf or NaN."""
    return (phi.a * u + phi.b) / (phi.c * u + phi.d)


def lft_inverse(phi: LinearFractionalMap) -> LinearFractionalMap:
    """Inverse map, up to projective scaling of the coefficients."""
    return LinearFractionalMap(phi.d, -phi.b, -phi.c, phi.a)


def lft_compose(outer: LinearFractionalMap, inner: LinearFractionalMap) -> LinearFractionalMap:
    """outer(inner(z)); coefficient matrices multiply."""
    return LinearFractionalMap(
        outer.a * inner.a + outer.b * inner.c,
        outer.a * inner.b + outer.b * inner.d,
        outer.c * inner.a + outer.d * inner.c,
        outer.c * inner.b + outer.d * inner.d,
    )


def sigma_companion(phi: LinearFractionalMap) -> LinearFractionalMap:
    """Companion self-map sigma(z) = (conj(a) z - conj(c)) / (-conj(b) z + conj(d)).

    Maps the disk into itself whenever phi does. ``complex.conjugate`` is
    exact, as ``np.conj`` is, and keeps the coefficients Python complex.
    """
    return LinearFractionalMap(
        phi.a.conjugate(), -phi.c.conjugate(), -phi.b.conjugate(), phi.d.conjugate()
    )


def sup_norm_lft(phi: LinearFractionalMap) -> float:
    """Exact supremum of |phi| over the closed disk via image-circle geometry:
    with the pole outside the closed disk, the image of the disk is the disk
    bounded by the image of the unit circle.

    Returns inf when the pole lies in the closed disk (unbounded signal).

    A square of a coefficient or of the center past about 1.3e154
    overflows, and so the float power raises; the squares of the
    coefficients are taken before the center, so that no numpy product of
    theirs overflows first. A denominator whose squares underflow to 0
    raises too. The norm is then taken from a/d, b/d, c/d and 1, as the
    center plus the radius |a/d - (b/d)(c/d)| / (1 - |c/d|^2), so that no
    two overflowed squares are subtracted; what still overflows is inf, and
    so is a norm that a/d or b/d, past the double range, leaves NaN.
    """
    if abs(phi.d) <= abs(phi.c):
        return math.inf
    try:
        denom = abs(phi.d) ** 2 - abs(phi.c) ** 2
        spread = (abs(phi.b) ** 2 - abs(phi.a) ** 2) / denom
        center = abs(complex((np.conj(phi.d) * phi.b - phi.a * np.conj(phi.c)) / denom))
        rho_sq = center ** 2 - spread
    except (OverflowError, ZeroDivisionError):
        a, b, c = (np.complex128(x / phi.d) for x in (phi.a, phi.b, phi.c))
        with np.errstate(over="ignore", invalid="ignore"):
            denom = 1.0 - abs(c) ** 2
            norm = float(abs((b - a * np.conj(c)) / denom) + abs(a - b * c) / denom)
        return math.inf if math.isnan(norm) else norm
    return center + math.sqrt(max(rho_sq, 0.0))


def require_pole_outside_disk(phi: LinearFractionalMap) -> None:
    """Refuse a map whose pole lies in the closed disk: it has no Taylor
    expansion there."""
    if abs(phi.d) <= abs(phi.c):
        raise SingularityError("pole inside or on the unit circle; no disk expansion")


def lft_to_series(phi: LinearFractionalMap, N: int) -> TruncatedSeries:
    """Taylor expansion of the map; needs the pole outside the closed disk."""
    require_pole_outside_disk(phi)
    geo = binomial_series(-1.0, -phi.c / phi.d, N)
    lin = polynomial([phi.b, phi.a], N)
    return series_scale(series_mul(lin, geo), 1.0 / phi.d)


@dataclass(frozen=True)
class RationalWeight:
    """psi(z) = exp(log_gain) P(z) (1 - rho z)^(-exponent), in closed form.

    ``poly`` holds the coefficients of P, lowest degree first, read-only.
    The exponent is >= 0, and |rho| < 1 when it is positive, so psi is
    analytic on the closed disk. The gain is kept as its logarithm, so that
    a large power of a constant need not be formed on its own.
    """

    poly: np.ndarray
    rho: complex = 0j
    exponent: float = 0.0
    log_gain: complex = 0j

    def __post_init__(self):
        arr = np.array(self.poly, dtype=complex)
        if arr.ndim != 1 or not arr.size or not np.isfinite(arr).all():
            raise DomainError("a weight polynomial needs finite coefficients")
        arr.flags.writeable = False
        object.__setattr__(self, "poly", arr)
        if self.exponent < 0:
            raise DomainError(f"weight exponent must be >= 0, got {self.exponent}")
        if self.exponent > 0 and abs(self.rho) >= 1.0:
            raise DomainError("weight pole inside or on the unit circle: "
                              f"|rho| = {format_magnitude(abs(self.rho))}")

    def values(self, u: np.ndarray) -> np.ndarray:
        """psi at each point of u, |u| < 1: P by an unoptimized ``einsum``
        (no BLAS), and the power and the gain together as one exponential
        of logarithms, so that neither overflows or underflows on its own."""
        p_u = np.einsum("m,im->i", self.poly, power_table(u, self.poly.size), optimize=False)
        return p_u * np.exp(self.log_gain - self.exponent * np.log(1 - self.rho * u))

    def series(self, N: int) -> TruncatedSeries:
        """Taylor coefficients 0..N: P, scaled by the gain, times the series
        of (1 - rho z)^(-exponent). Coefficient m reads only coefficients
        0..m of both factors, so the first M + 1 coefficients do not depend
        on N >= M."""
        poly = self.poly[: N + 1]
        if self.log_gain != 0:
            poly = poly * cmath.exp(self.log_gain)
        if self.rho == 0 or self.exponent == 0:
            return polynomial(poly, N)
        base = expand_rational_kernel(self.exponent, self.rho, N).coeffs
        out = np.zeros(N + 1, dtype=complex)
        first = True
        for k, pk in enumerate(poly.tolist()):
            if pk == 0:
                continue
            if first:   # assigned, so a zero keeps the sign the product gives it
                out[k:], first = pk * base[: N + 1 - k], False
            else:
                out[k:] += pk * base[: N + 1 - k]
        return TruncatedSeries(out)


def _monomial_weight(coeff: complex, n: int, rho: complex, exponent: float) -> RationalWeight:
    """coeff z^n (1 - rho z)^(-exponent)."""
    poly = np.zeros(n + 1, dtype=complex)
    poly[n] = coeff
    return RationalWeight(poly, rho, exponent)


@dataclass(frozen=True)
class SymbolPair:
    """Closed-form weight psi, composition map phi, differentiation order n,
    the truncation order of the weight's Taylor series, and ``bounded``, the
    user's flag that the operator is bounded (an explicit pair's field).
    """

    weight: RationalWeight
    phi: LinearFractionalMap
    n: int
    order: int
    bounded: bool = False

    def __post_init__(self):
        if self.n < 0:
            raise DomainError("order n must be nonnegative")
        if not self.weight.poly[: self.order + 1].any():
            raise DomainError("weight symbol psi is identically zero")

    @classmethod
    def from_series(cls, psi: TruncatedSeries, phi: LinearFractionalMap, n: int,
                    **kwargs) -> "SymbolPair":
        """A pair whose weight is the polynomial psi, at psi's truncation."""
        return cls(RationalWeight(psi.coeffs), phi, n, psi.order, **kwargs)

    @cached_property
    def psi(self) -> TruncatedSeries:
        """The weight's Taylor series at the pair's truncation, built the
        first time it is read: by the matrix build, ``adjoint-kernel`` and
        ``export-matrix``."""
        return self.weight.series(self.order)

    @cached_property
    def bounded_hint(self) -> bool:
        """Whether the operator is known to be bounded: order 0 (a weighted
        composition), sup |phi| < 1 over the closed disk, or the user's flag."""
        return self.n == 0 or sup_norm_lft(self.phi) < 1.0 or self.bounded


def bounded_sufficient(b: complex, c: complex) -> bool:
    """Sufficient condition for boundedness of the rational-family operator:

        2 |c + conj(c) (b - c^2)| < 1 - |b - c^2|^2.

    For the family map phi(z) = c + b z / (1 - c z) this inequality is the
    exact condition sup |phi| < 1 over the closed disk.
    """
    w = b - c * c
    return 2 * abs(c + np.conj(c) * w) < 1 - abs(w) ** 2


def rational_symbol_series(
    scale: complex,
    n: int,
    c: complex,
    s: float,
    inner: LinearFractionalMap,
    N: int,
) -> TruncatedSeries:
    """Expansion of scale * L(z)^n / (1 - c L(z))^s for an LFT self-map L,
    as a product of truncated series: the families' old series path, kept
    as the tests' reference for the closed forms.

    Substituting L = (u z + v)/(w z + x) turns the function into

        scale * (u z + v)^n * (w z + x)^(s-n) / ((w - c u) z + (x - c v))^s,

    a product of binomial series. Both induced expansion parameters stay in
    the disk because the pole of L and the solutions of c L(z) = 1 lie
    outside the closed disk.
    """
    u, v, w, x = inner.a, inner.b, inner.c, inner.d
    if abs(x) <= abs(w):
        raise SingularityError("inner map pole inside or on the unit circle")
    den0 = x - c * v
    if den0 == 0 or abs((w - c * u) / den0) >= 1.0:
        raise DomainError("1 - c L(z) vanishes on the closed disk")
    lin_pow = series_power(polynomial([v, u], N), n)
    upper = binomial_series(s - n, -w / x, N)
    lower = binomial_series(-s, -(w - c * u) / den0, N)
    total = series_mul(series_mul(lin_pow, upper), lower)
    pref = scale * np.power(x, s - n) * np.power(den0, -s)
    return series_scale(total, pref)


def _family_phi(b: complex, c_den: complex, c_const: complex) -> LinearFractionalMap:
    """Map c_const + b z / (1 - c_den z) in coefficient form."""
    return LinearFractionalMap(b - c_const * c_den, c_const, -c_den, 1.0)


def _check_family_params(a: complex, b: complex, c: complex) -> None:
    if a == 0 or b == 0:
        raise DomainError("a and b must be nonzero")
    if abs(c) >= 1.0:
        raise DomainError(f"|c| must be < 1, got {format_magnitude(abs(c))}")


def _rational_family(
    a: complex, b: complex, c: complex, c_den: complex, n: int, alpha: float, N: int
) -> SymbolPair:
    """psi(z) = (a/n!) z^n (1 - c_den z)^-(n+alpha+2) and
    phi(z) = c + b z / (1 - c_den z), for nonzero a, b and |c| < 1."""
    _check_family_params(a, b, c)
    return SymbolPair(
        _monomial_weight(a / math.factorial(n), n, c_den, n + alpha + 2),
        _family_phi(b, c_den, c),
        n,
        N,
    )


def family_j_symmetric(
    a: complex, b: complex, c: complex, n: int, alpha: float, N: int
) -> SymbolPair:
    """Rational pair characterizing coefficient-conjugation symmetry:

        psi(z) = a z^n / (n! (1 - c z)^(n+alpha+2)),
        phi(z) = c + b z / (1 - c z),

    with nonzero complex a, b and |c| < 1.
    """
    return _rational_family(a, b, c, c, n, alpha, N)


def family_general(
    a: complex, b: complex, c: complex, n: int, alpha: float, N: int
) -> SymbolPair:
    """Conjugated-denominator pair with unrestricted nonzero a, b:

        psi(z) = a z^n / (n! (1 - conj(c) z)^(n+alpha+2)),
        phi(z) = c + b z / (1 - conj(c) z).

    Self-adjoint exactly when a and b are real; normal exactly when b is
    real or c = 0.
    """
    return _rational_family(a, b, c, np.conj(c), n, alpha, N)


def family_self_adjoint(
    a: float, b: float, c: complex, n: int, alpha: float, N: int
) -> SymbolPair:
    """family_general restricted to nonzero real a and b (Hermitian case)."""
    for name, val in (("a", a), ("b", b)):
        if complex(val).imag != 0:
            raise DomainError(f"{name} must be real for the self-adjoint family")
    return _rational_family(complex(a).real, complex(b).real, c, np.conj(c), n, alpha, N)


def family_normal_origin(a: complex, b: complex, n: int, N: int) -> SymbolPair:
    """Monomial weight a z^n with dilation b z, 0 < |b| < 1: a diagonal operator."""
    if a == 0:
        raise DomainError("a must be nonzero")
    if b == 0 or abs(b) >= 1.0:
        raise DomainError(f"b must satisfy 0 < |b| < 1, got {format_magnitude(abs(b))}")
    return SymbolPair(_monomial_weight(a, n, 0j, 0.0), rotation_map(b), n, N)


def unitary_parameters(
    p: complex, lambda_u: complex, alpha: float
) -> tuple[float, complex, LinearFractionalMap]:
    """(g, q, phi) of the unitary symbols at p: the weight is
    psi(z) = lambda_u exp(g) (1 - q z)^-(alpha+2) with the log gain
    g = ((alpha+2)/2) log(1 - |p|^2) and q = conj(p), and the map is
    phi(z) = (conj(p)/p) (p - z) / (1 - conj(p) z), for p in the punctured
    disk and unimodular lambda_u. exp(g) underflows at large alpha and |p|
    near 1, so the weights of the pairs keep g as their log gain.
    """
    if p == 0:
        raise DomainError("p must be nonzero; use a rotation for p = 0")
    if abs(p) >= 1.0:
        raise DomainError(f"|p| must be < 1, got {format_magnitude(abs(p))}")
    if not is_unimodular(lambda_u):
        raise DomainError("lambda_u must be unimodular, "
                          f"got |lambda_u| = {format_magnitude(abs(lambda_u))}")
    pbar = np.conj(p)
    g = (alpha + 2) / 2 * math.log1p(-abs(p) ** 2)
    return g, pbar, LinearFractionalMap(-pbar / p, pbar, -pbar, 1.0)


def unitary_symbols(
    p: complex, lambda_u: complex, alpha: float, N: int
) -> SymbolPair:
    """Symbols of the unitary, coefficient-conjugation-symmetric weighted
    composition operator (``unitary_parameters``), the weight's series
    truncated at N. The order is 0.
    """
    g, q, phi = unitary_parameters(p, lambda_u, alpha)
    return SymbolPair(RationalWeight([lambda_u], q, alpha + 2, g), phi, 0, N)


def transported_weight(
    scale: complex, n: int, c: complex, alpha: float, lambda_u: complex, g: float,
    inner: LinearFractionalMap,
) -> RationalWeight:
    """psi_p (psi_base o L) in closed form, for the unitary symbols (psi_p, L)
    with log gain g (``unitary_parameters``), or a rotation (psi_p = mu,
    g = 0, L = lam z, so q = 0), and psi_base = scale z^n (1 - c z)^-s with
    s = n + alpha + 2.

    With psi_p = lambda_u exp(g) (1 - q z)^-(alpha+2) and L = (u z + v)/(w z + x),
    where x = 1 and w = -q, substituting L gives

        lambda_u exp(g) scale (u z + v)^n (w z + x)^(s-n) / ((w - c u) z + den0)^s

    with den0 = x - c v, and (w z + x)^(s-n) = (1 - q z)^(alpha+2) cancels
    psi_p's power symbolically, so no power of positive exponent is formed:
    P = lambda_u scale (u z + v)^n, rho = -(w - c u) / den0, and the gain
    exp(g) den0^-s is kept as its logarithm, since either factor alone can
    leave the double range at large alpha. |rho| < 1 because L maps the
    closed disk onto itself and |c| < 1.
    """
    u, v, w, x = inner.a, inner.b, inner.c, inner.d
    s = n + alpha + 2
    den0 = x - c * v
    if den0 == 0 or abs((w - c * u) / den0) >= 1.0:
        raise DomainError("1 - c L(z) vanishes on the closed disk")
    poly = [lambda_u * scale * math.comb(n, j) * v ** (n - j) * u**j for j in range(n + 1)]
    return RationalWeight(poly, -(w - c * u) / den0, s, g - s * cmath.log(den0))


def family_conjugated(
    a: complex,
    b: complex,
    c: complex,
    n: int,
    alpha: float,
    N: int,
    *,
    p: complex | None = None,
    lambda_u: complex = 1.0,
    mu: complex | None = None,
    lam: complex | None = None,
) -> SymbolPair:
    """Symbols that are complex symmetric for the matching composed conjugation.

    (a, b, c) describe a base pair from family_j_symmetric. With p nonzero,
    the base pair is transported by the unitary symbols at p:
    phi = phi_base o phi_p and psi = psi_p * (psi_base o phi_p), in closed
    form by ``transported_weight``. With unimodular (mu, lam) instead,
    psi(z) = mu psi_base(lam z) = mu (a/n!) lam^n z^n (1 - c lam z)^-(n+alpha+2)
    and phi(z) = phi_base(lam z), by the same formula with the unitary
    symbols (mu, 0, lam z).
    """
    _check_family_params(a, b, c)
    base_phi = _family_phi(b, c, c)
    if (p is None) == (mu is None and lam is None):
        raise DomainError("provide exactly one of p or (mu, lam)")
    if p is not None:
        g, _, inner = unitary_parameters(p, lambda_u, alpha)
    else:
        if mu is None or lam is None:
            raise DomainError("rotation case needs both mu and lam")
        if not (is_unimodular(mu) and is_unimodular(lam)):
            raise DomainError("mu and lam must be unimodular")
        lambda_u, g, inner = mu, 0.0, rotation_map(lam)
    weight = transported_weight(a / math.factorial(n), n, c, alpha, lambda_u, g, inner)
    return SymbolPair(weight, lft_compose(base_phi, inner), n, N)
