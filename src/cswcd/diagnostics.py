"""Boundedness/compactness evidence grids and structural operator predicates.

The grid reports are evidence, not certificates: the underlying criteria
are limit statements as |w| -> 1, undecidable from finitely many samples,
so every report carries its raw samples and a heuristic trend tag. The
Hermitian predicate acts on a truncated matrix whose entries are exact.
Normality is tested on reproducing kernels, with no matrix: a bounded T is
normal iff <T K_w, T K_z> = <T* K_w, T* K_z> for all w and z, because the
kernels K_w span a dense set. T* K_w = conj(psi(w)) K^[n]_phi(w) is a finite
sum of derivative kernels, and so is T K_w whenever psi (1 + (c/d) z)^s is a
polynomial of degree <= n, as it is for every family but ``explicit``: both
sides are then finite closed forms, whatever the truncation of the operator
matrix. Otherwise T K_w is summed from a Taylor series. The kernel-norm
balance ||T K_w|| = ||T* K_w|| reads the diagonals of the same two Grams.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bergman import beta_sq_vector, t_constant
from .defaults import MAX_WORK_DIM, TOL_NORMALITY
from .errors import UnboundedSymbolError, format_magnitude
from .matrices import (OperatorMatrix, frobenius_norm, kernel_point_gate, operator_gate,
                       relative_defect)
from .series import power_table
from .symbols import LinearFractionalMap, SymbolPair, lft_inverse, lft_values

GRID_RADII = (0.5, 0.7, 0.9, 0.97, 0.99, 0.997, 0.999)
GRID_ANGLES = 64
# the lattice r e^(2 pi i k / GRID_ANGLES) of the two grids, one row per radius r,
# and log(1 - |w|) and log(1 / |w|) at its points: the grids' powers of |w| are
# these logs times an exponent
_GRID_W = (np.asarray(GRID_RADII, dtype=float)[:, None]
           * np.exp(1j * (2 * np.pi * np.arange(GRID_ANGLES) / GRID_ANGLES)))
_GRID_LOG_1M = np.log(1 - np.abs(_GRID_W))
_GRID_LOG_INV = np.log(1.0 / np.abs(_GRID_W))

SCAN_RADII = np.linspace(0.1, 0.9, 9)   # the zero scan of necessary_conditions_check
SCAN_ANGLES = 64
# the points r e^(2 pi i k / SCAN_ANGLES) of the zero scan, one row per radius r
_SCAN_POINTS = (SCAN_RADII[:, None]
                * np.exp(1j * (2 * np.pi * np.arange(SCAN_ANGLES) / SCAN_ANGLES)))

GRAM_POINTS = (0.3, 0.25j, -0.2 + 0.1j, 0.1 - 0.3j)
# the points w, conj(w) and log conj(w), and the zero log scale of G_T*
_GRAM_W = np.array(GRAM_POINTS, dtype=complex)
_GRAM_WBAR = _GRAM_W.conjugate()
_GRAM_LOG_WBAR = np.log(_GRAM_WBAR)
_GRAM_ZERO_SCALE = np.zeros(_GRAM_W.size)
# every table above is made once, at import, and read-only
for _arr in (_GRID_W, _GRID_LOG_1M, _GRID_LOG_INV, SCAN_RADII, _SCAN_POINTS,
             _GRAM_W, _GRAM_WBAR, _GRAM_LOG_WBAR, _GRAM_ZERO_SCALE):
    _arr.flags.writeable = False
# the Taylor series of T K_w where it is no kernel sum, the only Gram with a series:
GRAM_START = 64            # weight coefficients the series starts with
GRAM_TAIL = 1e-18          # the series grows while its tail exceeds this share of its sum
GRAM_ROUNDING = TOL_NORMALITY  # largest rounding bound of its defect that is reported
_COMMUTATOR_BAND = 8       # trailing rows/columns of is_normal's products left out

TREND_BOUNDED = "bounded-looking"
TREND_DIVERGING = "diverging"
TREND_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class GridReport:
    """The kept points w of a polar grid and their values, in row-major
    order, read-only, with a supremum and a trend tag."""

    points: np.ndarray
    values: np.ndarray
    supremum: float | None
    trend: str
    radial_maxima: tuple

    @property
    def samples(self) -> tuple:
        """Pairs (w, value), built on each read; the checks read only the
        arrays."""
        return tuple(zip(self.points.tolist(), self.values.tolist()))


def _classify_trend(radial_maxima) -> str:
    """Diverging when the last three radial maxima grow monotonically by a
    factor above 10; bounded-looking when they have stopped growing."""
    m = [v for v in radial_maxima if not math.isnan(v)]
    if len(m) < 3:
        return TREND_INCONCLUSIVE
    m1, m2, m3 = m[-3:]
    if m1 < m2 < m3 and m3 > 10.0 * m1:
        return TREND_DIVERGING
    if m3 <= 1.05 * m1:
        return TREND_BOUNDED
    return TREND_INCONCLUSIVE


def _grid_report(keep: np.ndarray, values: np.ndarray) -> GridReport:
    """Report of the lattice samples ``_GRID_W[keep]``, whose values are
    ``values`` in row-major order; a radius with no kept sample has a NaN
    maximum, and a grid with no kept sample has no supremum."""
    full = np.full(_GRID_W.shape, -np.inf)
    full[keep] = values
    radial_maxima = tuple(np.where(keep.any(axis=1), full.max(axis=1), np.nan).tolist())
    points = _GRID_W[keep]
    points.flags.writeable = False
    values.flags.writeable = False
    return GridReport(
        points=points,
        values=values,
        supremum=float(values.max()) if values.size else None,
        trend=_classify_trend(radial_maxima),
        radial_maxima=radial_maxima,
    )


def boundedness_ratio_grid(phi: LinearFractionalMap, alpha: float, n: int) -> GridReport:
    """Ratio (1-|w|)^(alpha+2) / (1-|phi(w)|)^(alpha+2+2n) over the polar grid.

    For univalent phi the composition-differentiation operator of order n is
    bounded exactly when this ratio stays bounded as |w| -> 1, and compact
    exactly when it tends to 0. Samples with |phi(w)| >= 1 are skipped, and
    so is a sample at the pole of phi. The ratio is evaluated as
    exp((alpha+2) ln(1-|w|) - (alpha+2+2n) ln(1-|phi(w)|)), so that neither
    power can underflow to 0 at a large exponent.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # inf or NaN at the pole of phi, which the comparison below skips
        image = np.abs(lft_values(phi, _GRID_W))
    keep = image < 1.0
    values = np.exp(
        (alpha + 2) * _GRID_LOG_1M[keep]
        - (alpha + 2 + 2 * n) * np.log(1 - image[keep])
    )
    return _grid_report(keep, values)


def nevanlinna_bound_grid(phi: LinearFractionalMap, alpha: float, n: int) -> GridReport:
    """Counting function against [ln(1/|w|)]^(alpha+2+2n) over the polar grid.

    Boundedness of the order-n operator is equivalent to this ratio staying
    O(1) as |w| -> 1 (little-o for compactness). The sample w = phi(0) is
    excluded. A univalent map has at most one preimage z0 of w, so the
    counting value is [ln(1/|z0|)]^(alpha+2), or 0 when z0 lies outside the
    disk (at infinity for w = phi(infinity)).
    """
    keep = _GRID_W != phi.b / phi.d
    with np.errstate(divide="ignore", invalid="ignore"):
        # inf or NaN at w = phi(infinity), whose preimage is outside the disk
        preimage = np.abs(lft_values(lft_inverse(phi), _GRID_W))
    inside = keep & (preimage < 1.0)
    counting = np.zeros(_GRID_W.shape)
    counting[inside] = np.log(1.0 / preimage[inside]) ** (alpha + 2)
    values = counting[keep] / _GRID_LOG_INV[keep] ** (alpha + 2 + 2 * n)
    return _grid_report(keep, values)


def _circle_values(coeffs: np.ndarray) -> tuple:
    """The polynomial with these coefficients at the scan points, one row per
    radius r of SCAN_RADII, and the size sum_k |P_k| r^k of the terms that
    it sums on each circle.

    Horner's rule runs from the last nonzero coefficient down, two in-place
    ufunc calls per coefficient on the 576 points and two on the 9 radii: P
    has degree <= n for every family but ``explicit``, so a scan costs a few
    calls, with no FFT and no BLAS.
    """
    nonzero = np.flatnonzero(coeffs)
    top = int(nonzero[-1]) if nonzero.size else 0
    values = np.full(_SCAN_POINTS.shape, coeffs[top])
    size = np.full(SCAN_RADII.shape, abs(coeffs[top]))
    for c in coeffs[:top][::-1].tolist():
        np.multiply(values, _SCAN_POINTS, out=values)
        np.add(values, c, out=values)
        np.multiply(size, SCAN_RADII, out=size)
        np.add(size, abs(c), out=size)
    return values, size


def necessary_conditions_check(pair: SymbolPair) -> tuple[str, ...]:
    """Names of the structural conditions that the pair violates, among the
    three any symmetric or normal order-n pair must satisfy: psi^(m)(0) = 0
    for m < n (``weight_flat_at_origin``), psi^(n)(0) != 0
    (``weight_order_exact``) and no zero of psi on the punctured disk scan
    (``weight_nonvanishing``).

    All three read the polynomial P of psi = exp(g) P (1 - rho z)^-e, whose
    other factor has no zero in the disk, so psi and P vanish at the same
    points to the same orders; a P shorter than n + 1 has P_n = 0. No series
    is summed, so a large alpha cannot round the scan to a false zero. The
    zero scan walks |z| = r in 0.1..0.9 with 64 angles and trips when
    |P(z)| <= 1e-10 sum_k |P_k| r^k, a bound relative to the terms summed on
    that circle, so that neither the scale of P nor a high power of a small
    r trips it; it is a regression tripwire rather than a proof.
    """
    n = pair.n
    coeffs = pair.weight.poly
    values, size = _circle_values(coeffs)
    violated = (
        ("weight_flat_at_origin", (coeffs[:n] != 0).any()),
        ("weight_order_exact", coeffs.size <= n or coeffs[n] == 0),
        ("weight_nonvanishing", (np.abs(values) <= 1e-10 * size[:, None]).any()),
    )
    return tuple(name for name, bad in violated if bad)


def is_hermitian(M: OperatorMatrix) -> float:
    """Frobenius-relative defect of M = M* over the whole matrix, whose
    entries are exact."""
    A = M.entries
    den = frobenius_norm(A)
    if den == 0:
        return 0.0
    return frobenius_norm(A - A.conj().T) / den


def is_normal(M: OperatorMatrix) -> float:
    """Commutator defect ||M M* - M* M||_F / ||M||_F^2 on a leading block.

    The products mix truncated tails, so the trailing _COMMUTATOR_BAND
    rows/columns are excluded from the comparison.
    """
    A = M.entries
    keep = max(M.dim - _COMMUTATOR_BAND, 1)
    comm = A @ A.conj().T - A.conj().T @ A
    den = np.linalg.norm(A) ** 2
    if den == 0:
        return 0.0
    return float(np.linalg.norm(comm[:keep, :keep]) / den)


def _cauchy_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Coefficients 0..M of f times each row of g, for a length M + 1 vector
    f and a (p, M + 1) array g: entry (i, m) is sum_k f[m-k] g[i, k].

    The lower triangular Toeplitz array of f is a view of f after M zeros:
    entry (m, k) is f[m-k], read with strides (1, -1) from f[0]. The sums of
    products are one unoptimized ``einsum``, which never calls the BLAS, so
    the bytes cannot depend on a BLAS build or thread count.
    """
    size = f.size
    padded = np.concatenate((np.zeros(size - 1, dtype=f.dtype), f))
    step = padded.itemsize
    toeplitz = np.ndarray((size, size), f.dtype, padded, (size - 1) * step, (step, -step))
    return np.einsum("mk,ik->im", toeplitz, g, optimize=False)


@lru_cache(maxsize=32)
def _rising_over_factorial(s: float, M: int) -> np.ndarray:
    """(s)_m / m! for m = 0..M, the coefficients of (1 - z)^-s; read-only."""
    m = np.arange(1, M + 1)
    out = np.multiply.accumulate(np.concatenate(([1.0], (s + m - 1) / m)))
    out.flags.writeable = False
    return out


def leibniz_term_count(n: int) -> int:
    """The number of terms (i, j, k) of ``_leibniz_terms`` at order n:
    the sum over i, j <= n of min(i, j) + 1."""
    return (n + 1) * (n + 2) * (2 * n + 3) // 6


@lru_cache(maxsize=32)
def _leibniz_terms(n: int, alpha: float) -> tuple:
    """The terms of the inner products <k_i(A), k_j(B)> for i, j <= n, where
    k_i(A) = z^i (1 - conj(A) z)^-(alpha+2+i) = K^[i]_A / (alpha+2)_i.

    Since <f, K^[j]_B> = f^(j)(B), the Leibniz rule gives

        <k_i(A), k_j(B)> = sum_(k <= min(i, j)) const B^(i-k) conj(A)^(j-k)
                           (1 - conj(A) B)^-(alpha+2+i+j-k),
        const = C(j, k) i!/(i-k)! (alpha+2+i)_(j-k) / (alpha+2)_j.

    Returns one read-only array per quantity, one entry per term (i, j, k):
    i, j, the powers j - k and i - k, the exponent and the constant. A draw
    asks for the same (n, alpha) each time, so the terms are cached, as
    ``_rising_over_factorial`` is. There are ``leibniz_term_count(n)`` of
    them, about n^3 / 3; ``parse_config`` holds that count to MAX_GRAM_TERMS.
    """
    rows = []
    for i in range(n + 1):
        for j in range(n + 1):
            for k in range(min(i, j) + 1):
                const = math.comb(j, k) * math.perm(i, k)
                for m in range(j - k):
                    const *= alpha + 2 + i + m
                for m in range(j):
                    const /= alpha + 2 + m
                rows.append((i, j, j - k, i - k, alpha + 2 + i + j - k, const))
    out = tuple(np.array(col) for col in zip(*rows))
    for arr in out:
        arr.flags.writeable = False
    return out


def _kernel_sum_grams(abar: np.ndarray, coeffs: np.ndarray, log_scale: np.ndarray,
                      n: int, alpha: float) -> np.ndarray:
    """Gram matrices of kernel sums, one per leading index x: of the functions
    f_(x,a) = exp(log_scale[x, a]) sum_(i <= n) coeffs[x, a, i] k_i(A_(x,a)),
    with conj(A_(x,a)) = abar[x, a] inside the disk and k_i as in
    ``_leibniz_terms``, whose finite sums give every inner product.

    The two scales and each power (1 - conj(A) B)^-e are one exponential of
    logarithms, so that no factor leaves the double range on its own. Only
    elementwise products and one unoptimized ``einsum`` are used: no BLAS.
    """
    i, j, left_power, right_power, exponent, const = _leibniz_terms(n, alpha)
    powers = power_table(abar.ravel(), n + 1).reshape(abar.shape + (n + 1,))
    left = coeffs[..., i] * powers[..., left_power] * const
    right = (coeffs[..., j] * powers[..., right_power]).conj()
    log_x = np.log(1 - abar[..., :, None] * abar[..., None, :].conj())
    log_scales = log_scale[..., :, None] + log_scale[..., None, :].conj()
    kern = np.exp(log_scales[..., None] - exponent * log_x[..., None])
    return np.einsum("...at,...bt,...abt->...ab", left, right, kern, optimize=False)


@lru_cache(maxsize=32)
def _basis_change(n: int) -> tuple:
    """C(n-m, i-m) at [m, i], zero for i < m, and the power max(i - m, 0) at
    [m, i], both read-only:
    z^m = sum_(i >= m) C(n-m, i-m) q^(i-m) z^i (1 - q z)^(n-i)."""
    binom = np.array([[math.comb(n - m, i - m) if i >= m else 0 for i in range(n + 1)]
                      for m in range(n + 1)], dtype=float)
    degree = np.arange(n + 1)
    power = np.maximum(degree - degree[:, None], 0)
    binom.flags.writeable = power.flags.writeable = False
    return binom, power


def _operator_kernel_sums(pair: SymbolPair, alpha: float, wbar: np.ndarray,
                          log_wbar: np.ndarray, q: np.ndarray) -> tuple:
    """(coefficients, log scales) of T K_w as a kernel sum
    (``_kernel_sum_grams``), given wbar = conj(w), its logarithm and q as
    below.

    T K_w = (alpha+2)_n conj(w)^n psi (1 - conj(w) phi)^-s with s = alpha+n+2,
    and for phi = (a z + b) / (c z + d),

        1 - conj(w) phi = (1 - conj(w) b / d) (1 - q z) / (1 + (c/d) z),

    with q = (conj(w) a - c) / (d - conj(w) b), the reciprocal of the root of
    1 - conj(w) phi; both sides are 1 - conj(w) phi(0) at z = 0, so the
    principal powers factor too. The weight's shape makes
    psi (1 + (c/d) z)^s = exp(g) P with P of degree <= n. Written in the
    basis z^i (1 - q z)^(n-i), P gives

        T K_w = scale_w sum_i C_(w,i) k_i(conj(q)),
        C_(w,i) = sum_(m <= i) P_m C(n-m, i-m) q^(i-m),

    with log scale_w = g + log (alpha+2)_n + n log conj(w) - s log(1 - conj(w) b/d).
    A point with |q| >= 1 is refused.
    """
    weight, phi, n = pair.weight, pair.phi, pair.n
    s = alpha + n + 2
    if (np.abs(q) >= 1.0).any():
        raise UnboundedSymbolError(
            "normality Gram: 1 - conj(w) phi vanishes in the closed disk, "
            f"|q| = {format_magnitude(np.abs(q).max())}"
        )
    binom, power = _basis_change(n)
    coeffs = np.einsum("m,ami->ai", weight.poly, binom * power_table(q, n + 1)[:, power],
                       optimize=False)
    log_scale = (weight.log_gain + math.log(t_constant(alpha, n)) + n * log_wbar
                 - s * np.log(1 - wbar * (phi.b / phi.d)))
    return coeffs, log_scale


def _series_operator_gram(pair: SymbolPair, alpha: float, wbar: np.ndarray, q: np.ndarray,
                          G_star: np.ndarray) -> np.ndarray:
    """G_T for a pair whose psi (1 + (c/d) z)^s is no polynomial of degree
    <= n, such as an ``explicit`` pair, from the Taylor series of T K_w
    paired in the weighted inner product.

    With q and the scale as in ``_operator_kernel_sums``, T K_w is the scale
    times the series psi (1 + (c/d) z)^s, the same for every point, times
    (1 - q z)^-s. The series is taken at an order M of the weight psi. M
    starts at min(N, GRAM_START - 1) for the pair's truncation N, or at the
    degree of the weight polynomial if that is higher, so that no weight
    coefficient is dropped, and doubles while the last quarter of any
    ||T K_w||^2 series exceeds GRAM_TAIL of its sum. A tail still above that
    share at order MAX_WORK_DIM - 1 is refused: a pole of phi near the
    circle can keep T K_w far from its truncation even where the points
    pass the gate.

    The Cauchy products can cancel. The same two products over absolute
    coefficients bound each series coefficient's rounding error by u a_m
    (u the unit roundoff), so the error of G_T[i, j] is at most
    |sc_i sc_j| (u sum_m (a_i |S_j| + |S_i| a_j) beta_m^2 + u^2 sum_m a_i a_j
    beta_m^2) for the series S and scale factors sc. A bound above
    GRAM_ROUNDING of max |G_T*| is refused.
    """
    phi, n = pair.phi, pair.n
    s = alpha + n + 2
    scale = t_constant(alpha, n) * wbar**n * (1 - wbar * (phi.b / phi.d)) ** -s
    M = max(min(pair.order, GRAM_START - 1), int(np.flatnonzero(pair.weight.poly)[-1]))
    psi = pair.weight.series(M).coeffs
    while True:
        m = np.arange(1, M + 1)
        ratios = (s - m + 1) / m * (phi.c / phi.d)
        upper = np.multiply.accumulate(np.concatenate(([1.0], ratios)))   # (1 + (c/d) z)^s
        powers = power_table(q, M + 1)
        shared = _cauchy_product(psi, upper[None, :])[0]
        series = _cauchy_product(shared, _rising_over_factorial(s, M) * powers)
        bsq = beta_sq_vector(M, alpha)
        energy = (series.real**2 + series.imag**2) * bsq
        tail, total = energy[:, M + 1 - (M + 1) // 4:].sum(axis=1), energy.sum(axis=1)
        if (tail <= GRAM_TAIL * total).all():
            break
        if M >= MAX_WORK_DIM - 1:
            raise UnboundedSymbolError(
                f"normality Gram: the series of T K_w has not converged at order {M}; "
                f"its last quarter holds {(tail / total).max():.3g} of its sum"
            )
        M = min(2 * M, MAX_WORK_DIM - 1)
        psi = pair.weight.series(M).coeffs
    G_T = np.einsum("am,bm->ab", series * bsq, series.conj(), optimize=False)
    G_T *= scale[:, None] * scale.conj()
    bound = _cauchy_product(
        _cauchy_product(np.abs(psi), np.abs(upper)[None, :])[0],
        _rising_over_factorial(s, M) * np.abs(powers),
    )
    roundoff = np.finfo(float).eps / 2
    cross = np.einsum("am,bm->ab", bound * bsq, np.abs(series), optimize=False)
    square = np.einsum("am,bm->ab", bound * bsq, bound, optimize=False)
    err = roundoff * (cross + cross.T) + roundoff**2 * square
    rounding = float((err * np.abs(scale[:, None] * scale)).max() / np.abs(G_star).max())
    if rounding > GRAM_ROUNDING:
        raise UnboundedSymbolError(
            f"normality Gram: the weight products cancel; the rounding bound "
            f"{rounding:.3g} of the defect exceeds {GRAM_ROUNDING:g}"
        )
    return G_T


def normality_gram(pair: SymbolPair, alpha: float):
    """The Gram matrices (G_T, G_T*) of T and of its adjoint at GRAM_POINTS:
    G_T[i, j] = <T K_(w_i), T K_(w_j)> and G_T*[i, j] = <T* K_(w_i), T* K_(w_j)>.

    Both are finite sums of derivative kernels (``_kernel_sum_grams``), with
    no series and no truncation. T* K_w = conj(psi(w)) K^[n]_phi(w) for every
    pair, with psi(w) from ``RationalWeight.values``, so
    G_T* = conj(psi(w_i)) psi(w_j) <K^[n]_phi(w_i), K^[n]_phi(w_j)>. T K_w is
    a kernel sum (``_operator_kernel_sums``) when psi (1 + (c/d) z)^s is a
    polynomial of degree <= n: the weight exp(g) P (1 - rho z)^-e has n + 1
    coefficients in P, and its power cancels the map's (rho = -c/d and
    e = alpha+n+2) or neither has a pole (c = 0, and rho = 0 or e = 0), as
    for every family but ``explicit``. Otherwise G_T comes from the Taylor
    series of ``_series_operator_gram``; only that path grows a series
    (GRAM_TAIL) and bounds its rounding (GRAM_ROUNDING). Both paths read
    conj(w), made with its logarithm at import, and
    q = (conj(w) a - c) / (d - conj(w) b), made here.

    The pair must pass ``operator_gate`` and each point ``kernel_point_gate``.
    Only elementwise products and unoptimized ``einsum`` sums are used: no
    BLAS.
    """
    operator_gate(pair)
    u = np.array([kernel_point_gate(pair.phi, w) for w in GRAM_POINTS])
    w, wbar = _GRAM_W, _GRAM_WBAR
    weight, phi, n = pair.weight, pair.phi, pair.n
    adjoint = np.zeros((w.size, n + 1), dtype=complex)   # T* K_w = conj(psi(w)) (alpha+2)_n k_n
    adjoint[:, n] = weight.values(w).conj() * t_constant(alpha, n)
    q = (wbar * phi.a - phi.c) / (phi.d - wbar * phi.b)
    sigma = -phi.c / phi.d
    if weight.poly.size != n + 1 or not (
            (weight.rho == sigma and weight.exponent == alpha + n + 2)
            or (sigma == 0 and (weight.rho == 0 or weight.exponent == 0))):
        G_star = _kernel_sum_grams(u.conj(), adjoint, _GRAM_ZERO_SCALE, n, alpha)
        return _series_operator_gram(pair, alpha, wbar, q, G_star), G_star
    coeffs, log_scale = _operator_kernel_sums(pair, alpha, wbar, _GRAM_LOG_WBAR, q)
    G_T, G_star = _kernel_sum_grams(np.array((q, u.conj())), np.array((coeffs, adjoint)),
                                    np.array((log_scale, _GRAM_ZERO_SCALE)), n, alpha)
    return G_T, G_star


def normality_gram_defect(G_T: np.ndarray, G_star: np.ndarray) -> float:
    """``relative_defect`` of G_T* and G_T, the Grams of ``normality_gram``;
    zero exactly for a normal operator, up to rounding."""
    return relative_defect(G_star, G_T)


def norm_defect_kernel_test(G_T: np.ndarray, G_star: np.ndarray) -> float:
    """max over GRAM_POINTS of | ||T K_w||^2 / ||T* K_w||^2 - 1 |, read from
    the diagonals of the Grams of ``normality_gram``.

    A normal T has ||T K_w|| = ||T* K_w|| at every w, so the defect is zero
    up to rounding; a macroscopic defect certifies that T is not normal. The
    two norms come from different closed forms, T K_w from the weight's
    polynomial part and T* K_w from its values, so each side tests the other.
    """
    ratio = np.diagonal(G_T).real / np.diagonal(G_star).real
    return float(np.abs(ratio - 1).max())


def export_grid_csv(report: GridReport, path) -> None:
    """CSV with columns re(w), im(w), value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_w", "im_w", "value"])
        for w, v in report.samples:
            writer.writerow([repr(float(w.real)), repr(float(w.imag)), repr(float(v))])
