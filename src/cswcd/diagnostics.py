"""Boundedness/compactness evidence grids and structural operator predicates.

The grid reports are evidence, not certificates: the underlying criteria
are limit statements as |w| -> 1, undecidable from finitely many samples,
so every report carries its raw samples and a heuristic trend tag. The
structural predicates (Hermitian, normal) act on truncated matrices whose
entries are exact, with a guard band where matrix products are involved.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bergman import SpaceParams, kernel_norm_sq
from .defaults import GUARD_BAND
from .errors import DomainError, SingularityError, UnboundedSymbolError
from .matrices import OperatorMatrix, operator_gate
from .symbols import LinearFractionalMap, SymbolPair, _family_phi, lft_eval, lft_inverse

DEFAULT_RADII = (0.5, 0.7, 0.9, 0.97, 0.99, 0.997, 0.999)
DEFAULT_ANGLES = 64

TREND_BOUNDED = "bounded-looking"
TREND_DIVERGING = "diverging"
TREND_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GridReport:
    """Samples (w, value) over a polar grid with a supremum and a trend tag."""

    samples: tuple
    supremum: float
    trend: str
    radial_maxima: tuple


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


def _polar_grid(radii, angles: int) -> np.ndarray:
    """Points r e^(2 pi i k / angles), one row per radius r."""
    theta = 2 * np.pi * np.arange(angles) / angles
    return np.asarray(radii, dtype=float)[:, None] * np.exp(1j * theta)


def _grid_report(W: np.ndarray, keep: np.ndarray, values: np.ndarray) -> GridReport:
    """Report of the samples ``W[keep]``, whose values are ``values`` in
    row-major order; a radius with no kept sample has a NaN maximum."""
    full = np.full(W.shape, -np.inf)
    full[keep] = values
    radial_maxima = tuple(np.where(keep.any(axis=1), full.max(axis=1), np.nan).tolist())
    return GridReport(
        samples=tuple(zip(W[keep].tolist(), values.tolist())),
        supremum=float(values.max()) if values.size else math.nan,
        trend=_classify_trend(radial_maxima),
        radial_maxima=radial_maxima,
    )


def boundedness_ratio_grid(
    phi: LinearFractionalMap,
    alpha: float,
    n: int,
    radii=DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
) -> GridReport:
    """Ratio (1-|w|)^(alpha+2) / (1-|phi(w)|)^(alpha+2+2n) over a polar grid.

    For univalent phi the composition-differentiation operator of order n is
    bounded exactly when this ratio stays bounded as |w| -> 1, and compact
    exactly when it tends to 0. Samples with |phi(w)| >= 1 are skipped, and
    so is a sample at the pole of phi.
    """
    W = _polar_grid(radii, angles)
    with np.errstate(divide="ignore", invalid="ignore"):
        # inf or NaN at the pole of phi, which the comparison below skips
        image = np.abs((phi.a * W + phi.b) / (phi.c * W + phi.d))
    keep = image < 1.0
    values = (1 - np.abs(W[keep])) ** (alpha + 2) / (1 - image[keep]) ** (alpha + 2 + 2 * n)
    return _grid_report(W, keep, values)


def nevanlinna_univalent(phi: LinearFractionalMap, w: complex, alpha: float) -> float:
    """Counting value [ln(1/|z0|)]^(alpha+2) at the unique preimage z0 of w.

    Univalent maps have at most one preimage; when it falls outside the disk
    (at infinity for w = phi(infinity)) the sum is empty and the value is 0.
    The point w = phi(0) is excluded.
    """
    phi_0 = lft_eval(phi, 0.0)
    if w == phi_0:
        raise DomainError("w = phi(0) is excluded from the counting function")
    try:
        z0 = lft_eval(lft_inverse(phi), w)
    except SingularityError:
        return 0.0
    if abs(z0) >= 1.0:
        return 0.0
    return math.log(1.0 / abs(z0)) ** (alpha + 2)


def nevanlinna_bound_grid(
    phi: LinearFractionalMap,
    alpha: float,
    n: int,
    radii=DEFAULT_RADII,
    angles: int = DEFAULT_ANGLES,
) -> GridReport:
    """Counting function against [ln(1/|w|)]^(alpha+2+2n) over a polar grid.

    Boundedness of the order-n operator is equivalent to this ratio staying
    O(1) as |w| -> 1 (little-o for compactness). The samples w = 0 and
    w = phi(0) are excluded; the counting value is that of
    ``nevanlinna_univalent``.
    """
    W = _polar_grid(radii, angles)
    keep = (W != 0) & (W != phi.b / phi.d)
    with np.errstate(divide="ignore", invalid="ignore"):
        # inf or NaN at w = phi(infinity), whose preimage is outside the disk
        preimage = np.abs((phi.d * W - phi.b) / (phi.a - phi.c * W))
    inside = keep & (preimage < 1.0)
    counting = np.zeros(W.shape)
    counting[inside] = np.log(1.0 / preimage[inside]) ** (alpha + 2)
    values = counting[keep] / np.log(1.0 / np.abs(W[keep])) ** (alpha + 2 + 2 * n)
    return _grid_report(W, keep, values)


def necessary_conditions_check(pair: SymbolPair) -> tuple[str, ...]:
    """Names of the structural conditions that the pair violates, among the
    three any symmetric or normal order-n pair must satisfy: psi^(m)(0) = 0
    for m < n (``weight_flat_at_origin``), psi^(n)(0) != 0
    (``weight_order_exact``) and no zero of psi on the punctured disk scan
    (``weight_nonvanishing``).

    The zero scan walks |z| in 0.1..0.9 with 64 angles and trips when
    |psi(z)| <= 1e-10; for the rational families the only zero is at the
    origin, so this is a regression tripwire rather than a proof.
    """
    n = pair.n
    coeffs = pair.psi.coeffs
    grid = np.linspace(0.1, 0.9, 9)[:, None] * np.exp(2j * np.pi * np.arange(64) / 64)
    violated = (
        ("weight_flat_at_origin", np.any(coeffs[:n] != 0)),
        ("weight_order_exact", coeffs[n] == 0),
        ("weight_nonvanishing", np.any(np.abs(np.polyval(coeffs[::-1], grid)) <= 1e-10)),
    )
    return tuple(name for name, bad in violated if bad)


def is_hermitian(M: OperatorMatrix) -> float:
    """Frobenius-relative defect of M = M*; entrywise exact, no guard."""
    A = M.entries
    den = np.linalg.norm(A)
    if den == 0:
        return 0.0
    return float(np.linalg.norm(A - A.conj().T) / den)


def is_normal(M: OperatorMatrix) -> float:
    """Commutator defect ||M M* - M* M||_F / ||M||_F^2 on the guarded block.

    The products mix truncated tails, so the trailing GUARD_BAND
    rows/columns are excluded from the comparison.
    """
    A = M.entries
    keep = max(M.dim - GUARD_BAND, 1)
    comm = A @ A.conj().T - A.conj().T @ A
    den = np.linalg.norm(A) ** 2
    if den == 0:
        return 0.0
    return float(np.linalg.norm(comm[:keep, :keep]) / den)


def kernel_balance_gate(pair: SymbolPair, w: complex) -> tuple[complex, complex]:
    """Return the kernel images (p1, p2) of ``norm_defect_kernel_test`` if
    |w| <= 0.7, |p1| < 1, |p2| < 1 and the pair passes ``operator_gate``;
    else refuse. Outside the disk the kernel norms are undefined, and the
    normality they test is a claim about bounded operators."""
    if abs(w) > 0.7:
        raise UnboundedSymbolError(f"kernel point gate |w| <= 0.7 violated: {abs(w):.6f}")
    b, c = pair.params["b"], pair.params["c"]
    # p1 is the family map with conj(b) for b, evaluated as p2 is, so that
    # |p1| = |p2| holds exactly for a real b
    p1 = lft_eval(_family_phi(np.conj(b), np.conj(c), c), w)
    p2 = lft_eval(pair.phi, w)
    for name, point in (("p1", p1), ("p2", p2)):
        if abs(point) >= 1.0:
            raise UnboundedSymbolError(
                f"kernel image {name} left the disk: |{name}| = {abs(point):.6f}"
            )
    operator_gate(pair)
    return p1, p2


def norm_defect_kernel_test(pair: SymbolPair, w: complex, space: SpaceParams) -> float:
    """| ||D K_w||^2 - ||D* K_w||^2 | from the two rational closed forms.

    For the conjugated-denominator family with parameters (a, b, c), the
    operator maps the kernel at w to a multiple of the order-n kernel at

        p1 = c + conj(b) w / (1 - conj(c) w),

    while its adjoint maps it to a multiple of the order-n kernel at
    p2 = phi(w); the shared prefactor has modulus
    |a| |w|^n / (n! |1 - conj(c) w|^(n+alpha+2)). Equality of the two norms
    for every w is a consequence of normality, and |p1| != |p2| certifies
    its failure. The point must pass ``kernel_balance_gate``.
    """
    if pair.provenance not in ("general", "self-adjoint"):
        raise DomainError(
            "kernel-norm test applies to the conjugated-denominator family, "
            f"got provenance {pair.provenance!r}"
        )
    p1, p2 = kernel_balance_gate(pair, w)
    a, c = pair.params["a"], pair.params["c"]
    n, alpha = pair.n, space.alpha
    pref = (
        abs(a) ** 2
        * abs(w) ** (2 * n)
        / (math.factorial(n) ** 2 * abs(1 - np.conj(c) * w) ** (2 * (n + alpha + 2)))
    )
    lhs = pref * kernel_norm_sq(p1, n, alpha).value
    rhs = pref * kernel_norm_sq(p2, n, alpha).value
    return abs(lhs - rhs)


def export_grid_csv(report: GridReport, path) -> None:
    """CSV with columns re(w), im(w), value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["re_w", "im_w", "value"])
        for w, v in report.samples:
            writer.writerow([repr(float(w.real)), repr(float(w.imag)), repr(float(v))])
