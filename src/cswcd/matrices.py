"""Truncated matrices of weighted composition-differentiation operators.

Matrices are taken in the orthonormal basis e_j = z^j / beta(j), so the
coordinates of f = sum c_j z^j are x_j = c_j beta(j). Column j of the
order-n operator f -> psi * (f^(n) o phi) is the coordinate vector of

    (j!/(j-n)!) * psi * phi^(j-n) / beta(j).

The Taylor coefficients G[m, k] = [z^m] psi * phi^k come from one
recurrence. With phi = (a z + b) / (c z + d), the functions G_k = psi phi^k
satisfy (d + c z) G_k = (a z + b) G_(k-1), that is

    d G[m, k] = a G[m-1, k-1] + b G[m, k-1] - c G[m-1, k],

with G[m, 0] = psi_m and G[-1, k] = 0. Entry (m, k) reads only entries in
rows <= m, so every retained entry equals the corresponding entry of the
infinite matrix up to rounding. In this basis beta(j) is real, so symmetry
of the matrix is exactly symmetry of the operator under coefficient
conjugation.

The recurrence runs one anti-diagonal at a time in a work buffer whose
per-step views are made once per (N, n) and kept for the next build at that
shape (``_workspace``); each build scales and returns a fresh copy of the
matrix rows, so no built matrix shares memory with the buffer.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bergman import (SpaceParams, beta_root_vector, beta_sq_vector, falling_factorial, kernel,
                      kernel_table)
from .errors import NonFiniteError, TruncationMismatchError, UnboundedSymbolError, format_magnitude
from .series import TruncatedSeries, series_values
from .symbols import (
    LinearFractionalMap,
    SymbolPair,
    lft_eval,
    require_pole_outside_disk,
    sigma_companion,
    sup_norm_lft,
)

# units of rounding of sup_norm_lft, times its conditioning, within which
# the companion gate counts sup|phi| as 1
COMPANION_ROUNDING = 64
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class OperatorMatrix:
    """Entries M[i][j] = <T e_j, e_i> of a truncated operator matrix.

    The entries are a read-only complex array that no caller can write: a
    complex array that owns its data and is read-only already (as ``_build``
    returns) is kept as it is, and anything else is copied. A non-finite
    entry is a ``NonFiniteError``.
    """

    entries: np.ndarray
    space: SpaceParams

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("entries must be a square matrix")
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix entries must be finite")
        if arr.flags.writeable or not arr.flags.owndata:
            arr = arr.copy()
            arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@lru_cache(maxsize=1)
def _workspace(N: int, n: int) -> tuple:
    """The work buffer of ``_build`` at (N, n) and the views of each of its
    anti-diagonal steps, made once and reused by every build at that shape.

    The buffer has N + 2 rows: a zero row on top (row -1 of the recurrence)
    and then the matrix, C = N + 1 columns wide, C-contiguous. Entry
    G[m, k] = [z^m] psi * phi^k sits in matrix column n + k, so the
    anti-diagonal m + k = s is the flat slice from C + n + s with step
    C - 1, and its neighbours (m, k-1), (m-1, k) and (m-1, k-1) sit 1, C and
    C + 1 places before each of its entries. Step s gets the views
    (up_left, left, up, at) of those four slices and the views (t, u) of two
    contiguous scratch vectors of the diagonal's length.

    A build writes psi into column n and then every cell of columns n + 1..N
    below the zero row before it reads it; the zero row and the columns
    before n are never written. So the buffer needs no reset between builds.
    One shape is kept: (N + 2)(N + 1) complex values, about 64 MiB at
    MAX_WORK_DIM, plus 2N - n view tuples.
    """
    K = N - n
    C = N + 1
    step = C - 1
    buf = np.zeros((N + 2, C), dtype=complex)
    flat = buf.reshape(-1)
    x, y = np.empty(C, dtype=complex), np.empty(C, dtype=complex)
    steps = []
    for s in range(1, N + K + 1):
        lo = s - K if s > K else 0       # the rows with k >= 1
        hi = s - 1 if s <= N else N
        first = C + n + s + lo * step
        last = first + (hi - lo) * step
        steps.append((flat[first - C - 1:last - C:step], flat[first - 1:last:step],
                      flat[first - C:last + 1 - C:step], flat[first:last + 1:step],
                      x[: hi - lo + 1], y[: hi - lo + 1]))
    return buf, tuple(steps)


@lru_cache(maxsize=8)
def _scale_factors(N: int, n: int, alpha: float) -> tuple:
    """The column factor (j)_n / beta(j) for j = n..N and the row factor
    beta(m) as a column, both read-only: ``_build`` scales G[m, j - n] by
    both, in that order, and they depend only on (N, n, alpha)."""
    broot = beta_root_vector(N, alpha)
    column = falling_factorial(np.arange(n, N + 1), n) / broot[n:]
    row = broot[:, None]
    column.flags.writeable = False
    return column, row


def _build(psi: TruncatedSeries, phi: LinearFractionalMap, n: int, space: SpaceParams) -> np.ndarray:
    """The matrix, built in the work buffer of ``_workspace``.

    One step per anti-diagonal computes it from the two before it: the three
    products and their sum go through the two scratch vectors, and the
    quotient by d is written straight into the diagonal. The coefficients
    are 0-d arrays, so no ufunc call converts a Python complex. A fresh copy
    of the matrix rows is then scaled, columns n..N, and returned read-only,
    so ``OperatorMatrix`` keeps it without a second copy; the buffer stays
    with the cache, and so do the scale factors (``_scale_factors``).
    """
    N = space.N
    if psi.order != N:
        raise TruncationMismatchError(
            f"weight truncation {psi.order} does not match space truncation {N}"
        )
    require_pole_outside_disk(phi)
    buf, steps = _workspace(N, n)
    buf[1:, n] = psi.coeffs
    a, b, c, d = (np.array(v, dtype=complex) for v in (phi.a, phi.b, phi.c, phi.d))
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide
    for up_left, left, up, at, t, u in steps:
        multiply(a, up_left, t)
        multiply(b, left, u)
        add(t, u, t)
        multiply(c, up, u)
        subtract(t, u, t)
        divide(t, d, at)
    M = buf[1:].copy()
    column, row = _scale_factors(N, n, space.alpha)
    M[:, n:] *= column
    M[:, n:] *= row
    M.flags.writeable = False
    return M


def operator_gate(pair: SymbolPair) -> None:
    """Refuse the symbols unless ``SymbolPair.bounded_hint`` says the
    operator is bounded; every boundedness decision on a pair is made here."""
    if not pair.bounded_hint:
        raise UnboundedSymbolError(
            "no boundedness gate admits the symbols: "
            f"sup|phi| = {format_magnitude(sup_norm_lft(pair.phi))} "
            "and the pair carries no boundedness flag"
        )


def build_wcd_matrix(pair: SymbolPair, space: SpaceParams) -> OperatorMatrix:
    """Matrix of f -> psi * (f^(n) o phi) at the space truncation; the pair
    must pass ``operator_gate``."""
    operator_gate(pair)
    return OperatorMatrix(_build(pair.psi, pair.phi, pair.n, space), space)


def build_weighted_composition(
    psi: TruncatedSeries, phi: LinearFractionalMap, space: SpaceParams
) -> OperatorMatrix:
    """Order-0 specialization: the matrix of f -> psi * (f o phi)."""
    return OperatorMatrix(_build(psi, phi, 0, space), space)


def adjoint_matrix(M: OperatorMatrix) -> OperatorMatrix:
    """Conjugate transpose; entrywise exactness is preserved because
    truncation commutes with transposition."""
    return OperatorMatrix(M.entries.conj().T, M.space)


def frobenius_norm(A: np.ndarray) -> float:
    """sqrt of the sum of |A_ij|^2, summed over the contiguous float view by
    an unoptimized ``einsum``, which never calls the BLAS, so the bytes cannot
    depend on a BLAS build or thread count."""
    x = np.ascontiguousarray(A).view(np.float64).reshape(-1)
    return float(np.sqrt(np.einsum("i,i->", x, x, optimize=False)))


def relative_defect(A: np.ndarray, B: np.ndarray) -> float:
    """max |A - B| / max |A|, the defect of every kernel form and normality
    Gram B against its reference A; NaN, which a check reports 'unverified',
    when A is all zero: an underflowed reference carries no evidence."""
    # ufunc reductions, without ndarray.max's Python wrapper; a NaN propagates
    num = float(np.maximum.reduce(np.abs(A - B), axis=None))
    den = float(np.maximum.reduce(np.abs(A), axis=None))
    return num / den if den > 0 else np.nan


def apply(M: OperatorMatrix, f: TruncatedSeries) -> TruncatedSeries:
    """Apply the truncated operator to a series.

    Taylor coefficients are converted to basis coordinates (x_j = c_j beta(j)),
    multiplied through, and converted back. The matvec is an unoptimized
    ``einsum``, which sums each row in a fixed order and never calls the BLAS,
    so the bytes cannot depend on a BLAS build or thread count.
    """
    if f.order + 1 != M.dim:
        raise TruncationMismatchError(
            f"series truncation {f.order} does not match matrix dimension {M.dim - 1}"
        )
    broot = beta_root_vector(M.space.N, M.space.alpha)
    y = np.einsum("ij,j->i", M.entries, f.coeffs * broot, optimize=False)
    # componentwise float division; complex/float promotion would round x/x
    return TruncatedSeries(y.real / broot + 1j * (y.imag / broot))


def kernel_point_gate(phi: LinearFractionalMap, w: complex) -> complex:
    """Return phi(w) if |w| <= 0.7 and |phi(w)| <= 0.85; else refuse w.

    The bounds make the coefficients of both kernels decay geometrically,
    with ratios tending to |w| <= 0.7 and |phi(w)| <= 0.85, so the tails
    beyond a truncation N shrink like 0.85^N times a power of N. They do
    not make the tails negligible at every working truncation: at small N,
    or at large alpha, where the coefficients of the kernel at w peak near
    degree alpha |w| / (1 - |w|), the tails enter the defect of
    ``adjoint_on_kernels``.
    """
    if abs(w) > 0.7:
        raise UnboundedSymbolError(
            f"kernel point gate |w| <= 0.7 violated: {format_magnitude(abs(w))}")
    phi_w = lft_eval(phi, w)
    if abs(phi_w) > 0.85:
        raise UnboundedSymbolError(
            f"image gate |phi(w)| <= 0.85 violated: {format_magnitude(abs(phi_w))}"
        )
    return phi_w


@lru_cache(maxsize=32)
def conj_kernel_coordinates(points: tuple, alpha: float, N: int) -> np.ndarray:
    """Conjugated basis coordinates conj(k_w beta(j)) of the kernels at
    ``points``, one row per point, read-only: the table that
    ``adjoint_on_kernels`` reads.

    They depend only on the points, alpha and N, which stay the same for
    every draw of a sweep, so the tables are cached and shared, as
    ``beta_sq_vector`` is; the returned array cannot be written.
    """
    coords = np.conj(kernel_table(points, 0, alpha, N) * beta_root_vector(N, alpha))
    coords.flags.writeable = False
    return coords


def adjoint_on_kernels(M: OperatorMatrix, pair: SymbolPair, points) -> np.ndarray:
    """Defects of the adjoint identity on point-evaluation kernels, one per
    point, evaluated two ways in one pass.

    The adjoint of the bounded operator sends the kernel at w to
    conj(psi(w)) times the order-n kernel at phi(w). The left side applies
    the conjugate transpose of M, the truncated matrix of the pair, to the
    coordinates of every kernel at once, by one unoptimized ``einsum``: it
    sums each entry in a fixed order and never calls the BLAS, so the bytes
    cannot depend on a BLAS build or thread count. The right side is the
    closed form, with psi(w) summed from the pair's series. Each defect is
    the space norm of the difference. Every point must pass
    ``kernel_point_gate``; they are gated in order before anything is
    computed.

    The sums run on M itself against the conjugated coordinates, and their
    (points, N + 1) result is conjugated: conjugation is exact, so these are
    the bits of the sums on the conjugated matrix, without conjugating its
    (N + 1)^2 entries.
    """
    points = tuple(points)
    phi_w = [kernel_point_gate(pair.phi, w) for w in points]
    space = M.space
    bsq = beta_sq_vector(space.N, space.alpha)
    broot = beta_root_vector(space.N, space.alpha)
    y = np.einsum("ij,pi->pj", M.entries,
                  conj_kernel_coordinates(points, space.alpha, space.N), optimize=False).conj()
    psi_w = series_values(pair.psi, points)
    via_formula = kernel_table(phi_w, pair.n, space.alpha, space.N) * np.conj(psi_w)[:, None]
    # componentwise float division; complex/float promotion would round x/x
    diff = y.real / broot + 1j * (y.imag / broot) - via_formula
    return np.sqrt(np.sum(diff * np.conj(diff) * bsq, axis=1).real)


def adjoint_on_kernel(M: OperatorMatrix, pair: SymbolPair, w: complex) -> float:
    """The defect of ``adjoint_on_kernels`` at the one point w."""
    return float(adjoint_on_kernels(M, pair, (w,))[0])


def companion_gate(phi: LinearFractionalMap) -> None:
    """Refuse phi unless sup |phi| < 1 by more than the rounding of
    ``sup_norm_lft``, where Cowen's companion pair is defined; both forms of
    the companion adjoint identity are gated here.

    A disk automorphism has sup |phi| = 1 exactly, and ``sup_norm_lft``
    returns it within a few units of rounding of 1 on either side; that
    rounding grows like 1 / (1 - |c/d|^2). The margin, COMPANION_ROUNDING
    such units scaled by that factor, refuses every automorphism, whatever
    the last bit of its computed norm.
    """
    norm = sup_norm_lft(phi)
    # a finite norm puts the pole outside the closed disk, so |c/d| < 1
    if not (norm < 1.0 and 1.0 - norm
            > COMPANION_ROUNDING * _EPS / (1 - abs(phi.c / phi.d) ** 2)):
        raise UnboundedSymbolError(
            f"companion pair needs sup|phi| < 1, got {format_magnitude(norm)}"
        )


def cowen_adjoint_pair(
    phi: LinearFractionalMap, n: int, space: SpaceParams
) -> tuple[SymbolPair, SymbolPair]:
    """Adjoint pair induced by the companion map sigma: the matrix reference
    of the companion adjoint identity.

    For a linear fractional self-map phi with sup |phi| < 1, the adjoint of
    the operator weighted by the order-n kernel at sigma(0) along phi is the
    operator weighted by the order-n kernel at phi(0) along sigma. Returns
    (pairA, pairB) with adjoint(matrix(pairA)) = matrix(pairB) entrywise;
    sigma maps the disk into itself, so both pairs pass ``operator_gate``.
    The ``adjoint-pair`` check compares the two operators on kernels instead
    (``conjugations.kernel_companion_defect``); the tests compare it with
    these matrices.
    """
    companion_gate(phi)
    sigma = sigma_companion(phi)
    phi_0 = lft_eval(phi, 0.0)
    sigma_0 = lft_eval(sigma, 0.0)
    pair_a = SymbolPair.from_series(kernel(sigma_0, n, space.alpha, space.N), phi, n)
    pair_b = SymbolPair.from_series(kernel(phi_0, n, space.alpha, space.N), sigma, n)
    return pair_a, pair_b


def export_matrix_csv(M: OperatorMatrix, path) -> None:
    """Dense CSV export, row-major, one "re,im" pair of cells per entry."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in M.entries:
            cells = []
            for value in row:
                cells.append(repr(float(value.real)))
                cells.append(repr(float(value.imag)))
            writer.writerow(cells)
