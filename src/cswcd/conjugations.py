"""Antilinear conjugations and the complex-symmetry test C T* C = T.

A conjugation is stored in factored form: coefficient conjugation followed
by a unitary linear part U. This makes the symmetry test a two-product
formula, since in a basis fixed by coefficient conjugation

    matrix(C T* C) = U . M^T . conj(U).

Three kinds are built here: the plain coefficient conjugation (U = I), the
rotation kind with diagonal U[j][j] = mu lam^j, and the weighted-composition
kind whose U comes from the unitary symbol pair at a point p of the disk.
The first two are exact: U is diagonal, stored as its diagonal d, and C T* C
is the elementwise d_i M[j, i] conj(d_j), equal to the infinite operator's
entries at every truncation. The weighted-composition kind keeps a dense U,
and ``conjugated_adjoint`` forms its product only on the claim window, the
leading ``claim_dim`` rows and columns that the symmetry test reads.

The weighted-composition kind needs care under truncation: composing with a
disk automorphism spreads the coefficient mass of basis vector j across
rows up to roughly j (1+|p|)/(1-|p|), so a fixed trailing guard band cannot
make the truncated U act like a unitary at the build size. ``make_wc_J``
therefore builds U at an extended truncation (``extended_space``); the
conjugation's ``claim_dim`` keeps the claims on the requested leading block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bergman import SpaceParams, space_norm
from .defaults import GUARD_BAND
from .errors import DomainError, TruncationMismatchError
from .matrices import OperatorMatrix, apply, build_weighted_composition
from .series import TruncatedSeries, series_add, series_conjugate_reflect, series_scale
from .symbols import unitary_symbols

EXTENSION_SLACK = 48       # terms of the extended truncation beyond the mass spread


@dataclass(frozen=True)
class AntilinearConjugation:
    """Antilinear map: conjugate coefficients, then apply the unitary part.

    ``unitary`` is the read-only diagonal of U for the exact kinds, else the
    weighted-composition U at the truncation ``space``, unitary only on a
    leading block. The claims hold on the leading ``claim_dim`` coefficients.
    """

    unitary: np.ndarray | OperatorMatrix
    space: SpaceParams
    kind: str
    claim_dim: int

    def __post_init__(self):
        if self.exact:
            self.unitary.flags.writeable = False

    @property
    def exact(self) -> bool:
        """Whether U is diagonal, so that the claims hold entry by entry."""
        return isinstance(self.unitary, np.ndarray)


def make_J(space: SpaceParams) -> AntilinearConjugation:
    """Coefficient conjugation f(z) -> conj(f(conj z)); unitary part I.

    The basis e_j = z^j/beta(j) has real coefficients, so this conjugation
    fixes it and the factored form is exact.
    """
    ones = np.ones(space.N + 1, dtype=complex)
    return AntilinearConjugation(ones, space, "plain-J", space.N + 1)


def make_rotation_J(mu: complex, lam: complex, space: SpaceParams) -> AntilinearConjugation:
    """Rotation kind: weight mu, composition with lam z; U = diag(mu lam^j)."""
    if abs(abs(mu) - 1.0) > 1e-12 or abs(abs(lam) - 1.0) > 1e-12:
        raise DomainError("mu and lam must be unimodular")
    diag = mu * lam ** np.arange(space.N + 1)
    return AntilinearConjugation(diag, space, "rotation-J", space.N + 1)


def make_wc_J(p: complex, lambda_u: complex, space: SpaceParams) -> AntilinearConjugation:
    """Weighted-composition kind at p != 0 for the truncation of ``space``.

    U is built at ``extended_space(space, p)``, and the claims are asserted
    on the leading space.N + 1 coefficients.
    """
    work = extended_space(space, p)
    pair = unitary_symbols(p, lambda_u, space.alpha, work.N)
    U = build_weighted_composition(pair.psi, pair.phi, work)
    return AntilinearConjugation(U, work, "wc-J", space.N + 1)


def extended_space(space: SpaceParams, p: complex) -> SpaceParams:
    """Truncation large enough that degree <= N inputs keep their image mass."""
    return SpaceParams(space.alpha, space.n, extended_order(space.N, p))


def extended_order(N: int, p: complex) -> int:
    """Truncation order of ``extended_space`` for order N.

    The automorphism at p pushes the coefficient mass of degree j to about
    j (1+|p|)/(1-|p|); EXTENSION_SLACK more terms cover the geometric tail
    beyond that.
    """
    r = abs(p)
    if r >= 1.0:
        raise DomainError(f"|p| must be < 1, got {r:.6f}")
    return math.ceil(N * (1 + r) / (1 - r)) + EXTENSION_SLACK


def conjugation_apply(C: AntilinearConjugation, f: TruncatedSeries) -> TruncatedSeries:
    """Conjugate the coefficients of f, then apply the unitary part; a
    diagonal U scales each coefficient."""
    if f.order != C.space.N:
        raise TruncationMismatchError(f"series order {f.order} != conjugation order {C.space.N}")
    conj = series_conjugate_reflect(f)
    if C.exact:
        return TruncatedSeries(C.unitary * conj.coeffs)
    return apply(C.unitary, conj)


def involution_defect(C: AntilinearConjugation, f: TruncatedSeries) -> float:
    """Relative space-norm defect of C(C(f)) = f on the leading C.claim_dim
    coefficients.

    For the weighted-composition kind, applying C twice at a finite
    truncation leaves dust at indices far beyond the input degree; the
    window makes the measurement reflect the identity, not the truncation.
    """
    twice = conjugation_apply(C, conjugation_apply(C, f))
    alpha, keep = C.space.alpha, C.claim_dim
    diff = series_add(twice, series_scale(f, -1.0))
    return (
        space_norm(TruncatedSeries(diff.coeffs[:keep]), alpha)
        / space_norm(TruncatedSeries(f.coeffs[:keep]), alpha)
    )


def isometry_defect(C: AntilinearConjugation, f: TruncatedSeries) -> float:
    """Relative defect of ||C f|| = ||f||."""
    alpha = C.space.alpha
    nf = space_norm(f, alpha)
    return abs(space_norm(conjugation_apply(C, f), alpha) - nf) / nf


def conjugated_adjoint(C: AntilinearConjugation, M: OperatorMatrix) -> OperatorMatrix:
    """Matrix of C T* C on the claim window: the leading k = C.claim_dim rows
    and columns of U . M^T . conj(U), at truncation k - 1.

    Coefficient conjugation turns the conjugate transpose into the plain
    transpose, leaving the two unitary factors. An exact kind's diagonal U
    scales rows and columns elementwise over the whole matrix; the
    weighted-composition kind multiplies only the k leading rows of U and
    the k leading columns of conj(U), which is the leading block of the full
    product up to rounding.
    """
    if M.dim != C.space.N + 1:
        raise TruncationMismatchError(
            f"conjugation dimension {C.space.N + 1} does not match matrix {M.dim}"
        )
    k = C.claim_dim
    if C.exact:
        out = C.unitary[:, None] * M.entries.T * np.conj(C.unitary)
    else:
        U = C.unitary.entries
        out = U[:k] @ M.entries.T @ np.conj(U[:, :k])
    return OperatorMatrix(out, replace(M.space, N=k - 1))


def is_C_symmetric(M: OperatorMatrix, C: AntilinearConjugation) -> float:
    """Frobenius-relative defect of C T* C = T.

    M must be built at ``C.space``; C T* C is formed on the claim window
    only (``conjugated_adjoint``). For an exact kind the entries of both
    sides are exact, so the whole matrix is compared. Otherwise the
    comparison is restricted to the leading (C.claim_dim - GUARD_BAND) block.
    """
    target = conjugated_adjoint(C, M).entries
    block = slice(None) if C.exact else slice(0, max(C.claim_dim - GUARD_BAND, 1))
    num = np.linalg.norm(target[block, block] - M.entries[block, block])
    den = np.linalg.norm(M.entries[block, block])
    return float(num / den) if den > 0 else float(num)
