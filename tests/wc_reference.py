"""The dense reference for the weighted-composition conjugation (wc-J).

The library checks wc-J on reproducing kernels, with no truncation. Its
dense U, which the matrix references build at the truncation of their
input, acts like a unitary only at a truncation that holds the spread of
the disk automorphism at p, which moves the coefficient mass of degree j to
about j (1+|p|)/(1-|p|): ``extended_space(space, p)``. The tests build the
operator and their inputs there and compare the identities on a leading
block of the requested truncation N.
"""

import numpy as np

from cswcd.bergman import SpaceParams, space_norm
from cswcd.conjugations import conjugated_adjoint, conjugation_apply, extended_space
from cswcd.matrices import build_wcd_matrix
from cswcd.series import TruncatedSeries

GUARD = 8   # trailing rows and columns of the requested truncation left out of C T* C = T
# the tolerance of wc_symmetry_defect: its block still carries the rounding
# of the products at the extended truncation
TOL_REFERENCE = 1e-8


def extended_order(C, N: int) -> int:
    """The extended truncation for the wc-J conjugation C at truncation N.
    Its weight is (k, conj(p)), which gives p back."""
    return extended_space(SpaceParams(C.alpha, 1, N), np.conj(C.weight[1])).N


def wc_symmetry_defect(C, space, pair_at) -> float:
    """Frobenius-relative defect of C T* C = T on the leading
    N + 1 - GUARD block of ``space``; the operator, whose pair at a
    truncation is ``pair_at(space)``, and with it U are built at the
    extended truncation."""
    keep = max(space.N + 1 - GUARD, 1)
    work = extended_space(space, np.conj(C.weight[1]))
    M = build_wcd_matrix(pair_at(work), work)
    target = conjugated_adjoint(C, M).entries[:keep, :keep]
    block = M.entries[:keep, :keep]
    return float(np.linalg.norm(target - block) / np.linalg.norm(block))


def wc_involution_defect(C, f, N) -> float:
    """Relative space-norm defect of C(C(f)) = f on the leading N + 1
    coefficients, for f at an extended truncation: applying C twice leaves
    dust far beyond the input degree, which is not part of the identity."""
    twice = conjugation_apply(C, conjugation_apply(C, f)).coeffs[: N + 1]
    return (space_norm(TruncatedSeries(twice - f.coeffs[: N + 1]), C.alpha)
            / space_norm(TruncatedSeries(f.coeffs[: N + 1]), C.alpha))
