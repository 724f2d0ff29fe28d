"""The dense reference for the weighted-composition conjugation (wc-J).

The library checks wc-J on reproducing kernels, at the config's own
truncation. Its dense U acts like a unitary only at a truncation that holds
the spread of the disk automorphism at p, which moves the coefficient mass
of degree j to about j (1+|p|)/(1-|p|): ``extended_space(space, p)``. The
tests build the conjugation and the operator there and compare the identities
on a leading block of the requested truncation N.
"""

from dataclasses import replace

import numpy as np

from cswcd.bergman import space_norm
from cswcd.conjugations import conjugated_adjoint, conjugation_apply, extended_space
from cswcd.matrices import build_wcd_matrix
from cswcd.series import TruncatedSeries

GUARD = 8   # trailing rows and columns of the requested truncation left out of C T* C = T


def extended(C):
    """The wc-J conjugation C at the extended truncation of its own space.
    Its weight is (k, conj(p)), which gives p back."""
    return replace(C, space=extended_space(C.space, np.conj(C.weight[1])))


def wc_symmetry_defect(C, pair_at) -> float:
    """Frobenius-relative defect of C T* C = T on the leading
    N + 1 - GUARD block, for C at truncation N; the conjugation and the
    operator, whose pair at a truncation is ``pair_at(space)``, are built at
    the extended truncation."""
    keep = max(C.space.N + 1 - GUARD, 1)
    C = extended(C)
    M = build_wcd_matrix(pair_at(C.space), C.space)
    target = conjugated_adjoint(C, M).entries[:keep, :keep]
    block = M.entries[:keep, :keep]
    return float(np.linalg.norm(target - block) / np.linalg.norm(block))


def wc_involution_defect(C, f, N) -> float:
    """Relative space-norm defect of C(C(f)) = f on the leading N + 1
    coefficients, for C at an extended truncation: applying C twice leaves
    dust far beyond the input degree, which is not part of the identity."""
    alpha = C.space.alpha
    twice = conjugation_apply(C, conjugation_apply(C, f)).coeffs[: N + 1]
    return (space_norm(TruncatedSeries(twice - f.coeffs[: N + 1]), alpha)
            / space_norm(TruncatedSeries(f.coeffs[: N + 1]), alpha))
