"""The Nevanlinna counting value of a univalent map at one point, as a test
oracle for ``diagnostics.nevanlinna_bound_grid``, which computes the same
value for a whole polar grid at once."""

import math

from cswcd.errors import DomainError, SingularityError
from cswcd.symbols import LinearFractionalMap, lft_eval, lft_inverse


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
