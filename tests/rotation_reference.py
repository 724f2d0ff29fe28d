"""The rotation case of ``family_conjugated``, written out.

``symbols.family_conjugated`` transports the j-symmetric base pair by a
rotation with ``symbols.transported_weight``, as the unitary symbols
(lambda_u, g, L) = (mu, 0, lam z). Before that, the rotation case formed
its weight on its own:

    psi(z) = mu (a/n!) lam^n z^n (1 - c lam z)^-(n+alpha+2),
    phi(z) = phi_base(lam z).
"""

import math

import numpy as np

from cswcd.symbols import LinearFractionalMap, RationalWeight, lft_compose, rotation_map


def rotation_conjugated_reference(a: complex, b: complex, c: complex, n: int, alpha: float,
                                  mu: complex, lam: complex) -> tuple:
    """(weight, phi) of the rotation-conjugated pair, by the written-out formula."""
    poly = np.zeros(n + 1, dtype=complex)
    poly[n] = mu * (a / math.factorial(n)) * lam**n
    base_phi = LinearFractionalMap(b - c * c, c, -c, 1.0)    # c + b z / (1 - c z)
    return (RationalWeight(poly, c * lam, n + alpha + 2),
            lft_compose(base_phi, rotation_map(lam)))
