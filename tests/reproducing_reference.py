"""The reproducing identity <f, kernel(w, m)> = f^(m)(w), as a test oracle.

``series_derivative`` differentiates a truncated series coefficientwise and
``reproducing_check`` compares the weighted inner product of a series with
the order-m kernel against the series' m-th derivative at w. No check of
the library reads either; the tests use them to check ``bergman.kernel``.
"""

import numpy as np

from cswcd.bergman import inner_product, kernel
from cswcd.errors import DomainError
from cswcd.series import TruncatedSeries, series_eval


def series_derivative(f: TruncatedSeries, k: int) -> TruncatedSeries:
    """k-th derivative; coefficient j becomes (j+k)!/j! * c_{j+k}.

    The top k coefficients of the result have no source data; they are set
    to zero.
    """
    if k < 0:
        raise DomainError("derivative order must be nonnegative")
    if k == 0:
        return f
    N = f.order
    out = np.zeros(N + 1, dtype=complex)
    j = np.arange(0, N + 1 - k)
    fall = np.ones_like(j, dtype=float)
    for i in range(k):
        fall = fall * (j + k - i)
    out[: N + 1 - k] = fall * f.coeffs[k:]
    return TruncatedSeries(out)


def reproducing_check(f: TruncatedSeries, w: complex, m: int, alpha: float) -> float:
    """|<f, kernel(w, m)> - f^(m)(w)|, the defect of the reproducing identity.

    Gated to |w| <= 0.7 so truncation tails stay controlled.
    """
    if abs(w) > 0.7:
        raise DomainError(f"reproducing check gate |w| <= 0.7 violated: {abs(w):.6f}")
    ip = inner_product(f, kernel(w, m, alpha, f.order), alpha)
    direct = series_eval(series_derivative(f, m), w)
    return abs(ip - direct)
