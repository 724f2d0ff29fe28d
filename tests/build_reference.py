"""The matrix build as it was before its fixed tables were cached.

``matrices._build`` keeps its work buffer, the views of every anti-diagonal
step and its scale factors in caches, and binds the step's ufuncs to locals.
This module keeps the build without any of that: a fresh buffer, fresh
views, and beta(j)^2 by its recurrence, on every call. The operands and the
order of every operation are those of the library, so the tests compare the
two matrices byte for byte.
"""

import numpy as np

from cswcd.bergman import falling_factorial


def beta_sq(N: int, alpha: float) -> np.ndarray:
    """beta(j)^2 for j = 0..N by the recurrence of ``bergman.beta_sq_vector``."""
    out = np.empty(N + 1)
    out[0] = 1.0
    for j in range(1, N + 1):
        out[j] = out[j - 1] * j / (j + alpha + 1)
    return out


def build_reference(psi_coeffs: np.ndarray, phi, n: int, alpha: float, N: int) -> np.ndarray:
    """The order-n matrix of (psi, phi) at truncation N: the anti-diagonal
    recurrence d G[m, k] = a G[m-1, k-1] + b G[m, k-1] - c G[m-1, k] in a
    buffer with a zero row on top, then the columns scaled by
    (j)_n / beta(j) and the rows by beta(m)."""
    K = N - n
    C = N + 1
    step = C - 1
    buf = np.zeros((N + 2, C), dtype=complex)
    flat = buf.reshape(-1)
    t, u = np.empty(C, dtype=complex), np.empty(C, dtype=complex)
    buf[1:, n] = psi_coeffs
    a, b, c, d = (np.array(v, dtype=complex) for v in (phi.a, phi.b, phi.c, phi.d))
    for s in range(1, N + K + 1):
        lo = s - K if s > K else 0
        hi = s - 1 if s <= N else N
        first = C + n + s + lo * step
        last = first + (hi - lo) * step
        up_left, left = flat[first - C - 1:last - C:step], flat[first - 1:last:step]
        up, at = flat[first - C:last + 1 - C:step], flat[first:last + 1:step]
        size = hi - lo + 1
        np.multiply(a, up_left, t[:size])
        np.multiply(b, left, u[:size])
        np.add(t[:size], u[:size], t[:size])
        np.multiply(c, up, u[:size])
        np.subtract(t[:size], u[:size], t[:size])
        np.divide(t[:size], d, at)
    M = buf[1:].copy()
    broot = np.sqrt(beta_sq(N, alpha))
    M[:, n:] *= falling_factorial(np.arange(n, N + 1), n) / broot[n:]
    M[:, n:] *= broot[:, None]
    return M
