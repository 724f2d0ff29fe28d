"""The zero scan of ``necessary-conditions`` as a folded FFT.

``diagnostics._circle_values`` evaluates the weight's polynomial P on the
scan points by Horner's rule. Before that, P was evaluated on each circle
|z| = r as SCAN_ANGLES times the inverse DFT of the coefficients P_j r^j,
with the terms whose degrees agree modulo SCAN_ANGLES summed first. The
values differ in their last bits; the tests require the same verdicts.
Both scans trip where |P(z)| <= 1e-10 sum_k |P_k| r^k on the circle |z| = r.
"""

import numpy as np

from cswcd.diagnostics import SCAN_ANGLES, SCAN_RADII


def circle_values_fft(coeffs: np.ndarray) -> np.ndarray:
    """P at r e^(2 pi i k / SCAN_ANGLES), one row per radius r of SCAN_RADII."""
    blocks = -(-coeffs.size // SCAN_ANGLES)
    terms = np.zeros((SCAN_RADII.size, blocks * SCAN_ANGLES), dtype=complex)
    terms[:, :coeffs.size] = coeffs * SCAN_RADII[:, None] ** np.arange(coeffs.size)
    folded = terms.reshape(SCAN_RADII.size, blocks, SCAN_ANGLES).sum(axis=1)
    return np.fft.ifft(folded, axis=1) * SCAN_ANGLES


def necessary_conditions_fft(pair) -> tuple:
    """``diagnostics.necessary_conditions_check`` with the FFT scan."""
    n = pair.n
    coeffs = pair.weight.poly
    size = (np.abs(coeffs) * SCAN_RADII[:, None] ** np.arange(coeffs.size)).sum(axis=1)
    violated = (
        ("weight_flat_at_origin", np.any(coeffs[:n] != 0)),
        ("weight_order_exact", coeffs.size <= n or coeffs[n] == 0),
        ("weight_nonvanishing",
         np.any(np.abs(circle_values_fft(coeffs)) <= 1e-10 * size[:, None])),
    )
    return tuple(name for name, bad in violated if bad)
