"""The kernel forms as they were before the conjugation kept its values at
KERNEL_POINTS: every call builds the points, phi_C(u), psi_C(u) and the
inverse map anew, and ``kernel_axioms_defect`` takes the maximum of four
maxima. ``tests/test_kernel_forms.py`` requires the library's defects to
equal these bit for bit.
"""

import numpy as np

from cswcd.bergman import t_constant
from cswcd.conjugations import KERNEL_POINTS
from cswcd.symbols import lft_eval, lft_inverse, sigma_companion


def _lft_values(phi, u):
    return (phi.a * u + phi.b) / (phi.c * u + phi.d)


def conjugation_weight(C, u):
    k, q = C.weight
    return k * (1 - q * u) ** -(C.alpha + 2)


def kernel_image(C, z):
    v = _lft_values(lft_inverse(C.phi), np.conj(z))
    return 1 / np.conj(conjugation_weight(C, v)), v


def _operator_on_kernels(phi, n, alpha, w_bar, psi_u):
    u = np.array(KERNEL_POINTS, dtype=complex)
    w_bar = w_bar[:, None]
    return (t_constant(alpha, n) * w_bar**n * psi_u
            * (1 - w_bar * _lft_values(phi, u)) ** -(alpha + n + 2))


def relative_asymmetry(A, A_swapped):
    num, den = float(np.abs(A - A_swapped).max()), float(np.abs(A).max())
    return num / den if den > 0 else num


def kernel_symmetry_form(pair, C, psi_u):
    u = np.array(KERNEL_POINTS, dtype=complex)
    ratio = psi_u / conjugation_weight(C, u)
    return _operator_on_kernels(pair.phi, pair.n, C.alpha, _lft_values(C.phi, u), ratio)


def kernel_hermitian_form(pair, alpha, psi_u):
    u = np.array(KERNEL_POINTS, dtype=complex)
    return _operator_on_kernels(pair.phi, pair.n, alpha, np.conj(u), psi_u)


def companion_weights(phi, n, alpha):
    u = np.array(KERNEL_POINTS, dtype=complex)
    w_bar = np.conj([lft_eval(sigma_companion(phi), 0.0), lft_eval(phi, 0.0)])[:, None]
    psi_a, psi_b = t_constant(alpha, n) * u**n * (1 - w_bar * u) ** -(alpha + n + 2)
    return psi_a, psi_b


def kernel_companion_forms(phi, n, alpha):
    psi_a, psi_b = companion_weights(phi, n, alpha)
    u_bar = np.conj(np.array(KERNEL_POINTS, dtype=complex))
    return (_operator_on_kernels(phi, n, alpha, u_bar, psi_a),
            _operator_on_kernels(sigma_companion(phi), n, alpha, u_bar, psi_b))


def kernel_axioms_defect(C):
    u = np.array(KERNEL_POINTS, dtype=complex)
    s = C.alpha + 2
    phi_C_u = _lft_values(C.phi, u)
    z = np.conj(phi_C_u)
    c, v = kernel_image(C, z)
    c_twice, v_twice = kernel_image(C, v)
    image = conjugation_weight(C, u) * (1 - z[:, None] * phi_C_u) ** -s
    expected = c[:, None] * (1 - np.conj(v)[:, None] * u) ** -s
    defects = (
        np.abs(v_twice - z),
        np.abs(np.conj(c) * c_twice - 1),
        np.abs(np.abs(c) ** 2 * ((1 - np.abs(z) ** 2) / (1 - np.abs(v) ** 2)) ** s - 1),
        np.abs(image - expected) / np.abs(expected),
    )
    return float(np.max([d.max() for d in defects]))
