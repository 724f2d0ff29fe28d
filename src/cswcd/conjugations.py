"""Antilinear conjugations and the complex-symmetry test C T* C = T.

Every conjugation here is a weighted composition after coefficient
conjugation, C f(z) = psi_C(z) conj(f(conj(phi_C(z)))), on the space A^2_alpha.
It carries alpha and its own symbols: the weight
psi_C(u) = k (1 - q u)^-(alpha+2), stored as the pair (k, q), and the map
phi_C, a ``LinearFractionalMap``. It carries no truncation.

- plain-J: (1, 0) and z;
- rotation-J: (mu, 0) and lam z;
- wc-J: (lambda_u (1-|p|^2)^((alpha+2)/2), conj(p)) and the unitary map at p.

Every check reads a conjugation on reproducing kernels, with no operator
matrix and no truncation: C sends each kernel
K_z(u) = (1 - conj(z) u)^-(alpha+2) to a multiple of a kernel,
C K_z = c_z K_(v_z) with v_z = phi_C^-1(conj z) and c_z = 1 / conj(psi_C(v_z)),
so T is C-symmetric exactly when B(w, z) = <T K_w, C K_z> =
conj(c_z) (T K_w)(v_z) is symmetric in (w, z) (the kernel test of
Garcia–Putinar), and self-adjoint exactly when A(w, z) = <T K_w, K_z> is
Hermitian. ``kernel_symmetry_defect`` and ``kernel_hermitian_defect``
evaluate these closed forms at KERNEL_POINTS, ``kernel_axioms_defect`` the
conjugation identities there for every kind, and ``kernel_companion_defect``
Cowen's companion identity T_A* = T_B, whose weights are kernels too.

``conjugation_apply``, ``involution_defect``, ``isometry_defect``,
``conjugated_adjoint`` and ``is_C_symmetric`` are the tests' matrix
reference. In a basis fixed by coefficient conjugation the linear part U of
C is the matrix of f -> psi_C (f o phi_C), and

    matrix(C T* C) = U . M^T . conj(U).

They build U at the truncation of their input (``unitary_part``). For
plain-J and rotation-J, the exact kinds, U is diagonal, stored as its
diagonal d, and C T* C is the elementwise d_i M[j, i] conj(d_j), equal to
the infinite operator's entries at every truncation. For wc-J, U is dense.
Composing with a disk automorphism spreads the coefficient mass of basis
vector j across rows up to roughly j (1+|p|)/(1-|p|), so the truncated U is
not unitary there, and a reference given a wc-J conjugation measures that
truncation as well as the identity. The tests build their dense reference
at ``extended_space``, a truncation that holds that spread, and compare a
leading block (``tests/wc_reference.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bergman import SpaceParams, space_norm, t_constant
from .errors import DomainError, format_magnitude
from .matrices import (
    OperatorMatrix,
    apply,
    build_weighted_composition,
    companion_gate,
    frobenius_norm,
    operator_gate,
    relative_defect,
)
from .series import (
    TruncatedSeries,
    expand_rational_kernel,
    series_add,
    series_conjugate_reflect,
    series_scale,
)
from .symbols import (
    IDENTITY_MAP,
    LinearFractionalMap,
    SymbolPair,
    is_unimodular,
    lft_eval,
    lft_inverse,
    lft_values,
    rotation_map,
    sigma_companion,
    unitary_parameters,
)

EXTENSION_SLACK = 48       # terms of the extended truncation beyond the mass spread

# fixed points u of the kernel forms, |u| <= 0.45
KERNEL_POINTS = (0.45, 0.32j, -0.38 + 0.12j, 0.21 - 0.36j, -0.17 - 0.29j, 0.08 + 0.41j,
                 -0.44, 0.27 + 0.18j)
_U = np.array(KERNEL_POINTS, dtype=complex)     # the same points, read-only, made once
_U_BAR = np.conj(_U)                            # and their conjugates
_U.flags.writeable = _U_BAR.flags.writeable = False


@dataclass(frozen=True)
class AntilinearConjugation:
    """Antilinear map f -> psi_C conj(f(conj(phi_C))) on A^2_alpha: conjugate
    the coefficients, then apply the weighted composition U of (psi_C, phi_C).

    ``weight`` is (k, q) with psi_C(u) = k (1 - q u)^-(alpha+2) and ``phi``
    is phi_C. What the kernel forms read of it, phi_C and psi_C at
    KERNEL_POINTS and the inverse map, is made the first time it is asked
    for and kept with the conjugation; ``dataclasses.replace`` gives a new
    conjugation that makes its own.
    """

    weight: tuple[complex, complex]
    phi: LinearFractionalMap
    alpha: float
    kind: str

    @property
    def exact(self) -> bool:
        """Whether U is diagonal (a constant weight and a rotation), so that
        the matrix references scale coefficients instead of building U."""
        phi = self.phi
        return self.weight[1] == 0 and phi.b == 0 and phi.c == 0

    @cached_property
    def inverse(self) -> LinearFractionalMap:
        """phi_C^-1, read by ``kernel_image``."""
        return lft_inverse(self.phi)

    @cached_property
    def phi_u(self) -> np.ndarray:
        """phi_C(u) at u = KERNEL_POINTS, read-only."""
        return _read_only(lft_values(self.phi, _U))

    @cached_property
    def weight_u(self) -> np.ndarray:
        """psi_C(u) at u = KERNEL_POINTS, read-only."""
        return _read_only(conjugation_weight(self, _U))


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def make_J(alpha: float) -> AntilinearConjugation:
    """Coefficient conjugation f(z) -> conj(f(conj z)); unitary part I.

    The basis e_j = z^j/beta(j) has real coefficients, so this conjugation
    fixes it and the factored form is exact.
    """
    return AntilinearConjugation((1.0 + 0j, 0j), IDENTITY_MAP, alpha, "plain-J")


def make_rotation_J(mu: complex, lam: complex, alpha: float) -> AntilinearConjugation:
    """Rotation kind: weight mu, composition with lam z; U = diag(mu lam^j)."""
    if not (is_unimodular(mu) and is_unimodular(lam)):
        raise DomainError("mu and lam must be unimodular")
    return AntilinearConjugation((complex(mu), 0j), rotation_map(lam), alpha, "rotation-J")


def make_wc_J(p: complex, lambda_u: complex, alpha: float) -> AntilinearConjugation:
    """Weighted-composition kind at p != 0, with the symbols of
    ``unitary_parameters``: k = lambda_u exp(g)."""
    g, q, phi = unitary_parameters(p, lambda_u, alpha)
    return AntilinearConjugation((lambda_u * math.exp(g), q), phi, alpha, "wc-J")


def unitary_part(C: AntilinearConjugation, N: int) -> np.ndarray | OperatorMatrix:
    """U at truncation N, built on each call: the diagonal k lam^j for an
    exact kind, else the dense weighted-composition matrix, for N >= 3."""
    k, q = C.weight
    if C.exact:
        return k * C.phi.a ** np.arange(N + 1)
    # an order-0 build reads only alpha and N of its space
    space = SpaceParams(C.alpha, 1, N)
    psi = series_scale(expand_rational_kernel(C.alpha + 2, q, N), k)
    return build_weighted_composition(psi, C.phi, space)


def extended_space(space: SpaceParams, p: complex) -> SpaceParams:
    """A truncation at which the dense U of the wc-J kind at p keeps the image
    mass of degree <= N inputs: the automorphism at p pushes the mass of
    degree j to about j (1+|p|)/(1-|p|), and EXTENSION_SLACK more terms cover
    the geometric tail beyond that. The tests build their dense reference here.
    """
    r = abs(p)
    if r >= 1.0:
        raise DomainError(f"|p| must be < 1, got {format_magnitude(r)}")
    return SpaceParams(space.alpha, space.n,
                       math.ceil(space.N * (1 + r) / (1 - r)) + EXTENSION_SLACK)


def conjugation_apply(C: AntilinearConjugation, f: TruncatedSeries) -> TruncatedSeries:
    """Conjugate the coefficients of f, then apply U at the order of f; a
    diagonal U scales each coefficient.

    For wc-J the dense U is truncated, so C f is exact only on coefficients
    that the spread of the automorphism keeps inside the order of f: give f
    the order of ``extended_space`` and read a leading block.
    """
    conj = series_conjugate_reflect(f)
    U = unitary_part(C, f.order)
    if C.exact:
        return TruncatedSeries(U * conj.coeffs)
    return apply(U, conj)


def involution_defect(C: AntilinearConjugation, f: TruncatedSeries) -> float:
    """Relative space-norm defect of C(C(f)) = f.

    Exact for plain-J and rotation-J. For wc-J it measures the truncation of
    the dense U as well as the identity, unless f has the order of
    ``extended_space`` and the leading coefficients are compared.
    """
    alpha = C.alpha
    twice = conjugation_apply(C, conjugation_apply(C, f))
    return space_norm(series_add(twice, series_scale(f, -1.0)), alpha) / space_norm(f, alpha)


def isometry_defect(C: AntilinearConjugation, f: TruncatedSeries) -> float:
    """Relative defect of ||C f|| = ||f||.

    Exact for plain-J and rotation-J; for wc-J it also measures the
    truncation of the dense U (see ``involution_defect``).
    """
    alpha = C.alpha
    nf = space_norm(f, alpha)
    return abs(space_norm(conjugation_apply(C, f), alpha) - nf) / nf


def conjugated_adjoint(C: AntilinearConjugation, M: OperatorMatrix) -> OperatorMatrix:
    """Matrix of C T* C: U . M^T . conj(U), with U at M's truncation.

    Coefficient conjugation turns the conjugate transpose into the plain
    transpose, leaving the two unitary factors. An exact kind's diagonal U
    scales rows and columns elementwise.
    """
    U = unitary_part(C, M.space.N)
    if C.exact:
        out = U[:, None] * M.entries.T * np.conj(U)
    else:
        out = U.entries @ M.entries.T @ np.conj(U.entries)
    return OperatorMatrix(out, M.space)


def is_C_symmetric(M: OperatorMatrix, C: AntilinearConjugation) -> float:
    """Frobenius-relative defect of C T* C = T over the whole matrix. For an
    exact kind the entries of both sides are exact. For wc-J the truncated U
    makes the far rows and columns wrong, so the defect measures the
    truncation unless T is built at ``extended_space`` and a leading block is
    compared. The checks use ``kernel_symmetry_defect`` instead; this is the
    tests' matrix reference.
    """
    num = frobenius_norm(conjugated_adjoint(C, M).entries - M.entries)
    den = frobenius_norm(M.entries)
    return num / den if den > 0 else num


def conjugation_weight(C: AntilinearConjugation, u: np.ndarray) -> np.ndarray:
    """psi_C(u) = k (1 - q u)^-(alpha+2), from its closed form."""
    k, q = C.weight
    return k * (1 - q * u) ** -(C.alpha + 2)


def kernel_image(C: AntilinearConjugation, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_z, v_z) with C K_z = c_z K_(v_z): v_z = phi_C^-1(conj z) and
    c_z = 1 / conj(psi_C(v_z))."""
    v = lft_values(C.inverse, np.conj(z))
    return 1 / np.conj(conjugation_weight(C, v)), v


def kernel_weight_values(pair: SymbolPair) -> np.ndarray:
    """psi(u) at u = KERNEL_POINTS from the pair's closed-form weight, for a
    pair that passes ``operator_gate``: the weight values every kernel form
    reads. No series is built."""
    operator_gate(pair)
    return pair.weight.values(_U)


def _operator_on_kernels(phi: LinearFractionalMap, n: int, alpha: float, w_bar: np.ndarray,
                         psi_u: np.ndarray) -> np.ndarray:
    """(T K_(w_i))(u_j) = psi(u_j) (alpha+2)_n conj(w_i)^n
    (1 - conj(w_i) phi(u_j))^-(alpha+n+2) for u = KERNEL_POINTS and T the
    order-n operator of (psi, phi), given w_bar = conj(w) and psi_u = psi(u)."""
    w_bar = w_bar[:, None]
    return (t_constant(alpha, n) * w_bar**n * psi_u
            * (1 - w_bar * lft_values(phi, _U)) ** -(alpha + n + 2))


def kernel_symmetry_form(pair: SymbolPair, C: AntilinearConjugation,
                         psi_u: np.ndarray) -> np.ndarray:
    """B[i, j] = B(z_i, z_j) = <T K_(z_i), C K_(z_j)> at z_i = conj(phi_C(u_i))
    for u = KERNEL_POINTS, given psi_u = psi(u).

    These z have v_z = u and c_z = 1 / conj(psi_C(u)), so
    B[i, j] = psi(u_j) (alpha+2)_n phi_C(u_i)^n
    (1 - phi_C(u_i) phi(u_j))^-(alpha+n+2) / psi_C(u_j), with n the pair's
    order: every factor is a closed form or a weight value at |u| <= 0.45.
    """
    return _operator_on_kernels(pair.phi, pair.n, C.alpha, C.phi_u, psi_u / C.weight_u)


def kernel_symmetry_defect(pair: SymbolPair, C: AntilinearConjugation,
                           psi_u: np.ndarray) -> float:
    """``relative_defect`` of B and B^T, B the form of ``kernel_symmetry_form``;
    zero exactly when T is C-symmetric on these kernels, up to rounding.

    psi_u comes from ``kernel_weight_values``, which gates the pair. No
    operator matrix, no truncation of T and no BLAS.
    """
    B = kernel_symmetry_form(pair, C, psi_u)
    return relative_defect(B, B.T)


def kernel_hermitian_form(pair: SymbolPair, alpha: float, psi_u: np.ndarray) -> np.ndarray:
    """A[i, j] = <T K_(u_i), K_(u_j)> = (T K_(u_i))(u_j) =
    psi(u_j) (alpha+2)_n conj(u_i)^n (1 - conj(u_i) phi(u_j))^-(alpha+n+2)
    for u = KERNEL_POINTS, given psi_u = psi(u)."""
    return _operator_on_kernels(pair.phi, pair.n, alpha, _U_BAR, psi_u)


def kernel_hermitian_defect(pair: SymbolPair, alpha: float, psi_u: np.ndarray) -> float:
    """``relative_defect`` of A and A^H, A the form of ``kernel_hermitian_form``;
    zero exactly when <T K_w, K_z> = <K_w, T K_z> at these kernels, that is
    when T is self-adjoint on them, up to rounding.

    psi_u comes from ``kernel_weight_values``, which gates the pair. No
    operator matrix, no truncation of T and no BLAS.
    """
    A = kernel_hermitian_form(pair, alpha, psi_u)
    return relative_defect(A, A.conj().T)


def companion_weights(phi: LinearFractionalMap, n: int, alpha: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(psi_A(u), psi_B(u)) at u = KERNEL_POINTS for Cowen's companion pair
    of phi (``cowen_adjoint_pair``), from their closed forms: the order-n
    kernels at sigma(0) and at phi(0),
    psi(u) = (alpha+2)_n u^n (1 - conj(w) u)^-(alpha+n+2)."""
    w_bar = np.conj([lft_eval(sigma_companion(phi), 0.0), lft_eval(phi, 0.0)])[:, None]
    psi_a, psi_b = t_constant(alpha, n) * _U**n * (1 - w_bar * _U) ** -(alpha + n + 2)
    return psi_a, psi_b


def kernel_companion_forms(phi: LinearFractionalMap, n: int, alpha: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) with A[i, j] = (T_A K_(u_i))(u_j) and B[i, j] = (T_B K_(u_i))(u_j)
    for u = KERNEL_POINTS, where T_A is the order-n operator of (psi_A, phi)
    and T_B that of (psi_B, sigma), with the weights of ``companion_weights``.

    T_A* = T_B on these kernels exactly when
    <T_A K_(u_i), K_(u_j)> = <K_(u_i), T_B K_(u_j)>, that is A = B^H.
    """
    psi_a, psi_b = companion_weights(phi, n, alpha)
    return (_operator_on_kernels(phi, n, alpha, _U_BAR, psi_a),
            _operator_on_kernels(sigma_companion(phi), n, alpha, _U_BAR, psi_b))


def kernel_companion_defect(phi: LinearFractionalMap, n: int, alpha: float) -> float:
    """``relative_defect`` of B^H and A for the forms of ``kernel_companion_forms``;
    zero exactly when Cowen's companion identity T_A* = T_B holds on these
    kernels, up to rounding.

    Gated by ``companion_gate``. Both weights and both maps are closed
    forms: no operator matrix, no truncation and no BLAS.
    """
    companion_gate(phi)
    A, B = kernel_companion_forms(phi, n, alpha)
    return relative_defect(B.conj().T, A)


def kernel_axioms_defect(C: AntilinearConjugation) -> float:
    """Worst relative defect of the conjugation identities on kernels, at the
    points z_i = conj(phi_C(u_i)) for u = KERNEL_POINTS, from closed forms:

    - involution: v_(v_z) = z and conj(c_z) c_(v_z) = 1;
    - isometry: |c_z|^2 (1 - |v_z|^2)^-(alpha+2) = (1 - |z|^2)^-(alpha+2);
    - the kernel image itself: psi_C(u) (1 - z phi_C(u))^-(alpha+2), which is
      C K_z at u, equals c_z K_(v_z)(u) at every point u_j.

    The last identity is checked pointwise, so the others do not assume
    that U is unitary. The same closed forms serve every kind; for plain-J
    and rotation-J, v_z is a rotation of z and c_z a unimodular constant.
    The defects of all four identities go into one buffer, whose maximum,
    a ufunc reduction unlike the builtin max, keeps a NaN: an underflowed
    weight must not leave only the finite identities.
    """
    s = C.alpha + 2
    phi_C_u = C.phi_u
    z = np.conj(phi_C_u)
    c, v = kernel_image(C, z)
    c_twice, v_twice = kernel_image(C, v)
    image = C.weight_u * (1 - z[:, None] * phi_C_u) ** -s
    expected = c[:, None] * (1 - np.conj(v)[:, None] * _U) ** -s
    k = _U.size
    defects = np.empty(3 * k + k * k)
    np.abs(v_twice - z, out=defects[:k])
    np.abs(np.conj(c) * c_twice - 1, out=defects[k:2 * k])
    np.abs(np.abs(c) ** 2 * ((1 - np.abs(z) ** 2) / (1 - np.abs(v) ** 2)) ** s - 1,
           out=defects[2 * k:3 * k])
    np.divide(np.abs(image - expected), np.abs(expected), out=defects[3 * k:].reshape(k, k))
    return float(np.maximum.reduce(defects))
