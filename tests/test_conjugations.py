"""Tests for the antilinear conjugations and the symmetry test C T* C = T."""

import cmath
import math
import re
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswcd import conjugations
from cswcd.bergman import SpaceParams, kernel
from cswcd.conjugations import (
    KERNEL_POINTS,
    conjugated_adjoint,
    conjugation_apply,
    involution_defect,
    is_C_symmetric,
    isometry_defect,
    kernel_axioms_defect,
    kernel_companion_defect,
    kernel_companion_forms,
    kernel_hermitian_defect,
    kernel_image,
    kernel_hermitian_form,
    kernel_symmetry_defect,
    kernel_symmetry_form,
    kernel_weight_values,
    make_J,
    make_rotation_J,
    make_wc_J,
    unitary_part,
)
from cswcd.defaults import TOL_EXACT
from cswcd.diagnostics import GRAM_TAIL, is_hermitian
from cswcd.errors import DomainError, UnboundedSymbolError
from cswcd.matrices import (
    OperatorMatrix,
    adjoint_matrix,
    apply,
    build_wcd_matrix,
    build_weighted_composition,
    cowen_adjoint_pair,
)
from cswcd.rng import SplitMix64
from cswcd.runner import SWEEPABLE_FAMILIES, draw_symbols, make_pair, parse_config, run
from cswcd.series import (
    TruncatedSeries,
    monomial,
    power_table,
    series_conjugate_reflect,
    series_scale,
)
from cswcd.symbols import (
    LinearFractionalMap,
    SymbolPair,
    family_conjugated,
    family_general,
    family_j_symmetric,
    family_self_adjoint,
    sigma_companion,
    unitary_symbols,
)
from series_reference import reference_weight_series
from wc_reference import TOL_REFERENCE, extended_order, wc_involution_defect, wc_symmetry_defect

SPACE = SpaceParams(0.0, 1, 24)


def rand_poly(rng, N, deg):
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[: deg + 1] = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    return TruncatedSeries(coeffs)


class TestPlainJ:
    def test_fixes_monomials(self):
        C = make_J(SPACE.alpha)
        for j in (0, 2, 5):
            out = conjugation_apply(C, monomial(j, 24))
            assert np.array_equal(out.coeffs, monomial(j, 24).coeffs)

    def test_antilinear(self):
        rng = np.random.default_rng(41)
        C = make_J(SPACE.alpha)
        f = rand_poly(rng, 24, 10)
        lhs = conjugation_apply(C, series_scale(f, 1j))
        rhs = series_scale(conjugation_apply(C, f), -1j)
        assert np.allclose(lhs.coeffs, rhs.coeffs)

    def test_involution_exact(self):
        rng = np.random.default_rng(42)
        C = make_J(SPACE.alpha)
        f = rand_poly(rng, 24, 20)
        assert involution_defect(C, f) == 0.0

    def test_isometry_exact(self):
        rng = np.random.default_rng(43)
        C = make_J(SPACE.alpha)
        f = rand_poly(rng, 24, 20)
        assert isometry_defect(C, f) <= 1e-15

    def test_apply_is_coefficient_conjugation(self):
        f = rand_poly(np.random.default_rng(48), 24, 24)
        assert np.array_equal(conjugation_apply(make_J(SPACE.alpha), f).coeffs, np.conj(f.coeffs))


class TestRotationJ:
    def test_trivial_parameters_match_plain(self):
        C = make_rotation_J(1.0, 1.0, SPACE.alpha)
        assert np.array_equal(unitary_part(C, 24), unitary_part(make_J(SPACE.alpha), 24))

    def test_diagonal_entries(self):
        # U is the diagonal at the requested truncation, not a matrix
        mu, lam = np.exp(0.3j), np.exp(-0.7j)
        C = make_rotation_J(mu, lam, SPACE.alpha)
        assert C.exact
        for N in (0, 24):
            assert np.allclose(unitary_part(C, N), mu * lam ** np.arange(N + 1))

    def test_apply_matches_dense_diagonal(self):
        # the elementwise scaling against the basis-coordinate matvec by diag(d)
        rng = np.random.default_rng(49)
        space = SpaceParams(0.5, 2, 96)
        C = make_rotation_J(np.exp(0.3j), np.exp(1.1j), space.alpha)
        dense = OperatorMatrix(np.diag(unitary_part(C, 96)), space)
        for deg in (10, 96):
            f = rand_poly(rng, 96, deg)
            got = conjugation_apply(C, f).coeffs
            ref = apply(dense, series_conjugate_reflect(f)).coeffs
            assert max_abs_relative(got, ref) <= 1e-15

    def test_involution(self):
        rng = np.random.default_rng(44)
        C = make_rotation_J(np.exp(0.3j), np.exp(1.1j), SPACE.alpha)
        f = rand_poly(rng, 24, 24)
        assert involution_defect(C, f) <= 1e-12
        assert isometry_defect(C, f) <= 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            make_rotation_J(0.9, 1.0, SPACE.alpha)

    @pytest.mark.parametrize("make", [partial(make_rotation_J, math.nan, 1.0),
                                      partial(make_rotation_J, 1.0, complex(0, math.nan)),
                                      partial(make_wc_J, 0.3, math.nan)])
    def test_a_nan_is_not_unimodular(self, make):
        # a NaN fails |abs(z) - 1| <= 1e-12, so it never reaches the weight
        with pytest.raises(DomainError, match="must be unimodular"):
            make(SPACE.alpha)


class TestWcJ:
    def test_involution_and_isometry_guarded(self):
        # inputs of degree <= N - 8 at the extended truncation, involution
        # compared on the leading N + 1 coefficients
        rng = np.random.default_rng(45)
        N = 64
        for p in (0.6, 0.4 * np.exp(1.2j)):
            space = SpaceParams(0.0, 1, N)
            C = make_wc_J(p, np.exp(0.5j), space.alpha)
            f = rand_poly(rng, extended_order(C, N), N - 8)
            assert wc_involution_defect(C, f, N) <= 1e-9
            assert isometry_defect(C, f) <= 1e-9

    def test_kernel_maps_to_constant_for_real_p(self):
        # C applied to the kernel at real p collapses to the constant
        # lambda_u (1 - p^2)^(-(alpha+2)/2)
        from cswcd.bergman import kernel

        alpha, p, lam_u = 0.5, 0.45, np.exp(0.9j)
        space = SpaceParams(alpha, 1, 64)
        C = make_wc_J(p, lam_u, space.alpha)
        out = conjugation_apply(C, kernel(p, 0, alpha, extended_order(C, space.N)))
        expect = lam_u * (1 - p**2) ** (-(alpha + 2) / 2)
        assert out.coeffs[0] == pytest.approx(expect, abs=1e-10)
        assert np.max(np.abs(out.coeffs[1 : space.N])) <= 1e-10

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            make_wc_J(0.0, 1.0, SPACE.alpha)

    def test_keeps_dense_unitary(self):
        # U is the weighted-composition matrix of the unitary pair at p
        p, lam_u = 0.4 * np.exp(1.2j), np.exp(0.5j)
        C = make_wc_J(p, lam_u, SPACE.alpha)
        U = unitary_part(C, SPACE.N)
        assert not C.exact and isinstance(U, OperatorMatrix)
        assert (U.space.alpha, U.space.N) == (SPACE.alpha, SPACE.N)
        pair = unitary_symbols(p, lam_u, SPACE.alpha, SPACE.N)
        ref = build_weighted_composition(pair.psi, pair.phi, U.space)
        assert max_abs_relative(U.entries, ref.entries) <= 1e-14


class TestSymbols:
    """Each conjugation carries its weight psi_C(u) = k (1 - q u)^-(alpha+2),
    as (k, q), and its map phi_C."""

    def test_plain_and_rotation(self):
        C = make_J(SPACE.alpha)
        assert C.weight == (1, 0) and (C.phi.a, C.phi.b, C.phi.c, C.phi.d) == (1, 0, 0, 1)
        mu, lam = np.exp(0.3j), np.exp(-0.7j)
        C = make_rotation_J(mu, lam, SPACE.alpha)
        assert C.weight == (mu, 0) and (C.phi.a, C.phi.b, C.phi.c, C.phi.d) == (lam, 0, 0, 1)
        assert C.exact

    def test_weighted_composition(self):
        p, lam_u = 0.4 * np.exp(1.2j), np.exp(0.5j)
        C = make_wc_J(p, lam_u, SPACE.alpha)
        pair = unitary_symbols(p, lam_u, SPACE.alpha, SPACE.N)
        k, q = C.weight
        assert k == pytest.approx(lam_u * (1 - abs(p) ** 2) ** ((SPACE.alpha + 2) / 2))
        assert q == np.conj(p) and C.phi == pair.phi and not C.exact
        assert C.alpha == SPACE.alpha
        u = np.array(KERNEL_POINTS)
        expect = [complex(np.polyval(pair.psi.coeffs[::-1], x)) for x in u]
        assert np.allclose(conjugations.conjugation_weight(C, u), expect, rtol=1e-12)


def wc_closed(a, b, c, n, alpha, p, lambda_u):
    """psi, phi and the conjugation's (psi_C, phi_C) of a wc-conjugated pair
    in mpmath: psi = psi_p (psi_base o phi_p) and phi = phi_base o phi_p."""
    pbar = mpmath.conj(p)
    k = lambda_u * (1 - abs(p) ** 2) ** ((alpha + 2) / 2)

    def psi_C(z):
        return k / (1 - pbar * z) ** (alpha + 2)

    def phi_C(z):
        return (pbar / p) * (p - z) / (1 - pbar * z)

    def psi(z):
        w = phi_C(z)
        return psi_C(z) * a * w**n / (math.factorial(n) * (1 - c * w) ** (n + alpha + 2))

    def phi(z):
        w = phi_C(z)
        return c + b * w / (1 - c * w)

    return psi, phi, psi_C, phi_C


class TestKernelForms:
    """C-symmetry and the conjugation axioms on reproducing kernels."""

    def test_kernel_image_matches_dense_unitary(self):
        # C K_z through the dense U at the extended truncation against
        # c_z K_(v_z), on the leading N + 1 coefficients
        alpha = 0.5
        space = SpaceParams(alpha, 1, 48)
        C = make_wc_J(0.45 * np.exp(0.8j), np.exp(0.3j), space.alpha)
        for z in (0.3 - 0.2j, -0.5j, 0.6):
            (c,), (v,) = kernel_image(C, np.array([z]))
            f = kernel(z, 0, alpha, extended_order(C, space.N))
            got = conjugation_apply(C, f).coeffs[: space.N + 1]
            want = c * kernel(v, 0, alpha, space.N).coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_bilinear_form_matches_mpmath(self):
        # B[i, j] at 40 digits from the closed forms of psi, phi, psi_C and phi_C
        alpha, n = 0.5, 2
        a, b, c = 1 + 0.4j, 0.3 + 0.1j, 0.15 - 0.1j
        p, lam_u = 0.55 * cmath.exp(0.7j), cmath.exp(0.9j)
        symbols = {"family": "wc-conjugated", "a": [a.real, a.imag], "b": [b.real, b.imag],
                   "c": [c.real, c.imag], "p": [p.real, p.imag],
                   "lambda_u": [lam_u.real, lam_u.imag]}
        space = SpaceParams(alpha, n, 96)
        pair = make_pair(symbols, space)
        C = make_wc_J(p, lam_u, space.alpha)
        B = kernel_symmetry_form(pair, C, kernel_weight_values(pair))
        with mpmath.workdps(40):
            al = mpmath.mpf(alpha)
            psi, phi, psi_C, phi_C = wc_closed(mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(c), n, al,
                                               mpmath.mpc(p), mpmath.mpc(lam_u))
            points = [mpmath.mpc(x) for x in KERNEL_POINTS]
            rising = mpmath.rf(al + 2, n)
            exact = [[psi(uj) * rising * phi_C(ui) ** n
                      * (1 - phi_C(ui) * phi(uj)) ** -(al + n + 2) / psi_C(uj)
                      for uj in points] for ui in points]
            asymmetry = max(abs(exact[i][j] - exact[j][i]) for i in range(8) for j in range(8))
            exact = np.array([[complex(x) for x in row] for row in exact])
        top = np.max(np.abs(exact))
        assert asymmetry <= 1e-35 * top
        assert np.max(np.abs(B - exact)) <= 1e-14 * top

    @pytest.mark.parametrize("b, hermitian", [(0.25, True), (0.25 + 0.1j, False)])
    def test_hermitian_form_matches_mpmath(self, b, hermitian):
        # A[i, j] = (T K_(u_i))(u_j) at 40 digits from the closed forms of the
        # general family, psi = a z^n / (n! (1 - conj(c) z)^(n+alpha+2)) and
        # phi = c + b z / (1 - conj(c) z): self-adjoint exactly when b is real
        alpha, n, a, b, c = 0.5, 2, 0.9, complex(b), 0.2 + 0.2j
        symbols = {"family": "general", "a": a, "b": [b.real, b.imag], "c": [c.real, c.imag]}
        pair = make_pair(symbols, SpaceParams(alpha, n, 96))
        psi_u = kernel_weight_values(pair)
        A = kernel_hermitian_form(pair, alpha, psi_u)
        with mpmath.workdps(40):
            al, cbar = mpmath.mpf(alpha), mpmath.conj(mpmath.mpc(c))
            points = [mpmath.mpc(x) for x in KERNEL_POINTS]
            psi = [a * x**n / (math.factorial(n) * (1 - cbar * x) ** (n + al + 2)) for x in points]
            phi = [c + mpmath.mpc(b) * x / (1 - cbar * x) for x in points]
            rising = mpmath.rf(al + 2, n)
            exact = [[psi[j] * rising * mpmath.conj(ui) ** n
                      * (1 - mpmath.conj(ui) * phi[j]) ** -(al + n + 2)
                      for j in range(8)] for ui in points]
            asymmetry = max(abs(exact[i][j] - mpmath.conj(exact[j][i]))
                            for i in range(8) for j in range(8))
            exact = np.array([[complex(x) for x in row] for row in exact])
        top = np.max(np.abs(exact))
        assert (asymmetry <= 1e-35 * top) is hermitian
        assert np.max(np.abs(A - exact)) <= 1e-14 * top

    def test_weight_values_do_not_depend_on_the_truncation(self):
        # the closed form reads no series, so N 3 and N 200 give the same bytes
        symbols = {"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": [0.2, 0.1]}
        small = make_pair(symbols, SpaceParams(0.5, 1, 3))
        large = make_pair(symbols, SpaceParams(0.5, 1, 200))
        assert np.array_equal(kernel_weight_values(small), kernel_weight_values(large))
        assert "psi" not in small.__dict__ and "psi" not in large.__dict__

    @pytest.mark.parametrize("p", [0.3 + 0.1j, 0.6, 0.9 * np.exp(2j), 0.99j])
    def test_axioms_hold_for_every_p(self, p):
        C = make_wc_J(p, np.exp(0.9j), 0.5)
        assert kernel_axioms_defect(C) <= 1e-13

    def test_axioms_hold_for_the_exact_kinds(self):
        for C in (make_J(0.5), make_rotation_J(np.exp(0.3j), np.exp(-0.7j), 0.5)):
            assert kernel_axioms_defect(C) <= 1e-15

    def test_axioms_see_a_scaled_weight(self):
        C = make_wc_J(0.3 + 0.1j, 1j, 0.5)
        k, q = C.weight
        defect = kernel_axioms_defect(replace(C, weight=(1.001 * k, q)))
        assert defect == pytest.approx(2e-3, rel=1e-2)

    def test_symmetry_refuses_an_unbounded_pair(self):
        # sup|phi| = 1 and no boundedness flag: the operator gate refuses
        symbols = {"family": "explicit", "psi": [0.0, 1.0], "phi": [0.5, 0.5, 0.0, 1.0]}
        space = SpaceParams(0.5, 1, 16)
        with pytest.raises(UnboundedSymbolError, match="no boundedness gate"):
            kernel_weight_values(make_pair(symbols, space))


def with_angle(z: complex, angle: float) -> list:
    w = complex(z) * cmath.exp(1j * angle)
    return [w.real, w.imag]


def controls(family: str, symbols: dict) -> dict:
    """Conjugation descriptors to compare under: the family's own, plain-J,
    and for the conjugated families the off-by-a-little ones."""
    out = {"auto": {"kind": "auto"}, "plain-J": {"kind": "plain-J"}}
    if family == "wc-conjugated":
        p = complex(*symbols["p"])
        out["p 1 % off"] = {"kind": "wc-J", "p": [1.01 * p.real, 1.01 * p.imag],
                            "lambda_u": symbols["lambda_u"]}
        # a unimodular factor of C cancels in C T* C, so this one stays symmetric
        out["lambda_u 0.01 rad off"] = {
            "kind": "wc-J", "p": symbols["p"],
            "lambda_u": with_angle(complex(*symbols["lambda_u"]), 0.01)}
    if family == "rotation-conjugated":
        out["lambda 0.01 rad off"] = {"kind": "rotation-J", "mu": symbols["mu"],
                                      "lambda": with_angle(complex(*symbols["lam"]), 0.01)}
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(SWEEPABLE_FAMILIES), seed=st.integers(0, 2**32 - 1))
def test_kernel_form_agrees_with_the_matrix_path(family, seed):
    """On pass/fail at alpha 0.5, n 2, N 32: the kernel forms at TOL_EXACT
    against the matrix path. ``C-symmetry`` is compared with C T* C = T
    (TOL_EXACT for an exact kind, the dense reference of ``wc_reference`` at
    TOL_REFERENCE for wc-J) for the family's own conjugation and the controls;
    the runner's ``J-symmetry`` and ``self-adjointness`` with
    ``is_C_symmetric`` under plain-J and ``is_hermitian`` on the matrix."""
    symbols = draw_symbols({"family": family}, SplitMix64(seed))
    space = {"alpha": 0.5, "n": 2, "N": 32}
    for name, conjugation in controls(family, symbols).items():
        config = parse_config({"space": space, "symbols": symbols, "conjugation": conjugation,
                               "checks": ["C-symmetry"]})
        C = config.conjugation
        if C.exact:
            by_matrix = is_C_symmetric(config.matrix, C) <= TOL_EXACT
        else:
            by_matrix = (wc_symmetry_defect(C, config.space, partial(make_pair, symbols))
                         <= TOL_REFERENCE)
        by_kernel = kernel_symmetry_defect(config.pair, C, config.kernel_weights) <= TOL_EXACT
        assert by_kernel == by_matrix, name
        if name in ("p 1 % off", "lambda 0.01 rad off"):
            assert not by_kernel, name
    config = parse_config({"space": space, "symbols": symbols,
                           "checks": ["J-symmetry", "self-adjointness"]})
    M = config.matrix
    by_matrix = [is_C_symmetric(M, make_J(M.space.alpha)) <= TOL_EXACT,
                 is_hermitian(M) <= TOL_EXACT]
    assert [r.status == "pass" for r in run(config)] == by_matrix


def general_phi(b: complex, c: complex):
    """The map of the general family, c + b z / (1 - conj(c) z)."""
    return LinearFractionalMap(b - abs(c) ** 2, c, -np.conj(c), 1.0)


def defect_with_phi_in_b(phi, n, alpha):
    """The companion defect max |A - B^H| / max |B| with phi in place of
    sigma as T_B's map; T_B keeps its weight, the kernel at phi(0)."""
    psi_a, psi_b = conjugations.companion_weights(phi, n, alpha)
    u_bar = np.conj(np.array(KERNEL_POINTS))
    A = conjugations._operator_on_kernels(phi, n, alpha, u_bar, psi_a)
    B = conjugations._operator_on_kernels(phi, n, alpha, u_bar, psi_b)
    return float(np.abs(A - B.conj().T).max() / np.abs(B).max())


def companion_matrix_defect(pair_a, pair_b, space):
    """The matrix path: max |adjoint(M_A) - M_B| / max |M_B|."""
    MA, MB = build_wcd_matrix(pair_a, space), build_wcd_matrix(pair_b, space)
    return float(np.max(np.abs(adjoint_matrix(MA).entries - MB.entries))
                 / np.max(np.abs(MB.entries)))


class TestCompanionKernelForm:
    """Cowen's companion identity T_A* = T_B on reproducing kernels."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 10.0, 50.0])
    def test_forms_match_mpmath(self, alpha):
        # A and B at 40 digits from the maps' coefficients: psi_A, psi_B are
        # the order-n kernels at sigma(0) and phi(0), and A = B^H exactly
        n, b, c = 2, 0.4 + 0.3j, 0.2 + 0.1j
        phi = general_phi(b, c)
        A, B = kernel_companion_forms(phi, n, alpha)
        with mpmath.workdps(40):
            al, b, c = mpmath.mpf(alpha), mpmath.mpc(b), mpmath.mpc(c)
            pa, pb, pc, pd = b - abs(c) ** 2, c, -mpmath.conj(c), mpmath.mpf(1)
            points = [mpmath.mpc(x) for x in KERNEL_POINTS]
            rising = mpmath.rf(al + 2, n)

            def phi_at(z):
                return (pa * z + pb) / (pc * z + pd)

            def sigma_at(z):
                return (mpmath.conj(pa) * z - mpmath.conj(pc)) / (
                    -mpmath.conj(pb) * z + mpmath.conj(pd))

            def form(w0, lft):
                # (T K_(u_i))(u_j) with psi the order-n kernel at w0
                return [[rising * uj**n * (1 - mpmath.conj(w0) * uj) ** -(al + n + 2)
                         * rising * mpmath.conj(ui) ** n
                         * (1 - mpmath.conj(ui) * lft(uj)) ** -(al + n + 2)
                         for uj in points] for ui in points]

            exact_a, exact_b = form(sigma_at(0), phi_at), form(phi_at(0), sigma_at)
            identity = max(abs(exact_a[i][j] - mpmath.conj(exact_b[j][i]))
                           for i in range(8) for j in range(8))
            exact_a, exact_b = (np.array([[complex(x) for x in row] for row in m])
                                for m in (exact_a, exact_b))
        top = np.max(np.abs(exact_b))
        assert identity <= 1e-35 * top
        assert np.max(np.abs(A - exact_a)) <= 1e-14 * top
        assert np.max(np.abs(B - exact_b)) <= 1e-14 * top
        assert kernel_companion_defect(phi, n, alpha) <= 1e-14

    def test_phi_in_place_of_sigma_fails(self):
        # for a non-real b, sigma != phi, and T_B along phi is not T_A*
        phi = general_phi(0.4 + 0.3j, 0.2 + 0.1j)
        assert defect_with_phi_in_b(phi, 1, 0.5) == pytest.approx(0.559, abs=1e-3)
        # for a real b, sigma = phi, so the swap changes nothing
        assert defect_with_phi_in_b(general_phi(0.4, 0.2 + 0.1j), 1, 0.5) <= 1e-15

    def test_refuses_a_map_that_reaches_the_circle(self):
        phi = LinearFractionalMap(0.5, 0.5, 0, 1)
        with pytest.raises(UnboundedSymbolError, match="companion pair needs sup"):
            kernel_companion_defect(phi, 1, 0.5)


@pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
def test_companion_form_agrees_with_the_matrix_path(family):
    """On pass/fail at tolerance 1e-9 over 1,000 seeded draws at alpha 0.5,
    n 1 to 3, N n + 2: ``kernel_companion_defect`` against the matrix path
    (``cowen_adjoint_pair``, ``build_wcd_matrix``, ``adjoint_matrix``), and
    both with phi in place of sigma in T_B, which must fail wherever
    sigma != phi. Both refuse the same maps, with the same message."""
    rng, tol = SplitMix64(2024), 1e-9
    for i in range(1000):
        n = 1 + i % 3
        space = SpaceParams(0.5, n, n + 2)
        phi = make_pair(draw_symbols({"family": family}, rng), space).phi
        try:
            pair_a, pair_b = cowen_adjoint_pair(phi, n, space)
        except UnboundedSymbolError as exc:
            with pytest.raises(UnboundedSymbolError, match=re.escape(str(exc))):
                kernel_companion_defect(phi, n, 0.5)
            continue
        by_matrix = companion_matrix_defect(pair_a, pair_b, space) <= tol
        assert by_matrix and kernel_companion_defect(phi, n, 0.5) <= tol, i
        swapped = SymbolPair(pair_b.weight, phi, n, pair_b.order)
        by_matrix = companion_matrix_defect(pair_a, swapped, space) <= tol
        assert (defect_with_phi_in_b(phi, n, 0.5) <= tol) == by_matrix, i
        assert by_matrix == (sigma_companion(phi) == phi), i


class TestConjugatedAdjoint:
    def test_plain_J_gives_transpose(self):
        rng = np.random.default_rng(46)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        M = OperatorMatrix(A, SPACE)
        out = conjugated_adjoint(make_J(SPACE.alpha), M)
        assert np.array_equal(out.entries, A.T)

    def test_symmetric_matrix_fixed(self):
        rng = np.random.default_rng(47)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        A = A + A.T
        M = OperatorMatrix(A, SPACE)
        out = conjugated_adjoint(make_J(SPACE.alpha), M)
        assert np.array_equal(out.entries, A)

    def test_diagonal_commutes_with_rotation(self):
        d = np.arange(1, 26) * (1 + 0.5j)
        M = OperatorMatrix(np.diag(d), SPACE)
        C = make_rotation_J(1.0, np.exp(0.4j), SPACE.alpha)
        out = conjugated_adjoint(C, M)
        assert np.allclose(out.entries, M.entries)


def reference_conjugated_adjoint(C, M):
    """The full product U . M^T . conj(U) at the working truncation."""
    U = unitary_part(C, M.space.N)
    U = np.diag(U) if C.exact else U.entries
    return U @ M.entries.T @ np.conj(U)


def max_abs_relative(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def drawn_config(symbols, seed):
    """A seeded draw at alpha 0.5, n 2, N 96."""
    drawn = draw_symbols(symbols, SplitMix64(seed))
    return parse_config({"space": {"alpha": 0.5, "n": 2, "N": 96}, "symbols": drawn,
                         "checks": ["C-symmetry"]})


def random_like(M, seed):
    """A dense complex matrix at M's truncation, symmetric under no conjugation."""
    rng = np.random.default_rng(seed)
    shape = M.entries.shape
    return OperatorMatrix(rng.normal(size=shape) + 1j * rng.normal(size=shape), M.space)


class TestClaimWindow:
    """conjugated_adjoint forms the whole product at the matrix's own
    truncation; for a diagonal U it is elementwise, and the dense product is
    the reference it must match."""

    def test_rotation_elementwise_matches_dense_product(self):
        config = drawn_config({"family": "self-adjoint", "ranges": {"abs_c": [0.2, 0.5]}}, 3)
        C = config.conjugation
        assert C.kind == "rotation-J"
        for M in (config.matrix, random_like(config.matrix, 3)):
            out = conjugated_adjoint(C, M)
            assert out.space == M.space
            ref = reference_conjugated_adjoint(C, M)
            assert max_abs_relative(out.entries, ref) <= 1e-14

    def test_unitary_follows_the_input_truncation(self):
        # the conjugation carries no truncation: U is built at the input's
        lam = np.exp(0.4j)
        C = make_rotation_J(1.0, lam, SPACE.alpha)
        M = OperatorMatrix(np.eye(24, dtype=complex), SpaceParams(0.0, 1, 23))
        assert np.allclose(conjugated_adjoint(C, M).entries, np.eye(24))
        for order in (0, 23):
            out = conjugation_apply(C, monomial(order, order))
            assert out.order == order and out.coeffs[order] == pytest.approx(lam**order)


class TestIsCSymmetric:
    def test_plain_family_symmetric(self):
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE.alpha))
        assert defect <= 1e-10

    def test_mismatched_weight_detected(self):
        # rebuild the weight with c shifted by 0.1 while phi keeps c
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 24)
        shifted = family_j_symmetric(1.0, 0.3, 0.3, 1, 0.0, 24)
        broken = SymbolPair(shifted.weight, pair.phi, 1, shifted.order)
        M = build_wcd_matrix(broken, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE.alpha))
        assert defect > 1e-3

    def test_wc_conjugated_family(self):
        rng = SplitMix64(77)
        N = 64
        for alpha in (-0.5, 1.0):
            space = SpaceParams(alpha, 2, N)
            p = rng.complex_annulus(0.2, 0.6)
            lam_u = rng.unimodular()
            C = make_wc_J(p, lam_u, space.alpha)
            defect = wc_symmetry_defect(C, space, lambda work: family_conjugated(
                1.0 + 0.4j, 0.3, 0.15 - 0.1j, 2, alpha, work.N, p=p, lambda_u=lam_u
            ))
            assert defect <= 1e-8, f"defect {defect:.3e} at p={p}"

    def test_rotation_conjugated_family(self):
        space = SpaceParams(0.0, 1, 32)
        mu, lam = np.exp(0.4j), np.exp(-1.3j)
        pair = family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 32, mu=mu, lam=lam)
        M = build_wcd_matrix(pair, space)
        C = make_rotation_J(mu, lam, space.alpha)
        defect = is_C_symmetric(M, C)
        assert defect <= 1e-8, f"defect {defect:.3e}"

    def test_self_adjoint_case_two_rotation(self):
        # nonzero c: symmetric for the rotation kind at lam = exp(-2i Arg(c))
        space = SpaceParams(0.5, 1, 32)
        c = 0.3 * np.exp(0.8j)
        pair = family_self_adjoint(0.9, 0.25, c, 1, 0.5, 32)
        M = build_wcd_matrix(pair, space)
        theta = np.angle(c)
        C = make_rotation_J(1.0, np.exp(-2j * theta), space.alpha)
        defect = is_C_symmetric(M, C)
        assert defect <= 1e-8, f"defect {defect:.3e}"

    def test_general_family_not_j_symmetric(self):
        # conjugated denominator with complex c is not plain-symmetric
        pair = family_general(1.0, 0.3, 0.25j, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE.alpha))
        assert defect > 1e-3


def series_weight_values(config, u, N=64):
    """psi(u) summed from the old product-of-series weight of the config's
    drawn pair, as the kernel forms read it before the closed form: the
    order N doubles while the last quarter of any sum holds more than
    GRAM_TAIL of it."""
    symbols = config.symbols
    params = {key: complex(*value) for key, value in symbols.items() if key != "family"}
    params["alpha"] = config.space.alpha
    while True:
        coeffs = reference_weight_series(symbols["family"], params, config.space.n, N).coeffs
        powers = power_table(u, N + 1)
        terms = np.abs(powers * coeffs)
        if (terms[:, N + 1 - (N + 1) // 4:].sum(axis=1) <= GRAM_TAIL * terms.sum(axis=1)).all():
            return np.einsum("m,im->i", coeffs, powers, optimize=False)
        N *= 2


@pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
def test_closed_form_weight_keeps_the_series_verdicts(family):
    """On pass/fail at TOL_EXACT over 1,000 seeded draws at alpha 0.5, n 1 to
    3: J-symmetry, C-symmetry under the family's own conjugation and
    self-adjointness, with psi at KERNEL_POINTS from the closed form and from
    the old product-of-series weight."""
    rng, u = SplitMix64(4242), np.array(KERNEL_POINTS)
    for i in range(1000):
        n = 1 + i % 3
        doc = {"space": {"alpha": 0.5, "n": n, "N": 64},
               "symbols": draw_symbols({"family": family}, rng), "checks": []}
        config = parse_config(doc)
        pair, space = config.pair, config.space
        verdicts = []
        for psi_u in (kernel_weight_values(pair), series_weight_values(config, u)):
            verdicts.append((
                kernel_symmetry_defect(pair, make_J(space.alpha), psi_u) <= TOL_EXACT,
                kernel_symmetry_defect(pair, config.conjugation, psi_u) <= TOL_EXACT,
                kernel_hermitian_defect(pair, space.alpha, psi_u) <= TOL_EXACT,
            ))
        assert verdicts[0] == verdicts[1], (i, doc)
