"""Tests for the antilinear conjugations and the symmetry test C T* C = T."""

import numpy as np
import pytest

from cswcd.bergman import SpaceParams
from cswcd.conjugations import (
    AntilinearConjugation,
    conjugated_adjoint,
    conjugation_apply,
    involution_defect,
    is_C_symmetric,
    isometry_defect,
    make_J,
    make_rotation_J,
    make_wc_J,
)
from cswcd.errors import DomainError, TruncationMismatchError
from cswcd.matrices import OperatorMatrix, apply, build_wcd_matrix
from cswcd.rng import SplitMix64
from cswcd.runner import draw_symbols, parse_config
from cswcd.series import TruncatedSeries, monomial, series_conjugate_reflect, series_scale
from cswcd.symbols import (
    SymbolPair,
    family_conjugated,
    family_general,
    family_j_symmetric,
    family_self_adjoint,
)

SPACE = SpaceParams(0.0, 1, 24)


def rand_poly(rng, N, deg):
    coeffs = np.zeros(N + 1, dtype=complex)
    coeffs[: deg + 1] = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
    return TruncatedSeries(coeffs)


class TestPlainJ:
    def test_fixes_monomials(self):
        C = make_J(SPACE)
        for j in (0, 2, 5):
            out = conjugation_apply(C, monomial(j, 24))
            assert np.array_equal(out.coeffs, monomial(j, 24).coeffs)

    def test_antilinear(self):
        rng = np.random.default_rng(41)
        C = make_J(SPACE)
        f = rand_poly(rng, 24, 10)
        lhs = conjugation_apply(C, series_scale(f, 1j))
        rhs = series_scale(conjugation_apply(C, f), -1j)
        assert np.allclose(lhs.coeffs, rhs.coeffs)

    def test_involution_exact(self):
        rng = np.random.default_rng(42)
        C = make_J(SPACE)
        f = rand_poly(rng, 24, 20)
        assert involution_defect(C, f) == 0.0

    def test_isometry_exact(self):
        rng = np.random.default_rng(43)
        C = make_J(SPACE)
        f = rand_poly(rng, 24, 20)
        assert isometry_defect(C, f) <= 1e-15

    def test_apply_is_coefficient_conjugation(self):
        f = rand_poly(np.random.default_rng(48), 24, 24)
        assert np.array_equal(conjugation_apply(make_J(SPACE), f).coeffs, np.conj(f.coeffs))


class TestRotationJ:
    def test_trivial_parameters_match_plain(self):
        C = make_rotation_J(1.0, 1.0, SPACE)
        assert np.array_equal(C.unitary, make_J(SPACE).unitary)

    def test_diagonal_entries(self):
        mu, lam = np.exp(0.3j), np.exp(-0.7j)
        C = make_rotation_J(mu, lam, SPACE)
        assert np.allclose(C.unitary, mu * lam ** np.arange(25))

    def test_stores_read_only_diagonal(self):
        C = make_rotation_J(np.exp(0.3j), np.exp(-0.7j), SPACE)
        assert C.exact and C.unitary.ndim == 1 and C.unitary.shape == (SPACE.N + 1,)
        assert not C.unitary.flags.writeable
        with pytest.raises(ValueError):
            C.unitary[0] = 2.0

    def test_apply_matches_dense_diagonal(self):
        # the elementwise scaling against the basis-coordinate matvec by diag(d)
        rng = np.random.default_rng(49)
        space = SpaceParams(0.5, 2, 96)
        C = make_rotation_J(np.exp(0.3j), np.exp(1.1j), space)
        dense = OperatorMatrix(np.diag(C.unitary), space)
        for deg in (10, 96):
            f = rand_poly(rng, 96, deg)
            got = conjugation_apply(C, f).coeffs
            ref = apply(dense, series_conjugate_reflect(f)).coeffs
            assert max_abs_relative(got, ref) <= 1e-15

    def test_involution(self):
        rng = np.random.default_rng(44)
        C = make_rotation_J(np.exp(0.3j), np.exp(1.1j), SPACE)
        f = rand_poly(rng, 24, 24)
        assert involution_defect(C, f) <= 1e-12
        assert isometry_defect(C, f) <= 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(DomainError):
            make_rotation_J(0.9, 1.0, SPACE)


class TestWcJ:
    def test_involution_and_isometry_guarded(self):
        # inputs of degree <= N - 8 at the extended working truncation,
        # involution compared on the original leading block
        rng = np.random.default_rng(45)
        N = 64
        for p in (0.6, 0.4 * np.exp(1.2j)):
            space = SpaceParams(0.0, 1, N)
            C = make_wc_J(p, np.exp(0.5j), space)
            f = rand_poly(rng, C.space.N, N - 8)
            assert involution_defect(C, f) <= 1e-9
            assert isometry_defect(C, f) <= 1e-9

    def test_kernel_maps_to_constant_for_real_p(self):
        # C applied to the kernel at real p collapses to the constant
        # lambda_u (1 - p^2)^(-(alpha+2)/2)
        from cswcd.bergman import kernel

        alpha, p, lam_u = 0.5, 0.45, np.exp(0.9j)
        space = SpaceParams(alpha, 1, 64)
        C = make_wc_J(p, lam_u, space)
        out = conjugation_apply(C, kernel(p, 0, alpha, C.space.N))
        expect = lam_u * (1 - p**2) ** (-(alpha + 2) / 2)
        assert out.coeffs[0] == pytest.approx(expect, abs=1e-10)
        assert np.max(np.abs(out.coeffs[1 : space.N])) <= 1e-10

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            make_wc_J(0.0, 1.0, SPACE)

    def test_keeps_dense_unitary(self):
        C = make_wc_J(0.4, 1.0, SPACE)
        assert not C.exact and isinstance(C.unitary, OperatorMatrix)
        assert C.unitary.space == C.space and C.claim_dim == SPACE.N + 1


class TestConjugatedAdjoint:
    def test_plain_J_gives_transpose(self):
        rng = np.random.default_rng(46)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        M = OperatorMatrix(A, SPACE)
        out = conjugated_adjoint(make_J(SPACE), M)
        assert np.array_equal(out.entries, A.T)

    def test_symmetric_matrix_fixed(self):
        rng = np.random.default_rng(47)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        A = A + A.T
        M = OperatorMatrix(A, SPACE)
        out = conjugated_adjoint(make_J(SPACE), M)
        assert np.array_equal(out.entries, A)

    def test_diagonal_commutes_with_rotation(self):
        d = np.arange(1, 26) * (1 + 0.5j)
        M = OperatorMatrix(np.diag(d), SPACE)
        C = make_rotation_J(1.0, np.exp(0.4j), SPACE)
        out = conjugated_adjoint(C, M)
        assert np.allclose(out.entries, M.entries)


def reference_conjugated_adjoint(C, M):
    """The full product U . M^T . conj(U) at the working truncation."""
    U = np.diag(C.unitary) if C.exact else C.unitary.entries
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
    """conjugated_adjoint forms only the claim window; the full product is
    the reference it must match, on the symmetric operator of the draw and on
    a random matrix."""

    @pytest.mark.parametrize("band", [(0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5),
                                      (0.5, 0.6)])
    def test_wc_window_is_leading_block_of_full_product(self, band):
        for seed in (1, 2):
            symbols = {"family": "wc-conjugated", "ranges": {"abs_p": list(band)}}
            config = drawn_config(symbols, seed)
            C, k = config.conjugation, config.conjugation.claim_dim
            for M in (config.work_matrix, random_like(config.work_matrix, seed)):
                window = conjugated_adjoint(C, M)
                assert window.entries.shape == (k, k) and window.space == config.space
                ref = reference_conjugated_adjoint(C, M)[:k, :k]
                assert max_abs_relative(window.entries, ref) <= 1e-14

    def test_rotation_elementwise_matches_dense_product(self):
        config = drawn_config({"family": "self-adjoint", "ranges": {"abs_c": [0.2, 0.5]}}, 3)
        C = config.conjugation
        assert C.kind == "rotation-J"
        for M in (config.work_matrix, random_like(config.work_matrix, 3)):
            out = conjugated_adjoint(C, M)
            assert out.space == M.space
            ref = reference_conjugated_adjoint(C, M)
            assert max_abs_relative(out.entries, ref) <= 1e-14

    def test_mismatched_truncation_refused(self):
        C = make_rotation_J(1.0, np.exp(0.4j), SPACE)
        M = OperatorMatrix(np.eye(24, dtype=complex), SpaceParams(0.0, 1, 23))
        with pytest.raises(TruncationMismatchError):
            conjugated_adjoint(C, M)
        # a length-1 series would broadcast against the diagonal
        for order in (0, 23):
            with pytest.raises(TruncationMismatchError):
                conjugation_apply(C, monomial(0, order))


class TestIsCSymmetric:
    def test_plain_family_symmetric(self):
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE))
        assert defect <= 1e-10

    def test_mismatched_weight_detected(self):
        # rebuild the weight with c shifted by 0.1 while phi keeps c
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 24)
        shifted = family_j_symmetric(1.0, 0.3, 0.3, 1, 0.0, 24)
        broken = SymbolPair(shifted.psi, pair.phi, 1)
        M = build_wcd_matrix(broken, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE))
        assert defect > 1e-3

    def test_wc_conjugated_family(self):
        rng = SplitMix64(77)
        N = 64
        for alpha in (-0.5, 1.0):
            space = SpaceParams(alpha, 2, N)
            p = rng.complex_annulus(0.2, 0.6)
            lam_u = rng.unimodular()
            C = make_wc_J(p, lam_u, space)
            pair = family_conjugated(
                1.0 + 0.4j, 0.3, 0.15 - 0.1j, 2, alpha, C.space.N, p=p, lambda_u=lam_u
            )
            M = build_wcd_matrix(pair, C.space)
            defect = is_C_symmetric(M, C)
            assert defect <= 1e-8, f"defect {defect:.3e} at p={p}"

    def test_rotation_conjugated_family(self):
        space = SpaceParams(0.0, 1, 32)
        mu, lam = np.exp(0.4j), np.exp(-1.3j)
        pair = family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 32, mu=mu, lam=lam)
        M = build_wcd_matrix(pair, space)
        C = make_rotation_J(mu, lam, space)
        defect = is_C_symmetric(M, C)
        assert defect <= 1e-8, f"defect {defect:.3e}"

    def test_self_adjoint_case_two_rotation(self):
        # nonzero c: symmetric for the rotation kind at lam = exp(-2i Arg(c))
        space = SpaceParams(0.5, 1, 32)
        c = 0.3 * np.exp(0.8j)
        pair = family_self_adjoint(0.9, 0.25, c, 1, 0.5, 32)
        M = build_wcd_matrix(pair, space)
        theta = np.angle(c)
        C = make_rotation_J(1.0, np.exp(-2j * theta), space)
        defect = is_C_symmetric(M, C)
        assert defect <= 1e-8, f"defect {defect:.3e}"

    def test_general_family_not_j_symmetric(self):
        # conjugated denominator with complex c is not plain-symmetric
        pair = family_general(1.0, 0.3, 0.25j, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        defect = is_C_symmetric(M, make_J(SPACE))
        assert defect > 1e-3
