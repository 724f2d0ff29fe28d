"""Tests for the boundedness grids, structural predicates and kernel-norm test."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from cswcd.bergman import SpaceParams, inner_product, kernel, space_norm
from cswcd.defaults import TOL_NORMALITY
from cswcd.diagnostics import (
    DEFAULT_ANGLES,
    DEFAULT_RADII,
    GRAM_POINTS,
    TREND_BOUNDED,
    TREND_DIVERGING,
    _classify_trend,
    _kernel_gram,
    boundedness_ratio_grid,
    export_grid_csv,
    is_hermitian,
    is_normal,
    necessary_conditions_check,
    nevanlinna_bound_grid,
    nevanlinna_univalent,
    norm_defect_kernel_test,
    normality_gram,
    normality_gram_defect,
)
from cswcd.errors import DomainError, UnboundedSymbolError
from cswcd.matrices import OperatorMatrix, apply, build_wcd_matrix
from cswcd.rng import SplitMix64
from cswcd.runner import SWEEPABLE_FAMILIES, draw_symbols, make_pair, parse_config
from cswcd.series import monomial, polynomial
from cswcd.symbols import (
    LinearFractionalMap,
    SymbolPair,
    family_general,
    family_j_symmetric,
    family_normal_origin,
    family_self_adjoint,
    lft_eval,
    lft_inverse,
    rotation_map,
)
from pinned_reports import cases

SPACE = SpaceParams(0.0, 1, 32)


class TestBoundednessRatioGrid:
    def test_dilation_is_compact_consistent(self):
        for alpha in (-0.5, 0.0, 1.0):
            for n in (1, 2, 3):
                report = boundedness_ratio_grid(rotation_map(0.5), alpha, n)
                assert report.trend == TREND_BOUNDED
                assert report.radial_maxima[-1] < report.radial_maxima[0]

    def test_half_shift_diverges(self):
        phi = LinearFractionalMap(0.5, 0.5, 0, 1)  # (1+z)/2
        for alpha in (-0.5, 0.0, 1.0):
            for n in (1, 2, 3):
                report = boundedness_ratio_grid(phi, alpha, n)
                assert report.trend == TREND_DIVERGING

    def test_half_shift_closed_form(self):
        # along the positive real axis the ratio is 2^(alpha+2+2n) (1-r)^(-2n)
        alpha, n = 0.0, 1
        phi = LinearFractionalMap(0.5, 0.5, 0, 1)
        report = boundedness_ratio_grid(phi, alpha, n, radii=(0.9,), angles=4)
        real_axis = [v for w, v in report.samples if abs(w.imag) < 1e-12 and w.real > 0]
        expect = 2 ** (alpha + 2 + 2 * n) * (1 - 0.9) ** (-2 * n)
        assert real_axis[0] == pytest.approx(expect)

    def test_gated_family_map_bounded_looking(self):
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 16)
        report = boundedness_ratio_grid(pair.phi, 0.0, 1)
        assert report.trend == TREND_BOUNDED

    def test_samples_outside_disk_skipped(self):
        # an automorphism reaches |phi(w)| = 1 only at the boundary; the
        # expanding map (1+z)/2 stays inside, so force skips with a rotation
        phi = rotation_map(1.0 + 0j)
        report = boundedness_ratio_grid(phi, 0.0, 1, radii=(0.999,), angles=8)
        assert len(report.samples) == 8  # |phi(w)| = 0.999 < 1, nothing skipped
        # z / (0.5 - z) has its pole at the sample w = 0.5 and |phi(w)| > 1 at
        # angles +-pi/4: all three are skipped, and nothing is raised
        pole = LinearFractionalMap(1, 0, -1, 0.5)
        report = boundedness_ratio_grid(pole, 0.0, 1, radii=(0.5,), angles=8)
        kept = [w for w, _ in report.samples]
        assert kept == [0.5 * cmath.exp(1j * math.pi * k / 4) for k in range(2, 7)]
        assert all(abs(lft_eval(pole, w)) < 1.0 for w in kept)

    def test_no_kept_sample_has_no_supremum(self):
        # phi = z + 3 maps the disk outside itself: every sample is skipped
        report = boundedness_ratio_grid(LinearFractionalMap(1, 3, 0, 1), 0.0, 1)
        assert report.samples == () and report.supremum is None

    def test_large_exponent_stays_finite(self):
        # (1 - |phi(w)|)^104 underflows near the circle; in logs it does not
        report = boundedness_ratio_grid(LinearFractionalMap(0.5, 0.5, 0, 1), 100.0, 1)
        assert math.isfinite(report.supremum) and report.trend == TREND_DIVERGING


class TestNevanlinna:
    def test_identity_map(self):
        phi = rotation_map(1.0)
        for w in (0.3, 0.5j, -0.7):
            expect = math.log(1.0 / abs(w)) ** 2  # alpha = 0
            assert nevanlinna_univalent(phi, w, 0.0) == pytest.approx(expect)

    def test_outside_image_is_zero(self):
        assert nevanlinna_univalent(rotation_map(0.5), 0.7, 0.0) == 0.0

    def test_halving_map(self):
        value = nevanlinna_univalent(rotation_map(0.5), 0.25, 0.0)
        assert value == pytest.approx(math.log(2.0) ** 2)

    def test_excluded_point(self):
        phi = LinearFractionalMap(0.31, 0.3, -0.3, 1.0)
        with pytest.raises(DomainError):
            nevanlinna_univalent(phi, lft_eval(phi, 0.0), 0.0)

    def test_grid_dilation_compact(self):
        report = nevanlinna_bound_grid(rotation_map(0.8), 0.0, 1, radii=(0.3, 0.5, 0.9, 0.99))
        assert report.trend == TREND_BOUNDED
        assert report.radial_maxima[-1] == 0.0

    def test_inverse_pole_counts_zero(self):
        # phi = (0.5 z + 0.1) / (z + 3) has phi(infinity) = 0.5, a grid sample
        # at which the inverse map has its pole: the preimage is at infinity,
        # outside the disk, so the sample is kept with the value 0
        phi = LinearFractionalMap(0.5, 0.1, 1, 3)
        assert nevanlinna_univalent(phi, 0.5, 0.5) == 0.0
        report = nevanlinna_bound_grid(phi, 0.5, 1)
        assert len(report.samples) == len(DEFAULT_RADII) * DEFAULT_ANGLES
        assert dict(report.samples)[0.5] == 0.0

    def test_grid_identity_diverges(self):
        # ratio [ln(1/r)]^(-2n) blows up as r -> 1
        report = nevanlinna_bound_grid(
            rotation_map(1.0), 0.0, 1, radii=(0.9, 0.99, 0.997, 0.999)
        )
        assert report.trend == TREND_DIVERGING


def reference_grid(value_at):
    """The per-point loop over the default polar grid: the (w, value, kappa)
    of each sample that ``value_at`` keeps, and the maximum per radius."""
    samples, radial_maxima = [], []
    for r in DEFAULT_RADII:
        best = math.nan
        for k in range(DEFAULT_ANGLES):
            w = r * cmath.exp(2j * math.pi * k / DEFAULT_ANGLES)
            sample = value_at(w)
            if sample is None:
                continue
            samples.append((w, *sample))
            best = sample[0] if math.isnan(best) else max(best, sample[0])
        radial_maxima.append(best)
    return samples, radial_maxima


def reference_ratio_grid(phi, alpha, n):
    """Ratio samples, each with its condition number
    kappa = 1 + (alpha+2)/(1-|w|) + (alpha+2+2n)/(1-|phi(w)|)."""
    def value_at(w):
        pw = lft_eval(phi, w)
        if abs(pw) >= 1.0:
            return None
        value = (1 - abs(w)) ** (alpha + 2) / (1 - abs(pw)) ** (alpha + 2 + 2 * n)
        return value, 1 + (alpha + 2) / (1 - abs(w)) + (alpha + 2 + 2 * n) / (1 - abs(pw))

    return reference_grid(value_at)


def reference_counting_grid(phi, alpha, n):
    """Counting samples, each with its condition number
    kappa = 1 + (alpha+2+2n)/ln(1/|w|) + (alpha+2)/ln(1/|z0|)."""
    phi_0 = lft_eval(phi, 0.0)

    def value_at(w):
        if w == phi_0 or w == 0:
            return None
        log_w = math.log(1.0 / abs(w))
        value = nevanlinna_univalent(phi, w, alpha) / log_w ** (alpha + 2 + 2 * n)
        if value == 0.0:
            return value, 1.0
        log_z0 = math.log(1.0 / abs(lft_eval(lft_inverse(phi), w)))
        return value, 1 + (alpha + 2 + 2 * n) / log_w + (alpha + 2) / log_z0

    return reference_grid(value_at)


def grid_maps(family):
    """The maps of the pinned check configs, or 40 seeded draws of a family."""
    if family == "pinned":
        docs = [doc for name, doc, _ in cases() if name.startswith("check-")]
        return list(dict.fromkeys(parse_config(doc).pair.phi for doc in docs))
    rng = SplitMix64(SWEEPABLE_FAMILIES.index(family) + 1)
    space = SpaceParams(0.0, 1, 16)
    return [make_pair(draw_symbols({"family": family}, rng), space).phi for _ in range(40)]


@pytest.mark.parametrize("family", ["pinned", *SWEEPABLE_FAMILIES])
def test_grids_match_the_per_point_reference(family):
    # array arithmetic rounds differently from scalar arithmetic, so each
    # value may move by a few ulp per condition number; points, order and
    # trend must not move
    for phi in grid_maps(family):
        for alpha, n in ((0.0, 1), (0.5, 2)):
            for grid, reference in ((boundedness_ratio_grid, reference_ratio_grid),
                                    (nevanlinna_bound_grid, reference_counting_grid)):
                report = grid(phi, alpha, n)
                samples, radial_maxima = reference(phi, alpha, n)
                assert [w for w, _ in report.samples] == [w for w, _, _ in samples]
                assert report.trend == _classify_trend(radial_maxima)
                for (_, got), (w, want, kappa) in zip(report.samples, samples):
                    assert abs(got - want) <= 1e-14 * kappa * abs(want), (phi, w)


class TestNecessaryConditions:
    def test_family_passes(self):
        pair = family_j_symmetric(1.0, 0.3, 0.25j, 2, 0.5, 64)
        assert necessary_conditions_check(pair) == ()

    def test_constant_plus_z_fails_flatness(self):
        pair = SymbolPair.from_series(polynomial([1, 1], 32), rotation_map(0.5), 1)
        assert "weight_flat_at_origin" in necessary_conditions_check(pair)

    def test_planted_zero_fails_scan(self):
        # psi = z (z - 0.5) vanishes at 0.5
        pair = SymbolPair.from_series(polynomial([0, -0.5, 1], 32), rotation_map(0.5), 1)
        assert "weight_nonvanishing" in necessary_conditions_check(pair)

    def test_missing_order_coefficient(self):
        pair = SymbolPair.from_series(monomial(3, 32), rotation_map(0.5), 2)
        assert "weight_order_exact" in necessary_conditions_check(pair)


class TestIsHermitian:
    def test_self_adjoint_family(self):
        pair = family_self_adjoint(1.0, 0.2, 0.3j, 1, 0.0, 32)
        M = build_wcd_matrix(pair, SPACE)
        assert is_hermitian(M) <= 1e-10

    def test_complex_amplitude_breaks_it(self):
        pair = family_general(1.0 + 0.2j, 0.2, 0.3j, 1, 0.0, 32)
        M = build_wcd_matrix(pair, SPACE)
        assert is_hermitian(M) > 1e-3

    def test_zero_matrix(self):
        M = OperatorMatrix(np.zeros((33, 33)), SPACE)
        assert is_hermitian(M) == 0.0


class TestIsNormal:
    def test_normal_origin_exact(self):
        pair = family_normal_origin(1.0 + 1j, 0.5, 2, 32)
        M = build_wcd_matrix(pair, SpaceParams(0.0, 2, 32))
        assert is_normal(M) <= 1e-12

    def test_hermitian_implies_normal(self):
        pair = family_self_adjoint(0.7, 0.25, 0.2 - 0.1j, 1, 0.5, 32)
        M = build_wcd_matrix(pair, SpaceParams(0.5, 1, 32))
        assert is_normal(M) <= 1e-10

    def test_real_c_imaginary_b_not_normal(self):
        pair = family_general(1.0, 0.4j, 0.3, 1, 0.0, 32)
        M = build_wcd_matrix(pair, SPACE)
        assert is_normal(M) > 1e-3


def gram_defect(symbols, alpha, n, N):
    pair = make_pair(symbols, SpaceParams(alpha, n, N))
    return normality_gram_defect(pair, alpha)


# closed forms (psi, phi, order) in mpmath of three families, for the oracle
def general_closed(a, b, c, n, alpha):
    cbar = mpmath.conj(c)
    return (lambda z: a * z**n / (math.factorial(n) * (1 - cbar * z) ** (n + alpha + 2)),
            lambda z: c + b * z / (1 - cbar * z), n)


def unitary_closed(p, lambda_u, alpha):
    pbar = mpmath.conj(p)
    scale = lambda_u * (1 - abs(p) ** 2) ** ((alpha + 2) / 2)
    return (lambda z: scale / (1 - pbar * z) ** (alpha + 2),
            lambda z: (pbar / p) * (p - z) / (1 - pbar * z), 0)


GRAM_ORACLE_CASES = [
    ({"family": "general", "a": [1.0, 0.2], "b": [0.4, 0.3], "c": [0.2, 0.1]}, 0.5, 1,
     lambda: general_closed(mpmath.mpc(1, 0.2), mpmath.mpc(0.4, 0.3), mpmath.mpc(0.2, 0.1), 1,
                            mpmath.mpf(0.5))),
    ({"family": "general", "a": 0.8, "b": -0.3, "c": [-0.1, 0.25]}, 1.0, 2,
     lambda: general_closed(mpmath.mpf(0.8), mpmath.mpf(-0.3), mpmath.mpc(-0.1, 0.25), 2,
                            mpmath.mpf(1))),
    ({"family": "unitary", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]}, 0.5, 1,
     lambda: unitary_closed(mpmath.mpc(0.3, 0.1), mpmath.mpc(0, 1), mpmath.mpf(0.5))),
]


class TestNormalityGram:
    @pytest.mark.parametrize("symbols, alpha, n, closed", GRAM_ORACLE_CASES,
                             ids=["general-n1", "general-n2", "unitary"])
    def test_adjoint_gram_matches_mpmath(self, symbols, alpha, n, closed):
        # <T* K_w, T* K_z> = conj(psi(w)) psi(z) n! Gamma(n+alpha+2) / Gamma(alpha+2)
        #                    2F1(n+1, n+alpha+2; 1; conj(phi(w)) phi(z)), at 40 digits
        pair = make_pair(symbols, SpaceParams(alpha, n, 48))
        _, G_star = normality_gram(pair, alpha)
        with mpmath.workdps(40):
            psi, phi, order = closed()
            al = mpmath.mpf(alpha)
            const = mpmath.factorial(order) * mpmath.gamma(order + al + 2) / mpmath.gamma(al + 2)
            points = [mpmath.mpc(w) for w in GRAM_POINTS]
            exact = np.array([[complex(
                mpmath.conj(psi(w)) * psi(z) * const
                * mpmath.hyp2f1(order + 1, order + al + 2, 1, mpmath.conj(phi(w)) * phi(z))
            ) for z in points] for w in points])
        assert np.max(np.abs(G_star - exact)) <= 1e-14 * np.max(np.abs(exact))

    @pytest.mark.parametrize("symbols, alpha, n, closed", GRAM_ORACLE_CASES,
                             ids=["general-n1", "general-n2", "unitary"])
    def test_operator_gram_matches_the_matrix_path(self, symbols, alpha, n, closed):
        # <T K_w, T K_z> from the operator matrix at N 400 applied to the
        # kernel coordinates
        space = SpaceParams(alpha, n, 400)
        pair = make_pair(symbols, space)
        G_T, _ = normality_gram(make_pair(symbols, SpaceParams(alpha, n, 48)), alpha)
        M = build_wcd_matrix(pair, space)
        images = [apply(M, kernel(w, 0, alpha, space.N)) for w in GRAM_POINTS]
        via_matrix = np.array([[inner_product(f, g, alpha) for g in images] for f in images])
        assert np.max(np.abs(G_T - via_matrix)) <= 1e-13 * np.max(np.abs(via_matrix))

    @pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
    def test_agrees_with_the_commutator(self, family):
        # 150 seeded draws at N 32: the same pass/fail at TOL_NORMALITY as the
        # guarded commutator, except that the commutator fails every unitary
        # operator, which the Gram passes
        rng = SplitMix64(SWEEPABLE_FAMILIES.index(family) + 300)
        alpha, n, N = 0.5, 1, 32
        space = SpaceParams(alpha, n, N)
        for _ in range(150):
            symbols = draw_symbols({"family": family}, rng)
            gram = gram_defect(symbols, alpha, n, N)
            if family == "unitary":
                assert gram <= TOL_NORMALITY, symbols
                continue
            commutator = is_normal(build_wcd_matrix(make_pair(symbols, space), space))
            assert (gram <= TOL_NORMALITY) == (commutator <= TOL_NORMALITY), symbols

    def test_independent_of_the_truncation(self):
        symbols = {"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}
        defects = [gram_defect(symbols, 0.5, 1, N) for N in (3, 9, 48, 192)]
        assert max(defects) - min(defects) <= 1e-15
        assert defects[0] == pytest.approx(0.2673, abs=1e-4)

    def test_unconverged_adjoint_series_is_refused(self):
        # the image gate keeps |u| <= 0.85, where the series converges well
        # inside its cap; at |u| 0.999 a large share lies past 2048 terms
        with pytest.raises(UnboundedSymbolError, match="has not converged at 2048 terms"):
            _kernel_gram(np.array([0.999 + 0j]), 1, 0.5)

    def test_refused_point(self):
        pair = family_j_symmetric(1.0, 0.1, 0.85j, 1, 0.5, 32)
        with pytest.raises(UnboundedSymbolError, match="image gate"):
            normality_gram(pair, 0.5)


class TestNormDefectKernelTest:
    def test_real_b_balances(self):
        space = SpaceParams(0.0, 1, 64)
        pair = family_general(1.0 + 0.3j, 0.25, 0.3 - 0.2j, 1, 0.0, 64)
        for w in (0.5, 0.5j):
            assert norm_defect_kernel_test(pair, w, space) <= 1e-8

    def test_zero_c_balances(self):
        space = SpaceParams(0.5, 2, 64)
        pair = family_general(0.8, 0.3j, 0.0, 2, 0.5, 64)
        for w in (0.5, 0.5j):
            assert norm_defect_kernel_test(pair, w, space) <= 1e-8

    def test_counterexample_real_c_complex_b(self):
        space = SpaceParams(0.0, 1, 64)
        pair = family_general(1.0, 0.4j, 0.3, 1, 0.0, 64)
        assert norm_defect_kernel_test(pair, 0.5j, space) > 1e-3

    def test_both_complex_unbalanced(self):
        space = SpaceParams(0.0, 1, 64)
        pair = family_general(1.0, 0.3 + 0.2j, 0.2 + 0.2j, 1, 0.0, 64)
        assert norm_defect_kernel_test(pair, 0.5, space) > 0

    def test_matrix_route_cross_check(self):
        # ||D K_w|| from the truncated matrix agrees with the closed form
        alpha, n, N = 0.0, 1, 96
        space = SpaceParams(alpha, n, N)
        a, b, c = 1.0, 0.25, 0.3 - 0.2j
        pair = family_general(a, b, c, n, alpha, N)
        w = 0.5
        M = build_wcd_matrix(pair, space)
        image = apply(M, kernel(w, 0, alpha, N))
        matrix_norm_sq = space_norm(image, alpha) ** 2
        from cswcd.bergman import kernel_norm_sq

        p1 = c + np.conj(b) * w / (1 - np.conj(c) * w)
        pref = abs(a) ** 2 * abs(w) ** (2 * n) / (
            math.factorial(n) ** 2 * abs(1 - np.conj(c) * w) ** (2 * (n + alpha + 2))
        )
        closed = pref * kernel_norm_sq(p1, n, alpha).value
        assert matrix_norm_sq == pytest.approx(closed, rel=1e-8)

    def test_wrong_family_rejected(self):
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 32)
        with pytest.raises(DomainError):
            norm_defect_kernel_test(pair, 0.5, SPACE)


class TestContainmentChain:
    def test_hermitian_implies_normal_implies_symmetric(self):
        # over self-adjoint family draws: Hermitian matrices are normal, and
        # symmetric for plain conjugation (c = 0) or the rotation kind
        from cswcd.conjugations import is_C_symmetric, make_J, make_rotation_J
        from cswcd.rng import SplitMix64

        rng = SplitMix64(99)
        checked = 0
        while checked < 25:
            alpha = rng.choice((-0.5, 0.0, 1.0))
            n = rng.choice((1, 2, 3))
            a = rng.real_signed(0.5, 1.5)
            b = rng.real_signed(0.1, 0.6)
            c = rng.complex_annulus(0.0, 0.5)
            pair = family_self_adjoint(a, b, c, n, alpha, 32)
            if not pair.bounded_hint:
                continue
            space = SpaceParams(alpha, n, 32)
            M = build_wcd_matrix(pair, space)
            assert is_hermitian(M) <= 1e-10 and is_normal(M) <= 1e-8
            if c == 0:
                C = make_J(alpha)
            else:
                theta = math.atan2(c.imag, c.real)
                lam = complex(math.cos(-2 * theta), math.sin(-2 * theta))
                C = make_rotation_J(1.0, lam, alpha)
            assert is_C_symmetric(M, C) <= 1e-8
            checked += 1


class TestGridCsv:
    def test_columns(self, tmp_path):
        report = boundedness_ratio_grid(rotation_map(0.5), 0.0, 1, radii=(0.5,), angles=4)
        path = tmp_path / "grid.csv"
        export_grid_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "re_w,im_w,value"
        assert len(lines) == 5
        cells = lines[1].split(",")
        assert len(cells) == 3
        float(cells[0]), float(cells[1]), float(cells[2])


def test_gram_reads_a_long_explicit_weight_at_its_own_order():
    # the Gram starts at order 63 < N: the weight's series there is the
    # leading block of the explicit polynomial, with or without the series
    # at N built first
    psi = polynomial([0.5**j for j in range(100)], 150)
    fresh = SymbolPair.from_series(psi, rotation_map(0.5), 1, params={"bounded": True})
    built = SymbolPair.from_series(psi, rotation_map(0.5), 1, params={"bounded": True})
    assert np.array_equal(built.psi.coeffs, psi.coeffs)
    assert normality_gram_defect(fresh, 0.5) == normality_gram_defect(built, 0.5)
    assert "psi" not in fresh.__dict__
