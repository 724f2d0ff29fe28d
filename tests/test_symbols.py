"""Tests for linear fractional maps and the closed-form symbol families."""

import cmath
import math
from functools import partial

import mpmath
import numpy as np
import pytest

from cswcd import symbols
from cswcd.bergman import kernel, t_constant
from cswcd.conjugations import KERNEL_POINTS
from cswcd.errors import DomainError, SingularityError
from cswcd.rng import SplitMix64
from cswcd.runner import draw_symbols
from cswcd.series import TruncatedSeries, polynomial, series_eval
from cswcd.symbols import (
    IDENTITY_MAP,
    LinearFractionalMap,
    RationalWeight,
    SymbolPair,
    bounded_sufficient,
    family_conjugated,
    family_general,
    family_j_symmetric,
    family_normal_origin,
    family_self_adjoint,
    lft_compose,
    lft_eval,
    lft_inverse,
    lft_to_series,
    rotation_map,
    sigma_companion,
    sup_norm_lft,
    unitary_symbols,
)
from rotation_reference import rotation_conjugated_reference
from series_reference import reference_weight_series

DISK_POINTS = (0.2 + 0.1j, -0.4j, 0.55, -0.3 + 0.35j, 0.1 - 0.6j)


def maps_agree(f, g, tol=1e-12):
    return all(abs(lft_eval(f, z) - lft_eval(g, z)) <= tol for z in DISK_POINTS)


class TestLftBasics:
    def test_identity_eval(self):
        for z in DISK_POINTS:
            assert lft_eval(IDENTITY_MAP, z) == z

    def test_family_map_at_zero(self):
        # c + b z/(1 - c z) written as ((b - c^2) z + c) / (-c z + 1)
        b, c = 0.4, 0.3
        phi = LinearFractionalMap(b - c * c, c, -c, 1.0)
        assert lft_eval(phi, 0.0) == pytest.approx(0.3)
        assert phi.a == pytest.approx(0.4 - 0.09)

    def test_pole(self):
        phi = LinearFractionalMap(1, 0, 1, -0.5)
        with pytest.raises(SingularityError):
            lft_eval(phi, 0.5)

    def test_degenerate_rejected(self):
        with pytest.raises(SingularityError):
            LinearFractionalMap(1, 2, 2, 4)

    def test_inverse(self):
        assert maps_agree(lft_inverse(IDENTITY_MAP), IDENTITY_MAP)
        phi = LinearFractionalMap(0.5, 0.2j, -0.1, 1.0)
        comp = lft_compose(phi, lft_inverse(phi))
        assert maps_agree(comp, IDENTITY_MAP)

    def test_compose_pointwise(self):
        f = LinearFractionalMap(0.3, 0.1, -0.2, 1.0)
        g = LinearFractionalMap(0.7j, 0.0, 0.1, 1.0)
        comp = lft_compose(f, g)
        for z in DISK_POINTS:
            assert lft_eval(comp, z) == pytest.approx(lft_eval(f, lft_eval(g, z)))

    def test_automorphism_involution_real_p(self):
        p = 0.5
        phi_p = unitary_symbols(p, 1.0, 0.0, 8).phi
        assert maps_agree(lft_compose(phi_p, phi_p), IDENTITY_MAP)


class TestSigmaCompanion:
    def test_family_map(self):
        # for ((b-c^2) z + c)/(-c z + 1) the companion sends 0 to conj(c)
        b, c = 0.4, 0.3 - 0.2j
        phi = LinearFractionalMap(b - c * c, c, -c, 1.0)
        sigma = sigma_companion(phi)
        assert lft_eval(sigma, 0.0) == pytest.approx(np.conj(c))

    def test_real_dilation_fixed(self):
        phi = rotation_map(0.7)
        assert maps_agree(sigma_companion(phi), phi)

    def test_involution_up_to_scaling(self):
        rng = SplitMix64(3)
        for _ in range(5):
            phi = LinearFractionalMap(
                rng.complex_annulus(0.1, 0.5),
                rng.complex_annulus(0.0, 0.3),
                rng.complex_annulus(0.0, 0.3),
                1.0,
            )
            assert maps_agree(sigma_companion(sigma_companion(phi)), phi)


class TestSupNorm:
    def test_dilation(self):
        assert sup_norm_lft(rotation_map(0.35j)) == pytest.approx(0.35)

    def test_half_shift(self):
        phi = LinearFractionalMap(0.5, 0.5, 0.0, 1.0)  # (1+z)/2
        assert sup_norm_lft(phi) == pytest.approx(1.0)

    def test_boundary_grid_oracle(self):
        phi = LinearFractionalMap(0.2, 0.3, -0.3, 1.0)  # 0.3 + 0.2 z/(1 - 0.3 z)
        grid = np.exp(2j * np.pi * np.arange(10**4) / 10**4)
        dense = max(abs(lft_eval(phi, z)) for z in grid)
        assert abs(sup_norm_lft(phi) - dense) <= 1e-7

    def test_pole_inside_disk_signals_inf(self):
        assert sup_norm_lft(LinearFractionalMap(1, 0, 1, 0.5)) == math.inf

    @staticmethod
    def image_circle_norm(phi):
        """The norm's arithmetic before it caught overflows: the draw test
        and the companion gate read its last bits."""
        denom = abs(phi.d) ** 2 - abs(phi.c) ** 2
        center = (np.conj(phi.d) * phi.b - phi.a * np.conj(phi.c)) / denom
        rho_sq = abs(center) ** 2 - (abs(phi.b) ** 2 - abs(phi.a) ** 2) / denom
        return abs(complex(center)) + math.sqrt(max(rho_sq, 0.0))

    def test_finite_norms_keep_their_bits(self):
        rng = np.random.default_rng(27)
        for i in range(20000):
            scale = 10.0 ** rng.uniform(-30, 30, 4) if i % 2 else np.ones(4)
            phi = LinearFractionalMap(*((rng.normal(size=4) + 1j * rng.normal(size=4)) * scale))
            if abs(phi.d) > abs(phi.c):
                assert sup_norm_lft(phi).hex() == self.image_circle_norm(phi).hex()

    @pytest.mark.parametrize("coeffs", [
        (1e300, [0.2, 0.1], [-0.2, 0.1], 1.0),          # general with b 1e300
        ([0.3, 1e300], [1e300, 0.1], [0.1, 0.02], 1.0),  # |a|^2 - |b|^2 overflows
        (0.3, -1.0, 0.1, 1e300),                         # about 1e-300 on the disk
        (1.0, 0.0, 0.0, 1e-300),                         # 1e300 z: d's square underflows
        ([1e308, 1e308], 0.0, 0.0, 1e-300),              # past the double range
    ])
    def test_large_coefficients_match_mpmath(self, coeffs):
        phi = LinearFractionalMap(*(complex(*x) if isinstance(x, list) else x for x in coeffs))
        # the former arithmetic raises, or warns of an overflow or a 0 / 0
        with pytest.raises((OverflowError, RuntimeWarning)):
            self.image_circle_norm(phi)
        with mpmath.workdps(40):
            a, b, c, d = (mpmath.mpc(x) for x in (phi.a, phi.b, phi.c, phi.d))
            denom = abs(d) ** 2 - abs(c) ** 2
            exact = abs(mpmath.conj(d) * b - a * mpmath.conj(c)) / denom \
                + abs(a * d - b * c) / denom
            exact = float(exact) if exact < 1.7976931348623157e308 else math.inf
        assert sup_norm_lft(phi) == pytest.approx(exact, rel=1e-12)


class TestLftToSeries:
    def test_matches_pointwise(self):
        phi = LinearFractionalMap(0.31, 0.3, -0.3, 1.0)
        f = lft_to_series(phi, 64)
        for z in DISK_POINTS:
            assert series_eval(f, z) == pytest.approx(lft_eval(phi, z), abs=1e-12)

    def test_pole_on_circle_rejected(self):
        with pytest.raises(SingularityError):
            lft_to_series(LinearFractionalMap(1, 0, 1, 1), 8)


class TestFamilyJSymmetric:
    def test_c_zero_collapses(self):
        a, b, n, N = 2.0, 0.5, 2, 16
        pair = family_j_symmetric(a, b, 0.0, n, 0.0, N)
        assert np.allclose(pair.psi.coeffs, [0, 0, 1.0, 0] + [0] * (N - 3))
        assert maps_agree(pair.phi, rotation_map(b))

    def test_weight_derivative_at_origin(self):
        # n! * coefficient_n recovers a
        a, n = 1.3 - 0.4j, 2
        pair = family_j_symmetric(a, 0.3, 0.2 + 0.1j, n, 0.5, 24)
        assert math.factorial(n) * pair.psi.coeffs[n] == pytest.approx(a)

    def test_map_derivative_at_origin(self):
        # finite-difference oracle for phi'(0) = b
        b = 0.25 - 0.15j
        pair = family_j_symmetric(1.0, b, 0.3j, 1, 0.0, 8)
        h = 1e-7
        fd = (lft_eval(pair.phi, h) - lft_eval(pair.phi, -h)) / (2 * h)
        assert fd == pytest.approx(b, abs=1e-7)
        assert lft_eval(pair.phi, 0.0) == pytest.approx(0.3j)

    def test_weight_is_scaled_kernel(self):
        # psi = (a / (t n!)) * kernel(conj(c), n) coefficientwise
        for alpha in (-0.5, 0.0, 1.0):
            a, c, n, N = 0.8 + 0.2j, 0.35 - 0.2j, 2, 32
            pair = family_j_symmetric(a, 0.3, c, n, alpha, N)
            scale = a / (t_constant(alpha, n) * math.factorial(n))
            expect = scale * kernel(np.conj(c), n, alpha, N).coeffs
            assert np.allclose(pair.psi.coeffs, expect, rtol=1e-12, atol=1e-14)

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            family_j_symmetric(0.0, 0.3, 0.1, 1, 0.0, 16)
        with pytest.raises(DomainError):
            family_j_symmetric(1.0, 0.0, 0.1, 1, 0.0, 16)
        with pytest.raises(DomainError):
            family_j_symmetric(1.0, 0.3, 1.0, 1, 0.0, 16)


class TestFamilySelfAdjoint:
    def test_real_c_matches_plain_family(self):
        pair_sa = family_self_adjoint(1.0, 0.2, 0.3, 1, 0.0, 16)
        pair_j = family_j_symmetric(1.0, 0.2, 0.3, 1, 0.0, 16)
        assert np.allclose(pair_sa.psi.coeffs, pair_j.psi.coeffs)
        assert maps_agree(pair_sa.phi, pair_j.phi)

    def test_conjugated_denominator_coefficient(self):
        # (1 - conj(c) z)^(-3) has first coefficient 3 conj(c) = -0.9j at c = 0.3j
        pair = family_self_adjoint(1.0, 0.2, 0.3j, 1, 0.0, 16)
        assert pair.psi.coeffs[2] == pytest.approx(-0.9j)

    def test_map_constant_term(self):
        pair = family_self_adjoint(1.0, 0.2, 0.3j, 1, 0.0, 16)
        assert lft_eval(pair.phi, 0.0) == pytest.approx(0.3j)

    def test_rejects_nonreal(self):
        with pytest.raises(DomainError):
            family_self_adjoint(1.0 + 0.2j, 0.2, 0.1, 1, 0.0, 16)
        with pytest.raises(DomainError):
            family_self_adjoint(1.0, 0.2j, 0.1, 1, 0.0, 16)


class TestFamilyGeneral:
    def test_accepts_complex_parameters(self):
        pair = family_general(1.0 + 0.5j, 0.4j, 0.3, 1, 0.0, 16)
        assert lft_eval(pair.phi, 0.0) == pytest.approx(0.3)

    def test_same_shape_as_self_adjoint(self):
        kw = dict(c=0.2 - 0.1j, n=2, alpha=0.5, N=16)
        general = family_general(0.7, 0.3, **kw)
        restricted = family_self_adjoint(0.7, 0.3, **kw)
        assert np.allclose(general.psi.coeffs, restricted.psi.coeffs)
        assert maps_agree(general.phi, restricted.phi)


class TestFamilyNormalOrigin:
    def test_rejections(self):
        with pytest.raises(DomainError):
            family_normal_origin(1.0, 0.0, 1, 16)
        with pytest.raises(DomainError):
            family_normal_origin(1.0, 1.0, 1, 16)
        with pytest.raises(DomainError):
            family_normal_origin(0.0, 0.5, 1, 16)

    def test_symbols(self):
        pair = family_normal_origin(2.0, 0.5, 3, 16)
        assert pair.psi.coeffs[3] == 2.0
        assert np.count_nonzero(pair.psi.coeffs) == 1
        assert maps_agree(pair.phi, rotation_map(0.5))


class TestUnitarySymbols:
    def test_map_sends_p_to_zero(self):
        p = 0.4 - 0.3j
        pair = unitary_symbols(p, 1.0, 0.0, 8)
        assert lft_eval(pair.phi, p) == pytest.approx(0.0, abs=1e-15)

    def test_map_at_zero(self):
        p = 0.4 - 0.3j
        pair = unitary_symbols(p, 1.0, 0.0, 8)
        assert lft_eval(pair.phi, 0.0) == pytest.approx(np.conj(p))

    def test_weight_at_zero(self):
        pair = unitary_symbols(0.5, 1.0, 0.0, 8)
        assert pair.psi.coeffs[0] == pytest.approx(0.75)

    def test_order_is_zero(self):
        assert unitary_symbols(0.2j, 1.0, 1.0, 8).n == 0

    def test_gain_is_kept_in_logs(self):
        # (1 - 0.99^2)^201 is about 1e-342, below the double range: the
        # weight keeps P = lambda_u and the gain's logarithm instead
        pair = unitary_symbols(0.99, 1j, 400.0, 32)
        assert pair.weight.poly.tolist() == [1j]
        assert pair.weight.log_gain == pytest.approx(201 * math.log(1 - 0.99**2))
        assert math.exp(pair.weight.log_gain) == 0.0

    def test_rejections(self):
        with pytest.raises(DomainError):
            unitary_symbols(0.0, 1.0, 0.0, 8)
        with pytest.raises(DomainError):
            unitary_symbols(0.5, 1.1, 0.0, 8)


class TestFamilyConjugated:
    def test_simple_base_map(self):
        # with c = 0 the base map is b z, so phi = b phi_p pointwise
        b, p = 0.45, 0.3
        pair = family_conjugated(1.0, b, 0.0, 1, 0.0, 16, p=p)
        phi_p = unitary_symbols(p, 1.0, 0.0, 16).phi
        for z in DISK_POINTS:
            assert lft_eval(pair.phi, z) == pytest.approx(b * lft_eval(phi_p, z))

    def test_composed_weight_pointwise(self):
        # oracle: psi(z) = psi_p(z) * psi_base(phi_p(z)) evaluated directly
        a, b, c = 1.2 - 0.3j, 0.25, 0.2 + 0.1j
        n, alpha, N = 2, 0.5, 48
        p, lam_u = 0.35 * np.exp(0.8j), np.exp(0.3j)
        pair = family_conjugated(a, b, c, n, alpha, N, p=p, lambda_u=lam_u)
        phi_p = unitary_symbols(p, lam_u, alpha, N).phi
        for z in (0.1, -0.2j, 0.15 + 0.1j):
            w = lft_eval(phi_p, z)
            psi_p_z = lam_u * (1 - abs(p) ** 2) ** ((alpha + 2) / 2) / (
                1 - np.conj(p) * z
            ) ** (alpha + 2)
            psi_base_w = a * w**n / (math.factorial(n) * (1 - c * w) ** (n + alpha + 2))
            assert series_eval(pair.psi, z) == pytest.approx(
                psi_p_z * psi_base_w, abs=1e-12
            )

    def test_rotation_identity_case(self):
        pair = family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 16, mu=1.0, lam=1.0)
        base = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 16)
        assert np.allclose(pair.psi.coeffs, base.psi.coeffs)
        assert maps_agree(pair.phi, base.phi)

    def test_rotation_parity_flip(self):
        pair = family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 16, mu=1.0, lam=-1.0)
        base = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 16)
        signs = (-1.0) ** np.arange(17)
        assert np.allclose(pair.psi.coeffs, base.psi.coeffs * signs)
        for z in DISK_POINTS:
            assert lft_eval(pair.phi, z) == pytest.approx(lft_eval(base.phi, -z))

    def test_transport_makes_one_pair_and_one_unitary_call(self, monkeypatch):
        made, calls = [], []

        def counted(real, log):
            def wrapper(*args, **kwargs):
                log.append(args)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(symbols, "SymbolPair", counted(SymbolPair, made))
        monkeypatch.setattr(symbols, "unitary_parameters",
                            counted(symbols.unitary_parameters, calls))
        family_conjugated(1.0, 0.3, 0.2 + 0.1j, 2, 0.5, 16, p=0.3 - 0.2j)
        assert len(made) == 1 and len(calls) == 1

    def test_mode_selection(self):
        with pytest.raises(DomainError):
            family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 16)
        with pytest.raises(DomainError):
            family_conjugated(1.0, 0.3, 0.2, 1, 0.0, 16, p=0.3, mu=1.0, lam=1.0)

    @pytest.mark.parametrize("alpha", (-0.5, 0.5, 50.0))
    def test_rotation_transport_equals_the_written_out_weight(self, alpha):
        # the transport by (mu, 0, lam z) forms the numbers of the written-out
        # rotation case; == leaves the sign of a zero aside
        rng = SplitMix64(3400)
        for n in (1, 2, 3):
            for _ in range(40):
                s = draw_symbols({"family": "rotation-conjugated"}, rng)
                a, b, c, mu, lam = (complex(*s[key]) for key in ("a", "b", "c", "mu", "lam"))
                pair = family_conjugated(a, b, c, n, alpha, 16, mu=mu, lam=lam)
                weight, phi = rotation_conjugated_reference(a, b, c, n, alpha, mu, lam)
                assert pair.weight.poly.tolist() == weight.poly.tolist()
                assert (pair.weight.rho, pair.weight.exponent, pair.weight.log_gain) == (
                    weight.rho, weight.exponent, weight.log_gain)
                assert pair.phi == phi


class TestBoundedSufficient:
    def test_origin_cases(self):
        assert bounded_sufficient(0.5, 0.0)
        assert not bounded_sufficient(1.0, 0.0)

    def test_worked_example(self):
        # 2 |0.3 + 0.3 (0.2 - 0.09)| = 0.666 < 1 - 0.11^2 = 0.9879
        assert bounded_sufficient(0.2, 0.3)
        lhs = 2 * abs(0.3 + 0.3 * (0.2 - 0.09))
        assert lhs == pytest.approx(0.666)

    def test_implies_strict_sup_norm(self):
        rng = SplitMix64(11)
        hits = 0
        for _ in range(300):
            b = rng.complex_annulus(0.05, 0.9)
            c = rng.complex_annulus(0.0, 0.7)
            if bounded_sufficient(b, c):
                hits += 1
                phi = LinearFractionalMap(b - c * c, c, -c, 1.0)
                assert sup_norm_lft(phi) < 1.0
        assert hits > 50


class TestSymbolPairInvariants:
    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            SymbolPair.from_series(TruncatedSeries(np.zeros(9, dtype=complex)), IDENTITY_MAP, 1)


# parameters of the pairs of the closed-form oracle
ORACLE_BASE = {"a": 1 + 0.4j, "b": 0.3 + 0.1j, "c": 0.25 - 0.15j}
ORACLE_P, ORACLE_LAMBDA_U = 0.55 * cmath.exp(0.7j), cmath.exp(0.9j)
ORACLE_MU, ORACLE_LAM = cmath.exp(0.4j), cmath.exp(-1.1j)
ORACLE_EXPLICIT = [0.3, -0.2 + 0.1j, 0.5j, 0.1]
ORACLE_FAMILIES = ("j-symmetric", "general", "self-adjoint", "normal-origin", "unitary",
                   "wc-conjugated", "rotation-conjugated", "explicit")


def oracle_pair(family, n, alpha, N=32):
    """The family's pair and its weight psi as an mpmath function of z,
    written from the family's definition, with no shared factor cancelled."""
    a, b, c = ORACLE_BASE["a"], ORACLE_BASE["b"], ORACLE_BASE["c"]
    al = mpmath.mpf(alpha)
    ma, mc = mpmath.mpc(a), mpmath.mpc(c)

    def base(z, cc=mc, aa=ma):
        return aa * z**n / (math.factorial(n) * (1 - cc * z) ** (n + al + 2))

    if family == "j-symmetric":
        return family_j_symmetric(a, b, c, n, alpha, N), base
    if family == "general":
        return family_general(a, b, c, n, alpha, N), partial(base, cc=mpmath.conj(mc))
    if family == "self-adjoint":
        return (family_self_adjoint(-0.7, 0.35, c, n, alpha, N),
                partial(base, cc=mpmath.conj(mc), aa=mpmath.mpf(-0.7)))
    if family == "normal-origin":
        return family_normal_origin(a, 0.5j, n, N), lambda z: ma * z**n
    if family == "explicit":
        pair = SymbolPair.from_series(polynomial(ORACLE_EXPLICIT, N), rotation_map(0.5), n)
        return pair, lambda z: mpmath.polyval([mpmath.mpc(x) for x in ORACLE_EXPLICIT[::-1]], z)
    p, lam_u = mpmath.mpc(ORACLE_P), mpmath.mpc(ORACLE_LAMBDA_U)
    pbar = mpmath.conj(p)
    k = lam_u * (1 - abs(p) ** 2) ** ((al + 2) / 2)

    def psi_p(z):
        return k / (1 - pbar * z) ** (al + 2)

    def phi_p(z):
        return (pbar / p) * (p - z) / (1 - pbar * z)

    if family == "unitary":
        return unitary_symbols(ORACLE_P, ORACLE_LAMBDA_U, alpha, N), psi_p
    if family == "wc-conjugated":
        pair = family_conjugated(a, b, c, n, alpha, N, p=ORACLE_P, lambda_u=ORACLE_LAMBDA_U)
        return pair, lambda z: psi_p(z) * base(phi_p(z))
    pair = family_conjugated(a, b, c, n, alpha, N, mu=ORACLE_MU, lam=ORACLE_LAM)
    return pair, lambda z: mpmath.mpc(ORACLE_MU) * base(mpmath.mpc(ORACLE_LAM) * z)


def oracle_params(family, alpha):
    """The parameters of ``oracle_pair``'s pair, as ``reference_weight_series``
    reads them."""
    params = {**ORACLE_BASE, "alpha": alpha}
    if family == "self-adjoint":
        params.update(a=-0.7, b=0.35)
    if family in ("unitary", "wc-conjugated"):
        params.update(p=ORACLE_P, lambda_u=ORACLE_LAMBDA_U)
    if family == "rotation-conjugated":
        params.update(mu=ORACLE_MU, lam=ORACLE_LAM)
    return params


class TestClosedFormWeight:
    """Each family carries psi = exp(g) P (1 - rho z)^-e; the series is built
    only when read."""

    @pytest.mark.parametrize("alpha", [0.5, 10, 50, 100, 400])
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_values_match_mpmath(self, family, alpha):
        # psi at KERNEL_POINTS against its definition at 40 digits, pointwise
        # relative, for n 0 to 3
        u = np.array(KERNEL_POINTS)
        for n in range(4):
            pair, psi = oracle_pair(family, n, alpha)
            got = pair.weight.values(u)
            with mpmath.workdps(40):
                exact = np.array([complex(psi(mpmath.mpc(x))) for x in KERNEL_POINTS])
            assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact)), (n, got, exact)

    @pytest.mark.parametrize("family", ORACLE_FAMILIES[:-1])
    def test_series_matches_the_product_of_series(self, family):
        # the closed form's series against the old construction, a product of
        # binomial series (series_reference), at alpha 0.5 and N 96
        for n in range(4):
            pair, _ = oracle_pair(family, n, 0.5, N=96)
            assert "psi" not in pair.__dict__
            want = reference_weight_series(family, oracle_params(family, 0.5), n, 96).coeffs
            got = pair.psi.coeffs
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n

    def test_wc_gain_is_kept_in_logs(self):
        # den0^-(n+alpha+2) = (1 - c p)^-403 is about 1e407 here: alone it
        # leaves the double range, with (1 - p^2)^201 it is about 1e204
        a, b, c, n, alpha = 1.0, 0.05, 0.95, 1, 400.0
        p = 0.95
        pair = family_conjugated(a, b, c, n, alpha, 32, p=p)
        assert mpmath.mpf(1 - c * p) ** -(n + alpha + 2) > mpmath.mpf("1e400")
        got = pair.weight.values(np.array(KERNEL_POINTS))
        with mpmath.workdps(40):
            z = [mpmath.mpc(x) for x in KERNEL_POINTS]
            pm, cm = mpmath.mpf(p), mpmath.mpf(c)
            k = (1 - pm**2) ** ((alpha + 2) / 2)
            phi_p = [(pm - x) / (1 - pm * x) for x in z]
            exact = np.array([complex(k / (1 - pm * x) ** (alpha + 2) * a * w**n
                                      / (1 - cm * w) ** (n + alpha + 2))
                              for x, w in zip(z, phi_p)])
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact))

    def test_rejects_a_pole_in_the_disk(self):
        with pytest.raises(DomainError, match="weight pole"):
            RationalWeight([1.0], 1.0, 2.5)
        with pytest.raises(DomainError, match="finite"):
            RationalWeight([math.inf])
