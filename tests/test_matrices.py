"""Tests for truncated operator matrices, adjoints and the kernel identity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cswcd.bergman import SpaceParams, beta_sq_vector, falling_factorial, kernel
from cswcd.conjugations import extended_space, make_wc_J, unitary_part
from cswcd.errors import SingularityError, TruncationMismatchError, UnboundedSymbolError
from cswcd.matrices import (
    OperatorMatrix,
    _build,
    _workspace,
    adjoint_matrix,
    adjoint_on_kernel,
    apply,
    build_wcd_matrix,
    build_weighted_composition,
    cowen_adjoint_pair,
    export_matrix_csv,
)
from cswcd.rng import SplitMix64
from cswcd.runner import SWEEPABLE_FAMILIES, draw_symbols, make_pair
from cswcd.series import (
    TruncatedSeries,
    monomial,
    one_series,
    polynomial,
    series_mul,
)
from cswcd.symbols import (
    LinearFractionalMap,
    SymbolPair,
    family_general,
    family_j_symmetric,
    family_normal_origin,
    family_self_adjoint,
    lft_eval,
    lft_to_series,
    rotation_map,
    sigma_companion,
    sup_norm_lft,
    unitary_symbols,
)
from wc_reference import GUARD

SPACE = SpaceParams(0.0, 1, 24)


def explicit_pair(psi, phi, n, bounded=True):
    return SymbolPair.from_series(psi, phi, n, bounded=bounded)


def draw_contractive_lft(rng, sup_cap=0.7):
    """Map with exactly known sup norm below sup_cap."""
    w0 = rng.complex_annulus(0.0, 0.3)
    rho = rng.uniform(0.1, sup_cap - abs(w0))
    q = rng.complex_annulus(0.0, 0.5)
    s = rho * rng.unimodular()
    return LinearFractionalMap(
        s * 1.0 + w0 * (-np.conj(q)), s * (-q) + w0 * 1.0, -np.conj(q), 1.0
    )


class TestBuildWcd:
    def test_monomial_weight_halving_map_is_diagonal(self):
        # D(z^j) = j 2^(1-j) z^j for psi = z, phi = z/2, n = 1
        pair = explicit_pair(monomial(1, 24), rotation_map(0.5), 1)
        M = build_wcd_matrix(pair, SPACE).entries
        off = M - np.diag(np.diag(M))
        assert np.max(np.abs(off)) == 0
        assert M[1, 1] == pytest.approx(1.0)
        assert M[2, 2] == pytest.approx(1.0)
        assert M[3, 3] == pytest.approx(0.75)

    def test_low_columns_vanish(self):
        pair = family_j_symmetric(1.0, 0.3, 0.2, 3, 0.0, 24)
        M = build_wcd_matrix(pair, SpaceParams(0.0, 3, 24)).entries
        assert np.all(M[:, :3] == 0)

    def test_normal_origin_is_diagonal(self):
        pair = family_normal_origin(1.0, 0.5, 2, 24)
        M = build_wcd_matrix(pair, SpaceParams(0.0, 2, 24)).entries
        assert np.max(np.abs(M - np.diag(np.diag(M)))) == 0

    def test_normal_origin_diagonal_entry(self):
        pair = family_normal_origin(1.0, 0.5, 1, 24)
        M = build_wcd_matrix(pair, SPACE).entries
        assert M[1, 1] == pytest.approx(1.0)

    def test_gate_refuses_expanding_map(self):
        # phi = (1+z)/2 has sup norm 1 and no boundedness flag
        pair = explicit_pair(
            monomial(1, 24), LinearFractionalMap(0.5, 0.5, 0, 1), 1, bounded=False
        )
        with pytest.raises(UnboundedSymbolError):
            build_wcd_matrix(pair, SPACE)


def reference_build(psi, phi, n, space):
    """The per-column build: column j scales the Cauchy product psi * phi^(j-n),
    with the power of phi grown by one truncated product per column."""
    N = space.N
    broot = np.sqrt(beta_sq_vector(N, space.alpha))
    phi_series = lft_to_series(phi, N)
    power = one_series(N)
    M = np.zeros((N + 1, N + 1), dtype=complex)
    for j in range(n, N + 1):
        if j > n:
            power = series_mul(power, phi_series)
        M[:, j] = series_mul(psi, power).coeffs * (falling_factorial(j, n) / broot[j]) * broot
    return M


def oracle_build(psi, phi, n, space, dps=40):
    """The per-column build in mpmath at dps digits, from the Taylor series
    of phi = (a z + b) / (c z + d), rounded to double at the end."""
    N = space.N
    with mpmath.workdps(dps):
        a, b, c, d = (mpmath.mpc(v.real, v.imag) for v in (phi.a, phi.b, phi.c, phi.d))
        geo = [(-c / d) ** m for m in range(N + 1)]
        phi_series = [b * geo[0] / d] + [(b * geo[m] + a * geo[m - 1]) / d for m in range(1, N + 1)]
        psi_series = [mpmath.mpc(v.real, v.imag) for v in psi.coeffs]

        def mul(f, g):
            return [mpmath.fdot(f[: m + 1], g[m::-1]) for m in range(N + 1)]

        beta_sq = [mpmath.mpf(1)]
        for j in range(1, N + 1):
            beta_sq.append(beta_sq[-1] * j / (j + 1 + mpmath.mpf(space.alpha)))
        broot = [mpmath.sqrt(v) for v in beta_sq]
        M = np.zeros((N + 1, N + 1), dtype=complex)
        power = [mpmath.mpc(1)] + [mpmath.mpc(0)] * N
        for j in range(n, N + 1):
            if j > n:
                power = mul(power, phi_series)
            scale = mpmath.ff(j, n) / broot[j]
            M[:, j] = [complex(v * scale * r) for v, r in zip(mul(psi_series, power), broot)]
    return M


def normwise_error(M, exact):
    return float(np.max(np.abs(M - exact)) / np.max(np.abs(exact)))


def two_array_columns(psi, phi, n, N):
    """The anti-diagonal recurrence in its own array G, below one zero row."""
    K = N - n
    C = K + 1
    G = np.zeros((N + 2, C), dtype=complex)
    G[1:, 0] = psi.coeffs
    flat = G.reshape(-1)
    a, b, c, d = phi.a, phi.b, phi.c, phi.d
    for s in range(1, N + K + 1):
        lo, hi = max(0, s - K), min(N, s - 1)
        if lo > hi:
            continue
        first = C + lo * (C - 1) + s
        last = first + (hi - lo) * (C - 1)
        at = slice(first, last + 1, C - 1)
        left = slice(first - 1, last, C - 1)
        up = slice(first - C, last + 1 - C, C - 1)
        up_left = slice(first - C - 1, last - C, C - 1)
        flat[at] = (a * flat[up_left] + b * flat[left] - c * flat[up]) / d
    return G[1:]


def two_array_build(psi, phi, n, space):
    """The recurrence in a separate array, then scaled into a zeroed matrix
    through full-size temporaries: the build that the one-buffer build must
    reproduce bit for bit."""
    N = space.N
    broot = np.sqrt(beta_sq_vector(N, space.alpha))
    scale = np.array([falling_factorial(j, n) / broot[j] for j in range(n, N + 1)])
    M = np.zeros((N + 1, N + 1), dtype=complex)
    M[:, n:] = two_array_columns(psi, phi, n, N) * scale * broot[:, None]
    return M


# the three parameter branches of a general draw, at the scalar-sweep shape;
# with c = 0 the map's c coefficient is a signed zero
GENERAL_BRANCHES = [(0.4, 0.2 + 0.1j), (0.4 + 0.3j, 0j), (0.4 + 0.3j, 0.2 + 0.1j)]


def assert_bit_equal(M, ref):
    assert np.array_equal(M.view(np.float64), ref.view(np.float64))


class TestOneBuffer:
    """The build runs the recurrence in a work buffer kept per (N, n) and
    scales a fresh copy of it, with the same operations in the same operand
    order as the build in two arrays, so every bit agrees."""

    def test_builds_back_to_back_reuse_the_buffer_safely(self):
        # every cell a build reads is rewritten first, so no build sees what
        # the build before it left in the buffer, at its shape or another
        space = SpaceParams(0.0, 1, 48)
        pairs = [family_general(1.0 - 0.5j, b, c, 1, 0.0, 48) for b, c in GENERAL_BRANCHES]
        for pair in pairs:
            ref = two_array_build(pair.psi, pair.phi, pair.n, space)
            assert_bit_equal(build_wcd_matrix(pair, space).entries, ref)
        other_space = SpaceParams(0.5, 2, 40)
        other = family_self_adjoint(0.8, 0.3, 0.2 + 0.1j, 2, 0.5, 40)
        ref = two_array_build(other.psi, other.phi, 2, other_space)
        assert_bit_equal(build_wcd_matrix(other, other_space).entries, ref)
        first = pairs[0]
        ref = two_array_build(first.psi, first.phi, 0, space)
        assert_bit_equal(build_weighted_composition(first.psi, first.phi, space).entries, ref)
        ref = two_array_build(first.psi, first.phi, 1, space)
        M = build_wcd_matrix(first, space)
        assert_bit_equal(M.entries, ref)
        workspace, _ = _workspace(48, 1)
        assert not np.shares_memory(M.entries, workspace)
        assert not np.shares_memory(_build(first.psi, first.phi, 1, space), workspace)

    def test_one_workspace_is_kept(self):
        for N, n in ((48, 1), (40, 2)):
            pair = family_self_adjoint(0.8, 0.3, 0.2 + 0.1j, n, 0.5, N)
            build_wcd_matrix(pair, SpaceParams(0.5, n, N))
        assert _workspace.cache_info().currsize == 1
        workspace, steps = _workspace(40, 2)
        assert workspace.shape == (42, 41) and len(steps) == 2 * 40 - 2

    @pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
    def test_sweepable_family(self, family):
        rng = SplitMix64(SWEEPABLE_FAMILIES.index(family) + 40)
        for N in (3, 4, 48, 192):
            for n in (1, 2):
                if N < n + 2:
                    continue
                space = SpaceParams(0.5, n, N)
                pair = make_pair(draw_symbols({"family": family}, rng), space)
                M = build_wcd_matrix(pair, space).entries
                ref = two_array_build(pair.psi, pair.phi, pair.n, space)
                assert np.array_equal(M.view(np.float64), ref.view(np.float64)), (N, n)

    def test_wc_unitary(self):
        p, lambda_u = 0.55 * np.exp(0.3j), np.exp(0.9j)
        U = unitary_part(make_wc_J(p, lambda_u, 0.5), extended_space(SpaceParams(0.5, 2, 96), p).N)
        pair = unitary_symbols(p, lambda_u, 0.5, U.space.N)
        ref = two_array_build(pair.psi, pair.phi, 0, U.space)
        assert_bit_equal(U.entries, ref)

    @pytest.mark.parametrize("b, c", GENERAL_BRANCHES, ids=["b-real", "c-zero", "free"])
    def test_general_branch_at_sweep_shape(self, b, c):
        space = SpaceParams(0.0, 1, 48)
        pair = family_general(1.0 - 0.5j, b, c, 1, 0.0, 48)
        M = build_wcd_matrix(pair, space).entries
        ref = two_array_build(pair.psi, pair.phi, pair.n, space)
        assert_bit_equal(M, ref)

    @pytest.mark.parametrize("n", (1, 2))
    def test_explicit_fixing_origin_at_smallest_truncation(self, n):
        space = SpaceParams(0.5, n, n + 2)
        psi = polynomial([0.0] * n + [0.7 + 0.2j, -0.3j], n + 2)
        phi = LinearFractionalMap(0.5 + 0.1j, 0.0, 0.2 - 0.1j, 1.0)
        assert lft_eval(phi, 0.0) == 0
        M = build_wcd_matrix(explicit_pair(psi, phi, n), space).entries
        ref = two_array_build(psi, phi, n, space)
        assert_bit_equal(M, ref)


class TestAgainstReference:
    """The anti-diagonal recurrence rounds differently from the per-column
    Cauchy products, so the builds agree to a tolerance, not bit for bit."""

    @pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
    def test_sweepable_family(self, family):
        space = SpaceParams(0.5, 2, 96)
        pair = make_pair(draw_symbols({"family": family}, SplitMix64(7)), space)
        M = build_wcd_matrix(pair, space).entries
        ref = reference_build(pair.psi, pair.phi, pair.n, space)
        assert normwise_error(M, ref) <= 1e-14

    def test_wc_unitary_at_extended_truncation(self):
        p, lambda_u = 0.55 * np.exp(0.3j), np.exp(0.9j)
        U = unitary_part(make_wc_J(p, lambda_u, 0.5), extended_space(SpaceParams(0.5, 2, 96), p).N)
        pair = unitary_symbols(p, lambda_u, 0.5, U.space.N)
        ref = reference_build(pair.psi, pair.phi, 0, U.space)
        assert normwise_error(U.entries, ref) <= 1e-14

    def test_mpmath_oracle(self):
        # The per-case errors sit within a unit roundoff of each other and
        # either build can be the closer one on a given case; the unitary
        # weighted composition (order 0) is where the per-column build loses a
        # few units. So every case is bounded, and the worst case must not
        # exceed the reference's.
        cases = [
            (SpaceParams(0.5, 1, 48), family_self_adjoint(0.8, 0.3, 0.2 + 0.1j, 1, 0.5, 48)),
            (SpaceParams(0.5, 1, 32), family_j_symmetric(1 + 0.2j, 0.3 + 0.1j, 0.2 - 0.1j, 1, 0.5, 32)),
            (SpaceParams(1.0, 1, 32), family_normal_origin(0.5 + 0.1j, 0.3, 1, 32)),
            (SpaceParams(0.0, 1, 64), unitary_symbols(0.55 * np.exp(0.7j), 1.0, 0.0, 64)),
        ]
        for family in ("general", "wc-conjugated", "rotation-conjugated"):
            space = SpaceParams(0.0, 2, 32)
            cases.append((space, make_pair(draw_symbols({"family": family}, SplitMix64(7)), space)))
        worst_new = worst_ref = 0.0
        for space, pair in cases:
            exact = oracle_build(pair.psi, pair.phi, pair.n, space)
            new = normwise_error(build_wcd_matrix(pair, space).entries, exact)
            ref = normwise_error(reference_build(pair.psi, pair.phi, pair.n, space), exact)
            assert new <= 1e-15
            worst_new, worst_ref = max(worst_new, new), max(worst_ref, ref)
        assert worst_new <= worst_ref


THREAD_SCRIPT = """
import hashlib
import numpy as np
from cswcd.bergman import SpaceParams
from cswcd.conjugations import extended_space, make_wc_J, unitary_part
from cswcd.matrices import build_wcd_matrix
from cswcd.runner import parse_config, run
from cswcd.symbols import family_self_adjoint

M = build_wcd_matrix(family_self_adjoint(0.8, 0.3, 0.2 + 0.1j, 1, 0.5, 192), SpaceParams(0.5, 1, 192))
p = 0.55 * np.exp(0.3j)
U = unitary_part(make_wc_J(p, np.exp(0.9j), 0.5), extended_space(SpaceParams(0.5, 2, 96), p).N)
print(hashlib.sha256(M.entries.tobytes()).hexdigest(), hashlib.sha256(U.entries.tobytes()).hexdigest())
# C-symmetry under the auto rotation-J: an elementwise product, no BLAS
config = parse_config({
    "space": {"alpha": 0.5, "n": 1, "N": 192},
    "symbols": {"family": "self-adjoint", "a": 0.8, "b": 0.3, "c": [0.2, 0.1]},
    "checks": ["C-symmetry"],
})
(report,) = run(config)
print(config.conjugation.kind, repr(report.defect))
# conjugation-axioms under the same rotation: elementwise scalings, no BLAS
(report,) = run(parse_config({**config.raw, "checks": ["conjugation-axioms"]}))
print(repr(report.defect))
# normality of a non-normal and of a unitary operator: the kernel Gram, no BLAS
for symbols in ({"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]},
                {"family": "unitary", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]}):
    (report,) = run(parse_config({"space": {"alpha": 0.5, "n": 1, "N": 192},
                                  "symbols": symbols, "checks": ["normality"]}))
    print(report.status, repr(report.defect))
"""


def test_build_bytes_do_not_depend_on_blas_threads():
    src = str(Path(__file__).parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


def multiplication_matrix(h: TruncatedSeries, space: SpaceParams) -> np.ndarray:
    """Matrix of multiplication by an analytic h, lower triangular in the
    monomial grading: M[i][j] = beta(i)/beta(j) * h_{i-j} for i >= j."""
    broot = np.sqrt(beta_sq_vector(space.N, space.alpha))
    i, j = np.indices((space.N + 1, space.N + 1))
    return np.where(i >= j, broot[i] / broot[j] * h.coeffs[np.maximum(i - j, 0)], 0)


class TestToeplitz:
    def test_factorization_on_guard_block(self):
        # weighted build equals Toeplitz(psi) times unweighted build on the
        # leading block, to 1e-9 relative
        rng = SplitMix64(5)
        for alpha in (-0.5, 0.0, 1.0):
            space = SpaceParams(alpha, 1, 64)
            phi = draw_contractive_lft(rng)
            psi = kernel(0.3 - 0.2j, 0, alpha, 64)
            M_full = build_wcd_matrix(explicit_pair(psi, phi, 1), space).entries
            M_comp = build_wcd_matrix(explicit_pair(one_series(64), phi, 1), space).entries
            T = multiplication_matrix(psi, space)
            keep = 65 - GUARD
            prod = (T @ M_comp)[:keep, :keep]
            scale = np.max(np.abs(M_full[:keep, :keep]))
            assert np.max(np.abs(prod - M_full[:keep, :keep])) <= 1e-9 * scale


class TestWeightedComposition:
    def test_identity(self):
        M = build_weighted_composition(one_series(24), rotation_map(1.0), SPACE)
        assert np.allclose(M.entries, np.eye(25))

    def test_pole_in_closed_disk_refused(self):
        with pytest.raises(SingularityError, match="pole inside or on the unit circle"):
            build_weighted_composition(one_series(24), LinearFractionalMap(1, 0, 1, 1), SPACE)

    def test_rotation_diagonal(self):
        lam = np.exp(0.4j)
        M = build_weighted_composition(one_series(24), rotation_map(lam), SPACE).entries
        assert np.allclose(np.diag(M), lam ** np.arange(25))

    def test_unitary_columns_on_leading_block(self):
        # Gram matrix of the unitary symbols is the identity on the leading
        # block once enough rows are retained for the automorphism spread
        alpha, N = 0.0, 64
        for p in (0.5, 0.6 * np.exp(0.7j)):
            n_ext = math.ceil(N * (1 + abs(p)) / (1 - abs(p))) + 48
            pair = unitary_symbols(p, 1.0, alpha, n_ext)
            U = build_weighted_composition(
                pair.psi, pair.phi, SpaceParams(alpha, 1, n_ext)
            ).entries
            keep = N + 1 - GUARD
            gram = (U.conj().T @ U)[:keep, :keep]
            assert np.max(np.abs(gram - np.eye(keep))) <= 1e-8


class TestEntriesOwnership:
    """``OperatorMatrix`` keeps a build's read-only array without a second
    copy and copies every array that a caller could still write."""

    def test_build_is_kept_read_only_and_apart_from_the_workspace(self):
        space = SpaceParams(0.5, 1, 48)
        pair = family_general(1.0 - 0.5j, 0.3 + 0.2j, 0.2 - 0.1j, 1, 0.5, 48)
        built = _build(pair.psi, pair.phi, 1, space)
        assert not built.flags.writeable and built.flags.owndata
        workspace, _ = _workspace(48, 1)
        assert not np.shares_memory(built, workspace)
        assert OperatorMatrix(built, space).entries is built
        M = build_wcd_matrix(pair, space)
        assert not np.shares_memory(M.entries, workspace)
        assert_bit_equal(M.entries, built)

    def test_a_writeable_array_is_copied(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        kept = A.copy()
        M = OperatorMatrix(A, SPACE)
        A[3, 4] = 99.0
        A[:] *= 2
        assert np.array_equal(M.entries, kept) and not M.entries.flags.writeable

    def test_a_read_only_view_is_copied(self):
        # a view does not own its data: its base stays writeable for the caller
        base = np.eye(26, dtype=complex)
        view = base[:25, :25]
        view.flags.writeable = False
        M = OperatorMatrix(view, SPACE)
        base[0, 0] = 5.0
        assert M.entries[0, 0] == 1.0


class TestAdjoint:
    def test_hermitian_fixed(self):
        H = np.eye(25) * 2.0
        M = OperatorMatrix(H, SPACE)
        assert np.array_equal(adjoint_matrix(M).entries, H)

    def test_involution(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(25, 25)) + 1j * rng.normal(size=(25, 25))
        M = OperatorMatrix(A, SPACE)
        assert np.array_equal(adjoint_matrix(adjoint_matrix(M)).entries, A)

    def test_diagonal(self):
        d = np.arange(25) * (1 + 2j)
        M = OperatorMatrix(np.diag(d), SPACE)
        assert np.array_equal(adjoint_matrix(M).entries, np.diag(np.conj(d)))


class TestApply:
    def test_identity_matrix(self):
        M = OperatorMatrix(np.eye(25), SPACE)
        f = polynomial([1, 2, 3], 24)
        assert np.allclose(apply(M, f).coeffs, f.coeffs)

    def test_wcd_action_on_square(self):
        # psi = z, phi = z/2, n = 1 sends z^2 to z * 2 * (z/2) = z^2
        pair = explicit_pair(monomial(1, 24), rotation_map(0.5), 1)
        M = build_wcd_matrix(pair, SPACE)
        out = apply(M, monomial(2, 24))
        assert np.allclose(out.coeffs, monomial(2, 24).coeffs)

    def test_zero(self):
        pair = explicit_pair(monomial(1, 24), rotation_map(0.5), 1)
        M = build_wcd_matrix(pair, SPACE)
        assert np.max(np.abs(apply(M, TruncatedSeries(np.zeros(25, dtype=complex))).coeffs)) == 0

    def test_linear(self):
        rng = np.random.default_rng(32)
        pair = family_j_symmetric(1.0, 0.3, 0.1j, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        f = TruncatedSeries(rng.normal(size=25) + 1j * rng.normal(size=25))
        g = TruncatedSeries(rng.normal(size=25) + 1j * rng.normal(size=25))
        a, b = 0.7 - 0.2j, 1.5j
        lhs = apply(M, TruncatedSeries(a * f.coeffs + b * g.coeffs))
        rhs = a * apply(M, f).coeffs + b * apply(M, g).coeffs
        assert np.allclose(lhs.coeffs, rhs, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        M = OperatorMatrix(np.eye(25), SPACE)
        with pytest.raises(TruncationMismatchError):
            apply(M, TruncatedSeries(np.zeros(31, dtype=complex)))


class TestAdjointOnKernel:
    def test_family_defect_small(self):
        space = SpaceParams(0.0, 1, 96)
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 96)
        assert adjoint_on_kernel(build_wcd_matrix(pair, space), pair, 0.4) <= 1e-8

    def test_weight_vanishing_at_point_kills_formula_side(self):
        # psi = z vanishes at 0; the closed form collapses to the zero series
        space = SpaceParams(0.0, 1, 32)
        pair = explicit_pair(monomial(1, 32), rotation_map(0.5), 1)
        assert adjoint_on_kernel(build_wcd_matrix(pair, space), pair, 0.0) <= 1e-12

    def test_gates(self):
        space = SpaceParams(0.0, 1, 32)
        pair = family_j_symmetric(1.0, 0.3, 0.2, 1, 0.0, 32)
        with pytest.raises(UnboundedSymbolError):
            adjoint_on_kernel(build_wcd_matrix(pair, space), pair, 0.75)


class TestCowenAdjointPair:
    def test_real_dilation_self_paired(self):
        space = SpaceParams(0.5, 2, 32)
        pair_a, pair_b = cowen_adjoint_pair(rotation_map(0.6), 2, space)
        assert np.allclose(pair_a.psi.coeffs, pair_b.psi.coeffs)
        assert lft_eval(pair_a.phi, 0.3) == pytest.approx(lft_eval(pair_b.phi, 0.3))

    def test_weight_is_kernel_at_companion_origin(self):
        space = SpaceParams(0.0, 1, 32)
        phi = LinearFractionalMap(0.31, 0.3, -0.3, 1.0)
        pair_a, _ = cowen_adjoint_pair(phi, 1, space)
        sigma_0 = lft_eval(sigma_companion(phi), 0.0)
        assert np.allclose(
            pair_a.psi.coeffs, kernel(sigma_0, 1, 0.0, 32).coeffs
        )

    def test_adjoint_identity_entrywise(self):
        rng = SplitMix64(6)
        for alpha in (-0.5, 0.0, 1.0):
            space = SpaceParams(alpha, 1, 48)
            phi = draw_contractive_lft(rng)
            pair_a, pair_b = cowen_adjoint_pair(phi, 1, space)
            MA = build_wcd_matrix(pair_a, space).entries
            MB = build_wcd_matrix(pair_b, space).entries
            scale = np.max(np.abs(MB))
            assert np.max(np.abs(MA.conj().T - MB)) <= 1e-9 * scale

    def test_norm_gate(self):
        space = SpaceParams(0.0, 1, 16)
        with pytest.raises(UnboundedSymbolError):
            cowen_adjoint_pair(LinearFractionalMap(0.5, 0.5, 0, 1), 1, space)


def disk_point(min_radius, max_radius):
    return st.builds(lambda r, t: r * np.exp(1j * t),
                     st.floats(min_radius, max_radius), st.floats(0.0, 2 * math.pi))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(b=disk_point(0.01, 0.9), c_den=disk_point(0.0, 0.9), c_const=disk_point(0.0, 0.9),
       n=st.integers(1, 3), alpha=st.floats(-0.9, 3.0), extra=st.integers(0, 46))
def test_adjoint_pair_identity_on_admissible_pairs(b, c_den, c_const, n, alpha, extra):
    """adjoint(matrix(A)) = matrix(B) entrywise for the companion pair of any
    map c_const + b z / (1 - c_den z) with sup|phi| < 0.95, at every
    truncation; the check's tolerance is 1e-9, the identity holds to 1e-12."""
    phi = LinearFractionalMap(b - c_const * c_den, c_const, -c_den, 1.0)
    assume(sup_norm_lft(phi) < 0.95)
    space = SpaceParams(alpha, n, n + 2 + extra)
    pair_a, pair_b = cowen_adjoint_pair(phi, n, space)
    MA = build_wcd_matrix(pair_a, space).entries
    MB = build_wcd_matrix(pair_b, space).entries
    assert np.max(np.abs(MA.conj().T - MB)) <= 1e-12 * np.max(np.abs(MB))


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        pair = family_j_symmetric(1.0, 0.3, 0.2j, 1, 0.0, 24)
        M = build_wcd_matrix(pair, SPACE)
        path = tmp_path / "matrix.csv"
        export_matrix_csv(M, path)
        rows = path.read_text().strip().split("\n")
        assert len(rows) == 25
        first = rows[0].split(",")
        assert len(first) == 50
        parsed = np.array(
            [
                [float(cells[2 * k]) + 1j * float(cells[2 * k + 1]) for k in range(25)]
                for cells in (row.split(",") for row in rows)
            ]
        )
        assert np.allclose(parsed, M.entries)
