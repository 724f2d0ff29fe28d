"""The tables a draw reuses change no bit, and the Horner zero scan no verdict.

``matrices._build`` reads its scale factors from a cache, and the kernel
forms, grids and Grams read cached points, logarithms and coordinates. Each
cached array is computed by the operations that were computed on every call
before, so every matrix must equal the uncached build of
``tests/build_reference.py`` byte for byte, on seeded draws of every
sweepable family and of explicit pairs, and every cached array must be
read-only, so that no caller can change what the next draw reads; so must
every array that a module of the package holds.

The zero scan of ``necessary-conditions`` evaluates P by Horner's rule on
the scan points instead of the folded FFT of ``tests/scan_reference.py``.
The values move in their last bits; every verdict must stay, including
those of a P with a zero planted on a scan point, at any scale of P, of a P
with trailing zero coefficients and of a P with 300 coefficients.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import cswcd
from build_reference import build_reference
from cswcd import bergman, conjugations, diagnostics, matrices
from cswcd.bergman import SpaceParams
from cswcd.errors import NonFiniteError
from cswcd.rng import SplitMix64
from cswcd.runner import SWEEPABLE_FAMILIES, draw_symbols, make_pair
from cswcd.series import polynomial
from cswcd.symbols import LinearFractionalMap, SymbolPair
from scan_reference import necessary_conditions_fft

BUILD_NS = (16, 48, 96, 192)
BUILD_ORDERS = (1, 2, 3)
BUILD_ALPHAS = (-0.5, 0.0, 0.5, 400.0)
SCAN_ALPHAS = (-0.5, 0.0, 0.5, 10.0, 100.0, 400.0)
SCAN_ORDERS = (1, 2, 3)
SCAN_DRAWS = 8          # per family, alpha and order


def random_explicit(rng: SplitMix64, n: int, N: int) -> SymbolPair:
    """An explicit pair: a weight polynomial of random degree <= N and a map
    (a z + b) / (c z + 1) with |c| < 1, so that its pole is outside the disk."""
    degree = rng.next_u64() % (N + 1)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(degree + 1)]
    phi = LinearFractionalMap(rng.complex_annulus(0.1, 0.6), rng.complex_annulus(0.0, 0.3),
                              rng.complex_annulus(0.0, 0.5), 1.0)
    return SymbolPair.from_series(polynomial(coeffs, N), phi, n)


def family_pair(family: str, rng: SplitMix64, space: SpaceParams) -> SymbolPair:
    if family == "explicit":
        return random_explicit(rng, space.n, space.N)
    return make_pair(draw_symbols({"family": family}, rng), space)


@pytest.mark.parametrize("N", BUILD_NS)
@pytest.mark.parametrize("family", (*SWEEPABLE_FAMILIES, "explicit"))
def test_build_equals_the_uncached_build(family, N):
    rng = SplitMix64(29_000 + N)
    built = 0
    for n in BUILD_ORDERS:
        for alpha in BUILD_ALPHAS:
            space = SpaceParams(alpha, n, N)
            for _ in range(2):
                pair = family_pair(family, rng, space)
                with np.errstate(all="ignore"):
                    try:
                        psi = pair.psi
                    except NonFiniteError:
                        # the weight's series overflows at large alpha; the
                        # build reads any series, so it gets the polynomial P
                        psi = polynomial(pair.weight.poly, N)
                    got = matrices._build(psi, pair.phi, pair.n, space)
                    want = build_reference(psi.coeffs, pair.phi, pair.n, alpha, N)
                assert got.tobytes() == want.tobytes(), (family, n, alpha, N)
                assert not got.flags.writeable
                built += 1
    assert built == 2 * len(BUILD_ORDERS) * len(BUILD_ALPHAS)


def cached_arrays() -> dict:
    """Every array that is made once and shared by the draws that read it."""
    N, n, alpha = 24, 2, 0.5
    points = (0.4, 0.3j, -0.25)
    column, row = matrices._scale_factors(N, n, alpha)
    falling, exponents = bergman._kernel_exponents(n, N)
    falling_0, exponents_0 = bergman._kernel_exponents(0, N)
    return {
        "beta_root_vector": bergman.beta_root_vector(N, alpha),
        "kernel_exponents.falling": falling,
        "kernel_exponents.exponents": exponents,
        "kernel_exponents.falling at m 0": falling_0,
        "kernel_exponents.exponents at m 0": exponents_0,
        "scale_factors.column": column,
        "scale_factors.row": row,
        "conj_kernel_coordinates": matrices.conj_kernel_coordinates(points, alpha, N),
        "grid.w": diagnostics._GRID_W,
        "grid.log_1m": diagnostics._GRID_LOG_1M,
        "grid.log_inv": diagnostics._GRID_LOG_INV,
        "scan_radii": diagnostics.SCAN_RADII,
        "scan_points": diagnostics._SCAN_POINTS,
        "gram.w": diagnostics._GRAM_W,
        "gram.wbar": diagnostics._GRAM_WBAR,
        "gram.log_wbar": diagnostics._GRAM_LOG_WBAR,
        "gram.zero_scale": diagnostics._GRAM_ZERO_SCALE,
        "kernel_points": conjugations._U,
        "kernel_points.conj": conjugations._U_BAR,
    }


def test_cached_arrays_are_read_only():
    arrays = cached_arrays()
    assert [name for name, arr in arrays.items()
            if not isinstance(arr, np.ndarray) or arr.flags.writeable] == []
    for arr in arrays.values():
        with pytest.raises(ValueError):
            arr[...] = 0


def test_every_module_level_array_is_read_only():
    modules = [importlib.import_module(f"cswcd.{info.name}")
               for info in pkgutil.iter_modules(cswcd.__path__)]
    arrays = {f"{module.__name__}.{name}": value for module in modules
              for name, value in vars(module).items() if isinstance(value, np.ndarray)}
    assert {"cswcd.diagnostics._GRID_W", "cswcd.diagnostics.SCAN_RADII"} <= arrays.keys()
    assert [name for name, arr in arrays.items() if arr.flags.writeable] == []


def test_cached_tables_hold_what_they_replace():
    N, n, alpha = 24, 2, 0.5
    broot = np.sqrt(bergman.beta_sq_vector(N, alpha))
    assert bergman.beta_root_vector(N, alpha).tobytes() == broot.tobytes()
    column, row = matrices._scale_factors(N, n, alpha)
    want = bergman.falling_factorial(np.arange(n, N + 1), n) / broot[n:]
    assert column.tobytes() == want.tobytes()
    assert row.tobytes() == broot[:, None].tobytes()
    W = diagnostics._GRID_W
    assert diagnostics._GRID_LOG_1M.tobytes() == np.log(1 - np.abs(W)).tobytes()
    assert diagnostics._GRID_LOG_INV.tobytes() == np.log(1.0 / np.abs(W)).tobytes()
    assert diagnostics._GRAM_WBAR.tobytes() == np.conj(diagnostics.GRAM_POINTS).tobytes()
    points = (0.4, 0.3j, -0.25)
    coords = np.conj(bergman.kernel_table(points, 0, alpha, N) * broot)
    assert matrices.conj_kernel_coordinates(points, alpha, N).tobytes() == coords.tobytes()


# ---------------------------------------------------------------------------
# zero scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
def test_scan_verdicts_match_the_fft_on_family_draws(family):
    rng = SplitMix64(2900)
    checked = 0
    for alpha in SCAN_ALPHAS:
        for n in SCAN_ORDERS:
            space = SpaceParams(alpha, n, 16)
            for _ in range(SCAN_DRAWS):
                pair = make_pair(draw_symbols({"family": family}, rng), space)
                assert (diagnostics.necessary_conditions_check(pair)
                        == necessary_conditions_fft(pair)), (family, alpha, n)
                checked += 1
    assert checked == len(SCAN_ALPHAS) * len(SCAN_ORDERS) * SCAN_DRAWS


def explicit_pair(coeffs, n: int = 1, N: int = 16) -> SymbolPair:
    return SymbolPair.from_series(polynomial(coeffs, N), LinearFractionalMap(0.5, 0.1, 0, 1), n)


def planted(z0: complex, tail) -> list:
    """Coefficients of (z - z0) times the polynomial with coefficients tail."""
    return np.convolve([-z0, 1.0], tail).tolist()


SCAN_SAMPLE = [(i, k) for i in range(9) for k in (0, 5, 16, 31, 47, 63)]


@pytest.mark.parametrize("i, k", SCAN_SAMPLE)
def test_a_zero_on_a_scan_point_trips_both_scans(i, k):
    # the trip is relative to the terms that P sums, so scaling P moves it along
    z0 = complex(diagnostics._SCAN_POINTS[i, k])
    for scale in (1.0, 1e-12, 1e12):
        for tail in ([0.7], [0.2, 0.7], [1.0, -0.3, 0.05]):
            pair = explicit_pair([scale * c for c in planted(z0, tail)])
            got = diagnostics.necessary_conditions_check(pair)
            assert got == necessary_conditions_fft(pair)
            assert "weight_nonvanishing" in got
        # a zero 1e-8 off the point leaves |P| there near 1e-8 scale, above the
        # trip, 1e-10 times the size 0.7 scale (|z0| + r) <= 1.3 scale of P's terms
        pair = explicit_pair([scale * c for c in planted(z0 + 1e-8, [0.7])])
        got = diagnostics.necessary_conditions_check(pair)
        assert got == necessary_conditions_fft(pair) and "weight_nonvanishing" not in got


@pytest.mark.parametrize("coeffs, n", [
    ([0.0, 1.0, 0.3, 0.0, 0.0, 0.0], 1),
    ([0.0, 1.0, 0.0, 0.0, 0.5], 1),
    ([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0], 2),
    ([1.0, 0.0, 0.0], 1),
    ([0.25, 1.0, 0.0], 1),          # a zero at -0.25, inside the scan's radii but off its points
    ([0.0] * 16 + [1e-3], 3),
])
def test_trailing_zeros_keep_the_verdicts(coeffs, n):
    pair = explicit_pair(coeffs, n)
    assert pair.weight.poly.size == 17
    assert diagnostics.necessary_conditions_check(pair) == necessary_conditions_fft(pair)


def test_a_long_polynomial_keeps_the_verdicts():
    rng = SplitMix64(300)
    decay = 0.98 ** np.arange(300)
    for k in range(40):
        coeffs = decay * np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for _ in range(300)])
        if k % 2:     # a zero planted on a scan point
            z0 = complex(diagnostics._SCAN_POINTS[k % 9, (7 * k) % 64])
            coeffs = np.array(planted(z0, coeffs[:299]))
        pair = explicit_pair(coeffs.tolist(), 1, 320)
        got = diagnostics.necessary_conditions_check(pair)
        assert got == necessary_conditions_fft(pair), k
        assert ("weight_nonvanishing" in got) == bool(k % 2), k
