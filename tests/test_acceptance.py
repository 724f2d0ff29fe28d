"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Defaults across criteria: alpha in {-0.5, 0, 1}, order n in {1, 2, 3},
truncation N = 64 (96 for kernel checks), double precision. Tolerances are
pinned in each criterion. The dense wc-J references are built at the
extended truncation of ``wc_reference``. Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
from functools import partial

import numpy as np

from cswcd.bergman import SpaceParams, kernel_norm_sq
from cswcd.cli import main as cli_main
from cswcd.conjugations import (
    involution_defect,
    is_C_symmetric,
    isometry_defect,
    make_J,
    make_rotation_J,
    make_wc_J,
)
from cswcd.diagnostics import (
    TREND_BOUNDED,
    TREND_DIVERGING,
    boundedness_ratio_grid,
    is_hermitian,
    is_normal,
    necessary_conditions_check,
    norm_defect_kernel_test,
    normality_gram,
)
from cswcd.matrices import (
    adjoint_matrix,
    adjoint_on_kernel,
    build_wcd_matrix,
    cowen_adjoint_pair,
)
from cswcd.rng import SplitMix64
from cswcd.runner import draw_symbols, make_pair, parse_config, sweep
from cswcd.series import TruncatedSeries, polynomial
from cswcd.symbols import (
    LinearFractionalMap,
    SymbolPair,
    family_conjugated,
    family_general,
    family_j_symmetric,
    family_normal_origin,
    family_self_adjoint,
    lft_eval,
    rotation_map,
    sup_norm_lft,
)
from reproducing_reference import reproducing_check
from wc_reference import extended_order, wc_involution_defect, wc_symmetry_defect

ALPHAS = (-0.5, 0.0, 1.0)
ORDERS = (1, 2, 3)
N_DEFAULT = 64
N_KERNEL = 96
KERNEL_POINTS = (0.4, 0.3j, -0.25)


def criterion(k: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {k:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def random_polynomial(rng: SplitMix64, N: int, max_deg: int) -> TruncatedSeries:
    deg = rng.next_u64() % (max_deg + 1)
    coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)]
    return polynomial(coeffs, N)


def draw_gated_family(rng: SplitMix64, n: int, alpha: float, N: int):
    """Family draw whose map keeps the three kernel points inside the
    adjoint-identity gates."""
    while True:
        raw = draw_symbols({"family": "j-symmetric"}, rng)
        pair = make_pair(
            raw, SpaceParams(alpha, n, N)
        )
        if all(abs(lft_eval(pair.phi, w)) <= 0.85 for w in KERNEL_POINTS):
            return pair


def test_criterion_1_kernel_machinery():
    rng = SplitMix64(101)
    worst = 0.0
    for i in range(50):
        alpha = ALPHAS[i % 3]
        m = i % 4
        f = random_polynomial(rng, N_KERNEL, 20)
        w = rng.complex_annulus(0.0, 0.7)
        worst = max(worst, reproducing_check(f, w, m, alpha))
    ok_repro = worst <= 1e-10
    worst_norm = 0.0
    for i in range(20):
        w = rng.complex_annulus(0.0, 0.6)
        value = kernel_norm_sq(w, 0, 0.0).value
        worst_norm = max(worst_norm, abs(value - 1.0 / (1.0 - abs(w) ** 2) ** 2))
    ok_norm = worst_norm <= 1e-10
    criterion(
        1, "kernel machinery", ok_repro and ok_norm,
        f"reproducing defect {worst:.2e}, norm defect {worst_norm:.2e}",
    )


def test_criterion_2_adjoint_on_kernels():
    rng = SplitMix64(202)
    worst = 0.0
    for i in range(100):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_KERNEL)
        pair = draw_gated_family(rng, n, alpha, N_KERNEL)
        M = build_wcd_matrix(pair, space)
        for w in KERNEL_POINTS:
            worst = max(worst, adjoint_on_kernel(M, pair, w))
    criterion(2, "adjoint identity on kernels", worst <= 1e-8, f"worst defect {worst:.2e}")


def test_criterion_3_adjoint_pair():
    rng = SplitMix64(303)
    worst = 0.0
    for i in range(50):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        # random map with sup norm <= 0.7 by construction
        w0 = rng.complex_annulus(0.0, 0.3)
        rho = rng.uniform(0.1, 0.7 - abs(w0))
        q = rng.complex_annulus(0.0, 0.5)
        s = rho * rng.unimodular()
        phi = LinearFractionalMap(
            s + w0 * (-np.conj(q)), s * (-q) + w0, -np.conj(q), 1.0
        )
        assert sup_norm_lft(phi) <= 0.7 + 1e-12
        pair_a, pair_b = cowen_adjoint_pair(phi, n, space)
        MA = build_wcd_matrix(pair_a, space).entries
        MB = build_wcd_matrix(pair_b, space).entries
        defect = np.max(np.abs(MA.conj().T - MB)) / np.max(np.abs(MB))
        worst = max(worst, defect)
    criterion(3, "companion-map adjoint pair", worst <= 1e-9, f"worst defect {worst:.2e}")


def test_criterion_4_symmetry_characterization():
    rng = SplitMix64(404)
    worst_forward = 0.0
    broken_detected = 0
    for i in range(200):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        raw = draw_symbols({"family": "j-symmetric"}, rng)
        pair = make_pair(raw, space)
        M = build_wcd_matrix(pair, space)
        defect = is_C_symmetric(M, make_J(space.alpha))
        worst_forward = max(worst_forward, defect)
        # converse probe: weight rebuilt with c + 0.1, map unchanged
        a, b, c = (complex(*raw[key]) for key in ("a", "b", "c"))
        shifted = family_j_symmetric(a, b, c + 0.1, n, alpha, N_DEFAULT)
        broken = SymbolPair(shifted.weight, pair.phi, n, shifted.order)
        bad = is_C_symmetric(build_wcd_matrix(broken, space), make_J(space.alpha))
        if bad > 1e-3:
            broken_detected += 1
    ok = worst_forward <= 1e-10 and broken_detected >= 199
    criterion(
        4, "coefficient-conjugation symmetry characterization", ok,
        f"forward worst {worst_forward:.2e}, converse detected {broken_detected}/200",
    )


def test_criterion_5_composed_conjugations():
    rng = SplitMix64(505)
    worst = 0.0
    for i in range(50):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        raw = draw_symbols({"family": "wc-conjugated"}, rng)
        p = complex(*raw["p"])
        lam_u = complex(*raw["lambda_u"])
        C = make_wc_J(p, lam_u, space.alpha)
        defect = wc_symmetry_defect(C, space, partial(make_pair, raw))
        worst = max(worst, defect)
    worst_rot = 0.0
    for i in range(50):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        raw = draw_symbols({"family": "rotation-conjugated"}, rng)
        pair = make_pair(raw, space)
        M = build_wcd_matrix(pair, space)
        C = make_rotation_J(complex(*raw["mu"]), complex(*raw["lam"]), space.alpha)
        defect = is_C_symmetric(M, C)
        worst_rot = max(worst_rot, defect)
    ok = worst <= 1e-8 and worst_rot <= 1e-8
    criterion(
        5, "composed-conjugation symmetry", ok,
        f"worst wc {worst:.2e}, worst rotation {worst_rot:.2e}",
    )


def test_criterion_6_self_adjoint():
    rng = SplitMix64(606)
    worst = 0.0
    for i in range(100):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        raw = draw_symbols({"family": "self-adjoint"}, rng)
        pair = make_pair(raw, space)
        M = build_wcd_matrix(pair, space)
        defect = is_hermitian(M)
        worst = max(worst, defect)
    ok_hermitian = worst <= 1e-10
    broken = 0
    for i in range(10):
        alpha = ALPHAS[i % 3]
        space = SpaceParams(alpha, 1, N_DEFAULT)
        pair = family_general(
            (1.0 + 0.4j) * rng.uniform(0.5, 1.2), rng.real_signed(0.2, 0.5),
            rng.complex_annulus(0.0, 0.4), 1, alpha, N_DEFAULT,
        )
        if not pair.bounded_hint:
            continue
        defect = is_hermitian(build_wcd_matrix(pair, space))
        if defect > 1e-3:
            broken += 1
    ok_broken = broken >= 8
    worst_rot = 0.0
    for i in range(25):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        while True:
            a = rng.real_signed(0.5, 1.5)
            b = rng.real_signed(0.1, 0.6)
            c = rng.complex_annulus(0.1, 0.5)
            pair = family_self_adjoint(a, b, c, n, alpha, N_DEFAULT)
            if pair.bounded_hint:
                break
        theta = math.atan2(c.imag, c.real)
        lam = complex(math.cos(-2 * theta), math.sin(-2 * theta))
        C = make_rotation_J(1.0, lam, space.alpha)
        defect = is_C_symmetric(build_wcd_matrix(pair, space), C)
        worst_rot = max(worst_rot, defect)
    ok_rot = worst_rot <= 1e-8
    criterion(
        6, "self-adjoint characterization", ok_hermitian and ok_broken and ok_rot,
        f"hermitian worst {worst:.2e}, nonreal-a broken {broken}/10, rotation worst {worst_rot:.2e}",
    )


def test_criterion_7_normality():
    rng = SplitMix64(707)
    worst_origin = 0.0
    for i in range(50):
        n = ORDERS[i % 3]
        alpha = ALPHAS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        pair = family_normal_origin(
            rng.complex_annulus(0.5, 1.5), rng.complex_annulus(0.1, 0.9), n, N_DEFAULT
        )
        defect = is_normal(build_wcd_matrix(pair, space))
        worst_origin = max(worst_origin, defect)
    ok_origin = worst_origin <= 1e-12
    doc = {
        "space": {"alpha": 0.0, "n": 1, "N": N_DEFAULT},
        "symbols": {"family": "general"},
        "checks": ["normality-predicate"],
        "seed": 7070,
    }
    aggregate = sweep(parse_config(doc, require_concrete=False), 200, seed=7070)
    ok_predicate = aggregate["mismatches"] == 0 and aggregate["draws"] == 200
    counter = family_general(1.0, 0.4j, 0.3, 1, 0.0, N_DEFAULT)
    counter_defect = norm_defect_kernel_test(*normality_gram(counter, 0.0))
    ok_counter = counter_defect > 1e-3
    criterion(
        7, "normality characterizations", ok_origin and ok_predicate and ok_counter,
        f"origin worst {worst_origin:.2e}, predicate mismatches {aggregate['mismatches']}, "
        f"counterexample defect {counter_defect:.2e}",
    )


def test_criterion_8_necessary_conditions():
    rng = SplitMix64(808)
    all_pass = True
    for i in range(50):
        alpha = ALPHAS[i % 3]
        n = ORDERS[i % 3]
        space = SpaceParams(alpha, n, N_DEFAULT)
        raw = draw_symbols({"family": "j-symmetric"}, rng)
        all_pass = all_pass and not necessary_conditions_check(make_pair(raw, space))
    for i in range(50):
        n = ORDERS[i % 3]
        pair = family_normal_origin(
            rng.complex_annulus(0.5, 1.5), rng.complex_annulus(0.1, 0.9), n, N_DEFAULT
        )
        all_pass = all_pass and not necessary_conditions_check(pair)
    planted = SymbolPair.from_series(polynomial([1.0, 1.0], N_DEFAULT), rotation_map(0.5), 1)
    ok_planted = "weight_flat_at_origin" in necessary_conditions_check(planted)
    criterion(
        8, "structural necessary conditions", all_pass and ok_planted,
        f"families all pass: {all_pass}, planted counterexample detected: {ok_planted}",
    )


def test_criterion_9_conjugation_axioms():
    rng = SplitMix64(909)
    worst_exact = 0.0
    for alpha in ALPHAS:
        for C in (make_J(alpha), make_rotation_J(rng.unimodular(), rng.unimodular(), alpha)):
            for _ in range(5):
                f = random_polynomial(rng, N_DEFAULT, N_DEFAULT)
                worst_exact = max(worst_exact, involution_defect(C, f))
                worst_exact = max(worst_exact, isometry_defect(C, f))
    ok_exact = worst_exact <= 1e-12
    worst_wc = 0.0
    for i in range(10):
        alpha = ALPHAS[i % 3]
        p = rng.complex_annulus(0.1, 0.6) if i else 0.6
        C = make_wc_J(p, rng.unimodular(), alpha)
        for _ in range(3):
            f = random_polynomial(rng, extended_order(C, N_DEFAULT), N_DEFAULT - 8)
            worst_wc = max(worst_wc, wc_involution_defect(C, f, N_DEFAULT))
            worst_wc = max(worst_wc, isometry_defect(C, f))
    ok_wc = worst_wc <= 1e-9
    criterion(
        9, "conjugation axioms", ok_exact and ok_wc,
        f"exact kinds worst {worst_exact:.2e}, wc kind worst {worst_wc:.2e}",
    )


def test_criterion_10_diagnostics_grids():
    ok = True
    for alpha in ALPHAS:
        for n in ORDERS:
            compact = boundedness_ratio_grid(rotation_map(0.5), alpha, n)
            ok = ok and compact.trend == TREND_BOUNDED
            ok = ok and compact.radial_maxima[-1] < compact.radial_maxima[0]
            diverging = boundedness_ratio_grid(
                LinearFractionalMap(0.5, 0.5, 0.0, 1.0), alpha, n
            )
            ok = ok and diverging.trend == TREND_DIVERGING
    criterion(10, "boundedness ratio trends", ok)


def test_criterion_11_determinism(tmp_path):
    doc = {
        "space": {"alpha": 0.0, "n": 1, "N": 48},
        "symbols": {"family": "normal-origin"},
        "checks": ["J-symmetry", "normality"],
        "seed": 1111,
    }
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["sweep", str(cfg), "--draws", "25", "--seed", "9", "--out", str(out1)])
    code2 = cli_main(["sweep", str(cfg), "--draws", "25", "--seed", "9", "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    criterion(
        11, "seeded sweep determinism", code1 == 0 and code2 == 0 and identical,
        "byte-identical reports" if identical else "reports differ",
    )
