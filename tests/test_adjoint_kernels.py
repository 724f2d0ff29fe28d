"""The one-pass adjoint identity on kernels against the per-point reference.

``matrices.adjoint_on_kernels`` applies the conjugate transpose of the
operator matrix to every kernel point in one product, with the kernels'
coordinates cached, and forms every closed form in one array expression.
``adjoint_reference`` keeps the per-point path that it replaced. The two
round differently, so the defects agree to within the rounding of the two
sides: 1e-15 times the larger of the closed form's norm and the size of the
terms that the matrix side sums. The verdicts and refusals are the same.
"""

import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from adjoint_reference import (
    adjoint_kernel_measure,
    adjoint_on_kernel_reference,
    formula_side,
    matrix_side_magnitude,
)
from cswcd import matrices, runner
from cswcd.bergman import SpaceParams, kernel, kernel_table, space_norm
from cswcd.cli import main
from cswcd.defaults import TOL_ADJOINT_KERNEL
from cswcd.errors import DomainError, UnboundedSymbolError
from cswcd.matrices import (
    adjoint_on_kernel,
    adjoint_on_kernels,
    build_wcd_matrix,
    conj_kernel_coordinates,
    kernel_point_gate,
)
from cswcd.rng import SplitMix64
from cswcd.runner import (
    DEFAULT_KERNEL_POINTS,
    SWEEPABLE_FAMILIES,
    draw_symbols,
    make_pair,
    parse_config,
    run,
)

ALPHA = 0.5
DRAWS = 1000


@pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
def test_one_pass_agrees_with_the_per_point_path(family):
    # n 1 to 3, at N n + 2 (the kernel tails dominate the defect) and at 48
    rng = SplitMix64(1900 + SWEEPABLE_FAMILIES.index(family))
    compared = 0
    for i in range(DRAWS):
        n = 1 + i % 3
        symbols = draw_symbols({"family": family}, rng)
        for N in (n + 2, 48):
            space = SpaceParams(ALPHA, n, N)
            pair = make_pair(symbols, space)
            try:
                for w in DEFAULT_KERNEL_POINTS:
                    kernel_point_gate(pair.phi, w)
                M = build_wcd_matrix(pair, space)
            except UnboundedSymbolError:
                continue
            new = adjoint_on_kernels(M, pair, DEFAULT_KERNEL_POINTS)
            ref = [adjoint_on_kernel_reference(M, pair, w) for w in DEFAULT_KERNEL_POINTS]
            for w, a, b in zip(DEFAULT_KERNEL_POINTS, new, ref):
                if a != b:
                    # the rounding of either side: the closed form's norm,
                    # or the size of the terms the matrix side sums, which
                    # is the larger where they cancel (wc-conjugated)
                    scale = max(space_norm(formula_side(M, pair, w), ALPHA),
                                matrix_side_magnitude(M, w))
                    assert abs(a - b) <= 1e-15 * scale, (symbols, N, w, a, b, scale)
            assert (new.max() <= TOL_ADJOINT_KERNEL) == (max(ref) <= TOL_ADJOINT_KERNEL)
            compared += 1
    assert compared >= DRAWS


def test_one_point_is_the_one_pass_at_that_point():
    space = SpaceParams(ALPHA, 2, 40)
    pair = make_pair(draw_symbols({"family": "general"}, SplitMix64(5)), space)
    M = build_wcd_matrix(pair, space)
    points = (0.4, 0.3j, -0.25 + 0.1j)
    together = adjoint_on_kernels(M, pair, points)
    assert [adjoint_on_kernel(M, pair, w) for w in points] == together.tolist()


def test_kernel_table_rows_are_the_kernels():
    points = (0.4, 0.3j, -0.2 + 0.5j)
    table = kernel_table(points, 2, ALPHA, 30)
    for row, w in zip(table, points):
        assert row.tobytes() == kernel(w, 2, ALPHA, 30).coeffs.tobytes()
    with pytest.raises(DomainError, match="got 1.000000"):
        kernel_table((0.2, 1.0), 0, ALPHA, 30)


def test_kernel_coordinates_are_cached_and_read_only():
    coords = conj_kernel_coordinates(DEFAULT_KERNEL_POINTS, ALPHA, 48)
    assert conj_kernel_coordinates(DEFAULT_KERNEL_POINTS, ALPHA, 48) is coords
    assert not coords.flags.writeable
    assert coords.shape == (3, 49)
    # the conjugated coordinates are the only cached table of the kernels
    assert [name for name in vars(matrices) if "kernel_coordinates" in name] == [
        "conj_kernel_coordinates"]


BOUNDED = {"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 0.2}
# phi = 0.3 z + 0.65: bounded (sup|phi| 0.95), |phi(0.7)| = 0.86 > 0.85
NEAR_EDGE = {"family": "explicit", "psi": [0.0, 1.0], "phi": [0.3, 0.65, 0.0, 1.0]}
# phi = 0.5 z + 0.5 with no boundedness flag: the operator gate refuses
UNFLAGGED = {"family": "explicit", "psi": [0.0, 1.0], "phi": [0.5, 0.5, 0.0, 1.0]}
KERNEL_GATE = "gate-refusal; kernel point gate |w| <= 0.7 violated: 0.750000"
IMAGE_GATE = "gate-refusal; image gate |phi(w)| <= 0.85 violated: 0.860000"
OPERATOR_GATE = ("gate-refusal; no boundedness gate admits the symbols: sup|phi| = 1.000000 "
                 "and the pair carries no boundedness flag")

# (symbols, w_points, provenance of the per-point path): a refused first
# point is reported ahead of a refused build, and that ahead of a refused
# later point
REFUSALS = {
    "second point outside the kernel gate": (BOUNDED, [0.4, 0.75], KERNEL_GATE),
    "second point's image outside the image gate": (NEAR_EDGE, [0.4, 0.7], IMAGE_GATE),
    "refused build before a refused second point": (UNFLAGGED, [0.4, 0.75], OPERATOR_GATE),
    "refused first point before a refused build": (UNFLAGGED, [0.75, 0.4], KERNEL_GATE),
}


@pytest.mark.parametrize("symbols, points, provenance", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusals_match_the_per_point_path(symbols, points, provenance, monkeypatch):
    doc = {"space": {"alpha": ALPHA, "n": 1, "N": 32},
           "symbols": {**symbols, "w_points": points}, "checks": ["adjoint-kernel"]}
    (report,) = run(parse_config(doc))
    monkeypatch.setitem(runner.CHECKS, "adjoint-kernel", partial(runner._check_tolerance, replace(
        runner.CHECK_RECORDS["adjoint-kernel"], measure=adjoint_kernel_measure)))
    (reference,) = run(parse_config(doc))
    assert report.payload() == reference.payload()
    assert (report.status, report.defect, report.provenance) == ("unverified", None, provenance)


def test_empty_point_list_is_a_config_error(tmp_path, capsys):
    doc = {"space": {"alpha": ALPHA, "n": 1, "N": 32},
           "symbols": {**BOUNDED, "w_points": []}, "checks": ["adjoint-kernel"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["path"] == "symbols.w_points"


def test_non_finite_defect_is_unverified(monkeypatch):
    # a NaN at any point is reported, not dropped by the maximum
    doc = {"space": {"alpha": ALPHA, "n": 1, "N": 32}, "symbols": BOUNDED,
           "checks": ["adjoint-kernel"]}
    monkeypatch.setattr(runner, "adjoint_on_kernels",
                        lambda M, pair, points: np.array([0.0, np.nan, 0.0]))
    (report,) = run(parse_config(doc))
    assert report.status == "unverified" and report.defect is None
    assert report.provenance == "non-finite-defect; adjoint-kernel-identity"
