"""Verdicts at large alpha and at small N, one cell per config and check.

Every config below is a member of the family that its check is proved for,
so the predicted verdict is ``pass``; ``unverified`` (a gate refusal) is
also accepted, since it claims nothing. The cells of the open rows still
give ``fail`` (exit 1) and are recorded as strict xfails. Their cause:
``adjoint-kernel`` compares a truncation with an absolute space norm, so the
kernel tail beyond N and the rounding floor of large kernel norms enter its
defect.

The mended rows used to fail because the kernel forms summed psi from its
Taylor series, which loses digits as alpha grows (for ``wc-conjugated`` an
exact cancellation of (1 - conj(p) z)^(+-(alpha+2)) was done in floating
point, and alpha 400 crashed with exit 4). The kernel forms now evaluate
psi in closed form, and these cells pass.

The marks are ``xfail(strict=True)``: a case that starts to pass fails the
suite, so whoever mends it removes its mark.

Where a closed form underflows, the check claims nothing: at alpha 400 and
p 0.99 the wc-J conjugation's weight constant
k = lambda_u (1 - |p|^2)^((alpha+2)/2) is 0, so the kernel forms give NaN,
and the report is ``unverified`` with a null defect (exit 3). Those cells
used to pass on the one finite identity (``conjugation-axioms``) or crash
with exit 4 (``C-symmetry``). A form whose reference is all zero, where
every weight value underflowed, is ``unverified`` the same way. Forms
scaled so that they do not underflow would make them pass. The ``unitary`` pair at the same p and alpha keeps
that constant as a logarithmic gain, so it is no longer refused as
identically zero (exit 2); its checks run on values close to the double
underflow threshold.

``necessary-conditions`` reads the weight's closed form, so at large alpha
it no longer sees a false zero in a summed Taylor series of psi (``fail``,
exit 1) or a series that overflowed (exit 4).
"""

import json

import pytest

from cswcd.cli import main
from cswcd.runner import CHECK_RECORDS

WC = {"family": "wc-conjugated", "a": 1.0, "b": [0.4, 0.2], "c": [0.2, -0.1],
      "p": [0.6, 0.3]}
UNITARY = {"family": "unitary", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]}
SELF_ADJOINT = {"family": "self-adjoint", "a": 1.0, "b": 0.4, "c": [0.3, 0.2]}
GENERAL = {"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}
J_SYMMETRIC = {"family": "j-symmetric", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}
J_SYMMETRIC_FLAT = {"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 0.3}
J_SYMMETRIC_STEEP = {"family": "j-symmetric", "a": 1.0, "b": 0.1, "c": 0.45}
UNITARY_EDGE = {"family": "unitary", "p": 0.99}

# (symbols, check, [(alpha, N), ...], open) per row of the table; n is 1
# throughout. An open row's cells are strict xfails. The comments give the
# verdict and defect the cells give, and for a mended row what they gave
# when they were recorded.
ROWS = (
    # pass 2.7e-15, 2.0e-15, 3.5e-16 and 3.2e-20; were fail 2.6e-10, 7.7e-6
    # and 1.0, and at alpha 400 ValueError, exit 4
    (WC, "C-symmetry", [(30, 32), (50, 32), (100, 32), (400, 32)], False),
    # fail 6.7e-6 and 79
    (WC, "adjoint-kernel", [(20, 32), (50, 32)], True),
    # pass 1.7e-16 and 4.8e-18 for both checks; were fail 1.1e-8 and 1.0
    (UNITARY, "C-symmetry", [(100, 48), (200, 48)], False),
    (UNITARY, "J-symmetry", [(100, 48), (200, 48)], False),
    # pass 2.9e-14 and 2.2e-14; were fail 3.6e-10 and 3.0e-7
    (SELF_ADJOINT, "self-adjointness", [(400, 32)], False),
    (SELF_ADJOINT, "C-symmetry", [(400, 32)], False),
    # fail 4.4e-8 at N 48 (a pass at N 96); alpha 100: 2.0e-5 at N 96, 1.9e-5 at N 400
    (GENERAL, "adjoint-kernel", [(30, 48), (100, 96), (100, 400)], True),
    # fail 6.3e-2, 2.5e-3 and 1.5e-6; a pass from N 24 on
    (J_SYMMETRIC, "adjoint-kernel", [(0.5, 4), (0.5, 8), (0.5, 16)], True),
    # pass 1.8e-66 for both checks, on values near the underflow threshold;
    # were exit 2, the weight refused as identically zero
    (UNITARY_EDGE, "J-symmetry", [(400, 32)], False),
    (UNITARY_EDGE, "C-symmetry", [(400, 32)], False),
    # pass; were fail with weight_nonvanishing, and at alpha 1500, N 1000
    # ValueError, exit 4
    (J_SYMMETRIC_FLAT, "necessary-conditions", [(100, 192), (400, 1000)], False),
    (J_SYMMETRIC_STEEP, "necessary-conditions", [(1500, 400), (1500, 1000)], False),
)

OPEN = pytest.mark.xfail(strict=True, raises=AssertionError,
                         reason="wrong verdict at large alpha or small N")

CELLS = [
    pytest.param(
        symbols, check, alpha, N,
        id=f"{symbols['family']}-{check}-alpha{alpha:g}-N{N}",
        marks=[OPEN] if open_row else [],
    )
    for symbols, check, cells, open_row in ROWS
    for alpha, N in cells
]


# the wc-J weight constant underflows to 0 at alpha 400, |p| 0.99
UNDERFLOW = {"family": "wc-conjugated", "a": 1.0, "b": 0.3, "c": 0.15, "p": 0.99}


def check_cell(symbols, check, alpha, N, tmp_path) -> tuple:
    """(exit code, report) of ``cswcd check`` on one cell, with n 1; the
    report is None if the run wrote none."""
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    doc = {"space": {"alpha": alpha, "n": 1, "N": N}, "symbols": symbols, "checks": [check]}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["check", str(cfg), "--out", str(out)])
    if not out.exists():
        return code, None
    (report,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
    return code, report


@pytest.mark.parametrize("symbols, check, alpha, N", CELLS)
def test_family_member_is_not_refuted(symbols, check, alpha, N, tmp_path):
    code, report = check_cell(symbols, check, alpha, N, tmp_path)
    assert code in (0, 3), f"exit {code}"
    assert report["status"] in ("pass", "unverified"), report


@pytest.mark.parametrize("check", ["conjugation-axioms", "C-symmetry"])
def test_underflowed_weight_is_unverified(check, tmp_path):
    code, report = check_cell(UNDERFLOW, check, 400, 32, tmp_path)
    assert code == 3
    assert report["status"] == "unverified" and report["defect"] is None
    assert report["provenance"].startswith("non-finite-defect; kernel-")


# The unitary pair at p 0.99 with lambda_u i is not self-adjoint: it fails
# with defect 2.0 at alpha 50 and 400. From alpha 600 on, every weight value
# at KERNEL_POINTS underflows to 0, so each kernel form is all zero and
# carries no evidence: 'unverified' with a null defect (exit 3). The three
# checks below used to pass on the zero form with defect 0.0 (exit 0).
UNITARY_ZERO = {"family": "unitary", "p": 0.99, "lambda_u": [0.0, 1.0]}


@pytest.mark.parametrize("alpha", [600, 1000])
@pytest.mark.parametrize("check", ["self-adjointness", "J-symmetry", "C-symmetry"])
def test_all_zero_kernel_form_is_unverified(check, alpha, tmp_path):
    code, report = check_cell(UNITARY_ZERO, check, alpha, 32, tmp_path)
    assert code == 3
    assert report["status"] == "unverified" and report["defect"] is None
    assert report["provenance"].startswith("non-finite-defect; kernel-")


@pytest.mark.parametrize("alpha", [50, 400])
def test_the_all_zero_pair_is_not_self_adjoint(alpha, tmp_path):
    code, report = check_cell(UNITARY_ZERO, "self-adjointness", alpha, 32, tmp_path)
    assert code == 1
    assert report["status"] == "fail" and report["defect"] == pytest.approx(2.0, rel=1e-12)


# The grids at large alpha: a supremum that overflowed to inf, or a NaN
# from a power of exponent alpha + 2 + 2n that underflowed, is 'unverified'
# with a null defect (exit 3); it used to be written into the report, which
# JSON refuses (exit 4). N is 32.
ROTATION = {"family": "rotation-conjugated", "a": 1.0, "b": 0.3, "c": 0.15, "mu": 1.0,
            "lam": [0.0, 1.0]}
GRID_ROWS = (
    (GENERAL, "nevanlinna-grid"),
    (SELF_ADJOINT, "nevanlinna-grid"),
    (UNDERFLOW, "nevanlinna-grid"),
    (ROTATION, "nevanlinna-grid"),
    (UNITARY_EDGE, "boundedness-grid"),
)
GRID_CELLS = [
    pytest.param(symbols, check, alpha, id=f"{symbols['family']}-{check}-alpha{alpha}")
    for symbols, check in GRID_ROWS
    for alpha in (200, 400, 600)
]


@pytest.mark.parametrize("symbols, check, alpha", GRID_CELLS)
def test_non_finite_grid_supremum_is_unverified(symbols, check, alpha, tmp_path):
    code, report = check_cell(symbols, check, alpha, 32, tmp_path)
    assert code == 3, f"exit {code}"
    assert report["status"] == "unverified" and report["defect"] is None
    assert report["provenance"] == f"non-finite-defect; {CHECK_RECORDS[check].tag}"
