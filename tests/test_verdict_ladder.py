"""Known wrong verdicts at large alpha and at small N, recorded as strict xfails.

Every config below is a member of the family that its check is proved for,
so the predicted verdict is ``pass``; ``unverified`` (a gate refusal) is
also accepted, since it claims nothing. Today each case gives ``fail``
(exit 1), and the ``wc-conjugated`` ``C-symmetry`` case at alpha 400
crashes (exit 4). The causes:

- the kernel forms sum psi from its Taylor series, which loses digits as
  alpha grows (for ``wc-conjugated`` an exact cancellation of
  (1 - conj(p) z)^(+-(alpha+2)) is done in floating point);
- ``adjoint-kernel`` compares a truncation with an absolute space norm, so
  the kernel tail beyond N and the rounding floor of large kernel norms
  enter its defect.

The marks are ``xfail(strict=True)``: a case that starts to pass fails the
suite, so whoever mends it removes its mark.
"""

import json

import pytest

from cswcd.cli import main

WC = {"family": "wc-conjugated", "a": 1.0, "b": [0.4, 0.2], "c": [0.2, -0.1],
      "p": [0.6, 0.3]}
UNITARY = {"family": "unitary", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]}
SELF_ADJOINT = {"family": "self-adjoint", "a": 1.0, "b": 0.4, "c": [0.3, 0.2]}
GENERAL = {"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}
J_SYMMETRIC = {"family": "j-symmetric", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}

# (symbols, check, [(alpha, N), ...]) per row of the table; n is 1 throughout.
# The comments give the verdict and defect these cells gave when recorded.
ROWS = (
    # fail 2.6e-10, 7.7e-6 and 1.0; alpha 400: ValueError, exit 4
    (WC, "C-symmetry", [(30, 32), (50, 32), (100, 32), (400, 32)]),
    # fail 6.7e-6 and 79
    (WC, "adjoint-kernel", [(20, 32), (50, 32)]),
    # fail 1.1e-8 and 1.0 for both checks
    (UNITARY, "C-symmetry", [(100, 48), (200, 48)]),
    (UNITARY, "J-symmetry", [(100, 48), (200, 48)]),
    # fail 3.6e-10 and 3.0e-7
    (SELF_ADJOINT, "self-adjointness", [(400, 32)]),
    (SELF_ADJOINT, "C-symmetry", [(400, 32)]),
    # fail 4.4e-8 at N 48 (a pass at N 96); alpha 100: 1.9e-5 at every N from 96 to 400
    (GENERAL, "adjoint-kernel", [(30, 48), (100, 96), (100, 400)]),
    # fail 6.3e-2, 2.5e-3 and 1.5e-6; a pass from N 24 on
    (J_SYMMETRIC, "adjoint-kernel", [(0.5, 4), (0.5, 8), (0.5, 16)]),
)

CELLS = [
    pytest.param(
        symbols, check, alpha, N,
        id=f"{symbols['family']}-{check}-alpha{alpha:g}-N{N}",
        marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                reason="wrong verdict at large alpha or small N"),
    )
    for symbols, check, cells in ROWS
    for alpha, N in cells
]


@pytest.mark.parametrize("symbols, check, alpha, N", CELLS)
def test_family_member_is_not_refuted(symbols, check, alpha, N, tmp_path):
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    doc = {"space": {"alpha": alpha, "n": 1, "N": N}, "symbols": symbols, "checks": [check]}
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["check", str(cfg), "--out", str(out)])
    assert code in (0, 3), f"exit {code}"
    (report,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
    assert report["status"] in ("pass", "unverified"), report
