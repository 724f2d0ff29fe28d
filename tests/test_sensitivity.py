"""Detection floors: how each tolerance check's defect grows with a perturbation.

Each case perturbs a config for which its check holds exactly (defect at
rounding level) by a relative or angular amount eps. Away from the rounding
floor the defect is linear in eps, so every perturbed case must fail its
check and the log-log slope over eps in {1e-2, 1e-4, 1e-6} must be 1. The
symmetry, self-adjointness and normality cases run through the kernel
forms, which compare closed forms at fixed points of the disk instead of
matrix entries, so these cases also show that a few points still see a
defect. All cases run at alpha 0.5, n 1, N 64.

The kernel forms read no truncation of T, so at the smallest truncations,
where a guarded matrix block would hold one or two rows, a wrong rotation
must still fail ``C-symmetry``.

No config can break the identities behind ``adjoint-kernel``,
``adjoint-pair`` and ``conjugation-axioms``, so their cases scale one side of
the identity by (1 + eps) instead, by replacing a function that the check
reads; for ``adjoint-pair`` that is the closed-form weight of T_B, and for
``conjugation-axioms`` the weight constant of the conjugation (k of wc-J,
mu of rotation-J, 1 of plain-J) or the rotation lam of rotation-J. Every
kind's axioms run through the same kernel identities.
"""

import cmath
from dataclasses import replace

import numpy as np
import pytest

from cswcd import conjugations, matrices, runner
from cswcd.runner import parse_config, run

SPACE = {"alpha": 0.5, "n": 1, "N": 64}
EPSILONS = (1e-2, 1e-4, 1e-6)
P = complex(0.3, 0.1)
LAM = 0.9                      # argument of the rotation parameter


def as_pair(z: complex) -> list:
    return [z.real, z.imag]


def general(eps: float, check: str) -> dict:
    # self-adjoint and normal exactly when b is real
    symbols = {"family": "general", "a": 1.0, "b": [0.4, eps], "c": [0.2, 0.1]}
    return {"space": SPACE, "symbols": symbols, "checks": [check]}


def j_symmetry(eps: float) -> dict:
    # symmetric under coefficient conjugation exactly when c is real
    symbols = {"family": "general", "a": 1.0, "b": 0.4, "c": [0.2, eps]}
    return {"space": SPACE, "symbols": symbols, "checks": ["J-symmetry"]}


def rotation_j(eps: float, N: int = SPACE["N"]) -> dict:
    symbols = {"family": "rotation-conjugated", "a": 1.0, "b": [0.3, 0.1], "c": [0.2, -0.1],
               "mu": [0.6, 0.8], "lam": as_pair(cmath.exp(1j * LAM))}
    conjugation = {"kind": "rotation-J", "mu": [0.6, 0.8],
                   "lambda": as_pair(cmath.exp(1j * (LAM + eps)))}
    return {"space": {**SPACE, "N": N}, "symbols": symbols, "conjugation": conjugation,
            "checks": ["C-symmetry"]}


def wc_j(eps: float) -> dict:
    symbols = {"family": "wc-conjugated", "a": 1.0, "b": [0.3, 0.1], "c": [0.15, 0.0],
               "p": as_pair(P), "lambda_u": [0.0, 1.0]}
    conjugation = {"kind": "wc-J", "p": as_pair(P * (1 + eps)), "lambda_u": [0.0, 1.0]}
    return {"space": SPACE, "symbols": symbols, "conjugation": conjugation,
            "checks": ["C-symmetry"]}


CASES = {
    "self-adjointness, b + i eps": lambda eps: general(eps, "self-adjointness"),
    "C-symmetry rotation-J, lambda e^(i eps)": rotation_j,
    "C-symmetry wc-J, p (1 + eps)": wc_j,
    "normality, b + i eps": lambda eps: general(eps, "normality"),
    "J-symmetry, c + i eps": j_symmetry,
}


def report(doc: dict):
    (out,) = run(parse_config(doc))
    return out


def scaled_psi_at_point(eps: float, monkeypatch) -> dict:
    # psi(w) on the closed-form side conj(psi(w)) K^[n]_phi(w)
    inner = matrices.series_values
    monkeypatch.setattr(matrices, "series_values", lambda f, z: (1 + eps) * inner(f, z))
    return general(0.0, "adjoint-kernel")


def scaled_companion_weight(eps: float, monkeypatch) -> dict:
    # the closed-form weight of T_B, whose form on kernels is compared with
    # the adjoint of T_A's
    inner = conjugations.companion_weights

    def scaled(phi, n, alpha):
        psi_a, psi_b = inner(phi, n, alpha)
        return psi_a, (1 + eps) * psi_b

    monkeypatch.setattr(conjugations, "companion_weights", scaled)
    return general(0.0, "adjoint-pair")


def scaled_weight(C, eps: float):
    # the constant k of the weight psi_C(u) = k (1 - q u)^-(alpha+2)
    k, q = C.weight
    return replace(C, weight=((1 + eps) * k, q))


def scaled_wc_weight(eps: float, monkeypatch) -> dict:
    inner = runner.make_wc_J
    monkeypatch.setattr(runner, "make_wc_J",
                        lambda p, lambda_u, alpha: scaled_weight(inner(p, lambda_u, alpha), eps))
    return {**wc_j(0.0), "checks": ["conjugation-axioms"]}


def scaled_rotation_mu(eps: float, monkeypatch) -> dict:
    inner = runner.make_rotation_J
    monkeypatch.setattr(runner, "make_rotation_J",
                        lambda mu, lam, alpha: scaled_weight(inner(mu, lam, alpha), eps))
    return {**rotation_j(0.0), "checks": ["conjugation-axioms"]}


def scaled_rotation_lam(eps: float, monkeypatch) -> dict:
    # phi_C = lam z with |lam| = 1 + eps
    inner = runner.make_rotation_J

    def scaled(mu, lam, alpha):
        C = inner(mu, lam, alpha)
        return replace(C, phi=replace(C.phi, a=(1 + eps) * C.phi.a))

    monkeypatch.setattr(runner, "make_rotation_J", scaled)
    return {**rotation_j(0.0), "checks": ["conjugation-axioms"]}


def scaled_plain_weight(eps: float, monkeypatch) -> dict:
    inner = runner.make_J
    monkeypatch.setattr(runner, "make_J", lambda alpha: scaled_weight(inner(alpha), eps))
    return {**j_symmetry(0.0), "conjugation": {"kind": "plain-J"},
            "checks": ["conjugation-axioms"]}


SCALED_CASES = {
    "adjoint-kernel, psi(w) (1 + eps)": scaled_psi_at_point,
    "adjoint-pair, weight of B (1 + eps)": scaled_companion_weight,
    "conjugation-axioms wc-J, k (1 + eps)": scaled_wc_weight,
    "conjugation-axioms rotation-J, mu (1 + eps)": scaled_rotation_mu,
    "conjugation-axioms rotation-J, lam (1 + eps)": scaled_rotation_lam,
    "conjugation-axioms plain-J, k (1 + eps)": scaled_plain_weight,
}


@pytest.mark.parametrize("make", SCALED_CASES.values(), ids=SCALED_CASES.keys())
def test_unscaled_identity_passes(make, monkeypatch):
    assert report(make(0.0, monkeypatch)).status == "pass"


@pytest.mark.parametrize("make", SCALED_CASES.values(), ids=SCALED_CASES.keys())
def test_defect_is_linear_in_the_scaling(make, monkeypatch):
    reports = []
    for eps in EPSILONS:
        with monkeypatch.context() as patch:
            reports.append(report(make(eps, patch)))
    assert [r.status for r in reports] == ["fail"] * len(EPSILONS)
    slope = np.polyfit(np.log10(EPSILONS), np.log10([r.defect for r in reports]), 1)[0]
    assert abs(slope - 1.0) <= 0.05


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_unperturbed_config_passes(make):
    assert report(make(0.0)).status == "pass"


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_defect_is_linear_in_the_perturbation(make):
    reports = [report(make(eps)) for eps in EPSILONS]
    assert [r.status for r in reports] == ["fail"] * len(EPSILONS)
    slope = np.polyfit(np.log10(EPSILONS), np.log10([r.defect for r in reports]), 1)[0]
    assert abs(slope - 1.0) <= 0.05


@pytest.mark.parametrize("N", [3, 6, 9])
def test_rotation_at_small_truncation(N):
    # the conjugation's lambda e^(2i) against the pair's e^(0.9i), then the matching one
    wrong = report(rotation_j(2.0 - LAM, N))
    assert wrong.status == "fail" and wrong.defect > 0.5
    matching = report(rotation_j(0.0, N))
    assert matching.status == "pass" and matching.defect <= 1e-15
