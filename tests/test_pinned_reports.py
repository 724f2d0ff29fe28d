"""Byte-for-byte comparison of check and sweep reports against pinned fixtures.

The reports are made in a subprocess at one and at two BLAS threads, and
both runs must give the fixtures' bytes: no report may depend on the BLAS
thread count. The fixtures are valid for the BLAS build recorded in their
manifest.

Two macroscopic pinned defects are also computed independently, in mpmath
at 40 digits from the family definitions, so that they are checked and not
only frozen.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from cswcd.conjugations import KERNEL_POINTS
from pinned_reports import KIND_CONFIGS, THREAD_VARS, blas_record, cases, leaf_diffs

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures" / "pinned"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """BLAS thread count -> a directory of fresh reports made at that count."""
    src = str(HERE.parent / "src")
    out = {}
    for threads in ("1", "2"):
        out[threads] = tmp_path_factory.mktemp(f"pinned-{threads}")
        env = dict(os.environ, **dict.fromkeys(THREAD_VARS, threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run(
            [sys.executable, str(HERE / "pinned_reports.py"), str(out[threads])],
            env=env, check=True, timeout=300,
        )
    return out


def manifest(directory):
    return json.loads((directory / "manifest.json").read_text(encoding="utf-8"))


def test_fixtures_cover_every_case():
    names = {name for name, _, _ in cases()}
    assert names == set(manifest(FIXTURES)["exit_codes"])
    assert names == {p.stem for p in FIXTURES.glob("*.json")} - {"manifest"}


@pytest.mark.parametrize("name", [name for name, _, _ in cases()])
def test_report_bytes(fresh, name):
    pinned = manifest(FIXTURES)
    if blas_record()["blas"] != pinned["blas"]:
        pytest.skip(f"fixtures pin BLAS build {pinned['blas']}")
    want = (FIXTURES / f"{name}.json").read_bytes()
    for threads, directory in fresh.items():
        assert manifest(directory)["exit_codes"][name] == pinned["exit_codes"][name], threads
        got = (directory / f"{name}.json").read_bytes()
        assert got == want, "\n".join([f"at {threads} BLAS threads:"] + (
            leaf_diffs(json.loads(want), json.loads(got))
            or ["every JSON leaf is equal; bytes differ"]
        ))


def test_leaf_diffs_name_each_differing_leaf():
    pinned = {"reports": [{"defect": 1.786e-16, "status": "pass"}], "seed": 3}
    fresh = {"reports": [{"defect": 1.885e-16, "status": "pass"}, {}], "seed": True}
    assert leaf_diffs(pinned, fresh) == [
        "$.reports[0].defect: 1.786e-16 → 1.885e-16",
        "$.reports[1]: '<missing>' → {}",
        "$.seed: 3 → True",
    ]
    assert leaf_diffs(pinned, pinned) == []


def mp_complex(value):
    return mpmath.mpc(*value) if isinstance(value, list) else mpmath.mpc(value)


def oracle_pair(kind):
    """(psi, phi, n, alpha) of the KIND_CONFIGS pair of kind, in mpmath, built
    from the family definitions. The base pair is the j-symmetric one,
    psi_b(z) = a z^n / (n! (1 - c z)^(n+alpha+2)) and
    phi_b(z) = c + b z / (1 - c z). wc-J transports it by the unitary
    symbols at p, psi = psi_p (psi_b o phi_p) and phi = phi_b o phi_p, with
    psi_p(z) = lambda_u (1 - |p|^2)^((alpha+2)/2) (1 - conj(p) z)^-(alpha+2)
    and phi_p(z) = (conj(p)/p) (p - z) / (1 - conj(p) z); rotation-J gives
    psi(z) = mu psi_b(lam z) and phi(z) = phi_b(lam z)."""
    doc = KIND_CONFIGS[kind]
    n, alpha = doc["space"]["n"], mpmath.mpf(doc["space"]["alpha"])
    symbols = doc["symbols"]
    a, b, c = (mp_complex(symbols[key]) for key in "abc")

    def psi_b(z):
        return a * z**n / (mpmath.factorial(n) * (1 - c * z) ** (n + alpha + 2))

    def phi_b(z):
        return c + b * z / (1 - c * z)

    if kind == "wc-J":
        p, lambda_u = mp_complex(symbols["p"]), mp_complex(symbols["lambda_u"])
        p_bar = mpmath.conj(p)

        def phi_p(z):
            return p_bar / p * (p - z) / (1 - p_bar * z)

        def psi(z):
            gain = (1 - abs(p) ** 2) ** ((alpha + 2) / 2)
            return lambda_u * gain * (1 - p_bar * z) ** -(alpha + 2) * psi_b(phi_p(z))

        return psi, (lambda z: phi_b(phi_p(z))), n, alpha
    mu, lam = mp_complex(symbols["mu"]), mp_complex(symbols["lam"])
    return (lambda z: mu * psi_b(lam * z)), (lambda z: phi_b(lam * z)), n, alpha


def oracle_form(kind, point):
    """F[i][j] = psi(u_j) (alpha+2)_n x_i^n (1 - x_i phi(u_j))^-(alpha+n+2) with
    x_i = point(u_i), u = KERNEL_POINTS: B of plain-J for point(u) = u, and A
    for point(u) = conj(u)."""
    psi, phi, n, alpha = oracle_pair(kind)
    u = [mpmath.mpc(complex(z)) for z in KERNEL_POINTS]
    rising = mpmath.rf(alpha + 2, n)
    return [[psi(uj) * rising * point(ui) ** n * (1 - point(ui) * phi(uj)) ** -(alpha + n + 2)
             for uj in u] for ui in u]


def max_ratio_defect(F, partner):
    """max |F[i][j] - partner(F, i, j)| / max |F|."""
    size = range(len(F))
    num = max(abs(F[i][j] - partner(F, i, j)) for i in size for j in size)
    return num / max(abs(x) for row in F for x in row)


@pytest.mark.parametrize("name, kind, point, partner", [
    ("check-wc-J-J-symmetry", "wc-J", lambda u: u, lambda F, i, j: F[j][i]),
    ("check-rotation-J-self-adjointness", "rotation-J", mpmath.conj,
     lambda F, i, j: mpmath.conj(F[j][i])),
])
def test_pinned_defect_matches_the_mpmath_oracle(name, kind, point, partner):
    (report,) = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))["reports"]
    with mpmath.workdps(40):
        exact = max_ratio_defect(oracle_form(kind, point), partner)
        assert abs(report["defect"] - exact) <= 1e-12 * exact, (name, report["defect"], exact)
