"""Byte-for-byte comparison of check and sweep reports against pinned fixtures.

The reports are made in a subprocess at one and at two BLAS threads, and
both runs must give the fixtures' bytes: no report may depend on the BLAS
thread count. The fixtures are valid for the BLAS build recorded in their
manifest.

The verdicts are compared on any machine: every status, provenance,
tolerance and exit code equals the fixture's, a macroscopic defect is
within a relative 1e-12 of it, and a rounding-level defect is below its
tolerance. They are compared also on reports made with numpy's SIMD loops
held to its X86_V2 baseline, which move the bytes of many defects.

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
from cswcd.diagnostics import GRAM_POINTS
from cswcd.runner import CHECK_RECORDS
from pinned_reports import (
    EXPLICIT_KINDS,
    KIND_CONFIGS,
    MISSING,
    THREAD_VARS,
    blas_record,
    cases,
    leaf_diffs,
)

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures" / "pinned"
# numpy runs its X86_V2 baseline loops, as on a CPU without AVX2
BASELINE_SIMD = {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"}
MACROSCOPIC = 1e-6      # a defect this large is compared within RELATIVE of the fixture's
RELATIVE = 1e-12


def write_reports(out, threads: str, **extra_env) -> None:
    """The pinned cases' reports in out, made in a subprocess at threads
    BLAS threads, with extra_env set."""
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS, threads), **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(HERE.parent / "src"),
                                                      env.get("PYTHONPATH"))))
    subprocess.run([sys.executable, str(HERE / "pinned_reports.py"), str(out)],
                   env=env, check=True, timeout=300)


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """BLAS thread count -> a directory of fresh reports made at that count."""
    out = {}
    for threads in ("1", "2"):
        out[threads] = tmp_path_factory.mktemp(f"pinned-{threads}")
        write_reports(out[threads], threads)
    return out


@pytest.fixture(scope="module")
def baseline_simd(tmp_path_factory):
    """A directory of fresh reports made under BASELINE_SIMD."""
    out = tmp_path_factory.mktemp("pinned-baseline-simd")
    write_reports(out, "1", **BASELINE_SIMD)
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


def report(directory, name):
    return json.loads((directory / f"{name}.json").read_text(encoding="utf-8"))


def defect_leaves(doc, parsed) -> dict:
    """path -> (defect, its tolerance) for each defect of a parsed report of
    config doc: each check report's, and each sweep check's worst."""
    if "reports" in parsed:
        return {f"$.reports[{i}].defect": (r.get("defect"), r.get("tolerance"))
                for i, r in enumerate(parsed["reports"])}
    tolerances = doc.get("tolerances", {})
    return {f"$.aggregate.checks.{name}.worst_defect":
            (slot.get("worst_defect"), tolerances.get(name, CHECK_RECORDS[name].tol))
            for name, slot in parsed["aggregate"]["checks"].items()}


def without_defects(parsed):
    if isinstance(parsed, dict):
        return {key: without_defects(value) for key, value in parsed.items()
                if key not in ("defect", "worst_defect")}
    if isinstance(parsed, list):
        return [without_defects(value) for value in parsed]
    return parsed


def defect_holds(pinned, fresh, tolerance) -> bool:
    """A macroscopic defect within RELATIVE of the fixture's; a smaller one
    at most its tolerance, or equal to the fixture's for a check with none."""
    if not (isinstance(pinned, float) and isinstance(fresh, float)):
        return pinned == fresh
    if pinned >= MACROSCOPIC:
        return abs(fresh - pinned) <= RELATIVE * pinned
    return fresh == pinned if tolerance is None else fresh <= tolerance


def verdict_diffs(doc, pinned, fresh) -> list:
    """``path: pinned -> fresh`` for every leaf of a fresh report of config
    doc that leaves the pinned report's verdict: any leaf but a defect that
    differs, and any defect that ``defect_holds`` refuses."""
    got = defect_leaves(doc, fresh)
    return leaf_diffs(without_defects(pinned), without_defects(fresh)) + [
        f"{path}: {value!r} \u2192 {got.get(path, (MISSING,))[0]!r}"
        for path, (value, tolerance) in defect_leaves(doc, pinned).items()
        if not defect_holds(value, got.get(path, (MISSING,))[0], tolerance)]


@pytest.mark.parametrize("name, doc", [(name, doc) for name, doc, _ in cases()],
                         ids=[name for name, _, _ in cases()])
def test_report_verdicts(fresh, baseline_simd, name, doc):
    # never skipped: the verdicts must not depend on the BLAS build or on
    # numpy's SIMD level, even where the bytes do
    pinned = report(FIXTURES, name)
    runs = {**{f"{threads} BLAS threads": directory for threads, directory in fresh.items()},
            "baseline SIMD": baseline_simd}
    for label, directory in runs.items():
        assert manifest(directory)["exit_codes"][name] \
            == manifest(FIXTURES)["exit_codes"][name], label
        assert verdict_diffs(doc, pinned, report(directory, name)) == [], label


def test_verdict_diffs_name_each_leaf_that_moves_a_verdict():
    doc = {"tolerances": {"normality": 1e-9}}
    pinned = {"header": {"seed": 3}, "reports": [
        {"defect": 0.0152, "status": "pass", "tolerance": None},
        {"defect": 3e-16, "status": "pass", "tolerance": 1e-10},
        {"defect": 0.0, "status": "pass", "tolerance": None},
        {"defect": None, "status": "unverified", "tolerance": 1e-10}]}
    moved = {"header": {"seed": 3}, "reports": [
        {"defect": 0.0152 * (1 + 5e-13), "status": "pass", "tolerance": None},
        {"defect": 9e-11, "status": "pass", "tolerance": 1e-10},
        {"defect": 0.0, "status": "pass", "tolerance": None},
        {"defect": None, "status": "unverified", "tolerance": 1e-10}]}
    assert verdict_diffs(doc, pinned, moved) == []
    broken = {"header": {"seed": 4}, "reports": [
        {"defect": 0.0152 * (1 + 2e-12), "status": "pass", "tolerance": None},
        {"defect": 2e-10, "status": "fail", "tolerance": 1e-10},
        {"defect": 1e-300, "status": "pass", "tolerance": None}]}
    assert verdict_diffs(doc, pinned, broken) == [
        "$.header.seed: 3 \u2192 4",
        "$.reports[1].status: 'pass' \u2192 'fail'",
        "$.reports[3]: {'status': 'unverified', 'tolerance': 1e-10} \u2192 '<missing>'",
        f"$.reports[0].defect: 0.0152 \u2192 {0.0152 * (1 + 2e-12)!r}",
        "$.reports[1].defect: 3e-16 \u2192 2e-10",
        "$.reports[2].defect: 0.0 \u2192 1e-300",
        "$.reports[3].defect: None \u2192 '<missing>'",
    ]
    sweep = {"aggregate": {"checks": {"normality": {"pass": 8, "worst_defect": 2e-16}}}}
    over = {"aggregate": {"checks": {"normality": {"pass": 8, "worst_defect": 2e-9}}}}
    assert verdict_diffs(doc, sweep, over) == [
        "$.aggregate.checks.normality.worst_defect: 2e-16 \u2192 2e-09"]
    assert verdict_diffs({}, sweep, over) == []


@pytest.mark.parametrize("kind", EXPLICIT_KINDS)
def test_written_out_descriptor_reports_equal_auto(fresh, kind):
    # the same checks of the same pair under the descriptor that 'auto'
    # resolves to; only the config hash in the header differs
    for directory in (FIXTURES, *fresh.values()):
        auto = report(directory, f"check-{kind}-all")
        written = report(directory, f"check-{kind}-explicit-all")
        assert written["reports"] == auto["reports"]
        assert written["header"]["config_sha256"] != auto["header"]["config_sha256"]


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


# The two defects of the normality Grams, from Taylor series in mpmath: the
# coefficients of T K_w = psi (alpha+2)_n conj(w)^n (1 - conj(w) phi)^-(alpha+n+2)
# come from series products of the family definitions, and those of
# T* K_w = conj(psi(w)) K^[n]_phi(w) from the series of the derivative
# kernel, sum_m m!/(m-n)! conj(u)^(m-n) z^m / beta_m^2; each inner product
# pairs coefficients with beta_m^2 and is summed until its tail is below
# SERIES_TAIL of the sum.
SERIES_TAIL = mpmath.mpf("1e-45")


def series_mul(f, g):
    return [mpmath.fsum(f[k] * g[m - k] for k in range(m + 1)) for m in range(len(f))]


def series_power(g, p):
    """g^p for a series g with g[0] != 0, by the recurrence of J. C. P. Miller."""
    h = [g[0] ** p]
    for m in range(1, len(g)):
        h.append(mpmath.fsum(((p + 1) * k - m) * g[k] * h[m - k] for k in range(1, m + 1))
                 / (m * g[0]))
    return h


def series_quotient(num, den):
    """num / den for den[0] != 0, by long division."""
    out = []
    for m in range(len(num)):
        out.append((num[m] - mpmath.fsum(out[k] * den[m - k] for k in range(m))) / den[0])
    return out


def padded(coeffs, size):
    return [mpmath.mpc(x) for x in coeffs[:size]] + [mpmath.mpc(0)] * (size - len(coeffs))


def beta_sq(alpha, size):
    out = [mpmath.mpf(1)]
    for m in range(1, size):
        out.append(out[-1] * m / (m + alpha + 1))
    return out


def gram_family(doc):
    """(psi series of a size, phi series of a size, psi, phi, n, alpha) for a
    general or explicit config, from the family definitions."""
    n, alpha = doc["space"]["n"], mpmath.mpf(doc["space"]["alpha"])
    symbols = doc["symbols"]
    if symbols["family"] == "general":
        # psi = a z^n / (n! (1 - conj(c) z)^(n+alpha+2)), phi = c + b z / (1 - conj(c) z)
        a, b, c = (mp_complex(symbols[key]) for key in "abc")
        s = n + alpha + 2

        def psi_series(size):
            power = series_power(padded([1, -mpmath.conj(c)], size), -s)
            return [mpmath.mpc(0)] * n + [a / mpmath.factorial(n) * x for x in power[:size - n]]

        def phi_series(size):
            out = series_quotient(padded([0, b], size), padded([1, -mpmath.conj(c)], size))
            return [out[0] + c] + out[1:]

        return (psi_series, phi_series,
                lambda z: a * z**n / (mpmath.factorial(n) * (1 - mpmath.conj(c) * z) ** s),
                lambda z: c + b * z / (1 - mpmath.conj(c) * z), n, alpha)
    psi_coeffs = [mp_complex(x) for x in symbols["psi"]]
    pa, pb, pc, pd = (mp_complex(x) for x in symbols["phi"])
    return (lambda size: padded(psi_coeffs, size),
            lambda size: series_quotient(padded([pb, pa], size), padded([pd, pc], size)),
            lambda z: mpmath.fsum(x * z**m for m, x in enumerate(psi_coeffs)),
            lambda z: (pa * z + pb) / (pc * z + pd), n, alpha)


def operator_on_kernel(family, w, size):
    """The first size Taylor coefficients of T K_w."""
    psi_series, phi_series, _, _, n, alpha = family
    inner = [-mpmath.conj(w) * x for x in phi_series(size)]
    inner[0] += 1
    power = series_power(inner, -(alpha + n + 2))
    scale = mpmath.rf(alpha + 2, n) * mpmath.conj(w) ** n
    return [scale * x for x in series_mul(psi_series(size), power)]


def adjoint_on_kernel(family, w, size):
    """The first size Taylor coefficients of T* K_w = conj(psi(w)) K^[n]_phi(w)."""
    _, _, psi, phi, n, alpha = family
    u_bar, bsq = mpmath.conj(phi(w)), beta_sq(alpha, size)
    return [mpmath.mpc(0)] * n + [
        mpmath.conj(psi(w)) * mpmath.factorial(m) / mpmath.factorial(m - n)
        * u_bar ** (m - n) / bsq[m] for m in range(n, size)]


def oracle_grams(doc):
    """(G_T, G_T*) at GRAM_POINTS, G[i][j] = <X K_(w_i), X K_(w_j)>, each
    sum grown until its last quarter of terms is below SERIES_TAIL of it."""
    family = gram_family(doc)
    alpha = family[-1]
    w = [mpmath.mpc(complex(z)) for z in GRAM_POINTS]
    size = 64
    while True:
        bsq = beta_sq(alpha, size)
        grams = []
        for side in (operator_on_kernel, adjoint_on_kernel):
            rows = [side(family, wi, size) for wi in w]
            grams.append([[mpmath.fsum(x * mpmath.conj(y) * b for x, y, b in zip(f, g, bsq))
                           for g in rows] for f in rows])
            tail = max(mpmath.fsum(abs(x) ** 2 * b for x, b in zip(f[3 * size // 4:],
                                                                   bsq[3 * size // 4:]))
                       / mpmath.fsum(abs(x) ** 2 * b for x, b in zip(f, bsq)) for f in rows)
            if tail > SERIES_TAIL:
                break
        else:
            return grams
        size *= 2


def test_pinned_balance_and_normality_match_the_mpmath_oracle():
    cases_by_name = {name: doc for name, doc, _ in cases()}
    checks = {
        # max over w of | ||T K_w||^2 / ||T* K_w||^2 - 1 |
        "check-rotation-J-general-kernel-norm-balance":
            lambda G_T, G_star: max(abs(G_T[i][i].real / G_star[i][i].real - 1)
                                    for i in range(len(G_T))),
        # max |G_T - G_T*| / max |G_T*|
        "check-explicit-normality":
            lambda G_T, G_star: max(abs(x - y) for r, s in zip(G_T, G_star)
                                    for x, y in zip(r, s))
            / max(abs(y) for s in G_star for y in s),
    }
    for name, defect in checks.items():
        (report,) = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))["reports"]
        with mpmath.workdps(40):
            exact = defect(*oracle_grams(cases_by_name[name]))
            assert abs(report["defect"] - exact) <= 1e-12 * exact, (name, report["defect"], exact)
