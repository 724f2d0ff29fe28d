"""No extreme but finite config crashes the CLI.

Every run goes through ``cswcd.cli.main`` in this process and must end in
a verdict or a config error: exit 0, 1, 2 or 3, no traceback on stderr,
and on exit 2 a ``{error, path}`` document on stderr. The RuntimeWarning
filter of the test configuration turns an unsilenced floating-point
warning into an exception, so a warning counts as a crash here too.

The named cases are the overflows that once ended in exit 4: a map
coefficient past 1.3e154, whose squared modulus raised in
``sup_norm_lft``, and a weight series or operator matrix that overflowed.
The property sets one or two leaves of a pinned config
(``pinned_reports.cases``) to extreme values.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cswcd import runner
from cswcd.cli import main
from pinned_reports import KIND_CONFIGS, cases

MODES = ("check", "grid", "export-matrix", "sweep")
EXTREMES = (0, 1, -1, 1e-300, 1e300, -1e300, 1.0000001, 5000, -0.999999,
            [0, 0], [1, 1], [0, 1e308])
MAX_N = 16
# redraws a sweep may make before it is refused: a mutated sweep whose
# gates or ambiguous band refuse every draw would spend minutes on the
# default of 1e5
MAX_REJECTIONS = 50


def _with(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _kind(kind: str, path: tuple, value, checks: list) -> dict:
    return {**_with(KIND_CONFIGS[kind], path, value), "checks": checks}


GENERAL_HUGE_B = {"space": {"alpha": 0, "n": 1, "N": 16},
                  "symbols": {"family": "general", "a": 1, "b": [1e300, 0], "c": [0.2, 0.1]},
                  "checks": ["adjoint-pair"]}
EXPLICIT_HUGE_D = {"space": {"alpha": 0, "n": 2, "N": 16},
                   "symbols": {"family": "explicit", "psi": [0, 0, 1, 0.2],
                               "phi": [0.3, -1.0, 0.1, 1e300]},
                   "checks": ["boundedness-grid", "nevanlinna-grid"]}
EXPLICIT_HUGE_PSI = {"space": {"alpha": 0, "n": 2, "N": 16},
                     "symbols": {"family": "explicit", "psi": [0, 1e308],
                                 "phi": [0.3, 0.1, 0.1, 1]},
                     "checks": ["adjoint-kernel"]}
GENERAL_SWEEP_HUGE_ALPHA = {"space": {"alpha": 1e300, "n": 2, "N": 8},
                            "symbols": {"family": "general"}, "checks": ["adjoint-kernel"]}

# (name, subcommand, config, exit code): the runs that exited 4 before
FIXED = [
    ("general-huge-b", "check", GENERAL_HUGE_B, 3),
    ("wc-J-huge-b", "check",
     _kind("wc-J", ("symbols", "b"), [1e300, 0.1], ["C-symmetry"]), 3),
    ("explicit-huge-d", "grid", EXPLICIT_HUGE_D, 0),
    ("explicit-huge-psi", "check", EXPLICIT_HUGE_PSI, 3),
    ("explicit-huge-psi", "export-matrix", EXPLICIT_HUGE_PSI, 3),
    ("rotation-J-huge-alpha", "check",
     _kind("rotation-J", ("space", "alpha"), 1e300, ["adjoint-kernel"]), 3),
    ("rotation-J-huge-alpha", "export-matrix",
     _kind("rotation-J", ("space", "alpha"), 1e300, ["adjoint-kernel"]), 3),
    ("general-sweep-huge-alpha", "sweep", GENERAL_SWEEP_HUGE_ALPHA, 3),
]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


def run_cli(work, mode: str, doc: dict) -> tuple:
    """(exit code, stdout, stderr) of ``main`` on doc in mode."""
    config = work / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    extra = {"check": [], "sweep": ["--draws", "2", "--seed", "17"],
             "grid": ["--out", str(work / "grids")],
             "export-matrix": ["--out", str(work / "matrix.csv")]}[mode]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([mode, str(config), *extra])
    return code, out.getvalue(), err.getvalue()


def assert_no_crash(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err, err
    if code == 2:
        assert set(json.loads(err)) == {"error", "path"}, err


@pytest.fixture
def few_rejections(monkeypatch):
    monkeypatch.setattr(runner, "MAX_REJECTIONS", MAX_REJECTIONS)


@pytest.mark.parametrize("name, mode, doc, expected", FIXED,
                         ids=[f"{name}-{mode}" for name, mode, *_ in FIXED])
def test_overflow_is_a_verdict(work, few_rejections, name, mode, doc, expected):
    code, out, err = run_cli(work, mode, doc)
    assert_no_crash(code, err)
    assert code == expected, err
    if mode == "export-matrix":
        assert err.startswith("unverified: ")
    if mode == "check":
        (report,) = json.loads(out)["reports"]
        assert report["status"] == "unverified"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("doc", [GENERAL_HUGE_B, EXPLICIT_HUGE_D, EXPLICIT_HUGE_PSI,
                                 GENERAL_SWEEP_HUGE_ALPHA],
                         ids=["general-huge-b", "explicit-huge-d", "explicit-huge-psi",
                              "general-sweep-huge-alpha"])
def test_fixed_configs_in_every_mode(work, few_rejections, doc, mode):
    code, _, err = run_cli(work, mode, doc)
    assert_no_crash(code, err)


def leaves(doc, path=()):
    """The paths of every number, string and boolean in doc."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc) for leaf in leaves(value, (*path, i))]
    return [path]


BASES = [(name.split("-", 1)[0], doc) for name, doc, _ in cases()]
for _, _doc in BASES:
    _doc["space"] = {**_doc["space"], "N": min(_doc["space"].get("N", MAX_N), MAX_N)}


@st.composite
def mutated(draw):
    mode, doc = draw(st.sampled_from(BASES))
    mode = draw(st.sampled_from((mode, *MODES)))
    paths = leaves(doc)
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        doc = _with(doc, path, draw(st.sampled_from(EXTREMES)))
    return mode, doc


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(case=mutated())
def test_extreme_leaves_do_not_crash(work, few_rejections, case):
    mode, doc = case
    code, _, err = run_cli(work, mode, doc)
    assert_no_crash(code, err)


HUGE_B_GATES = {**GENERAL_HUGE_B, "checks": ["adjoint-pair", "J-symmetry", "normality"]}
NUMBER = re.compile(r"[0-9][0-9.e+-]*")


def test_gate_refusals_print_huge_magnitudes_in_e_form(work):
    # sup|phi| is about 1.29e300 here: printed with six decimals it took 308
    # characters in each of the three provenances
    code, out, err = run_cli(work, "check", HUGE_B_GATES)
    assert code == 3, err
    reports = json.loads(out)["reports"]
    assert [r["status"] for r in reports] == ["unverified"] * 3
    for report in reports:
        assert "1.288007e+300" in report["provenance"], report
        assert max(map(len, NUMBER.findall(report["provenance"]))) <= 20, report
    leaves_disk = {**GENERAL_HUGE_B, "symbols": {"family": "explicit", "psi": [0, 1],
                                                 "phi": [1e300, 0, 0, 1]}}
    code, _, err = run_cli(work, "check", leaves_disk)
    assert code == 2
    assert json.loads(err) == {
        "error": "symbols.phi: the map leaves the disk: sup|phi| = 1.000000e+300",
        "path": "symbols.phi"}
    # the family constructors' domain refusals print through the same format
    huge = [1e300, 0]
    for symbols in ({**GENERAL_HUGE_B["symbols"], "b": 0.3, "c": huge},
                    {"family": "unitary", "p": [0.3, 0.1], "lambda_u": huge},
                    {"family": "normal-origin", "a": 1, "b": huge},
                    {"family": "wc-conjugated", "a": 1, "b": 0.3, "c": 0.2, "p": huge}):
        code, _, err = run_cli(work, "check", {**GENERAL_HUGE_B, "symbols": symbols})
        assert code == 2, err
        assert "1.000000e+300" in err, err
        assert max(map(len, NUMBER.findall(err))) <= 20, err
    small_c = {**GENERAL_HUGE_B["symbols"], "b": 0.3, "c": [1.5, 0]}
    code, _, err = run_cli(work, "check", {**GENERAL_HUGE_B, "symbols": small_c})
    assert code == 2
    assert json.loads(err) == {"error": "symbols: |c| must be < 1, got 1.500000",
                               "path": "symbols"}


def test_an_empty_region_names_the_rejections_it_made(work, few_rejections):
    # |b| >= 0.99 puts sup|phi| above the 0.95 that every general draw needs
    doc = {"space": {"alpha": 0, "n": 1, "N": 8},
           "symbols": {"family": "general", "ranges": {"abs_b": [0.99, 0.995]}},
           "checks": ["adjoint-pair"]}
    code, _, err = run_cli(work, "sweep", doc)
    assert code == 2
    assert json.loads(err) == {
        "error": f"symbols: admissible region looks empty after {MAX_REJECTIONS} rejections",
        "path": "symbols"}
