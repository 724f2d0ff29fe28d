"""Tests for config parsing, the check registry, sweeps and the CLI."""

import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cswcd import diagnostics, matrices, runner, series
from cswcd import symbols as symbols_module
from cswcd.bergman import SpaceParams
from cswcd.cli import _exit_code, main
from cswcd.errors import ConfigError, UnboundedSymbolError
from cswcd.rng import SplitMix64
from cswcd.runner import (
    canonical_json,
    check_report_document,
    draw_symbols,
    make_pair,
    parse_config,
    run,
    sweep,
)
from cswcd.series import TruncatedSeries
from pinned_reports import CHECKS, KIND_CONFIGS

BASE = {
    "space": {"alpha": 0.0, "n": 1, "N": 48},
    "symbols": {"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 0.2},
    "checks": ["J-symmetry"],
    "seed": 5,
}

# phi = (1+z)/2 has sup norm 1, so only the user's bounded flag admits the operator
EXPLICIT_UNIT_MAP = {"family": "explicit", "psi": [0.0, 1.0], "phi": [0.5, 0.5, 0.0, 1.0]}
# phi = z / (0.5 - z) has its pole in the disk: no self-map, whatever the bounded flag says
EXPLICIT_POLE_IN_DISK = {"family": "explicit", "psi": [0.0, 1.0], "phi": [1.0, 0.0, -1.0, 0.5]}
# phi = 0.1 z + 1.5 maps the disk onto a disk with sup|phi| = 1.6: no self-map either
EXPLICIT_LEAVES_DISK = {"family": "explicit", "psi": [0.0, 1.0], "phi": [0.1, 1.5, 0.0, 1.0]}
# phi = 0.0009 / (1.001 - z): sup|phi| = 0.9, and |phi| is about 0.001 at the
# Gram points, but the pole at 1.001 keeps the series of T K_w from converging
EXPLICIT_NEAR_POLE = {"family": "explicit", "psi": [1.0], "phi": [0.0, 0.0009, -1.0, 1.001]}
# this general pair has a non-real b and c != 0, so it is not normal
NOT_NORMAL = {"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}
UNITARY = {"family": "unitary", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]}


WC_SPACE = {"alpha": 0.5, "n": 2, "N": 96}
WC_SYMBOLS = {"family": "wc-conjugated", "a": 1.0, "b": 0.3, "c": 0.15}


def config_with(**overrides):
    doc = json.loads(json.dumps(BASE))
    doc.update(overrides)
    return doc


class TestSplitMix:
    def test_reference_stream(self):
        # first outputs for seed 1234567 must stay pinned across platforms
        rng = SplitMix64(1234567)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_uniform_range(self):
        rng = SplitMix64(9)
        for _ in range(100):
            u = rng.uniform(0.25, 0.75)
            assert 0.25 <= u < 0.75

    def test_unimodular(self):
        rng = SplitMix64(10)
        for _ in range(20):
            assert abs(abs(rng.unimodular()) - 1.0) <= 1e-15


class TestParseConfig:
    def test_accepts_base(self):
        config = parse_config(config_with())
        assert config.space.N == 48
        assert config.checks == ("J-symmetry",)

    def test_rejects_boundary_c(self):
        doc = config_with(symbols={"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 1.0})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "symbols"

    def test_rejects_unknown_check(self):
        with pytest.raises(ConfigError) as err:
            parse_config(config_with(checks=["no-such-check"]))
        assert err.value.path == "checks[0]"

    def test_rejects_bad_space(self):
        doc = config_with(space={"alpha": -2.0, "n": 1, "N": 48})
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert err.value.path == "space"

    def test_complex_encoding(self):
        doc = config_with(
            symbols={"family": "j-symmetric", "a": 1.0, "b": [0.2, 0.1], "c": [0.0, 0.3]}
        )
        pair = make_pair(parse_config(doc).symbols, parse_config(doc).space)
        assert pair.params["c"] == 0.3j

    def test_explicit_conjugation_is_made_for_alpha(self, monkeypatch):
        # a conjugation carries alpha and no truncation, so none is made up
        made = []
        inner = runner.make_conjugation

        def record(descriptor, alpha):
            made.append(alpha)
            return inner(descriptor, alpha)

        monkeypatch.setattr(runner, "make_conjugation", record)
        parse_config(config_with(conjugation={"kind": "wc-J", "p": 0.3}))
        assert made == [0.0]

    def test_sweep_config_without_parameters(self):
        doc = config_with(symbols={"family": "general"}, checks=["normality-predicate"])
        config = parse_config(doc, require_concrete=False)
        assert config.symbols["family"] == "general"


class TestRun:
    @pytest.mark.parametrize("kind", KIND_CONFIGS)
    def test_reports_do_not_depend_on_the_seed(self, kind):
        # no check reads the seed, the exact kinds' conjugation axioms included
        doc = {**KIND_CONFIGS[kind], "checks": list(CHECKS)}
        reports = [canonical_json([r.payload() for r in run(parse_config({**doc, "seed": s}))])
                   for s in (3, 11)]
        assert reports[0] == reports[1]

    def test_j_symmetric_family_passes(self):
        reports = run(parse_config(config_with()))
        assert [r.status for r in reports] == ["pass"]
        assert reports[0].defect <= 1e-10

    def test_normal_origin_two_checks(self):
        doc = config_with(
            symbols={"family": "normal-origin", "a": 1.0, "b": 0.5},
            checks=["normality", "J-symmetry"],
        )
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass", "pass"]

    def test_declared_order(self):
        doc = config_with(checks=["necessary-conditions", "J-symmetry"])
        reports = run(parse_config(doc))
        assert [r.name for r in reports] == ["necessary-conditions", "J-symmetry"]

    def test_gate_refusal_is_unverified(self):
        doc = config_with(
            symbols={
                "family": "explicit",
                "psi": [0.0, 1.0],
                "phi": [0.5, 0.5, 0.0, 1.0],
            },
            checks=["J-symmetry"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "unverified"

    def test_self_adjoint_auto_conjugation(self):
        doc = config_with(
            symbols={"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
            checks=["self-adjointness", "C-symmetry"],
        )
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass", "pass"]
        assert "rotation-J" in reports[1].provenance

    def test_wc_conjugated_c_symmetry(self):
        doc = config_with(
            space={"alpha": 0.0, "n": 1, "N": 48},
            symbols={
                "family": "wc-conjugated",
                "a": 1.0,
                "b": 0.3,
                "c": 0.15,
                "p": [0.3, 0.2],
            },
            checks=["C-symmetry"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "pass"
        assert reports[0].defect <= 1e-8

    def test_kernel_norm_balance_counterexample(self):
        doc = config_with(
            symbols={"family": "general", "a": 1.0, "b": [0.0, 0.4], "c": 0.3},
            checks=["kernel-norm-balance"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "pass"  # nonnormal predicted, imbalance found
        assert reports[0].defect > 1e-3

    def test_normality_predicate_ambiguous_band(self):
        # a barely non-real b gives a Gram defect between the pass
        # tolerance and the failure threshold: neither outcome is certified
        doc = config_with(
            symbols={"family": "general", "a": 1.0, "b": [0.3, 1e-6], "c": 0.3},
            checks=["normality-predicate"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "unverified"
        assert 1e-8 < reports[0].defect < 1e-3

    def test_adjoint_checks(self):
        doc = config_with(checks=["adjoint-kernel", "adjoint-pair"])
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass", "pass"]
        assert reports[0].defect <= 1e-8
        assert reports[1].defect <= 1e-9

    def test_conjugation_axioms_check_wc(self):
        doc = config_with(
            symbols={
                "family": "wc-conjugated",
                "a": 1.0,
                "b": 0.3,
                "c": 0.15,
                "p": [0.4, 0.1],
            },
            checks=["conjugation-axioms"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "pass"
        assert reports[0].defect <= 1e-9


def counting(monkeypatch, name):
    """Replace runner.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(runner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(runner, name, wrapper)
    return calls


class TestOneBuildPerConfig:
    """A config builds its pair, matrices and conjugation once, for all its
    checks, its sweep gates and its validation."""

    def test_one_pair_per_check(self, tmp_path, monkeypatch):
        pairs = counting(monkeypatch, "make_pair")
        doc = config_with(checks=["J-symmetry", "adjoint-kernel", "necessary-conditions"])
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(cfg), "--out", str(tmp_path / "report.json")]) == 0
        assert len(pairs) == 1

    def test_one_pair_per_gated_sweep_draw(self, tmp_path, monkeypatch):
        pairs = counting(monkeypatch, "make_pair")
        doc = config_with(symbols={"family": "j-symmetric"}, checks=["adjoint-kernel"])
        cfg, out = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", str(cfg), "--draws", "6", "--seed", "3", "--out", str(out)]) == 0
        aggregate = json.loads(out.read_text(encoding="utf-8"))["aggregate"]
        assert aggregate["redraws"] == 0
        assert len(pairs) == 6

    def test_one_matrix_build_per_run(self, monkeypatch):
        # the large-check shape: every check reads kernels, none builds a matrix
        builds = counting(monkeypatch, "build_wcd_matrix")
        doc = config_with(
            symbols={"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
            checks=["C-symmetry", "self-adjointness", "normality", "normality-predicate"],
        )
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass"] * 4
        assert len(builds) == 0

    def test_one_wc_conjugation_per_run(self, monkeypatch):
        conjugations = counting(monkeypatch, "make_wc_J")
        doc = config_with(
            symbols={
                "family": "wc-conjugated", "a": 1.0, "b": 0.3, "c": 0.15, "p": [0.3, 0.2],
            },
            checks=["C-symmetry", "conjugation-axioms"],
        )
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass", "pass"]
        assert len(conjugations) == 1

    def test_wc_checks_build_no_matrix(self, monkeypatch):
        builds = []
        inner = matrices._build
        monkeypatch.setattr(matrices, "_build", lambda *args: builds.append(args) or inner(*args))
        for p in ([0.5, 0.3], [0.0, 0.92]):
            doc = config_with(space=WC_SPACE, symbols={**WC_SYMBOLS, "p": p},
                              checks=["C-symmetry", "conjugation-axioms"])
            reports = run(parse_config(doc))
            assert [(r.status, r.tolerance) for r in reports] == [("pass", 1e-10),
                                                                  ("pass", 1e-9)], p
            assert [r.provenance for r in reports] == ["kernel-symmetry; kind=wc-J",
                                                       "kernel-conjugation-axioms; kind=wc-J"]
        assert builds == []

    @pytest.mark.parametrize("space, symbols, checks", [
        (WC_SPACE, {**WC_SYMBOLS, "p": [0.5, 0.3]}, ["C-symmetry", "conjugation-axioms"]),
        ({"alpha": 0.5, "n": 1, "N": 192},
         {"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
         ["C-symmetry", "self-adjointness", "normality", "normality-predicate"]),
    ], ids=["wc-conjugated", "large-check"])
    def test_kernel_checks_build_no_weight_series_at_N(self, monkeypatch, space, symbols,
                                                        checks):
        # the kernel forms read the closed-form weight; only the Gram takes a
        # series, at its own order
        orders, products = [], []
        init = TruncatedSeries.__post_init__
        monkeypatch.setattr(TruncatedSeries, "__post_init__",
                            lambda self: orders.append(np.size(self.coeffs) - 1) or init(self))
        for module in (series, symbols_module):
            inner = module.series_mul
            monkeypatch.setattr(module, "series_mul",
                                lambda *args, inner=inner: products.append(args) or inner(*args))
        config = parse_config(config_with(space=space, symbols=symbols, checks=checks))
        reports = run(config)
        assert [r.status for r in reports] == ["pass"] * len(checks)
        assert space["N"] not in orders and products == []
        assert "psi" not in config.pair.__dict__

    def test_one_commutator_per_run(self):
        # one kernel Gram serves both normality checks; counted by code
        # object, so no module binding of normality_gram_defect escapes
        code = diagnostics.normality_gram_defect.__code__
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(1)

        doc = config_with(
            symbols={"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
            checks=["normality", "normality-predicate"],
        )
        config = parse_config(doc)
        sys.setprofile(profile)
        try:
            reports = run(config)
        finally:
            sys.setprofile(None)
        assert [r.status for r in reports] == ["pass", "pass"]
        assert reports[0].defect == reports[1].defect
        assert len(calls) == 1


class TestPredicates:
    def test_scope_rejected_for_check(self, tmp_path, capsys):
        for i, check in enumerate(["normality-predicate", "kernel-norm-balance"]):
            doc = config_with(
                symbols={"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": [0.0, 0.2]},
                checks=["J-symmetry", check],
            )
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["check", str(path)]) == 2
            err = json.loads(capsys.readouterr().err)
            assert err["path"] == "checks[1]"

    def test_scope_rejected_for_sweep(self):
        doc = config_with(symbols={"family": "wc-conjugated"}, checks=["kernel-norm-balance"])
        with pytest.raises(ConfigError) as err:
            parse_config(doc, require_concrete=False)
        assert err.value.path == "checks[0]"

    def test_kernel_image_outside_disk_is_unverified(self, tmp_path):
        # |p1| = 1.03 at w = 0.5: the balance gate refuses the point
        doc = config_with(
            symbols={"family": "general", "a": 1.0, "b": 0.6, "c": 0.6},
            checks=["kernel-norm-balance"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "unverified"
        assert "p1 left the disk" in reports[0].provenance
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 3

    def test_unbounded_operator_is_unverified(self, tmp_path):
        # the kernel images stay in the disk (|p1| = |p2| = 0.964 at w = 0.5),
        # but sup|phi| = 1.883, so the operator gate refuses
        doc = config_with(
            symbols={"family": "general", "a": 1.0, "b": 0.6, "c": 0.55},
            checks=["kernel-norm-balance"],
        )
        reports = run(parse_config(doc))
        assert reports[0].status == "unverified"
        assert "no boundedness gate admits the symbols: sup|phi| = 1.883333" in (
            reports[0].provenance
        )
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(path), "--out", str(tmp_path / "report.json")]) == 3

    @pytest.mark.parametrize("c, b", [(0.9, 5e-3), (0.95, 2e-3), (0.99, 5e-5), (0.995, 2e-5),
                                      (0.999, 5e-7)])
    def test_kernel_balance_exact_near_the_circle(self, c, b):
        # a real b is normal; the two kernel norms grow like
        # (1 - |p|^2)^-(2n+alpha+2), so any rounding difference between |p1|
        # and |p2| would exceed the tolerance at c 0.99 and 0.995
        doc = config_with(space={"alpha": 0.5, "n": 1, "N": 16},
                          symbols={"family": "self-adjoint", "a": 1.0, "b": b, "c": c},
                          checks=["kernel-norm-balance"])
        (report,) = run(parse_config(doc))
        assert (report.status, report.defect) == ("pass", 0.0)

    def test_normal_prediction_in_gray_band_fails_for_both(self, monkeypatch):
        # a Hermitian operator has a rounding-size Gram defect; a 1e-20
        # tolerance puts it between the tolerance and the failure threshold.
        # Both kernel images of a real b come from one map, so the kernel
        # balance is exactly 0; it gets a rounding-size defect here instead
        monkeypatch.setattr(runner, "norm_defect_kernel_test", lambda pair, w, space: 1e-17)
        doc = config_with(
            symbols={"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
            checks=["normality-predicate", "kernel-norm-balance"],
            tolerances={"normality-predicate": 1e-20, "kernel-norm-balance": 1e-20},
        )
        reports = run(parse_config(doc))
        for report in reports:
            assert "predicted=normal" in report.provenance
            assert 1e-20 < report.defect < 1e-3
        assert [r.status for r in reports] == ["fail", "fail"]


class TestNormality:
    """Both normality checks read the kernel Gram defect, which does not
    depend on the truncation N."""

    @pytest.mark.parametrize("N", [3, 6, 9, 12])
    def test_not_normal_at_every_truncation(self, N):
        doc = config_with(space={"alpha": 0.5, "n": 1, "N": N}, symbols=NOT_NORMAL,
                          checks=["normality", "normality-predicate"])
        normality, predicate = run(parse_config(doc))
        assert (normality.status, predicate.status) == ("fail", "pass")
        assert normality.defect == predicate.defect == pytest.approx(0.2673, abs=1e-4)
        assert "predicted=nonnormal" in predicate.provenance

    @pytest.mark.parametrize("N", [32, 192])
    def test_unitary_is_normal(self, N):
        doc = config_with(space={"alpha": 0.5, "n": 1, "N": N}, symbols=UNITARY,
                          checks=["normality"])
        (report,) = run(parse_config(doc))
        assert report.status == "pass" and report.defect <= 1e-14
        assert report.provenance == "kernel-gram-defect"

    def test_unitary_sweep_passes(self, tmp_path):
        doc = config_with(space={"alpha": 0.5, "n": 1, "N": 32}, symbols={"family": "unitary"},
                          checks=["normality"])
        cfg, out = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["sweep", str(cfg), "--draws", "20", "--seed", "9", "--out", str(out)]) == 0
        slot = json.loads(out.read_text(encoding="utf-8"))["aggregate"]["checks"]["normality"]
        assert slot["pass"] == 20 and slot["worst_defect"] <= 1e-14

    def test_refused_points_are_unverified(self):
        # a bounded map with |phi(0.25i)| = 0.871, over the kernel point gate's 0.85
        doc = config_with(symbols={"family": "j-symmetric", "a": 1.0, "b": 0.1, "c": [0.0, 0.85]},
                          checks=["normality"])
        (report,) = run(parse_config(doc))
        assert report.status == "unverified"
        assert "image gate" in report.provenance

    @pytest.mark.parametrize("alpha, status", [(50.0, "pass"), (100.0, "pass"), (200.0, "pass")])
    def test_cancelling_weight_product_is_unverified(self, alpha, status):
        # on the normal unitary pair psi (1 + (c/d) z)^s is the constant k; the
        # weight's Taylor series sums it from terms near 1e33 at alpha 100, so
        # the series Gram refused this pair there, while the kernel sums form
        # no series
        doc = config_with(space={"alpha": alpha, "n": 1, "N": 48}, symbols=UNITARY,
                          checks=["normality"])
        (report,) = run(parse_config(doc))
        assert report.status == status
        assert report.defect <= 1e-10

    def test_unconverged_series_is_unverified(self):
        doc = config_with(space={"alpha": 0.5, "n": 1, "N": 32}, symbols=EXPLICIT_NEAR_POLE,
                          checks=["normality"])
        (report,) = run(parse_config(doc))
        assert report.status == "unverified" and report.defect is None
        assert "has not converged at order 2047" in report.provenance

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, check, alpha", [
        ("general", "kernel-norm-balance", 1500.0),   # the kernel norm series overflows
        ("self-adjoint", "normality-predicate", 3000.0),   # psi(w) overflows
    ])
    def test_non_finite_predicate_defect_is_unverified(self, tmp_path, family, check, alpha):
        doc = config_with(space={"alpha": alpha, "n": 1, "N": 32},
                          symbols={"family": family, "a": 1.0, "b": 0.4, "c": [0.3, 0.2]},
                          checks=[check])
        cfg, out = tmp_path / "config.json", tmp_path / "report.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["check", str(cfg), "--out", str(out)]) == 3
        (report,) = json.loads(out.read_text(encoding="utf-8"))["reports"]
        assert (report["status"], report["defect"]) == ("unverified", None)
        assert report["provenance"] == f"non-finite-defect; {check}; predicted=normal"

    @pytest.mark.parametrize("alpha", [0.5, 10.0, 50.0, 150.0, 400.0])
    @pytest.mark.parametrize("family", runner.SWEEPABLE_FAMILIES)
    def test_kernel_grams_always_give_a_verdict(self, family, alpha):
        # four seeded draws inside the gates at each n 1 to 3: no Gram refusal
        # and no non-finite defect, and every pair that is normal passes
        rng = SplitMix64(int(alpha * 10) + runner.SWEEPABLE_FAMILIES.index(family))
        checks = ["normality"]
        if family in runner.PREDICATE_FAMILIES:
            checks.append("normality-predicate")
        for n in (1, 2, 3):
            checked = 0
            while checked < 4:
                doc = config_with(space={"alpha": alpha, "n": n, "N": 32},
                                  symbols=draw_symbols({"family": family}, rng), checks=checks)
                config = parse_config(doc)
                try:
                    runner.GATES["normality"](config)
                except UnboundedSymbolError:
                    continue
                reports = run(config)
                normal = family in ("self-adjoint", "normal-origin", "unitary") or (
                    family == "general" and runner._predicted_normal(config.symbols))
                for report in reports:
                    assert report.defect is not None and math.isfinite(report.defect), report
                    assert report.status in ("pass", "fail") or (
                        report.name == "normality-predicate"
                        and runner.TOL_PREDICATE < report.defect < runner.FAIL_THRESHOLD), report
                    if normal:
                        assert report.status == "pass", report
                checked += 1

    def test_sweep_redraws_refused_points(self, monkeypatch):
        runs = counting(monkeypatch, "run")
        doc = config_with(symbols={"family": "j-symmetric", "ranges": {"abs_c": [0.8, 0.9]}},
                          checks=["normality"])
        aggregate = sweep(parse_config(doc, require_concrete=False), 6, seed=4)
        assert aggregate["redraws"] >= 1
        assert len(runs) == 6
        assert aggregate["checks"]["normality"]["unverified"] == 0


class TestSweep:
    def test_gate_rejected_draws_never_run(self, monkeypatch):
        runs = counting(monkeypatch, "run")
        doc = config_with(
            symbols={"family": "j-symmetric", "ranges": {"abs_c": [0.6, 0.9]}},
            checks=["adjoint-kernel"],
        )
        aggregate = sweep(parse_config(doc, require_concrete=False), 8, seed=17)
        assert aggregate["redraws"] >= 1
        assert len(runs) == 8
        assert aggregate["checks"]["adjoint-kernel"]["pass"] == 8

    def test_small_aggregate(self):
        doc = config_with(symbols={"family": "j-symmetric"}, checks=["J-symmetry"])
        config = parse_config(doc, require_concrete=False)
        aggregate = sweep(config, 10, seed=3)
        assert aggregate["draws"] == 10
        assert aggregate["checks"]["J-symmetry"]["pass"] == 10
        assert aggregate["mismatches"] == 0

    def test_zero_draws(self):
        doc = config_with(symbols={"family": "j-symmetric"}, checks=["J-symmetry"])
        config = parse_config(doc, require_concrete=False)
        aggregate = sweep(config, 0, seed=3)
        assert aggregate["draws"] == 0

    def test_deterministic(self):
        doc = config_with(symbols={"family": "general"}, checks=["normality-predicate"])
        config = parse_config(doc, require_concrete=False)
        a1 = sweep(config, 8, seed=12)
        a2 = sweep(config, 8, seed=12)
        assert canonical_json(a1) == canonical_json(a2)

    def test_draws_respect_gates(self):
        rng = SplitMix64(8)
        for _ in range(50):
            draw = draw_symbols({"family": "j-symmetric"}, rng)
            b = complex(*draw["b"])
            c = complex(*draw["c"])
            from cswcd.symbols import bounded_sufficient

            assert bounded_sufficient(b, c)


class TestReportDocument:
    def test_no_wall_time_in_payload(self):
        config = parse_config(config_with())
        reports = run(config)
        doc = check_report_document(config, reports)
        assert "wall_time" not in json.dumps(doc)
        assert doc["header"]["artifact"] == "cswcd"
        assert set(doc["header"]) == {"artifact", "version", "mode", "config_sha256", "seed"}
        assert set(doc["reports"][0]) == {"name", "status", "defect", "tolerance", "provenance"}


class TestCli:
    def write(self, tmp_path, doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_parser_serves_many_calls_in_one_process(self, tmp_path):
        # check, sweep, an invalid argv and check again in one process give
        # the exit codes and report bytes of four fresh processes
        check_cfg = self.write(tmp_path, config_with(), "check.json")
        sweep_cfg = self.write(tmp_path, config_with(
            symbols={"family": "general"}, checks=["normality-predicate", "adjoint-pair"]),
            "sweep.json")
        argvs = [["check", check_cfg], ["sweep", sweep_cfg, "--draws", "3", "--seed", "4"],
                 ["sweep", sweep_cfg, "--seed", "4"], ["check", check_cfg]]
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        for i, argv in enumerate(argvs):
            out, fresh_out = tmp_path / f"in-{i}.json", tmp_path / f"fresh-{i}.json"
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            fresh = subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, *argv,
                                    "--out", str(fresh_out)],
                                   env=env, capture_output=True, timeout=120)
            assert code == fresh.returncode == (2 if i == 2 else 0), (argv, code)
            if i != 2:
                assert out.read_bytes() == fresh_out.read_bytes(), argv

    def test_unitary_companion_pair_is_refused(self, tmp_path):
        # the map of a unitary pair is a disk automorphism, sup|phi| = 1: the
        # companion gate refuses every draw, whatever the rounding of sup|phi|
        doc = config_with(space={"alpha": 0.0, "n": 1, "N": 32},
                          symbols={"family": "unitary"}, checks=["adjoint-pair"], seed=5)
        out = tmp_path / "report.json"
        assert main(["sweep", self.write(tmp_path, doc), "--draws", "20", "--out",
                     str(out)]) == 3
        slot = json.loads(out.read_text(encoding="utf-8"))["aggregate"]["checks"]["adjoint-pair"]
        assert (slot["pass"], slot["fail"], slot["unverified"]) == (0, 0, 20)
        rng = SplitMix64(2024)
        for _ in range(1000):
            phi = make_pair(draw_symbols({"family": "unitary"}, rng), SpaceParams(0.0, 1, 8)).phi
            with pytest.raises(UnboundedSymbolError, match="companion pair needs sup"):
                matrices.companion_gate(phi)

    def test_check_pass_exit(self, tmp_path, capsys):
        code = main(["check", self.write(tmp_path, config_with())])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["reports"][0]["status"] == "pass"

    def test_check_fail_exit(self, tmp_path, capsys):
        doc = config_with(
            symbols={"family": "general", "a": [1.0, 0.2], "b": 0.2, "c": [0.0, 0.3]},
            checks=["self-adjointness"],
        )
        assert main(["check", self.write(tmp_path, doc)]) == 1

    def test_config_error_exit(self, tmp_path, capsys):
        doc = config_with(symbols={"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 1.0})
        assert main(["check", self.write(tmp_path, doc)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["path"] == "symbols"

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"conjugation": {"kind": "rotation-J", "mu": 2.0}}, "conjugation"),
            ({"space": {"alpha": 0.0, "n": 1, "N": "abc"}}, "space.N"),
            ({"tolerances": {"J-symmetry": "x"}}, "tolerances.J-symmetry"),
            ({"space": {"alpha": "abc", "n": 1, "N": 48}}, "space.alpha"),
            ({"space": {"alpha": 0.0, "n": [1], "N": 48}}, "space.n"),
            ({"seed": "abc"}, "seed"),
            ({"space": {"alpha": 0.0, "n": 1, "N": 40.7}}, "space.N"),
            ({"space": {"alpha": 0.0, "n": 1.5, "N": 48}}, "space.n"),
            ({"seed": 2.9}, "seed"),
            ({"space": {"alpha": 10**400, "n": 1, "N": 48}}, "space.alpha"),
            ({"space": {"alpha": math.inf, "n": 1, "N": 48}}, "space.alpha"),
            ({"symbols": {**BASE["symbols"], "a": math.nan}}, "symbols.a"),
            ({"symbols": {**BASE["symbols"], "w_points": [math.nan]}}, "symbols.w_points[0]"),
            ({"symbols": {**BASE["symbols"], "w_points": 0.4}}, "symbols.w_points"),
            ({"symbols": {**BASE["symbols"], "b": [0.3, math.nan]}}, "symbols.b"),
            ({"tolerances": {"J-symmetry": math.nan}}, "tolerances.J-symmetry"),
            ({"tolerances": {"J-symmetry": -1.0}}, "tolerances.J-symmetry"),
            ({"symbols": {**EXPLICIT_UNIT_MAP, "bounded": "false"}}, "symbols.bounded"),
            ({"tolerances": {"J-symmetry": True}}, "tolerances.J-symmetry"),
            ({"seed": True}, "seed"),
            ({"symbols": {**BASE["symbols"], "a": True}}, "symbols.a"),
            ({"symbols": {**BASE["symbols"], "b": [0.3, False]}}, "symbols.b"),
            ({"symbols": {**EXPLICIT_UNIT_MAP, "psi": 3}}, "symbols.psi"),
            ({"checks": [[1]]}, "checks[0]"),
            ({"conjugation": {"kind": "rotation-J", "mu": [0.6, 0.8], "lam": [0.0, 1.0]}},
             "conjugation.lam"),
            ({"conjugation": {"kind": "wc-J", "p": 0.3, "lambda": 1.0}}, "conjugation.lambda"),
            ({"conjugation": {"kind": "plain-J", "mu": 1.0}}, "conjugation.mu"),
            ({"conjugation": {"kind": "auto", "p": 0.3}}, "conjugation.p"),
            ({"conjugation": {"kind": ["plain-J"]}}, "conjugation.kind"),
            ({"symbols": {**EXPLICIT_POLE_IN_DISK, "bounded": True}}, "symbols.phi"),
            ({"symbols": EXPLICIT_POLE_IN_DISK, "checks": ["boundedness-grid"]}, "symbols.phi"),
            ({"symbols": {**EXPLICIT_LEAVES_DISK, "bounded": True},
              "checks": ["boundedness-grid", "nevanlinna-grid"]}, "symbols.phi"),
        ],
        ids=["conjugation-mu", "N", "tolerance", "alpha", "n", "seed",
             "fractional-N", "fractional-n", "fractional-seed", "alpha-overflow",
             "infinite-alpha", "nan-a", "nan-w-point", "w-points-not-a-list", "nan-imag-b",
             "nan-tolerance", "negative-tolerance", "string-bounded", "boolean-tolerance",
             "boolean-seed", "boolean-a", "boolean-imag-b", "scalar-psi", "list-check-name",
             "rotation-field-lam", "wc-field-lambda", "plain-field", "auto-field", "list-kind",
             "bounded-pole-in-disk", "grid-pole-in-disk", "bounded-map-leaves-disk"],
    )
    def test_unparseable_value_exit(self, tmp_path, capsys, overrides, path):
        assert main(["check", self.write(tmp_path, config_with(**overrides))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["path"] == path

    def test_large_alpha_grid_is_finite(self, tmp_path, capsys):
        # (1 - |phi(w)|)^(alpha+2+2n) underflows at alpha 100; the ratio in
        # logs stays finite, and a RuntimeWarning would be an error here
        doc = config_with(space={"alpha": 100.0, "n": 1, "N": 24},
                          symbols={**EXPLICIT_UNIT_MAP, "bounded": True},
                          checks=["boundedness-grid"])
        assert main(["check", self.write(tmp_path, doc)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        (report,) = json.loads(captured.out)["reports"]
        assert math.isfinite(report["defect"]) and report["defect"] > 1e30

    def test_no_non_finite_number_in_a_report(self):
        with pytest.raises(ValueError):
            canonical_json({"defect": math.inf})

    def test_integral_float_accepted(self):
        config = parse_config(config_with(space={"alpha": 0.0, "n": 1.0, "N": 40.0}, seed=3.0))
        assert (config.space.n, config.space.N, config.seed) == (1, 40, 3)

    @pytest.mark.parametrize(
        "key, value, family",
        [(key, value, "wc-conjugated") for key, value in (
            ("abs_p", [0.5, 1.2]), ("abs_a", ["x", 1]), ("abs_b", [0.2]), ("abs_c", [0.4, 0.1]),
            ("abs_q", [0.1, 0.2]), ("abs_a", [0, 0]), ("abs_b", [0.0, 0.3]), ("abs_p", [0, 0]))]
        + [("abs_c", [0.0, 0.01], "general")],
        ids=["radius-outside-disk", "not-a-number", "one-bound", "lo-above-hi", "unknown-key",
             "zero-a", "zero-b", "zero-p", "general-c-below-nonzero-draws"],
    )
    def test_bad_sweep_range_exit(self, tmp_path, capsys, key, value, family):
        # the general family draws a nonzero c with |c| >= 0.05
        doc = config_with(symbols={"family": family, "ranges": {key: value}},
                          checks=["C-symmetry"])
        assert main(["sweep", self.write(tmp_path, doc), "--draws", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["path"] == f"symbols.ranges.{key}"

    def test_zero_c_range_sweeps(self, tmp_path):
        # c = 0 is a valid draw, unlike a = 0, b = 0 or p = 0
        doc = config_with(symbols={"family": "rotation-conjugated", "ranges": {"abs_c": [0, 0]}},
                          checks=["C-symmetry"])
        assert main(["sweep", self.write(tmp_path, doc), "--draws", "2",
                     "--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("draws", ["-3", "0"])
    def test_draws_below_one_exit(self, tmp_path, capsys, monkeypatch, draws):
        runs = counting(monkeypatch, "run")
        cfg = self.write(tmp_path, config_with(symbols={"family": "j-symmetric"}))
        assert main(["sweep", cfg, "--draws", draws]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["path"] == "--draws"
        assert runs == []

    @pytest.mark.parametrize("mode", ["check", "sweep"])
    def test_internal_error_exit(self, tmp_path, capsys, monkeypatch, mode):
        # an exception other than ConfigError is exit 4, never 1 ("a check failed")
        def fault(config):
            raise RuntimeError("injected fault")

        monkeypatch.setitem(runner.CHECKS, "J-symmetry", fault)
        extra = ["--draws", "1"] if mode == "sweep" else []
        assert main([mode, self.write(tmp_path, config_with()), *extra]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("Traceback")
        assert "RuntimeError: injected fault" in captured.err

    @pytest.mark.parametrize(
        "mode, overrides, path",
        [("check", {"space": {"alpha": 0.0, "n": 1, "N": 2048}}, "space.N")],
        ids=["N"],
    )
    def test_work_budget_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                 mode, overrides, path):
        # dimension 2,049, just over MAX_WORK_DIM
        def refuse(*args):
            raise AssertionError("built before the budget check")

        monkeypatch.setattr(runner, "make_pair", refuse)
        monkeypatch.setattr(runner, "make_conjugation", refuse)
        doc = config_with(checks=["C-symmetry"], **overrides)
        extra = ["--draws", "1"] if mode == "sweep" else []
        assert main([mode, self.write(tmp_path, doc), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["path"] == path
        assert str(runner.MAX_WORK_DIM) in err["error"]

    @pytest.mark.parametrize(
        "mode, overrides, code",
        [
            ("check", {"space": WC_SPACE, "symbols": {**WC_SYMBOLS, "p": [0.0, 0.92]}}, 0),
            # the j-symmetric pair of BASE is not symmetric under this wc-J
            ("check", {"space": WC_SPACE, "conjugation": {"kind": "wc-J", "p": [0.92, 0.0]}},
             1),
            ("sweep", {"space": WC_SPACE, "conjugation": {"kind": "wc-J", "p": -0.92},
                       "symbols": {"family": "wc-conjugated"}}, 1),
            ("sweep", {"space": WC_SPACE,
                       "symbols": {"family": "wc-conjugated", "ranges": {"abs_p": [0.1, 0.92]}}},
             0),
            ("sweep", {"space": {**WC_SPACE, "N": 500}, "symbols": {"family": "wc-conjugated"}},
             0),
        ],
        ids=["auto-p", "explicit-p", "sweep-explicit-p", "sweep-range", "sweep-default-range"],
    )
    def test_wc_budget_does_not_depend_on_p(self, tmp_path, capsys, mode, overrides, code):
        # a wc-J conjugation is checked on kernels at the config's own
        # truncation, so |p| 0.92 at N 96 and |p| 0.6 at N 500 are in budget
        doc = config_with(checks=["C-symmetry", "conjugation-axioms"], **overrides)
        extra = ["--draws", "3", "--seed", "1"] if mode == "sweep" else []
        assert main([mode, self.write(tmp_path, doc), *extra]) == code
        out = json.loads(capsys.readouterr().out)
        if mode == "check":
            statuses = {r["name"]: r["status"] for r in out["reports"]}
        else:
            statuses = {name: "fail" if counts["fail"] else "pass"
                        for name, counts in out["aggregate"]["checks"].items()}
        assert statuses["conjugation-axioms"] == "pass"
        assert statuses["C-symmetry"] == ("pass" if code == 0 else "fail")

    @pytest.mark.parametrize(
        "overrides, require_concrete",
        [({"space": WC_SPACE, "symbols": {**WC_SYMBOLS, "p": 0.9}}, True),
         ({"space": {**WC_SPACE, "N": 499}, "symbols": {"family": "wc-conjugated"}}, False),
         ({"space": {"alpha": 0.0, "n": 1, "N": 2047}}, False)],
        ids=["auto-p", "sweep-default-range", "N"],
    )
    def test_work_budget_admits_configs_just_under(self, overrides, require_concrete):
        # dimension 2,048 at N 2047, and N + 1 rows for the wc-J configs at
        # any |p|; only parsed, nothing at that size is built
        parse_config(config_with(checks=["C-symmetry"], **overrides),
                     require_concrete=require_concrete)

    def test_sweep_has_no_timings_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = self.write(tmp_path, config_with(symbols={"family": "j-symmetric"}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg, "--draws", "1", "--timings", "t.json"])
        assert exc.value.code == 2
        assert not (tmp_path / "t.json").exists()

    def test_explicit_bounded_flag_admits_map(self, tmp_path):
        doc = config_with(symbols={**EXPLICIT_UNIT_MAP, "bounded": True}, checks=["J-symmetry"])
        assert parse_config(doc).matrix.dim == 49
        assert main(["check", self.write(tmp_path, doc)]) != 3

    @pytest.mark.parametrize(
        "counts, code",
        [({}, 0), ({"pass": 2, "unverified": 1}, 0), ({"unverified": 2}, 3),
         ({"pass": 1, "fail": 1, "unverified": 1}, 1)],
    )
    def test_exit_code_rule(self, counts, code):
        assert _exit_code(Counter(counts)) == code

    def test_all_unverified_exit(self, tmp_path):
        doc = config_with(symbols=EXPLICIT_UNIT_MAP, checks=["J-symmetry"])
        assert main(["check", self.write(tmp_path, doc)]) == 3

    def test_sweep_byte_identical(self, tmp_path):
        doc = config_with(symbols={"family": "general"}, checks=["normality-predicate"])
        cfg = self.write(tmp_path, doc)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["sweep", cfg, "--draws", "6", "--seed", "4", "--out", out1]) == 0
        assert main(["sweep", cfg, "--draws", "6", "--seed", "4", "--out", out2]) == 0
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_grid_writes_csv(self, tmp_path):
        doc = config_with(checks=["boundedness-grid"])
        out_dir = tmp_path / "grids"
        assert main(["grid", self.write(tmp_path, doc), "--out", str(out_dir)]) == 0
        csv_path = out_dir / "boundedness-grid.csv"
        assert csv_path.exists()
        assert csv_path.read_text().startswith("re_w,im_w,value")

    # at alpha 200 both powers of the Nevanlinna ratio underflow: 0/0 is NaN
    NAN_GRID = {"space": {"alpha": 200, "n": 1, "N": 32},
                "symbols": {"family": "general", "a": 1.0, "b": [0.4, 0.3], "c": [0.2, 0.1]}}

    def test_grid_refuses_non_finite_samples(self, tmp_path, capsys):
        doc = dict(self.NAN_GRID, checks=["nevanlinna-grid"])
        out_dir = tmp_path / "grids"
        assert main(["grid", self.write(tmp_path, doc), "--out", str(out_dir)]) == 3
        assert not (out_dir / "nevanlinna-grid.csv").exists()
        assert capsys.readouterr().err == "unverified: nevanlinna-grid: non-finite samples\n"

    def test_grid_writes_the_finite_grid_beside_a_refused_one(self, tmp_path):
        doc = dict(self.NAN_GRID, checks=["nevanlinna-grid", "boundedness-grid"])
        out_dir = tmp_path / "grids"
        assert main(["grid", self.write(tmp_path, doc), "--out", str(out_dir)]) == 0
        assert not (out_dir / "nevanlinna-grid.csv").exists()
        rows = (out_dir / "boundedness-grid.csv").read_text().splitlines()
        assert rows[0] == "re_w,im_w,value" and len(rows) > 1
        assert "nan" not in "".join(rows[1:])

    def test_export_matrix(self, tmp_path):
        out = tmp_path / "matrix.csv"
        assert main(["export-matrix", self.write(tmp_path, config_with()), "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert len(rows) == 49
        assert len(rows[0].split(",")) == 98

    def test_timings_sidecar(self, tmp_path):
        out = tmp_path / "report.json"
        times = tmp_path / "timings.json"
        code = main([
            "check", self.write(tmp_path, config_with()),
            "--out", str(out), "--timings", str(times),
        ])
        assert code == 0
        sidecar = json.loads(times.read_text())
        assert "J-symmetry" in sidecar
        assert sidecar["J-symmetry"] >= 0


# one sweep per conjugation kind, one of adjoint-kernel at a size where the
# BLAS splits a matvec at two threads, one of the large-check shape and one
# of the scalar-sweep shape, as (space, symbols, checks); each report must
# have the same bytes at one and at two BLAS threads
THREAD_SWEEPS = {
    "wc-J": ({"alpha": 0.5, "n": 2, "N": 96}, {"family": "wc-conjugated"},
             ["C-symmetry", "conjugation-axioms"]),
    "plain-J": ({"alpha": 0.5, "n": 1, "N": 192}, {"family": "j-symmetric"},
                ["J-symmetry", "C-symmetry", "conjugation-axioms"]),
    "rotation-J": ({"alpha": 0.5, "n": 1, "N": 192}, {"family": "rotation-conjugated"},
                   ["C-symmetry", "conjugation-axioms"]),
    "adjoint-kernel": ({"alpha": 0.5, "n": 1, "N": 192}, {"family": "general"},
                       ["adjoint-kernel"]),
    "large-check": ({"alpha": 0.5, "n": 1, "N": 192}, {"family": "self-adjoint"},
                    ["C-symmetry", "self-adjointness", "normality"]),
    "scalar-sweep": ({"alpha": 0.0, "n": 1, "N": 48}, {"family": "general"},
                     ["adjoint-kernel", "adjoint-pair", "necessary-conditions",
                      "boundedness-grid", "nevanlinna-grid", "normality-predicate",
                      "kernel-norm-balance"]),
}
SWEEP_SCRIPT = "import sys; from cswcd.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("name", THREAD_SWEEPS)
def test_sweep_bytes_do_not_depend_on_blas_threads(name, tmp_path):
    space, symbols, checks = THREAD_SWEEPS[name]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"space": space, "symbols": symbols, "checks": checks}),
                   encoding="utf-8")
    src = str(Path(__file__).parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"report-{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        subprocess.run([sys.executable, "-c", SWEEP_SCRIPT, "sweep", str(cfg), "--draws", "10",
                        "--seed", "3", "--out", str(out)], env=env, check=True, timeout=120)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
