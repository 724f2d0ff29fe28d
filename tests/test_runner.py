"""Tests for config parsing, the check registry, sweeps and the CLI."""

import json
import math
import sys
from collections import Counter

import pytest

from cswcd import diagnostics, runner
from cswcd.cli import _exit_code, main
from cswcd.errors import ConfigError
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

    def test_sweep_config_without_parameters(self):
        doc = config_with(symbols={"family": "general"}, checks=["normality-predicate"])
        config = parse_config(doc, require_concrete=False)
        assert config.symbols["family"] == "general"


class TestRun:
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
        # a barely non-real b gives a commutator defect between the pass
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
        builds = counting(monkeypatch, "build_wcd_matrix")
        doc = config_with(
            symbols={"family": "self-adjoint", "a": 0.9, "b": 0.25, "c": [0.2, 0.2]},
            checks=["C-symmetry", "self-adjointness", "normality", "normality-predicate"],
        )
        reports = run(parse_config(doc))
        assert [r.status for r in reports] == ["pass"] * 4
        assert len(builds) == 1

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

    def test_one_commutator_per_run(self):
        # counted by code object, so no module binding of is_normal escapes
        code = diagnostics.is_normal.__code__
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
        # a Hermitian matrix has a rounding-size commutator; a 1e-20
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


class TestCli:
    def write(self, tmp_path, doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

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
        ],
        ids=["conjugation-mu", "N", "tolerance", "alpha", "n", "seed",
             "fractional-N", "fractional-n", "fractional-seed", "alpha-overflow",
             "infinite-alpha", "nan-a", "nan-w-point", "w-points-not-a-list", "nan-imag-b",
             "nan-tolerance", "negative-tolerance", "string-bounded", "boolean-tolerance",
             "boolean-seed", "boolean-a", "boolean-imag-b", "scalar-psi", "list-check-name",
             "rotation-field-lam", "wc-field-lambda", "plain-field", "auto-field", "list-kind",
             "bounded-pole-in-disk", "grid-pole-in-disk"],
    )
    def test_unparseable_value_exit(self, tmp_path, capsys, overrides, path):
        assert main(["check", self.write(tmp_path, config_with(**overrides))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["path"] == path

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
        [
            ("check", {"space": {"alpha": 0.0, "n": 1, "N": 2048}}, "space.N"),
            ("check", {"space": WC_SPACE, "symbols": {**WC_SYMBOLS, "p": [0.0, 0.92]}},
             "symbols.p"),
            ("check", {"space": WC_SPACE, "conjugation": {"kind": "wc-J", "p": [0.92, 0.0]}},
             "conjugation.p"),
            ("sweep", {"space": WC_SPACE, "conjugation": {"kind": "wc-J", "p": -0.92},
                       "symbols": {"family": "wc-conjugated"}}, "conjugation.p"),
            ("sweep", {"space": WC_SPACE,
                       "symbols": {"family": "wc-conjugated", "ranges": {"abs_p": [0.1, 0.92]}}},
             "symbols.ranges.abs_p"),
            ("sweep", {"space": {**WC_SPACE, "N": 500}, "symbols": {"family": "wc-conjugated"}},
             "symbols.ranges.abs_p"),
        ],
        ids=["N", "auto-p", "explicit-p", "sweep-explicit-p", "sweep-range",
             "sweep-default-range"],
    )
    def test_work_budget_refused_before_building(self, tmp_path, capsys, monkeypatch,
                                                 mode, overrides, path):
        # |p| 0.92 at N 96 needs dimension 2,354 and the default |p| bound 0.6
        # at N 500 needs 2,049, both just over MAX_WORK_DIM
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
        "overrides, require_concrete",
        [({"space": WC_SPACE, "symbols": {**WC_SYMBOLS, "p": 0.9}}, True),
         ({"space": {**WC_SPACE, "N": 499}, "symbols": {"family": "wc-conjugated"}}, False),
         ({"space": {"alpha": 0.0, "n": 1, "N": 2047}}, False)],
        ids=["auto-p", "sweep-default-range", "N"],
    )
    def test_work_budget_admits_configs_just_under(self, overrides, require_concrete):
        # dimensions 1,874, 2,046 and 2,048; only parsed, nothing at that size is built
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

    def test_guard_band_ignores_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CSWCD_GUARD", "abc")
        assert main(["check", self.write(tmp_path, config_with())]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["header"]["guard"] == 8
