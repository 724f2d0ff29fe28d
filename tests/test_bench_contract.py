"""What the benchmark in ``perfbench/`` needs of the package.

The benchmark counts ops by replacing ``runner.run`` during a sweep, and its
traced mode wraps every ``TRACED`` function at each module binding and every
``runner.CHECKS`` entry. A refactor that renames one of them, or that calls
``run`` in another way, breaks the benchmark; these tests show it first.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cswcd import bergman, cli, conjugations, diagnostics, matrices, runner
from cswcd.bergman import SpaceParams
from cswcd.symbols import family_general

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    """Every name bound in the modules the tracer patches."""
    modules = [importlib.import_module(f"cswcd.{m}") for m in tracing.LAYERS]
    modules.append(importlib.import_module("cswcd"))
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_install_resolves_every_traced_name(tracing):
    originals = {
        (mod, fn): getattr(importlib.import_module(f"cswcd.{mod}"), fn)
        for mod, fn, _, _ in tracing.TRACED
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (mod, fn), original in originals.items():
            wrapper = getattr(importlib.import_module(f"cswcd.{mod}"), fn)
            assert wrapper.__wrapped__ is original, f"{mod}.{fn}"
        for name, check in runner.CHECKS.items():
            assert callable(check.__wrapped__), name
    finally:
        tracer.uninstall()


def test_every_hook_reads_its_function_result(tracing):
    # no CLI run or workload calls most hooked functions, so a hook that no
    # longer fits its function's result would show only in a traced benchmark
    # run; each hooked function is called here once through its module
    space = SpaceParams(0.5, 1, 16)
    pair = family_general(1.0, 0.3, 0.2, 1, 0.5, 16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        norm = bergman.kernel_norm_sq(0.3, 2, 0.5)
        M = matrices.build_wcd_matrix(pair, space)
        matrices.build_weighted_composition(pair.psi, pair.phi, space)
        wide = conjugations.extended_space(space, 0.3)
        # a rotation's U is diagonal, so no second weighted-composition build
        conjugations.conjugated_adjoint(conjugations.make_rotation_J(1.0, 1j, 0.5), M)
        diagnostics.is_normal(M)
        grids = [diagnostics.boundedness_ratio_grid(pair.phi, 0.5, 1),
                 diagnostics.nevanlinna_bound_grid(pair.phi, 0.5, 1)]
    finally:
        tracer.uninstall()
    hooked = [f"{mod}.{fn}" for mod, fn, _, hook in tracing.TRACED if hook is not None]
    assert {name: tracer.calls[name] for name in hooked} == dict.fromkeys(hooked, 1)
    assert norm.terms == 3
    flops = 2 * 8 * 17**3
    assert dict(tracer.counters) == {
        "bergman.kernel_norm_sq.terms": 3,
        "matrices.build.cells": 2 * 17**2,
        "conjugations.wc_dim.sum": wide.N,
        "conjugations.wc_dim.count": 1,
        "conjugations.conjugated_adjoint.flops": flops,
        "diagnostics.is_normal.flops": flops,
        "diagnostics.grid.samples": sum(len(grid.samples) for grid in grids),
    }
    assert [(key[0], dim) for _, key, dim in tracer.builds] == [("wcd", 17), ("wc", 17)]


def test_uninstall_restores_bindings_and_checks(tracing, tmp_path):
    before, checks = bindings(tracing), dict(runner.CHECKS)
    doc = {
        "space": {"alpha": 0.5, "n": 1, "N": 24},
        "symbols": {"family": "wc-conjugated", "a": 1.0, "b": 0.3, "c": 0.15, "p": 0.3},
        "checks": ["C-symmetry", "conjugation-axioms"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main(["check", write_config(tmp_path, doc), "--out",
                         str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    # the counter behind make_wc_J.calls sees the one conjugation; it carries
    # no truncation, so wc_dim_mean's extended_space is never called
    assert tracer.calls["conjugations.make_wc_J"] == 1
    assert tracer.calls["conjugations.extended_space"] == 0
    assert tracer.calls["runner.check.C-symmetry"] == 1
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert runner.CHECKS.keys() == checks.keys()
    assert all(runner.CHECKS[name] is fn for name, fn in checks.items())


def test_sweep_calls_run_once_per_draw(monkeypatch, tmp_path):
    calls = []
    inner = runner.run

    def one_parameter(config):
        calls.append(config)
        return inner(config)

    monkeypatch.setattr(runner, "run", one_parameter)
    doc = {
        "space": {"alpha": 0.0, "n": 1, "N": 24},
        "symbols": {"family": "j-symmetric"},
        "checks": ["J-symmetry"],
    }
    out = tmp_path / "report.json"
    assert cli.main(["sweep", write_config(tmp_path, doc), "--draws", "4", "--seed", "2",
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["aggregate"]["redraws"] == 0
    assert len(calls) == 4


def test_tracer_sees_the_grid_checks(tracing):
    config = runner.parse_config({
        "space": {"alpha": 0.5, "n": 1, "N": 24},
        "symbols": {"family": "general", "a": 1.0, "b": 0.3, "c": 0.2},
        "checks": ["boundedness-grid", "nevanlinna-grid"],
    })
    tracer = tracing.Tracer()
    tracer.install()
    try:
        runner.run(config)
    finally:
        tracer.uninstall()
    assert tracer.calls["diagnostics.boundedness_ratio_grid"] == 1
    assert tracer.calls["diagnostics.nevanlinna_bound_grid"] == 1
    samples = sum(len(runner.grid_report(config, name).samples) for name in config.checks)
    assert samples > 0
    assert tracer.counters["diagnostics.grid.samples"] == samples


def test_tracer_reaches_every_check_through_the_records(tracing, tmp_path):
    # a record that held a traced function itself would call it unwrapped;
    # with c != 0 the config's conjugation is rotation-J, so make_J is J-symmetry's
    doc = {
        "space": {"alpha": 0.5, "n": 1, "N": 24},
        "symbols": {"family": "general", "a": 1.0, "b": 0.3, "c": 0.2},
        "checks": list(runner.CHECKS),
    }
    config = write_config(tmp_path, doc)
    expected = cli.main(["check", config, "--out", str(tmp_path / "plain.json")])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["check", config, "--out", str(tmp_path / "traced.json")])
    finally:
        tracer.uninstall()
    assert code == expected
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert {name: tracer.calls[f"runner.check.{name}"] for name in runner.CHECKS} == \
        dict.fromkeys(runner.CHECKS, 1)
    traced = ("conjugations.make_J", "diagnostics.necessary_conditions_check",
              "diagnostics.norm_defect_kernel_test", "diagnostics.boundedness_ratio_grid",
              "diagnostics.nevanlinna_bound_grid")
    assert {name: tracer.calls[name] for name in traced} == dict.fromkeys(traced, 1)


def traced_round(tracing, tmp_path, monkeypatch, name):
    """The per-layer metrics of round 0 of workload ``name`` (seed 1) under
    the tracer; every op of the round must run and none may fail."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # the module's dataclasses look themselves up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name](1, tmp_path)
    calls = workload.round(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [workload.execute(call, tracer) for call in calls]
    finally:
        tracer.uninstall()
    ops = sum(len(result.ops) for result in results)
    assert ops == sum(call.draws for call in calls)
    assert not any(result.failures for result in results)
    return tracer.per_layer(ops, [workload.checks], 1.0, 0.0)


def test_traced_wc_sweep_round_builds_no_series(tracing, tmp_path, monkeypatch):
    # every draw builds its pair once, and no series product is taken, so a
    # change that builds the weight's Taylor series again shows here
    metrics = traced_round(tracing, tmp_path, monkeypatch, "wc-sweep")
    assert metrics["series.mul.calls"]["value"] == 0
    assert metrics["runner.make_pair.calls"]["value"] == 1


def test_traced_scalar_sweep_round_builds_one_matrix(tracing, tmp_path, monkeypatch):
    # the one workload whose ops build an operator matrix (for adjoint-kernel),
    # so the build hook, which reads the pair's series, its map, n and the
    # space, runs here; the kernel points go through one product with it,
    # not through per-point applications, and the kernel-norm balance reads
    # the normality Grams, not the adaptive kernel-norm series
    metrics = traced_round(tracing, tmp_path, monkeypatch, "scalar-sweep")
    assert metrics["matrices.build.calls"]["value"] == 1
    assert metrics["matrices.apply.calls"]["value"] == 0
    assert metrics["bergman.kernel_norm_sq.terms"]["value"] == 0
    assert metrics["runner.make_pair.calls"]["value"] == 1
