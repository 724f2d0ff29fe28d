"""Every function of the package is reached from the CLI, or is listed in
UNREACHED.

A fresh interpreter runs every pinned case (``pinned_reports.cases()``), one
``grid``, one ``export-matrix``, one ``check --timings`` and two config
errors (an unknown check, a non-finite number) through ``cswcd.cli.main``,
with ``sys.setprofile`` recording each function of ``src/cswcd`` that is
called. A fresh process keeps the
``lru_cache`` tables that other tests have filled from hiding a call. The
functions that an ``ast`` walk of the package defines and that were never
called must be exactly UNREACHED: the references that
``perfbench/tracing.py`` traces, and the helpers that only they call. A new
function that nothing reaches fails the test, and so does a listed one that
the CLI now reaches or that is gone.

    PYTHONPATH=src:tests python tests/test_reach.py

prints the functions that the runs called, as JSON.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cswcd"

# (module, qualified name): the traced references, then their helpers
UNREACHED = {
    ("series", "series_mul"), ("series", "series_eval"), ("series", "series_power"),
    ("symbols", "lft_to_series"), ("symbols", "rational_symbol_series"),
    ("bergman", "kernel"), ("bergman", "kernel_norm_sq"),
    ("matrices", "build_weighted_composition"), ("matrices", "apply"),
    ("matrices", "adjoint_matrix"), ("matrices", "adjoint_on_kernel"),
    ("matrices", "cowen_adjoint_pair"),
    ("conjugations", "extended_space"), ("conjugations", "conjugated_adjoint"),
    ("conjugations", "is_C_symmetric"), ("conjugations", "involution_defect"),
    ("conjugations", "isometry_defect"),
    ("diagnostics", "is_normal"), ("diagnostics", "is_hermitian"),
    # helpers
    ("series", "one_series"), ("series", "monomial"), ("series", "_check_same_order"),
    ("series", "series_add"), ("series", "series_scale"),
    ("series", "series_conjugate_reflect"),
    ("bergman", "inner_product"), ("bergman", "space_norm"),
    ("matrices", "OperatorMatrix.dim"), ("matrices", "frobenius_norm"),
    ("conjugations", "AntilinearConjugation.exact"), ("conjugations", "unitary_part"),
    ("conjugations", "conjugation_apply"),
}

J_SYMMETRIC = {
    "space": {"alpha": 0.5, "n": 1, "N": 16},
    "symbols": {"family": "j-symmetric", "a": 1.0, "b": 0.3, "c": 0.2},
    "seed": 1,
}
# (subcommand, config, arguments after the config path, expected exit code)
EXTRA_RUNS = (
    ("grid", {**J_SYMMETRIC, "checks": ["boundedness-grid", "nevanlinna-grid"]},
     ["--out", "{tmp}/grids"], 0),
    ("export-matrix", {**J_SYMMETRIC, "checks": []}, ["--out", "{tmp}/matrix.csv"], 0),
    ("check", {**J_SYMMETRIC, "checks": ["J-symmetry"]},
     ["--out", "{tmp}/report.json", "--timings", "{tmp}/timings.json"], 0),
    ("check", {**J_SYMMETRIC, "checks": ["no-such-check"]}, [], 2),
    ("check", {**J_SYMMETRIC, "checks": ["J-symmetry"], "note": float("nan")}, [], 2),
)


def defined_functions() -> set:
    """(module, qualified name) of every function and method in the package,
    nested ones included, as ``co_qualname`` spells them."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    out.add((path.stem, prefix + child.name))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def record_calls() -> dict:
    """Run the pinned cases and EXTRA_RUNS through the CLI under a profile
    hook; the functions called and the exit codes of EXTRA_RUNS."""
    import pinned_reports
    from cswcd.cli import main

    package = str(PACKAGE)
    called = set()

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(package) \
                and not code.co_name.startswith("<"):
            called.add((Path(code.co_filename).stem, code.co_qualname))

    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        runs = [(name.split("-", 1)[0], doc, [*extra, "--out", f"{tmp}/report.json"], None)
                for name, doc, extra in pinned_reports.cases()]
        runs += [(mode, doc, [arg.format(tmp=tmp) for arg in extra], code)
                 for mode, doc, extra, code in EXTRA_RUNS]
        sys.setprofile(hook)
        try:
            for mode, doc, extra, expected in runs:
                config.write_text(json.dumps(doc), encoding="utf-8")
                code = main([mode, str(config), *extra])
                if expected is not None:
                    codes.append(code)
        finally:
            sys.setprofile(None)
    return {"called": sorted(called), "codes": codes}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="reads code.co_qualname")
def test_unreached_functions_are_the_listed_references(tmp_path):
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(PACKAGE.parent), str(tests), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                          text=True, timeout=300, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [code for *_, code in EXTRA_RUNS]
    unreached = defined_functions() - {tuple(name) for name in result["called"]}
    assert sorted(unreached - UNREACHED) == [], "new functions that no run reaches"
    assert sorted(UNREACHED - unreached) == [], "listed functions that a run reaches or that are gone"


if __name__ == "__main__":
    json.dump(record_calls(), sys.stdout)
