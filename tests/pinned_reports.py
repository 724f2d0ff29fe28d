"""Pinned check and sweep configurations, and a driver that writes their reports.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python tests/pinned_reports.py OUT_DIR

runs every case through ``cswcd.cli.main`` in one process. It writes the
report of each case to ``OUT_DIR/<case>.json`` and the exit codes, the BLAS
build and the thread settings to ``OUT_DIR/manifest.json``. The reports must
not depend on the BLAS thread count; the tests run this script at one and at
two threads and compare both runs with the fixtures.

``test_pinned_reports.py`` compares a fresh run against ``fixtures/pinned``,
which holds the output of this script for the commit that the fixtures pin.
Every case is in scope for its checks, and all but one are inside their
gates: ``check-near-balance-bound`` pins the operator gate's refusal, which
``kernel-norm-balance`` asks before the kernel point gate of the normality
Grams. The case keeps the name it had when the balance had a gate of its own.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
MISSING = "<missing>"

CHECKS = (
    "J-symmetry", "C-symmetry", "self-adjointness", "normality", "adjoint-kernel",
    "adjoint-pair", "necessary-conditions", "conjugation-axioms",
    "boundedness-grid", "nevanlinna-grid",
)
PREDICATES = ("normality-predicate", "kernel-norm-balance")

# one family per conjugation kind that 'auto' resolves to
KIND_CONFIGS = {
    "plain-J": {
        "space": {"alpha": 0.5, "n": 1, "N": 40},
        "symbols": {"family": "j-symmetric", "a": [1.0, 0.2], "b": [0.3, 0.1],
                    "c": [0.2, -0.1]},
    },
    "rotation-J": {
        "space": {"alpha": 0.0, "n": 2, "N": 40},
        "symbols": {"family": "rotation-conjugated", "a": 0.9, "b": [0.25, -0.1],
                    "c": [0.15, 0.1], "mu": [0.6, 0.8], "lam": [0.0, 1.0]},
    },
    "wc-J": {
        "space": {"alpha": 0.5, "n": 1, "N": 32},
        "symbols": {"family": "wc-conjugated", "a": 1.0, "b": [0.3, 0.1],
                    "c": [0.15, 0.0], "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]},
    },
}

# the descriptor that 'auto' resolves to for each of KIND_CONFIGS, written
# out; each report must equal its 'auto' twin
EXPLICIT_KINDS = {
    "plain-J": {"kind": "plain-J"},
    "rotation-J": {"kind": "rotation-J", "mu": [0.6, 0.8], "lambda": [0.0, 1.0]},
    "wc-J": {"kind": "wc-J", "p": [0.3, 0.1], "lambda_u": [0.0, 1.0]},
}

# the j-symmetric pair under a rotation-J with lambda = i, which it is not
# symmetric for: C-symmetry fails, and the conjugation axioms pass
J_SYMMETRIC_ROTATED = {
    **KIND_CONFIGS["plain-J"],
    "conjugation": {"kind": "rotation-J", "mu": 1.0, "lambda": [0.0, 1.0]},
    "checks": ["C-symmetry", "conjugation-axioms"],
    "seed": 3,
}

# the predicate checks accept the conjugated-denominator families only
PREDICATE_CONFIGS = {
    "plain-J-general": {
        "space": {"alpha": 0.0, "n": 1, "N": 40},
        "symbols": {"family": "general", "a": [0.8, 0.2], "b": [0.3, 0.2], "c": 0.0},
    },
    "rotation-J-general": {
        "space": {"alpha": 0.5, "n": 2, "N": 40},
        "symbols": {"family": "general", "a": 1.0, "b": [0.2, 0.3], "c": [0.2, 0.1]},
    },
    "rotation-J-self-adjoint": {
        "space": {"alpha": 1.0, "n": 1, "N": 40},
        "symbols": {"family": "self-adjoint", "a": -0.7, "b": 0.35, "c": [-0.1, 0.25]},
    },
}

# sup|phi| = 1.883, so the operator gate refuses before the Gram points are
# gated: unverified, exit 3
NEAR_BALANCE_BOUND = {
    "space": {"alpha": 0.0, "n": 1, "N": 40},
    "symbols": {"family": "general", "a": 1.0, "b": 0.6, "c": 0.55},
    "checks": ["kernel-norm-balance"],
    "seed": 3,
}

# the one family whose normality Gram G_T still sums a Taylor series
EXPLICIT_NORMALITY = {
    "space": {"alpha": 0.5, "n": 1, "N": 32},
    "symbols": {"family": "explicit", "psi": [0.0, 1.0, [0.2, 0.1]],
                "phi": [[0.5, 0.1], 0.1, -0.2, 1.0], "bounded": True},
    "checks": ["normality"],
    "seed": 3,
}

# wide |c| ranges make the kernel-point gate reject some draws
WIDE_C = {"abs_c": [0.6, 0.9]}
SWEEPS = {
    "j-symmetric": ({"alpha": 0.0, "n": 1, "N": 32}, WIDE_C,
                    ["J-symmetry", "adjoint-kernel", "adjoint-pair", "necessary-conditions"]),
    "general": ({"alpha": 0.0, "n": 1, "N": 32}, None,
                ["adjoint-kernel", "normality-predicate", "kernel-norm-balance"]),
    "self-adjoint": ({"alpha": 0.5, "n": 2, "N": 32}, None,
                     ["self-adjointness", "C-symmetry", "normality", "kernel-norm-balance"]),
    "normal-origin": ({"alpha": 1.0, "n": 1, "N": 32}, None, ["J-symmetry", "normality"]),
    "unitary": ({"alpha": 0.0, "n": 1, "N": 32}, None, ["J-symmetry", "necessary-conditions"]),
    "wc-conjugated": ({"alpha": 0.5, "n": 2, "N": 32}, None,
                      ["C-symmetry", "conjugation-axioms"]),
    "rotation-conjugated": ({"alpha": 0.0, "n": 1, "N": 32}, WIDE_C,
                            ["C-symmetry", "adjoint-kernel", "boundedness-grid",
                             "nevanlinna-grid"]),
}


def cases() -> list:
    """(case name, config document, extra CLI arguments) for every pinned report."""
    out = []
    for kind, base in KIND_CONFIGS.items():
        for check in CHECKS:
            out.append((f"check-{kind}-{check}", {**base, "checks": [check], "seed": 3}, []))
        out.append((f"check-{kind}-all", {**base, "checks": list(CHECKS), "seed": 3}, []))
        out.append((f"check-{kind}-explicit-all", {**base, "conjugation": EXPLICIT_KINDS[kind],
                                                   "checks": list(CHECKS), "seed": 3}, []))
    out.append(("check-j-symmetric-rotation-J", J_SYMMETRIC_ROTATED, []))
    for label, base in PREDICATE_CONFIGS.items():
        for check in PREDICATES:
            out.append((f"check-{label}-{check}", {**base, "checks": [check], "seed": 3}, []))
        out.append((f"check-{label}-all",
                    {**base, "checks": ["normality", *PREDICATES, "C-symmetry"], "seed": 3}, []))
    out.append(("check-near-balance-bound", NEAR_BALANCE_BOUND, []))
    out.append(("check-explicit-normality", EXPLICIT_NORMALITY, []))
    for family, (space, ranges, checks) in SWEEPS.items():
        symbols = {"family": family, **({"ranges": ranges} if ranges else {})}
        doc = {"space": space, "symbols": symbols, "checks": checks, "seed": 5}
        out.append((f"sweep-{family}", doc, ["--draws", "8", "--seed", "17"]))
    return out


def leaf_diffs(pinned, fresh, path: str = "$") -> list:
    """``path: pinned -> fresh`` for every JSON leaf where two parsed reports
    differ; a key or list entry present on one side only is a leaf too."""
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        return [
            line
            for key in sorted(pinned.keys() | fresh.keys())
            for line in leaf_diffs(pinned.get(key, MISSING), fresh.get(key, MISSING),
                                   f"{path}.{key}")
        ]
    if isinstance(pinned, list) and isinstance(fresh, list):
        pad = max(len(pinned), len(fresh))
        pinned, fresh = (v + [MISSING] * (pad - len(v)) for v in (pinned, fresh))
        return [
            line
            for i, (a, b) in enumerate(zip(pinned, fresh))
            for line in leaf_diffs(a, b, f"{path}[{i}]")
        ]
    if type(pinned) is type(fresh) and pinned == fresh:
        return []
    return [f"{path}: {pinned!r} \u2192 {fresh!r}"]


def blas_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
    }


def write_reports(out_dir: Path) -> None:
    from cswcd.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    exit_codes = {}
    for name, doc, extra in cases():
        config = out_dir / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        mode = name.split("-", 1)[0]
        report = out_dir / f"{name}.json"
        exit_codes[name] = main([mode, str(config), *extra, "--out", str(report)])
    config.unlink()
    manifest = {
        **blas_record(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "exit_codes": exit_codes,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_reports(Path(sys.argv[1]))
