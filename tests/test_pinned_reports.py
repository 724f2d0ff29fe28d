"""Byte-for-byte comparison of check and sweep reports against pinned fixtures.

The reports are made in a subprocess at one and at two BLAS threads, and
both runs must give the fixtures' bytes: no report may depend on the BLAS
thread count. The fixtures are valid for the BLAS build recorded in their
manifest.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pinned_reports import THREAD_VARS, blas_record, cases, leaf_diffs

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
