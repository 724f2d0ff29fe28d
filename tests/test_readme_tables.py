"""The README's tables of checks and families say what the records say.

``runner.CHECK_RECORDS`` holds each check's default tolerance and
``runner.FAMILIES`` each family's symbol fields and drawn ranges. The
README repeats them in four places: the default-tolerance table and the
no-tolerance sentence under "What it computes", the "Registered checks"
list and the family tables under Configuration and Sweeps. A record that
changes without its row, or a row without its record, fails here. So does
the sentence that gives the lattice of the two grid checks, held to
``diagnostics.GRID_RADII`` and ``GRID_ANGLES``.
"""

import ast
import re
from pathlib import Path

import pytest

from cswcd import defaults, diagnostics, runner

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
RUNNER = ROOT / "src" / "cswcd" / "runner.py"


def table_rows(header: str) -> list:
    """(first cell, rest of the row) of each row of the README table whose
    header line starts with ``header``."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if line.lstrip().startswith(header))
    rows = []
    for line in lines[start + 2:]:
        if not line.lstrip().startswith("|"):
            break
        first, rest = line.strip()[1:].split("|", 1)
        rows.append((first.strip(), rest))
    return rows


def ticked(text: str, pattern: str = r"[^`]+") -> list:
    return re.findall(rf"`({pattern})`", text)


def record_tolerance_names() -> dict:
    """check name -> the name of the constant that its ``Check(...)`` record
    in ``runner.py`` passes as ``tol``, or None."""
    out = {}
    for node in ast.walk(ast.parse(RUNNER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check":
            tol = node.args[3] if len(node.args) > 3 else next(
                (k.value for k in node.keywords if k.arg == "tol"), None)
            out[node.args[0].value] = tol.id if isinstance(tol, ast.Name) else None
    return out


def test_the_tolerance_table_matches_the_records():
    names = record_tolerance_names()
    assert names.keys() == runner.CHECK_RECORDS.keys()
    listed = set()
    for first, rest in table_rows("| check | default tolerance |"):
        tolerance = rest.split("|", 1)[0]
        value, constant = tolerance.split()[0], ticked(tolerance, r"TOL_\w+")[0]
        for name in ticked(first):
            assert names[name] == constant, name
            assert runner.CHECK_RECORDS[name].tol == getattr(defaults, constant) \
                == float(value), name
            listed.add(name)
    sentence = re.search(r"((?:`[\w-]+`,? (?:and )?)+)have no\s+tolerance", README).group(1)
    untolerated = set(ticked(sentence))
    assert untolerated == {name for name, check in runner.CHECK_RECORDS.items()
                           if check.tol is None}
    assert listed | untolerated == set(runner.CHECKS) and not listed & untolerated


def test_the_registered_checks_are_the_records():
    text = re.search(r"Registered checks: (.*?)\.\n", README, re.DOTALL).group(1)
    assert ticked(text) == list(runner.CHECKS) == list(runner.CHECK_RECORDS)


@pytest.mark.parametrize("header, read, expected", [
    ("| family                | parameters", lambda rest: tuple(ticked(rest, r"[a-z_]+")),
     lambda family: family.fields),
    ("| family                | ranges drawn", lambda rest: tuple(ticked(rest, r"abs_\w+")),
     lambda family: family.ranges or ()),
], ids=["fields", "ranges"])
def test_the_family_tables_match_the_records(header, read, expected):
    rows = table_rows(header)
    assert [ticked(first)[0] for first, _ in rows] == list(runner.FAMILIES)
    for first, rest in rows:
        family = runner.FAMILIES[ticked(first)[0]]
        assert read(rest) == expected(family), first


def test_the_ranges_table_names_the_families_that_cannot_be_swept():
    rows = table_rows("| family                | ranges drawn")
    unswept = [ticked(first)[0] for first, rest in rows if "cannot be swept" in rest]
    assert unswept == [name for name in runner.FAMILIES if name not in runner.SWEEPABLE_FAMILIES]


def test_the_grid_sentence_matches_the_lattice():
    match = re.search(r"grid `w = r e\^\(2 pi i k / (\d+)\)` at the\s+radii `([^`]+)` "
                      r"\((\d+) points\)", README)
    angles, radii, points = match.groups()
    assert int(angles) == diagnostics.GRID_ANGLES
    assert tuple(float(r) for r in radii.split(", ")) == diagnostics.GRID_RADII
    assert int(points) == len(diagnostics.GRID_RADII) * diagnostics.GRID_ANGLES
