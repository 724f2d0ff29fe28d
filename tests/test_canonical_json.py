"""``runner.canonical_json`` writes the bytes of the ``json.dumps`` call it
replaces, and refuses what that call refuses."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cswcd.errors import ConfigError
from cswcd.runner import (
    canonical_json,
    check_report_document,
    parse_config,
    run,
    sweep,
    sweep_report_document,
)

FIXTURES = Path(__file__).parent / "fixtures" / "pinned"


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
                      allow_nan=False) + "\n"


CHECK_DOC = {
    "space": {"alpha": 0.5, "n": 1, "N": 24},
    "symbols": {"family": "j-symmetric", "a": [1.0, 0.2], "b": 0.3, "c": [0.2, -0.1]},
    "checks": ["J-symmetry", "adjoint-pair", "boundedness-grid"],
    "seed": 3,
}
SWEEP_DOC = {
    "space": {"alpha": 0.0, "n": 1, "N": 32},
    "symbols": {"family": "general"},
    "checks": ["normality-predicate", "adjoint-pair"],
    "seed": 4,
}


def documents():
    """Every pinned fixture, a check and a sweep document, and a ConfigError's."""
    docs = [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(FIXTURES.glob("*.json"))]
    config = parse_config(CHECK_DOC)
    docs.append(check_report_document(config, run(config)))
    config = parse_config(SWEEP_DOC, require_concrete=False)
    docs.append(sweep_report_document(config, sweep(config, 3, 4), 3, 4))
    with pytest.raises(ConfigError) as info:
        parse_config({**CHECK_DOC, "checks": ["no-such-check"]})
    docs.append({"error": str(info.value), "path": info.value.path})
    return docs


def test_documents_match_json_dumps():
    docs = documents()
    assert len(docs) == len(list(FIXTURES.glob("*.json"))) + 3
    for doc in docs:
        assert canonical_json(doc) == reference(doc)


def test_fixture_bytes_are_canonical():
    # each pinned report is the writer's text of its own JSON
    for path in FIXTURES.glob("*.json"):
        text = path.read_text(encoding="utf-8")
        assert canonical_json(json.loads(text)) == text, path.name


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                               -1.7976931348623157e308, 1e16, 1e-7, 0.1])
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | EDGE_FLOATS
INTS = st.integers(min_value=-2**80, max_value=2**80) | st.just(2**70) | st.just(-2**70)
# every code point, lone surrogates included; quotes, backslashes and control
# characters drawn often
TEXT = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\n\t\x00\x1f\x7f𐏿'),
               max_size=12)
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert canonical_json(value) == reference(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.inf],
                                   {"a": {"b": -math.inf}}, {math.nan: 1}])
def test_non_finite_numbers_raise_value_error(value):
    with pytest.raises(ValueError) as ours:
        canonical_json(value)
    with pytest.raises(ValueError) as theirs:
        reference(value)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("value", [1j, np.int64(3), [np.int64(3)], {"a": 2 + 1j},
                                   {(1, 2): 3}, {"a": {1, 2}}])
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError) as ours:
        canonical_json(value)
    with pytest.raises(TypeError) as theirs:
        reference(value)
    assert str(ours.value) == str(theirs.value)


def test_scalar_keys_and_float_subclasses():
    for value in ({1: "a", 2: "b"}, {0.5: 1, -0.0: 2}, {True: 1}, {None: [()]},
                  [np.float64(0.1), np.float64(-0.0)], np.float64(1e300)):
        assert canonical_json(value) == reference(value)
