"""Each family draws by its record as the one-function draw did.

``tests/draw_reference.py`` keeps the draw that tested each family's name.
On 1,000 seeded draws of each sweepable family, at the default ranges and
with each radius that the family draws narrowed in turn, the record's draw
gives the reference's dicts: the same fields, in the same order, with the
same floats, so every seeded sweep draws the parameters it drew before.
"""

import pytest

from cswcd import runner
from cswcd.rng import SplitMix64
from cswcd.runner import FAMILIES, SWEEPABLE_FAMILIES, draw_symbols
from draw_reference import draw_reference

DRAWS = 1000
# a narrow range inside each default, with general's abs_c across its smallest |c|
NARROW = {"abs_a": [0.9, 1.1], "abs_b": [0.25, 0.3], "abs_c": [0.02, 0.2],
          "abs_p": [0.4, 0.45]}


def range_cases():
    for family in SWEEPABLE_FAMILIES:
        yield family, None
        for key in FAMILIES[family].ranges:
            yield family, key


@pytest.mark.parametrize("family, narrowed", list(range_cases()),
                         ids=[f"{f}-{k or 'default'}" for f, k in range_cases()])
def test_the_record_draws_as_the_reference(family, narrowed):
    symbols = {"family": family, **({"ranges": {narrowed: NARROW[narrowed]}} if narrowed else {})}
    seed = 3100 + SWEEPABLE_FAMILIES.index(family)
    ours, theirs = SplitMix64(seed), SplitMix64(seed)
    for i in range(DRAWS):
        got, want = draw_symbols(symbols, ours), draw_reference(symbols, theirs)
        assert repr(got) == repr(want), i
    assert ours.next_u64() == theirs.next_u64()


def test_the_narrow_ranges_are_admitted():
    for family, narrowed in range_cases():
        if narrowed:
            runner.parse_config({"space": {"alpha": 0.0, "n": 1},
                                 "symbols": {"family": family,
                                             "ranges": {narrowed: NARROW[narrowed]}}},
                                require_concrete=False)


def test_sweepable_and_predicted_families_keep_their_order():
    assert SWEEPABLE_FAMILIES == ("j-symmetric", "general", "self-adjoint", "normal-origin",
                                  "unitary", "wc-conjugated", "rotation-conjugated")
    for name in ("normality-predicate", "kernel-norm-balance"):
        assert runner.CHECK_RECORDS[name].families == ("general", "self-adjoint")
