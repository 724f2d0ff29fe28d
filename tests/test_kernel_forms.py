"""The kernel forms that read a conjugation's cached values at KERNEL_POINTS
give the bits of the forms that computed them on every call
(``kernel_forms_reference``), and the parser's fast path for [re, im] pairs
gives what the checked path gives.

Bit equality is asked of every defect on 1,000 seeded draws of each
sweepable family, under plain-J and under the conjugation that the
family's ``auto`` resolves to.
"""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

import kernel_forms_reference as ref
from cswcd import runner
from cswcd.bergman import SpaceParams
from cswcd.conjugations import (
    KERNEL_POINTS,
    kernel_axioms_defect,
    kernel_companion_defect,
    kernel_hermitian_defect,
    kernel_image,
    kernel_symmetry_defect,
    make_J,
    make_wc_J,
)
from cswcd.errors import ConfigError, UnboundedSymbolError
from cswcd.matrices import relative_defect
from cswcd.rng import SplitMix64
from cswcd.runner import (
    DEFAULT_KERNEL_POINTS,
    SWEEPABLE_FAMILIES,
    RunConfig,
    draw_symbols,
    parse_config,
    run,
)
from cswcd.symbols import lft_inverse

DRAWS = 1000
# (alpha, n) of the draws, taken in turn
SHAPES = ((0.0, 1), (0.5, 1), (3.0, 2), (0.5, 3))
# the kinds of conjugation that each family's draws are checked under
KINDS = {"wc-conjugated": {"plain-J", "wc-J"}, "rotation-conjugated": {"plain-J", "rotation-J"},
         "general": {"plain-J", "rotation-J"}, "self-adjoint": {"plain-J", "rotation-J"}}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def drawn_configs(family: str):
    rng = SplitMix64(2700 + SWEEPABLE_FAMILIES.index(family))
    for i in range(DRAWS):
        alpha, n = SHAPES[i % len(SHAPES)]
        symbols = draw_symbols({"family": family}, rng)
        yield RunConfig(space=SpaceParams(alpha, n, 16), symbols=symbols,
                        kernel_points=DEFAULT_KERNEL_POINTS, checks=(), tolerances={}, seed=0)


@pytest.mark.parametrize("family", SWEEPABLE_FAMILIES)
def test_defects_equal_the_reference_bit_for_bit(family):
    kinds = set()
    for config in drawn_configs(family):
        pair, alpha, psi_u = config.pair, config.space.alpha, config.kernel_weights
        for C in (make_J(alpha), config.conjugation):
            kinds.add(C.kind)
            B = ref.kernel_symmetry_form(pair, C, psi_u)
            assert bits(kernel_symmetry_defect(pair, C, psi_u)) \
                == bits(ref.relative_asymmetry(B, B.T))
            assert bits(kernel_axioms_defect(C)) == bits(ref.kernel_axioms_defect(C))
        A = ref.kernel_hermitian_form(pair, alpha, psi_u)
        assert bits(kernel_hermitian_defect(pair, alpha, psi_u)) \
            == bits(ref.relative_asymmetry(A, A.conj().T))
        try:
            companion = kernel_companion_defect(pair.phi, pair.n, alpha)
        except UnboundedSymbolError:
            continue
        A, B = ref.kernel_companion_forms(pair.phi, pair.n, alpha)
        assert bits(companion) == bits(ref.relative_asymmetry(B.conj().T, A))
    assert kinds == KINDS.get(family, {"plain-J"})


def test_kernel_image_equals_the_reference():
    C = make_wc_J(0.4 - 0.2j, np.exp(0.7j), 1.5)
    z = np.conj(ref._lft_values(C.phi, np.array(KERNEL_POINTS, dtype=complex)))
    for got, want in zip(kernel_image(C, z), ref.kernel_image(C, z)):
        assert got.tobytes() == want.tobytes()


def test_underflowed_weight_keeps_the_axioms_defect_nan():
    # k = (1 - 0.99^2)^201 underflows to 0 at alpha 400
    C = make_wc_J(0.99, 1.0, 400.0)
    assert C.weight[0] == 0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        assert math.isnan(kernel_axioms_defect(C))
        assert math.isnan(ref.kernel_axioms_defect(C))
    doc = {"space": {"alpha": 400.0, "n": 1, "N": 32},
           "symbols": {"family": "wc-conjugated", "a": 1.0, "b": 0.3, "c": 0.15, "p": 0.99},
           "checks": ["conjugation-axioms"]}
    (report,) = run(parse_config(doc))
    assert (report.status, report.defect) == ("unverified", None)
    assert report.provenance == "non-finite-defect; kernel-conjugation-axioms; kind=wc-J"


def test_replaced_conjugation_reads_its_own_cached_values():
    u = np.array(KERNEL_POINTS, dtype=complex)
    C = make_wc_J(0.3 + 0.1j, 1j, 0.5)
    cached = (C.phi_u, C.weight_u, C.inverse)
    k, q = C.weight
    scaled = replace(C, weight=(1.001 * k, q))
    assert scaled.weight_u.tobytes() == ref.conjugation_weight(scaled, u).tobytes()
    assert not np.array_equal(scaled.weight_u, C.weight_u)
    assert kernel_axioms_defect(scaled) == ref.kernel_axioms_defect(scaled) > 1e-3
    moved = replace(C, phi=replace(C.phi, a=1.001 * C.phi.a))
    assert moved.phi_u.tobytes() == ref._lft_values(moved.phi, u).tobytes()
    assert moved.inverse == lft_inverse(moved.phi) != C.inverse
    assert kernel_axioms_defect(moved) == ref.kernel_axioms_defect(moved) > 1e-3
    # the source keeps what it made, and its defect
    assert (C.phi_u, C.weight_u, C.inverse) == cached
    assert all(a is b for a, b in zip((C.phi_u, C.weight_u, C.inverse), cached))
    assert kernel_axioms_defect(C) == ref.kernel_axioms_defect(C) < 1e-13


def test_cached_values_are_read_only():
    C = make_wc_J(0.3 + 0.1j, 1j, 0.5)
    for arr in (C.phi_u, C.weight_u):
        with pytest.raises(ValueError):
            arr[0] = 0


def old_complex_value(value, path: str) -> complex:
    """``runner._complex_value`` before its fast path for [re, im] floats."""
    if isinstance(value, (int, float)):
        value = [value, 0.0]
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(path, "expected a number or a two-element [re, im] list")
    return complex(*(runner._number(float, v, path) for v in value))


class Flt(float):
    pass


COMPLEX_INPUTS = [
    [0.3, -0.1], [-0.0, 0.0], [0.0, -0.0], [5e-324, -1.7976931348623157e308],
    [1, 2], [1, 0.5], [0.5, 1], 3, 0, -2.5, 1e-300, -0.0,
    True, False, [True, 0.0], [0.0, False], [1.0, True],
    "0.3", ["0.3", 0.1], [0.1, None], None, {"re": 1}, (0.1, 0.2),
    [1], [1.0], [], [1, 2, 3], [0.1, 0.2, 0.3], [[0.1], 0.2],
    json.loads("1e400"), json.loads("-1e400"), json.loads("[1e400, 0.0]"),
    json.loads("[0.0, -1e400]"), [float("nan"), 0.0], [0.0, float("nan")],
    10**400, [10**400, 0.0], [0.0, -(10**400)],
    Flt(0.5), [Flt(0.5), 0.25], [0.25, Flt(0.5)],
]


@pytest.mark.parametrize("value", COMPLEX_INPUTS)
def test_complex_value_matches_the_checked_path(value):
    def outcome(fn):
        try:
            z = fn(value, "symbols.b")
        except ConfigError as exc:
            return ("error", exc.path, str(exc))
        return ("value", type(z), bits(z.real), bits(z.imag))

    assert outcome(runner._complex_value) == outcome(old_complex_value)


def test_relative_defect_of_an_all_zero_reference_is_nan():
    # an all-zero reference, where every weight value underflowed, carries
    # no evidence; a nonzero one gives max |A - B| / max |A|
    zero = np.zeros((8, 8), dtype=complex)
    assert math.isnan(relative_defect(zero, zero))
    assert math.isnan(relative_defect(zero, np.ones((8, 8))))
    A = np.array([[1.0, 2.0 + 1.0j], [3.0, -4.0j]])
    assert relative_defect(A, A.T) == abs(1.0 - 1.0j) / 4.0
    assert relative_defect(A, A.T) == ref.relative_asymmetry(A, A.T)
