"""The library's refusals that no CLI run reaches: each is called with the
argument that it refuses, and its error type and message are pinned."""

import numpy as np
import pytest

from cswcd.bergman import SpaceParams, kernel_norm_sq, kernel_table
from cswcd.conjugations import extended_space
from cswcd.diagnostics import _operator_kernel_sums, is_normal
from cswcd.errors import (DomainError, SingularityError, TruncationMismatchError,
                          UnboundedSymbolError)
from cswcd.matrices import OperatorMatrix, _build
from cswcd.series import TruncatedSeries, monomial, one_series, polynomial, series_power
from cswcd.symbols import (
    IDENTITY_MAP,
    LinearFractionalMap,
    RationalWeight,
    SymbolPair,
    family_conjugated,
    family_general,
    rational_symbol_series,
    transported_weight,
)

SPACE = SpaceParams(0.5, 1, 16)
# 1 - c z vanishes at z = 1 for c = 1
VANISHING_C = 1.0


def gram_kernel_sums(q):
    """T K_w as a kernel sum at one point w = 0.3 whose q is given; no config
    reaches |q| >= 1, since the operator gate keeps the root 1/q of
    1 - conj(w) phi outside the closed disk."""
    wbar = np.array([0.3])
    return _operator_kernel_sums(family_general(1.0, 0.3, 0.2, 1, 0.5, 16), 0.5, wbar,
                                 np.log(wbar), np.array([q]))


@pytest.mark.parametrize("call, kind, message", [
    (lambda: kernel_table([0.3], -1, 0.5, 8), DomainError,
     "derivative order m must be nonnegative"),
    (lambda: kernel_norm_sq(0.3, -1, 0.5), DomainError,
     "derivative order m must be nonnegative"),
    (lambda: gram_kernel_sums(1.2), UnboundedSymbolError,
     "normality Gram: 1 - conj(w) phi vanishes in the closed disk, |q| = 1.200000"),
    (lambda: gram_kernel_sums(1e300), UnboundedSymbolError,
     "normality Gram: 1 - conj(w) phi vanishes in the closed disk, |q| = 1.000000e+300"),
    (lambda: extended_space(SPACE, 1.0j), DomainError,
     "|p| must be < 1, got 1.000000"),
    (lambda: OperatorMatrix(np.zeros((2, 3)), SPACE), ValueError,
     "entries must be a square matrix"),
    (lambda: _build(polynomial([1.0], 8), IDENTITY_MAP, 1, SPACE), TruncationMismatchError,
     "weight truncation 8 does not match space truncation 16"),
    (lambda: TruncatedSeries([]), ValueError, "coeffs must be a nonempty 1-d sequence"),
    (lambda: monomial(5, 4), DomainError, "monomial degree 5 outside 0..4"),
    (lambda: monomial(-1, 4), DomainError, "monomial degree -1 outside 0..4"),
    (lambda: series_power(one_series(4), -1), DomainError,
     "power exponent must be nonnegative"),
    (lambda: RationalWeight([1.0], 0j, -1.0), DomainError,
     "weight exponent must be >= 0, got -1.0"),
    (lambda: SymbolPair(RationalWeight([1.0]), IDENTITY_MAP, -1, 4), DomainError,
     "order n must be nonnegative"),
    (lambda: rational_symbol_series(1.0, 1, 0.5, 3.5, LinearFractionalMap(1, 0, 2, 1), 8),
     SingularityError, "inner map pole inside or on the unit circle"),
    (lambda: rational_symbol_series(1.0, 1, VANISHING_C, 3.5, IDENTITY_MAP, 8), DomainError,
     "1 - c L(z) vanishes on the closed disk"),
    (lambda: transported_weight(1.0, 1, VANISHING_C, 0.5, 1.0, 0.0, IDENTITY_MAP),
     DomainError, "1 - c L(z) vanishes on the closed disk"),
    (lambda: family_conjugated(1.0, 0.3, 0.2, 1, 0.5, 16, mu=1.0), DomainError,
     "rotation case needs both mu and lam"),
], ids=["kernel-table-m", "kernel-norm-m", "gram-q-outside", "gram-q-huge",
        "extended-space-p", "matrix-not-square", "build-order", "empty-series",
        "monomial-above", "monomial-below", "power-exponent", "weight-exponent",
        "pair-order", "series-inner-pole", "series-vanishing", "transported-vanishing",
        "mu-without-lam"])
def test_refusal(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert (type(err.value), str(err.value)) == (kind, message)


def test_zero_matrix_is_normal():
    assert is_normal(OperatorMatrix(np.zeros((4, 4)), SPACE)) == 0.0
