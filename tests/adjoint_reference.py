"""The per-point reference for the adjoint identity on kernels.

The library takes every kernel point of ``adjoint-kernel`` in one pass
(``matrices.adjoint_on_kernels``). This module keeps the path that it
replaced: one point at a time, the conjugate-transpose copy of the operator
matrix applied to the kernel's Taylor series, against the closed form built
as a series. The tests compare the two.
"""

import numpy as np

from cswcd.bergman import kernel, space_norm
from cswcd.matrices import OperatorMatrix, adjoint_matrix, apply, kernel_point_gate
from cswcd.runner import _kernel_points
from cswcd.series import TruncatedSeries, series_add, series_eval, series_scale


def formula_side(M, pair, w):
    """conj(psi(w)) times the order-n kernel at phi(w), truncated at M's N;
    w must pass ``kernel_point_gate``."""
    space = M.space
    phi_w = kernel_point_gate(pair.phi, w)
    return series_scale(kernel(phi_w, pair.n, space.alpha, space.N),
                        np.conj(series_eval(pair.psi, w)))


def matrix_side_magnitude(M, w) -> float:
    """Space norm of |M|^T applied to |k_w|: the size of the terms that the
    matrix side sums, which bounds its rounding where they cancel."""
    space = M.space
    k_w = TruncatedSeries(np.abs(kernel(w, 0, space.alpha, space.N).coeffs))
    return space_norm(apply(OperatorMatrix(np.abs(M.entries).T, space), k_w), space.alpha)


def adjoint_on_kernel_reference(M, pair, w) -> float:
    """Space norm of the matrix side minus the closed form at the one point w."""
    space = M.space
    via_matrix = apply(adjoint_matrix(M), kernel(w, 0, space.alpha, space.N))
    via_formula = formula_side(M, pair, w)
    return space_norm(series_add(via_matrix, series_scale(via_formula, -1.0)), space.alpha)


def adjoint_kernel_measure(config) -> tuple:
    """The per-point form of the runner's ``adjoint-kernel`` measure: each
    point is gated, the first before the matrix is built, and the worst
    defect is reported."""
    worst = 0.0
    for w in _kernel_points(config.symbols):
        kernel_point_gate(config.pair.phi, w)
        worst = max(worst, adjoint_on_kernel_reference(config.matrix, config.pair, w))
    return worst, "adjoint-kernel-identity"
