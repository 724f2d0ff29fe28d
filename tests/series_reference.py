"""The families' old weight series: products of truncated series.

Before the weights were carried in closed form, each family built its
weight as a Taylor series at the truncation N; the weighted-composition
transport multiplied the series of (1 - conj(p) z)^-(alpha+2) by that of
(1 - conj(p) z)^(alpha+2) in floating point. ``reference_weight_series``
rebuilds that series from a family's name and parameters with
``symbols.rational_symbol_series``, for the tests that compare the closed
form with it. It forms the unitary weight constant
k = lambda_u (1 - |p|^2)^((alpha+2)/2) itself, so that it stays independent
of ``symbols.unitary_parameters``.
"""

import math

import numpy as np

from cswcd.series import expand_rational_kernel, monomial, series_mul, series_scale
from cswcd.symbols import IDENTITY_MAP, LinearFractionalMap, rational_symbol_series, rotation_map


def unitary_weight_series(p, lambda_u, alpha, N):
    """k (1 - conj(p) z)^-(alpha+2) at order N, with k formed directly."""
    k = lambda_u * (1 - abs(p) ** 2) ** ((alpha + 2) / 2)
    return series_scale(expand_rational_kernel(alpha + 2, np.conj(p), N), k)


def reference_weight_series(family, params, n, N):
    """The weight series at order N of the family's pair of order n, built as
    a product of binomial series, as the families built it before the closed
    form. ``params`` holds the family's complex fields and alpha."""
    if family == "normal-origin":
        return monomial(n, N, params["a"])
    if family == "unitary":
        return unitary_weight_series(params["p"], params["lambda_u"], params["alpha"], N)
    a, c, alpha = params["a"], params["c"], params["alpha"]
    scale, s = a / math.factorial(n), n + alpha + 2
    if family in ("general", "self-adjoint"):
        return rational_symbol_series(scale, n, np.conj(c), s, IDENTITY_MAP, N)
    if family == "j-symmetric":
        return rational_symbol_series(scale, n, c, s, IDENTITY_MAP, N)
    if family == "rotation-conjugated":
        return rational_symbol_series(params["mu"] * scale, n, c, s,
                                      rotation_map(params["lam"]), N)
    if family == "wc-conjugated":
        p, pbar = params["p"], np.conj(params["p"])
        phi_p = LinearFractionalMap(-pbar / p, pbar, -pbar, 1.0)
        return series_mul(unitary_weight_series(p, params["lambda_u"], alpha, N),
                          rational_symbol_series(scale, n, c, s, phi_p, N))
    raise ValueError(f"no reference series for family {family!r}")
