"""Configuration-driven check runner: parse, run, sweep, report.

A run configuration is a single JSON document with the space parameters, a
symbol-family descriptor, an optional conjugation descriptor, the list of
check names and optional tolerance overrides. Complex values are encoded as
a number (real) or a two-element [re, im] list.

Reports are deterministic for a fixed (config, seed): wall-clock timings
are kept out of the serialized report and can be written to a sidecar.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import attrgetter

import numpy as np

from . import __version__
from .bergman import SpaceParams
from .conjugations import (
    AntilinearConjugation,
    kernel_axioms_defect,
    kernel_companion_defect,
    kernel_hermitian_defect,
    kernel_symmetry_defect,
    kernel_weight_values,
    make_J,
    make_rotation_J,
    make_wc_J,
)
from .defaults import (
    DEFAULT_N,
    MAX_WORK_DIM,
    TOL_ADJOINT_KERNEL,
    TOL_ADJOINT_PAIR,
    TOL_AXIOMS,
    TOL_EXACT,
    TOL_NORMALITY,
    TOL_PREDICATE,
)
from .diagnostics import (
    GRAM_POINTS,
    GridReport,
    boundedness_ratio_grid,
    kernel_balance_gate,
    necessary_conditions_check,
    nevanlinna_bound_grid,
    norm_defect_kernel_test,
    normality_gram_defect,
)
from .errors import ConfigError, DomainError, SingularityError, UnboundedSymbolError
from .matrices import OperatorMatrix, adjoint_on_kernels, build_wcd_matrix, kernel_point_gate
from .rng import SplitMix64
from .series import polynomial
from .symbols import (
    LinearFractionalMap,
    SymbolPair,
    _family_phi,
    bounded_sufficient,
    family_conjugated,
    family_general,
    family_j_symmetric,
    family_normal_origin,
    family_self_adjoint,
    require_pole_outside_disk,
    sup_norm_lft,
    unitary_symbols,
)

FAIL_THRESHOLD = 1e-3           # macroscopic defect certifying a structural failure
DEFAULT_KERNEL_POINTS = (0.4, 0.3j, -0.25)
BALANCE_POINTS = (0.5, 0.5j)
PREDICATE_CHECKS = ("normality-predicate", "kernel-norm-balance")
PREDICATE_FAMILIES = ("general", "self-adjoint")   # where the predicates are proved
# the fields each kind of conjugation descriptor admits besides "kind"
CONJUGATION_FIELDS = {"auto": (), "plain-J": (), "rotation-J": ("mu", "lambda"),
                      "wc-J": ("p", "lambda_u")}


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration and what its checks share, each built the
    first time asked.

    ``conjugation`` is made for the config's alpha from ``conjugation_doc``;
    it carries no truncation, and no check reads ``seed``. The pair carries
    its weight in closed form; its Taylor series is built only if a check
    reads it.
    """

    space: SpaceParams
    symbols: dict
    conjugation_doc: dict
    checks: tuple
    tolerances: dict
    seed: int
    raw: dict = field(default_factory=dict, repr=False)

    @cached_property
    def pair(self) -> SymbolPair:
        return make_pair(self.symbols, self.space)

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return build_wcd_matrix(self.pair, self.space)

    @cached_property
    def conjugation(self) -> AntilinearConjugation:
        return make_conjugation(resolve_conjugation_kind(self), self.space.alpha)

    @cached_property
    def kernel_weights(self) -> np.ndarray:
        """The weight at KERNEL_POINTS, read by the three kernel symmetry checks."""
        return kernel_weight_values(self.pair)

    @cached_property
    def gram_defect(self) -> float:
        """Kernel Gram defect of the operator, read by both normality checks."""
        return normality_gram_defect(self.pair, self.space.alpha)


@dataclass
class CheckReport:
    name: str
    status: str                  # pass | fail | unverified
    defect: float | None
    tolerance: float | None
    provenance: str
    wall_time: float | None = None

    def payload(self) -> dict:
        """Deterministic serialization; wall time stays out."""
        return {
            "name": self.name,
            "status": self.status,
            "defect": self.defect,
            "tolerance": self.tolerance,
            "provenance": self.provenance,
        }


def _complex_value(value, path: str) -> complex:
    if isinstance(value, (int, float)):
        value = [value, 0.0]
    if not (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        raise ConfigError(path, "expected a number or a two-element [re, im] list")
    return complex(*(_number(float, v, path) for v in value))


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return mapping[key]


def _number(kind, value, path: str):
    """kind(value) for kind int or float; a ConfigError at path if value is a
    boolean, or if kind(value) fails, would drop the fractional part of a
    float or gives a non-finite float."""
    if isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(path, f"expected an integer, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(path, f"expected a number, got {value!r}") from exc
    if kind is float and not math.isfinite(number):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return number


def _check_ranges(symbols: dict) -> None:
    """Sweep draw ranges are [lo, hi] with 0 <= lo <= hi (0 < lo outside
    ZERO_RADII), hi < 1 for the radius of a point in the open disk, and an
    abs_c that reaches GENERAL_MIN_ABS_C for the general family."""
    ranges = symbols.get("ranges", {})
    if not isinstance(ranges, dict):
        raise ConfigError("symbols.ranges", "expected an object of radius -> [lo, hi]")
    for key, value in ranges.items():
        path = f"symbols.ranges.{key}"
        if key not in RANGE_DEFAULTS:
            raise ConfigError(path, f"unknown range; known: {', '.join(RANGE_DEFAULTS)}")
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(path, "expected two numbers [lo, hi]")
        lo, hi = (_number(float, v, path) for v in value)
        if not 0 <= lo <= hi:
            raise ConfigError(path, f"expected 0 <= lo <= hi, got {value!r}")
        if lo == 0 and key not in ZERO_RADII:
            raise ConfigError(path, f"a draw of {key} needs lo > 0, got {value!r}")
        if key in DISK_RADII and not hi < 1:
            raise ConfigError(path, f"a radius in the disk needs hi < 1, got {hi!r}")
        if key == "abs_c" and symbols["family"] == "general" and hi < GENERAL_MIN_ABS_C:
            raise ConfigError(
                path, f"a general draw of c != 0 needs hi >= {GENERAL_MIN_ABS_C}, got {hi!r}"
            )


def parse_config(doc: dict, *, require_concrete: bool = True) -> RunConfig:
    """Validate a configuration document, including family preconditions.

    Sweep base configurations carry a family plus draw ranges rather than
    concrete parameters; pass require_concrete=False to skip building the
    probe pair. The probe is the config's own ``pair``, which ``run`` then
    reuses. An explicit conjugation descriptor is made for the config's
    alpha, so its constructor's preconditions surface here too.
    """
    if not isinstance(doc, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    space_doc = _require(doc, "space", "$")
    try:
        space = SpaceParams(
            alpha=_number(float, _require(space_doc, "alpha", "space"), "space.alpha"),
            n=_number(int, _require(space_doc, "n", "space"), "space.n"),
            N=_number(int, space_doc.get("N", DEFAULT_N), "space.N"),
        )
    except DomainError as exc:
        raise ConfigError("space", str(exc)) from exc
    # the operator matrix has N + 1 rows; refused before anything is built
    if space.N + 1 > MAX_WORK_DIM:
        raise ConfigError(
            "space.N", f"dimension {space.N + 1} exceeds the budget of {MAX_WORK_DIM}"
        )
    symbols = _require(doc, "symbols", "$")
    if not isinstance(symbols, dict) or "family" not in symbols:
        raise ConfigError("symbols.family", "missing family name")
    _check_ranges(symbols)
    _kernel_points(symbols)
    conjugation = doc.get("conjugation", {"kind": "auto"})
    if not isinstance(conjugation, dict) or "kind" not in conjugation:
        raise ConfigError("conjugation.kind", "missing conjugation kind")
    kind = conjugation["kind"]
    if not isinstance(kind, str) or kind not in CONJUGATION_FIELDS:
        raise ConfigError("conjugation.kind", f"unknown kind {kind!r}")
    for key in conjugation:
        if key != "kind" and key not in CONJUGATION_FIELDS[kind]:
            known = ", ".join(CONJUGATION_FIELDS[kind]) or "none"
            raise ConfigError(f"conjugation.{key}", f"unknown field for {kind!r}; known: {known}")
    checks = doc.get("checks", [])
    if not isinstance(checks, list):
        raise ConfigError("checks", "expected a list of check names")
    for i, name in enumerate(checks):
        if not isinstance(name, str) or name not in CHECKS:
            raise ConfigError(f"checks[{i}]", f"unknown check {name!r}")
        if name in PREDICATE_CHECKS and symbols["family"] not in PREDICATE_FAMILIES:
            raise ConfigError(
                f"checks[{i}]",
                f"{name} applies to the families {', '.join(PREDICATE_FAMILIES)}, "
                f"not {symbols['family']!r}",
            )
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances", "expected an object of check -> tolerance")
    tols = {}
    for name, value in tolerances.items():
        path = f"tolerances.{name}"
        if name not in CHECKS:
            raise ConfigError(path, "tolerance for an unknown check")
        tols[name] = _number(float, value, path)
        if tols[name] < 0:
            raise ConfigError(path, f"expected a tolerance >= 0, got {value!r}")
    config = RunConfig(
        space=space,
        symbols=symbols,
        conjugation_doc=conjugation,
        checks=tuple(checks),
        tolerances=tols,
        seed=_number(int, doc.get("seed", 0), "seed"),
        raw=doc,
    )
    # family and conjugation preconditions surface as config errors before any check runs
    if kind != "auto":
        try:
            make_conjugation(conjugation, space.alpha)
        except DomainError as exc:
            raise ConfigError("conjugation", str(exc)) from exc
    if require_concrete:
        try:
            config.pair
        except (DomainError, SingularityError) as exc:
            raise ConfigError("symbols", str(exc)) from exc
    elif symbols["family"] not in SWEEPABLE_FAMILIES:
        raise ConfigError(
            "symbols.family", f"family {symbols['family']!r} cannot be swept"
        )
    return config


def make_pair(symbols: dict, space: SpaceParams) -> SymbolPair:
    """Build the symbol pair described by the config at the truncation of space."""
    N = space.N
    family = symbols["family"]
    path = "symbols"

    def cval(key, default=None):
        if key not in symbols:
            if default is not None:
                return default
            raise ConfigError(f"{path}.{key}", "missing required field")
        return _complex_value(symbols[key], f"{path}.{key}")

    if family == "j-symmetric":
        return family_j_symmetric(cval("a"), cval("b"), cval("c"), space.n, space.alpha, N)
    if family == "general":
        return family_general(cval("a"), cval("b"), cval("c"), space.n, space.alpha, N)
    if family == "self-adjoint":
        a, b = cval("a"), cval("b")
        if a.imag != 0 or b.imag != 0:
            raise ConfigError(f"{path}.a", "self-adjoint family needs real a and b")
        return family_self_adjoint(a.real, b.real, cval("c"), space.n, space.alpha, N)
    if family == "normal-origin":
        return family_normal_origin(cval("a"), cval("b"), space.n, N)
    if family == "unitary":
        return unitary_symbols(cval("p"), cval("lambda_u", 1.0 + 0j), space.alpha, N)
    if family == "wc-conjugated":
        return family_conjugated(
            cval("a"), cval("b"), cval("c"), space.n, space.alpha, N,
            p=cval("p"), lambda_u=cval("lambda_u", 1.0 + 0j),
        )
    if family == "rotation-conjugated":
        return family_conjugated(
            cval("a"), cval("b"), cval("c"), space.n, space.alpha, N,
            mu=cval("mu"), lam=cval("lam"),
        )
    if family == "explicit":
        raw_psi = _require(symbols, "psi", path)
        if not isinstance(raw_psi, list):
            raise ConfigError(f"{path}.psi", "expected a list of weight coefficients")
        bounded = symbols.get("bounded", False)
        if not isinstance(bounded, bool):
            raise ConfigError(f"{path}.bounded", f"expected true or false, got {bounded!r}")
        coeffs = [
            _complex_value(v, f"{path}.psi[{i}]") for i, v in enumerate(raw_psi)
        ]
        raw_phi = _require(symbols, "phi", path)
        if not isinstance(raw_phi, list) or len(raw_phi) != 4:
            raise ConfigError(f"{path}.phi", "expected four map coefficients [a, b, c, d]")
        try:
            phi = LinearFractionalMap(
                *(_complex_value(v, f"{path}.phi[{i}]") for i, v in enumerate(raw_phi))
            )
            # no self-map of the disk has its pole in the closed disk, or
            # leaves the closed disk, so the bounded flag cannot admit one
            require_pole_outside_disk(phi)
        except SingularityError as exc:
            raise ConfigError(f"{path}.phi", str(exc)) from exc
        sup = sup_norm_lft(phi)
        if sup > 1.0 + 1e-12:
            raise ConfigError(f"{path}.phi", f"the map leaves the disk: sup|phi| = {sup:.6f}")
        return SymbolPair.from_series(
            polynomial(coeffs, N), phi, space.n, provenance="explicit",
            params={"bounded": bounded},
        )
    raise ConfigError(f"{path}.family", f"unknown family {family!r}")


def resolve_conjugation_kind(config: RunConfig) -> dict:
    """Replace kind 'auto' with the descriptor matching the family."""
    conj = dict(config.conjugation_doc)
    if conj.get("kind") != "auto":
        return conj
    symbols = config.symbols
    family = symbols["family"]
    if family == "wc-conjugated":
        return {"kind": "wc-J", "p": symbols["p"],
                "lambda_u": symbols.get("lambda_u", 1.0)}
    if family == "rotation-conjugated":
        return {"kind": "rotation-J", "mu": symbols["mu"], "lambda": symbols["lam"]}
    if family in ("self-adjoint", "general"):
        c = _complex_value(symbols.get("c", 0.0), "symbols.c")
        if c != 0:
            theta = math.atan2(c.imag, c.real)
            lam = complex(math.cos(-2 * theta), math.sin(-2 * theta))
            return {"kind": "rotation-J", "mu": [1.0, 0.0], "lambda": [lam.real, lam.imag]}
    return {"kind": "plain-J"}


def make_conjugation(descriptor: dict, alpha: float) -> AntilinearConjugation:
    kind = descriptor["kind"]
    if kind == "plain-J":
        return make_J(alpha)
    if kind == "rotation-J":
        return make_rotation_J(
            _complex_value(descriptor.get("mu", 1.0), "conjugation.mu"),
            _complex_value(descriptor.get("lambda", 1.0), "conjugation.lambda"),
            alpha,
        )
    if kind == "wc-J":
        return make_wc_J(
            _complex_value(_require(descriptor, "p", "conjugation"), "conjugation.p"),
            _complex_value(descriptor.get("lambda_u", 1.0), "conjugation.lambda_u"),
            alpha,
        )
    raise ConfigError("conjugation.kind", f"unknown kind {kind!r}")


def _predicted_normal(symbols: dict) -> bool:
    b = _complex_value(symbols.get("b", 0.0), "symbols.b")
    c = _complex_value(symbols.get("c", 0.0), "symbols.c")
    return (b.imag == 0 and b.real != 0) or c == 0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _check_tolerance(name: str, measure, config: RunConfig) -> CheckReport:
    """Pass iff the defect meets the tolerance: the config's override for
    ``name``, else the default. ``measure(config)`` returns the defect, the
    default tolerance and the provenance. A defect that is not finite, where
    a closed form overflowed or underflowed, is 'unverified': it claims
    nothing either way."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        defect, default_tol, provenance = measure(config)
    tol = config.tolerances.get(name, default_tol)
    if not math.isfinite(defect):
        return CheckReport(name, "unverified", None, tol, f"non-finite-defect; {provenance}")
    return CheckReport(name, "pass" if defect <= tol else "fail", defect, tol, provenance)


def _kernel_symmetry(config: RunConfig, C: AntilinearConjugation) -> tuple:
    defect = kernel_symmetry_defect(config.pair, C, config.kernel_weights)
    return defect, TOL_EXACT, f"kernel-symmetry; kind={C.kind}"


def _j_symmetry(config: RunConfig) -> tuple:
    return _kernel_symmetry(config, make_J(config.space.alpha))


def _c_symmetry(config: RunConfig) -> tuple:
    return _kernel_symmetry(config, config.conjugation)


def _self_adjointness(config: RunConfig) -> tuple:
    defect = kernel_hermitian_defect(config.pair, config.space.alpha, config.kernel_weights)
    return defect, TOL_EXACT, "kernel-hermitian"


def _normality(config: RunConfig) -> tuple:
    return config.gram_defect, TOL_NORMALITY, "kernel-gram-defect"


def _check_predicate(name: str, defect_of, config: RunConfig) -> CheckReport:
    """Compare a normality defect with the paper's prediction for the family.

    A normal prediction passes iff the defect meets tol. A non-normal one
    passes once the defect reaches FAIL_THRESHOLD, fails when it meets tol,
    and is 'unverified' in the band between; sweeps redraw such parameters.
    A defect that is not finite is 'unverified', as in ``_check_tolerance``.
    """
    tol = config.tolerances.get(name, TOL_PREDICATE)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        defect = defect_of(config)
    predicted = _predicted_normal(config.symbols)
    provenance = f"{name}; predicted={'normal' if predicted else 'nonnormal'}"
    if not math.isfinite(defect):
        return CheckReport(name, "unverified", None, tol, f"non-finite-defect; {provenance}")
    if predicted:
        status = "pass" if defect <= tol else "fail"
    elif defect >= FAIL_THRESHOLD:
        status = "pass"
    elif defect <= tol:
        status = "fail"
    else:
        status = "unverified"
    return CheckReport(name, status, defect, tol, provenance)


def _kernel_norm_defect(config: RunConfig) -> float:
    return max(norm_defect_kernel_test(config.pair, w, config.space) for w in BALANCE_POINTS)


def _kernel_points(symbols: dict) -> list:
    if "w_points" not in symbols:
        return list(DEFAULT_KERNEL_POINTS)
    if not isinstance(symbols["w_points"], list) or not symbols["w_points"]:
        raise ConfigError("symbols.w_points", "expected a non-empty list of points")
    return [
        _complex_value(v, f"symbols.w_points[{i}]")
        for i, v in enumerate(symbols["w_points"])
    ]


def _gate_adjoint_kernel(config: RunConfig) -> None:
    for w in _kernel_points(config.symbols):
        kernel_point_gate(config.pair.phi, w)


def _adjoint_kernel(config: RunConfig) -> tuple:
    points = _kernel_points(config.symbols)
    # a refused first point is reported ahead of a refused build of the
    # matrix, and that ahead of a refused later point
    kernel_point_gate(config.pair.phi, points[0])
    defects = adjoint_on_kernels(config.matrix, config.pair, points)
    return float(defects.max()), TOL_ADJOINT_KERNEL, "adjoint-kernel-identity"


def _adjoint_pair(config: RunConfig) -> tuple:
    space = config.space
    defect = kernel_companion_defect(config.pair.phi, space.n, space.alpha)
    return defect, TOL_ADJOINT_PAIR, "kernel-companion-adjoint"


def _check_necessary_conditions(config: RunConfig) -> CheckReport:
    violations = necessary_conditions_check(config.pair)
    return CheckReport(
        "necessary-conditions", "fail" if violations else "pass", None, None,
        f"structural-necessary-conditions; violations={','.join(violations) or 'none'}",
    )


def _conjugation_axioms(config: RunConfig) -> tuple:
    C = config.conjugation
    return kernel_axioms_defect(C), TOL_AXIOMS, f"kernel-conjugation-axioms; kind={C.kind}"


# grid check -> provenance tag
GRID_CHECKS = {
    "boundedness-grid": "boundedness-ratio-trend",
    "nevanlinna-grid": "counting-function-trend",
}


def grid_report(config: RunConfig, name: str) -> GridReport:
    """Samples of the grid check ``name`` for the config's map; the grid
    function is looked up by its module binding when called.

    The grid's floating-point warnings are silenced, as in
    ``_check_tolerance``: where a power of exponent alpha + 2 + 2n overflows
    or underflows, a sample is not finite, and the caller refuses the grid.
    """
    grid = boundedness_ratio_grid if name == "boundedness-grid" else nevanlinna_bound_grid
    space = config.space
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return grid(config.pair.phi, space.alpha, space.n)


def _check_grid(name: str, config: RunConfig) -> CheckReport:
    """Pass with the supremum as the defect if the grid kept a sample;
    'unverified' if it kept none, or if the supremum is not finite."""
    report = grid_report(config, name)
    if report.supremum is not None and not math.isfinite(report.supremum):
        return CheckReport(name, "unverified", None, None,
                           f"non-finite-defect; {GRID_CHECKS[name]}")
    status = "pass" if report.values.size else "unverified"
    return CheckReport(
        name, status, report.supremum, None,
        f"{GRID_CHECKS[name]}; trend={report.trend}",
    )


def _gate_normality(config: RunConfig) -> None:
    for w in GRAM_POINTS:
        kernel_point_gate(config.pair.phi, w)


def _gate_kernel_norm_balance(config: RunConfig) -> None:
    for w in BALANCE_POINTS:
        kernel_balance_gate(config.pair, w)


CHECKS = {
    "J-symmetry": partial(_check_tolerance, "J-symmetry", _j_symmetry),
    "C-symmetry": partial(_check_tolerance, "C-symmetry", _c_symmetry),
    "self-adjointness": partial(_check_tolerance, "self-adjointness", _self_adjointness),
    "normality": partial(_check_tolerance, "normality", _normality),
    "normality-predicate": partial(
        _check_predicate, "normality-predicate", attrgetter("gram_defect")
    ),
    "adjoint-kernel": partial(_check_tolerance, "adjoint-kernel", _adjoint_kernel),
    "adjoint-pair": partial(_check_tolerance, "adjoint-pair", _adjoint_pair),
    "necessary-conditions": _check_necessary_conditions,
    "conjugation-axioms": partial(_check_tolerance, "conjugation-axioms", _conjugation_axioms),
    "boundedness-grid": partial(_check_grid, "boundedness-grid"),
    "nevanlinna-grid": partial(_check_grid, "nevanlinna-grid"),
    "kernel-norm-balance": partial(_check_predicate, "kernel-norm-balance", _kernel_norm_defect),
}

# checks whose point gates a sweep applies before it runs a draw
GATES = {
    "adjoint-kernel": _gate_adjoint_kernel,
    "normality": _gate_normality,
    "normality-predicate": _gate_normality,
    "kernel-norm-balance": _gate_kernel_norm_balance,
}


def run(config: RunConfig) -> list[CheckReport]:
    """Run the configured checks in declared order; they share what the
    config builds.

    Boundedness-gate refusals become 'unverified' reports; they signal that
    the parameters left the certified region, not that a claim failed.
    """
    reports = []
    for name in config.checks:
        start = time.perf_counter()
        try:
            report = CHECKS[name](config)
        except UnboundedSymbolError as exc:
            report = CheckReport(name, "unverified", None, None, f"gate-refusal; {exc}")
        report.wall_time = time.perf_counter() - start
        reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

MAX_REJECTIONS = 10**5

SWEEPABLE_FAMILIES = (
    "j-symmetric",
    "general",
    "self-adjoint",
    "normal-origin",
    "unitary",
    "wc-conjugated",
    "rotation-conjugated",
)


# default draw range per radius; parse_config admits only these keys
RANGE_DEFAULTS = {
    "abs_a": (0.5, 1.5),
    "abs_b": (0.1, 0.6),
    "abs_c": (0.0, 0.5),
    "abs_p": (0.1, 0.6),
}
DISK_RADII = ("abs_c", "abs_p")     # radii of points that must lie in the open disk
ZERO_RADII = ("abs_c",)             # radii whose range may start at 0
GENERAL_MIN_ABS_C = 0.05            # smallest nonzero |c| of a general-family draw


def _range(symbols: dict, key: str) -> tuple:
    value = symbols.get("ranges", {}).get(key)
    if value is None:
        return RANGE_DEFAULTS[key]
    return float(value[0]), float(value[1])


def draw_symbols(symbols: dict, rng: SplitMix64) -> dict:
    """Draw concrete family parameters inside the admissible region.

    Rejection-samples against the sufficient boundedness inequality for the
    plain-denominator families and against sup |phi| < 0.95 for the
    conjugated-denominator families. The draw for the general family picks
    uniformly among its three parameter branches (b real, c = 0, both
    complex) so both sides of the normality predicate get exercised.
    """
    family = symbols["family"]
    a_lo, a_hi = _range(symbols, "abs_a")
    b_lo, b_hi = _range(symbols, "abs_b")
    c_lo, c_hi = _range(symbols, "abs_c")
    p_lo, p_hi = _range(symbols, "abs_p")

    def as_pair(z: complex):
        return [z.real, z.imag]

    for _ in range(MAX_REJECTIONS):
        draw = dict(symbols)
        if family in ("j-symmetric", "wc-conjugated", "rotation-conjugated"):
            a = rng.complex_annulus(a_lo, a_hi)
            b = rng.complex_annulus(b_lo, b_hi)
            c = rng.complex_annulus(c_lo, c_hi)
            if not bounded_sufficient(b, c):
                continue
            draw.update({"a": as_pair(a), "b": as_pair(b), "c": as_pair(c)})
            if family == "wc-conjugated":
                draw["p"] = as_pair(rng.complex_annulus(p_lo, p_hi))
                draw["lambda_u"] = as_pair(rng.unimodular())
            if family == "rotation-conjugated":
                draw["mu"] = as_pair(rng.unimodular())
                draw["lam"] = as_pair(rng.unimodular())
        elif family in ("self-adjoint", "general"):
            if family == "self-adjoint":
                a = complex(rng.real_signed(a_lo, a_hi))
                b = complex(rng.real_signed(b_lo, b_hi))
                c = rng.complex_annulus(c_lo, c_hi)
            else:
                branch = rng.choice(("b-real", "c-zero", "free"))
                a = rng.complex_annulus(a_lo, a_hi)
                if branch == "b-real":
                    b = complex(rng.real_signed(b_lo, b_hi))
                    c = rng.complex_annulus(max(c_lo, GENERAL_MIN_ABS_C), c_hi)
                elif branch == "c-zero":
                    b = rng.complex_annulus(b_lo, b_hi)
                    c = 0j
                else:
                    b = rng.complex_annulus(b_lo, b_hi)
                    c = rng.complex_annulus(max(c_lo, GENERAL_MIN_ABS_C), c_hi)
            if not sup_norm_lft(_family_phi(b, c.conjugate(), c)) < 0.95:
                continue
            draw.update({"a": as_pair(a), "b": as_pair(b), "c": as_pair(c)})
        elif family == "normal-origin":
            draw.update(
                {
                    "a": as_pair(rng.complex_annulus(a_lo, a_hi)),
                    "b": as_pair(rng.complex_annulus(0.1, 0.9)),
                }
            )
        elif family == "unitary":
            draw.update(
                {
                    "p": as_pair(rng.complex_annulus(p_lo, p_hi)),
                    "lambda_u": as_pair(rng.unimodular()),
                }
            )
        else:
            raise ConfigError("symbols.family", f"family {family!r} cannot be swept")
        return draw
    raise ConfigError("symbols", "admissible region looks empty after 1e5 rejections")


def _draw_passes_gates(config: RunConfig) -> bool:
    """Whether the gates of the configured checks admit the drawn config."""
    try:
        for name in config.checks:
            if name in GATES:
                GATES[name](config)
    except UnboundedSymbolError:
        return False
    return True


def sweep(config: RunConfig, draws: int, seed: int) -> dict:
    """Run the configured checks across random family draws.

    Draws that a check's gate refuses are never run. Those and ambiguous
    predicate outcomes (defects between the pass tolerance and the failure
    threshold) are re-drawn and counted rather than recorded, so boolean
    aggregates are never decided inside the gray band.
    """
    rng = SplitMix64(seed)
    per_check = {
        name: {"pass": 0, "fail": 0, "unverified": 0, "worst_defect": 0.0}
        for name in config.checks
    }
    mismatches = 0
    redraws = 0
    completed = 0
    while completed < draws:
        draw_config = RunConfig(
            space=config.space,
            symbols=draw_symbols(config.symbols, rng),
            conjugation_doc=config.conjugation_doc,
            checks=config.checks,
            tolerances=config.tolerances,
            seed=seed,
        )
        reports = run(draw_config) if _draw_passes_gates(draw_config) else None
        if reports is None or any(
            r.status == "unverified" and r.name in PREDICATE_CHECKS for r in reports
        ):
            redraws += 1
            if redraws > MAX_REJECTIONS:
                raise ConfigError("symbols", "gates or the ambiguous band rejected too many draws")
            continue
        completed += 1
        for report in reports:
            slot = per_check[report.name]
            slot[report.status] += 1
            if report.defect is not None:
                slot["worst_defect"] = max(slot["worst_defect"], report.defect)
            if report.status == "fail" and report.name in PREDICATE_CHECKS:
                mismatches += 1
    return {
        "draws": draws,
        "redraws": redraws,
        "mismatches": mismatches,
        "checks": per_check,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _encode(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not serializable: {type(obj)!r}")


def canonical_json(obj) -> str:
    """Sorted, indented JSON; a non-finite number raises, since JSON has none."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
                      default=_encode, allow_nan=False) + "\n"


def config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def report_header(config: RunConfig, mode: str, **extra) -> dict:
    header = {
        "artifact": "cswcd",
        "version": __version__,
        "mode": mode,
        "config_sha256": config_hash(config.raw),
        "seed": config.seed,
    }
    header.update(extra)
    return header


def check_report_document(config: RunConfig, reports: list) -> dict:
    return {
        "header": report_header(config, "check"),
        "reports": [r.payload() for r in reports],
    }


def sweep_report_document(config: RunConfig, aggregate: dict, draws: int, seed: int) -> dict:
    return {
        "header": report_header(config, "sweep", draws=draws, sweep_seed=seed),
        "aggregate": aggregate,
    }


def timing_sidecar(reports: list) -> dict:
    return {r.name: r.wall_time for r in reports}
