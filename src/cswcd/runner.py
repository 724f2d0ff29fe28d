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
    extended_order,
    involution_defect,
    isometry_defect,
    is_C_symmetric,
    make_J,
    make_rotation_J,
    make_wc_J,
)
from .defaults import DEFAULT_N, GUARD_BAND, MAX_WORK_DIM, TOL_EXACT, TOL_GUARDED
from .diagnostics import (
    GridReport,
    boundedness_ratio_grid,
    is_hermitian,
    is_normal,
    kernel_balance_gate,
    necessary_conditions_check,
    nevanlinna_bound_grid,
    norm_defect_kernel_test,
)
from .errors import ConfigError, DomainError, SingularityError, UnboundedSymbolError
from .matrices import (
    OperatorMatrix,
    adjoint_matrix,
    adjoint_on_kernel,
    build_wcd_matrix,
    cowen_adjoint_pair,
    kernel_point_gate,
)
from .rng import SplitMix64
from .series import TruncatedSeries, polynomial
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

    ``conjugation`` is made for the config's space from ``conjugation_doc``
    and chooses its own working truncation (the weighted-composition kind
    works at an extended one); ``work_matrix`` is the operator at that
    truncation.
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
        return make_conjugation(resolve_conjugation_kind(self), self.space)

    @cached_property
    def work_matrix(self) -> OperatorMatrix:
        space = self.conjugation.space
        if space == self.space:
            return self.matrix
        return build_wcd_matrix(make_pair(self.symbols, space), space)

    @cached_property
    def commutator_defect(self) -> float:
        """Commutator defect of ``matrix``, read by both normality checks."""
        return is_normal(self.matrix)

    @cached_property
    def companion_matrices(self) -> tuple[OperatorMatrix, OperatorMatrix]:
        """Matrices of the companion adjoint pair induced by the map."""
        pair_a, pair_b = cowen_adjoint_pair(self.pair.phi, self.space.n, self.space)
        return build_wcd_matrix(pair_a, self.space), build_wcd_matrix(pair_b, self.space)


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
            "guard": GUARD_BAND,
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
    reuses. An explicit conjugation descriptor is built at the smallest
    truncation, so its constructor's preconditions surface here too.
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
    _check_work_budget(config, require_concrete)
    # family and conjugation preconditions surface as config errors before any check runs
    if kind != "auto":
        try:
            make_conjugation(conjugation, SpaceParams(space.alpha, space.n, space.n + 2))
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


def _check_work_budget(config: RunConfig, require_concrete: bool) -> None:
    """Refuse a config whose dense matrices would exceed MAX_WORK_DIM rows,
    before anything is built.

    The operator matrix has space.N + 1 rows; a weighted-composition
    conjugation works at ``extended_order(space.N, p)``, which grows like
    N (1+|p|)/(1-|p|). A sweep is bounded by its largest drawable |p|.
    """
    space, symbols, conj = config.space, config.symbols, config.conjugation_doc
    if space.N + 1 > MAX_WORK_DIM:
        raise ConfigError(
            "space.N", f"dimension {space.N + 1} exceeds the budget of {MAX_WORK_DIM}"
        )
    if conj["kind"] == "wc-J":
        path = "conjugation.p"
        p = abs(_complex_value(_require(conj, "p", "conjugation"), path))
    elif conj["kind"] == "auto" and symbols["family"] == "wc-conjugated":
        if not require_concrete:
            path, p = "symbols.ranges.abs_p", _range(symbols, "abs_p")[1]
        elif "p" in symbols:
            path = "symbols.p"
            p = abs(_complex_value(symbols["p"], path))
        else:
            return                      # make_pair reports the missing field
    else:
        return
    if p >= 1.0:
        return                          # the constructor's domain error reports it
    dim = extended_order(space.N, p) + 1
    if dim > MAX_WORK_DIM:
        raise ConfigError(
            path, f"|p| {p:.6g} needs a working dimension of {dim} at N={space.N}, "
            f"over the budget of {MAX_WORK_DIM}"
        )


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
            # no self-map of the disk has its pole in the closed disk, so the
            # bounded flag cannot admit one
            require_pole_outside_disk(phi)
        except SingularityError as exc:
            raise ConfigError(f"{path}.phi", str(exc)) from exc
        return SymbolPair(
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


def make_conjugation(descriptor: dict, space: SpaceParams) -> AntilinearConjugation:
    kind = descriptor["kind"]
    if kind == "plain-J":
        return make_J(space)
    if kind == "rotation-J":
        return make_rotation_J(
            _complex_value(descriptor.get("mu", 1.0), "conjugation.mu"),
            _complex_value(descriptor.get("lambda", 1.0), "conjugation.lambda"),
            space,
        )
    if kind == "wc-J":
        return make_wc_J(
            _complex_value(_require(descriptor, "p", "conjugation"), "conjugation.p"),
            _complex_value(descriptor.get("lambda_u", 1.0), "conjugation.lambda_u"),
            space,
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
    default tolerance and the provenance."""
    defect, default_tol, provenance = measure(config)
    tol = config.tolerances.get(name, default_tol)
    return CheckReport(name, "pass" if defect <= tol else "fail", defect, tol, provenance)


def _j_symmetry(config: RunConfig) -> tuple:
    M = config.matrix
    return is_C_symmetric(M, make_J(M.space)), TOL_EXACT, "matrix-symmetry"


def _c_symmetry(config: RunConfig) -> tuple:
    C = config.conjugation
    tol = TOL_EXACT if C.exact else TOL_GUARDED
    return is_C_symmetric(config.work_matrix, C), tol, f"conjugation-symmetry; kind={C.kind}"


def _self_adjointness(config: RunConfig) -> tuple:
    return is_hermitian(config.matrix), TOL_EXACT, "hermitian-defect"


def _normality(config: RunConfig) -> tuple:
    return config.commutator_defect, TOL_GUARDED, "commutator-defect"


def _check_predicate(name: str, defect_of, config: RunConfig) -> CheckReport:
    """Compare a normality defect with the paper's prediction for the family.

    A normal prediction passes iff the defect meets tol. A non-normal one
    passes once the defect reaches FAIL_THRESHOLD, fails when it meets tol,
    and is 'unverified' in the band between; sweeps redraw such parameters.
    """
    tol = config.tolerances.get(name, TOL_GUARDED)
    defect = defect_of(config)
    predicted = _predicted_normal(config.symbols)
    if predicted:
        status = "pass" if defect <= tol else "fail"
    elif defect >= FAIL_THRESHOLD:
        status = "pass"
    elif defect <= tol:
        status = "fail"
    else:
        status = "unverified"
    return CheckReport(
        name, status, defect, tol,
        f"{name}; predicted={'normal' if predicted else 'nonnormal'}",
    )


def _kernel_norm_defect(config: RunConfig) -> float:
    return max(norm_defect_kernel_test(config.pair, w, config.space) for w in BALANCE_POINTS)


def _kernel_points(symbols: dict) -> list:
    if "w_points" not in symbols:
        return list(DEFAULT_KERNEL_POINTS)
    if not isinstance(symbols["w_points"], list):
        raise ConfigError("symbols.w_points", "expected a list of points")
    return [
        _complex_value(v, f"symbols.w_points[{i}]")
        for i, v in enumerate(symbols["w_points"])
    ]


def _gate_adjoint_kernel(config: RunConfig) -> None:
    for w in _kernel_points(config.symbols):
        kernel_point_gate(config.pair.phi, w)


def _adjoint_kernel(config: RunConfig) -> tuple:
    worst = 0.0
    for w in _kernel_points(config.symbols):
        # a refused point is reported ahead of a refused build of the matrix
        kernel_point_gate(config.pair.phi, w)
        worst = max(worst, adjoint_on_kernel(config.matrix, config.pair, w))
    return worst, TOL_GUARDED, "adjoint-kernel-identity"


def _adjoint_pair(config: RunConfig) -> tuple:
    MA, MB = config.companion_matrices
    scale = float(np.max(np.abs(MB.entries)))
    defect = float(np.max(np.abs(adjoint_matrix(MA).entries - MB.entries)))
    return (defect / scale if scale > 0 else defect), 1e-9, "companion-adjoint-identity"


def _check_necessary_conditions(config: RunConfig) -> CheckReport:
    violations = necessary_conditions_check(config.pair)
    return CheckReport(
        "necessary-conditions", "fail" if violations else "pass", None, None,
        f"structural-necessary-conditions; violations={','.join(violations) or 'none'}",
    )


def _conjugation_axioms(config: RunConfig) -> tuple:
    C = config.conjugation
    rng = SplitMix64(config.seed ^ 0xA5A5)
    deg = config.space.N - GUARD_BAND
    worst = 0.0
    for _ in range(5):
        coeffs = np.zeros(C.space.N + 1, dtype=complex)
        coeffs[: deg + 1] = [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(deg + 1)
        ]
        f = TruncatedSeries(coeffs)
        worst = max(worst, involution_defect(C, f))
        worst = max(worst, isometry_defect(C, f))
    return worst, 1e-12 if C.exact else 1e-9, f"conjugation-axioms; kind={C.kind}"


# grid check -> provenance tag
GRID_CHECKS = {
    "boundedness-grid": "boundedness-ratio-trend",
    "nevanlinna-grid": "counting-function-trend",
}


def grid_report(config: RunConfig, name: str) -> GridReport:
    """Samples of the grid check ``name`` for the config's map; the grid
    function is looked up by its module binding when called."""
    grid = boundedness_ratio_grid if name == "boundedness-grid" else nevanlinna_bound_grid
    space = config.space
    return grid(config.pair.phi, space.alpha, space.n)


def _check_grid(name: str, config: RunConfig) -> CheckReport:
    report = grid_report(config, name)
    status = "pass" if report.samples else "unverified"
    return CheckReport(
        name, status, report.supremum, None,
        f"{GRID_CHECKS[name]}; trend={report.trend}",
    )


def _gate_kernel_norm_balance(config: RunConfig) -> None:
    for w in BALANCE_POINTS:
        kernel_balance_gate(config.pair, w)


CHECKS = {
    "J-symmetry": partial(_check_tolerance, "J-symmetry", _j_symmetry),
    "C-symmetry": partial(_check_tolerance, "C-symmetry", _c_symmetry),
    "self-adjointness": partial(_check_tolerance, "self-adjointness", _self_adjointness),
    "normality": partial(_check_tolerance, "normality", _normality),
    "normality-predicate": partial(
        _check_predicate, "normality-predicate", attrgetter("commutator_defect")
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
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "),
                      default=_encode) + "\n"


def config_hash(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def report_header(config: RunConfig, mode: str, **extra) -> dict:
    header = {
        "artifact": "cswcd",
        "version": __version__,
        "mode": mode,
        "config_sha256": config_hash(config.raw),
        "seed": config.seed,
        "guard": GUARD_BAND,
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
