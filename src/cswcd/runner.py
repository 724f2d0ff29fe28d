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
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

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
    MAX_GRAM_TERMS,
    MAX_ORDER,
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
    leibniz_term_count,
    necessary_conditions_check,
    nevanlinna_bound_grid,
    norm_defect_kernel_test,
    normality_gram,
    normality_gram_defect,
)
from .errors import (
    ConfigError,
    DomainError,
    NonFiniteError,
    SingularityError,
    UnboundedSymbolError,
    format_magnitude,
)
from .matrices import OperatorMatrix, adjoint_on_kernels, build_wcd_matrix, kernel_point_gate
from .rng import SplitMix64
from .series import polynomial
from .symbols import (
    IDENTITY_MAP,
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
# the fields each kind of conjugation descriptor admits besides "kind"
CONJUGATION_FIELDS = {"auto": (), "plain-J": (), "rotation-J": ("mu", "lambda"),
                      "wc-J": ("p", "lambda_u")}
SHARED_FIELDS = ("family", "ranges", "w_points")    # the symbol fields of every family
MAX_SEED = 2**64 - 1            # SplitMix64 keeps 64 bits: another seed aliases one of these


@dataclass(frozen=True)
class Family:
    """A symbol family: the fields its symbols admit besides SHARED_FIELDS,
    how its pair is made, how a sweep draws it and what the paper predicts."""

    fields: tuple
    make: Callable                  # (symbols, space) -> the pair
    ranges: tuple = ()              # the radii that draw reads
    draw: Callable | None = None    # (rng, ranges) -> the fields, None if rejected; None: no sweep
    min_abs_c: float = 0.0          # smallest nonzero |c| of a draw
    auto: Callable | None = None    # (symbols, alpha) -> the conjugation; None, or None out: plain-J
    normal: Callable | None = None  # symbols -> the paper's normality prediction; None: none


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration and what its checks share, each built the
    first time asked.

    ``parse_config`` decides ``kernel_points`` and the conjugation of a
    written-out descriptor once; a sweep draw is a ``replace`` copy that
    differs only in its symbols and shares them. A conjugation carries no
    truncation, and no check reads ``seed``. The pair carries its weight in
    closed form; its Taylor series is built only if a check reads it.
    """

    space: SpaceParams
    symbols: dict
    kernel_points: tuple            # the points of ``adjoint-kernel``
    checks: tuple
    tolerances: dict
    seed: int
    written_conjugation: AntilinearConjugation | None = None    # None: kind 'auto'
    raw: dict = field(default_factory=dict, repr=False)

    @cached_property
    def sha256(self) -> str:
        """The report header's hash of ``canonical_json(raw)``, made in
        ``parse_config``."""
        return hashlib.sha256(canonical_json(self.raw).encode("utf-8")).hexdigest()

    @cached_property
    def pair(self) -> SymbolPair:
        return make_pair(self.symbols, self.space)

    @cached_property
    def matrix(self) -> OperatorMatrix:
        return build_wcd_matrix(self.pair, self.space)

    @cached_property
    def conjugation(self) -> AntilinearConjugation:
        """The written-out conjugation, else the family's ``auto`` one, else plain J."""
        auto = FAMILIES[self.symbols["family"]].auto
        return self.written_conjugation or (auto and auto(self.symbols, self.space.alpha)) \
            or make_J(self.space.alpha)

    @cached_property
    def kernel_weights(self) -> np.ndarray:
        """The weight at KERNEL_POINTS, read by the three kernel symmetry checks."""
        return kernel_weight_values(self.pair)

    @cached_property
    def gram(self) -> tuple:
        """The kernel Grams (G_T, G_T*) at GRAM_POINTS, read by both normality
        checks and by ``kernel-norm-balance``."""
        return normality_gram(self.pair, self.space.alpha)

    @cached_property
    def predicted_normal(self) -> bool:
        """The paper's normality prediction, read by both predicate checks."""
        return FAMILIES[self.symbols["family"]].normal(self.symbols)


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
    # the common case, a [re, im] pair of finite floats, read without a
    # generator; anything else takes the checked path below
    if type(value) is list and len(value) == 2:
        re, im = value
        if type(re) is float and type(im) is float and math.isfinite(re) \
                and math.isfinite(im):
            return complex(re, im)
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


def parse_seed(value, path: str) -> int:
    """A seed in 0..MAX_SEED, or a ConfigError at path."""
    seed = _number(int, value, path)
    if not 0 <= seed <= MAX_SEED:
        raise ConfigError(path, f"expected a seed in 0..2^64 - 1, got {value!r}")
    return seed


def _check_ranges(symbols: dict, record: Family) -> None:
    """Sweep draw ranges are ranges the family draws, [lo, hi] with
    0 <= lo <= hi (0 < lo outside ZERO_RADII), hi < 1 for a radius in the
    disk, and hi >= the family's min_abs_c for abs_c."""
    ranges = symbols.get("ranges", {})
    if not isinstance(ranges, dict):
        raise ConfigError("symbols.ranges", "expected an object of radius -> [lo, hi]")
    for key, value in ranges.items():
        path = f"symbols.ranges.{key}"
        if key not in record.ranges:
            raise ConfigError(path, f"unknown range for family {symbols['family']!r}; "
                              f"known: {', '.join(record.ranges) or 'none'}")
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(path, "expected two numbers [lo, hi]")
        lo, hi = (_number(float, v, path) for v in value)
        if not 0 <= lo <= hi:
            raise ConfigError(path, f"expected 0 <= lo <= hi, got {value!r}")
        if lo == 0 and key not in ZERO_RADII:
            raise ConfigError(path, f"a draw of {key} needs lo > 0, got {value!r}")
        if key in DISK_RADII and not hi < 1:
            raise ConfigError(path, f"a radius in the disk needs hi < 1, got {hi!r}")
        if key == "abs_c" and hi < record.min_abs_c:
            raise ConfigError(path, f"a {symbols['family']} draw of c != 0 needs "
                              f"hi >= {record.min_abs_c}, got {hi!r}")


def parse_config(doc: dict, *, require_concrete: bool = True) -> RunConfig:
    """Validate a configuration document, including family preconditions.

    The family is read first: a family that ``FAMILIES`` does not name is
    refused before any other field, in every mode. Sweep base
    configurations carry a family plus draw ranges rather than concrete
    parameters; pass require_concrete=False to skip building the probe
    pair. The probe is the config's own ``pair``, which ``run`` then reuses.
    The kernel points and the conjugation of a written-out descriptor are
    made here, once, so its constructor's preconditions surface here too; a
    sweep base config refuses a point that fails ``adjoint-kernel``'s
    |w| gate, which no draw can change.
    The report header's hash (``sha256``) is made last, so a non-finite
    number in a field that no check reads is a ConfigError at its path.
    """
    if not isinstance(doc, dict):
        raise ConfigError("$", "configuration must be a JSON object")
    symbols = _require(doc, "symbols", "$")
    if not isinstance(symbols, dict) or "family" not in symbols:
        raise ConfigError("symbols.family", "missing family name")
    family = symbols["family"]
    if not isinstance(family, str) or family not in FAMILIES:
        raise ConfigError("symbols.family", f"unknown family {family!r}")
    record = FAMILIES[family]
    space_doc = _require(doc, "space", "$")
    if not isinstance(space_doc, dict):
        raise ConfigError("space", "expected an object with alpha, n and N")
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
    if space.n > MAX_ORDER:
        raise ConfigError("space.n", f"order {space.n} exceeds the largest order {MAX_ORDER}")
    for key in symbols:
        if key not in record.fields and key not in SHARED_FIELDS:
            raise ConfigError(f"symbols.{key}", f"unknown field for {family!r}; "
                              f"known: {', '.join(record.fields)}")
    _check_ranges(symbols, record)
    kernel_points = _kernel_points(symbols)
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
        if name in checks[:i]:
            raise ConfigError(f"checks[{i}]", f"check {name!r} is listed twice")
        families = CHECK_RECORDS[name].families
        if families is not None and family not in families:
            raise ConfigError(f"checks[{i}]", f"{name} applies to the families "
                              f"{', '.join(families)}, not {family!r}")
    gates = {CHECK_RECORDS[name].gate for name in checks}
    # the normality Grams' term table grows like n^3; refused before it is made
    terms = leibniz_term_count(space.n)
    if terms > MAX_GRAM_TERMS and _gate_gram in gates:
        raise ConfigError(
            "space.n", f"order {space.n} gives {terms} normality Gram terms, "
            f"over the budget of {MAX_GRAM_TERMS}"
        )
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances", "expected an object of check -> tolerance")
    tols = {}
    for name, value in tolerances.items():
        path = f"tolerances.{name}"
        if name not in CHECKS:
            raise ConfigError(path, "tolerance for an unknown check")
        if CHECK_RECORDS[name].tol is None:
            raise ConfigError(path, f"{name} takes no tolerance")
        if name not in checks:
            raise ConfigError(path, f"{name} is not among the config's checks")
        tols[name] = _number(float, value, path)
        if tols[name] < 0:
            raise ConfigError(path, f"expected a tolerance >= 0, got {value!r}")
    seed = parse_seed(doc.get("seed", 0), "seed")
    # family and conjugation preconditions surface as config errors before any check runs
    try:
        written = None if kind == "auto" else make_conjugation(conjugation, space.alpha)
    except DomainError as exc:
        raise ConfigError("conjugation", str(exc)) from exc
    config = RunConfig(
        space=space,
        symbols=symbols,
        kernel_points=kernel_points,
        checks=tuple(checks),
        tolerances=tols,
        seed=seed,
        written_conjugation=written,
        raw=doc,
    )
    if require_concrete:
        try:
            config.pair
        except (DomainError, SingularityError) as exc:
            raise ConfigError("symbols", str(exc)) from exc
    elif record.draw is None:
        raise ConfigError("symbols.family", f"family {family!r} cannot be swept")
    elif _gate_adjoint_kernel in gates:
        # the |w| half of the gate reads no draw: a sweep would redraw a
        # point that it refuses until MAX_REJECTIONS
        for i, w in enumerate(kernel_points):
            try:
                kernel_point_gate(IDENTITY_MAP, w)
            except UnboundedSymbolError as exc:
                raise ConfigError(f"symbols.w_points[{i}]", str(exc)) from exc
    # a non-finite number in a field that nothing reads would otherwise
    # refuse the hash only in the report header, after every check had run
    try:
        config.sha256
    except ValueError as exc:
        raise ConfigError(_non_finite_path(doc, "") or "$",
                          "expected a finite number; JSON has no NaN or infinity") from exc
    return config


def _field(symbols: dict, key: str) -> complex:
    return _complex_value(_require(symbols, key, "symbols"), f"symbols.{key}")


def _abc(symbols: dict) -> tuple:
    return _field(symbols, "a"), _field(symbols, "b"), _field(symbols, "c")


def _lambda_u(symbols: dict) -> complex:
    return _complex_value(symbols.get("lambda_u", 1.0), "symbols.lambda_u")


def _make_self_adjoint(symbols: dict, space: SpaceParams) -> SymbolPair:
    a, b = _field(symbols, "a"), _field(symbols, "b")
    if a.imag != 0 or b.imag != 0:
        raise ConfigError(f"symbols.{'a' if a.imag else 'b'}",
                          "self-adjoint family needs real a and b")
    return family_self_adjoint(a.real, b.real, _field(symbols, "c"), space.n, space.alpha,
                               space.N)


def _make_explicit(symbols: dict, space: SpaceParams) -> SymbolPair:
    raw_psi = _require(symbols, "psi", "symbols")
    if not isinstance(raw_psi, list):
        raise ConfigError("symbols.psi", "expected a list of weight coefficients")
    bounded = symbols.get("bounded", False)
    if not isinstance(bounded, bool):
        raise ConfigError("symbols.bounded", f"expected true or false, got {bounded!r}")
    coeffs = [_complex_value(v, f"symbols.psi[{i}]") for i, v in enumerate(raw_psi)]
    raw_phi = _require(symbols, "phi", "symbols")
    if not isinstance(raw_phi, list) or len(raw_phi) != 4:
        raise ConfigError("symbols.phi", "expected four map coefficients [a, b, c, d]")
    try:
        phi = LinearFractionalMap(*(_complex_value(v, f"symbols.phi[{i}]")
                                    for i, v in enumerate(raw_phi)))
        # no self-map of the disk has its pole in the closed disk, or
        # leaves the closed disk, so the bounded flag cannot admit one
        require_pole_outside_disk(phi)
    except SingularityError as exc:
        raise ConfigError("symbols.phi", str(exc)) from exc
    sup = sup_norm_lft(phi)
    if sup > 1.0 + 1e-12:
        raise ConfigError("symbols.phi",
                          f"the map leaves the disk: sup|phi| = {format_magnitude(sup)}")
    return SymbolPair.from_series(polynomial(coeffs, space.N), phi, space.n, bounded=bounded)


def _draw_plain_denominator(rng: SplitMix64, ranges: dict, then=None) -> dict | None:
    """a, b and c in their annuli, if they meet the sufficient boundedness
    inequality, followed by the fields that ``then(rng, ranges)`` draws."""
    a, b, c = (rng.complex_annulus(*ranges[key]) for key in ABC_RANGES)
    if not bounded_sufficient(b, c):
        return None
    return {"a": a, "b": b, "c": c, **(then(rng, ranges) if then else {})}


def _draw_unitary(rng: SplitMix64, ranges: dict) -> dict:
    return {"p": rng.complex_annulus(*ranges["abs_p"]), "lambda_u": rng.unimodular()}


def _conjugated_denominator(a: complex, b: complex, c: complex) -> dict | None:
    """The fields a, b and c, if sup |phi| < 0.95 for phi = c + b z / (1 - conj(c) z)."""
    if not sup_norm_lft(_family_phi(b, c.conjugate(), c)) < 0.95:
        return None
    return {"a": a, "b": b, "c": c}


def _draw_general(rng: SplitMix64, ranges: dict) -> dict | None:
    """One of three branches, uniformly (b real, c = 0, both complex), so
    that both sides of the normality prediction are drawn."""
    branch = rng.choice(("b-real", "c-zero", "free"))
    a, b_range = rng.complex_annulus(*ranges["abs_a"]), ranges["abs_b"]
    b = complex(rng.real_signed(*b_range)) if branch == "b-real" else rng.complex_annulus(*b_range)
    c = 0j if branch == "c-zero" else rng.complex_annulus(*ranges["abs_c"])
    return _conjugated_denominator(a, b, c)


def _rotation_by_c(symbols: dict, alpha: float) -> AntilinearConjugation | None:
    """rotation-J with mu 1 and lambda = exp(-2i arg c); None for c = 0."""
    c = _field(symbols, "c")
    if c == 0:
        return None
    theta = math.atan2(c.imag, c.real)
    return make_rotation_J(1.0, complex(math.cos(-2 * theta), math.sin(-2 * theta)), alpha)


def _normal_prediction(symbols: dict) -> bool:
    """Normal iff b is real and nonzero, or c = 0."""
    b, c = _field(symbols, "b"), _field(symbols, "c")
    return (b.imag == 0 and b.real != 0) or c == 0


GENERAL_MIN_ABS_C = 0.05            # smallest nonzero |c| of a general-family draw
ABC_FIELDS, ABC_RANGES = ("a", "b", "c"), ("abs_a", "abs_b", "abs_c")

# no record holds a function that a tracer may patch: a lambda's body reads
# each module binding that it names when it is called
FAMILIES = {
    "j-symmetric": Family(
        ABC_FIELDS, lambda s, space: family_j_symmetric(*_abc(s), space.n, space.alpha, space.N),
        ABC_RANGES, _draw_plain_denominator),
    "general": Family(
        ABC_FIELDS, lambda s, space: family_general(*_abc(s), space.n, space.alpha, space.N),
        ABC_RANGES, _draw_general, GENERAL_MIN_ABS_C, _rotation_by_c, _normal_prediction),
    "self-adjoint": Family(
        ABC_FIELDS, _make_self_adjoint, ABC_RANGES,
        lambda rng, r: _conjugated_denominator(complex(rng.real_signed(*r["abs_a"])),
                                               complex(rng.real_signed(*r["abs_b"])),
                                               rng.complex_annulus(*r["abs_c"])),
        auto=_rotation_by_c, normal=_normal_prediction),
    "normal-origin": Family(                                # |b| in a fixed [0.1, 0.9]
        ("a", "b"),
        lambda s, space: family_normal_origin(_field(s, "a"), _field(s, "b"), space.n, space.N),
        ("abs_a",), lambda rng, r: {"a": rng.complex_annulus(*r["abs_a"]),
                                    "b": rng.complex_annulus(0.1, 0.9)}),
    "unitary": Family(
        ("p", "lambda_u"),
        lambda s, space: unitary_symbols(_field(s, "p"), _lambda_u(s), space.alpha, space.N),
        ("abs_p",), _draw_unitary),
    # the j-symmetric pair transported by the unitary symbols at p, or by a rotation
    "wc-conjugated": Family(
        (*ABC_FIELDS, "p", "lambda_u"),
        lambda s, space: family_conjugated(*_abc(s), space.n, space.alpha, space.N,
                                           p=_field(s, "p"), lambda_u=_lambda_u(s)),
        (*ABC_RANGES, "abs_p"), partial(_draw_plain_denominator, then=_draw_unitary),
        auto=lambda s, alpha: make_wc_J(_field(s, "p"), _lambda_u(s), alpha)),
    "rotation-conjugated": Family(
        (*ABC_FIELDS, "mu", "lam"),
        lambda s, space: family_conjugated(*_abc(s), space.n, space.alpha, space.N,
                                           mu=_field(s, "mu"), lam=_field(s, "lam")),
        ABC_RANGES, partial(_draw_plain_denominator, then=lambda rng, r: {
            "mu": rng.unimodular(), "lam": rng.unimodular()}),
        auto=lambda s, alpha: make_rotation_J(_field(s, "mu"), _field(s, "lam"), alpha)),
    "explicit": Family(("psi", "phi", "bounded"), _make_explicit),
}
SWEEPABLE_FAMILIES = tuple(name for name, family in FAMILIES.items() if family.draw)
# the families whose normality the paper predicts, which the predicate checks test
PREDICTED_FAMILIES = tuple(name for name, family in FAMILIES.items() if family.normal)


def make_pair(symbols: dict, space: SpaceParams) -> SymbolPair:
    """Build the symbol pair described by the config at the truncation of space."""
    return FAMILIES[symbols["family"]].make(symbols, space)


def make_conjugation(descriptor: dict, alpha: float) -> AntilinearConjugation:
    """The conjugation of a written-out descriptor, of kind plain-J,
    rotation-J or wc-J: ``parse_config`` admits no other kind, and makes
    'auto' from the family's record."""
    kind = descriptor["kind"]
    if kind == "plain-J":
        return make_J(alpha)
    if kind == "rotation-J":
        return make_rotation_J(
            _complex_value(descriptor.get("mu", 1.0), "conjugation.mu"),
            _complex_value(descriptor.get("lambda", 1.0), "conjugation.lambda"),
            alpha,
        )
    return make_wc_J(
        _complex_value(_require(descriptor, "p", "conjugation"), "conjugation.p"),
        _complex_value(descriptor.get("lambda_u", 1.0), "conjugation.lambda_u"),
        alpha,
    )


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One check: ``rule(check, config)`` makes its report from ``measure``;
    ``tol`` is the default tolerance, ``gate`` the point gate that a sweep
    applies to each draw, ``families`` those whose prediction the check
    tests (None: every family), ``tag`` a grid's or the conditions' provenance."""

    name: str
    rule: Callable
    measure: Callable
    tol: float | None = None
    gate: Callable | None = None
    families: tuple | None = None
    tag: str | None = None


def _check_tolerance(check: Check, config: RunConfig) -> CheckReport:
    """Pass iff the defect meets the tolerance: the config's override for
    the check, else the default. ``measure(config)`` returns the defect and
    the provenance. A defect that is not finite, where a closed form
    overflowed or underflowed, is 'unverified': it claims nothing either
    way. Its floating-point warnings are silenced by ``run``."""
    name = check.name
    defect, provenance = check.measure(config)
    tol = config.tolerances.get(name, check.tol)
    if not math.isfinite(defect):
        return CheckReport(name, "unverified", None, tol, f"non-finite-defect; {provenance}")
    return CheckReport(name, "pass" if defect <= tol else "fail", defect, tol, provenance)


def _kernel_symmetry(config: RunConfig, C: AntilinearConjugation) -> tuple:
    defect = kernel_symmetry_defect(config.pair, C, config.kernel_weights)
    return defect, f"kernel-symmetry; kind={C.kind}"


def _self_adjointness(config: RunConfig) -> tuple:
    defect = kernel_hermitian_defect(config.pair, config.space.alpha, config.kernel_weights)
    return defect, "kernel-hermitian"


def _gram_defect(config: RunConfig) -> float:
    return normality_gram_defect(*config.gram)


def _check_predicate(check: Check, config: RunConfig) -> CheckReport:
    """Compare a normality defect with the paper's prediction for the family.

    A normal prediction passes iff the defect meets tol. A non-normal one
    passes once the defect reaches FAIL_THRESHOLD, fails when it meets tol,
    and is 'unverified' in the band between; sweeps redraw such parameters.
    A defect that is not finite is 'unverified', as in ``_check_tolerance``.
    """
    name = check.name
    tol = config.tolerances.get(name, check.tol)
    defect = check.measure(config)
    predicted = config.predicted_normal
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


def _kernel_points(symbols: dict) -> tuple:
    if "w_points" not in symbols:
        return DEFAULT_KERNEL_POINTS
    if not isinstance(symbols["w_points"], list) or not symbols["w_points"]:
        raise ConfigError("symbols.w_points", "expected a non-empty list of points")
    return tuple(_complex_value(v, f"symbols.w_points[{i}]")
                 for i, v in enumerate(symbols["w_points"]))


def _gate_adjoint_kernel(config: RunConfig) -> None:
    for w in config.kernel_points:
        kernel_point_gate(config.pair.phi, w)


def _adjoint_kernel(config: RunConfig) -> tuple:
    points = config.kernel_points
    # a refused first point is reported ahead of a refused build of the
    # matrix, and that ahead of a refused later point
    kernel_point_gate(config.pair.phi, points[0])
    defects = adjoint_on_kernels(config.matrix, config.pair, points)
    return float(defects.max()), "adjoint-kernel-identity"


def _adjoint_pair(config: RunConfig) -> tuple:
    pair = config.pair
    defect = kernel_companion_defect(pair.phi, pair.n, config.space.alpha)
    return defect, "kernel-companion-adjoint"


def _check_conditions(check: Check, config: RunConfig) -> CheckReport:
    violations = check.measure(config.pair)
    return CheckReport(check.name, "fail" if violations else "pass", None, None,
                       f"{check.tag}; violations={','.join(violations) or 'none'}")


def _conjugation_axioms(config: RunConfig) -> tuple:
    C = config.conjugation
    return kernel_axioms_defect(C), f"kernel-conjugation-axioms; kind={C.kind}"


def grid_report(config: RunConfig, name: str) -> GridReport:
    """Samples of the grid check ``name`` for the config's map, at the
    pair's order (0 for ``unitary``), not the space's n. Floating-point
    warnings are silenced here as ``run`` silences every check's, since
    ``cswcd grid`` calls this outside ``run``: where a power of exponent
    alpha + 2 + 2n overflows or underflows, a sample is not finite, and the
    caller refuses the grid."""
    pair = config.pair
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return CHECK_RECORDS[name].measure(pair.phi, config.space.alpha, pair.n)


def _check_grid(check: Check, config: RunConfig) -> CheckReport:
    """Pass with the supremum as the defect if the grid kept a sample;
    'unverified' if it kept none, or if the supremum is not finite."""
    report = grid_report(config, check.name)
    if report.supremum is not None and not math.isfinite(report.supremum):
        return CheckReport(check.name, "unverified", None, None,
                           f"non-finite-defect; {check.tag}")
    status = "pass" if report.values.size else "unverified"
    return CheckReport(check.name, status, report.supremum, None,
                       f"{check.tag}; trend={report.trend}")


def _gate_gram(config: RunConfig) -> None:
    for w in GRAM_POINTS:
        kernel_point_gate(config.pair.phi, w)


# no record holds a function that a tracer may patch: a lambda's body reads
# each module binding that it names when it is called
CHECK_RECORDS = {check.name: check for check in (
    Check("J-symmetry", _check_tolerance,
          lambda config: _kernel_symmetry(config, make_J(config.space.alpha)), TOL_EXACT),
    Check("C-symmetry", _check_tolerance,
          lambda config: _kernel_symmetry(config, config.conjugation), TOL_EXACT),
    Check("self-adjointness", _check_tolerance, _self_adjointness, TOL_EXACT),
    Check("normality", _check_tolerance,
          lambda config: (_gram_defect(config), "kernel-gram-defect"), TOL_NORMALITY, _gate_gram),
    Check("normality-predicate", _check_predicate, _gram_defect, TOL_PREDICATE, _gate_gram,
          PREDICTED_FAMILIES),
    Check("adjoint-kernel", _check_tolerance, _adjoint_kernel, TOL_ADJOINT_KERNEL,
          _gate_adjoint_kernel),
    Check("adjoint-pair", _check_tolerance, _adjoint_pair, TOL_ADJOINT_PAIR),
    Check("necessary-conditions", _check_conditions,
          lambda pair: necessary_conditions_check(pair), tag="structural-necessary-conditions"),
    Check("conjugation-axioms", _check_tolerance, _conjugation_axioms, TOL_AXIOMS),
    Check("boundedness-grid", _check_grid, lambda *args: boundedness_ratio_grid(*args),
          tag="boundedness-ratio-trend"),
    Check("nevanlinna-grid", _check_grid, lambda *args: nevanlinna_bound_grid(*args),
          tag="counting-function-trend"),
    Check("kernel-norm-balance", _check_predicate,
          lambda config: norm_defect_kernel_test(*config.gram), TOL_PREDICATE, _gate_gram,
          PREDICTED_FAMILIES),
)}
# name -> its check, as ``run`` calls it
CHECKS = {name: partial(check.rule, check) for name, check in CHECK_RECORDS.items()}


def run(config: RunConfig) -> list[CheckReport]:
    """Run the configured checks in declared order; they share what the
    config builds.

    Boundedness-gate refusals become 'unverified' reports; they signal that
    the parameters left the certified region, not that a claim failed. The
    checks' floating-point warnings are silenced: where a closed form
    overflows or underflows, its defect is not finite, and the check says
    'unverified', as it does when a series or a matrix that it reads is not
    finite (``NonFiniteError``).
    """
    reports = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for name in config.checks:
            start = time.perf_counter()
            try:
                report = CHECKS[name](config)
            except UnboundedSymbolError as exc:
                report = CheckReport(name, "unverified", None, None, f"gate-refusal; {exc}")
            except NonFiniteError as exc:
                report = CheckReport(name, "unverified", None, None, f"non-finite-defect; {exc}")
            report.wall_time = time.perf_counter() - start
            reports.append(report)
    return reports


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

MAX_REJECTIONS = 10**5


# default draw range per radius; parse_config admits those that the family draws
RANGE_DEFAULTS = {
    "abs_a": (0.5, 1.5),
    "abs_b": (0.1, 0.6),
    "abs_c": (0.0, 0.5),
    "abs_p": (0.1, 0.6),
}
DISK_RADII = ("abs_c", "abs_p")     # radii of points that must lie in the open disk
ZERO_RADII = ("abs_c",)             # radii whose range may start at 0


def draw_symbols(symbols: dict, rng: SplitMix64) -> dict:
    """Draw concrete family parameters inside the admissible region by the
    family's ``draw``, which returns None for a draw outside it; the family
    is one that ``parse_config`` admits for a sweep."""
    record = FAMILIES[symbols["family"]]
    given = symbols.get("ranges", {})
    ranges = {key: tuple(map(float, given[key])) if key in given else RANGE_DEFAULTS[key]
              for key in record.ranges}
    if record.min_abs_c:            # a nonzero |c| is drawn from the family's smallest up
        ranges["abs_c"] = (max(ranges["abs_c"][0], record.min_abs_c), ranges["abs_c"][1])
    for _ in range(MAX_REJECTIONS):
        fields = record.draw(rng, ranges)
        if fields is not None:
            return {**symbols, **{key: [z.real, z.imag] for key, z in fields.items()}}
    raise ConfigError("symbols",
                      f"admissible region looks empty after {MAX_REJECTIONS} rejections")


def _draw_passes_gates(config: RunConfig) -> bool:
    """Whether the gates of the configured checks admit the drawn config;
    a gate that several checks share runs once."""
    try:
        for gate in filter(None, dict.fromkeys(CHECK_RECORDS[name].gate
                                               for name in config.checks)):
            gate(config)
    except UnboundedSymbolError:
        return False
    return True


def sweep(config: RunConfig, draws: int, seed: int) -> dict:
    """Run the configured checks across random family draws.

    Draws that a check's gate refuses are never run. Those and ambiguous
    predicate outcomes (finite defects between the pass tolerance and the
    failure threshold) are re-drawn and counted rather than recorded, so
    boolean aggregates are never decided inside the gray band; a predicate
    whose defect is not finite is recorded as 'unverified'.
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
        draw_config = replace(config, symbols=draw_symbols(config.symbols, rng))
        reports = run(draw_config) if _draw_passes_gates(draw_config) else None
        # only a predicate is 'unverified' with a finite defect: in its ambiguous band
        if reports is None or any(r.status == "unverified" and r.defect is not None
                                  for r in reports):
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
            if report.status == "fail" and CHECK_RECORDS[report.name].rule is _check_predicate:
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


_escape = json.encoder.encode_basestring_ascii


def canonical_json(obj) -> str:
    """Sorted JSON indented by two spaces and ending in a newline: byte for
    byte the text of ``json.dumps(obj, sort_keys=True, indent=2,
    separators=(",", ": "), allow_nan=False) + "\\n"``. Like that call, it
    raises ValueError on a non-finite number, since JSON has none, and
    TypeError on a type that JSON has no form for.

    It does not call ``json.dumps``: with an indent, ``json`` skips its C
    encoder and runs its pure-Python generator, which yields each value,
    separator and indent as its own string; on the pinned reports that takes
    about 1.5 times as long as this writer. Every call encodes two documents,
    its config for the hash and its report.
    """
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, newline: str) -> str:
    """The canonical text of obj whose enclosing lines start with newline."""
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) \
            + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = _json_text(key, inner)
            items.append(_escape(key) + ": " + _json_text(value, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _non_finite_path(obj, path: str) -> str | None:
    """The path, as ConfigError spells it, of the first non-finite number in
    obj in canonical key order; None if every number is finite."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        children = ((f"{path}.{key}" if path else str(key), value)
                    for key, value in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for child_path, value in children:
        found = _non_finite_path(value, child_path)
        if found is not None:
            return found
    return None


def report_header(config: RunConfig, mode: str, **extra) -> dict:
    header = {
        "artifact": "cswcd",
        "version": __version__,
        "mode": mode,
        "config_sha256": config.sha256,
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
