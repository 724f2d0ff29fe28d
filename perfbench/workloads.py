"""The benchmark's workloads: inputs made from the seed, the ops, and their checks.

An op is one accepted sweep draw (the ``runner.run`` call that ``cswcd sweep``
makes for it) or one ``cswcd check`` invocation. Every op goes through
``cswcd.cli.main`` in-process, with a config file in and a report file out.

Ops are grouped into rounds of calls, one call per stratum of the input
properties that decide an op's cost, in a seeded order. The strata partition
the default draw ranges into equally likely cells, so the union of all draws
still follows the default distribution while each run gets the same mix:

- ``wc-sweep``: |p| (the extended truncation grows from about 165 to 432
  over [0.1, 0.6)) crossed with |b| (small |b| makes subnormal products);
- ``large-check``: |c| (small |c| makes the build about 5x slower through
  subnormal products);
- ``scalar-sweep``: no cost-deciding property; a round is one sweep call.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import traceback
from dataclasses import dataclass
from time import perf_counter

from cswcd import cli, runner

PREDICATE_CHECKS = ("normality-predicate", "kernel-norm-balance")
FAIL_THRESHOLD = 1e-3           # defect that certifies non-normality
SMALL_C = 0.13                  # below this |c| the build runs into subnormals
MARGIN_CAP_DECADES = 20.0       # margin recorded for a defect of exactly 0


@dataclass(frozen=True)
class Call:
    """One ``cswcd.cli.main`` invocation of a round."""

    label: str
    argv: tuple
    doc: dict | None = None     # config written to argv's config path first
    draws: int = 1


@dataclass
class CallResult:
    """What one call cost and produced."""

    wall: float                 # seconds inside cswcd.cli.main
    attempted: int              # ops the call was asked for
    ops: list                   # op records: op, params, ms, checks
    failures: list
    redraws: int = 0            # sweep draws rejected and drawn again


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _abs(value) -> float:
    if isinstance(value, list):
        return abs(complex(value[0], value[1]))
    return abs(value)


def _params(symbols: dict) -> dict:
    """Drawn parameters of an op, with the magnitudes that decide its cost."""
    out = {k: v for k, v in symbols.items() if k not in ("family", "ranges")}
    for key in ("c", "p"):
        if key in out:
            out[f"abs_{key}"] = _abs(out[key])
    return out


def _check_rows(reports) -> list:
    """[name, status, defect, tolerance, provenance] per check report."""
    rows = []
    for r in reports:
        if isinstance(r, dict):
            rows.append([r["name"], r["status"], r["defect"], r["tolerance"], r["provenance"]])
        else:
            rows.append([r.name, r.status, r.defect, r.tolerance, r.provenance])
    return rows


def _invoke(argv, report_path) -> tuple[float, str | None, bool]:
    """Wall time, error text and whether a report was written, for one
    in-process CLI call. Any error is a failure of the call's ops."""
    report_path.unlink(missing_ok=True)
    start = perf_counter()
    try:
        code = cli.main(list(argv))
        error = None if code == 0 else f"exit code {code}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception:  # a crash is a failed op, and the run goes on
        error = traceback.format_exc(limit=3).strip().replace("\n", " | ")
    return perf_counter() - start, error, report_path.is_file()


class Workload:
    """One workload: seeded inputs, grouped into rounds of CLI calls."""

    name = ""
    checks: tuple = ()
    block_rounds = 1            # rounds that together cover every stratum

    def __init__(self, seed: int, work_dir):
        self.seed = seed
        self.dir = work_dir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.report_path = self.dir / "report.json"
        self.rng = random.Random(seed)
        self._rounds = []

    def round(self, r: int) -> list:
        """Calls of round r; rounds are made once and replayed identically."""
        while len(self._rounds) <= r:
            self._rounds.append(self._make_round(len(self._rounds)))
        return self._rounds[r]

    def failure(self, op, check, detail):
        return {"workload": self.name, "seed": self.seed, "op": op,
                "check": check, "detail": detail}

    def _write(self, path, doc):
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


class SweepWorkload(Workload):
    """``cswcd sweep`` calls; ``space``, ``family`` and ``checks`` set by subclasses."""

    draws_per_call = 1
    space: dict = {}
    family = ""

    def __init__(self, seed, work_dir, strata=(None,)):
        super().__init__(seed, work_dir)
        self.config_paths = []
        for k, ranges in enumerate(strata):
            symbols = {"family": self.family}
            if ranges:
                symbols["ranges"] = ranges
            doc = {"space": self.space, "symbols": symbols, "checks": list(self.checks)}
            path = self.dir / f"config-{k}.json"
            self._write(path, doc)
            self.config_paths.append(path)

    def setup_config(self):
        return self.config_paths[0], "sweep"

    def _round_strata(self, r):
        """Config indices of the calls of round r."""
        return list(range(len(self.config_paths)))

    def _make_round(self, r):
        order = self._round_strata(r)
        self.rng.shuffle(order)
        calls = []
        for k in order:
            argv = ("sweep", str(self.config_paths[k]), "--draws", str(self.draws_per_call),
                    "--seed", str(self.rng.getrandbits(32)), "--out", str(self.report_path))
            calls.append(Call(f"r{r}s{k}", argv, draws=self.draws_per_call))
        return calls

    def expected_predictions(self, symbols) -> dict:
        """Check name -> 'normal'/'nonnormal' that the op's reports must state."""
        return {}

    def execute(self, call: Call, tracer=None):
        """Run one sweep call and check every accepted draw."""
        captured = []
        inner = runner.run

        def capture(config):
            label = f"{call.label}d{len(captured)}"
            if tracer is not None:
                tracer.op = label
            start = perf_counter()
            try:
                reports = inner(config)
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.op = None
            captured.append((label, elapsed, config.symbols, reports))
            return reports

        runner.run = capture
        try:
            wall, error, reported = _invoke(call.argv, self.report_path)
        finally:
            runner.run = inner

        ops, failures = [], []
        for label, elapsed, symbols, reports in captured:
            ambiguous = any(r.status == "unverified" and r.name in PREDICATE_CHECKS for r in reports)
            if ambiguous:
                continue                      # the sweep redraws; not an op
            ops.append({"op": label, "params": _params(symbols), "ms": 1e3 * elapsed,
                        "checks": _check_rows(reports)})
            expected = self.expected_predictions(symbols)
            for name, status, _, _, provenance in ops[-1]["checks"]:
                if status != "pass":
                    failures.append(self.failure(label, name, f"status {status}: {provenance}"))
                if name in expected and f"predicted={expected[name]}" not in provenance:
                    failures.append(self.failure(
                        label, name, f"expected predicted={expected[name]}: {provenance}"))
        redraws = 0
        if error is not None:
            failures.append(self.failure(call.label, "cli", error))
        if reported:
            agg = json.loads(self.report_path.read_text(encoding="utf-8"))["aggregate"]
            redraws = agg["redraws"]
            failures += self._check_aggregate(call, agg, ops)
        # a call that crashed still attempted its draws
        missing = call.draws - len(ops)
        if missing > 0:
            failures += [self.failure(f"{call.label}d?{i}", "cli", "op not completed")
                         for i in range(missing)]
        return CallResult(wall, max(call.draws, len(ops)), ops, failures, redraws)

    def _check_aggregate(self, call, agg, ops):
        problems = []
        if agg["mismatches"] != 0:
            problems.append(f"mismatches {agg['mismatches']}")
        if len(ops) != call.draws:
            problems.append(f"{len(ops)} accepted draws for --draws {call.draws}")
        for name in self.checks:
            counted = {s: 0 for s in ("pass", "fail", "unverified")}
            for op in ops:
                for row in op["checks"]:
                    if row[0] == name:
                        counted[row[1]] += 1
            slot = agg["checks"][name]
            reported = {s: slot[s] for s in counted}
            if reported != counted or reported["pass"] != call.draws:
                problems.append(f"{name} counts {reported}, per-draw reports {counted}")
        return [self.failure(call.label, "aggregate", p) for p in problems]


def _bands(edges):
    return [[lo, hi] for lo, hi in zip(edges, edges[1:])]


def _quantile_edges(values, count, lo, hi):
    values = sorted(values)
    return [lo] + [values[k * len(values) // count] for k in range(1, count)] + [hi]


def _annulus(rng, lo, hi):
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


class WcSweep(SweepWorkload):
    """The sweep's default ranges, stratified on |p| and |b|.

    Ten equal-width bands split |p| in [0.1, 0.6); five equal-probability
    bands split |b| as accepted by the sweep's admissibility test. A block of
    five rounds visits each of the 50 cells once (a Latin square), and every
    round has each |p| band once and each |b| band twice. Small |b| with
    large |p| is the slowest class (subnormal products), so fixing its share
    per block keeps run-to-run spread low.
    """

    name = "wc-sweep"
    family = "wc-conjugated"
    space = {"alpha": 0.5, "n": 2, "N": 96}
    checks = ("C-symmetry", "conjugation-axioms")
    P_BANDS = _bands([round(0.1 + 0.05 * k, 2) for k in range(11)])
    B_COUNT = 5
    POOL = 4000
    block_rounds = B_COUNT

    def __init__(self, seed, work_dir):
        rng = random.Random(seed ^ 0x5EED)
        b_edges = _quantile_edges([self._admissible_abs_b(rng) for _ in range(self.POOL)],
                                  self.B_COUNT, 0.1, 0.6)
        cells = [{"abs_p": p_band, "abs_b": b_band}
                 for p_band in self.P_BANDS for b_band in _bands(b_edges)]
        super().__init__(seed, work_dir, cells)
        self._offset = 0

    @staticmethod
    def _admissible_abs_b(rng):
        """|b| of a draw the sweep accepts: |b| in [0.1, 0.6), |c| in [0, 0.5)
        and the sufficient boundedness inequality
        2 |c + conj(c) (b - c^2)| < 1 - |b - c^2|^2."""
        while True:
            b, c = _annulus(rng, 0.1, 0.6), _annulus(rng, 0.0, 0.5)
            w = b - c * c
            if 2 * abs(c + c.conjugate() * w) < 1 - abs(w) ** 2:
                return abs(b)

    def _round_strata(self, r):
        i = r % self.B_COUNT
        if i == 0:
            self._offset = self.rng.randrange(self.B_COUNT)
        return [k * self.B_COUNT + (k + i + self._offset) % self.B_COUNT
                for k in range(len(self.P_BANDS))]


class ScalarSweep(SweepWorkload):
    name = "scalar-sweep"
    family = "general"
    space = {"alpha": 0.0, "n": 1, "N": 48}
    checks = ("adjoint-kernel", "adjoint-pair", "necessary-conditions", "boundedness-grid",
              "nevanlinna-grid", "normality-predicate", "kernel-norm-balance")
    draws_per_call = 5

    def expected_predictions(self, symbols):
        # the paper: this family is normal exactly when b is real or c = 0
        b = complex(*symbols["b"])
        c = complex(*symbols["c"])
        normal = (b.imag == 0 and b.real != 0) or c == 0
        return dict.fromkeys(PREDICATE_CHECKS, "normal" if normal else "nonnormal")


def sup_abs_self_adjoint_map(b: float, c: complex) -> float:
    """sup |phi| over the closed disk for phi(z) = c + b z / (1 - conj(c) z).

    phi = (A z + B) / (C z + D) with A = b - |c|^2, B = c, C = -conj(c), D = 1
    maps the unit circle onto the circle with centre
    (B conj(D) - A conj(C)) / (|D|^2 - |C|^2) and radius
    |A D - B C| / (|D|^2 - |C|^2), when |C| < |D|.
    """
    A, B, C, D = b - abs(c) ** 2, c, -c.conjugate(), 1.0
    den = abs(D) ** 2 - abs(C) ** 2
    if den <= 0:
        return math.inf
    centre = (B * D.conjugate() - A * C.conjugate()) / den
    return abs(centre) + abs(A * D - B * C) / den


class LargeCheck(Workload):
    name = "large-check"
    checks = ("C-symmetry", "self-adjointness", "normality", "normality-predicate")
    space = {"alpha": 0.5, "n": 1, "N": 192}
    BANDS = 20
    POOL = 4000

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.config_path = self.dir / "config.json"
        pool = sorted(abs(self._draw()[2]) for _ in range(self.POOL))
        self.bounds = [pool[k * self.POOL // self.BANDS] for k in range(1, self.BANDS)]
        self._setup_doc = self._config(*self._draw())

    def _draw(self):
        """Self-adjoint family at the sweep's default ranges, admissible region
        sup |phi| < 0.95: real a, b with |a| in [0.5, 1.5), |b| in [0.1, 0.6),
        complex c with |c| in [0, 0.5)."""
        rng = self.rng
        while True:
            a = rng.uniform(0.5, 1.5) * rng.choice((1.0, -1.0))
            b = rng.uniform(0.1, 0.6) * rng.choice((1.0, -1.0))
            c = _annulus(rng, 0.0, 0.5)
            if sup_abs_self_adjoint_map(b, c) < 0.95:
                return a, b, c

    def _band(self, abs_c):
        return sum(abs_c >= bound for bound in self.bounds)

    def _config(self, a, b, c):
        return {"space": self.space, "checks": list(self.checks), "seed": self.seed,
                "symbols": {"family": "self-adjoint", "a": a, "b": b, "c": _pair(c)}}

    def setup_config(self):
        self._write(self.config_path, self._setup_doc)
        return self.config_path, "check"

    def _make_round(self, r):
        order = list(range(self.BANDS))
        self.rng.shuffle(order)
        calls = []
        for k in order:
            while True:
                a, b, c = self._draw()
                if self._band(abs(c)) == k:
                    break
            argv = ("check", str(self.config_path), "--out", str(self.report_path))
            calls.append(Call(f"r{r}s{k}", argv, doc=self._config(a, b, c)))
        return calls

    def execute(self, call: Call, tracer=None):
        self._write(self.config_path, call.doc)
        if tracer is not None:
            tracer.op = call.label
        wall, error, reported = _invoke(call.argv, self.report_path)
        if tracer is not None:
            tracer.op = None
        failures = [] if error is None else [self.failure(call.label, "cli", error)]
        if not reported:
            return CallResult(wall, 1, [], failures)
        reports = json.loads(self.report_path.read_text(encoding="utf-8"))["reports"]
        op = {"op": call.label, "params": _params(call.doc["symbols"]), "ms": 1e3 * wall,
              "checks": _check_rows(reports)}
        names = [row[0] for row in op["checks"]]
        if names != list(self.checks):
            failures.append(self.failure(call.label, "report", f"checks {names}"))
        for name, status, _, _, provenance in op["checks"]:
            if status != "pass":
                failures.append(self.failure(call.label, name, f"status {status}: {provenance}"))
        # c != 0, so 'auto' resolves to the rotation conjugation; b is real,
        # so the family is normal
        expected = {"C-symmetry": "kind=rotation-J", "normality-predicate": "predicted=normal"}
        for name, status, _, _, provenance in op["checks"]:
            if name in expected and expected[name] not in provenance:
                failures.append(self.failure(call.label, name, f"expected {expected[name]}: {provenance}"))
        return CallResult(wall, 1, [op], failures)


def margins(ops):
    """(accuracy, structural) minimum margins in decades.

    Accuracy: log10(tolerance / defect) for every check whose status the
    tolerance decided. Structural: log10(defect / 1e-3) for the predicate
    checks on a non-normal prediction, where the failure threshold decided.
    """
    accuracy, structural = [], []
    for op in ops:
        for name, _, defect, tol, provenance in op["checks"]:
            if tol is None or defect is None:
                continue
            if name in PREDICATE_CHECKS and "predicted=nonnormal" in provenance:
                value = math.log10(defect / FAIL_THRESHOLD) if defect > 0 else -MARGIN_CAP_DECADES
                structural.append(min(value, MARGIN_CAP_DECADES))
            else:
                value = math.log10(tol / defect) if defect > 0 else MARGIN_CAP_DECADES
                accuracy.append(min(value, MARGIN_CAP_DECADES))
    return (min(accuracy) if accuracy else MARGIN_CAP_DECADES,
            min(structural) if structural else None)


def small_c_share(ops):
    with_c = [op for op in ops if "abs_c" in op["params"]]
    return sum(op["params"]["abs_c"] < SMALL_C for op in with_c) / len(with_c) if with_c else 0.0


WORKLOADS = {w.name: w for w in (WcSweep, ScalarSweep, LargeCheck)}
