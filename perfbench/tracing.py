"""Spans around calls into the cswcd layers, installed from outside the package.

A traced function is replaced at every module binding that refers to it:
``runner`` and ``matrices`` import ``build_wcd_matrix``, ``series_mul`` and
others by name, so patching only the defining module would miss their
callers. The check functions are replaced inside ``runner.CHECKS``, which is
how ``runner.run`` reaches them. Everything is restored by ``uninstall``.

Each call of a ``SPAN`` function keeps a record in memory: name, start, end,
parent span and op id. Hot leaf functions (``LEAF``), called hundreds of
times per op, are folded into their enclosing span as a count and a total
time, so that tracing stays cheap and the span list stays small. A layer's
busy time is the self time of its calls: duration minus the time covered by
traced calls nested inside them.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "series", "symbols", "bergman", "matrices",
    "conjugations", "diagnostics", "runner", "cli",
)
SPAN, LEAF = "span", "leaf"
BUILDS = ("matrices.build_wcd_matrix", "matrices.build_weighted_composition")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _series_key(series):
    return hashlib.blake2b(series.coeffs.tobytes(), digest_size=16).digest()


def _phi_key(phi):
    return (phi.a, phi.b, phi.c, phi.d)


def _space_key(space):
    return (space.alpha, space.n, space.N)


def _hook_build_wcd(tracer, args, kwargs, result):
    pair, space = _arg(args, kwargs, 0, "pair"), _arg(args, kwargs, 1, "space")
    key = ("wcd", _series_key(pair.psi), _phi_key(pair.phi), pair.n, _space_key(space))
    tracer.note_build(key, result.entries.shape[0])


def _hook_build_wc(tracer, args, kwargs, result):
    psi, phi = _arg(args, kwargs, 0, "psi"), _arg(args, kwargs, 1, "phi")
    key = ("wc", _series_key(psi), _phi_key(phi), _space_key(_arg(args, kwargs, 2, "space")))
    tracer.note_build(key, result.entries.shape[0])


def _hook_conjugated_adjoint(tracer, args, kwargs, result):
    C = _arg(args, kwargs, 0, "C")
    if C.kind != "plain-J":
        # two dense complex products, 8 real flops per multiply-add
        tracer.add("conjugations.conjugated_adjoint.flops", 2 * 8 * result.entries.shape[0] ** 3)


def _hook_is_normal(tracer, args, kwargs, result):
    d = _arg(args, kwargs, 0, "M").entries.shape[0]
    tracer.add("diagnostics.is_normal.flops", 2 * 8 * d ** 3)


def _hook_extended_space(tracer, args, kwargs, result):
    tracer.add("conjugations.wc_dim.sum", result.N)
    tracer.add("conjugations.wc_dim.count", 1)


def _hook_kernel_norm_sq(tracer, args, kwargs, result):
    tracer.add("bergman.kernel_norm_sq.terms", result.terms)


def _hook_grid(tracer, args, kwargs, result):
    tracer.add("diagnostics.grid.samples", len(result.samples))


# (module, function, kind, hook); the order only matters for readability
TRACED = (
    ("series", "series_mul", LEAF, None),
    ("series", "series_eval", LEAF, None),
    ("series", "binomial_series", LEAF, None),
    ("series", "series_power", SPAN, None),
    ("symbols", "lft_eval", LEAF, None),
    ("symbols", "sup_norm_lft", LEAF, None),
    ("symbols", "bounded_sufficient", LEAF, None),
    ("symbols", "lft_to_series", LEAF, None),
    ("symbols", "rational_symbol_series", SPAN, None),
    ("symbols", "family_j_symmetric", SPAN, None),
    ("symbols", "family_general", SPAN, None),
    ("symbols", "family_self_adjoint", SPAN, None),
    ("symbols", "family_conjugated", SPAN, None),
    ("symbols", "unitary_symbols", SPAN, None),
    ("bergman", "beta_sq_vector", LEAF, None),
    ("bergman", "kernel", LEAF, None),
    ("bergman", "kernel_norm_sq", LEAF, _hook_kernel_norm_sq),
    ("matrices", "build_wcd_matrix", SPAN, _hook_build_wcd),
    ("matrices", "build_weighted_composition", SPAN, _hook_build_wc),
    ("matrices", "apply", LEAF, None),
    ("matrices", "adjoint_matrix", LEAF, None),
    ("matrices", "adjoint_on_kernel", SPAN, None),
    ("matrices", "cowen_adjoint_pair", SPAN, None),
    ("conjugations", "extended_space", LEAF, _hook_extended_space),
    ("conjugations", "make_J", SPAN, None),
    ("conjugations", "make_rotation_J", SPAN, None),
    ("conjugations", "make_wc_J", SPAN, None),
    ("conjugations", "conjugated_adjoint", SPAN, _hook_conjugated_adjoint),
    ("conjugations", "is_C_symmetric", SPAN, None),
    ("conjugations", "involution_defect", SPAN, None),
    ("conjugations", "isometry_defect", SPAN, None),
    ("diagnostics", "is_normal", SPAN, _hook_is_normal),
    ("diagnostics", "is_hermitian", SPAN, None),
    ("diagnostics", "necessary_conditions_check", SPAN, None),
    ("diagnostics", "boundedness_ratio_grid", SPAN, _hook_grid),
    ("diagnostics", "nevanlinna_bound_grid", SPAN, _hook_grid),
    ("diagnostics", "norm_defect_kernel_test", SPAN, None),
    ("runner", "parse_config", SPAN, None),
    ("runner", "make_pair", SPAN, None),
    ("runner", "make_conjugation", SPAN, None),
    ("runner", "draw_symbols", SPAN, None),
    ("runner", "run", SPAN, None),
    ("runner", "sweep", SPAN, None),
    ("cli", "main", SPAN, None),
)


class Patches:
    """Attribute and item replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def setattr(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            put, obj, key, old = self._undo.pop()
            put(obj, key, old)


class Tracer:
    """In-memory spans, per-layer self time and counters for one traced phase."""

    def __init__(self):
        self.op = None                  # op label that new spans are attributed to
        self.spans = []                 # [name, start, end, parent, op, leaves]
        self.busy = defaultdict(float)  # layer -> self time (s)
        self.calls = defaultdict(int)   # "layer.function" -> calls
        self.counters = defaultdict(float)
        self.builds = []                # (op, key, dim)
        self._stack = []
        self._patches = Patches()

    # -- installation -----------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"cswcd.{m}") for m in LAYERS]
        modules.append(importlib.import_module("cswcd"))
        runner = importlib.import_module("cswcd.runner")
        for mod_name, fn_name, kind, hook in TRACED:
            original = getattr(importlib.import_module(f"cswcd.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, kind, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.setattr(module, attr, wrapper)
        for check, fn in list(runner.CHECKS.items()):
            self._patches.setitem(
                runner.CHECKS, check, self._wrap(f"runner.check.{check}", fn, SPAN, None)
            )

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, name, fn, kind, hook):
        layer = name.split(".", 1)[0]
        stack, spans = self._stack, self.spans
        busy, calls = self.busy, self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            owner = parent[1] if parent is not None else -1
            if kind == SPAN:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, owner, self.op, None])
            else:
                idx = owner
            frame = [0.0, idx]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[0] += dur
                busy[layer] += dur - frame[0]
                calls[name] += 1
                if kind == SPAN:
                    spans[idx][1] = start
                    spans[idx][2] = start + dur
                elif owner >= 0:
                    if spans[owner][5] is None:
                        spans[owner][5] = {}
                    slot = spans[owner][5].setdefault(name, [0, 0.0])
                    slot[0] += 1
                    slot[1] += dur
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ---------------------------------------------------------

    def add(self, name, value):
        self.counters[name] += value

    def note_build(self, key, dim):
        self.builds.append((self.op, key, dim))
        self.add("matrices.build.cells", dim * dim)

    # -- results ----------------------------------------------------------

    def build_ms_by_op(self):
        out = defaultdict(list)
        for name, start, end, _, op, _ in self.spans:
            if name in BUILDS:
                out[op].append(round(1e3 * (end - start), 4))
        return out

    def per_layer(self, ops, checks_by_workload, accept_share, overhead_share):
        """Per-op layer metrics for ``ops`` accepted ops of the traced phase."""
        spans = self.spans
        n = max(ops, 1)
        calls, counters = self.calls, self.counters
        m = {}

        def put(name, value, unit):
            m[name] = {"value": float(value), "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.busy_s", self.busy.get(layer, 0.0) / n, "s/op")
        put("series.mul.calls", calls["series.series_mul"] / n, "count/op")
        put("series.eval.calls", calls["series.series_eval"] / n, "count/op")
        put("symbols.lft_eval.calls", calls["symbols.lft_eval"] / n, "count/op")
        put("bergman.kernel.calls", calls["bergman.kernel"] / n, "count/op")
        put("bergman.kernel_norm_sq.terms", counters["bergman.kernel_norm_sq.terms"] / n, "count/op")
        put("bergman.beta_sq_vector.calls", calls["bergman.beta_sq_vector"] / n, "count/op")

        builds = len(self.builds)
        distinct = defaultdict(set)
        for op, key, _ in self.builds:
            distinct[op].add(key)
        build_ms = [1e3 * (end - start) for name, start, end, *_ in spans if name in BUILDS]
        put("matrices.build.calls", builds / n, "count/op")
        put("matrices.build.unique_share",
            sum(len(keys) for keys in distinct.values()) / builds if builds else 1.0, "ratio")
        put("matrices.build.ms_p50", statistics.median(build_ms) if build_ms else 0.0, "ms")
        put("matrices.build.ms_p90", _p90(build_ms) if build_ms else 0.0, "ms")
        put("matrices.build.cells", counters["matrices.build.cells"] / n, "count/op")
        put("matrices.apply.calls", calls["matrices.apply"] / n, "count/op")

        put("conjugations.make_wc_J.calls", calls["conjugations.make_wc_J"] / n, "count/op")
        put("conjugations.conjugated_adjoint.flops",
            counters["conjugations.conjugated_adjoint.flops"] / n, "flop/op")
        dims = counters["conjugations.wc_dim.count"]
        put("conjugations.wc_dim_mean",
            counters["conjugations.wc_dim.sum"] / dims if dims else 0.0, "count")

        nc = [1e3 * (end - start) for name, start, end, *_ in spans
              if name == "diagnostics.necessary_conditions_check"]
        put("diagnostics.necessary_conditions.ms_per_call", statistics.fmean(nc) if nc else 0.0, "ms")
        put("diagnostics.grid.samples", counters["diagnostics.grid.samples"] / n, "count/op")
        put("diagnostics.is_normal.flops", counters["diagnostics.is_normal.flops"] / n, "flop/op")

        put("runner.make_pair.calls", calls["runner.make_pair"] / n, "count/op")
        put("runner.draw_accept_share", accept_share, "ratio")
        check_ms = defaultdict(float)
        for name, start, end, *_ in spans:
            if name.startswith("runner.check."):
                check_ms[name[len("runner.check."):]] += 1e3 * (end - start)
        for check in sorted({c for checks in checks_by_workload for c in checks}):
            put(f"runner.check.{check}.ms_per_op", check_ms[check] / n, "ms/op")

        parse_s, report_s = self._cli_split()
        put("cli.parse_ms_per_op", 1e3 * parse_s / n, "ms/op")
        put("cli.report_ms_per_op", 1e3 * report_s / n, "ms/op")
        put("trace.overhead_share", overhead_share, "ratio")
        return m

    def _cli_split(self):
        """CLI time before and after the runner entry inside each cli.main span."""
        spans = self.spans
        first, last = {}, {}
        for span in spans:
            parent = span[3]
            if span[0] in ("runner.run", "runner.sweep") and parent >= 0 \
                    and spans[parent][0] == "cli.main":
                first.setdefault(parent, span)
                last[parent] = span
        parse = sum(first[idx][1] - spans[idx][1] for idx in first)
        report = sum(spans[idx][2] - last[idx][2] for idx in last)
        return parse, report

    def write_spans(self, path, ops):
        """One JSON line per span, then one per op (its parameters and build times)."""
        by_op = self.build_ms_by_op()
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op, leaves) in enumerate(self.spans):
                rec = {"span": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "op": op}
                if leaves:
                    rec["leaves"] = {k: {"calls": c, "s": t} for k, (c, t) in leaves.items()}
                fh.write(json.dumps(rec) + "\n")
            for op in ops:
                fh.write(json.dumps({"op": op["op"], "params": op["params"], "ms": op["ms"],
                                     "build_ms": by_op.get(op["op"], [])}) + "\n")


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]
