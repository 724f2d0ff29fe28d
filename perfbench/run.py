"""cswcd benchmark: the ``check`` and ``sweep`` uses, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wc-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of one workload with tracing
off. ``--trace 1`` measures the same rounds twice, untraced and then traced,
prints the per-layer metrics and checks that tracing changed no op's result.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details (the machine
record, failed ops, op parameters and spans) go to ``.bench_out/``.
See perfbench/README.md for the workloads and metrics.
"""

import os

# Pinned before numpy loads: defects, and so the margins, depend on the
# BLAS thread count in their last digits.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
# per-draw cost on wc-sweep in the ROADMAP's hand-measured table
# (alpha 0.5, n 2, N 96, seed 3, 10 draws)
ROADMAP_WC_MS = {"C-symmetry": 79.0, "conjugation-axioms": 35.0}

SETUP_SNIPPET = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import cswcd.cli
from cswcd.runner import parse_config
with open(sys.argv[2], encoding="utf-8") as fh:
    parse_config(json.load(fh), require_concrete=sys.argv[3] == "check")
"""


class Calibration:
    """A fixed mix of the kinds of work the workloads do, to track machine speed.

    The machine may be shared, and then its speed drifts by tens of percent
    over seconds to minutes; CPU time drifts with wall time, so the cause is
    contention for the core, not descheduling. The mix is timed between
    calls, and each call's wall time is reported at reference speed: it is
    multiplied by ``REFERENCE_S`` over the mean of the calibration times on
    either side of the call. Raw figures are kept in the detail file.
    """

    REFERENCE_S = 0.005         # a round figure near the mix's time here (README)

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        self._mat = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self._coeffs = [complex(x) for x in self._vec[:64]]
        self.last = self.measure()

    def _once(self):
        start = perf_counter()
        for _ in range(96):                     # series products
            np.convolve(self._vec, self._vec)
        for _ in range(4):                      # dense products
            self._mat @ self._mat
        for k in range(192):                    # interpreted loops
            acc = 0j
            z = 0.5 + 0.01j * k
            for c in self._coeffs:
                acc = acc * z + c
        return perf_counter() - start

    def measure(self):
        return min(self._once() for _ in range(2))

    def speed_since_last(self):
        """Reference over measured speed for the work done since the last call."""
        now = self.measure()
        speed = self.REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return speed


def measure_setup(config_path, command, calibration):
    """Median over fresh interpreters of the time to import cswcd.cli and
    load and validate the workload's config, at reference speed.
    Returns (normalized, raw) medians."""
    calibration.speed_since_last()
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path), command],
            check=True, env=os.environ, stdout=subprocess.DEVNULL, timeout=60,
        )
        elapsed = perf_counter() - start
        times.append((elapsed * calibration.speed_since_last(), elapsed))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


class Phase:
    """Rounds of one workload run back to back, with what they produced."""

    def __init__(self):
        self.wall = [0.0, 0.0]      # seconds inside cswcd.cli.main: normalized, raw
        self.op_ms = []             # (normalized, raw) per op
        self.round_statuses = []    # per round: (op, [(check, status), ...]) per op
        self.ops = []
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.redraws = 0

    def ops_per_s(self, raw=False):
        return len(self.op_ms) / self.wall[raw]

    def op_ms_values(self, raw=False):
        return [ms[raw] for ms in self.op_ms]


def run_round(workload, r, phase, calibration, tracer=None):
    statuses = []
    calibration.speed_since_last()
    for call in workload.round(r):
        result = workload.execute(call, tracer)
        speed = calibration.speed_since_last()
        phase.wall[0] += result.wall * speed
        phase.wall[1] += result.wall
        phase.op_ms += [(op["ms"] * speed, op["ms"]) for op in result.ops]
        statuses += [(op["op"], [row[:2] for row in op["checks"]]) for op in result.ops]
        phase.ops += result.ops
        phase.failures += result.failures
        phase.attempted += result.attempted
        phase.redraws += result.redraws
        labels = {f["op"] for f in result.failures}
        # a failure of the call itself (exit code, aggregate) fails all its ops
        phase.failed += result.attempted if call.label in labels else len(labels)
    phase.round_statuses.append(statuses)


def run_rounds(workload, seconds, calibration, tracer=None):
    """Run whole blocks of rounds until ``seconds`` have passed.

    With a tracer, each round runs untraced and then traced, for twice the
    time, so that both sides see the same load on the machine.
    """
    plain = Phase()
    traced = Phase() if tracer is not None else None
    start = perf_counter()
    r = 0
    while True:
        run_round(workload, r, plain, calibration)
        if tracer is not None:
            tracer.install()
            try:
                run_round(workload, r, traced, calibration, tracer)
            finally:
                tracer.uninstall()
        r += 1
        if r % workload.block_rounds == 0 and \
                perf_counter() - start >= (2 if tracer is not None else 1) * seconds:
            return plain, traced


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def machine_record():
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cswcd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    record = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "source_sha256": digest.hexdigest(),
        "git_sha": None,
        "git_dirty": None,
    }
    if not (ROOT / ".git").exists():
        return record                   # the benchmark runs from an exported tree
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if sha.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
            record["git_sha"] = sha.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass                            # no usable git
    return record


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(workload, phase, calibration, raw, min_margin):
    config_path, command = workload.setup_config()
    setup_s, raw["setup_s_raw"] = measure_setup(config_path, command, calibration)
    ms = phase.op_ms_values()
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(phase.ops_per_s(), "1/s"),
        "op_ms_p50": metric(statistics.median(ms), "ms"),
        "op_ms_p90": metric(p90(ms), "ms"),
        "min_margin_decades": metric(min_margin, "decades"),
        "pass_share": metric(1 - phase.failed / max(phase.attempted, 1), "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cswcd" / "cli.py").is_file():
        sys.stderr.write(f"no cswcd sources under {SRC}; run from the root of a checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    machine = machine_record()

    # warm-up: lazy imports and first-call costs, not timed
    workload.execute(workload.round(0)[0])
    tracer = tracing.Tracer() if args.trace else None
    calibration = Calibration()
    untraced, traced = run_rounds(workload, args.seconds, calibration, tracer)
    if not untraced.ops:
        for f in untraced.failures[:50]:
            sys.stderr.write(f"FAILED op={f['op']} check={f['check']}: {f['detail']}\n")
        sys.stderr.write("no op completed; no metric can be measured\n")
        return 1
    accuracy, structural = workloads.margins(untraced.ops)
    phases = [untraced]
    extra = {}
    raw = {}                            # unnormalized wall-time figures
    if args.trace:
        phases.append(traced)
        # tracing must not change any op's result: same accepted draws, same statuses
        for r, (plain, seen) in enumerate(zip(untraced.round_statuses, traced.round_statuses)):
            if plain != seen:
                traced.failures.append(workload.failure(
                    f"round {r}", "trace", f"untraced {plain} traced {seen}"))
                traced.failed += len(seen)
        accepted = len(traced.ops)
        metrics = tracer.per_layer(
            accepted,
            [w.checks for w in workloads.WORKLOADS.values()],
            accepted / (accepted + traced.redraws) if accepted else 1.0,
            1 - traced.ops_per_s() / untraced.ops_per_s(),
        )
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path, traced.ops)
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = end_to_end(workload, untraced, calibration, raw, accuracy)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    ops = untraced.ops
    summary = {
        "ops": len(ops),
        "rounds": len(untraced.round_statuses),
        "ops_per_s_raw": untraced.ops_per_s(raw=True),
        "op_ms_p50_raw": statistics.median(untraced.op_ms_values(raw=True)),
        "op_ms_p90_raw": p90(untraced.op_ms_values(raw=True)),
        "speed": untraced.wall[1] / untraced.wall[0],
        **raw,
        "failed_share": failed / max(attempted, 1),
        "min_margin_decades": accuracy,
        "structural_margin_decades": structural,
        "small_c_share": workloads.small_c_share(ops),
        "redraws": untraced.redraws,
    }

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {failed} failed")
    print("machine: " + json.dumps(machine, sort_keys=True))
    for f in failures[:50]:                 # all of them are in the detail file
        print(f"FAILED workload={f['workload']} seed={f['seed']} op={f['op']} "
              f"check={f['check']}: {f['detail']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    for name, value in summary.items():
        print(f"  ({name}) {value if value is None else format(value, '.6g')}")
    if args.trace and workload.name == "wc-sweep":
        for check, ms in ROADMAP_WC_MS.items():
            traced_ms = metrics[f"runner.check.{check}.ms_per_op"]["value"]
            print(f"  cross-check: traced {check} {traced_ms:.1f} ms/op, "
                  f"ROADMAP table {ms:.0f} ms/draw")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=machine, summary=summary,
                  failures=failures, ops=ops,
                  **extra)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, sort_keys=True, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
