"""Command-line entry point.

Subcommands:
    check <config.json>                       run configured checks
    sweep <config.json> --draws K --seed S    aggregate over random draws
    grid <config.json> --out DIR              write grid CSVs per check
    export-matrix <config.json> --out FILE    dump the operator matrix

Exit codes: 0 all pass, 1 any check failure, 2 configuration error
(``{error, path}`` on stderr: an invalid argument or config, a non-finite
number anywhere in the config, a config that cannot be read or is not UTF-8
at ``$``, and a report, sidecar, grid or matrix that cannot be written at
its flag), 3 everything unverified (boundedness gates refused every check,
or a closed form, series or matrix overflowed; ``export-matrix`` writes
``unverified: ...`` on stderr), 4 internal error (traceback on stderr).
``check`` and ``sweep`` need at least one check. A sweep needs --draws >= 1
and a seed in 0..2^64 - 1, and applies the same rule to its status counts
summed over draws and checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from .diagnostics import export_grid_csv
from .errors import ConfigError, NonFiniteError, UnboundedSymbolError
from .matrices import export_matrix_csv
from .runner import (
    CHECK_RECORDS,
    RunConfig,
    _check_grid,
    canonical_json,
    check_report_document,
    grid_report,
    parse_config,
    parse_seed,
    run,
    sweep,
    sweep_report_document,
    timing_sidecar,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_UNVERIFIED = 3
EXIT_INTERNAL = 4


def _load_config(path: str, require_concrete: bool = True) -> RunConfig:
    # the config is read, and reports are written, as bytes: pathlib and the
    # text layer cost each call about as much as the file operations
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode("utf-8"))
    except FileNotFoundError:
        raise ConfigError("$", f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError("$", f"cannot read config file {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError("$", f"config file {path} is not UTF-8: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"invalid JSON: {exc}")
    return parse_config(doc, require_concrete=require_concrete)


@contextlib.contextmanager
def _writing(flag: str, path):
    """A failed write of the file or directory that flag names is a ConfigError there."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(flag, f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None, flag: str = "--out"):
    if out:
        with _writing(flag, out), open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _exit_code(counts: Counter) -> int:
    """Exit code from status counts: any fail, else unverified with no pass."""
    if counts["fail"]:
        return EXIT_FAIL
    if counts["unverified"] and not counts["pass"]:
        return EXIT_UNVERIFIED
    return EXIT_PASS


def _require_checks(config: RunConfig) -> RunConfig:
    """``check`` and ``sweep`` run at least one check; ``export-matrix`` needs none."""
    if not config.checks:
        raise ConfigError("checks", "no checks configured")
    return config


def _cmd_check(args) -> int:
    config = _require_checks(_load_config(args.config))
    reports = run(config)
    _emit(canonical_json(check_report_document(config, reports)), args.out)
    if args.timings:
        _emit(canonical_json(timing_sidecar(reports)), args.timings, "--timings")
    return _exit_code(Counter(r.status for r in reports))


def _cmd_sweep(args) -> int:
    if args.draws < 1:
        raise ConfigError("--draws", f"expected at least 1 draw, got {args.draws}")
    config = _require_checks(_load_config(args.config, require_concrete=False))
    seed = config.seed if args.seed is None else parse_seed(args.seed, "--seed")
    aggregate = sweep(config, args.draws, seed)
    _emit(canonical_json(sweep_report_document(config, aggregate, args.draws, seed)), args.out)
    counts = Counter()
    for slot in aggregate["checks"].values():
        counts.update({status: slot[status] for status in ("pass", "fail", "unverified")})
    return _exit_code(counts)


def _cmd_grid(args) -> int:
    config = _load_config(args.config)
    grid_checks = [name for name in config.checks if CHECK_RECORDS[name].rule is _check_grid]
    if not grid_checks:
        raise ConfigError("checks", "no grid checks configured")
    out_dir = Path(args.out)
    with _writing("--out", out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    counts = Counter()
    for name in grid_checks:
        report = grid_report(config, name)
        if not np.all(np.isfinite(report.values)):
            sys.stderr.write(f"unverified: {name}: non-finite samples\n")
            counts["unverified"] += 1
            continue
        with _writing("--out", out_dir):
            export_grid_csv(report, out_dir / f"{name}.csv")
        counts["pass"] += 1
    return _exit_code(counts)


def _cmd_export_matrix(args) -> int:
    config = _load_config(args.config)
    try:
        # an overflow is refused as a matrix that is not finite, not warned about
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            matrix = config.matrix
    except (UnboundedSymbolError, NonFiniteError) as exc:
        sys.stderr.write(f"unverified: {exc}\n")
        return EXIT_UNVERIFIED
    with _writing("--out", args.out):
        export_matrix_csv(matrix, args.out)
    return EXIT_PASS


def build_parser(commands: dict | None = None) -> argparse.ArgumentParser:
    """The top-level parser; ``commands``, if given, receives each
    subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="cswcd",
        description="Checks for weighted composition-differentiation operators "
        "on weighted Bergman spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the configured checks")
    p_check.add_argument("config")
    p_check.add_argument("--out", help="write the report JSON here instead of stdout")
    p_check.add_argument("--timings", help="write wall-time sidecar JSON here")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="aggregate checks over random draws")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--draws", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_sweep.add_argument("--out", help="write the report JSON here instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_grid = sub.add_parser("grid", help="write grid CSVs for the configured grid checks")
    p_grid.add_argument("config")
    p_grid.add_argument("--out", required=True, help="output directory")
    p_grid.set_defaults(func=_cmd_grid)

    p_export = sub.add_parser("export-matrix", help="dump the operator matrix as CSV")
    p_export.add_argument("config")
    p_export.add_argument("--out", required=True, help="output CSV path")
    p_export.set_defaults(func=_cmd_export_matrix)

    if commands is not None:
        commands.update({"check": p_check, "sweep": p_sweep, "grid": p_grid,
                         "export-matrix": p_export})
    return parser


@functools.cache
def _parsers() -> tuple:
    """The parser and its subcommands' parsers by name, built on the first
    ``main`` call and kept for the process: building them costs more than
    most checks."""
    commands = {}
    return build_parser(commands), commands


def _parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)`` in one argparse pass where it can.

    The top-level parser would parse the arguments twice: once itself and
    once in the subcommand's parser, which its subparsers action calls. So
    the named subcommand's parser reads them alone, into a namespace that
    already holds ``command``. When ``argv[0]`` names no subcommand, or the
    subcommand leaves arguments it does not know, the top-level parser runs
    instead, so every usage line, error text and exit code is its own.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, unknown = commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not unknown:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(
            canonical_json({"error": str(exc), "path": exc.path})
        )
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
