"""Command line front end.

Subcommands:

* ``dsm run`` -- run an experiment preset (optionally overridden by flags
  or a config file), print the result table, optionally write CSV.
* ``dsm dump-solution`` -- run the one (delta_rel, seed) cell its config
  names and write the reconstructed solution next to the exact one, node
  by node.
* ``dsm verify-lemmas`` -- run the analytic checks and report margins.

``run`` and ``dump-solution`` take the same flags: ``--config`` and one
``--<key>`` for each config key, its underscores written as dashes.  A flag
and a config-file line set a key through the same parser.  Both subcommands
resolve their config alike: the preset, then the config file, then the
flags given, each winning over the one before.  A dump needs exactly one
``delta_rel`` and one ``seeds`` value, and an ``out`` path.

Exit codes: 0 success, 1 divergent run or failed check, 2 invalid
configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import EXACT_KINDS, NOISE_KINDS, PRESETS, emit_csv, format_table
from .harness import run_experiment, run_solution_dump
from .operators import MODEL_KINDS
from .regsolve import ConvergenceError, SingularShiftError

__all__ = ["main"]

def _comma_list(kind):
    """Parser for comma-separated values such as ``0.01, 0.001``."""

    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(",") if part.strip())

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


# config key -> (parser of its string value, help); the config-file line
# ``key = value`` and the flag ``--key value`` (underscores as dashes) set
# the key through the same parser, so both reject the same input
_CONFIG_KEYS = {
    "preset": (str, f"experiment preset: {', '.join(sorted(PRESETS))} (default exp1)"),
    "model": (str, f"operator model: {', '.join(MODEL_KINDS)}"),
    "exact": (str, f"exact solution: {', '.join(EXACT_KINDS)}"),
    "n_points": (int, "grid size"),
    "c0": (float, "schedule amplitude C0 in a_n = C0 delta^p / (n + shift)"),
    "p": (float, "schedule exponent p"),
    "shift": (int, "schedule shift"),
    "delta_rel": (_comma_list(float), "comma-separated relative noise levels"),
    "seeds": (_comma_list(int), "comma-separated noise seeds"),
    "noise": (str, f"noise kind: {', '.join(NOISE_KINDS)}"),
    "mode": (str, "driver: iterate, euler"),
    "h": (float, "Euler step size (mode euler only)"),
    "stop_c": (float, "stopping constant C"),
    "gamma": (float, "stopping exponent"),
    "max_iter": (int, "step cap of a run"),
    "out": (str, "output CSV path"),
}


def _coerce(key: str, value: str):
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _CONFIG_KEYS[key][0](value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skip.

    Values stay strings; :func:`_resolve` coerces them per key.  A key set
    twice raises ``ValueError`` naming both lines.
    """
    options, seen = {}, {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: empty key or value")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {seen[key]}")
            options[key], seen[key] = value, lineno
    return options


def _build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="config file with 'key = value' lines")
    for key, (parse, text) in _CONFIG_KEYS.items():
        config.add_argument("--" + key.replace("_", "-"), type=parse, help=text)

    parser = argparse.ArgumentParser(
        prog="dsm",
        description="Iteratively regularized solver for nonlinear integral equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", parents=[config], help="run an experiment preset")
    run.set_defaults(func=_cmd_run)
    dump = sub.add_parser("dump-solution", parents=[config],
                          help="write one reconstructed solution as CSV")
    dump.set_defaults(func=_cmd_dump)

    verify = sub.add_parser("verify-lemmas", help="run the analytic checks")
    verify.add_argument("--model", choices=MODEL_KINDS,
                        help="restrict checks to one model (default: identity, arctan3, cubic)")
    verify.add_argument("--out", help="write check reports to this CSV file")
    verify.set_defaults(func=_cmd_verify)
    return parser


def _resolve(args):
    """The (config, out) a subcommand runs with.

    The preset (default ``exp1``), then the config file, then the flags
    given, each winning over the one before; ``preset`` itself follows the
    same order.  ``out`` is an option, not a config field.
    """
    options = {}
    if args.config:
        options = {k: _coerce(k, v) for k, v in load_config_file(args.config).items()}
    options.update((k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None)
    preset = options.pop("preset", "exp1")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    out = options.pop("out", None)
    return PRESETS[preset].override(**options), out


def _cmd_run(args) -> int:
    config, out = _resolve(args)
    rows = run_experiment(config)
    print(format_table(rows))
    if out:
        emit_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0 if all(r.stopped for r in rows) else 1


def _cmd_dump(args) -> int:
    config, out = _resolve(args)
    if out is None:
        raise ValueError("dump-solution needs an output path: --out or the config key 'out'")
    cell, _ = run_solution_dump(config, out)
    print(f"wrote {cell.row.n_points} nodes to {out}", file=sys.stderr)
    return 0 if cell.row.stopped else 1


def _cmd_verify(args) -> int:
    # imported here, not at the top: the checks are only this subcommand's,
    # and a run or a dump need not load them
    from .checks import format_reports, reports_to_csv, run_lemma_suite

    reports = run_lemma_suite((args.model,)) if args.model else run_lemma_suite()
    print(format_reports(reports))
    if args.out:
        reports_to_csv(reports, args.out)
        print(f"wrote {len(reports)} reports to {args.out}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, SingularShiftError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
