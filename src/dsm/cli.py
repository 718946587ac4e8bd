"""Command line front end.

Subcommands:

* ``dsm run`` -- run an experiment preset (optionally overridden by flags
  or a config file), print the result table, optionally write CSV.
* ``dsm dump-solution`` -- run one (delta_rel, seed) cell and write the
  reconstructed solution next to the exact one, node by node.
* ``dsm verify-lemmas`` -- run the analytic checks and report margins.

``run`` and ``dump-solution`` resolve their config alike: the preset, then
the config file, then the flags given, each winning over the one before.
The config-file key ``seed`` picks ``dump-solution``'s one cell; ``run``
takes ``seeds`` and rejects ``seed`` as an invalid configuration.

Exit codes: 0 success, 1 divergent run or failed check, 2 invalid
configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .harness import NOISE_KINDS, PRESETS, emit_csv, format_table, run_experiment, run_solution_dump
from .operators import MODEL_KINDS
from .regsolve import ConvergenceError, SingularShiftError

__all__ = ["main"]

def _comma_list(kind):
    """Parser for comma-separated values such as ``0.01, 0.001``.  The same
    parser reads a flag and a config-file value, so both reject the same
    input with ValueError."""

    def parse(text: str) -> tuple:
        return tuple(kind(part) for part in text.split(",") if part.strip())

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


# config key -> parser of its string value in a config file; a flag whose
# argparse dest is a key sets that key
_CONFIG_KEYS = {
    **dict.fromkeys(("n_points", "shift", "max_iter", "seed"), int),
    **dict.fromkeys(("c0", "p", "h", "stop_c", "gamma"), float),
    "delta_rel": _comma_list(float),
    "seeds": _comma_list(int),
    **dict.fromkeys(("preset", "model", "exact", "noise", "mode", "out"), str),
}


def _coerce(key: str, value: str):
    if key not in _CONFIG_KEYS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return _CONFIG_KEYS[key](value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skip.

    Values stay strings; :func:`_resolve` coerces them per key.
    """
    options = {}
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
            options[key] = value
    return options


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsm",
        description="Iteratively regularized solver for nonlinear integral equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
    run.add_argument("--config", help="config file with 'key = value' lines")
    run.add_argument("--n-points", type=int, dest="n_points", help="grid size")
    run.add_argument("--c0", type=float, help="schedule amplitude C0")
    run.add_argument("--delta-rel", type=_CONFIG_KEYS["delta_rel"], dest="delta_rel",
                     help="comma-separated relative noise levels")
    run.add_argument("--seeds", type=_CONFIG_KEYS["seeds"], help="comma-separated noise seeds")
    run.add_argument("--mode", choices=("iterate", "euler"), help="driver to use")
    run.add_argument("--h", type=float, help="Euler step size")
    run.add_argument("--gamma", type=float, help="stopping exponent")
    run.add_argument("--stop-c", type=float, dest="stop_c", help="stopping constant C")
    run.add_argument("--noise", choices=NOISE_KINDS, help="noise kind")
    run.add_argument("--out", help="write result rows to this CSV file")
    run.set_defaults(func=_cmd_run)

    dump = sub.add_parser("dump-solution", help="write one reconstructed solution as CSV")
    dump.add_argument("--preset", choices=sorted(PRESETS), help="experiment preset")
    dump.add_argument("--config", help="config file with 'key = value' lines")
    dump.add_argument("--delta-rel", type=_CONFIG_KEYS["delta_rel"], dest="delta_rel",
                      required=True, help="relative noise level of the cell")
    dump.add_argument("--seed", type=int, help="noise seed (default: the config's first)")
    dump.add_argument("--out", required=True, help="output CSV path")
    dump.set_defaults(func=_cmd_dump)

    verify = sub.add_parser("verify-lemmas", help="run the analytic checks")
    verify.add_argument("--model", choices=MODEL_KINDS,
                        help="restrict checks to one model (default: identity, arctan3, cubic)")
    verify.add_argument("--out", help="write check reports to this CSV file")
    verify.set_defaults(func=_cmd_verify)
    return parser


def _resolve(args):
    """The (config, out, seed) a subcommand runs with.

    The preset (default ``exp1``), then the config file, then the flags
    given, each winning over the one before; ``preset`` itself follows the
    same order.  ``out`` and ``seed`` are options, not config fields.
    """
    options = {}
    if args.config:
        options = {k: _coerce(k, v) for k, v in load_config_file(args.config).items()}
    options.update(
        (k, v) for k, v in vars(args).items() if k in _CONFIG_KEYS and v is not None
    )
    preset = options.pop("preset", "exp1")
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    out = options.pop("out", None)
    seed = options.pop("seed", None)
    return PRESETS[preset].override(**options), out, seed


def _cmd_run(args) -> int:
    config, out, seed = _resolve(args)
    if seed is not None:
        raise ValueError("config key 'seed' is dump-solution's; run takes 'seeds'")
    rows = run_experiment(config)
    print(format_table(rows))
    if out:
        emit_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0 if all(r.stopped for r in rows) else 1


def _cmd_dump(args) -> int:
    config, out, seed = _resolve(args)
    if len(config.delta_rel) != 1:
        raise ValueError(f"dump-solution runs one cell; got delta_rel {config.delta_rel}")
    cell, _ = run_solution_dump(config, config.delta_rel[0], seed=seed, out=out)
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
