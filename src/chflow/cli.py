"""Command line interface.

Subcommands:
  run    execute a scenario from a config file and/or preset
  suite  run one of the named experiment suites (convergence, stability,
         persistence, friedrichs)
  check  validate a config file without running it

A bad field fails before anything is written: ``run_scenario`` builds the
scenario, which validates it, before it creates the output directory.

``run`` prints one line per diagnostic: ``name: pass (value=...)`` or
``name: skipped``; a failed check adds its value and tolerance,
``name: fail (value=..., tolerance=...)``, and a diagnostic that raised its
exception type and message, ``name: error (ErrorType: message)``.

Exit codes: 0 completed (a recorded blow-up still counts as completed, and
``suite`` exits 0 whether it prints pass or FAIL), 1 configuration error,
2 command-line usage error (from argparse) or internal error, printed as
``internal error: <exception type>: <message>``.
"""

import argparse
import numbers
import sys
from dataclasses import replace

from .harness import (
    PRESETS,
    SUITES,
    ConfigurationError,
    Scenario,
    parse_config,
    run_scenario,
    run_suite,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chflow",
        description="Pseudo-spectral simulator and verification harness for "
        "two-component Camassa-Holm systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("--config", help="key = value config file")
    p_run.add_argument("--preset", help="named preset scenario")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--n", type=int, help="override grid point count")
    p_run.add_argument("--L", type=float, help="override domain half length")
    p_run.add_argument("--tfinal", dest="t_final", metavar="TFINAL", type=float,
                       help="override final time")
    p_run.add_argument("--cfl", type=float, help="override Courant factor")

    p_suite = sub.add_parser("suite", help="run an experiment suite")
    p_suite.add_argument("name", help=f"one of {sorted(SUITES)}")
    p_suite.add_argument("--out", default="out", help="output directory")

    p_check = sub.add_parser("check", help="validate a config file")
    p_check.add_argument("config")
    return parser


def _scenario_from_args(args) -> Scenario:
    if not args.config and not args.preset:
        raise ConfigurationError(["provide --config and/or --preset"])
    base = None
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigurationError(
                [f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}"]
            )
        base = PRESETS[args.preset]
    scenario = parse_config(args.config, base=base) if args.config else base
    fields = ("n", "L", "t_final", "cfl")
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    return replace(scenario, **overrides)


def _number(value):
    return f"{value:.3e}" if isinstance(value, numbers.Real) else str(value)


def _summary_detail(entry):
    """What a diagnostic's summary line adds to its status: why it did not
    pass, or the value it passed with."""
    status = entry.get("status")
    if status == "error":
        return f" ({entry.get('error_type')}: {entry.get('detail')})"
    if status == "fail":
        value, tol = (_number(entry.get(key)) for key in ("value", "tolerance"))
        return f" (value={value}, tolerance={tol})"
    if entry.get("value") is not None:
        return f" (value={_number(entry['value'])})"
    return ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = _scenario_from_args(args)
            manifest = run_scenario(scenario, args.out)
            print(f"outcome: {manifest['outcome']}")
            for name, entry in manifest["invariants"].items():
                print(f"  {name}: {entry.get('status', '?')}{_summary_detail(entry)}")
            print(f"wrote {len(manifest['outputs']) + 1} files to {args.out}")
            return 0
        if args.command == "suite":
            report = run_suite(args.name, args.out)
            print(f"suite {args.name}: {'pass' if report.get('pass') else 'FAIL'}")
            return 0
        if args.command == "check":
            parse_config(args.config)
            print("config ok")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        for err in exc.errors:
            print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
