"""Command-line entry point.

Subcommands: gen (write an instance file), run (a single strategy run),
sweep (strategies x budgets x seeds grid), nu-solve (relevance vectors of
an instance), verify (numerical property suite). Exit codes: 0 success,
1 property failure, 2 usage or config error, 3 I/O error.
"""

import argparse
import json
import sys

from .harness import (ConfigError, cmd_gen, cmd_nu_solve, cmd_run,
                      cmd_verify, json_default, load_config, run_sweep)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="amtrl",
        description="active multi-task sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
            ("gen", "generate an instance file from a config"),
            ("run", "run the first strategy at the first budget, seed 0"),
            ("sweep", "run the full strategies x budgets x seeds grid"),
            ("nu-solve", "solve an instance's relevance vectors")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory")

    v = sub.add_parser("verify", help="run the numerical property suite")
    v.add_argument("--level", choices=("fast", "full"), default="fast")
    v.add_argument("--out", default=None, help="directory for verify.json")
    v.add_argument("--tolerance", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="override one property tolerance (repeatable)")
    return parser


def _parse_tolerances(pairs):
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"tolerance value {value!r} is not a number")
    return out


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            report, code = cmd_verify(args.level,
                                      _parse_tolerances(args.tolerance),
                                      out_dir=args.out)
            json.dump(report, sys.stdout, indent=2, default=json_default)
            sys.stdout.write("\n")
            if code != 0:
                failing = [p["name"] for p in report["properties"]
                           if not p["passed"]]
                print(f"FAILED properties: {', '.join(failing)}",
                      file=sys.stderr)
            return code

        cfg = load_config(args.config)
        if args.command == "gen":
            path = cmd_gen(cfg, out_dir=args.out)
            print(path)
            return 0
        if args.command == "run":
            row, path = cmd_run(cfg, out_dir=args.out)
            print(json.dumps(row))
            return 0 if row["status"] == "ok" else 1
        if args.command == "sweep":
            rows, summary = run_sweep(cfg, out_dir=args.out)
            n_ok = sum(1 for r in rows if r["status"] == "ok")
            print(f"{len(rows)} runs ({n_ok} ok), "
                  f"{len(summary)} summary rows")
            return 0
        if args.command == "nu-solve":
            report = cmd_nu_solve(cfg, out_dir=args.out)
            json.dump(report, sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
