"""Command-line entry point.

Four subcommands share the same inputs (a store CSV and a JSON run config)
and write their reports into an output directory:

  mktsens state --stores stores.csv --config run.json --out reports/
  mktsens firm  ...
  mktsens local ...
  mktsens hasse ... [--format dot|json]

Exit codes: 0 success, 2 configuration or usage error (including an output
directory that cannot be written), 3 data validation error, 4 capacity
(enumeration limit) error.
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from pathlib import Path

from .config import load_config
from .errors import CapacityError, ConfigError, DataError
from .ingest import load_stores, logger as ingest_logger
from .reports import (
    run_firm_level,
    run_local,
    run_state,
    state_diagram,
    write_firm_report,
    write_hasse_report,
    write_local_report,
    write_state_report,
)

# What the imports built lives until exit. Frozen, no collection walks it, and
# shutdown leaves it to the OS instead of freeing it object by object.
gc.freeze()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mktsens",
        description="Sensitivity analysis of antitrust market definitions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    commands = {
        "state": "state-level exclusion-lattice analysis",
        "firm": "firm-level power analysis over named chains",
        "local": "circle-market sweep around defendant stores",
        "hasse": "emit only the annotated Hasse diagram",
    }
    for name, help_text in commands.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--stores", required=True, help="store CSV path")
        sub.add_argument("--config", required=True, help="run config JSON path")
        sub.add_argument("--out", required=True, help="output directory")
        if name == "hasse":
            sub.add_argument(
                "--format",
                choices=("dot", "json"),
                help="emit a single format (default: both)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    # Ingest's record waits until the run succeeds: a failure prints one line.
    held: list[logging.LogRecord] = []
    ingest_logger.addFilter(held.append)
    try:
        config = load_config(args.config)
        universe = load_stores(
            args.stores,
            drop_formats=config.drop_formats,
            region=config.region_filter,
        )
        out = Path(args.out)
        if args.command == "state":
            paths = write_state_report(run_state(config, universe), out)
        elif args.command == "firm":
            paths = write_firm_report(run_firm_level(config, universe), out)
        elif args.command == "local":
            paths = write_local_report(run_local(config, universe), out)
        else:
            paths = write_hasse_report(
                state_diagram(config, universe),
                out,
                (args.format,) if args.format else ("dot", "json"),
            )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    finally:
        ingest_logger.removeFilter(held.append)
    for record in held:
        ingest_logger.handle(record)
    for path in paths:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
