"""Command-line entry point.

Subcommands: dynamics, sweep-min-pop, floquet-sweep, effective-compare,
properties. Exit codes: 0 success, 1 property violation, 2 invalid config,
3 numerical-quality failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, NumericalQualityError
from .harness import (ExperimentConfig, run_dynamics, run_effective_compare,
                      run_floquet_sweep, run_min_pop_sweep, run_properties)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_ratio_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        grid = np.linspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad --ratio-grid {spec!r}, expected lo:hi:count") from exc
    return grid


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=3, help="number of levels")
    parser.add_argument("--v", type=float, default=1.0, help="coupling constant")
    parser.add_argument("--omega", type=float, default=10.0, help="drive frequency")
    parser.add_argument("--amplitude", type=float, default=None,
                        help="drive amplitude A")
    parser.add_argument("--ratio-grid", type=str, default=None, metavar="LO:HI:COUNT",
                        help="grid of A/omega values (default 0:5:201 for sweeps)")
    parser.add_argument("--periods", type=int, default=None,
                        help="horizon in driving periods (dynamics, sweep-min-pop)")
    parser.add_argument("--steps-per-period", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None, help="output CSV path")
    parser.add_argument("--svg", action="store_true",
                        help="also write an SVG line plot next to the CSV")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp comment (byte-reproducible output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkfloquet",
        description="Floquet spectra and tunneling suppression in driven "
                    "N-level chains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in [
        ("dynamics", "propagate (1,0,...,0) and record populations"),
        ("sweep-min-pop", "minimum of P1 versus A/omega"),
        ("floquet-sweep", "quasi-energies and mode populations versus A/omega"),
        ("effective-compare", "quasi-energies versus effective eigenvalues"),
        ("properties", "verify the effective-matrix spectral properties"),
    ]:
        p = sub.add_parser(name, help=descr)
        _add_shared(p)
        if name == "properties":
            p.add_argument("--trials", type=int, default=100)
            p.add_argument("--n-list", type=str, default="2,3,4,5,6,7,8,9,10,11",
                           help="comma-separated matrix sizes")
    return parser


_DEFAULT_OUT = {
    "dynamics": "dynamics.csv",
    "sweep-min-pop": "min_pop.csv",
    "floquet-sweep": "floquet.csv",
    "effective-compare": "effective_compare.csv",
    "properties": "properties.json",
}


def _config_from_args(args) -> ExperimentConfig:
    kwargs = dict(
        experiment=args.command,
        n=args.n, v=args.v, omega=args.omega,
        amplitude=args.amplitude,
        steps_per_period=args.steps_per_period,
        seed=args.seed,
        out=args.out or _DEFAULT_OUT[args.command],
        svg=args.svg,
        timestamp=not args.no_timestamp,
    )
    if args.ratio_grid is not None:
        kwargs["ratio_grid"] = _parse_ratio_grid(args.ratio_grid)
    if args.periods is not None:
        kwargs["periods"] = args.periods
    if args.command == "properties":
        kwargs["property_trials"] = args.trials
        try:
            kwargs["property_n_range"] = tuple(
                int(x) for x in args.n_list.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {args.n_list!r}") from exc
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "dynamics":
            path = run_dynamics(config)
        elif args.command == "sweep-min-pop":
            path = run_min_pop_sweep(config)
        elif args.command == "floquet-sweep":
            path = run_floquet_sweep(config)
        elif args.command == "effective-compare":
            path = run_effective_compare(config)
        else:
            code = run_properties(config)
            print(f"property report written to {config.out.with_suffix('.txt')} "
                  f"and {config.out.with_suffix('.json')}")
            return EXIT_VIOLATION if code else EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalQualityError as exc:
        print(f"numerical-quality failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
