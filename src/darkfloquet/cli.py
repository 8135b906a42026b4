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
from .evolve import _hold
from .harness import (ExperimentConfig, run_dynamics, run_effective_compare,
                      run_floquet_sweep, run_min_pop_sweep, run_properties)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_ratio_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        count = -1
    # a negative count, NaN, inf, or a span past float range
    if count < 0 or not np.isfinite(hi - lo):
        raise ConfigError(f"bad --ratio-grid {spec!r}, expected lo:hi:count")
    _hold(count, "the ratio grid")
    return np.linspace(lo, hi, count)


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="number of levels")
    parser.add_argument("--v", type=float, help="coupling constant")
    parser.add_argument("--omega", type=float, help="drive frequency")
    parser.add_argument("--amplitude", type=float, help="drive amplitude A")
    parser.add_argument("--ratio-grid", type=str, metavar="LO:HI:COUNT",
                        help="grid of A/omega values (default 0:5:201 for sweeps)")
    parser.add_argument("--periods", type=int,
                        help="horizon in driving periods (dynamics, sweep-min-pop)")
    parser.add_argument("--steps-per-period", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=str, help="output CSV path")
    parser.add_argument("--svg", action="store_true",
                        help="also write an SVG line plot next to the CSV")
    parser.add_argument("--no-timestamp", dest="timestamp", action="store_false",
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
        # a flag left out stays unset; a flag's dest is its config field
        p = sub.add_parser(name, help=descr,
                           argument_default=argparse.SUPPRESS)
        _add_shared(p)
        if name == "properties":
            p.add_argument("--trials", type=int, dest="property_trials",
                           metavar="TRIALS")
            p.add_argument("--n-list", type=str, dest="property_n_range",
                           metavar="N_LIST", help="comma-separated matrix sizes")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    kwargs = vars(args)
    experiment = kwargs.pop("command")
    if "ratio_grid" in kwargs:
        kwargs["ratio_grid"] = _parse_ratio_grid(kwargs["ratio_grid"])
    if "property_n_range" in kwargs:
        spec = kwargs["property_n_range"]
        try:
            kwargs["property_n_range"] = tuple(int(x) for x in spec.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad --n-list {spec!r}") from exc
    return ExperimentConfig(experiment, **kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.experiment == "dynamics":
            path = run_dynamics(config)
        elif config.experiment == "sweep-min-pop":
            path = run_min_pop_sweep(config)
        elif config.experiment == "floquet-sweep":
            path = run_floquet_sweep(config)
        elif config.experiment == "effective-compare":
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
