"""Command line front end: run one scenario, sweep a parameter, or map a
stored state's Wigner function.

Exit codes: 0 on success, 2 for configuration problems (bad files, keys,
values, unknown presets), 3 for numerical failures (truncation overflow,
invariant violations, non-convergence).  The CAVRES_THREADS environment
variable caps BLAS threads (applied on package import) and sets the worker
count for sweeps.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .fock import StateInvariantError, TruncationError, validate_density
from .dynamics import ConvergenceError, ScheduleError, ZeroDetuningError
from .reservoir import TrajectoryError
from . import metrics as met
from . import scenarios as sc

_NUMERICAL_ERRORS = (
    TruncationError,
    StateInvariantError,
    TrajectoryError,
    ConvergenceError,
    ScheduleError,
    ZeroDetuningError,
    FloatingPointError,
    np.linalg.LinAlgError,
)


def _worker_count() -> int:
    raw = os.environ.get("CAVRES_THREADS")
    if raw is None:
        return 1
    try:
        count = int(raw)
    except ValueError:
        raise sc.ConfigError(f"CAVRES_THREADS must be an integer, got {raw!r}") from None
    if count < 1:
        raise sc.ConfigError("CAVRES_THREADS must be >= 1")
    return count


def _add_scenario_flags(p: argparse.ArgumentParser, run_only: bool) -> None:
    p.add_argument("--config", metavar="FILE", help="configuration file")
    p.add_argument(
        "--preset", choices=sc.PRESET_NAMES, help="built-in scenario to start from"
    )
    p.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )
    p.add_argument("--out", metavar="DIR", help="output directory")
    p.add_argument(
        "--no-loss", action="store_true", help="disable cavity relaxation"
    )
    if run_only:
        p.add_argument("--seed", type=int, metavar="N", help="random seed")
        p.add_argument(
            "--backend",
            choices=("numeric", "analytic"),
            help="transit propagation backend",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavres",
        description="Atomic-reservoir stabilization of non-classical cavity fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    _add_scenario_flags(p_run, run_only=True)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="run a scenario once per value of one parameter"
    )
    _add_scenario_flags(p_sweep, run_only=False)
    p_sweep.add_argument(
        "--param", required=True, metavar="KEY", help="configuration key to vary"
    )
    p_sweep.add_argument(
        "--values",
        required=True,
        metavar="LIST",
        help="comma-separated values, each in the key's configuration syntax",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_wig = sub.add_parser(
        "wigner", help="Wigner map of a stored density matrix, to stdout"
    )
    p_wig.add_argument(
        "--state", required=True, metavar="FILE", help="state_final.txt to read"
    )
    p_wig.add_argument(
        "--grid",
        required=True,
        metavar="XMIN:XMAX:STEP",
        help="square grid spec; write --grid=-3:3:0.1 when XMIN is negative",
    )
    p_wig.set_defaults(func=cmd_wigner)
    return parser


def _read_text(path_str: str, what: str) -> str:
    try:
        return Path(path_str).read_text()
    except OSError as err:
        raise sc.ConfigError(f"cannot read {what} {path_str!r}: {err}") from None


def _config_from_args(args: argparse.Namespace) -> sc.ScenarioConfig:
    raw: dict[str, str] = {}
    if args.config:
        raw = sc.parse_config_text(_read_text(args.config, "config file"))
    if args.config is None and args.preset is None and "scenario.preset" not in raw:
        raise sc.ConfigError("provide --config and/or --preset")
    for item in args.sets:
        key, sep, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise sc.ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in sc.KEYS:
            raise sc.ConfigError(f"unknown key {key!r}")
        raw[key] = value

    config = sc.build_config(raw, preset_name=args.preset)

    # dedicated flags win over file values and --set overrides
    if args.no_loss:
        config = sc.with_override(config, "reservoir.loss", "off")
    if getattr(args, "seed", None) is not None:
        config = sc.with_override(config, "reservoir.seed", str(args.seed))
    if getattr(args, "backend", None) is not None:
        config = sc.with_override(config, "reservoir.backend", args.backend)
    if args.out:
        config = sc.with_override(config, "output.dir", args.out)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    summary = sc.run_scenario(config)
    for key in ("name", "nbar", "purity", "fidelity", "squeezing_db",
                "truncation_peak", "wall_time_s"):
        print(f"{key} = {summary[key]}")
    print(f"artifacts in {summary['out_dir']}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    summaries = sc.sweep_scenario(
        config,
        args.param,
        values,
        out_dir=args.out,
        max_workers=_worker_count(),
    )
    out = args.out if args.out is not None else config.out_dir
    print(f"{len(summaries)} runs; combined table in {Path(out) / 'sweep.csv'}")
    return 0


def cmd_wigner(args: argparse.Namespace) -> int:
    rho = validate_density(sc.state_from_text(_read_text(args.state, "state file")))
    axes = sc.grid_axes(sc.parse_grid(args.grid))
    grid = met.wigner(rho, axes, axes)
    sys.stdout.write(met.wigner_to_text(grid))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except sc.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as err:
        print(f"numerical failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
