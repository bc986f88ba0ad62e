"""Command-line front end.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime error.
Worker count comes from the VLCNOMA_WORKERS environment variable only;
results are bit-identical for any value.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (ExperimentConfig, load_config, parse_finite, parse_schemes, snr_grid,
                     with_sweep)
from .errors import ConfigError, ParameterError
from .experiments import SER_HEADER, echo_comments, run_experiment, ser_rows, write_csv
from .montecarlo import _frame, philox_stream, run_sweep, sigma_from_snr


def _workers() -> int:
    raw = os.environ.get("VLCNOMA_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"VLCNOMA_WORKERS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ConfigError(f"VLCNOMA_WORKERS must be >= 1, got {value}")
    return value


def _parse_snr_spec(spec: str) -> tuple[float, ...]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--snr expects start:stop:step, got {spec!r}")
    try:
        start, stop, step = (parse_finite(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--snr expects numbers, got {spec!r}") from exc
    return snr_grid(start, stop, step)


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if getattr(args, "seed", None) is not None:
        changes["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials_per_point"] = args.trials
    if getattr(args, "min_errors", None) is not None:
        changes["min_errors"] = args.min_errors
    if getattr(args, "snr", None) is not None:
        changes["snr_points_db"] = _parse_snr_spec(args.snr)
    if getattr(args, "schemes", None) is not None:
        changes["schemes"] = parse_schemes(args.schemes)
    return with_sweep(cfg, **changes) if changes else cfg


def _trace(cfg: ExperimentConfig) -> None:
    """Print one channel use of the sweep's own frame code, at the first SNR."""
    gains, cset = cfg.design()
    snr_db = cfg.sweep.snr_points_db[0]
    sigma = sigma_from_snr(snr_db, cfg.target_power_w)
    sent, received, decided = _frame(philox_stream(cfg.sweep.seed, 0, 0), 1, sigma, cset,
                                      gains, ("noma-sic", "noma-jml"), cfg.target_power_w)
    u1, u2, u3 = (x.item() for x in sent["noma-sic"])
    y1, y2, y3 = (y.item() for y in received)
    (u1_hat, u2_sic, u3_hat), (edge1, edge3) = decided["noma-sic"], decided["sic-stage1"]
    print(f"snr_db = {snr_db}  sigma = {sigma!r}")
    print(f"sent: u1={u1} u2={u2} u3={u3}")
    print(f"received: y1={y1!r} y2={y2!r} y3={y3!r}")
    print(f"user1 sic: own={u1_hat.item()} edge_stage={edge1.item()}")
    print(f"user2 sic: {u2_sic.item()}   user2 jml: {decided['noma-jml'][1].item()}")
    print(f"user3 sic: own={u3_hat.item()} edge_stage={edge3.item()}")


def _cmd_simulate(args) -> None:
    cfg = _apply_overrides(load_config(args.config), args)
    if args.trace:
        _trace(cfg)
        return
    gains, cset = cfg.design()
    points = run_sweep(cfg.sweep, cset, gains, workers=_workers())
    out = Path(args.out) if args.out else Path("ser_sweep.csv")
    write_csv(out, SER_HEADER, ser_rows(points), echo_comments(cfg))
    print(out)


def _cmd_experiment(name: str, args) -> None:
    cfg = load_config(args.config)
    out = Path(args.out) if args.out else Path(f"{name}.csv")
    print(run_experiment(name, cfg, out, workers=_workers()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vlcnoma",
        description="Two-cell indoor visible-light superposition link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file (bundled defaults if omitted)")
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
        return p

    add("gains", "computed vs configured channel gains")
    add("design", "power-level tables and zero-error margins")
    add("analytic", "closed-form SER and bounds vs SNR")
    add("complexity", "decoding-cost table")

    sim = add("simulate", "Monte Carlo SER sweep")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--snr", type=str, default=None, metavar="START:STOP:STEP")
    sim.add_argument("--schemes", type=str, default=None,
                     help="comma list from noma-sic,noma-jml,oma")
    sim.add_argument("--min-errors", type=int, default=None, dest="min_errors")
    sim.add_argument("--trace", action="store_true",
                     help="print one frame's signals and decisions, then exit")

    rep = add("reproduce", "run a named reference experiment")
    rep.add_argument("figure", choices=("fig2", "fig3", "fig4"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            _cmd_simulate(args)
        elif args.command == "reproduce":
            _cmd_experiment(args.figure, args)
        else:
            _cmd_experiment(args.command, args)
    except (ConfigError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
