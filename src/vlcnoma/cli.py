"""Command-line front end.

Every command runs one path: the config with the options it was given
(``overridden_config``, which ``scripts/reproduce_all.py`` shares), then
the ``--out`` check, then the worker count, then its CSV; ``simulate`` and
the figures write theirs with ``experiments.write_ser_csv``.
Exit codes: 0 success, 1 bad input (a ``ParameterError`` or usage error), 2 any other error.
Worker count comes from the VLCNOMA_WORKERS environment variable only;
results are bit-identical for any value.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ParameterError
from .experiments import FIGURES, TABLES, run_experiment, write_ser_csv
from .montecarlo import MAX_WORKERS, _batch, receivers

SNR_KEYS = ("snr_start_db", "snr_stop_db", "snr_step_db")
# override option -> the config key its value sets; --snr sets SNR_KEYS
OVERRIDES = {"seed": "seed", "trials": "trials_per_point", "min_errors": "min_errors",
             "schemes": "schemes"}


def _workers() -> int:
    raw = os.environ.get("VLCNOMA_WORKERS", "1")
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParameterError(f"VLCNOMA_WORKERS must be an integer, got {raw!r}") from exc
    if not 1 <= value <= MAX_WORKERS:
        raise ParameterError(f"VLCNOMA_WORKERS must be in 1..{MAX_WORKERS}, got {value}")
    return value


def output_path(path: Path, name: str) -> Path:
    """``path`` if a file can be written there, through any symlink, else a
    ParameterError naming ``name``."""
    target = Path(os.path.realpath(path))  # still a link only in a symlink loop
    try:
        if (target.is_dir() or target.is_symlink() or not target.parent.is_dir()
                or not os.access(target.parent, os.W_OK)
                or target.exists() and not os.access(target, os.W_OK)):
            raise ParameterError(f"{name} {path} must be a writable file"
                                 " in an existing, writable directory")
    except OSError as exc:  # a name too long, say
        raise ParameterError(f"{name} {path}: {exc.strerror}") from None
    return path


def overridden_config(args) -> ExperimentConfig:
    """``args.config`` with each option of ``OVERRIDES`` that ``args`` has
    and was given setting its key, the raw value parsed and checked as a
    config line is; ``--snr`` sets ``SNR_KEYS`` and drops a listed
    ``snr_points_db``.
    """
    raw, given = {}, []
    for option, key in OVERRIDES.items():
        if (value := getattr(args, option, None)) is not None:
            raw[key] = value
            given.append(f"--{option.replace('_', '-')} {value}")
    spec = getattr(args, "snr", None)
    if spec is not None:
        given.append(f"--snr {spec}")
        if spec.count(":") != 2:
            raise ParameterError(f"--snr expects {':'.join(SNR_KEYS)}, got {spec!r}")
        raw.update(zip(SNR_KEYS, spec.split(":")), snr_points_db=None)
    return load_config(args.config, raw, " ".join(given))


def _trace(cfg: ExperimentConfig) -> None:
    """Print trial 0 of batch 0 at the first SNR, which every sweep with a superposed
    scheme counts first, each symbol index 1-based like the paper's levels."""
    gains, cset = cfg.design()
    tables = receivers(cset, gains, ("noma-sic", "noma-jml"), cfg.target_power_w)
    sent, received, decided = _batch(cfg.sweep, 0, 0, cset, tables)
    u1, u2, u3, u1_hat, u2_sic, u3_hat, u2_jml, edge1, edge3 = (x.item(0) + 1 for x in (
        *sent["noma-sic"], *decided["noma-sic"], decided["noma-jml"][1], *decided["sic-stage1"]))
    y1, y2, y3 = (y.item(0) for y in received)
    print(f"snr_db = {cfg.sweep.snr_points_db[0]}  sigma = {cfg.sweep.sigmas[0]!r}")
    print(f"sent: u1={u1} u2={u2} u3={u3}")
    print(f"received: y1={y1!r} y2={y2!r} y3={y3!r}")
    print(f"user1 sic: own={u1_hat} edge_stage={edge1}")
    print(f"user2 sic: {u2_sic}   user2 jml: {u2_jml}")
    print(f"user3 sic: own={u3_hat} edge_stage={edge3}")


class ArgumentParser(argparse.ArgumentParser):
    """A parser whose usage errors are bad input: a ParameterError, so exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParameterError(f"{self.prog}: {message}")


def build_parser() -> ArgumentParser:
    parser = ArgumentParser(
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

    for name, (_, help_text) in TABLES.items():
        add(name, help_text)

    sim = add("simulate", "Monte Carlo SER sweep")
    sim.set_defaults(out=Path("ser_sweep.csv"))
    # every value is the raw text of a config line (overridden_config)
    sim.add_argument("--seed", help="seed")
    sim.add_argument("--trials", help="trials_per_point")
    sim.add_argument("--snr", metavar="START:STOP:STEP",
                     help="snr_start_db:snr_stop_db:snr_step_db, replacing snr_points_db")
    sim.add_argument("--schemes", help="schemes: comma list from noma-sic,noma-jml,oma")
    sim.add_argument("--min-errors", help="min_errors")
    sim.add_argument("--trace", action="store_true",
                     help="print one frame's signals and decisions, then exit")

    rep = add("reproduce", "run a named reference experiment")
    rep.add_argument("figure", choices=sorted(FIGURES))
    return parser


def exit_code(action) -> int:
    """Run ``action()``: 0, else 1 for bad input or 2 for any other error, reported on stderr."""
    try:
        action()
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def _run(args) -> None:
    """Write the command's CSV and print its path; ``simulate --trace`` prints
    the sweep's first trial instead, reading neither ``--out`` nor the workers."""
    cfg = overridden_config(args)
    if getattr(args, "trace", False):
        return _trace(cfg)
    name = getattr(args, "figure", args.command)
    out = output_path(args.out or Path(f"{name}.csv"), "--out")
    workers = _workers()
    print(write_ser_csv(cfg, out, workers) if name == "simulate"
          else run_experiment(name, cfg, out, workers))


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    while "--snr" in argv[:-1]:  # argparse takes "--snr -10:-6:2"'s value for an option
        at = argv.index("--snr")
        argv[at:at + 2] = [f"--snr={argv[at + 1]}"]
    return exit_code(lambda: _run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
