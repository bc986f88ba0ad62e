#!/usr/bin/env python3
"""Run every named experiment into an output directory.

Usage: python scripts/reproduce_all.py [outdir] [--config PATH] [--trials N]

The sweep experiments honor trials/seed from the config; ``--trials N``
sets ``trials_per_point`` as a config line would.  gains/design/complexity
are instant.  fig3 and fig4 are drawn from one shared sweep; fig2 runs its
own.  Exit codes are the CLI's: 1 for bad input, naming the key.
"""

import argparse
import sys
from pathlib import Path

from vlcnoma.cli import _workers, exit_code, overridden_config
from vlcnoma.errors import ParameterError
from vlcnoma.experiments import EXPERIMENTS, run_experiment


def run_all(args) -> None:
    cfg = overridden_config(args, {"trials": "trials_per_point"})
    workers = _workers()
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(
            f"output directory {args.outdir} cannot be made: {exc.strerror}") from exc
    memo = {}
    for name in EXPERIMENTS:
        path = run_experiment(name, cfg, args.outdir / f"{name}.csv", workers=workers,
                              memo=memo)
        print(f"{name}: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("results"))
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--trials", help="trials_per_point")
    args = parser.parse_args(argv)
    return exit_code(lambda: run_all(args))


if __name__ == "__main__":
    sys.exit(main())
