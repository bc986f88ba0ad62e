#!/usr/bin/env python3
"""Run every named experiment into an output directory.

Usage: python scripts/reproduce_all.py [outdir] [--config PATH] [--trials N]

The sweep experiments honor trials/seed from the config (or the --trials
override); gains/design/complexity are instant.  fig3 and fig4 are drawn
from one shared sweep; fig2 runs its own.
"""

import argparse
import sys
from pathlib import Path

from vlcnoma.cli import _workers
from vlcnoma.config import load_config, with_sweep
from vlcnoma.experiments import EXPERIMENTS, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("results"))
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--trials", type=int, default=None)
    args = parser.parse_args(argv)

    cfg = load_config(args.config)
    if args.trials is not None:
        cfg = with_sweep(cfg, trials_per_point=args.trials)
    args.outdir.mkdir(parents=True, exist_ok=True)
    workers = _workers()
    memo = {}
    for name in EXPERIMENTS:
        path = run_experiment(name, cfg, args.outdir / f"{name}.csv", workers=workers,
                              memo=memo)
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
