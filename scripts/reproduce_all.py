#!/usr/bin/env python3
"""Run every named experiment into an output directory.

Usage: python scripts/reproduce_all.py [outdir] [--config PATH] [--trials N]

The sweep experiments honor trials/seed from the config; ``--trials N``
sets ``trials_per_point`` as a config line would.  gains/design/complexity
are instant.  fig3, fig4 and fig2 are drawn from one simulation: fig3's
sweep over all schemes, which run_sweep's memo replays for fig4 and fig2.
Every output path is checked before any experiment runs.  Exit codes are
the CLI's: 1 for bad input, usage errors too, naming the key or path.
"""

import sys
from pathlib import Path

from vlcnoma.cli import ArgumentParser, _workers, exit_code, output_path, overridden_config
from vlcnoma.errors import ParameterError
from vlcnoma.experiments import EXPERIMENTS, run_experiment


def run_all(args) -> None:
    cfg = overridden_config(args)
    workers = _workers()
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(
            f"output directory {args.outdir} cannot be made: {exc.strerror}") from exc
    paths = {name: output_path(args.outdir / f"{name}.csv", "output") for name in EXPERIMENTS}
    memo = {}
    for name, path in paths.items():
        print(f"{name}: {run_experiment(name, cfg, path, workers=workers, memo=memo)}")


def main(argv=None) -> int:
    parser = ArgumentParser(description=__doc__)
    parser.add_argument("outdir", nargs="?", type=Path, default=Path("results"))
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--trials", help="trials_per_point")
    return exit_code(lambda: run_all(parser.parse_args(argv)))


if __name__ == "__main__":
    sys.exit(main())
