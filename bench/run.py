#!/usr/bin/env python3
"""vlcnoma benchmark: fixed Monte Carlo workloads driven through the public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

The package is imported from the checkout's ``src/``; nothing is installed
and nothing is built.  One invocation is one fresh process for one workload:

1. ``setup_s``: several child interpreters each run bench/setup_probe.py
   (interpreter start through ``import vlcnoma``, ``load_config``,
   ``effective_gains`` and ``design_constellation``); the median is reported.
2. One warm-up op, then the op is repeated until ``--seconds`` have passed.
   ``wall_s`` and ``ns_per_trial`` are medians over those ops, with tracing
   off.  ``--trace 1`` splits the time between untraced and traced ops and
   reports per-layer numbers from spans (see bench/spans.py).
3. Every op's output is checked (see ``Bench.check``).  Ops that raise or
   fail the check count as failed against ``attempted``; every metric is
   still printed, and ``correct`` is false.

Metric names and units are the ones declared in BENCHMARK.json.  The lines
before the last on stdout are the environment record; the last line is the
JSON result.  Scratch files go under ``.bench_build/`` in the checkout and
are removed before exit.  Without the package sources next to this
directory the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRIPT = ROOT / "scripts" / "reproduce_all.py"
SCRATCH = ROOT / ".bench_build"

DEFAULT_SEED = 1
SNR_WINDOW_DB = (110.0, 150.0, 2.0)
SETUP_PROBES = 11
MIN_OPS = 3
WILSON_Z = 5.0
# Value of every metric a failed run could not measure: far worse than any
# real reading, so a crash never reads as a speed-up.
UNMEASURED = 1e18
NAME = re.compile(r"[A-Za-z0-9_.-]+")
NOTE = ("shared 2-core sandbox with no CPU pinning or frequency control; "
        "other tenants' load shows in the timings")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  ``schemes`` None means scripts/reproduce_all.py."""

    schemes: tuple[str, ...] | None
    workers: int
    min_errors: int
    trials: int
    batch_size: int = 1 << 15


# sic-serial is the cheapest path (center SIC and the u2 SIC rule only) and
# bypasses JML, OMA, the thread pool, early stop and the experiments layer.
# all-parallel-stop is dominated by JML and OMA and is the only workload with
# threads and with speculative batches that early stopping discards.
# reproduce is the only one through experiments, CSV writing and the CLI's
# worker parsing; it runs fig3 and fig4 as two identical sweeps.
WORKLOADS = {
    "sic-serial": Workload(("noma-sic",), workers=1, min_errors=0, trials=4 << 15),
    "all-parallel-stop": Workload(("noma-sic", "noma-jml", "oma"), workers=2,
                                  min_errors=200, trials=4 << 15),
    "reproduce": Workload(None, workers=1, min_errors=0, trials=1 << 14),
}
# Self-test sizes: the same code paths with tiny trial counts.  Small batches
# keep multi-batch points and early stopping exercised.
TINY = {
    "sic-serial": replace(WORKLOADS["sic-serial"], trials=2048, batch_size=512),
    "all-parallel-stop": replace(WORKLOADS["all-parallel-stop"], trials=4096,
                                 batch_size=512, min_errors=20),
    "reproduce": replace(WORKLOADS["reproduce"], trials=256),
}
# sha256 of each workload's result at DEFAULT_SEED and full size.  The
# all-parallel-stop digest comes from a 1-worker run, so every 2-worker run
# also re-checks that results do not depend on the worker count.
PINNED = {
    "sic-serial": "ec3b5f8d5b9d18b832d21542e365008f54892a7810f42fba78830e782aef50cb",
    "all-parallel-stop": "7aa6379e27859672c2a25d215ef0741fc2f0e3521f1351a8513f7503cec9804b",
    "reproduce": "8aa7a8bc49abc3fb54a4193e3c72ed705b3bbee668f777efc9d2f760c7c4b4e2",
}


def declared() -> dict:
    """BENCHMARK.json, which names every workload and metric with its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import vlcnoma and the reproduce script from this checkout, or exit 2."""
    if not (SRC / "vlcnoma" / "__init__.py").is_file() or not SCRIPT.is_file():
        print(f"bench: no vlcnoma sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vlcnoma
    import vlcnoma.analytic
    import vlcnoma.config
    import vlcnoma.experiments
    import vlcnoma.montecarlo

    spec = importlib.util.spec_from_file_location("reproduce_all", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return vlcnoma, script


def measure_setup(probes: int) -> dict[str, float]:
    """Median of each set-up figure over ``probes`` fresh interpreters."""
    samples: dict[str, list[float]] = {}
    for _ in range(probes):
        start = time.perf_counter()
        out = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC)],
                             capture_output=True, text=True, timeout=60, check=True)
        record = json.loads(out.stdout.splitlines()[-1])
        if Path(record.pop("module_file")).resolve().parent != SRC / "vlcnoma":
            raise RuntimeError("setup probe imported vlcnoma from outside the checkout")
        samples.setdefault("setup_s", []).append(record.pop("done") - start)
        for key, value in record.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def wilson_band(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval, written out here so the check does not trust the package."""
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return (0.0 if errors == 0 else center - half), (1.0 if errors == trials else center + half)


def outside_band(rows) -> int:
    """Count (trials, errors, closed form) rows whose closed form is outside the band."""
    misses = 0
    for trials, errors, exact in rows:
        low, high = wilson_band(int(errors), int(trials))
        misses += not low <= float(exact) <= high
    return misses


def trials_consumed(points) -> int:
    """Trials behind a sweep's rows: every row of one SNR point shares its count."""
    return sum({p.snr_db: p.estimate.trials for p in points}.values())


@dataclass
class Outcome:
    """What one op produced: the figures the checks and metrics need."""

    wall_s: float
    trials: int
    ops: int
    digest: str
    band_misses: int


@dataclass
class Tally:
    """Ops attempted and failed across the whole run, and every op's outcome."""

    attempted: int = 0
    failed: int = 0
    outcomes: list[Outcome] = field(default_factory=list)


class Bench:
    """One workload's op, with its inputs built from the seed."""

    def __init__(self, vlc, script, name: str, workload: Workload, seed: int, workdir: Path):
        self.vlc, self.script, self.name, self.workload = vlc, script, name, workload
        self.seed, self.workdir = seed, workdir
        self.workers = min(workload.workers, len(os.sched_getaffinity(0)))
        self.tally = Tally()
        self.broken = False
        cfg = vlc.load_config()
        self.batch_size = workload.batch_size
        if workload.schemes is None:
            self.batch_size = cfg.sweep.batch_size
            self.config_path = workdir / "bench.cfg"
            bundled = Path(vlc.config.default_config_path()).read_text()
            self.config_path.write_text(re.sub(r"(?m)^seed\s*=.*$", f"seed = {seed}", bundled))
            os.environ["VLCNOMA_WORKERS"] = str(self.workers)
            return
        self.gains = cfg.effective_gains()
        self.cset = vlc.design_constellation(vlc.SpectralEfficiencies(3, 2, 2), self.gains,
                                             cfg.target_power_w)
        self.sweep = vlc.SweepConfig(
            snr_points_db=vlc.config.snr_grid(*SNR_WINDOW_DB),
            trials_per_point=workload.trials, seed=seed, target_power_w=cfg.target_power_w,
            schemes=workload.schemes, min_errors=workload.min_errors,
            batch_size=workload.batch_size)

    def op(self) -> Outcome:
        return self._sweep() if self.workload.schemes is not None else self._reproduce()

    def _sweep(self) -> Outcome:
        """One run_sweep call; the result is hashed as the rows a CSV would hold."""
        self.tally.attempted += 1
        start = time.perf_counter()
        points = self.vlc.montecarlo.run_sweep(self.sweep, self.cset, self.gains,
                                               workers=self.workers)
        wall = time.perf_counter() - start
        lines = [",".join((repr(p.snr_db), p.user, p.scheme, str(p.estimate.trials),
                           str(p.estimate.errors), repr(p.estimate.ser), repr(p.estimate.ci_low),
                           repr(p.estimate.ci_high), "" if p.analytic is None else repr(p.analytic)))
                 for p in points]
        misses = outside_band((p.estimate.trials, p.estimate.errors, p.analytic)
                              for p in points if p.user == "u2" and p.scheme == "noma-sic")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return Outcome(wall, trials_consumed(points), 1, digest, misses)

    def _reproduce(self) -> Outcome:
        """scripts/reproduce_all.py main(); each run_experiment call is one op."""
        outdir = self.workdir / "results"
        script, experiments, tally = self.script, self.vlc.experiments, self.tally
        run_experiment, run_sweep, trials = script.run_experiment, experiments.run_sweep, [0]

        def counted_experiment(*args, **kwargs):
            tally.attempted += 1
            return run_experiment(*args, **kwargs)

        def counted_sweep(*args, **kwargs):
            points = run_sweep(*args, **kwargs)
            trials[0] += trials_consumed(points)
            return points

        argv = [str(outdir), "--config", str(self.config_path),
                "--trials", str(self.workload.trials)]
        attempted = tally.attempted
        script.run_experiment, experiments.run_sweep = counted_experiment, counted_sweep
        stdout, sys.stdout = sys.stdout, open(os.devnull, "w")
        try:
            start = time.perf_counter()
            status = script.main(argv)
            wall = time.perf_counter() - start
        finally:
            sys.stdout.close()
            sys.stdout = stdout
            script.run_experiment, experiments.run_sweep = run_experiment, run_sweep
        if status != 0:
            raise RuntimeError(f"reproduce_all.py main() returned {status}")
        digest = hashlib.sha256()
        rows = []
        for path in sorted(outdir.glob("*.csv")):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            if path.stem in ("fig2", "fig4"):
                body = [line for line in data.decode().splitlines() if not line.startswith("#")]
                rows += [(r["trials"], r["errors"], r["analytic"]) for r in csv.DictReader(body)
                         if r["user"] == "u2" and r["scheme"] == "noma-sic"]
        return Outcome(wall, trials[0], tally.attempted - attempted, digest.hexdigest(),
                       outside_band(rows))

    def repeat(self, seconds: float, min_ops: int = MIN_OPS) -> list[Outcome]:
        """Run the op until ``seconds`` have passed and ``min_ops`` ops are done.

        The first op that raises ends the run's measuring: it counts as
        failed, with every op it had started.
        """
        outcomes: list[Outcome] = []
        start = time.perf_counter()
        while not self.broken and (len(outcomes) < min_ops
                                   or time.perf_counter() - start < seconds):
            attempted = self.tally.attempted
            try:
                outcomes.append(self.op())
            except Exception:  # noqa: BLE001 - a crash is a failed op, not a result
                traceback.print_exc(file=sys.stderr)
                self.tally.attempted = max(self.tally.attempted, attempted + 1)
                self.tally.failed += self.tally.attempted - attempted
                self.broken = True
        self.tally.outcomes += outcomes
        return outcomes

    def check(self, full_size: bool) -> bool:
        """The output check behind ``correct``; ops that fail it count as failed.

        Every op's result must hash the same; at the default seed and full
        size that hash must equal the pinned one; in every u2/noma-sic row
        the closed form must lie inside the z = 5 Wilson band of the tally.
        """
        outcomes = self.tally.outcomes
        digests = {o.digest for o in outcomes}
        pinned = PINNED[self.name] if full_size and self.seed == DEFAULT_SEED else None
        if len(digests) > 1 or (pinned is not None and digests - {pinned}):
            print(f"bench: result digests {sorted(digests)}, pinned {pinned}", file=sys.stderr)
            bad = outcomes
        else:
            bad = [o for o in outcomes if o.band_misses]
            for o in bad:
                print(f"bench: {o.band_misses} u2/noma-sic rows outside the z = {WILSON_Z} "
                      "Wilson band of their closed form", file=sys.stderr)
        self.tally.failed += sum(o.ops for o in bad)
        return not self.broken and not bad and bool(outcomes)


def environment(name: str, seed: int, bench: Bench) -> dict:
    import numpy
    import scipy

    return {
        "workload": name, "seed": seed, "batch_size": bench.batch_size,
        "trials_per_point": bench.workload.trials, "workers": bench.workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "note": NOTE,
    }


def median_wall(outcomes: list[Outcome]) -> float:
    return statistics.median(o.wall_s for o in outcomes) if outcomes else UNMEASURED


def measure(name: str, seed: int, seconds: float, trace: bool, full: bool, env: dict):
    """Set-up, warm-up and timed ops; returns (metrics, tally, correct)."""
    vlc, script = import_program()
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        bench = Bench(vlc, script, name, (WORKLOADS if full else TINY)[name], seed, Path(tmp))
        env.update(environment(name, seed, bench))
        setup = measure_setup(SETUP_PROBES if full else 1)
        bench.repeat(0.0, min_ops=1)
        plain = bench.repeat(seconds / 2 if trace else seconds)
        if trace:
            recorder = spans.SpanRecorder(spans.wraps(vlc, script))
            with recorder:
                traced = bench.repeat(seconds / 2)
            env["unwrapped_names"] = recorder.missing
        correct = bench.check(full)
    if trace:
        metrics = spans.layer_metrics(recorder.spans, max(len(traced), 1))
        metrics["trace_overhead_ratio"] = median_wall(traced) / median_wall(plain)
        metrics.update({key: value for key, value in setup.items() if key != "setup_s"})
    else:
        metrics = {
            "wall_s": median_wall(plain),
            "ns_per_trial": (statistics.median(o.wall_s / o.trials * 1e9 for o in plain)
                             if plain else UNMEASURED),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return metrics, bench.tally, correct


def run(name: str, seed: int, seconds: float, trace: bool, full: bool = True) -> dict:
    """One benchmark run; prints the environment record, returns the result."""
    units = {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}
    env = {"loadavg_before": list(os.getloadavg())}
    try:
        metrics, tally, correct = measure(name, seed, seconds, trace, full, env)
    except Exception:  # noqa: BLE001 - set-up crashed: report it as a failed run
        traceback.print_exc(file=sys.stderr)
        metrics, tally, correct = {}, Tally(attempted=1, failed=1), False
    if not correct:
        metrics = {key: metrics.get(key, UNMEASURED) for key in units}
    env["loadavg_after"] = list(os.getloadavg())
    print(json.dumps({"environment": env}))
    return {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {key: {"value": value, "unit": units[key]}
                        for key, value in metrics.items()}}


def result_problems(result: dict, trace: bool) -> list[str]:
    """What a self-test run's result gets wrong against BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in declared()["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"missing {sorted(set(units) - set(metrics))}, "
                        f"undeclared {sorted(set(metrics) - set(units))}")
    for key, metric in metrics.items():
        value = metric.get("value")
        if not NAME.fullmatch(key) or metric.get("unit") != units.get(key):
            problems.append(f"bad name or unit: {key} {metric}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"bad value: {key} {metric}")
    if trace and not problems:
        value = {key: metric["value"] for key, metric in metrics.items()}
        parts = sum(value[f"{child}.ns_per_trial"] for child in spans.SWEEP_CHILDREN)
        whole = value["montecarlo.run_sweep.busy_ns_per_trial"]
        if not math.isclose(parts + value["montecarlo.self_ns_per_trial"], whole,
                            rel_tol=1e-9):
            problems.append(f"child spans + self = {parts} + "
                            f"{value['montecarlo.self_ns_per_trial']} != busy {whole}")
    return problems


def self_test() -> int:
    """Every workload in both modes at tiny sizes, plus the no-sources exit."""
    failures = []
    names = {w["name"] for w in declared()["workloads"]}
    if names != set(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {sorted(names)} != {sorted(WORKLOADS)}")
    for name in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(DEFAULT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
                capture_output=True, text=True, timeout=170)
            problems = [f"exit {out.returncode}: {out.stderr[-2000:]}"] if out.returncode else []
            problems = problems or result_problems(json.loads(out.stdout.splitlines()[-1]),
                                                   bool(trace))
            failures += [f"{name} trace={trace}: {p}" for p in problems]
            print(f"{'FAIL' if problems else 'PASS'} {name} trace={trace}")
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                              "sic-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=170)
        if out.returncode == 0 or out.stdout.strip():
            failures.append(f"without sources: exit {out.returncode}, stdout {out.stdout!r}")
        print(f"{'FAIL' if out.returncode == 0 or out.stdout.strip() else 'PASS'} "
              "no sources: exits non-zero without a result")
    for failure in failures:
        print(f"  {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="tiny: self-test trial counts")
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at tiny sizes and check the results")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 full=args.sizes == "full")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
