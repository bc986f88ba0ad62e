"""Outside-in spans for the benchmark's traced run, and the per-layer summary.

``SpanRecorder`` replaces module attributes that the package looks up at
call time (``vlcnoma.montecarlo.decode_u2_jml``, ``vlcnoma.experiments.run_sweep``,
``vlcnoma.analytic.ser_u2_analytic``, ...) with timing wrappers and puts the
originals back on exit.  No source file is edited.  Each call appends one
``(name, start_ns, end_ns, info)`` tuple; ``list.append`` is atomic under the
interpreter lock, so pool threads can record without a lock.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path

SWEEPS = ("montecarlo.run_sweep", "experiments.run_sweep")
PHILOX = "montecarlo.philox_stream"
LINK = ("link.superpose_transmit", "link.awgn_sample", "link.decode_center_sic",
        "link.decode_u2_sic", "link.decode_u2_jml", "link.oma_round")
ANALYTIC = ("analytic.ser_u2_analytic", "analytic.ser_center_lower_bound")
# Analytic calls made inside run_sweep, where each row gets its closed form.
ANALYTIC_JOIN = "montecarlo.analytic_join"
# Spans that run_sweep encloses; with self time they add up to its busy time.
SWEEP_CHILDREN = (PHILOX, *LINK, ANALYTIC_JOIN)
EXPERIMENTS = ("gains", "design", "analytic", "complexity", "fig2", "fig3", "fig4")


def sweep_info(args, kwargs, points):
    """(config, workers, trials consumed, batches consumed) of one run_sweep call."""
    config = args[0]
    workers = kwargs.get("workers", args[4] if len(args) > 4 else 1)
    per_point = {p.snr_db: p.estimate.trials for p in points}
    batches = sum(-(-trials // config.batch_size) for trials in per_point.values())
    return config, workers, sum(per_point.values()), batches


def wraps(vlc, script) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, info function) for every traced name."""
    montecarlo, experiments, analytic = vlc.montecarlo, vlc.experiments, vlc.analytic
    table = [(montecarlo, "run_sweep", "montecarlo.run_sweep", sweep_info),
             (experiments, "run_sweep", "experiments.run_sweep", sweep_info),
             (montecarlo, "philox_stream", PHILOX, lambda a, k, r: a[2])]
    table += [(montecarlo, name.split(".")[1], name, None) for name in LINK]
    table += [(analytic, name.split(".")[1], name, None) for name in ANALYTIC]
    table += [(script, "run_experiment", "experiments.run_experiment", lambda a, k, r: a[0]),
              (experiments, "write_csv", "experiments.write_csv",
               lambda a, k, r: Path(r).stat().st_size)]
    return table


class SpanRecorder:
    """Installs timing wrappers for the duration of a ``with`` block."""

    def __init__(self, table):
        self.table = table
        self.spans: list[tuple[str, int, int, object]] = []
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, name, info in self.table:
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, info))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrapper(self, original, name, info):
        spans, clock = self.spans, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            start = clock()
            result = original(*args, **kwargs)
            end = clock()
            spans.append((name, start, end, info(args, kwargs, result) if info else None))
            return result

        return wrapper


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``ops`` identical workload ops.

    Per-trial times divide by the trials computed (every batch drawn,
    including speculative batches that early stopping discards).  Counts are
    per op.  ``montecarlo.self_ns_per_trial`` is run_sweep busy time (wall
    times workers) not covered by its child spans: symbol draws, error
    counting, pool overhead and idle workers.
    """
    sweeps = sorted((s for s in spans if s[0] in SWEEPS), key=lambda s: s[1])
    starts = [s[1] for s in sweeps]
    busy = sum((end - start) * info[1] for _, start, end, info in sweeps)
    child_ns: dict[str, int] = defaultdict(int)
    calls = Counter(s[0] for s in spans)
    total_ns: dict[str, int] = defaultdict(int)
    trials_computed = 0
    bytes_written = 0
    experiment_ns: dict[str, int] = defaultdict(int)
    for name, start, end, info in spans:
        total_ns[name] += end - start
        if name == "experiments.run_experiment":
            experiment_ns[info] += end - start
        elif name == "experiments.write_csv":
            bytes_written += info
        if name in SWEEPS:
            continue
        i = bisect_right(starts, start) - 1
        if i < 0 or end > sweeps[i][2]:
            continue
        child_ns[ANALYTIC_JOIN if name in ANALYTIC else name] += end - start
        if name == PHILOX:
            config = sweeps[i][3][0]
            trials_computed += min(config.batch_size,
                                   config.trials_per_point - info * config.batch_size)
    per_trial = max(trials_computed, 1)
    covered = sum(child_ns.values())
    consumed = sum(s[3][3] for s in sweeps)
    metrics = {f"{name}.ns_per_trial": child_ns[name] / per_trial for name in SWEEP_CHILDREN}
    metrics.update({
        "montecarlo.self_ns_per_trial": (busy - covered) / per_trial,
        "montecarlo.run_sweep.busy_ns_per_trial": busy / per_trial,
        "montecarlo.trials_computed": trials_computed / ops,
        "montecarlo.batches_computed": calls[PHILOX] / ops,
        "montecarlo.batches_consumed": consumed / ops,
        "montecarlo.useful_batch_ratio": consumed / max(calls[PHILOX], 1),
        "montecarlo.worker_busy_ratio": covered / max(busy, 1),
        "link.decode_u2_jml.calls": calls["link.decode_u2_jml"] / ops,
        "link.oma_round.calls": calls["link.oma_round"] / ops,
        "experiments.sweeps_run": calls["experiments.run_sweep"] / ops,
        "experiments.trials_simulated":
            sum(s[3][2] for s in sweeps if s[0] == "experiments.run_sweep") / ops,
        "experiments.write_csv.ms": total_ns["experiments.write_csv"] / ops / 1e6,
        "experiments.bytes_written": bytes_written / ops,
    })
    for name in EXPERIMENTS:
        metrics[f"experiments.run_experiment.{name}.s"] = experiment_ns[name] / ops / 1e9
    for name in ANALYTIC:
        metrics[f"{name}.us_per_call"] = total_ns[name] / max(calls[name], 1) / 1e3
        metrics[f"{name}.calls"] = calls[name] / ops
    return metrics
