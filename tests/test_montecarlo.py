import copy
import itertools
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (SpectralEfficiencies, SweepConfig, design_constellation, load_config,
                     run_sweep, ser_u2_analytic)
from vlcnoma.analytic import ser_center_lower_bound
from vlcnoma import analytic, montecarlo
from vlcnoma.constellation import MAX_GRID, from_raw_levels
from vlcnoma.link import SicReceiver, Workspace, oma_levels, oma_pam_points, superpose_transmit
from vlcnoma.montecarlo import (_frame, _symbols, philox_stream, receivers, sigma_from_snr,
                                wilson_interval)
from vlcnoma.errors import ParameterError

NAN = float("nan")
INF = float("inf")
# joint ML's table alone at bpcu (7, 6, 7), 2^20 tuples, in a fresh process:
# its threshold and label counts and the process's own peak RSS in KiB.  That
# is VmHWM: ru_maxrss also counts the RSS of the process it was spawned from.
JML_TABLE_PEAK = """
from vlcnoma import SpectralEfficiencies, design_constellation, load_config
from vlcnoma.montecarlo import receivers
cfg = load_config(None)
gains = cfg.design()[0]
cset = design_constellation(SpectralEfficiencies(7, 6, 7), gains, cfg.target_power_w)
table = receivers(cset, gains, ("noma-jml",), cfg.target_power_w)["noma-jml"]
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(table.thresholds.size, table.labels.size, peak)
"""


class TestSigmaFromSnr:
    def test_zero_db_unit_power(self):
        assert sigma_from_snr(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_twenty_db_unit_power(self):
        assert sigma_from_snr(20.0, 1.0) == pytest.approx(0.1, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(snr_db=st.floats(-50, 200), power=st.floats(1e-3, 1e3))
    def test_round_trip(self, snr_db, power):
        sigma = sigma_from_snr(snr_db, power)
        assert 10.0 * math.log10(power / sigma**2) == pytest.approx(snr_db, abs=1e-9)

    def test_rejects_bad_power(self):
        with pytest.raises(ParameterError):
            sigma_from_snr(10.0, 0.0)


class TestDerivedSigmas:
    def test_one_per_point_from_sigma_from_snr(self):
        config = small_sweep(snr_points_db=(100.0, 138.0, 146.5), target_power_w=2.0)
        assert config.sigmas == tuple(sigma_from_snr(s, 2.0) for s in (100.0, 138.0, 146.5))

    def test_left_out_of_equality_hash_and_repr(self):
        config, other = small_sweep(), small_sweep()
        object.__setattr__(other, "sigmas", (0.0, 0.0))
        assert config == other and hash(config) == hash(other)
        assert "sigmas" not in repr(config)

    def test_recomputed_by_replace(self):
        config = replace(small_sweep(), snr_points_db=(120.0,), target_power_w=4.0)
        assert config.sigmas == (sigma_from_snr(120.0, 4.0),)


class TestWilsonInterval:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bounds_bracket_the_point_estimate(self, data):
        trials = data.draw(st.integers(1, 10**7))
        errors = data.draw(st.integers(0, trials))
        low, high = wilson_interval(errors, trials)
        assert 0.0 <= low <= errors / trials <= high <= 1.0

    def test_width_shrinks_like_root_two_when_trials_double(self):
        low1, high1 = wilson_interval(400, 10_000)
        low2, high2 = wilson_interval(800, 20_000)
        ratio = (high2 - low2) / (high1 - low1)
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.02)

    def test_zero_errors_has_positive_upper_bound(self):
        low, high = wilson_interval(0, 1000)
        assert low == 0.0
        assert 0.0 < high < 0.01

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParameterError):
            wilson_interval(5, 4)


def small_sweep(**overrides):
    defaults = dict(
        snr_points_db=(138.0, 146.0),
        trials_per_point=40_000,
        seed=3,
        target_power_w=1.0,
        schemes=("noma-sic", "noma-jml", "oma"),
        batch_size=8192,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


# At seed 3 its points stop after 1, 2, 3 and 4 of their 16 batches (at batch
# indices 0, 1, 2 and 3), so the sweep ends on a point that stops early.
MIXED_STOP = dict(snr_points_db=(130.0, 144.0, 146.0, 148.0), trials_per_point=8192,
                  schemes=("noma-sic",), min_errors=25, batch_size=512)


class TestRunSweep:
    def test_identical_runs_are_bit_identical(self, reference_set, reference_gains):
        config = small_sweep()
        assert run_sweep(config, reference_set, reference_gains) == run_sweep(
            config, reference_set, reference_gains)

    @pytest.mark.scheduler
    @pytest.mark.parametrize("min_errors", [0, 25])
    def test_result_independent_of_worker_count(
        self, reference_set, reference_gains, min_errors
    ):
        # five batches per point, and a sweep whose points stop at different batches
        for config in (small_sweep(min_errors=min_errors),
                       small_sweep(**{**MIXED_STOP, "min_errors": min_errors})):
            serial = run_sweep(config, reference_set, reference_gains, workers=1)
            for workers in (2, 3, 4):
                assert run_sweep(config, reference_set, reference_gains,
                                 workers=workers) == serial, workers

    @pytest.mark.scheduler
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_no_batch_is_computed_and_discarded(
        self, reference_set, reference_gains, streams_drawn, workers
    ):
        calls = streams_drawn
        config = small_sweep(**MIXED_STOP)
        # the streams drawn are exactly the batches the rows count: none past a
        # point's stop; a few repeats give a race a chance to show
        for _ in range(10):
            calls.clear()
            points = run_sweep(config, reference_set, reference_gains, workers=workers)
            consumed = [p.estimate.trials // config.batch_size for p in points if p.user == "u1"]
            assert consumed == [1, 2, 3, 4]
            assert sorted(calls) == [(config.seed, point, batch)
                                     for point, n in enumerate(consumed) for batch in range(n)]

    @pytest.mark.scheduler
    @pytest.mark.parametrize("min_errors", [0, 10**6], ids=["no-stop", "never-met"])
    def test_a_points_batches_never_overlap(
        self, reference_set, reference_gains, monkeypatch, min_errors
    ):
        # two points of two batches on two workers; point 0's batch 0 holds its
        # stream until point 1's last batch starts on the other worker, then
        # until point 0's batch 1 starts or half a second passes
        other, started, returned = threading.Event(), threading.Event(), threading.Event()
        beside, overlapped, after = [], [], []
        philox_stream = montecarlo.philox_stream

        def held(seed, point, batch):
            if (point, batch) == (0, 0):
                beside.append(other.wait(30.0))
                overlapped.append(started.wait(0.5))
                returned.set()
            elif point == 0:
                after.append(returned.is_set())
                started.set()
            elif batch == 1:
                other.set()
            return philox_stream(seed, point, batch)

        monkeypatch.setattr(montecarlo, "philox_stream", held)
        config = small_sweep(snr_points_db=(148.0, 150.0), trials_per_point=128, batch_size=64,
                             schemes=("noma-sic",), min_errors=min_errors)
        run_sweep(config, reference_set, reference_gains, workers=2)
        # with or without a stop, a point is one task: while point 1 runs on the
        # other worker, point 0's batch 1 starts only after its batch 0 returned
        assert (beside, overlapped, after) == ([True], [False], [True])

    @pytest.mark.scheduler
    @pytest.mark.parametrize("min_errors", [0, 25])
    def test_more_workers_than_cores_under_fast_switching_match_one(
        self, reference_set, reference_gains, min_errors
    ):
        # small batches and a short switch interval interleave the workers'
        # takes and adds, in any order at 0; a lost update would change some total
        config = small_sweep(**{**MIXED_STOP, "batch_size": 128, "min_errors": min_errors})
        serial = run_sweep(config, reference_set, reference_gains, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_sweep(config, reference_set, reference_gains, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.scheduler
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failing_batch_stops_every_worker_and_reaches_the_caller(
        self, reference_set, reference_gains, monkeypatch, workers
    ):
        failure = RuntimeError("batch 2 of point 1 failed")
        started = []
        philox_stream = montecarlo.philox_stream

        def failing(seed, point, batch):
            started.append((point, batch))
            if (point, batch) == (1, 2):
                raise failure
            return philox_stream(seed, point, batch)

        monkeypatch.setattr(montecarlo, "philox_stream", failing)
        config = small_sweep(snr_points_db=(130.0, 144.0, 146.0), trials_per_point=4096,
                             schemes=("noma-sic",), batch_size=512)
        raised = []

        def sweep():
            try:
                run_sweep(config, reference_set, reference_gains, workers=workers)
            except RuntimeError as exc:
                raised.append(exc)

        threads = threading.active_count()
        # a worker left waiting for the failed batch would hang the sweep: fail instead
        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "the sweep hung after a batch failed"
        assert raised == [failure]
        assert threading.active_count() == threads
        # each other worker starts at most one batch after the failure: the one it
        # went on to before it could see the failure
        assert len(started) - started.index((1, 2)) - 1 < workers, started

    @pytest.mark.scheduler
    def test_a_thread_that_fails_to_start_stops_and_joins_the_started_one(
        self, reference_set, reference_gains, monkeypatch, streams_drawn
    ):
        failure = RuntimeError("can't start new thread")
        helpers, joining = [], threading.Event()
        counted = montecarlo.philox_stream

        class SecondFails(threading.Thread):
            def start(self):
                helpers.append(self)
                if len(helpers) == 2:
                    raise failure
                super().start()

            def join(self, timeout=None):
                joining.set()
                super().join(timeout)

        def held(*args):
            joining.wait(30.0)  # the first helper draws once the sweep joins it
            return counted(*args)

        monkeypatch.setattr(montecarlo, "Thread", SecondFails)
        monkeypatch.setattr(montecarlo, "philox_stream", held)
        config = small_sweep(snr_points_db=(130.0, 144.0, 146.0), trials_per_point=4096,
                             schemes=("noma-sic",), batch_size=512)
        with pytest.raises(RuntimeError) as raised:
            run_sweep(config, reference_set, reference_gains, workers=3)
        assert raised.value is failure
        # joined, not left computing the sweep in the background: it stopped
        # after the one batch it had begun, and the calling thread took none
        assert not helpers[0].is_alive()
        assert streams_drawn == [(config.seed, 0, 0)]

    @pytest.mark.scheduler
    @pytest.mark.parametrize("workers", [0, -1, montecarlo.MAX_WORKERS + 1, 10**6])
    def test_rejects_workers_below_one(self, reference_set, reference_gains, monkeypatch,
                                       workers):
        # and above the cap, before any thread exists: the stand-in starts none
        RecordingThread.made = 0
        monkeypatch.setattr(montecarlo, "Thread", RecordingThread)
        with pytest.raises(ParameterError, match="workers"):
            run_sweep(small_sweep(), reference_set, reference_gains, workers=workers)
        assert RecordingThread.made == 0

    @pytest.mark.parametrize("field", ["trials_per_point", "seed", "min_errors", "batch_size"])
    def test_integer_fields_reject_non_integers_naming_the_field(self, field):
        # a float seed was truncated into the Philox key; min_errors 0.5 acted as 1
        with pytest.raises(ParameterError, match=f"{field} must be an integer, got 1.5"):
            small_sweep(**{field: 1.5})
        small_sweep(**{field: np.int64(1)})

    @pytest.mark.scheduler
    def test_rejects_a_worker_count_that_is_no_integer(self, reference_set, reference_gains):
        # threading raised "'float' object cannot be interpreted as an integer"
        with pytest.raises(ParameterError, match="workers must be an integer"):
            run_sweep(small_sweep(), reference_set, reference_gains, workers=2.5)
        config = small_sweep(snr_points_db=(140.0,), trials_per_point=64, batch_size=32)
        assert (run_sweep(config, reference_set, reference_gains, workers=np.int64(2))
                == run_sweep(config, reference_set, reference_gains))

    def test_every_batch_consumed_at_zero_min_errors(self, reference_set, reference_gains,
                                                     streams_drawn):
        # every user errs in batch 0 at 100 dB, which stops the point at min_errors = 1
        calls = streams_drawn
        for min_errors, batches in ((1, 1), (0, 4)):
            calls.clear()
            config = small_sweep(snr_points_db=(100.0,), trials_per_point=256, batch_size=64,
                                 min_errors=min_errors)
            points = run_sweep(config, reference_set, reference_gains)
            assert {p.estimate.trials for p in points if p.user != "avg"} == {64 * batches}
            assert all(p.estimate.errors > 0 for p in points)
            assert len(calls) == batches

    def test_stop_rule_settles_a_scheme_when_each_of_its_users_has_min_errors(self):
        totals = np.array([[3, 4, 3], [3, 2, 5]])
        assert montecarlo._settled(totals, 3).tolist() == [True, False]
        assert montecarlo._settled(totals, 2).tolist() == [True, True]
        assert montecarlo._settled(totals, 0).tolist() == [False, False]

    def test_rows_hold_python_numbers(self, reference_set, reference_gains):
        # bench/run.py hashes repr() of these fields, and numpy scalars print differently
        for point in run_sweep(small_sweep(trials_per_point=512), reference_set,
                               reference_gains):
            estimate = point.estimate
            assert type(estimate.errors) is int and type(estimate.trials) is int
            assert {type(estimate.ser), type(estimate.ci_low), type(estimate.ci_high)} == {float}

    def test_early_stop_caps_trials(self, reference_set, reference_gains):
        config = small_sweep(snr_points_db=(130.0,), min_errors=10)
        points = run_sweep(config, reference_set, reference_gains)
        assert all(p.estimate.trials <= 8192 for p in points if p.user != "avg")

    def test_noise_free_point_decodes_perfectly(self, reference_set, reference_gains):
        config = small_sweep(snr_points_db=(INF, 1e308), trials_per_point=5_000)
        points = run_sweep(config, reference_set, reference_gains)
        assert all(p.estimate.errors == 0 for p in points)

    def test_deep_noise_limits(self, reference_set, reference_gains):
        config = small_sweep(snr_points_db=(-20.0,), trials_per_point=100_000, seed=1)
        points = run_sweep(config, reference_set, reference_gains)
        noma_limits = {"u1": 1 - 2.0**-3, "u2": 1 - 2.0**-2, "u3": 1 - 2.0**-2}
        oma_limits = {"u1": 1 - 2.0**-6, "u2": 1 - 2.0**-4, "u3": 1 - 2.0**-4}
        for p in points:
            if p.user == "avg":
                continue
            limit = oma_limits[p.user] if p.scheme == "oma" else noma_limits[p.user]
            assert p.estimate.ci_low <= limit <= p.estimate.ci_high, (p.scheme, p.user)

    def test_joint_ml_never_loses_on_common_noise(self, reference_set, reference_gains):
        config = small_sweep(snr_points_db=(132.0, 140.0, 148.0))
        points = run_sweep(config, reference_set, reference_gains)
        errors = {(p.snr_db, p.scheme): p.estimate.errors
                  for p in points if p.user == "u2"}
        for snr in (132.0, 140.0, 148.0):
            assert errors[(snr, "noma-jml")] <= errors[(snr, "noma-sic")]

    def test_estimates_cover_closed_form_for_edge_user(
        self, reference_set, reference_gains
    ):
        config = small_sweep(snr_points_db=(134.0, 142.0), trials_per_point=200_000,
                             schemes=("noma-sic",), seed=1)
        points = run_sweep(config, reference_set, reference_gains)
        for p in points:
            if p.user != "u2":
                continue
            sigma = sigma_from_snr(p.snr_db, 1.0)
            expected = ser_u2_analytic(reference_set, reference_gains, sigma)
            assert expected * p.estimate.trials >= 50
            low, high = wilson_interval(p.estimate.errors, p.estimate.trials, z=3.0)
            assert low <= expected <= high

    @pytest.mark.parametrize("schemes,u2_calls,center_calls", [
        (("noma-sic", "noma-jml", "oma"), 1, 2), (("noma-jml",), 0, 2), (("oma",), 0, 0)])
    def test_closed_forms_are_called_by_their_module_names(
        self, reference_set, reference_gains, monkeypatch, schemes, u2_calls, center_calls
    ):
        # the benchmark's tracer times the closed forms by replacing these attributes
        calls = []

        def counted(name):
            original = getattr(analytic, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("ser_u2_analytic", "ser_center_lower_bound"):
            monkeypatch.setattr(analytic, name, counted(name))
        run_sweep(small_sweep(trials_per_point=64, schemes=schemes), reference_set,
                  reference_gains)
        assert calls.count("ser_u2_analytic") == u2_calls
        assert calls.count("ser_center_lower_bound") == center_calls

    def test_rows_sorted_and_average_pools_users(self, reference_set, reference_gains):
        config = small_sweep(trials_per_point=4_000, schemes=("noma-sic",))
        points = run_sweep(config, reference_set, reference_gains)
        keys = [(p.snr_db, p.user, p.scheme) for p in points]
        assert keys == sorted(keys)
        by_user = {p.user: p.estimate for p in points if p.snr_db == 138.0}
        pooled = by_user["u1"].errors + by_user["u2"].errors + by_user["u3"].errors
        assert by_user["avg"].errors == pooled
        assert by_user["avg"].trials == 3 * by_user["u1"].trials
        assert by_user["avg"].ser == pytest.approx(
            (by_user["u1"].ser + by_user["u2"].ser + by_user["u3"].ser) / 3.0, rel=1e-12)

    def test_gap_violating_design_warns_but_runs(self, reference_gains):
        bad = from_raw_levels(SpectralEfficiencies(1, 1, 1),
                              [1, 2], [3, 4], [3, 4], [1, 2], 1.0)
        config = small_sweep(snr_points_db=(140.0,), trials_per_point=2_000,
                             schemes=("noma-sic",))
        with pytest.warns(UserWarning):
            points = run_sweep(config, bad, reference_gains)
        edge = [p for p in points if p.user == "u2"][0]
        assert edge.estimate.errors > 0

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ParameterError):
            SweepConfig(snr_points_db=(100.0,), trials_per_point=10, seed=0,
                        target_power_w=1.0, schemes=("fdma",))
        with pytest.raises(ParameterError, match="schemes"):
            SweepConfig(snr_points_db=(100.0,), trials_per_point=10, seed=0,
                        target_power_w=1.0, schemes=())

    def test_rejects_empty_grid(self):
        with pytest.raises(ParameterError):
            SweepConfig(snr_points_db=(), trials_per_point=10, seed=0, target_power_w=1.0)

    def test_rejects_a_repeated_scheme(self):
        # a repeated scheme used to run again and write its rows twice
        with pytest.raises(ParameterError, match=r"schemes lists a scheme twice: \('oma', 'oma'\)"):
            SweepConfig(snr_points_db=(100.0,), trials_per_point=10, seed=0,
                        target_power_w=1.0, schemes=("oma", "oma"))

    def test_rejects_a_repeated_point(self):
        # a repeated point used to write two row sets at one SNR
        with pytest.raises(ParameterError,
                           match=r"snr_points_db lists a point twice: \(110\.0, 120\.0, 110\.0\)"):
            SweepConfig(snr_points_db=(110.0, 120.0, 110.0), trials_per_point=10, seed=0,
                        target_power_w=1.0)


@pytest.mark.parametrize("schemes, compares", [(("noma-sic", "noma-jml", "oma"), 7),
                                               (("noma-sic", "noma-jml"), 4),
                                               (("noma-sic",), 3)])
def test_a_decision_that_schemes_share_is_compared_once(reference_set, reference_gains,
                                                        monkeypatch, schemes, compares):
    # both superposed schemes share users 1's and 3's symbols and decisions, which
    # were compared once per scheme: 9 and 6 compares where 7 and 4 are distinct
    config = small_sweep(snr_points_db=(140.0,), trials_per_point=4096, batch_size=4096,
                         schemes=schemes)
    unwrapped = run_sweep(config, reference_set, reference_gains)
    calls, count_nonzero = [], np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(args)
        return count_nonzero(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counted)
    assert run_sweep(config, reference_set, reference_gains) == unwrapped
    assert len(calls) == compares


SCHEME_SUBSETS = [subset for size in (1, 2, 3)
                  for subset in itertools.combinations(("noma-sic", "noma-jml", "oma"), size)]
# Sixteen batches per point.  At min_errors 10 the three schemes settle at
# different batches: noma-sic first, noma-jml never at 142 and 146 dB.
REPLAYED = dict(snr_points_db=(136.0, 142.0, 146.0), trials_per_point=4096, batch_size=256)


class TestReplay:
    """A sweep that ``run_sweep`` replays from its memo equals the same sweep simulated."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("min_errors", [0, 10, 10**6], ids=["zero", "mid-point", "never"])
    def test_every_covered_subset_equals_its_own_sweep(self, reference_set, reference_gains,
                                                      streams_drawn, workers, min_errors):
        def sweep(schemes, **kwargs):
            return run_sweep(small_sweep(**REPLAYED, schemes=schemes, min_errors=min_errors),
                             reference_set, reference_gains, **kwargs)

        alone = {subset: sweep(subset) for subset in SCHEME_SUBSETS}
        calls = streams_drawn
        stopped_sooner = False
        for superset in SCHEME_SUBSETS[3:]:  # the two- and three-scheme sweeps
            memo = {}
            assert sweep(superset, workers=workers, memo=memo) == alone[superset]
            for subset in SCHEME_SUBSETS:
                if set(subset) <= set(superset) and subset != ("oma",):
                    for order in (subset, subset[::-1]):
                        calls.clear()
                        assert sweep(order, workers=workers, memo=memo) == alone[subset], order
                        assert calls == [], order
                    stopped_sooner |= trials(alone[subset]) != trials(alone[superset])
        assert stopped_sooner == (min_errors == 10)

    def test_oma_alone_after_a_superposed_sweep_is_simulated(self, reference_set,
                                                             reference_gains, streams_drawn):
        # OMA draws after the superposed symbols, so alone its draws differ
        memo = {}
        oma = small_sweep(**REPLAYED, schemes=("oma",))
        shared = run_sweep(replace(oma, schemes=("noma-sic", "oma")), reference_set,
                           reference_gains, memo=memo)
        alone = run_sweep(oma, reference_set, reference_gains)
        calls = streams_drawn
        calls.clear()
        assert run_sweep(oma, reference_set, reference_gains, memo=memo) == alone
        assert len(calls) == 3 * 16
        assert [p for p in shared if p.scheme == "oma"] != alone
        calls.clear()
        assert run_sweep(oma, reference_set, reference_gains, memo=memo) == alone
        assert calls == []  # OMA alone is a layout of its own, so its first sweep is replayed

    @pytest.mark.parametrize("first, repeated", [(("oma",), ("noma-sic",)),
                                                 (("noma-sic", "oma"), ("oma",))],
                             ids=["oma-first", "superposed-first"])
    def test_a_repeated_sweep_of_either_layout_is_replayed(
            self, reference_set, reference_gains, streams_drawn, first, repeated):
        # the memo is keyed by what a sweep draws: the first sweep of the other
        # layout used to hold the one shared key, so every repeat was simulated
        config = small_sweep(**REPLAYED, schemes=repeated)
        alone = run_sweep(config, reference_set, reference_gains)
        memo = {}
        run_sweep(replace(config, schemes=first), reference_set, reference_gains, memo=memo)
        assert run_sweep(config, reference_set, reference_gains, memo=memo) == alone
        calls = streams_drawn
        calls.clear()
        assert run_sweep(config, reference_set, reference_gains, memo=memo) == alone
        assert calls == []

    def test_a_listed_grid_sweeps_with_and_without_a_memo(self, reference_set,
                                                         reference_gains):
        # the memo key was built, and hashed, on every call: a list raised TypeError
        listed = small_sweep(**{**REPLAYED, "snr_points_db": [136.0, 142.0],
                                "schemes": ["noma-sic", "oma"]})
        tupled = replace(listed, snr_points_db=(136.0, 142.0), schemes=("noma-sic", "oma"))
        assert listed == tupled and hash(listed) == hash(tupled)
        alone = run_sweep(tupled, reference_set, reference_gains)
        assert run_sweep(listed, reference_set, reference_gains) == alone
        assert run_sweep(listed, reference_set, reference_gains, memo={}) == alone
        # a listed ["oma"] used to miss the OMA-only guard and replay the superposed
        # sweep's OMA draws from the memo
        oma, oma_tupled = replace(tupled, schemes=["oma"]), replace(tupled, schemes=("oma",))
        assert oma == oma_tupled and hash(oma) == hash(oma_tupled)
        memo = {}
        run_sweep(listed, reference_set, reference_gains, memo=memo)
        assert run_sweep(oma, reference_set, reference_gains, memo=memo) == run_sweep(
            oma_tupled, reference_set, reference_gains)

    def test_only_an_equal_design_and_equal_settings_are_replayed(
            self, reference_set, reference_gains, streams_drawn):
        config = small_sweep(**REPLAYED, min_errors=10)
        memo = {}
        run_sweep(config, reference_set, reference_gains, memo=memo)
        calls = streams_drawn
        calls.clear()
        # equal by value, not the same objects
        equal = design_constellation(reference_set.bpcu, replace(reference_gains), 1.0)
        assert equal is not reference_set
        run_sweep(replace(config, schemes=("noma-sic",)), equal, replace(reference_gains),
                  memo=memo)
        assert calls == []
        other = design_constellation(reference_set.bpcu, reference_gains, 2.0)
        for changed, cset in [
                ({"seed": 4}, reference_set), ({"snr_points_db": (136.0, 142.0)}, reference_set),
                ({"trials_per_point": 4000}, reference_set), ({"batch_size": 512}, reference_set),
                ({"target_power_w": 2.0}, reference_set), ({"min_errors": 11}, reference_set),
                ({}, other)]:
            changed = replace(config, schemes=("noma-sic",), **changed)
            calls.clear()
            simulated = run_sweep(changed, cset, reference_gains, memo=memo)
            assert calls, changed
            assert simulated == run_sweep(changed, cset, reference_gains), changed

    def test_a_replayed_gap_failing_design_warns(self, reference_gains, streams_drawn):
        bad = from_raw_levels(SpectralEfficiencies(1, 1, 1), [1, 2], [3, 4], [3, 4], [1, 2], 1.0)
        config = small_sweep(snr_points_db=(140.0,), trials_per_point=2_000)
        memo = {}
        with pytest.warns(UserWarning, match="gap condition"):
            run_sweep(config, bad, reference_gains, memo=memo)
        calls = streams_drawn
        calls.clear()
        with pytest.warns(UserWarning, match="gap condition"):
            run_sweep(replace(config, schemes=("noma-sic",)), bad, reference_gains, memo=memo)
        assert calls == []

    def test_levels_not_uniformly_spaced_leave_their_closed_form_blank(self, reference_gains):
        # run_sweep used to simulate every batch, then raise from the closed form
        uneven = from_raw_levels(SpectralEfficiencies(1, 2, 1), [1, 2], [1, 2, 4, 5],
                                 [3, 5, 7, 9], [1, 2], 1.0)
        config = small_sweep(snr_points_db=(130.0, 140.0), trials_per_point=2048,
                             batch_size=512)
        memo = {}
        with pytest.warns(UserWarning, match="gap condition"):
            run_sweep(config, uneven, reference_gains, memo=memo)
            simulated = run_sweep(replace(config, schemes=("noma-sic",)), uneven,
                                  reference_gains)
            replayed = run_sweep(replace(config, schemes=("noma-sic",)), uneven,
                                 reference_gains, memo=memo)
        assert replayed == simulated
        analytic_values = {p.user: p.analytic for p in simulated if p.snr_db == 130.0}
        assert analytic_values["u2"] is None
        assert analytic_values["u1"] == ser_center_lower_bound(
            uneven, reference_gains, sigma_from_snr(130.0, 1.0), 1)
        assert type(analytic_values["u3"]) is float


def dataclass_instances(value):
    """Each dataclass instance in value, in their fields and in any tuple, list or dict."""
    if is_dataclass(value):
        yield value
        value = [getattr(value, field.name) for field in fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from dataclass_instances(item)


class TestValueComparisons:
    """No dataclass instance that the package returns has an == or a hash that raises."""

    def test_configs_designs_receivers_and_rows(self):
        cfg = load_config(None, {"trials_per_point": "512", "batch_size": "256",
                                 "snr_points_db": "120:140",
                                 "schemes": "noma-sic,noma-jml,oma"})
        gains, cset = cfg.design()
        tables = receivers(cset, gains, cfg.sweep.schemes, cfg.target_power_w)
        rows = run_sweep(cfg.sweep, cset, gains)
        found = list(dataclass_instances([cfg, gains, cset, tables, rows]))
        for value in found:
            twin = copy.deepcopy(value)  # equal, in other objects down to every array
            # receivers compare by identity, as their decision tables do
            assert (value == twin) is not isinstance(value, SicReceiver), value
            hash(value)
        assert {type(value).__name__ for value in found} == {
            "ExperimentConfig", "ScenarioGeometry", "OpticalFrontEnd", "ChannelGains",
            "SpectralEfficiencies", "SweepConfig", "ConstellationSet", "SicReceiver",
            "SerPoint", "SerEstimate"}


def trials(points) -> list[int]:
    """Trials of each SNR point of a sweep's rows."""
    return list({p.snr_db: p.estimate.trials for p in points if p.user != "avg"}.values())


def sweep_with(**overrides):
    return small_sweep(**{"snr_points_db": (100.0,), "trials_per_point": 10, **overrides})


# "function.field" or "function.field=value" -> a call that must reject the
# value (NaN unless named) with a message naming the field.
NAN_CASES = {
    "oma_levels.avg_intensity_w": lambda cset, g: oma_levels(
        SpectralEfficiencies(1, 1, 1), g, NAN),
    "oma_pam_points.avg_intensity_w": lambda cset, g: oma_pam_points(4, NAN),
    "oma_pam_points.avg_intensity_w=inf": lambda cset, g: oma_pam_points(4, INF),
    "SweepConfig.target_power_w": lambda cset, g: sweep_with(target_power_w=NAN),
    "SweepConfig.target_power_w=inf": lambda cset, g: sweep_with(target_power_w=INF),
    "SweepConfig.snr_points_db": lambda cset, g: sweep_with(snr_points_db=(100.0, NAN)),
    "SweepConfig.snr_points_db=-inf": lambda cset, g: sweep_with(snr_points_db=(-INF,)),
    "SweepConfig.snr_points_db=-1e308": lambda cset, g: sweep_with(snr_points_db=(-1e308,)),
    "sigma_from_snr.target_power_w": lambda cset, g: sigma_from_snr(100.0, NAN),
    "sigma_from_snr.target_power_w=inf": lambda cset, g: sigma_from_snr(100.0, INF),
    "sigma_from_snr.snr_db": lambda cset, g: sigma_from_snr(NAN, 1.0),
    "sigma_from_snr.snr_db=-inf": lambda cset, g: sigma_from_snr(-INF, 1.0),
    "from_raw_levels.avg_power_w": lambda cset, g: from_raw_levels(
        SpectralEfficiencies(1, 1, 1), [1, 2], [4, 9], [4, 9], [1, 2], NAN),
    "from_raw_levels.avg_power_w=inf": lambda cset, g: from_raw_levels(
        SpectralEfficiencies(1, 1, 1), [1, 2], [4, 9], [4, 9], [1, 2], INF),
    "ser_u2_analytic.sigma": lambda cset, g: ser_u2_analytic(cset, g, NAN),
    "ser_center_lower_bound.sigma": lambda cset, g: ser_center_lower_bound(cset, g, NAN, 1),
}


@pytest.mark.parametrize("field", NAN_CASES)
def test_nan_rejected_naming_the_field(field, reference_set, reference_gains):
    with pytest.raises(ParameterError, match=field.split("=")[0].rsplit(".", 1)[1]):
        NAN_CASES[field](reference_set, reference_gains)


def frame_arrays(frame) -> dict:
    """Every array of a ``_frame`` result, keyed by where it sits."""
    sent, received, decided = frame
    arrays = {("received", k): y for k, y in enumerate(received or ())}
    for part, mapping in (("sent", sent), ("decided", decided)):
        arrays.update({(part, key, k): x for key, xs in mapping.items() for k, x in enumerate(xs)})
    return arrays


@pytest.mark.parametrize("schemes", SCHEME_SUBSETS, ids="+".join)
class TestFrameWorkspace:
    BATCH = 4096

    def test_reused_workspace_matches_allocating_frame(self, schemes, reference_set,
                                                       reference_gains):
        self.assert_reused_workspace_matches(schemes, reference_set, reference_gains)

    # every reference table counts its thresholds; between them these designs
    # send both SIC stages, the edge tables and all three OMA tables through
    # the bucketed lookup, whose scratch arrays the other stages share; the
    # last has more than MAX_PAIRS (u1, u2) pairs, so it sums each trial's levels
    @pytest.mark.parametrize("bits", [(6, 2, 2), (2, 6, 2), (3, 2, 6), (7, 6, 1)],
                             ids=["6-2-2", "2-6-2", "3-2-6", "7-6-1-summed"])
    def test_reused_workspace_matches_allocating_frame_on_bucketed_tables(
            self, schemes, bits, reference_gains):
        cset = design_constellation(SpectralEfficiencies(*bits), reference_gains, 1.0)
        self.assert_reused_workspace_matches(schemes, cset, reference_gains)

    def assert_reused_workspace_matches(self, schemes, cset, gains):
        tables = receivers(cset, gains, schemes, 1.0)
        frame_args = (cset, tables)
        sigma = sigma_from_snr(136.0, 1.0)
        superposed = any(scheme.startswith("noma") for scheme in schemes)
        ws = Workspace()
        # a full batch, a partial last batch and one trial, each right after
        # a frame of another size at another SNR has filled the workspace
        for n, other in ((self.BATCH, 1), (1808, self.BATCH), (1, 1808)):
            _frame(philox_stream(9, 1, n), other, sigma_from_snr(112.0, 1.0), *frame_args, ws)
            reused = _frame(philox_stream(5, 0, n), n, sigma, *frame_args, ws)
            want = frame_arrays(_frame(philox_stream(5, 0, n), n, sigma, *frame_args))
            # a worker holds one received amplitude at a time: only the
            # allocating frame returns all three
            assert reused[1] is None
            got = frame_arrays(reused)
            assert got.keys() == {key for key in want if key[0] != "received"}
            assert len(want) - len(got) == 3 * superposed
            for key, array in want.items():
                assert array.shape == (n,), key
                if key[0] != "received":
                    assert got[key].dtype == array.dtype and got[key].shape == (n,), key
                    assert np.array_equal(got[key], array), (n, key)

    def test_warmed_frame_allocates_only_symbol_draws(self, schemes, reference_set,
                                                      reference_gains):
        # a default-size batch, so the constant slack is 2 B per trial
        n = 1 << 15
        tables = receivers(reference_set, reference_gains, schemes, 1.0)
        frame_args = (sigma_from_snr(136.0, 1.0), reference_set, tables)
        ws = Workspace()
        _frame(philox_stream(5, 0, 0), n, *frame_args, ws)
        tracemalloc.start()
        try:
            sent = _frame(philox_stream(5, 0, 1), n, *frame_args, ws)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three byte symbol draws per transmission, superposed and orthogonal,
        # and the one int32 array that each is drawn in; held as int32 they
        # took 4 B each
        assert all(x.dtype == np.uint8 for xs in sent.values() for x in xs)
        draws = 3 * (any(s.startswith("noma") for s in schemes) + ("oma" in schemes))
        assert peak <= (4 + draws) * n + 64 * 1024, peak / n


@pytest.mark.parametrize("bits,schemes,bound", [((3, 2, 2), ("noma-sic",), 31),
                                                ((3, 2, 2), ("noma-sic", "noma-jml", "oma"), 35),
                                                ((7, 6, 1), ("noma-sic",), 38)],
                         ids=["noma-sic", "all", "noma-sic-summed"])
def test_warmed_workspace_bytes_per_trial(bits, schemes, bound, reference_gains):
    # one received amplitude at a time, gathered from the sweep's tables of
    # every symbol pair, or summed from the levels with one more float where
    # a cell has more than MAX_PAIRS pairs; with y1..y3 alive at once they
    # took 54, 58 and 54, with all of a table's compares at once 60 and 73,
    # with an array per call site 68 and 111, with intp decisions 97 and 161
    n = 1 << 15
    cset = design_constellation(SpectralEfficiencies(*bits), reference_gains, 1.0)
    tables = receivers(cset, reference_gains, schemes, 1.0)
    ws = Workspace()
    for batch in range(2):
        _frame(philox_stream(5, 0, batch), n, sigma_from_snr(136.0, 1.0), cset, tables, ws)
    held = sum(array.nbytes for array in ws._arrays.values())
    assert held <= bound * n, held / n


# the reference design counts every threshold; the next two send the edge
# tables and SIC stages through the bucketed lookup; the last has more than
# MAX_PAIRS (u1, u2) pairs, so its sweeps sum each trial's levels
@pytest.mark.parametrize("bits", [(3, 2, 2), (2, 6, 2), (3, 2, 6), (7, 6, 1)],
                         ids=["3-2-2", "2-6-2", "3-2-6", "7-6-1-summed"])
class TestReceivedAmplitudes:
    def test_amplitudes_are_each_pairs_level_sums(self, bits, reference_gains):
        # each pair's levels summed and scaled in Python floats, the ops that
        # superpose_transmit makes on each trial: the tables hold the same doubles
        g, sizes = reference_gains, [2**b for b in bits]
        cset = design_constellation(SpectralEfficiencies(*bits), g, 1.0)
        products = receivers(cset, g, ("noma-sic",), 1.0)["amplitudes"]
        cells = [(cset.cell1_center, cset.cell1_edge)] * 2 + [(cset.cell2_edge,
                                                                cset.cell2_center)] * 2
        tabulated = max(sizes[0], sizes[2]) * sizes[1] <= montecarlo.MAX_PAIRS
        assert tabulated == (bits != (7, 6, 1))
        for product, (low, high), h in zip(products, cells, (g.h11, g.h21, g.h22, g.h32),
                                           strict=True):
            if not tabulated:
                assert [*map(np.array_equal, product[:2], (low, high)), product[2]] == [1, 1, h]
                continue
            assert product.shape == (low.size, high.size)
            for a, b in itertools.product(range(low.size), range(high.size)):
                want = (float(low[a]) + float(high[b])) * h
                assert product[a, b].view(np.int64) == np.float64(want).view(np.int64)

    def test_received_is_the_noise_drawn_y1_y2_y3_after_the_symbols(self, bits,
                                                                     reference_gains):
        cset = design_constellation(SpectralEfficiencies(*bits), reference_gains, 1.0)
        tables = receivers(cset, reference_gains, ("noma-sic", "noma-jml", "oma"), 1.0)
        n, sigma = 3000, sigma_from_snr(130.0, 1.0)
        sent, received, _ = _frame(philox_stream(3, 0, 0), n, sigma, cset, tables)
        rng = philox_stream(3, 0, 0)
        drawn = tuple(rng.integers(0, m, n) for m in cset.bpcu.sizes)
        assert all(np.array_equal(a, b) for a, b in zip(sent["noma-sic"], drawn, strict=True))
        noiseless = superpose_transmit(drawn, cset, reference_gains)
        for y, level in zip(received, noiseless, strict=True):
            want = level + sigma * rng.standard_normal(n)
            assert np.array_equal(y.view(np.int64), want.view(np.int64))


class TestStreamAddressing:
    def test_first_draws_are_pinned(self):
        # NumPy may change Generator output between feature releases (NEP 19);
        # such a release fails here rather than in every golden
        rng = philox_stream(1, 0, 0)
        assert [rng.integers(0, m, 6).tolist() for m in (8, 4, 64)] == [
            [3, 2, 5, 6, 3, 1], [1, 0, 2, 3, 1, 0], [52, 47, 21, 15, 52, 26]]
        assert rng.standard_normal(3).tolist() == [
            0.8173446308164533, -0.03168605710922687, -0.7632657561231186]

    def test_int32_draws_equal_int64_draws(self):
        # _frame draws symbols as int32 and holds them in the smallest type
        # that fits.  Below 2**32 NumPy draws the same bounded values for
        # both dtypes; a release that splits them fails here rather than in
        # every golden.  Sizes: every 2**b up to MAX_GRID, which holds each
        # user's 2**bpcu and each OMA size 4**bpcu.
        for bits in range(1, MAX_GRID.bit_length()):
            narrow, wide = philox_stream(7, bits, 0), philox_stream(7, bits, 0)
            for n in (1, 2, 7, 4096, 4097):
                sizes = (2**bits, 2, 2**bits)
                for sent, size in zip(_symbols(narrow, sizes, n), sizes, strict=True):
                    assert sent.dtype == np.min_scalar_type(size - 1), (bits, size)
                    assert np.array_equal(sent, wide.integers(0, size, n)), (bits, n, size)
                assert np.array_equal(narrow.standard_normal(n), wide.standard_normal(n))

    @pytest.mark.parametrize("snr_index,batch_index", [(2**32 - 1, 0), (0, 2**32 - 1)])
    def test_last_address_accepted(self, snr_index, batch_index):
        philox_stream(0, snr_index, batch_index).standard_normal()

    @pytest.mark.parametrize("snr_index,batch_index",
                             [(2**32, 0), (-1, 0), (0, 2**32), (0, -1)])
    def test_out_of_range_address_rejected(self, snr_index, batch_index):
        with pytest.raises(ParameterError):
            philox_stream(0, snr_index, batch_index)

    def test_trial_budget_fits_batch_counter(self):
        SweepConfig(snr_points_db=(100.0,), trials_per_point=2**32 - 1, seed=0,
                    target_power_w=1.0, batch_size=1)
        with pytest.raises(ParameterError, match="stream-addressing"):
            SweepConfig(snr_points_db=(100.0,), trials_per_point=2**32, seed=0,
                        target_power_w=1.0, batch_size=1)


class RecordingThread:
    """Stands in for threading.Thread: counts the helper threads made and
    started, but runs none, so the calling thread computes every point."""

    made = started = joined = 0

    def __init__(self, target):
        RecordingThread.made += 1

    def start(self):
        RecordingThread.started += 1

    def join(self):
        RecordingThread.joined += 1


def test_importing_the_cli_loads_no_executor_and_no_logging():
    # plain threads: concurrent.futures would load logging, queue, heapq and
    # string into every process, about 0.6 MB of RSS
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, vlcnoma.cli; print(vlcnoma.cli.__file__);"
            " print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.splitlines()
    assert Path(out[0]).resolve().parent == src / "vlcnoma"
    assert out[1] == "[]"


class TestResourceBounds:
    def test_batch_size_bound(self):
        SweepConfig(snr_points_db=(100.0,), trials_per_point=1, seed=0, target_power_w=1.0,
                    batch_size=montecarlo.MAX_BATCH)
        # a batch of 2**40 trials used to exit 2 on an 8 TiB allocation
        for size in (montecarlo.MAX_BATCH + 1, 2**40):
            with pytest.raises(ParameterError, match="batch_size"):
                SweepConfig(snr_points_db=(100.0,), trials_per_point=1, seed=0,
                            target_power_w=1.0, batch_size=size)

    def test_sweep_size_bounds_name_their_keys(self):
        def sweep(points, trials):
            return SweepConfig(snr_points_db=points, trials_per_point=trials, seed=0,
                               target_power_w=1.0)

        cap = montecarlo.MAX_POINTS
        grid = tuple(float(k) for k in range(cap + 1))
        sweep(grid[:cap], 1)
        sweep((100.0, 110.0), montecarlo.MAX_TRIALS // 2)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"snr_points_db must hold 1..{cap} points"):
                sweep(grid, 1)
            # the paper's scale is 26 points of 100 000 trials
            with pytest.raises(ParameterError, match=re.escape(
                    f"snr_points_db (2 points) times trials_per_point"
                    f" ({montecarlo.MAX_TRIALS // 2 + 1}) is more than the"
                    f" {montecarlo.MAX_TRIALS} trials of one sweep")):
                sweep((100.0, 110.0), montecarlo.MAX_TRIALS // 2 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert 26 * 100_000 * 1000 < montecarlo.MAX_TRIALS

    @pytest.mark.scheduler
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, montecarlo.MAX_WORKERS])
    def test_workers_clamped_to_the_sweeps_point_count(self, reference_set, reference_gains,
                                                       monkeypatch, workers):
        # one point of three batches is one task: no helper thread for any worker
        # count; three points take at most three workers, the calling thread
        # among them, and every helper started is joined
        configs = [small_sweep(snr_points_db=points, trials_per_point=300, batch_size=128)
                   for points in ((140.0,), (140.0, 142.0, 144.0))]
        serial = [run_sweep(config, reference_set, reference_gains) for config in configs]
        monkeypatch.setattr(montecarlo, "Thread", RecordingThread)
        for config, rows, pool in zip(configs, serial, (1, min(workers, 3))):
            RecordingThread.made = RecordingThread.started = RecordingThread.joined = 0
            assert run_sweep(config, reference_set, reference_gains, workers=workers) == rows
            assert (RecordingThread.made, RecordingThread.started,
                    RecordingThread.joined) == (pool - 1,) * 3

    def test_joint_ml_table_of_2_20_tuples_fits_in_120_mb(self):
        # an int64 index grid of every tuple, and a bisection over all 2^20
        # adjacent candidates, peaked near 170 MB; from an open grid, bisecting
        # only where the u2 label changes, it peaks near 85 MB
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        out = subprocess.run([sys.executable, "-c", JML_TABLE_PEAK], capture_output=True,
                             text=True, env=env, timeout=300, check=True).stdout.split()
        assert out[:2] == ["63", "64"] and int(out[2]) <= 120 * 1024  # VmHWM, KiB

    def test_batch_sizes_come_from_the_index(self, reference_set, reference_gains):
        # 2**22 batches per point; a list of their sizes would take 32 MiB.
        # Every user errs in the first batch at 100 dB, so the point stops there.
        config = small_sweep(snr_points_db=(100.0,), trials_per_point=64 << 22, batch_size=64,
                             schemes=("noma-sic",), min_errors=1)
        tracemalloc.start()
        try:
            points = run_sweep(config, reference_set, reference_gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert {p.estimate.trials for p in points if p.user != "avg"} == {64}
        assert peak < 4 << 20, peak
