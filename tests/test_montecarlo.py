import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (SpectralEfficiencies, SweepConfig, design_constellation, run_sweep,
                     ser_u2_analytic)
from vlcnoma.analytic import ser_center_lower_bound
from vlcnoma.constellation import from_raw_levels
from vlcnoma.link import oma_pam_points, oma_round
from vlcnoma.montecarlo import philox_stream, sigma_from_snr, wilson_interval
from vlcnoma.errors import ParameterError

NAN = float("nan")
INF = float("inf")


@pytest.fixture(scope="module")
def reference_set(reference_bpcu, reference_gains):
    return design_constellation(reference_bpcu, reference_gains, 1.0)


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


class TestRunSweep:
    def test_identical_runs_are_bit_identical(self, reference_set, reference_gains):
        config = small_sweep()
        assert run_sweep(config, reference_set, reference_gains) == run_sweep(
            config, reference_set, reference_gains)

    @pytest.mark.parametrize("min_errors", [0, 25])
    def test_result_independent_of_worker_count(
        self, reference_set, reference_gains, min_errors
    ):
        # five batches per point leave a partial last window for 2, 3 and 4 workers
        config = small_sweep(min_errors=min_errors)
        serial = run_sweep(config, reference_set, reference_gains, workers=1)
        for workers in (2, 3, 4):
            assert run_sweep(config, reference_set, reference_gains,
                             workers=workers) == serial, workers

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, reference_set, reference_gains, workers):
        with pytest.raises(ParameterError, match="workers"):
            run_sweep(small_sweep(), reference_set, reference_gains, workers=workers)

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


def sweep_with(**overrides):
    return small_sweep(**{"snr_points_db": (100.0,), "trials_per_point": 10, **overrides})


# "function.field" or "function.field=value" -> a call that must reject the
# value (NaN unless named) with a message naming the field.
NAN_CASES = {
    "oma_round.avg_intensity_w": lambda cset, g: oma_round(
        (1, 1, 1), g, 0.0, (4, 4, 4), NAN, philox_stream(0, 0, 0)),
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
    "ser_u2_analytic.sigma2": lambda cset, g: ser_u2_analytic(cset, g, NAN),
    "ser_center_lower_bound.sigma": lambda cset, g: ser_center_lower_bound(cset, g, NAN, 1),
}


@pytest.mark.parametrize("field", NAN_CASES)
def test_nan_rejected_naming_the_field(field, reference_set, reference_gains):
    with pytest.raises(ParameterError, match=field.split("=")[0].rsplit(".", 1)[1]):
        NAN_CASES[field](reference_set, reference_gains)


class TestStreamAddressing:
    # The other edge, len(snr_points_db) >= 2**31, is left untested: it needs
    # a tuple of 2**31 SNR points to build.

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
