import itertools

import numpy as np
import pytest

from vlcnoma import ChannelGains, SpectralEfficiencies, design_constellation
from vlcnoma.constellation import from_raw_levels
from vlcnoma.errors import ParameterError
from vlcnoma.link import (MetricCounter, OmaConfig, awgn_sample, decode_center_sic,
                          decode_u2_jml, decode_u2_sic, oma_pam_points, oma_round,
                          superpose_transmit)
from vlcnoma.montecarlo import philox_stream


@pytest.fixture(scope="module")
def small_set(reference_gains):
    return design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)


@pytest.fixture(scope="module")
def reference_set(reference_bpcu, reference_gains):
    return design_constellation(reference_bpcu, reference_gains, 1.0)


class TestSuperposeTransmit:
    def test_smallest_case_first_tuple(self, small_set, reference_gains):
        y1, _, _ = superpose_transmit((1, 1, 1), small_set, reference_gains)
        assert float(y1) == pytest.approx((1 / 7 + 3 / 7) * reference_gains.h11, rel=1e-12)

    def test_zero_gains_give_zero_signals(self, small_set):
        zero = ChannelGains(0.0, 0.0, 0.0, 0.0)
        y1, y2, y3 = superpose_transmit((2, 2, 1), small_set, zero)
        assert float(y1) == 0.0 and float(y2) == 0.0 and float(y3) == 0.0

    def test_far_cell_signal_ignores_near_cell_symbol(self, reference_set, reference_gains):
        fixed = superpose_transmit((1, 2, 3), reference_set, reference_gains)
        moved = superpose_transmit((8, 2, 3), reference_set, reference_gains)
        assert float(fixed[2]) == float(moved[2])
        assert float(fixed[0]) != float(moved[0])

    def test_out_of_range_index_rejected(self, small_set, reference_gains):
        with pytest.raises(ParameterError):
            superpose_transmit((3, 1, 1), small_set, reference_gains)


class TestAwgnSample:
    def test_zero_sigma_is_identity(self, small_set, reference_gains):
        y = superpose_transmit((1, 2, 1), small_set, reference_gains)
        noisy = awgn_sample(y, 0.0, philox_stream(0, 0, 0))
        assert float(noisy[0]) == float(y[0])
        assert float(noisy[1]) == float(y[1])
        assert float(noisy[2]) == float(y[2])

    def test_same_stream_address_replays_identically(self, small_set, reference_gains):
        y = superpose_transmit((1, 2, 1), small_set, reference_gains)
        a = awgn_sample(y, 2.5, philox_stream(42, 3, 7))
        b = awgn_sample(y, 2.5, philox_stream(42, 3, 7))
        assert float(a[0]) == float(b[0]) and float(a[1]) == float(b[1])
        c = awgn_sample(y, 2.5, philox_stream(42, 3, 8))
        assert float(a[0]) != float(c[0])

    def test_empirical_variance_matches_sigma(self):
        sigma = 0.375
        n = 1_000_000
        zeros = (np.zeros(n), np.zeros(n), np.zeros(n))
        _, y2, _ = awgn_sample(zeros, sigma, philox_stream(11, 0, 0))
        assert np.var(y2) == pytest.approx(sigma**2, rel=0.01)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ParameterError):
            awgn_sample((0.0, 0.0, 0.0), -1.0, philox_stream(0, 0, 0))

    def test_nan_sigma_rejected(self):
        with pytest.raises(ParameterError):
            awgn_sample((0.0, 0.0, 0.0), float("nan"), philox_stream(0, 0, 0))


class TestSicDecoders:
    def test_noiseless_round_trip_reference_set(self, reference_set, reference_gains):
        m1, m2, m3 = reference_set.bpcu.sizes
        grid = np.array(list(itertools.product(
            range(1, m1 + 1), range(1, m2 + 1), range(1, m3 + 1)))).T
        y1, _, y3 = superpose_transmit((grid[0], grid[1], grid[2]), reference_set,
                                       reference_gains)
        u1_hat, stage1 = decode_center_sic(y1, reference_gains.h11, reference_set, 1)
        u3_hat, stage3 = decode_center_sic(y3, reference_gains.h32, reference_set, 3)
        assert np.array_equal(u1_hat, grid[0])
        assert np.array_equal(u3_hat, grid[2])
        # the stage-1 estimates recover the edge symbol too
        assert np.array_equal(stage1, grid[1])
        assert np.array_equal(stage3, grid[1])

    def test_midway_tie_breaks_to_lowest_index(self):
        # raw sums make the scale exactly 1/8, so every level and the
        # midpoint are dyadic and the two distances compare exactly equal
        cset = from_raw_levels(SpectralEfficiencies(1, 1, 1),
                               [1.0, 2.0], [4.0, 9.0], [4.0, 9.0], [1.0, 2.0], 1.0)
        edge = cset.cell1_edge
        assert edge.tolist() == [0.5, 1.125]
        midpoint = float((edge[0] + edge[1]) / 2.0)
        _, stage1 = decode_center_sic(midpoint, 1.0, cset, 1)
        assert int(stage1) == 1

    def test_stage_counts(self, reference_set, reference_gains):
        counter = MetricCounter()
        decode_center_sic(np.zeros(10), reference_gains.h11, reference_set, 1, counter)
        assert counter.evaluations == 10 * (2**2 + 2**3)
        counter = MetricCounter()
        decode_center_sic(np.zeros(10), reference_gains.h32, reference_set, 3, counter)
        assert counter.evaluations == 10 * (2**2 + 2**2)

    def test_invalid_user_rejected(self, reference_set, reference_gains):
        with pytest.raises(ParameterError):
            decode_center_sic(0.0, reference_gains.h11, reference_set, 2)


class TestEdgeDecoders:
    def test_interference_as_noise_counts(self, reference_set, reference_gains):
        counter = MetricCounter()
        decode_u2_sic(np.zeros(5), reference_gains, reference_set, counter)
        assert counter.evaluations == 5 * 4

    def test_joint_ml_counts(self, reference_set, reference_gains):
        counter = MetricCounter()
        decode_u2_jml(np.zeros(5), reference_gains, reference_set, counter)
        assert counter.evaluations == 5 * 128

    def test_noiseless_joint_ml_recovers_edge_symbol(self, reference_set, reference_gains):
        m1, m2, m3 = reference_set.bpcu.sizes
        grid = np.array(list(itertools.product(
            range(1, m1 + 1), range(1, m2 + 1), range(1, m3 + 1)))).T
        _, y2, _ = superpose_transmit((grid[0], grid[1], grid[2]), reference_set,
                                      reference_gains)
        assert np.array_equal(decode_u2_jml(y2, reference_gains, reference_set), grid[1])
        assert np.array_equal(decode_u2_sic(y2, reference_gains, reference_set), grid[1])

    def test_gap_violating_levels_misdecode_noiselessly(self, reference_gains):
        bad = from_raw_levels(SpectralEfficiencies(1, 1, 1),
                              [1, 2], [3, 4], [3, 4], [1, 2], 1.0)
        grid = np.array(list(itertools.product((1, 2), (1, 2), (1, 2)))).T
        _, y2, _ = superpose_transmit((grid[0], grid[1], grid[2]), bad, reference_gains)
        decoded = decode_u2_sic(y2, reference_gains, bad)
        assert np.any(decoded != grid[1])

    def test_common_noise_joint_ml_beats_interference_as_noise(
        self, reference_set, reference_gains
    ):
        rng = philox_stream(5, 0, 0)
        n = 20_000
        m1, m2, m3 = reference_set.bpcu.sizes
        symbols = (rng.integers(1, m1 + 1, n), rng.integers(1, m2 + 1, n),
                   rng.integers(1, m3 + 1, n))
        _, y2, _ = awgn_sample(superpose_transmit(symbols, reference_set, reference_gains),
                               1e-7, rng)
        sic_errors = np.count_nonzero(
            decode_u2_sic(y2, reference_gains, reference_set) != symbols[1])
        jml_errors = np.count_nonzero(
            decode_u2_jml(y2, reference_gains, reference_set) != symbols[1])
        assert jml_errors <= sic_errors


class TestOmaPam:
    def test_four_level_unit_mean(self):
        assert oma_pam_points(4, 1.0).tolist() == pytest.approx([0.4, 0.8, 1.2, 1.6])

    def test_two_level_unit_mean(self):
        assert oma_pam_points(2, 1.0).tolist() == pytest.approx([2 / 3, 4 / 3])

    @pytest.mark.parametrize("size,avg", [(2, 1.0), (16, 0.5), (64, 3.0)])
    def test_mean_equals_average_intensity(self, size, avg):
        assert oma_pam_points(size, avg).mean() == pytest.approx(avg, rel=1e-12)

    def test_invalid_size_rejected(self):
        with pytest.raises(ParameterError):
            oma_pam_points(1, 1.0)


class TestOmaRound:
    def test_noiseless_frame_decodes_exactly(self, reference_bpcu, reference_gains):
        config = OmaConfig.from_noma(reference_bpcu, 1.0)
        assert config.sizes == (64, 16, 16)
        rng = philox_stream(0, 0, 0)
        sizes = config.sizes
        symbols = (rng.integers(1, sizes[0] + 1, 500), rng.integers(1, sizes[1] + 1, 500),
                   rng.integers(1, sizes[2] + 1, 500))
        decoded = oma_round(symbols, reference_gains, 0.0, config,
                            philox_stream(0, 0, 1))
        for sent, got in zip(symbols, decoded):
            assert np.array_equal(sent, got)

    def test_per_frame_metric_counts(self, reference_bpcu, reference_gains):
        config = OmaConfig.from_noma(reference_bpcu, 1.0)
        counter = MetricCounter()
        oma_round((1, 1, 1), reference_gains, 0.0, config,
                  philox_stream(0, 0, 0), counter)
        # frame total is twice the per-channel-use average of 48
        assert counter.evaluations == 64 + 16 + 16

    def test_average_transmit_power_per_slot_is_target(self, reference_bpcu):
        config = OmaConfig.from_noma(reference_bpcu, 2.5)
        for size in config.sizes:
            assert oma_pam_points(size, config.avg_intensity_w).mean() == pytest.approx(
                2.5, rel=1e-12)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_bad_sigma_rejected(self, sigma, reference_bpcu, reference_gains):
        with pytest.raises(ParameterError):
            oma_round((1, 1, 1), reference_gains, sigma,
                      OmaConfig.from_noma(reference_bpcu, 1.0), philox_stream(0, 0, 0))
