import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlcnoma import ChannelGains, gain_matrix, load_config
from vlcnoma.channel import (OpticalFrontEnd, ScenarioGeometry, concentrator_gain, dc_gain,
                             lambertian_order, link_geometry)
from vlcnoma.errors import ParameterError


class TestLambertianOrder:
    def test_sixty_degrees_is_exactly_one(self):
        assert lambertian_order(60.0) == pytest.approx(1.0, abs=1e-12)

    def test_thirty_degrees_matches_closed_form(self):
        # oracle: -1/log2(cos 30 deg) evaluated independently
        expected = -1.0 / math.log2(math.sqrt(3.0) / 2.0)
        assert lambertian_order(30.0) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(4.82, abs=5e-3)

    def test_near_grazing_semi_angle_stays_finite(self):
        value = lambertian_order(89.999)
        assert math.isfinite(value)
        assert value > 0

    @pytest.mark.parametrize("bad", [0.0, 90.0, -5.0, 120.0])
    def test_out_of_range_semi_angle_rejected(self, bad):
        with pytest.raises(ParameterError):
            lambertian_order(bad)


class TestLinkGeometry:
    def test_directly_below(self):
        d, cosine = link_geometry(0.0, 4.0, 0.5)
        assert d == pytest.approx(3.5)
        assert cosine == 1.0

    def test_first_cell_center_link(self):
        d, cosine = link_geometry(0.4885, 4.0, 0.5)
        expected_d = math.sqrt(0.4885**2 + 3.5**2)
        assert d == pytest.approx(expected_d, rel=1e-14)
        assert cosine == pytest.approx(3.5 / expected_d, rel=1e-14)
        assert d == pytest.approx(3.53393, abs=1e-5)
        assert cosine == pytest.approx(0.99040, abs=1e-5)

    def test_first_cell_edge_link(self):
        d, cosine = link_geometry(3.2880, 4.0, 0.5)
        expected_d = math.sqrt(3.2880**2 + 3.5**2)
        assert d == pytest.approx(expected_d, rel=1e-14)
        assert cosine == pytest.approx(3.5 / expected_d, rel=1e-14)

    def test_receiver_above_ceiling_rejected(self):
        with pytest.raises(ParameterError,
                           match=r"receiver height 4\.0 must be below room height 4\.0"):
            link_geometry(1.0, 4.0, 4.0)
        with pytest.raises(ParameterError,
                           match=r"receiver height 5\.0 must be below room height 4\.0"):
            link_geometry(1.0, 4.0, 5.0)

    def test_negative_top_view_distance_rejected(self):
        with pytest.raises(ParameterError, match=r"top-view distance must be >= 0, got -0\.5"):
            link_geometry(-0.5, 4.0, 0.5)


class TestConcentratorGain:
    def test_inside_fov(self):
        assert concentrator_gain(30.0, 60.0, 1.5) == pytest.approx(3.0, rel=1e-12)

    def test_outside_fov_is_zero(self):
        assert concentrator_gain(70.0, 60.0, 1.5) == 0.0

    def test_unit_index_hemisphere(self):
        assert concentrator_gain(45.0, 90.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_unresolvably_narrow_fov_is_infinite(self):
        assert concentrator_gain(0.0, 1e-308, 1.5) == float("inf")

    @pytest.mark.parametrize("angle", [-1.0, 90.5, math.nan])
    def test_incidence_outside_0_to_90_rejected(self, angle):
        with pytest.raises(ParameterError, match=r"incidence angle must be in \[0, 90\]"):
            concentrator_gain(angle, 60.0, 1.5)


class TestDcGain:
    def test_reference_link_near_quoted_value(self, reference_front_end):
        h11 = dc_gain(reference_front_end, 0.4885, 4.0, 0.5)
        assert h11 == pytest.approx(2.5892e-6, rel=0.25)

    def test_out_of_fov_link_is_zero(self, reference_front_end):
        # drop 1 m at 8 m sideways puts the incidence angle near 83 degrees
        assert dc_gain(reference_front_end, 8.0, 4.0, 3.0) == 0.0

    def test_inverse_square_at_fixed_angle(self, reference_front_end):
        near = dc_gain(reference_front_end, 0.0, 4.0, 2.5)   # d = 1.5
        far = dc_gain(reference_front_end, 0.0, 4.0, 1.0)    # d = 3.0
        assert near / far == pytest.approx(4.0, rel=1e-12)

    def test_monotone_in_incidence_angle_at_fixed_distance(self, reference_front_end):
        d = 3.0
        gains = []
        for psi_deg in (0.0, 15.0, 30.0, 45.0, 59.0):
            r = d * math.sin(math.radians(psi_deg))
            drop = d * math.cos(math.radians(psi_deg))
            gains.append(dc_gain(reference_front_end, r, 4.0, 4.0 - drop))
        assert all(a > b for a, b in zip(gains, gains[1:]))

    @given(scale=st.floats(min_value=1.01, max_value=5.0))
    def test_monotone_decreasing_in_distance(self, scale):
        front_end = OpticalFrontEnd(60.0, 1e-4, 0.4, 1.0, 60.0, 1.5)
        near = dc_gain(front_end, 0.0, 4.0, 4.0 - 1.0)
        far = dc_gain(front_end, 0.0, 4.0, 4.0 - scale)
        assert far < near


class TestGainMatrix:
    def test_reference_scenario_near_quoted_gains(
        self, reference_geometry, reference_front_end, reference_gains
    ):
        computed = gain_matrix(reference_geometry, reference_front_end)
        for name in ("h11", "h21", "h22", "h32"):
            assert getattr(computed, name) == pytest.approx(
                getattr(reference_gains, name), rel=0.25
            ), name
        assert computed.ordering_diagnostic() is None

    def test_symmetric_scenario_gives_equal_edge_gains(self, reference_front_end):
        geometry = ScenarioGeometry(
            room_height_m=4.0, cell_radius_m=3.6, rx_height_u1_m=0.5, rx_height_u2_m=0.5,
            rx_height_u3_m=0.5,
            r11_m=0.5, r21_m=3.0, r22_m=3.0, r32_m=0.5,
        )
        computed = gain_matrix(geometry, reference_front_end)
        assert computed.h21 == computed.h22
        assert computed.h11 == computed.h32

    def test_override_returned_verbatim(self):
        cfg = load_config()
        assert cfg.gain_override is not None
        assert cfg.effective_gains() is cfg.gain_override

    def test_infeasible_ordering_is_diagnosed_not_raised(self):
        bad = ChannelGains(h11=1e-7, h21=2e-7, h22=1e-7, h32=3e-7)
        assert "h11" in bad.ordering_diagnostic()

    def test_each_cell_that_fails_the_ordering_is_named(self):
        cell2 = ChannelGains(h11=2e-7, h21=1e-7, h22=3e-7, h32=3e-7)
        assert cell2.ordering_diagnostic() == "h32=3e-07 <= h22=3e-07 in cell 2"
        both = ChannelGains(h11=1e-7, h21=2e-7, h22=3e-7, h32=1e-7)
        assert both.ordering_diagnostic() == ("h11=1e-07 <= h21=2e-07 in cell 1;"
                                              " h32=1e-07 <= h22=3e-07 in cell 2")

    def test_negative_gain_rejected(self):
        with pytest.raises(ParameterError):
            ChannelGains(h11=-1e-7, h21=1e-7, h22=1e-7, h32=1e-7)
