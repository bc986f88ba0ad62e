import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import naive
from test_recount import designs

from vlcnoma import ChannelGains, SpectralEfficiencies, design_constellation
from vlcnoma.constellation import (LEVEL_SETS, MAX_GRID, center_points, edge_points,
                                   from_raw_levels, peak_powers, uniform_spacing,
                                   verify_gap_condition)
from vlcnoma.link import decode_center_sic, decode_u2_jml, decode_u2_sic, superpose_transmit
from vlcnoma.montecarlo import receivers
from vlcnoma.errors import ParameterError

gain_values = st.floats(min_value=1e-9, max_value=1e-3)


@st.composite
def feasible_gains(draw):
    h21 = draw(gain_values)
    h22 = draw(gain_values)
    return ChannelGains(h11=h21 * 2.0, h21=h21, h22=h22, h32=h22 * 2.0)


bpcu_triples = st.builds(
    SpectralEfficiencies,
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
)


class TestCenterPoints:
    @pytest.mark.parametrize("bpcu,expected", [
        (1, [1, 2]),
        (2, [1, 2, 3, 4]),
        (3, [1, 2, 3, 4, 5, 6, 7, 8]),
    ])
    def test_integer_levels_with_unit_spacing(self, bpcu, expected):
        levels = center_points(bpcu)
        assert levels.tolist() == expected
        assert np.all(np.diff(levels) == 1)

    def test_rejects_non_positive_bpcu(self):
        with pytest.raises(ParameterError):
            center_points(0)


class TestSpectralEfficiencies:
    def test_grids_up_to_max_grid_accepted_and_past_it_rejected(self):
        # 2**20 joint-ML tuples, and no PAM past 4**10 levels
        assert math.prod(SpectralEfficiencies(10, 1, 9).sizes) == MAX_GRID
        with pytest.raises(ParameterError, match=r"bpcu_u1\.\.bpcu_u3"):
            SpectralEfficiencies(10, 2, 9)

    def test_numpy_integers_are_stored_as_python_ints(self, reference_gains):
        bpcu = SpectralEfficiencies(np.int64(3), np.uint8(2), 2)
        assert bpcu == SpectralEfficiencies(3, 2, 2)
        assert [type(b) for b in (bpcu.u1, bpcu.u2, bpcu.u3)] == [int, int, int]
        # the center levels and the orthogonal PAM are built from Python ints
        cset = design_constellation(bpcu, reference_gains, 1.0)
        assert set(receivers(cset, reference_gains, ("noma-sic", "oma"), 1.0)) == {
            "amplitudes", "noma-sic", "u1", "u3", "oma"}

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), "3"])
    def test_non_integers_rejected(self, value):
        message = f"bpcu_u1 must be an integer >= 1, got {value!r}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            SpectralEfficiencies(value, 2, 2)

    def test_sizes_set_at_construction_and_recomputed_by_replace(self):
        assert SpectralEfficiencies(3, 2, 1).sizes == (8, 4, 2)
        assert replace(SpectralEfficiencies(3, 2, 1), u2=5).sizes == (8, 32, 2)

    def test_sizes_left_out_of_equality_hash_and_repr(self):
        bpcu, other = SpectralEfficiencies(3, 2, 2), SpectralEfficiencies(3, 2, 2)
        object.__setattr__(other, "sizes", (1, 1, 1))
        assert bpcu == other and hash(bpcu) == hash(other)
        assert "sizes" not in repr(bpcu)


class TestStoredLevels:
    """The normalized levels are stored once, as raw * scale, and read-only."""

    @pytest.mark.parametrize("power", [1.0, 0.3, 7.5])
    def test_levels_are_raw_times_scale_bit_for_bit(self, reference_bpcu, reference_gains,
                                                    power):
        cset = design_constellation(reference_bpcu, reference_gains, power)
        for name, cell, _ in LEVEL_SETS:
            product = getattr(cset, f"raw_{name}") * getattr(cset, f"scale_cell{cell}")
            assert np.array_equal(getattr(cset, name).view(np.int64), product.view(np.int64))

    def test_levels_are_read_only(self, reference_bpcu, reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 1.0)
        for name, _, _ in LEVEL_SETS:
            levels = getattr(cset, name)
            assert not levels.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                levels[0] = 0.0

    def test_replace_recomputes_the_levels(self, reference_bpcu, reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 1.0)
        moved = replace(cset, scale_cell2=2.5, raw_cell1_edge=cset.raw_cell1_edge + 1.0)
        assert np.array_equal(moved.cell1_center, cset.cell1_center)
        assert np.array_equal(moved.cell1_edge, (cset.raw_cell1_edge + 1.0) * cset.scale_cell1)
        assert np.array_equal(moved.cell2_edge, cset.raw_cell2_edge * 2.5)
        assert np.array_equal(moved.cell2_center, cset.raw_cell2_center * 2.5)

    def test_levels_left_out_of_repr(self, reference_bpcu, reference_gains):
        text = repr(design_constellation(reference_bpcu, reference_gains, 1.0))
        assert "raw_cell1_center" in text
        assert not re.search(r"(?<!raw_)cell[12]_(center|edge)=", text)


class TestValueIdentity:
    """A design compares and hashes by bpcu, its scales and its raw levels' bytes."""

    def test_separately_built_equal_designs_are_equal(self, reference_bpcu, reference_gains):
        a = design_constellation(reference_bpcu, reference_gains, 1.0)
        b = design_constellation(SpectralEfficiencies(3, 2, 2), replace(reference_gains), 1.0)
        assert a is not b and a.raw_cell1_edge is not b.raw_cell1_edge
        assert a == b and hash(a) == hash(b)

    def test_a_changed_raw_level_scale_or_bpcu_is_unequal(self, reference_bpcu,
                                                          reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 1.0)
        raised = cset.raw_cell2_center.copy()
        raised[-1] += 0.5
        for changed in (replace(cset, raw_cell2_center=raised),
                        replace(cset, scale_cell1=cset.scale_cell1 * 2.0),
                        replace(cset, scale_cell2=cset.scale_cell2 * 2.0),
                        replace(cset, bpcu=SpectralEfficiencies(3, 2, 3))):
            assert changed != cset, changed

    def test_replace_recomputes_the_raw_bytes(self, reference_bpcu, reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 1.0)
        assert cset.raw_bytes == tuple(getattr(cset, f"raw_{name}").tobytes()
                                       for name, _, _ in LEVEL_SETS)
        moved = replace(cset, raw_cell1_edge=cset.raw_cell1_edge + 1.0)
        expected = list(cset.raw_bytes)
        expected[1] = (cset.raw_cell1_edge + 1.0).tobytes()
        assert list(moved.raw_bytes) == expected
        assert moved == replace(moved) and "raw_bytes" not in repr(moved)


class TestEdgePoints:
    def test_smallest_case_reference_gains(self, reference_gains):
        cell1, cell2 = edge_points(SpectralEfficiencies(1, 1, 1), reference_gains)
        assert cell1.tolist() == [3.0, 8.0]
        assert cell2.tolist() == [3.0, 8.0]

    def test_first_level_sits_above_center_range(self, reference_gains):
        cell1, _ = edge_points(SpectralEfficiencies(3, 2, 2), reference_gains)
        assert cell1[0] == 9.0

    def test_reference_bpcu_levels_increase_with_equal_gaps(
        self, reference_bpcu, reference_gains
    ):
        cell1, cell2 = edge_points(reference_bpcu, reference_gains)
        for levels in (cell1, cell2):
            assert levels.size == 4
            gaps = np.diff(levels)
            assert np.all(gaps > 0)
            assert np.allclose(gaps, gaps[0], rtol=1e-9)

    def test_zero_combined_gain_rejected(self):
        gains = ChannelGains(h11=1e-6, h21=0.0, h22=0.0, h32=1e-6)
        with pytest.raises(ParameterError):
            edge_points(SpectralEfficiencies(1, 1, 1), gains)

    def test_infeasible_ordering_rejected(self):
        gains = ChannelGains(h11=1e-7, h21=2e-7, h22=1e-7, h32=3e-7)
        with pytest.raises(ParameterError):
            edge_points(SpectralEfficiencies(1, 1, 1), gains)


class TestNormalize:
    def test_hand_worked_smallest_case(self, reference_gains):
        cset = design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)
        # sum over the four (center, edge) pairs of cell-1 raw levels is 28
        assert cset.scale_cell1 == pytest.approx(1.0 / 7.0, rel=1e-15)
        assert cset.cell1_center.tolist() == pytest.approx([1 / 7, 2 / 7])
        assert cset.cell1_edge.tolist() == pytest.approx([3 / 7, 8 / 7])

    def test_zero_target_power_rejected(self, reference_gains):
        with pytest.raises(ParameterError):
            design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 0.0)

    @pytest.mark.parametrize("power", [1.0, 0.25, 7.5])
    def test_average_superposed_power_equals_target(
        self, reference_bpcu, reference_gains, power
    ):
        cset = design_constellation(reference_bpcu, reference_gains, power)
        pairs1 = cset.cell1_center[:, None] + cset.cell1_edge[None, :]
        pairs2 = cset.cell2_center[:, None] + cset.cell2_edge[None, :]
        assert pairs1.mean() == pytest.approx(power, rel=1e-12)
        assert pairs2.mean() == pytest.approx(power, rel=1e-12)

    def test_normalize_preserves_per_cell_level_ratios(self, reference_bpcu, reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 3.0)
        for raw, norm in (
            (cset.raw_cell1_center, cset.cell1_center),
            (cset.raw_cell1_edge, cset.cell1_edge),
            (cset.raw_cell2_edge, cset.cell2_edge),
            (cset.raw_cell2_center, cset.cell2_center),
        ):
            assert np.allclose(norm / norm[0], raw / raw[0], rtol=1e-12)

    def test_empty_levels_rejected(self, reference_gains):
        with pytest.raises(ParameterError, match=r"raw_cell1_edge must have 2 levels for bpcu"):
            from_raw_levels(SpectralEfficiencies(1, 1, 1), [1, 2], [], [3, 8], [1, 2], 1.0)

    @pytest.mark.parametrize("levels,fault", [
        ([0.0, 2.0], "positive"), ([-1.0, 2.0], "positive"),
        ([2.0, 2.0], "increasing"), ([2.0, 1.0], "increasing"),
    ])
    def test_raw_levels_must_be_positive_and_increasing(self, levels, fault):
        with pytest.raises(ParameterError,
                           match=f"raw_cell2_center levels must be strictly {fault}"):
            from_raw_levels(SpectralEfficiencies(1, 1, 1), [1, 2], [3, 8], [3, 8], levels, 1.0)

    def test_one_level_has_no_spacing(self):
        with pytest.raises(ParameterError, match="u1 needs at least two levels to have a spacing"):
            uniform_spacing(np.array([1.0]), "u1")


class TestPeakPowers:
    def test_hand_worked_smallest_case(self, reference_gains):
        cset = design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)
        p1, p2 = peak_powers(cset)
        assert p1 == pytest.approx(10.0 / 7.0, rel=1e-12)
        assert p2 == pytest.approx(10.0 / 7.0, rel=1e-12)

    def test_no_tuple_exceeds_peak(self, reference_bpcu, reference_gains):
        cset = design_constellation(reference_bpcu, reference_gains, 1.0)
        p1, p2 = peak_powers(cset)
        sums1 = cset.cell1_center[:, None] + cset.cell1_edge[None, :]
        sums2 = cset.cell2_center[:, None] + cset.cell2_edge[None, :]
        assert sums1.max() <= p1 * (1 + 1e-15)
        assert sums2.max() <= p2 * (1 + 1e-15)


class TestGapCondition:
    def test_designed_set_passes_with_positive_margin(self, reference_gains):
        cset = design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)
        ok, margins = verify_gap_condition(cset, reference_gains)
        assert ok
        assert np.all(margins > 0)
        # hand check: levels {3,8} give 4(h21+h22) vs 3.5(h21+h22) scaled by 1/7
        expected = 0.5 * (reference_gains.h21 + reference_gains.h22) / 7.0
        assert margins[0] == pytest.approx(expected, rel=1e-12)

    def test_naive_tight_levels_fail(self, reference_gains):
        cset = from_raw_levels(
            SpectralEfficiencies(1, 1, 1), [1, 2], [3, 4], [3, 4], [1, 2], 1.0
        )
        ok, margins = verify_gap_condition(cset, reference_gains)
        assert not ok
        assert margins[0] < 0

    @settings(max_examples=200, deadline=None)
    @given(gains=feasible_gains(), bpcu=bpcu_triples)
    def test_designed_sets_always_pass(self, gains, bpcu):
        cset = design_constellation(bpcu, gains, 1.0)
        ok, margins = verify_gap_condition(cset, gains)
        assert ok
        assert np.all(margins > 0)

    @settings(max_examples=200, deadline=None)
    @given(design=designs(), designed=st.booleans())
    def test_the_gap_holds_exactly_when_the_edge_rule_decodes_every_noiseless_tuple(
            self, design, designed):
        # the paper's zero-error condition against the decoder it is for: on a
        # designed set, or on raw levels that mostly fail it, the nearest
        # combined edge level to every tuple's noiseless y2 is the tuple's u2
        cset, gains = design
        if designed:
            cset = design_constellation(cset.bpcu, gains, 1.0)
        ok, margins = verify_gap_condition(cset, gains)
        combined = gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge
        k = np.argmin(margins)  # the pair whose margin decides
        # too close to its right-hand side for the two float paths to agree
        assume(abs(margins[k]) > 1e-9 * abs(combined[k + 1] / 2.0))
        grid = naive.tuples(cset.bpcu.sizes)
        edge = naive.nearest(naive.transmit(cset, gains, *grid)[1], combined)
        assert ok == np.array_equal(edge, grid[1])

    @settings(max_examples=100, deadline=None)
    @given(gains=feasible_gains(), bpcu=bpcu_triples, power=st.floats(0.1, 10.0))
    def test_designed_levels_positive_and_uniformly_spaced(self, gains, bpcu, power):
        cset = design_constellation(bpcu, gains, power)
        spacings = cset.spacings()
        assert all(s > 0 for s in spacings.values())
        for arr in (cset.cell1_center, cset.cell1_edge, cset.cell2_edge, cset.cell2_center):
            assert np.all(arr > 0)


class TestNoiselessRoundTrip:
    """Any design passing the gap check decodes perfectly without noise."""

    @settings(max_examples=40, deadline=None)
    @given(gains=feasible_gains(), bpcu=st.builds(
        SpectralEfficiencies, st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)))
    def test_all_decoders_recover_all_tuples(self, gains, bpcu):
        cset = design_constellation(bpcu, gains, 1.0)
        ok, _ = verify_gap_condition(cset, gains)
        assert ok
        grid = naive.tuples(bpcu.sizes)
        y1, y2, y3 = superpose_transmit(grid, cset, gains)
        tables = receivers(cset, gains, ("noma-sic", "noma-jml"), 1.0)
        u1_hat, stage1 = decode_center_sic(y1, tables["u1"])
        u3_hat, stage3 = decode_center_sic(y3, tables["u3"])
        u2_sic = decode_u2_sic(y2, tables["noma-sic"])
        u2_jml = decode_u2_jml(y2, tables["noma-jml"])
        assert np.array_equal(u1_hat, grid[0])
        assert np.array_equal(u2_sic, grid[1])
        assert np.array_equal(u3_hat, grid[2])
        assert np.array_equal(u2_jml, grid[1])
        # SIC's first stage recovers the edge symbol too
        assert np.array_equal(stage1, grid[1])
        assert np.array_equal(stage3, grid[1])
