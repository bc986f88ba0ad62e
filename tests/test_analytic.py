import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, run_cli_in_1_gb, run_python
from vlcnoma import SpectralEfficiencies, analytic, design_constellation, ser_u2_analytic
from vlcnoma.analytic import (MAXLOG, closed_forms, complexity_counts, erfc, q_function,
                              ser_center_lower_bound)
from vlcnoma.config import load_config, snr_grid
from vlcnoma.constellation import from_raw_levels, verify_gap_condition
from vlcnoma.errors import ParameterError
from vlcnoma.link import nearest_table, superpose_transmit
from vlcnoma.montecarlo import sigma_from_snr

GOLDEN_CONFIG = Path(__file__).resolve().with_name("golden") / "golden.cfg"
INF = float("inf")


def boundary_distances(cset, gains):
    """The edge user's half-gap gamma and the interference shift of every
    (u1, u3) level pair, written out independently of ``analytic``."""
    gamma = (0.5 * np.diff(cset.cell1_edge)[0] * gains.h21
             + 0.5 * np.diff(cset.cell2_edge)[0] * gains.h22)
    shift = gains.h21 * cset.cell1_center[:, None] + gains.h22 * cset.cell2_center[None, :]
    return gamma, shift


def table_mass(cset, gains, sigma):
    """The edge user's SER from its exact decision table: the Gaussian mass
    outside the sent level's interval, averaged over every sent tuple."""
    tuples = np.indices(cset.bpcu.sizes).reshape(3, -1)
    _, y2, _ = superpose_transmit(tuples, cset, gains)
    table = nearest_table(gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge)
    slot = np.searchsorted(table.thresholds, y2, side="right")
    assert np.array_equal(table.labels[slot], tuples[1])
    ends = np.concatenate([[-np.inf], table.thresholds, [np.inf]])
    return float(np.mean(q_function((ends[slot + 1] - y2) / sigma)
                         + q_function((y2 - ends[slot]) / sigma)))


# Run in a child process, so that no earlier test has loaded scipy: a sweep
# over all three schemes and the analytic experiment, at tiny sizes.
RUNS = """
import sys, tempfile
from pathlib import Path
import vlcnoma, vlcnoma.cli
from vlcnoma.experiments import run_experiment

def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')

print(vlcnoma.__file__)
print(scipy_modules())
cfg = vlcnoma.load_config(None, {'trials_per_point': '256', 'batch_size': '128',
                                 'snr_points_db': '120:140',
                                 'schemes': 'noma-sic,noma-jml,oma'})
gains, cset = cfg.design()
points = vlcnoma.run_sweep(cfg.sweep, cset, gains)
assert any(p.analytic is not None for p in points)
with tempfile.TemporaryDirectory() as tmp:
    run_experiment('analytic', cfg, Path(tmp) / 'analytic.csv')
print(scipy_modules())
"""


class TestQFunction:
    def test_package_import_leaves_scipy_unloaded(self):
        # neither importing the package nor running it, closed forms included,
        # loads scipy: the runtime needs only numpy
        out = run_python("-c", RUNS).stdout.splitlines()
        assert Path(out[0]).resolve().parent == SRC / "vlcnoma"
        assert out[1] == "[]"
        assert out[2] == "[]"

    def test_zero_is_half(self):
        assert q_function(0.0) == pytest.approx(0.5, rel=1e-15)

    def test_tails(self):
        assert q_function(40.0) == 0.0
        assert q_function(-40.0) == pytest.approx(1.0, rel=1e-15)

    def test_five_percent_quantile(self):
        assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(t=st.floats(-30, 30))
    def test_bounded_and_decreasing(self, t):
        value = float(q_function(t))
        assert 0.0 <= value <= 1.0
        assert float(q_function(t + 0.5)) <= value


def assert_same_bits(x):
    """erfc(x) equals scipy.special.erfc(x) bit for bit, any NaN equal to any NaN."""
    special = pytest.importorskip("scipy.special")
    x = np.asarray(x, dtype=float)
    ours, theirs = erfc(x), special.erfc(x)
    assert ours.shape == theirs.shape == x.shape
    nan = np.isnan(theirs)
    assert np.array_equal(np.isnan(ours), nan)
    differ = ours[~nan].view(np.int64) != theirs[~nan].view(np.int64)
    assert not differ.any(), f"{differ.sum()} of {x.size} differ, e.g. at {x[~nan][differ][:4]}"


# (x, erfc(x)) as float.hex, frozen from scipy.special.erfc: around the branch
# edges |x| = 1 and 8 and the underflow edge sqrt(MAXLOG), both signs, the
# special values and a few points of each branch
ERFC_BITS = [
    ("0x1.fffffffffffffp-1", "0x1.4226162fbddd8p-3"),
    ("-0x1.fffffffffffffp-1", "0x1.d7bb3d3a08445p+0"),
    ("0x1.0000000000000p+0", "0x1.4226162fbddd6p-3"),
    ("-0x1.0000000000000p+0", "0x1.d7bb3d3a08445p+0"),
    ("0x1.0000000000001p+0", "0x1.4226162fbddd1p-3"),
    ("-0x1.0000000000001p+0", "0x1.d7bb3d3a08446p+0"),
    ("0x1.fffffffffffffp+2", "0x1.c74fc41217e6fp-97"),
    ("-0x1.fffffffffffffp+2", "0x1.0000000000000p+1"),
    ("0x1.0000000000000p+3", "0x1.c74fc41217dfcp-97"),
    ("-0x1.0000000000000p+3", "0x1.0000000000000p+1"),
    ("0x1.0000000000001p+3", "0x1.c74fc41217d18p-97"),
    ("-0x1.0000000000001p+3", "0x1.0000000000000p+1"),
    ("0x1.aa4499161cd46p+4", "0x0.015ab7e9654c4p-1022"),
    ("-0x1.aa4499161cd46p+4", "0x1.0000000000000p+1"),
    ("0x1.aa4499161cd47p+4", "0x0.015ab7e9654c2p-1022"),  # the float nearest sqrt(MAXLOG)
    ("-0x1.aa4499161cd47p+4", "0x1.0000000000000p+1"),
    ("0x1.aa4499161cd48p+4", "0x0.0p+0"),
    ("-0x1.aa4499161cd48p+4", "0x1.0000000000000p+1"),
    ("0x0.0p+0", "0x1.0000000000000p+0"),
    ("-0x0.0p+0", "0x1.0000000000000p+0"),
    ("inf", "0x0.0p+0"),
    ("-inf", "0x1.0000000000000p+1"),
    ("nan", "nan"),
    ("0x0.0000000000001p-1022", "0x1.0000000000000p+0"),
    ("-0x1.1fa182c40c60dp-1022", "0x1.0000000000000p+0"),
    ("0x1.0000000000000p-1", "0x1.eb02147ce245cp-2"),
    ("-0x1.4000000000000p+1", "0x1.ffe5547a64df5p+0"),
    ("0x1.4000000000000p+2", "0x1.b0c1a759f7738p-40"),
    ("0x1.8000000000000p+3", "0x1.c90f21d2d4762p-213"),
    ("-0x1.4000000000000p+4", "0x1.0000000000000p+1"),
    ("0x1.a000000000000p+4", "0x1.284bfe1cdea26p-981"),
]


class TestErfcFrozenBits:
    """The Cephes port against a frozen table of scipy's bits; runs without scipy."""

    def test_table(self):
        x = np.array([float.fromhex(arg) for arg, _ in ERFC_BITS])
        assert [float(v).hex() for v in erfc(x)] == [bits for _, bits in ERFC_BITS]


class TestErfcMatchesScipy:
    """The Cephes port against the scipy it was taken from; skipped without scipy."""

    def test_seeded_arguments(self):
        assert_same_bits(np.random.default_rng(2021).uniform(-30.0, 30.0, 200_000))

    @pytest.mark.parametrize("edge", [1.0, 8.0, math.sqrt(MAXLOG)])
    def test_dense_around_branch_and_underflow_edges(self, edge):
        ulps = edge + np.arange(-2000, 2001) * np.spacing(edge)
        x = np.concatenate([ulps, edge + np.linspace(-1e-3, 1e-3, 20_001)])
        assert_same_bits(np.concatenate([x, -x]))

    def test_special_values(self):
        assert_same_bits([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300])
        assert_same_bits(np.linspace(-3.0, 3.0, 12).reshape(3, 4))

    @pytest.mark.parametrize("config", [None, GOLDEN_CONFIG], ids=["default", "golden"])
    def test_every_argument_of_closed_forms(self, monkeypatch, config):
        seen = []

        def recorded(x):
            seen.append(np.array(x, dtype=float))
            return erfc(x)

        monkeypatch.setattr(analytic, "erfc", recorded)
        cfg = load_config(config)
        gains, cset = cfg.design()
        closed_forms(("noma-sic", "noma-jml", "oma"), cset, gains,
                     [sigma_from_snr(snr, cfg.target_power_w) for snr in cfg.sweep.snr_points_db])
        assert len(seen) == 3  # one evaluation per closed form: the u1 and u3 bounds, u2
        assert_same_bits(np.concatenate([x.ravel() for x in seen]))


class TestDecisionBoundaries:
    """The boundary distances, asserted through ``ser_u2_analytic``."""

    def test_smallest_case_half_gap(self, reference_gains):
        cset = design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)
        gamma = 0.5 * (5 / 7) * reference_gains.h21 + 0.5 * (5 / 7) * reference_gains.h22
        _, shift = boundary_distances(cset, reference_gains)
        sigma = gamma / 2
        expected = 0.5 * np.mean(q_function((gamma - shift) / sigma)
                                 + q_function((gamma + shift) / sigma))
        assert ser_u2_analytic(cset, reference_gains, sigma) == pytest.approx(expected,
                                                                              rel=1e-12)

    def test_rho_plus_positive_when_gap_condition_holds(self, reference_set, reference_gains):
        ok, _ = verify_gap_condition(reference_set, reference_gains)
        assert ok
        # a boundary distance at or below zero would count 1/2 or 1 at sigma = 0
        assert ser_u2_analytic(reference_set, reference_gains, 0.0) == 0.0

    def test_boundary_distances_are_symmetric_about_gamma(self, reference_set,
                                                          reference_gains):
        # rho+ and rho- are gamma -/+ the same shift exactly when the closed
        # form equals the mass outside the decision table's intervals
        for sigma in (2e-8, 5e-8, 1e-7, 1e-6, 1e-3):
            assert ser_u2_analytic(reference_set, reference_gains, sigma) == pytest.approx(
                table_mass(reference_set, reference_gains, sigma), rel=1e-9)

    def test_non_uniform_spacing_rejected(self, reference_gains):
        crooked = from_raw_levels(SpectralEfficiencies(1, 2, 1),
                                  [1, 2], [3, 8, 20, 21], [3, 8, 13, 18], [1, 2], 1.0)
        with pytest.raises(ParameterError, match="cell1_edge levels are not uniformly increasing"):
            ser_u2_analytic(crooked, reference_gains, 1e-7)


class TestSerEdgeUser:
    def test_large_noise_limit(self, reference_set, reference_gains):
        limit = 1.0 - 2.0**-2
        assert ser_u2_analytic(reference_set, reference_gains, 1e6) == pytest.approx(
            limit, rel=1e-6)

    def test_vanishing_noise_limit(self, reference_set, reference_gains):
        assert ser_u2_analytic(reference_set, reference_gains, 1e-12) == 0.0

    def test_zero_sigma_indicator_limit(self, reference_set, reference_gains):
        assert ser_u2_analytic(reference_set, reference_gains, 0.0) == 0.0

    def test_zero_sigma_counts_negative_boundaries(self, reference_gains):
        bad = from_raw_levels(SpectralEfficiencies(1, 1, 1),
                              [1, 2], [3, 4], [3, 4], [1, 2], 1.0)
        gamma, shift = boundary_distances(bad, reference_gains)
        expected = 0.5 * np.mean(
            np.where(gamma - shift < 0, 1.0, 0.0) + np.where(gamma + shift < 0, 1.0, 0.0))
        value = ser_u2_analytic(bad, reference_gains, 0.0)
        assert value == pytest.approx(expected, rel=1e-12)
        assert value > 0

    def test_monotone_in_sigma(self, reference_set, reference_gains):
        sigmas = np.logspace(-10, -5, 30)
        values = [ser_u2_analytic(reference_set, reference_gains, s) for s in sigmas]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_probability_range(self, reference_set, reference_gains):
        for sigma in (1e-9, 1e-7, 1e-3, 10.0):
            value = ser_u2_analytic(reference_set, reference_gains, sigma)
            assert 0.0 <= value <= 1.0

    def test_negative_sigma_rejected(self, reference_set, reference_gains):
        with pytest.raises(ParameterError):
            ser_u2_analytic(reference_set, reference_gains, -1.0)


class TestSerCenterBound:
    @pytest.mark.parametrize("user,bpcu", [(1, 3), (3, 2)])
    def test_large_noise_limit(self, reference_set, reference_gains, user, bpcu):
        limit = 1.0 - 2.0**-bpcu
        assert ser_center_lower_bound(reference_set, reference_gains, 1e6, user) == (
            pytest.approx(limit, rel=1e-6))

    @pytest.mark.parametrize("user", [1, 3])
    def test_vanishing_noise_limit(self, reference_set, reference_gains, user):
        assert ser_center_lower_bound(reference_set, reference_gains, 0.0, user) == 0.0
        assert ser_center_lower_bound(reference_set, reference_gains, 1e-12, user) == 0.0

    def test_matches_pam_formula(self, reference_set, reference_gains):
        sigma = 5e-8
        gap = float(np.diff(reference_set.cell1_center)[0])
        expected = 2 * (1 - 1 / 8) * float(
            q_function(gap * reference_gains.h11 / (2 * sigma)))
        assert ser_center_lower_bound(reference_set, reference_gains, sigma, 1) == (
            pytest.approx(expected, rel=1e-12))

    def test_edge_user_not_accepted(self, reference_set, reference_gains):
        with pytest.raises(ParameterError):
            ser_center_lower_bound(reference_set, reference_gains, 1e-7, 2)


class TestClosedFormsOverAGrid:
    """One call over a sigma grid equals one scalar call per sigma, bit for bit."""

    GRIDS = {"default": (100.0, 150.0, 2.0), "bench": (110.0, 150.0, 2.0),
             "fine": (90.0, 160.0, 0.5)}

    @pytest.mark.parametrize("grid", GRIDS)
    def test_grid_equals_scalar_calls(self, reference_set, reference_gains, grid):
        sigmas = [sigma_from_snr(snr, 1.0) for snr in snr_grid(*self.GRIDS[grid])]
        sigmas += [0.0, float("inf")]
        edge = ser_u2_analytic(reference_set, reference_gains, np.array(sigmas))
        assert edge.tolist() == [ser_u2_analytic(reference_set, reference_gains, s)
                                 for s in sigmas]
        for user in (1, 3):
            bound = ser_center_lower_bound(reference_set, reference_gains, np.array(sigmas), user)
            assert bound.tolist() == [ser_center_lower_bound(reference_set, reference_gains, s,
                                                             user) for s in sigmas]

    # the reference design split into chunks of 3 sigmas by a smaller budget, and the
    # largest valid design, whose 2^19 level pairs put each sigma in a chunk of its own
    SPLITS = {"reference-in-threes": ((3, 2, 2), 3 * 8 * 4 * 2, 150.0, 2.0, 10),
              "10-1-9": ((10, 1, 9), analytic.EXP_SLICE, 150.0, 25.0, 5)}

    @pytest.mark.parametrize("split", SPLITS)
    def test_chunked_grid_equals_scalar_calls(self, monkeypatch, reference_gains, split):
        bits, budget, stop, step, chunks = self.SPLITS[split]
        cset = design_constellation(SpectralEfficiencies(*bits), reference_gains, 1.0)
        sigmas = [sigma_from_snr(snr, 1.0) for snr in snr_grid(100.0, stop, step)] + [0.0, INF]
        monkeypatch.setattr(analytic, "EXP_SLICE", budget)
        calls = []
        monkeypatch.setattr(analytic, "erfc", lambda x: calls.append(x.size) or erfc(x))
        edge = ser_u2_analytic(cset, reference_gains, np.array(sigmas))
        row = 2 * cset.cell1_center.size * cset.cell2_center.size  # (pair, sign) tails
        assert len(calls) == chunks and max(calls) <= max(budget, row)
        assert edge.tolist() == [ser_u2_analytic(cset, reference_gains, s) for s in sigmas]
        column = ser_u2_analytic(cset, reference_gains, np.array(sigmas).reshape(-1, 1))
        assert column.tolist() == edge.reshape(-1, 1).tolist()

    def test_closed_forms_of_26_points_at_the_largest_design_fit_in_400_mb(self, tmp_path):
        # every tail of 26 sigmas over 2^19 level pairs at once peaked near 2 GB;
        # chunked, one sigma's row bounds the peak at about 170 MB
        _, csv, peak = run_cli_in_1_gb(tmp_path, (10, 1, 9), "analytic")
        rows = [line for line in csv.splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 26 * 3 and peak <= 400 * 1024

    @pytest.mark.parametrize("snr_db,bound", [(100.0, 80), (150.0, 65)])
    def test_one_sigma_at_the_largest_design_allocates_within_its_bound(
            self, reference_gains, snr_db, bound):
        # one row of 2^20 tails: erfc's branch below 1, which every tail takes at
        # 100 dB, and _tail's limit once held their temporaries over the whole row
        # (92 and 69 MiB traced); sliced and written in place they read 68 and 61
        cset = design_constellation(SpectralEfficiencies(10, 1, 9), reference_gains, 1.0)
        tracemalloc.start()
        try:
            ser_u2_analytic(cset, reference_gains, sigma_from_snr(snr_db, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound << 20, peak / 2**20

    def test_scalar_calls_return_floats(self, reference_set, reference_gains):
        assert type(ser_u2_analytic(reference_set, reference_gains, 1e-7)) is float
        assert type(ser_center_lower_bound(reference_set, reference_gains, 1e-7, 1)) is float

    def test_closed_forms_by_scheme_and_user(self, reference_set, reference_gains):
        sigmas = [1e-7, 5e-8]
        forms = closed_forms(("noma-sic", "noma-jml", "oma"), reference_set, reference_gains,
                             sigmas)
        assert forms["noma-sic", "u2"] == [ser_u2_analytic(reference_set, reference_gains, s)
                                           for s in sigmas]
        for user in (1, 3):
            bound = [ser_center_lower_bound(reference_set, reference_gains, s, user)
                     for s in sigmas]
            # both superposed schemes share one evaluation of the bound
            assert forms["noma-sic", f"u{user}"] is forms["noma-jml", f"u{user}"]
            assert forms["noma-sic", f"u{user}"] == bound
        assert forms["noma-jml", "u2"] is None
        assert all(forms["oma", user] is None for user in ("u1", "u2", "u3"))

    def test_one_float_is_a_one_point_grid(self, reference_set, reference_gains):
        schemes = ("noma-sic", "noma-jml", "oma")
        assert (closed_forms(schemes, reference_set, reference_gains, 1e-6)
                == closed_forms(schemes, reference_set, reference_gains, [1e-6]))

    def test_negative_sigma_in_a_grid_rejected(self, reference_set, reference_gains):
        for sigmas in ([1e-7, -1.0], [float("nan"), 1e-7]):
            with pytest.raises(ParameterError):
                ser_u2_analytic(reference_set, reference_gains, np.array(sigmas))
            with pytest.raises(ParameterError):
                ser_center_lower_bound(reference_set, reference_gains, np.array(sigmas), 1)


class TestComplexityCounts:
    def test_reference_efficiencies(self, reference_bpcu):
        assert complexity_counts(reference_bpcu, "noma-sic") == (24, 4)
        assert complexity_counts(reference_bpcu, "noma-jml") == (148, 128)
        assert complexity_counts(reference_bpcu, "oma") == (48, 8)

    def test_unknown_scheme_rejected(self, reference_bpcu):
        with pytest.raises(ParameterError):
            complexity_counts(reference_bpcu, "tdma")

    @settings(max_examples=50, deadline=None)
    @given(bpcu=st.builds(SpectralEfficiencies,
                          st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)))
    def test_joint_ml_always_costs_at_least_interference_as_noise(self, bpcu):
        sic_avg, sic_edge = complexity_counts(bpcu, "noma-sic")
        jml_avg, jml_edge = complexity_counts(bpcu, "noma-jml")
        assert jml_edge >= sic_edge
        assert jml_avg >= sic_avg
