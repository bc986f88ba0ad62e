import hashlib
import itertools
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import ChannelGains, SpectralEfficiencies, design_constellation, link
from vlcnoma.constellation import from_raw_levels
from vlcnoma.errors import ParameterError
from vlcnoma.link import (DecisionTable, SicReceiver, Workspace, awgn_sample, center_user,
                          decode_center_sic, decode_u2_jml, decode_u2_sic, nearest_table,
                          oma_levels, oma_pam_points, oma_round, oma_sizes, superpose_transmit)
from vlcnoma.montecarlo import philox_stream, receivers

ALL_SCHEMES = ("noma-sic", "noma-jml", "oma")
# the one-table SIC receivers of users 1 and 3 that two counted stages replaced
MERGED_SIC = Path(__file__).resolve().with_name("golden") / "sic_merged_tables.json"


def argmin_nearest(y, candidates):
    """Brute-force reference decoder: first minimum of every computed distance."""
    y = np.asarray(y, dtype=float)
    return np.argmin(np.abs(y[..., np.newaxis] - candidates), axis=-1)


def argmin_sic(y, edge, own):
    """Brute-force two-stage SIC: (own, edge) indices, stage-1 mistakes kept."""
    edge_hat = argmin_nearest(y, edge)
    return argmin_nearest(y - edge[edge_hat], own), edge_hat


def table_nearest(y, candidates):
    """The decision-table lookup of the nearest-candidate rule."""
    return nearest_table(candidates).decide(y)


def sic_receiver(edge, own):
    """Two-stage SIC over ``edge`` then ``own`` candidates, as ``receivers``
    builds it for a center user."""
    return SicReceiver(nearest_table(edge), edge, nearest_table(own))


def searchsorted_decide(table, y):
    """Reference lookup: the label at ``np.searchsorted(thresholds, y, 'right')``."""
    return table.labels[np.searchsorted(table.thresholds, y, side="right")]


def merged_decide(merged, y):
    """``(own, edge)`` of a frozen merged SIC table (see ``merged_sic``): both
    label rows at ``np.searchsorted(thresholds, y, 'right')``."""
    thresholds, labels = merged["thresholds"], merged["labels"]
    return tuple(labels[:, np.searchsorted(thresholds, y, side="right")])


def as_tuple(decided):
    """A SIC receiver's ``(own, edge)`` as it is, a table's one array as a 1-tuple."""
    return decided if isinstance(decided, tuple) else (decided,)


def assert_same_lookup(table, y, want=None, ws=None):
    """``table.decide(y, ws)`` equals ``want`` (default: the table's own
    lookup by ``searchsorted``), value and shape, and warns nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table.decide(y, ws)
    want = searchsorted_decide(table, y) if want is None else want
    for got_one, want_one in zip(as_tuple(got), as_tuple(want), strict=True):
        assert np.shape(got_one) == np.shape(want_one)
        assert np.array_equal(got_one, want_one)


def slot_table(thresholds):
    """A table whose label is the slot itself."""
    thresholds = np.asarray(thresholds, dtype=float)
    return DecisionTable(thresholds, np.arange(thresholds.size + 1))


def stage_tables(tables):
    """Every ``DecisionTable`` among ``tables``, a SIC receiver's two stages in its place."""
    return [stage for table in tables for stage in (
        (table.stage1, table.stage2) if isinstance(table, SicReceiver) else (table,))]


def sic_breakpoints(receiver):
    """Where a SIC receiver's decision may switch: its stage-1 thresholds, and
    every stage-2 threshold moved by every edge level, to within rounding."""
    with np.errstate(over="ignore"):
        moved = receiver.stage2.thresholds[:, np.newaxis] + receiver.levels
    return np.concatenate([receiver.stage1.thresholds, moved.reshape(-1)])


def exactly(size, values):
    """``size`` sorted distinct finite floats: the lowest of ``values``,
    padded with floats stepped one ulp at a time up from the lowest (down
    from the highest, where stepping up could pass the largest float)."""
    distinct = set(v for v in values if np.isfinite(v)) or {0.0}
    t, way = (min(distinct), np.inf) if min(distinct) < 1e308 else (max(distinct), -np.inf)
    while len(distinct) < size:
        t = float(np.nextafter(t, way))
        distinct.add(t)
    return np.array(sorted(distinct)[:size])


def bisect_64(rule, low, high, guess):
    """The unseeded bisection: always 64 steps from (low, high], guess ignored."""
    lo = link._flip(np.asarray(low, dtype=float).view(np.int64))
    hi = link._flip(np.asarray(high, dtype=float).view(np.int64))
    with np.errstate(over="ignore"):
        for _ in range(64):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            take = rule(link._flip(mid).view(float))
            lo, hi = np.where(take, lo, mid), np.where(take, mid, hi)
    return link._flip(hi).view(float)


# samples at the ends of the float range, NaN and both zeros
EXTREMES = np.array([-np.inf, -1.7e308, -1e300, -0.0, 0.0, 1e300, 1.7e308, np.inf, np.nan])


def around(points):
    """Each point and the floats one ulp either side of it (past the largest: infinity)."""
    points = np.asarray(points, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([points, np.nextafter(points, -np.inf),
                               np.nextafter(points, np.inf)])


def probes(candidates, rng, n=200):
    """Samples that stress the tie rule: exact midpoints, the candidates
    themselves, points beyond both ends and noise around the codebook."""
    ladder = np.sort(candidates)
    spread = float(ladder[-1] - ladder[0]) or 1.0
    return np.concatenate([
        (ladder[1:] + ladder[:-1]) / 2.0,
        candidates,
        [ladder[0] - spread, ladder[-1] + spread],
        rng.uniform(ladder[0] - spread, ladder[-1] + spread, n),
    ])


def jml_grid(cset, gains):
    tx1 = cset.cell1_center[:, np.newaxis] + cset.cell1_edge[np.newaxis, :]
    tx2 = cset.cell2_edge[:, np.newaxis] + cset.cell2_center[np.newaxis, :]
    return (gains.h21 * tx1[:, :, np.newaxis] + gains.h22 * tx2[np.newaxis, :, :]).reshape(-1)


@pytest.fixture(scope="module")
def small_set(reference_gains):
    return design_constellation(SpectralEfficiencies(1, 1, 1), reference_gains, 1.0)


@pytest.fixture(scope="module")
def reference_tables(reference_set, reference_gains):
    return receivers(reference_set, reference_gains, ALL_SCHEMES, 1.0)


@pytest.fixture(scope="module")
def merged_sic():
    """The frozen one-table SIC receivers, by user: thresholds, the two label
    rows (own, edge) and the candidate count.  The file holds the 1-based
    labels of the commit that froze it; here they are 0-based."""
    frozen = json.loads(MERGED_SIC.read_text())
    return {user: {"thresholds": np.array([float.fromhex(t) for t in frozen[user]["thresholds"]]),
                   "labels": np.array(frozen[user]["labels"]) - 1,
                   "candidates": frozen[user]["candidates"]}
            for user in ("u1", "u3")}


class TestSuperposeTransmit:
    def test_smallest_case_first_tuple(self, small_set, reference_gains):
        y1, _, _ = superpose_transmit((0, 0, 0), small_set, reference_gains)
        assert float(y1) == pytest.approx((1 / 7 + 3 / 7) * reference_gains.h11, rel=1e-12)

    def test_zero_gains_give_zero_signals(self, small_set):
        zero = ChannelGains(0.0, 0.0, 0.0, 0.0)
        y1, y2, y3 = superpose_transmit((1, 1, 0), small_set, zero)
        assert float(y1) == 0.0 and float(y2) == 0.0 and float(y3) == 0.0

    def test_far_cell_signal_ignores_near_cell_symbol(self, reference_set, reference_gains):
        fixed = superpose_transmit((0, 1, 2), reference_set, reference_gains)
        moved = superpose_transmit((7, 1, 2), reference_set, reference_gains)
        assert float(fixed[2]) == float(moved[2])
        assert float(fixed[0]) != float(moved[0])

    def test_every_tuple_bit_for_bit_as_each_cells_sum_times_its_gains(self, reference_set,
                                                                       reference_gains):
        # the sums of received_terms make the float ops of each cell's sum scaled
        # by its gains, on the index grid and, broadcast to it, on its open form alike
        cset, g = reference_set, reference_gains
        grid = np.indices(cset.bpcu.sizes)
        tx1 = cset.cell1_center[grid[0]] + cset.cell1_edge[grid[1]]
        tx2 = cset.cell2_edge[grid[1]] + cset.cell2_center[grid[2]]
        want = [y.tobytes() for y in (tx1 * g.h11, tx1 * g.h21 + tx2 * g.h22, tx2 * g.h32)]
        for symbols in (tuple(grid), np.ix_(*(np.arange(m) for m in cset.bpcu.sizes))):
            assert [np.broadcast_to(y, grid.shape[1:]).tobytes()
                    for y in superpose_transmit(symbols, cset, g)] == want

    def test_an_open_grid_forms_each_amplitude_over_only_its_indices(self, reference_gains):
        # y1 and y3 per symbol pair, y2 alone per tuple: 8 MiB of doubles at
        # (7, 6, 7), where broadcasting every index to every tuple traced 40 MiB
        cset = design_constellation(SpectralEfficiencies(7, 6, 7), reference_gains, 1.0)
        grid = np.ix_(*(np.arange(m) for m in cset.bpcu.sizes))
        tracemalloc.start()
        try:
            amplitudes = superpose_transmit(grid, cset, reference_gains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [y.shape for y in amplitudes] == [(128, 64, 1), (128, 64, 128), (1, 64, 128)]
        assert peak <= 12 << 20, peak / 2**20

    def test_out_of_range_index_rejected(self, small_set, reference_gains):
        # the gathers clip, so the range check is what rejects these
        for symbols in ((2, 0, 0), (0, 0, -1)):
            with pytest.raises(ParameterError):
                superpose_transmit(symbols, small_set, reference_gains)


class TestAwgnSample:
    def test_zero_sigma_is_identity(self, small_set, reference_gains):
        y = superpose_transmit((0, 1, 0), small_set, reference_gains)
        noisy = awgn_sample(y, 0.0, philox_stream(0, 0, 0))
        assert float(noisy[0]) == float(y[0])
        assert float(noisy[1]) == float(y[1])
        assert float(noisy[2]) == float(y[2])

    def test_same_stream_address_replays_identically(self, small_set, reference_gains):
        y = superpose_transmit((0, 1, 0), small_set, reference_gains)
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


class TestNearestMatchesArgmin:
    def test_random_codebooks_with_duplicates(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            size = int(rng.integers(1, 130))
            # few distinct small integers: many duplicates, exact dyadic midpoints
            candidates = rng.integers(0, 12, size) * rng.choice([1.0, 0.125, 3.7e-7])
            y = probes(candidates, rng)
            assert np.array_equal(table_nearest(y, candidates), argmin_nearest(y, candidates))

    def test_exact_midpoint_goes_to_lowest_index_of_either_side(self):
        candidates = np.array([3.0, 1.0, 3.0, 1.0, 2.0])
        assert table_nearest(np.array([1.5, 2.5, 0.0, 9.0]), candidates).tolist() == [
            1, 0, 1, 0]

    def test_reference_jml_grid(self, reference_set, reference_gains):
        grid = jml_grid(reference_set, reference_gains)
        y = probes(grid, np.random.default_rng(3), n=5000)
        assert np.array_equal(table_nearest(y, grid), argmin_nearest(y, grid))

    def test_shape_follows_samples(self):
        candidates = np.array([0.0, 1.0, 2.0])
        assert table_nearest(np.zeros((2, 3)), candidates).shape == (2, 3)
        scalar = table_nearest(1.4, candidates)
        assert np.ndim(scalar) == 0 and int(scalar) == 1

    @settings(max_examples=300, deadline=None)
    @given(candidates=st.lists(st.integers(-64, 64), min_size=1, max_size=129),
           y=st.lists(st.integers(-2000, 2000), min_size=1, max_size=20))
    def test_property_matches_argmin(self, candidates, y):
        # eighths and sixteenths: every distance is exact, midpoints included
        candidates, y = np.array(candidates) / 8.0, np.array(y) / 16.0
        assert np.array_equal(table_nearest(y, candidates), argmin_nearest(y, candidates))

    @settings(max_examples=300, deadline=None)
    @given(candidates=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=129),
           y=st.lists(st.floats(-3e6, 3e6), min_size=1, max_size=20))
    def test_property_returns_a_nearest_candidate(self, candidates, y):
        # arbitrary floats: rounding may tie distinct candidates, so check the
        # distance of the answer rather than its index
        candidates, y = np.array(candidates), np.array(y)
        distance = np.abs(y[:, np.newaxis] - candidates)
        chosen = table_nearest(y, candidates)
        assert np.array_equal(distance[np.arange(y.size), chosen], distance.min(axis=-1))

    def test_public_decoders_match_argmin(self, reference_set, reference_gains,
                                          reference_tables):
        g, cset, tables = reference_gains, reference_set, reference_tables
        y = probes(jml_grid(cset, g), np.random.default_rng(11), n=20_000)
        scaled = np.concatenate([y, probes(g.h11 * cset.cell1_edge,
                                           np.random.default_rng(12))])
        symbols = (np.arange(64), np.arange(64) % 16, np.arange(64) // 4)
        links = tables["oma"]
        for got, want in zip(decode_center_sic(scaled, tables["u1"]),
                             argmin_sic(scaled, g.h11 * cset.cell1_edge,
                                        g.h11 * cset.cell1_center), strict=True):
            assert np.array_equal(got, want)
        for got, want in zip(decode_center_sic(scaled, tables["u3"]),
                             argmin_sic(scaled, g.h32 * cset.cell2_edge,
                                        g.h32 * cset.cell2_center), strict=True):
            assert np.array_equal(got, want)
        assert np.array_equal(decode_u2_sic(y, tables["noma-sic"]), argmin_nearest(
            y, g.h21 * cset.cell1_edge + g.h22 * cset.cell2_edge))
        tuples = np.indices(cset.bpcu.sizes).reshape(3, -1)
        assert np.array_equal(decode_u2_jml(y, tables["noma-jml"]),
                              tuples[1][argmin_nearest(y, jml_grid(cset, g))])
        pam = oma_pam_points(64, 1.0) * (g.h21 + g.h22)
        assert np.array_equal(table_nearest(y, pam), argmin_nearest(y, pam))
        for sigma in (0.0, 1e-7, 1e-5):
            rng = philox_stream(1, 0, 0)
            i1, i2, i3 = symbols
            pam1, pam2, pam3 = (oma_pam_points(s, 1.0) for s in oma_sizes(reference_set.bpcu))
            y1 = pam1[i1] * g.h11 + sigma * rng.standard_normal(64)
            y3 = pam3[i3] * g.h32 + sigma * rng.standard_normal(64)
            y2 = pam2[i2] * (g.h21 + g.h22) + sigma * rng.standard_normal(64)
            want = (argmin_nearest(y1, pam1 * g.h11),
                    argmin_nearest(y2, pam2 * (g.h21 + g.h22)),
                    argmin_nearest(y3, pam3 * g.h32))
            got = oma_round(symbols, links, sigma, philox_stream(1, 0, 0))
            for got_user, want_user in zip(got, want, strict=True):
                assert np.array_equal(got_user, want_user)


class TestDecisionTables:
    """Every threshold is exact: the table and the argmin oracle agree on it
    and one ulp either side of it."""

    CODEBOOKS = {
        "duplicates": np.array([3.0, 1.0, 3.0, 1.0, 2.0, 2.0, 7.5, 7.5]),
        "straddling_zero_1e3": np.array([-4096.0, -1000.0, 1000.0, 2500.5, 9.9e3]),
        "straddling_zero_1e300": np.array([-3e300, -1e300, 2e300, 5e300]),
        "straddling_zero_random": np.random.default_rng(5).uniform(-1e6, 1e6, 129),
        "single": np.array([0.25]),
    }

    @pytest.mark.parametrize("name", CODEBOOKS)
    def test_each_threshold_and_its_neighbours_match_argmin(self, name):
        candidates = self.CODEBOOKS[name]
        table = nearest_table(candidates)
        assert np.all(np.diff(table.thresholds) > 0)
        y = np.concatenate([around(table.thresholds), probes(candidates,
                                                              np.random.default_rng(1))])
        assert np.array_equal(table.decide(y), argmin_nearest(y, candidates))
        # at a threshold the decision has just switched
        assert np.all(table.decide(table.thresholds)
                      != table.decide(np.nextafter(table.thresholds, -np.inf)))

    def test_reference_tables_thresholds_match_argmin(self, reference_set, reference_gains,
                                                      reference_tables):
        g, cset = reference_gains, reference_set
        for user, (edge, own, h) in ((u, center_user(cset, g, u)) for u in (1, 3)):
            receiver = reference_tables[f"u{user}"]
            for stage, candidates in ((receiver.stage1, h * edge), (receiver.stage2, h * own)):
                y = around(stage.thresholds)
                assert np.array_equal(stage.decide(y), argmin_nearest(y, candidates))
            assert np.array_equal(receiver.levels, h * edge)
            y = around(sic_breakpoints(receiver))
            for got, want in zip(receiver.decide(y), argmin_sic(y, h * edge, h * own),
                                 strict=True):
                assert np.array_equal(got, want)
        for levels, links_table in reference_tables["oma"]:
            y = around(links_table.thresholds)
            assert np.array_equal(links_table.decide(y), argmin_nearest(y, levels))

    def test_merged_jml_table_matches_tuple_argmin(self, reference_set, reference_gains,
                                                   reference_tables):
        tuples = np.indices(reference_set.bpcu.sizes).reshape(3, -1)
        joint, labels = superpose_transmit(tuples, reference_set, reference_gains)[1], tuples[1]
        table = reference_tables["noma-jml"]
        assert table.thresholds.size == 3 and joint.size == 128
        unmerged = nearest_table(joint)
        y = np.concatenate([around(unmerged.thresholds),
                            probes(joint, np.random.default_rng(4), n=20_000)])
        assert np.array_equal(decode_u2_jml(y, table), labels[argmin_nearest(y, joint)])

    def test_outputs_broadcast_against_the_candidates_label_as_their_full_grid(
            self, reference_set, reference_gains):
        # joint ML's labels read from the open index grid, with no label grid built
        grid = np.ix_(*(np.arange(m) for m in reference_set.bpcu.sizes))
        joint = superpose_transmit(grid, reference_set, reference_gains)[1]
        for outputs in grid:
            want = nearest_table(joint, np.broadcast_to(outputs, joint.shape).copy())
            got = nearest_table(joint, outputs)
            assert got.thresholds.tobytes() == want.thresholds.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tobytes() == want.labels.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(edge=st.lists(st.integers(-64, 64), min_size=1, max_size=9),
           own=st.lists(st.integers(-64, 64), min_size=1, max_size=9),
           y=st.lists(st.integers(-4000, 4000), min_size=1, max_size=20))
    def test_property_sic_table_matches_two_stage_argmin(self, edge, own, y):
        # dyadic values: distances and residuals are exact, midpoints included
        edge, own, y = np.array(edge) / 8.0, np.array(own) / 16.0, np.array(y) / 32.0
        receiver = sic_receiver(edge, own)
        y = np.concatenate([y, around(sic_breakpoints(receiver))])
        for got, want in zip(receiver.decide(y), argmin_sic(y, edge, own), strict=True):
            assert np.array_equal(got, want)

    def test_lookup_matches_searchsorted_on_reference_tables(self, reference_tables):
        tables = stage_tables(reference_tables[name]
                              for name in ("u1", "u3", "noma-sic", "noma-jml"))
        tables += [table for _, table in reference_tables["oma"]]
        assert len(tables) == 9
        for table in tables:
            y = np.concatenate([around(table.thresholds), EXTREMES])
            assert_same_lookup(table, y)

    @pytest.mark.parametrize("name", CODEBOOKS)
    def test_lookup_matches_searchsorted_on_codebooks(self, name):
        candidates = self.CODEBOOKS[name]
        table = nearest_table(candidates)
        y = np.concatenate([around(table.thresholds), EXTREMES,
                            probes(candidates, np.random.default_rng(2))])
        assert_same_lookup(table, y)

    GEOMETRIES = {
        "ulp_apart": 1.0 + np.spacing(1.0) * np.arange(4),
        "ulp_apart_subnormal": [0.0, 5e-324, 1e-323, 1.5e-323],
        "ulp_apart_huge": [1e308, np.nextafter(1e308, np.inf)],
        "single": [0.25],
        "empty": [],
        "width_overflows": [-1e308, 1e308],
        "width_overflows_full_range": [-1.7976931348623157e308, -1.0, 0.0,
                                       1.7976931348623157e308],
        "negative": [-3.0, -2.0, -1e-300],
    }

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_lookup_matches_searchsorted_on_edge_geometries(self, name):
        table = slot_table(self.GEOMETRIES[name])
        assert np.all(table.thresholds[1:] > table.thresholds[:-1])
        y = np.concatenate([around(table.thresholds), EXTREMES])
        assert_same_lookup(table, y)

    def test_geometries_cover_an_overflowing_width(self):
        with np.errstate(over="ignore"):
            ends = np.array(self.GEOMETRIES["width_overflows"])
            assert np.isinf(ends[-1] - ends[0])

    @pytest.mark.parametrize("y", [0.5, np.float64(-1e300), np.array(1.25e-6), np.array(np.nan),
                                   np.array([]), np.zeros((0, 3)), np.array([3e-6]),
                                   np.full((2, 2), 2e-6)],
                             ids=["float", "float64", "0-d", "0-d-nan", "empty", "empty-2d",
                                  "one", "2x2"])
    def test_lookup_keeps_scalars_and_shapes(self, reference_tables, merged_sic, y):
        # a counted table, a bucketed one, and a SIC receiver against its merged table
        assert_same_lookup(reference_tables["noma-jml"], y)
        assert_same_lookup(reference_tables["oma"][0][1], y)
        assert_same_lookup(reference_tables["u1"], y, merged_decide(merged_sic["u1"], y))

    @pytest.mark.parametrize("y", [0.5, np.array(1.25e-6), np.array(np.nan), np.array([]),
                                   np.zeros((0, 3)), np.full((2, 2), 2e-6),
                                   np.linspace(-1e-6, 9e-6, 50)],
                             ids=["float", "0-d", "0-d-nan", "empty", "empty-2d", "2x2",
                                  "grown"])
    def test_lookup_into_workspace_matches_allocating(self, reference_tables, y):
        # one workspace for both tables, so the later, larger tables grow its "below"
        ws = Workspace()
        for table in (reference_tables["u1"], reference_tables["noma-jml"]):
            for got, want in zip(as_tuple(table.decide(y, ws)), as_tuple(table.decide(y)),
                                 strict=True):
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)

    def test_distinct_tables_keep_their_decisions_in_one_workspace(self):
        # two direct tables and two gathered ones: each decision lands in its
        # own table's array, where a shared one would leave [0 2] [0 2] [2 1] [2 1]
        tables = (slot_table([0.5]), slot_table([0.25, 0.75]),
                  DecisionTable(np.array([0.5]), np.array([1, 0])),
                  DecisionTable(np.array([0.5]), np.array([2, 1])))
        ws = Workspace()
        got = [table.decide(np.array([0.0, 1.0]), ws) for table in tables]
        assert [labels.tolist() for labels in got] == [[0, 1], [0, 2], [1, 0], [2, 1]]

    def test_workspace_takes_one_array_for_every_spelling_of_a_dtype(self):
        # keyed by the dtype object as given, float and float64 held two arrays
        ws = Workspace()
        arrays = [ws.take("x", (4,), dtype) for dtype in (float, np.float64, np.dtype("float64"))]
        assert all(np.shares_memory(arrays[0], array) for array in arrays[1:])
        assert len(ws._arrays) == 1

    def test_cold_counted_lookup_allocates_one_compare_at_a_time(self):
        # the slot and one bool compare array: 2 B per sample, where all of
        # the table's compares at once took 33 at K = 32
        thresholds = np.linspace(-1.0, 1.0, 32)
        table = slot_table(thresholds)
        assert table._counted
        n = 1 << 15
        y = np.random.default_rng(3).standard_normal(n)
        tracemalloc.start()
        try:
            slots = table.decide(y, Workspace())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n + 16 * 1024, peak / n
        assert np.array_equal(slots, np.searchsorted(thresholds, y, "right"))

    def test_warmed_gathered_counted_lookup_allocates_no_index(self):
        # np.take cast the byte slot to intp itself: a 262 792 B peak here
        thresholds = np.linspace(-1.0, 1.0, 15)
        table = DecisionTable(thresholds, np.arange(16)[::-1].copy())
        y = np.random.default_rng(3).standard_normal(1 << 15)
        ws = Workspace()
        table.decide(y, ws)
        tracemalloc.start()
        try:
            labels = table.decide(y, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, peak
        assert np.array_equal(labels, 15 - np.searchsorted(thresholds, y, "right"))

    def test_receivers_build_nine_distinct_tables(self, reference_tables):
        # a frame decides once with each table, so no decision overwrites another
        tables = stage_tables(reference_tables[name]
                              for name in ("u1", "u3", "noma-sic", "noma-jml"))
        tables += [table for _, table in reference_tables["oma"]]
        assert len(set(map(id, tables))) == 9

    @pytest.mark.parametrize("labels", [[10, 11], [[10, 11, 12, 13]], [10, 11, 12, 13, 14]],
                             ids=["short", "row-of-a-2d-array", "long"])
    def test_labels_not_one_per_interval_rejected(self, labels):
        # a short row was clipped silently: [0, 1.5, 2.5, 9] decided [10, 11, 11, 11]
        with pytest.raises(ParameterError, match="labels"):
            DecisionTable(np.array([1.0, 2.0, 3.0]), np.array(labels))

    def test_reference_tables_label_every_interval_by_its_slot(self, reference_tables):
        # labels 0..K: both lookups return the slot itself, with no gather
        tables = stage_tables(reference_tables[name]
                              for name in ("u1", "u3", "noma-sic", "noma-jml"))
        tables += [table for _, table in reference_tables["oma"]]
        assert len(tables) == 9
        for table in tables:
            assert np.array_equal(table.labels, np.arange(table.thresholds.size + 1))
            assert table._direct

    @pytest.mark.parametrize("thresholds,match", [
        ([0.0, np.inf], "finite"), ([np.nan], "finite"), ([-np.inf, 0.0], "finite"),
        ([[0.0, 1.0]], r"one row, got shape \(1, 2\)"), (0.5, r"one row, got shape \(\)"),
        ([1.0, 0.0], "ascending"), ([0.0, 2.0, 1.0, 3.0], "ascending")],
        ids=["inf", "nan", "-inf", "row-of-a-2d-array", "scalar", "descending", "unsorted"])
    def test_thresholds_not_one_sorted_finite_row_rejected(self, thresholds, match):
        # a (1, K) array was accepted through a reshape, and [1.0, 0.0] decided silently
        with pytest.raises(ParameterError, match=match):
            slot_table(thresholds)

    @settings(deadline=None)
    @given(spread=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30),
           base=st.floats(allow_nan=False, allow_infinity=False),
           steps=st.lists(st.integers(1, 3), max_size=8),
           y=st.lists(st.floats(), max_size=30))
    def test_property_lookup_matches_searchsorted(self, spread, base, steps, y):
        # a spread of arbitrary floats plus a chain a few ulps apart
        chain = [base]
        with np.errstate(over="ignore"):
            for step in steps:
                for _ in range(step):
                    chain.append(float(np.nextafter(chain[-1], np.inf)))
        thresholds = np.unique([t for t in spread + chain if np.isfinite(t)])
        table = slot_table(thresholds)
        assert_same_lookup(table, np.concatenate([np.array(y), around(thresholds), EXTREMES]))

    @pytest.mark.parametrize("size", [0, 1, 2, 31, 32, 33, 64])
    def test_lookup_rule_follows_the_threshold_count(self, size):
        table = slot_table(np.arange(size, dtype=float))
        assert table._counted == (size <= 32)
        assert table._direct
        shifted = DecisionTable(table.thresholds, table.labels + 1)
        assert not shifted._direct
        # the empty table (every candidate equal) decides its one label by counting too
        for decider in (table, shifted):
            assert_same_lookup(decider, np.concatenate([around(table.thresholds), EXTREMES]))

    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(1, 32),
           values=st.lists(st.floats(-1e300, 1e300), min_size=32, max_size=32),
           y=st.lists(st.floats(), max_size=20))
    def test_property_counted_direct_labels_are_bytes(self, size, values, y):
        # the byte count is the decision itself, with or without a workspace
        table = slot_table(exactly(size, values[:size]))
        assert table._counted and table._direct
        y = np.concatenate([np.array(y), around(table.thresholds), EXTREMES])
        want = np.searchsorted(table.thresholds, y, side="right")
        for got in (table.decide(y), table.decide(y, Workspace())):
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 64])
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64),
           base=st.floats(allow_nan=False, allow_infinity=False),
           ulps=st.booleans(),
           labels=st.sampled_from(["identity", "reversed", "one_based"]),
           y=st.lists(st.floats(), max_size=20),
           form=st.sampled_from(["1-d", "scalar", "0-d", "empty", "2-d"]))
    def test_property_lookup_at_the_cutoff_matches_searchsorted(self, size, values, base,
                                                                ulps, labels, y, form):
        # counted up to 32 thresholds, bucketed above: ulp-spaced or spread thresholds
        thresholds = exactly(size, [base] if ulps else values + [base])
        slot = np.arange(size + 1)
        table = DecisionTable(thresholds, {"identity": slot, "reversed": size - slot,
                                           "one_based": slot + 1}[labels])
        assert table._direct == (labels == "identity")
        y = np.concatenate([np.array(y), around(thresholds), EXTREMES])
        samples = {"1-d": y, "scalar": float(y[0]), "0-d": np.array(y[-1]),
                   "empty": y[:0], "2-d": y[:y.size // 2 * 2].reshape(2, -1)}[form]
        # a reused workspace holds larger arrays of this table and of another
        # that shares its scratch, which the decision must overwrite
        reused = Workspace()
        table.decide(np.concatenate([y, y]), reused)
        slot_table(thresholds).decide(y[::-1], reused)
        for ws in (None, Workspace(), reused):
            assert_same_lookup(table, samples, ws=ws)

    def test_seeded_build_equals_64_step_bisection(self, reference_set, reference_gains,
                                                   monkeypatch):
        def build():
            tables = receivers(reference_set, reference_gains, ALL_SCHEMES, 1.0)
            tables = [tables[k] for k in ("u1", "u3", "noma-sic", "noma-jml")] + [
                table for _, table in tables["oma"]]
            tables += [nearest_table(c) for c in self.CODEBOOKS.values()]
            codebooks = list(self.CODEBOOKS.values())
            return stage_tables(tables + [sic_receiver(edge, own)
                                          for edge, own in zip(codebooks, codebooks[1:])])

        seeded = build()
        monkeypatch.setattr(link, "_first_true", bisect_64)
        for fresh, old in zip(seeded, build(), strict=True):
            assert np.array_equal(fresh.thresholds, old.thresholds)
            assert np.array_equal(fresh.labels, old.labels)

    # sha256 of the five reference tables that are not SIC (edge rule, JML, the
    # three OMA links: thresholds, 1-based labels, candidate counts), as built
    # at cae01a9
    NON_SIC_DIGEST = "8b06754b13081cd3a2d0faad45dc91e4c885776af03752729222a212334df210"

    def test_reference_tables_equal_the_frozen_builds(self, reference_set, reference_gains,
                                                      reference_tables, merged_sic):
        cset, gains = reference_set, reference_gains
        built = [reference_tables[k] for k in ("noma-sic", "noma-jml")]
        built += [table for _, table in reference_tables["oma"]]
        sizes = [(gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge).size,
                 math.prod(cset.bpcu.sizes)]  # joint ML's candidates: every tuple
        sizes += [x.size for x in oma_levels(cset.bpcu, gains, 1.0)]
        digest = hashlib.sha256()
        for table, size in zip(built, sizes, strict=True):
            digest.update(table.thresholds.astype("<f8").tobytes())
            digest.update((table.labels + 1).astype("<i8").tobytes())
            digest.update(str(size).encode())
        assert digest.hexdigest() == self.NON_SIC_DIGEST
        for user in ("u1", "u3"):
            edge, own, _ = center_user(cset, gains, int(user[1]))
            merged = merged_sic[user]
            assert edge.size + own.size == merged["candidates"]
            y = np.concatenate([around(merged["thresholds"]), EXTREMES])
            assert_same_lookup(reference_tables[user], y, merged_decide(merged, y))

    def test_reference_sic_receivers_equal_the_merged_tables(self, reference_tables,
                                                             merged_sic):
        # the merged tables' breakpoints, with both stages' own breakpoints and
        # samples across the whole codebook as well
        rng = np.random.default_rng(8)
        for user in ("u1", "u3"):
            receiver, merged = reference_tables[user], merged_sic[user]
            ends = merged["thresholds"][[0, -1]]
            y = np.concatenate([around(merged["thresholds"]), around(sic_breakpoints(receiver)),
                                rng.uniform(2 * ends[0] - ends[1], 2 * ends[1] - ends[0], 5000),
                                EXTREMES])
            assert_same_lookup(receiver, y, merged_decide(merged, y))

    def test_reference_build_takes_one_step_per_bisection(self, reference_set,
                                                          reference_gains, monkeypatch):
        calls = []
        seeded = link._first_true

        def counting(rule, low, high, guess):
            count = [0]

            def counted(y):
                count[0] += 1
                return rule(y)

            out = seeded(counted, low, high, guess)
            calls.append(count[0])
            return out

        monkeypatch.setattr(link, "_first_true", counting)
        receivers(reference_set, reference_gains, ALL_SCHEMES, 1.0)
        # one bisection for each of the nine tables (both SIC stages of users 1
        # and 3, the two edge rules and the three OMA links): the two seed
        # ends, then one step, as every threshold lies within an ulp of its
        # computed guess at the reference design
        assert calls == [3] * 9


class TestSicDecoders:
    def test_noiseless_round_trip_reference_set(self, reference_set, reference_gains,
                                                reference_tables):
        m1, m2, m3 = reference_set.bpcu.sizes
        grid = np.array(list(itertools.product(range(m1), range(m2), range(m3)))).T
        y1, _, y3 = superpose_transmit((grid[0], grid[1], grid[2]), reference_set,
                                       reference_gains)
        u1_hat, stage1 = decode_center_sic(y1, reference_tables["u1"])
        u3_hat, stage3 = decode_center_sic(y3, reference_tables["u3"])
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
        unit = ChannelGains(1.0, 0.0, 0.0, 1.0)
        edge1, own1, h = center_user(cset, unit, 1)
        _, stage1 = decode_center_sic(midpoint, sic_receiver(h * edge1, h * own1))
        assert int(stage1) == 0

    def test_stage_counts(self, reference_set, reference_gains):
        # both stages' candidates: the edge levels, then the user's own
        (edge1, own1, _), (edge3, own3, _) = (center_user(reference_set, reference_gains, u)
                                              for u in (1, 3))
        assert edge1.size + own1.size == 2**2 + 2**3
        assert edge3.size + own3.size == 2**2 + 2**2

    def test_center_users_hear_their_own_cell_through_their_own_gain(self, reference_set,
                                                                     reference_gains):
        cset, g = reference_set, reference_gains
        edge1, own1, h1 = center_user(cset, g, 1)
        assert edge1 is cset.cell1_edge and own1 is cset.cell1_center and h1 == g.h11
        edge3, own3, h3 = center_user(cset, g, 3)
        assert edge3 is cset.cell2_edge and own3 is cset.cell2_center and h3 == g.h32

    def test_invalid_user_rejected(self, reference_set, reference_gains):
        with pytest.raises(ParameterError):
            center_user(reference_set, reference_gains, 2)


class TestEdgeDecoders:
    def test_interference_as_noise_counts(self, reference_set, reference_gains):
        g, cset = reference_gains, reference_set
        assert (g.h21 * cset.cell1_edge + g.h22 * cset.cell2_edge).size == 4

    def test_joint_ml_counts(self, reference_set, reference_gains):
        tuples = np.indices(reference_set.bpcu.sizes).reshape(3, -1)
        assert superpose_transmit(tuples, reference_set, reference_gains)[1].size == 128

    def test_noiseless_joint_ml_recovers_edge_symbol(self, reference_set, reference_gains,
                                                     reference_tables):
        m1, m2, m3 = reference_set.bpcu.sizes
        grid = np.array(list(itertools.product(range(m1), range(m2), range(m3)))).T
        _, y2, _ = superpose_transmit((grid[0], grid[1], grid[2]), reference_set,
                                      reference_gains)
        assert np.array_equal(decode_u2_jml(y2, reference_tables["noma-jml"]), grid[1])
        assert np.array_equal(decode_u2_sic(y2, reference_tables["noma-sic"]), grid[1])

    def test_gap_violating_levels_misdecode_noiselessly(self, reference_gains):
        bad = from_raw_levels(SpectralEfficiencies(1, 1, 1),
                              [1, 2], [3, 4], [3, 4], [1, 2], 1.0)
        grid = np.array(list(itertools.product((0, 1), (0, 1), (0, 1)))).T
        _, y2, _ = superpose_transmit((grid[0], grid[1], grid[2]), bad, reference_gains)
        tables = receivers(bad, reference_gains, ("noma-sic",), 1.0)
        decoded = decode_u2_sic(y2, tables["noma-sic"])
        assert np.any(decoded != grid[1])

    def test_common_noise_joint_ml_beats_interference_as_noise(
        self, reference_set, reference_gains, reference_tables
    ):
        rng = philox_stream(5, 0, 0)
        n = 20_000
        m1, m2, m3 = reference_set.bpcu.sizes
        symbols = (rng.integers(0, m1, n), rng.integers(0, m2, n), rng.integers(0, m3, n))
        _, y2, _ = awgn_sample(superpose_transmit(symbols, reference_set, reference_gains),
                               1e-7, rng)
        sic_errors = np.count_nonzero(
            decode_u2_sic(y2, reference_tables["noma-sic"]) != symbols[1])
        jml_errors = np.count_nonzero(
            decode_u2_jml(y2, reference_tables["noma-jml"]) != symbols[1])
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
    def test_noiseless_frame_decodes_exactly(self, reference_bpcu, reference_set,
                                             reference_gains):
        sizes = oma_sizes(reference_bpcu)
        assert sizes == (64, 16, 16)
        rng = philox_stream(0, 0, 0)
        symbols = (rng.integers(0, sizes[0], 500), rng.integers(0, sizes[1], 500),
                   rng.integers(0, sizes[2], 500))
        links = receivers(reference_set, reference_gains, ("oma",), 1.0)["oma"]
        decoded = oma_round(symbols, links, 0.0, philox_stream(0, 0, 1))
        for sent, got in zip(symbols, decoded):
            assert np.array_equal(sent, got)

    def test_per_frame_metric_counts(self, reference_bpcu, reference_gains):
        levels = oma_levels(reference_bpcu, reference_gains, 1.0)
        # frame total is twice the per-channel-use average of 48
        assert sum(x.size for x in levels) == 64 + 16 + 16

    def test_average_transmit_power_per_slot_is_target(self, reference_bpcu):
        for size in oma_sizes(reference_bpcu):
            assert oma_pam_points(size, 2.5).mean() == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan")])
    def test_bad_sigma_rejected(self, sigma, reference_set, reference_gains):
        links = receivers(reference_set, reference_gains, ("oma",), 1.0)["oma"]
        with pytest.raises(ParameterError):
            oma_round((0, 0, 0), links, sigma, philox_stream(0, 0, 0))
