"""Every sweep counts what the naive model counts, and every frame decides what
it decides (differential testing).  ``naive.recount`` is matched against
``run_sweep``, simulated and replayed from a memo, error for error and trial
for trial; ``naive.frame`` against ``_frame`` decision for decision,
allocating and on a reused workspace, and its received amplitudes bit for
bit, which a one-ulp fault in a table moves where a count rarely changes."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from vlcnoma import (ChannelGains, SpectralEfficiencies, SweepConfig, design_constellation,
                     run_sweep)
from vlcnoma.constellation import from_raw_levels
from vlcnoma.link import Workspace
from vlcnoma.montecarlo import _frame, philox_stream, receivers, sigma_from_snr

SCHEMES = ("noma-sic", "noma-jml", "oma")
SUBSETS = [subset for size in (1, 2, 3) for subset in itertools.combinations(SCHEMES, size)]
# the reference design counts every threshold and tabulates OMA user 1's
# bucketed table; (6, 2, 2) and (3, 2, 6) send a SIC stage 2 through the
# bucketed lookup, (2, 6, 2) the edge tables and both stage 1s; (7, 6, 1) has
# more than MAX_PAIRS (u1, u2) pairs, so its frames sum each trial's levels
FIXED = [(3, 2, 2), (6, 2, 2), (2, 6, 2), (3, 2, 6), (7, 6, 1)]
BATCH, PARTIAL = 1024, 452  # trials of a full and of a partial last batch
# each frame size with the size of the frame that fills the workspace before it
SIZES = ((BATCH, 1), (PARTIAL, BATCH), (1, PARTIAL))


@st.composite
def designs(draw):
    """bpcu 1..3 per user, gains that keep each center user above the edge
    user in its own cell, and strictly increasing raw levels of any spacing,
    so most designs fail the zero-error gap condition."""
    bpcu = SpectralEfficiencies(*(draw(st.integers(1, 3)) for _ in range(3)))
    h21, h22 = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
    gains = ChannelGains(h11=h21 * draw(st.floats(1.1, 4.0)), h21=h21, h22=h22,
                         h32=h22 * draw(st.floats(1.1, 4.0)))
    raw = []
    for user in (0, 1, 1, 2):
        m = bpcu.sizes[user]
        steps = draw(st.lists(st.floats(0.05, 4.0), min_size=m, max_size=m))
        raw.append(np.cumsum(steps))
    return from_raw_levels(bpcu, *raw, avg_power_w=1.0), gains


def assert_rows_recounted(config, cset, gains, workers):
    """Every row of the sweep has the recount's errors and trials, simulated
    and replayed from a memo that first swept all three schemes."""
    memo = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a design failing the gap condition warns
        rows = run_sweep(config, cset, gains, workers)
        run_sweep(replace(config, schemes=SCHEMES), cset, gains, workers, memo)
        replayed = run_sweep(config, cset, gains, workers, memo)
    expected = {}
    for snr_db, (trials, totals) in zip(config.snr_points_db,
                                        naive.recount(config, cset, gains)):
        for scheme, errors in totals.items():
            for user, e, t in zip(("u1", "u2", "u3", "avg"), (*errors, sum(errors)),
                                  (trials,) * 3 + (3 * trials,)):
                expected[snr_db, user, scheme] = (int(e), t)
    for points in (rows, replayed):
        assert {(p.snr_db, p.user, p.scheme): (p.estimate.errors, p.estimate.trials)
                for p in points} == expected


def assert_frames_match(cset, gains, schemes, sigma, other_sigma, seed, sizes=SIZES):
    """A full batch, a partial batch and one trial of ``_frame`` (or those of
    ``sizes``), each allocating and on a workspace that a frame of another size at
    ``other_sigma`` has just filled, decide every named decision as
    ``naive.frame`` does.  The reused frame keeps the allocating frame's
    dtypes, and the allocating frame's (y1, y2, y3) are the model's bits."""
    tables = receivers(cset, gains, schemes, 1.0)
    ws = Workspace()
    for n, other in sizes:
        want, received = naive.frame(philox_stream(seed, 0, n), n, sigma, cset, gains,
                                     schemes, 1.0)
        allocated = _frame(philox_stream(seed, 0, n), n, sigma, cset, tables)
        _frame(philox_stream(seed ^ 1, 1, n), other, other_sigma, cset, tables, ws)
        reused = _frame(philox_stream(seed, 0, n), n, sigma, cset, tables, ws)
        # a worker holds one received amplitude at a time: only the
        # allocating frame returns all three
        assert reused[1] is None
        for decided in (allocated[0], reused[0]):
            assert decided.keys() == want.keys()
            for name, pair in decided.items():
                for got, expected, like in zip(pair, want[name], allocated[0][name],
                                               strict=True):
                    assert got.shape == (n,) and got.dtype == like.dtype, (n, name)
                    assert np.array_equal(got, expected), (n, name)
        if received is None:
            assert allocated[1] is None
        else:
            for got, expected in zip(allocated[1], received, strict=True):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n


@pytest.mark.scheduler
@settings(max_examples=60, deadline=None)
@given(design=designs(), data=st.data())
def test_every_row_counts_what_the_naive_recount_counts(design, data):
    draw = data.draw
    config = SweepConfig(
        snr_points_db=draw(st.lists(st.floats(-5.0, 40.0), min_size=1, max_size=3, unique=True)),
        trials_per_point=draw(st.integers(1, 400)),
        seed=draw(st.integers(0, 2**64 - 1)),
        target_power_w=1.0,
        schemes=tuple(draw(st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=3,
                                    unique=True))),
        min_errors=draw(st.sampled_from([0, 1, 5, 30])),
        batch_size=draw(st.integers(1, 128)),
    )
    assert_rows_recounted(config, *design, workers=draw(st.integers(1, 3)))


def test_a_summed_design_counts_what_the_naive_recount_counts(reference_gains):
    # more than MAX_PAIRS symbol pairs per cell: amplitudes are summed per trial,
    # a path the property's small designs never take
    cset = design_constellation(SpectralEfficiencies(7, 6, 1), reference_gains, 1.0)
    config = SweepConfig(snr_points_db=(160.0, 190.0), trials_per_point=300, seed=7,
                         target_power_w=1.0, schemes=SCHEMES, batch_size=128)
    assert_rows_recounted(config, cset, reference_gains, workers=2)


@settings(max_examples=40, deadline=None)
@given(design=designs(), schemes=st.sampled_from(SUBSETS),
       snr_db=st.floats(-5.0, 40.0), seed=st.integers(0, 2**64 - 1))
def test_every_frame_decides_what_the_naive_frame_decides(design, schemes, snr_db, seed):
    assert_frames_match(*design, schemes, sigma_from_snr(snr_db, 1.0),
                        sigma_from_snr(snr_db - 20.0, 1.0), seed)


@pytest.mark.parametrize("size", SIZES, ids=lambda size: f"n{size[0]}")
@pytest.mark.parametrize("schemes", SUBSETS, ids="+".join)
@pytest.mark.parametrize("bits", FIXED, ids=lambda bits: "-".join(map(str, bits)))
def test_every_frame_of_a_fixed_design_decides_what_the_naive_frame_decides(
        bits, schemes, size, reference_gains):
    cset = design_constellation(SpectralEfficiencies(*bits), reference_gains, 1.0)
    assert_frames_match(cset, reference_gains, schemes, sigma_from_snr(136.0, 1.0),
                        sigma_from_snr(112.0, 1.0), 5, sizes=(size,))
