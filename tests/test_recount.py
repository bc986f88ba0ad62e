"""Every sweep counts what a naive simulator counts: one slow reference recount
against ``run_sweep``, error for error and trial for trial (differential
testing).  The recount builds no decision table and takes no amplitude table:
it transmits each tuple from the levels, adds the noise drawn from the same
Philox streams in the same order, decodes every user by argmin over its
candidates and applies the stop rule per batch."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma import (ChannelGains, SpectralEfficiencies, SweepConfig, design_constellation,
                     run_sweep)
from vlcnoma.constellation import from_raw_levels
from vlcnoma.link import oma_levels, oma_sizes
from vlcnoma.montecarlo import philox_stream

SCHEMES = ("noma-sic", "noma-jml", "oma")


def nearest(y, candidates):
    """Index of the nearest candidate to each sample, the lowest index on a tie."""
    return np.argmin(np.abs(y[:, np.newaxis] - candidates), axis=1)


def transmit(cset, gains, u1, u2, u3):
    """Noiseless (y1, y2, y3): each cell's superposed levels through its links."""
    tx1 = cset.cell1_center[u1] + cset.cell1_edge[u2]
    tx2 = cset.cell2_edge[u2] + cset.cell2_center[u3]
    return tx1 * gains.h11, tx1 * gains.h21 + tx2 * gains.h22, tx2 * gains.h32


def noisy(rng, noiseless, sigma):
    """The samples: one standard normal per amplitude, drawn next, times sigma, plus it."""
    return sigma * rng.standard_normal(noiseless.size) + noiseless


def center_sic(y, edge, own):
    """Two-stage SIC: the nearest edge level, then the nearest own level of the residual."""
    return nearest(y - edge[nearest(y, edge)], own)


def batch_errors(config, cset, gains, point, batch, n):
    """{scheme: [errors of u1, u2, u3]} of one batch, drawn as a sweep draws it."""
    rng, sigma, errors = philox_stream(config.seed, point, batch), config.sigmas[point], {}
    superposed = [scheme for scheme in config.schemes if scheme != "oma"]
    if superposed:
        sent = [rng.integers(0, m, n, dtype=np.int32) for m in cset.bpcu.sizes]
        y1, y2, y3 = transmit(cset, gains, *sent)
        h11, h32 = gains.h11, gains.h32
        u1 = center_sic(noisy(rng, y1, sigma), h11 * cset.cell1_edge, h11 * cset.cell1_center)
        y2 = noisy(rng, y2, sigma)
        u3 = center_sic(noisy(rng, y3, sigma), h32 * cset.cell2_edge, h32 * cset.cell2_center)
        tuples = np.array(list(itertools.product(*map(range, cset.bpcu.sizes)))).T
        u2 = {"noma-sic": nearest(y2, gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge),
              "noma-jml": tuples[1][nearest(y2, transmit(cset, gains, *tuples)[1])]}
        for scheme in superposed:
            errors[scheme] = [int(np.sum(got != want)) for got, want
                              in zip((u1, u2[scheme], u3), sent)]
    if "oma" in config.schemes:
        sent = [rng.integers(0, m, n, dtype=np.int32) for m in oma_sizes(cset.bpcu)]
        levels = oma_levels(cset.bpcu, gains, config.target_power_w)
        errors["oma"] = [0, 0, 0]
        for k in (0, 2, 1):  # the edge user's slot is drawn last
            got = nearest(noisy(rng, levels[k][sent[k]], sigma), levels[k])
            errors["oma"][k] = int(np.sum(got != sent[k]))
    return errors


def recount(config, cset, gains):
    """Per SNR point, (trials, {scheme: [errors of u1, u2, u3]}) where a sweep of
    ``config.schemes`` stops: after the first batch at which every user of every
    scheme has ``min_errors`` errors (never for 0), else after the last batch."""
    size, total = config.batch_size, config.trials_per_point
    counts = []
    for point in range(len(config.snr_points_db)):
        totals = {scheme: np.zeros(3, dtype=np.int64) for scheme in config.schemes}
        for batch in range(-(-total // size)):
            trials = min((batch + 1) * size, total)
            for scheme, errors in batch_errors(config, cset, gains, point, batch,
                                               trials - batch * size).items():
                totals[scheme] += errors
            if config.min_errors > 0 and all((t >= config.min_errors).all()
                                             for t in totals.values()):
                break
        counts.append((trials, totals))
    return counts


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
    """Every row of the sweep has the recount's errors and trials."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a design failing the gap condition warns
        rows = run_sweep(config, cset, gains, workers)
    expected = {}
    for snr_db, (trials, totals) in zip(config.snr_points_db, recount(config, cset, gains)):
        for scheme, errors in totals.items():
            for user, e, t in zip(("u1", "u2", "u3", "avg"), (*errors, sum(errors)),
                                  (trials,) * 3 + (3 * trials,)):
                expected[snr_db, user, scheme] = (int(e), t)
    assert {(p.snr_db, p.user, p.scheme): (p.estimate.errors, p.estimate.trials)
            for p in rows} == expected


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
