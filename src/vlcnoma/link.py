"""Transmit superposition, AWGN, and all symbol decoders.

All functions are vectorized: symbol indices and received amplitudes may be
scalars or equally shaped numpy arrays.  Indices are 1-based like the level
numbering.  Every decoder picks the candidate nearest in absolute
amplitude difference, with ties broken toward the lowest index, through one
shared sorted-codebook lookup (``_nearest``): O(log K) per sample, yet the
same answer as a brute-force argmin over all K candidates.  Passing a
MetricCounter tallies the paper's brute-force cost model, one evaluation per
candidate per sample, not the lookup's smaller work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .constellation import ConstellationSet
from .errors import ParameterError


@dataclass
class MetricCounter:
    """Counts candidate-distance evaluations in the paper's cost model.

    Each decoded sample adds the size of its candidate set (n x K per call),
    as the brute-force receivers of the complexity table (AC-5) would
    evaluate; the sorted-codebook lookup actually does O(log K) work.
    """

    evaluations: int = 0


def oma_sizes(bpcu) -> tuple[int, int, int]:
    """PAM sizes of the orthogonal baseline: each superposed size squared.

    The baseline runs a two-slot frame.  Slot A carries both center users at
    once (disjoint cells); slot B carries the edge user from both
    transmitters jointly.  Efficiencies are doubled relative to the
    superposed scheme so each user moves the same bits per channel use.
    """
    return tuple(m * m for m in bpcu.sizes)


def _indices(symbols, sizes) -> tuple[np.ndarray, ...]:
    """Zero-based arrays of the (u1, u2, u3) symbol indices, checked against sizes."""
    arrays = tuple(np.asarray(values) for values in symbols)
    for name, arr, size in zip(("u1", "u2", "u3"), arrays, sizes):
        if arr.size and (arr.min() < 1 or arr.max() > size):
            raise ParameterError(f"{name} indices must be in 1..{size}")
    return tuple(arr - 1 for arr in arrays)


def superpose_transmit(symbols, cset: ConstellationSet, gains: ChannelGains):
    """Noiseless received amplitudes ``(y1, y2, y3)`` for the symbol indices.

    User 1 sees cell 1's superposition through h11, user 3 sees cell 2's
    through h32, and the edge user sees both superpositions through its two
    weak links.
    """
    i1, i2, i3 = _indices(symbols, cset.bpcu.sizes)
    tx1 = cset.cell1_center[i1] + cset.cell1_edge[i2]
    tx2 = cset.cell2_edge[i2] + cset.cell2_center[i3]
    return tx1 * gains.h11, tx1 * gains.h21 + tx2 * gains.h22, tx2 * gains.h32


def awgn_sample(noiseless, sigma: float, rng: np.random.Generator):
    """Add independent zero-mean Gaussian noise of std sigma to ``(y1, y2, y3)``.

    The caller owns the stream; hand in a counter-addressed generator (see
    montecarlo.philox_stream) and repeated calls at the same stream position
    reproduce bit-identical output.  Draw order is fixed: y1, y2, y3.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    noiseless = (np.asarray(y, dtype=float) for y in noiseless)
    return tuple(y + sigma * rng.standard_normal(y.shape) for y in noiseless)


def _nearest(y, candidates: np.ndarray, counter: MetricCounter | None) -> np.ndarray:
    """1-based index of the candidate nearest to each y; lowest index wins ties.

    Binary search in the sorted codebook finds the two distinct values that
    bracket y; the computed distance is monotone on each side of y, so one of
    them is nearest.  Their computed distances ``|y - c|`` are compared as a
    brute-force argmin would, a tie going to the lower index, and equal
    values resolve to their lowest index.  Ties decided by float rounding
    between a bracketing value and one farther out (possible only for samples
    extremely far from the codebook) follow the bracketing value.  Samples
    and candidates must be finite.
    """
    y = np.asarray(y, dtype=float)
    if counter is not None:
        counter.evaluations += y.size * candidates.size
    values, lowest = np.unique(candidates, return_index=True)
    flat = y.reshape(-1)
    slot = np.searchsorted(values, flat)
    below = np.maximum(slot - 1, 0)
    above = np.minimum(slot, values.size - 1)
    d_below = np.abs(flat - values[below])
    d_above = np.abs(flat - values[above])
    i_below, i_above = lowest[below], lowest[above]
    take_above = (d_above < d_below) | ((d_above == d_below) & (i_above < i_below))
    return (np.where(take_above, i_above, i_below) + 1).reshape(y.shape)[()]


def decode_center_sic(
    y, h: float, cset: ConstellationSet, user: int, counter: MetricCounter | None = None
):
    """Two-stage decode at a cell-center user.

    Stage 1 estimates the (stronger) edge-user level from the raw signal;
    stage 2 subtracts that estimate and finds the nearest own level.  Stage
    1 mistakes are deliberately allowed to propagate.  Returns
    ``(own_index, edge_index)``.
    """
    if user == 1:
        edge, own = cset.cell1_edge, cset.cell1_center
    elif user == 3:
        edge, own = cset.cell2_edge, cset.cell2_center
    else:
        raise ParameterError(f"SIC decoding applies to users 1 and 3, got {user}")
    y = np.asarray(y, dtype=float)
    edge_hat = _nearest(y, h * edge, counter)
    residual = y - h * edge[edge_hat - 1]
    own_hat = _nearest(residual, h * own, counter)
    return own_hat, edge_hat


def decode_u2_sic(
    y2, gains: ChannelGains, cset: ConstellationSet, counter: MetricCounter | None = None
):
    """Edge-user decode treating center-user power as noise (no SIC stages)."""
    candidates = gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge
    return _nearest(y2, candidates, counter)


def decode_u2_jml(
    y2, gains: ChannelGains, cset: ConstellationSet, counter: MetricCounter | None = None
):
    """Edge-user decode by joint maximum likelihood over every symbol tuple.

    The candidate grid enumerates all (u1, u2, u3) combinations; only the
    edge coordinate of the winner is returned.  Ties break toward the
    lexicographically lowest (u1, u2, u3).
    """
    tuples = np.indices(cset.bpcu.sizes).reshape(3, -1) + 1
    joint = superpose_transmit(tuples, cset, gains)[1]
    return tuples[1][_nearest(y2, joint, counter) - 1]


def oma_pam_points(size: int, avg_intensity_w: float) -> np.ndarray:
    """Unipolar PAM levels 2*I*m/(M+1) for m = 1..M; their mean is I."""
    if not isinstance(size, int) or size < 2:
        raise ParameterError(f"PAM size must be an integer >= 2, got {size!r}")
    if not 0 < avg_intensity_w < math.inf:
        raise ParameterError(f"avg_intensity_w must be finite and > 0, got {avg_intensity_w}")
    m = np.arange(1, size + 1, dtype=float)
    levels = 2.0 * avg_intensity_w * m / (size + 1)
    levels.setflags(write=False)
    return levels


def pam_detect(y, levels, gain: float, counter: MetricCounter | None = None):
    """Nearest-level detection against gain-scaled PAM candidates."""
    return _nearest(y, np.asarray(levels, dtype=float) * gain, counter)


def oma_round(
    symbols,
    gains: ChannelGains,
    sigma: float,
    sizes: tuple[int, int, int],
    avg_intensity_w: float,
    rng: np.random.Generator,
    counter: MetricCounter | None = None,
):
    """One two-slot orthogonal frame: transmit, add noise, decode all users.

    Slot A: Tx1 sends user 1's PAM level, Tx2 sends user 3's.  Slot B: both
    transmitters send the edge user's level, so its candidate set rides the
    combined gain h21 + h22.  ``sizes`` are the three PAM sizes (see
    ``oma_sizes``); ``avg_intensity_w`` is the mean PAM level of every
    transmitter in every slot, which keeps the average transmit power per
    channel use equal to the superposed scheme's target.  Noise draw order
    is fixed: user 1, user 3, then the edge user.  Returns the three decoded
    indices.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    i1, i2, i3 = _indices(symbols, sizes)
    pam1, pam2, pam3 = (oma_pam_points(s, avg_intensity_w) for s in sizes)
    shape = np.broadcast_shapes(np.shape(i1), np.shape(i2), np.shape(i3))
    y1 = pam1[i1] * gains.h11 + sigma * rng.standard_normal(shape)
    y3 = pam3[i3] * gains.h32 + sigma * rng.standard_normal(shape)
    edge_gain = gains.h21 + gains.h22
    y2 = pam2[i2] * edge_gain + sigma * rng.standard_normal(shape)
    return (
        pam_detect(y1, pam1, gains.h11, counter),
        pam_detect(y2, pam2, edge_gain, counter),
        pam_detect(y3, pam3, gains.h32, counter),
    )
