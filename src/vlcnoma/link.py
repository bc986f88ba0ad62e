"""Transmit superposition, AWGN, and all symbol decoders.

All functions are vectorized: symbol indices and received amplitudes may be
scalars or equally shaped numpy arrays.  Indices are 1-based like the level
numbering.  Every decoder is a plain nearest-candidate argmin on absolute
amplitude difference; ties break toward the lowest index, which numpy's
argmin does for free.  Passing a MetricCounter tallies exactly one
evaluation per candidate distance computed, so complexity accounting can be
measured rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .constellation import ConstellationSet
from .errors import ParameterError


@dataclass
class MetricCounter:
    """Counts candidate-distance evaluations performed by the decoders."""

    evaluations: int = 0

    def add(self, n: int) -> None:
        self.evaluations += n


@dataclass(frozen=True)
class OmaConfig:
    """Orthogonal baseline: per-user PAM over a two-slot frame.

    Slot A carries both center users at once (disjoint cells); slot B
    carries the edge user from both transmitters jointly.  Efficiencies are
    doubled relative to the superposed scheme so each user moves the same
    bits per channel use.  ``avg_intensity_w`` is the mean PAM level of
    every transmitter in every slot, which keeps the average transmit power
    per channel use equal to the superposed scheme's target.
    """

    bpcu: tuple[int, int, int]
    avg_intensity_w: float

    def __post_init__(self):
        for b in self.bpcu:
            if not isinstance(b, int) or b < 1:
                raise ParameterError(f"OMA bpcu entries must be integers >= 1, got {self.bpcu}")
        if self.avg_intensity_w <= 0:
            raise ParameterError(f"avg_intensity_w must be > 0, got {self.avg_intensity_w}")

    @property
    def sizes(self) -> tuple[int, int, int]:
        return tuple(2**b for b in self.bpcu)

    @classmethod
    def from_noma(cls, bpcu, target_power_w: float) -> "OmaConfig":
        return cls((2 * bpcu.u1, 2 * bpcu.u2, 2 * bpcu.u3), target_power_w)


def _indices(values, size: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.size and (arr.min() < 1 or arr.max() > size):
        raise ParameterError(f"{name} indices must be in 1..{size}")
    return arr


def superpose_transmit(symbols, cset: ConstellationSet, gains: ChannelGains):
    """Noiseless received amplitudes ``(y1, y2, y3)`` for the symbol indices.

    User 1 sees cell 1's superposition through h11, user 3 sees cell 2's
    through h32, and the edge user sees both superpositions through its two
    weak links.
    """
    u1, u2, u3 = symbols
    m1, m2, m3 = cset.bpcu.sizes
    i1 = _indices(u1, m1, "u1") - 1
    i2 = _indices(u2, m2, "u2") - 1
    i3 = _indices(u3, m3, "u3") - 1
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
    """1-based index of the candidate nearest to each y; first wins ties."""
    y = np.asarray(y, dtype=float)
    if counter is not None:
        counter.add(y.size * candidates.size)
    return np.argmin(np.abs(y[..., np.newaxis] - candidates), axis=-1) + 1


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
    tx1 = cset.cell1_center[:, np.newaxis] + cset.cell1_edge[np.newaxis, :]
    tx2 = cset.cell2_edge[:, np.newaxis] + cset.cell2_center[np.newaxis, :]
    joint = (
        gains.h21 * tx1[:, :, np.newaxis] + gains.h22 * tx2[np.newaxis, :, :]
    ).reshape(-1)
    m2 = cset.bpcu.sizes[1]
    u2_of = (np.arange(joint.size) // cset.bpcu.sizes[2]) % m2 + 1
    flat = _nearest(y2, joint, counter) - 1
    return u2_of[flat]


def oma_pam_points(size: int, avg_intensity_w: float) -> np.ndarray:
    """Unipolar PAM levels 2*I*m/(M+1) for m = 1..M; their mean is I."""
    if not isinstance(size, int) or size < 2:
        raise ParameterError(f"PAM size must be an integer >= 2, got {size!r}")
    if avg_intensity_w <= 0:
        raise ParameterError(f"avg_intensity_w must be > 0, got {avg_intensity_w}")
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
    config: OmaConfig,
    rng: np.random.Generator,
    counter: MetricCounter | None = None,
):
    """One two-slot orthogonal frame: transmit, add noise, decode all users.

    Slot A: Tx1 sends user 1's PAM level, Tx2 sends user 3's.  Slot B: both
    transmitters send the edge user's level, so its candidate set rides the
    combined gain h21 + h22.  Noise draw order is fixed: user 1, user 3,
    then the edge user.  Returns the three decoded indices.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    m1, m2, m3 = symbols
    s1, s2, s3 = config.sizes
    i1 = _indices(m1, s1, "u1") - 1
    i2 = _indices(m2, s2, "u2") - 1
    i3 = _indices(m3, s3, "u3") - 1
    pam1 = oma_pam_points(s1, config.avg_intensity_w)
    pam2 = oma_pam_points(s2, config.avg_intensity_w)
    pam3 = oma_pam_points(s3, config.avg_intensity_w)
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
