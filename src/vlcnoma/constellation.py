"""Superposed power-level design for two cells sharing one edge user.

Every user's data is carried directly by a set of strictly positive power
levels (intensity modulation, no complex domain and no DC bias).  Cell
centers get the integers 1..M with unit spacing.  The shared edge user gets
per-cell levels built so that, in the absence of channel noise, its
combined received signal always lands nearer to the transmitted level pair
than to any other, no matter which center symbols ride along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .errors import ConstellationError, ParameterError

# Strictness tolerance for the zero-error gap check: an inequality counts as
# satisfied only with margin above this fraction of its right-hand side.
GAP_RTOL = 1e-12
# Largest noiseless received amplitude a design may produce.  Far beyond any
# physical link, it keeps every sum, difference and noise ratio that the
# decoders and closed forms compute finite.
MAX_AMPLITUDE = 1e100
# (name, cell, user) of every level set: cell 1 carries users 1 and 2, cell 2
# carries users 2 and 3.
LEVEL_SETS = (("cell1_center", 1, "u1"), ("cell1_edge", 1, "u2"),
              ("cell2_edge", 2, "u2"), ("cell2_center", 2, "u3"))


@dataclass(frozen=True)
class SpectralEfficiencies:
    """Per-user spectral efficiencies in bits per channel use."""

    u1: int
    u2: int
    u3: int

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ParameterError(f"bpcu_{name} must be an integer >= 1, got {value!r}")

    @property
    def sizes(self) -> tuple[int, int, int]:
        """Constellation sizes (2**bpcu per user)."""
        return (2**self.u1, 2**self.u2, 2**self.u3)


@dataclass(frozen=True)
class ConstellationSet:
    """Raw and normalized power levels for both cells.

    ``cell1_center``/``cell2_center`` carry user 1 / user 3; ``cell1_edge``
    and ``cell2_edge`` carry the two halves of the edge user's signal.  The
    ``raw_*`` arrays are the dimensionless design-domain levels, the plain
    arrays are in watts after scaling each cell so its average superposed
    transmit power per channel use equals ``avg_power_w``.
    """

    bpcu: SpectralEfficiencies
    raw_cell1_center: np.ndarray
    raw_cell1_edge: np.ndarray
    raw_cell2_edge: np.ndarray
    raw_cell2_center: np.ndarray
    scale_cell1: float
    scale_cell2: float
    avg_power_w: float

    @property
    def cell1_center(self) -> np.ndarray:
        return self.raw_cell1_center * self.scale_cell1

    @property
    def cell1_edge(self) -> np.ndarray:
        return self.raw_cell1_edge * self.scale_cell1

    @property
    def cell2_edge(self) -> np.ndarray:
        return self.raw_cell2_edge * self.scale_cell2

    @property
    def cell2_center(self) -> np.ndarray:
        return self.raw_cell2_center * self.scale_cell2

    def spacings(self) -> dict[str, float]:
        """Constant consecutive gap of each level set, raw domain."""
        return {name: uniform_spacing(getattr(self, f"raw_{name}"), name)
                for name, _, _ in LEVEL_SETS}


def _frozen(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float).copy()
    arr.setflags(write=False)
    return arr


def uniform_spacing(levels: np.ndarray, name: str, rtol: float = 1e-9) -> float:
    """The constant consecutive gap; raises if the gaps are not uniform."""
    if levels.size < 2:
        raise ConstellationError(f"{name} needs at least two levels to have a spacing")
    gaps = np.diff(levels)
    spacing = float(gaps[0])
    if spacing <= 0 or not np.allclose(gaps, spacing, rtol=rtol, atol=0.0):
        raise ConstellationError(f"{name} levels are not uniformly increasing: {levels}")
    return spacing


def center_points(bpcu: int) -> np.ndarray:
    """Integer levels 1..2**bpcu for a cell-center user (unit spacing)."""
    if not isinstance(bpcu, int) or bpcu < 1:
        raise ParameterError(f"bpcu must be an integer >= 1, got {bpcu!r}")
    return _frozen(np.arange(1, 2**bpcu + 1))


def edge_points(
    bpcu: SpectralEfficiencies, gains: ChannelGains
) -> tuple[np.ndarray, np.ndarray]:
    """Raw edge-user levels for cell 1 and cell 2.

    The first level sits one unit above the cell's center range.  Each
    following level must clear the worst-case center interference seen at
    the edge user, which adds ``2*M1*h21 + 2*M3*h22`` to the combined
    received gap; splitting that requirement term by term gives each cell
    an increment of twice its own center peak, plus a one-unit margin that
    makes the zero-error inequality strict.  The increments are constant,
    so each iteration of the level loop is closed form.
    """
    diagnostic = gains.ordering_diagnostic()
    if diagnostic is not None:
        raise ParameterError(f"gains cannot support the power ordering: {diagnostic}")
    if gains.h21 + gains.h22 <= 0:
        raise ParameterError("edge user needs a positive combined gain h21 + h22")
    m1, m2, m3 = bpcu.sizes
    cell1 = [float(m1 + 1)]
    cell2 = [float(m3 + 1)]
    for _ in range(m2 - 1):
        cell1.append(cell1[-1] + 2 * m1 + 1)
        cell2.append(cell2[-1] + 2 * m3 + 1)
    return _frozen(cell1), _frozen(cell2)


def _scale_factor(center: np.ndarray, edge: np.ndarray, avg_power_w: float) -> float:
    # average of (center + edge) over all index pairs equals the target power
    pair_count = center.size * edge.size
    total = edge.size * center.sum() + center.size * edge.sum()
    return float(avg_power_w * pair_count / total)


def from_raw_levels(
    bpcu: SpectralEfficiencies,
    raw_cell1_center,
    raw_cell1_edge,
    raw_cell2_edge,
    raw_cell2_center,
    avg_power_w: float,
) -> ConstellationSet:
    """Normalize explicit raw levels into a ConstellationSet.

    Exists so deliberately bad level choices can be pushed through the
    decoders and checkers; the gap condition is not enforced here.
    """
    if not 0 < avg_power_w < math.inf:
        raise ParameterError(f"avg_power_w must be finite and > 0, got {avg_power_w}")
    raw = (raw_cell1_center, raw_cell1_edge, raw_cell2_edge, raw_cell2_center)
    arrays = {f"raw_{name}": _frozen(values) for (name, _, _), values in zip(LEVEL_SETS, raw)}
    for (name, arr), (_, _, user) in zip(arrays.items(), LEVEL_SETS):
        expected = bpcu.sizes[int(user[1]) - 1]
        if arr.size == 0:
            raise ConstellationError(f"{name} is empty")
        if arr.size != expected:
            raise ConstellationError(
                f"{name} must have {expected} levels for bpcu {bpcu}, got {arr.size}"
            )
        if not np.all(arr > 0):
            raise ConstellationError(f"{name} levels must be strictly positive: {arr}")
        if not np.all(np.diff(arr) > 0):
            raise ConstellationError(f"{name} levels must be strictly increasing: {arr}")
    s1 = _scale_factor(arrays["raw_cell1_center"], arrays["raw_cell1_edge"], avg_power_w)
    s2 = _scale_factor(arrays["raw_cell2_center"], arrays["raw_cell2_edge"], avg_power_w)
    return ConstellationSet(
        bpcu=bpcu,
        scale_cell1=s1,
        scale_cell2=s2,
        avg_power_w=avg_power_w,
        **arrays,
    )


def design_constellation(
    bpcu: SpectralEfficiencies, gains: ChannelGains, avg_power_w: float
) -> ConstellationSet:
    """Full design: center integers, edge levels, per-cell normalization.

    Rejects a power and gains whose levels or received amplitudes leave the
    float range: every level must be a normal float and no amplitude may
    exceed MAX_AMPLITUDE.
    """
    edge1, edge2 = edge_points(bpcu, gains)
    cset = from_raw_levels(
        bpcu,
        center_points(bpcu.u1),
        edge1,
        edge2,
        center_points(bpcu.u3),
        avg_power_w,
    )
    p1, p2 = peak_powers(cset)
    peak = max(gains.h11 * p1, gains.h21 * p1 + gains.h22 * p2, gains.h32 * p2)
    lowest = min(cset.cell1_center[0], cset.cell2_center[0])
    if not (peak <= MAX_AMPLITUDE and lowest >= np.finfo(float).tiny):
        raise ParameterError(f"avg_power_w {avg_power_w} and these gains put the levels out of"
                             f" float range (peak received amplitude {peak!r})")
    return cset


def peak_powers(cset: ConstellationSet) -> tuple[float, float]:
    """Peak transmit power each cell needs: top center plus top edge level."""
    p1 = float(cset.cell1_center[-1] + cset.cell1_edge[-1])
    p2 = float(cset.cell2_center[-1] + cset.cell2_edge[-1])
    return p1, p2


def verify_gap_condition(
    cset: ConstellationSet, gains: ChannelGains
) -> tuple[bool, np.ndarray]:
    """Check the strict zero-error condition; returns (ok, per-pair margins).

    Margin ``k`` is (combined midpoint of edge-level pair k) minus (combined
    level k plus the worst-case center interference), on the transmitted
    (normalized) levels.  All margins positive means the edge user decodes
    its own symbol exactly in a noiseless channel regardless of the center
    symbols.  Strictness is float-safe: each margin must exceed GAP_RTOL
    times its right-hand side.
    """
    combined = gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge
    worst_interference = (
        gains.h21 * cset.cell1_center[-1] + gains.h22 * cset.cell2_center[-1]
    )
    rhs = combined[1:] / 2.0
    margins = rhs - (combined[:-1] / 2.0 + worst_interference)
    return bool(np.all(margins > GAP_RTOL * np.abs(rhs))), margins
