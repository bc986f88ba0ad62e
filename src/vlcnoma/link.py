"""Transmit superposition, AWGN, and all symbol decoders.

All functions are vectorized: symbol indices and received amplitudes may be
scalars or equally shaped numpy arrays.  Indices are 1-based like the level
numbering.

Every receiver is a nearest-candidate decision on one real sample: it picks
the candidate whose computed distance ``|y - c|`` is smallest, a tie going
to the lowest index, and equal candidates resolve to their lowest index.
Such a decision is piecewise constant in y, so each receiver is tabulated
once per design as a ``DecisionTable`` (sorted thresholds and the label of
every interval between them).  Decoding finds y's interval from a
monotone bucket index and a few compares with the exact thresholds, so it
agrees with a binary search exactly (see DecisionTable).

The thresholds are exact, not midpoints.  Between adjacent distinct
candidates a < b the rule picks b where the computed ``|y - b| < |y - a|``,
or where the two are equal and b has the lower index.  For y in (a, b],
fl(y - a) never decreases and fl(b - y) never increases as y grows, so the
choice flips exactly once; bisection over the ordered bit patterns of the
floats finds the smallest float at which it picks b, starting one ulp
either side of fl(a/2 + b/2) where the rule switches in between.  Only
the two candidates adjacent to y compete, so a rounding tie with a
farther one (possible only far outside the codebook) is not a tie.  A
sample at or below the lowest candidate takes it, one above the highest
takes that.  The SIC receiver's second stage is the same decision on
fl(y - c), which is also monotone in y, so both stages fold into one
table over the raw sample.  Adjacent intervals with the same label are
merged: joint ML over the 128 tuples of the reference design returns only
the edge coordinate and keeps 3 of its 127 thresholds.  Candidates must
be finite.

Passing a MetricCounter tallies the paper's brute-force cost model: per
sample, one evaluation per candidate of the original set (n x K per call),
not the table's smaller work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelGains
from .constellation import ConstellationSet
from .errors import ParameterError


@dataclass
class MetricCounter:
    """Counts candidate-distance evaluations in the paper's cost model.

    Each decoded sample adds the size of its candidate set (n x K per call),
    as the brute-force receivers of the complexity table (AC-5) would
    evaluate; a decision-table lookup is one bucket index and at most
    ``span`` compares with its merged thresholds.
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


_SIGN_FREE = np.int64(0x7FFFFFFFFFFFFFFF)
_LARGEST = float(np.finfo(float).max)


def _flip(bits: np.ndarray) -> np.ndarray:
    """Maps float64 bit patterns to int64 keys that sort like the floats, and back."""
    return bits ^ ((bits >> 63) & _SIGN_FREE)


def _first_true(rule, low, high, guess) -> np.ndarray:
    """Elementwise smallest float y in (low, high] at which ``rule(y)`` holds.

    ``rule`` must be False at low, True at high and switch once in between.
    The bisection starts from the floats next to ``guess`` (clipped into
    [low, high]) where the rule is False below and True above, else from
    (low, high], and runs over the int64 keys that order the floats until
    every bracket holds one float, at most 64 steps.  The midpoint of two
    keys is taken without forming their sum or difference, which overflow
    for brackets that straddle zero from magnitude 2 up (the SIC stage-2
    bracket is all floats).
    """
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    guess = np.minimum(np.maximum(guess, low), high)
    below = np.maximum(np.nextafter(guess, -np.inf), low)
    above = np.minimum(np.nextafter(guess, np.inf), high)
    with np.errstate(over="ignore"):
        seeded = ~rule(below) & rule(above)
        lo = _flip(np.where(seeded, below, low).view(np.int64))
        hi = _flip(np.where(seeded, above, high).view(np.int64))
        while np.any(lo + 1 < hi):
            mid = (lo >> 1) + (hi >> 1) + (lo & hi & 1)
            take = rule(_flip(mid).view(float))
            lo, hi = np.where(take, lo, mid), np.where(take, mid, hi)
    return _flip(hi).view(float)


def _bucket(y, low, high, scale, shift, top) -> np.ndarray:
    """Bucket index of each sample: y clipped into [low, high], times scale,
    less shift (the scaled low), truncated; NaN goes to ``top``.  Monotone
    in y, as each step is in IEEE arithmetic, and it never overflows."""
    return np.fmin(np.clip(y, low, high) * scale - shift, top).astype(np.intp)


@dataclass(frozen=True)
class DecisionTable:
    """A decision on one real sample: ``labels[:, slot]``, where the slot of y
    counts the ``thresholds`` at or below it, all of them for NaN, as
    ``np.searchsorted(thresholds, y, 'right')`` does.

    ``labels`` has one row per decided quantity and one column per interval;
    adjacent columns differ.  ``thresholds`` are sorted and finite.
    ``candidates`` is the per-sample cost of the brute-force receiver the
    table replaces (see MetricCounter).

    The slot comes from four uniform buckets per threshold over [t_0, t_last]
    (``_bucket``), not a binary search.  The bucket is monotone in y and
    thresholds go through it too, so those in lower buckets than y's are
    below y and those in higher ones above it.  The slot starts at the count
    in lower buckets and takes ``_span`` steps (the most thresholds in one
    bucket), each adding whether y is at or above the next exact threshold,
    so it is exact with no rounding analysis.  A NaN after the last
    threshold ends the steps; NaN samples go to a top bucket above t_last's
    and so count every threshold.
    """

    thresholds: np.ndarray
    labels: np.ndarray
    candidates: int
    _geometry: tuple = field(init=False, repr=False, compare=False)
    _start: np.ndarray = field(init=False, repr=False, compare=False)
    _span: int = field(init=False, repr=False, compare=False)
    _padded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = self.thresholds
        low, high = (float(t[0]), float(t[-1])) if t.size else (0.0, 0.0)
        if not (math.isfinite(low) and math.isfinite(high)):  # sorted: any NaN or inf is at an end
            raise ParameterError("decision thresholds must be finite")
        # a zero width (one threshold) or one that overflows (ends of
        # opposite sign beyond 2^1023) gets scale 0: one bucket for all
        width = high - low
        scale = min(4 * t.size / width, _LARGEST) if 0 < width < math.inf else 0.0
        shift = low * scale
        top = math.floor(high * scale - shift) + 1
        counts = np.bincount(_bucket(t, low, high, scale, shift, top), minlength=top + 1)
        for name, value in (("_geometry", (low, high, scale, shift, top)),
                            ("_start", counts.cumsum() - counts), ("_span", int(counts.max())),
                            ("_padded", np.concatenate([t, [np.nan]]))):
            object.__setattr__(self, name, value)

    def decide(self, y, counter: MetricCounter | None = None) -> tuple[np.ndarray, ...]:
        """One array (or scalar) per label row, shaped like y."""
        if counter is not None:
            counter.evaluations += np.size(y) * self.candidates
        y = np.asarray(y)
        slot = self._start[_bucket(y, *self._geometry)]
        for _ in range(self._span):
            slot += y >= self._padded[slot]
        return tuple(row[slot] for row in self.labels)


def _merged(thresholds: np.ndarray, labels: np.ndarray, candidates: int) -> DecisionTable:
    """The table without the thresholds between equally labelled intervals."""
    keep = np.any(labels[:, 1:] != labels[:, :-1], axis=0)
    return DecisionTable(thresholds[keep], labels[:, np.concatenate([[True], keep])],
                         candidates)


def nearest_tables(sets) -> list[DecisionTable]:
    """Exact tables of the nearest-candidate rule, one per ``(candidates, outputs)``.

    Labels are 1-based candidate indices, or ``outputs[index - 1]`` where
    outputs is not None.  One bisection finds every set's thresholds.
    """
    sets = [(np.asarray(c, dtype=float).reshape(-1), outputs) for c, outputs in sets]
    distinct = [np.unique(c, return_index=True) for c, _ in sets]
    a = np.concatenate([values[:-1] for values, _ in distinct])
    b = np.concatenate([values[1:] for values, _ in distinct])
    b_first = np.concatenate([lowest[1:] < lowest[:-1] for _, lowest in distinct])

    def picks_b(y):
        d_a, d_b = np.abs(y - a), np.abs(y - b)
        return (d_b < d_a) | ((d_b == d_a) & b_first)

    cuts = np.cumsum([values.size - 1 for values, _ in distinct])[:-1]
    tables = []
    for (c, outputs), (_, lowest), thresholds in zip(
            sets, distinct, np.split(_first_true(picks_b, a, b, a / 2 + b / 2), cuts)):
        labels = lowest + 1 if outputs is None else np.asarray(outputs).reshape(-1)[lowest]
        tables.append(_merged(thresholds, labels[np.newaxis], c.size))
    return tables


def sic_tables(pairs) -> list[DecisionTable]:
    """Both SIC stages as one table over the raw sample, one per ``(edge, own)``.

    Stage 1 picks the nearest ``edge`` candidate c; stage 2 picks the
    nearest ``own`` candidate to the residual fl(y - c).  Labels are
    ``(own, edge)``.  Within each stage-1 interval a stage-2 threshold t
    moves to the smallest y with fl(y - c) >= t; the decision is constant
    between consecutive breakpoints of both kinds, so each interval is
    labelled by decoding its left end.
    """
    pairs = [(np.asarray(edge, dtype=float), np.asarray(own, dtype=float))
             for edge, own in pairs]
    stages = nearest_tables([(x, None) for pair in pairs for x in pair])
    firsts, seconds = stages[0::2], stages[1::2]
    # every stage-1 decision c (its distinct edge value) against every stage-2 threshold
    shift = np.concatenate([np.repeat(edge[first.labels[0] - 1], second.thresholds.size)
                            for (edge, _), first, second in zip(pairs, firsts, seconds)])
    target = np.concatenate([np.tile(second.thresholds, first.labels.shape[1])
                             for first, second in zip(firsts, seconds)])
    below = np.full(shift.size, -np.inf)
    with np.errstate(over="ignore"):
        guess = target + shift
    moved = _first_true(lambda y: y - shift >= target, below, -below, guess)
    cuts = np.cumsum([first.labels.shape[1] * second.thresholds.size
                      for first, second in zip(firsts, seconds)])[:-1]
    tables = []
    for (edge, own), first, second, shifted in zip(pairs, firsts, seconds, np.split(moved, cuts)):
        breaks = np.unique(np.concatenate([first.thresholds, shifted]))
        left = np.concatenate([[-np.inf], breaks])
        (edge_hat,) = first.decide(left)
        (own_hat,) = second.decide(left - edge[edge_hat - 1])
        tables.append(_merged(breaks, np.stack([own_hat, edge_hat]), edge.size + own.size))
    return tables


def center_user(cset: ConstellationSet, gains: ChannelGains, user: int):
    """``(edge levels, own levels, gain)`` of center user 1 or 3.

    User 1 shares cell 1 with the edge user and hears it through h11; user 3
    shares cell 2 and hears it through h32.
    """
    if user == 1:
        return cset.cell1_edge, cset.cell1_center, gains.h11
    if user == 3:
        return cset.cell2_edge, cset.cell2_center, gains.h32
    raise ParameterError(f"center users are 1 and 3, got {user}")


def center_tables(cset: ConstellationSet, gains: ChannelGains) -> list[DecisionTable]:
    """SIC tables of center users 1 and 3.

    Stage 1 estimates the (stronger) edge-user level from the raw signal,
    stage 2 subtracts it and finds the nearest own level; stage-1 mistakes
    propagate, as in the receiver.
    """
    return sic_tables([(h * edge, h * own)
                       for edge, own, h in (center_user(cset, gains, u) for u in (1, 3))])


def edge_sic_candidates(cset: ConstellationSet, gains: ChannelGains):
    """Nearest-table set of the edge user's interference-as-noise rule: the
    combined edge levels."""
    return gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge, None


def edge_jml_candidates(cset: ConstellationSet, gains: ChannelGains):
    """Nearest-table set of the edge user's joint maximum likelihood: every
    (u1, u2, u3) tuple, labelled by its edge coordinate.  Ties break toward
    the lexicographically lowest tuple."""
    tuples = np.indices(cset.bpcu.sizes).reshape(3, -1) + 1
    return superpose_transmit(tuples, cset, gains)[1], tuples[1]


def decode_center_sic(y, table: DecisionTable, counter: MetricCounter | None = None):
    """``(own_index, edge_index)`` at a center user, from its ``center_tables`` entry."""
    return table.decide(y, counter)


def decode_u2_sic(y2, table: DecisionTable, counter: MetricCounter | None = None):
    """Edge-user decode by the interference-as-noise rule (``edge_sic_candidates``)."""
    return table.decide(y2, counter)[0]


def decode_u2_jml(y2, table: DecisionTable, counter: MetricCounter | None = None):
    """Edge-user decode by joint maximum likelihood (``edge_jml_candidates``)."""
    return table.decide(y2, counter)[0]


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


@dataclass(frozen=True)
class OmaLinks:
    """The orthogonal baseline's three PAM links, in user order 1, 2, 3:
    the transmitted levels, the gain each rides and its detector's table."""

    levels: tuple[np.ndarray, np.ndarray, np.ndarray]
    gains: tuple[float, float, float]
    tables: tuple[DecisionTable, DecisionTable, DecisionTable]


def oma_links(bpcu, gains: ChannelGains, avg_intensity_w: float) -> OmaLinks:
    """PAM levels of sizes ``oma_sizes(bpcu)``, with mean ``avg_intensity_w``.

    Slot A: Tx1 sends user 1's level, Tx2 sends user 3's.  Slot B: both
    transmitters send the edge user's level, so its candidate set rides the
    combined gain h21 + h22.  The mean PAM level of every transmitter in
    every slot is ``avg_intensity_w``, which keeps the average transmit
    power per channel use equal to the superposed scheme's target.
    """
    levels = tuple(oma_pam_points(size, avg_intensity_w) for size in oma_sizes(bpcu))
    link_gains = (gains.h11, gains.h21 + gains.h22, gains.h32)
    return OmaLinks(levels, link_gains,
                    tuple(nearest_tables([(pam * g, None) for pam, g in zip(levels, link_gains)])))


def oma_round(
    symbols,
    links: OmaLinks,
    sigma: float,
    rng: np.random.Generator,
    counter: MetricCounter | None = None,
):
    """One two-slot orthogonal frame: transmit, add noise, decode all users.

    Noise draw order is fixed: user 1, user 3, then the edge user.  Returns
    the three decoded indices.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    i1, i2, i3 = _indices(symbols, tuple(pam.size for pam in links.levels))
    (pam1, pam2, pam3), (g1, g2, g3) = links.levels, links.gains
    shape = np.broadcast_shapes(np.shape(i1), np.shape(i2), np.shape(i3))
    y1 = pam1[i1] * g1 + sigma * rng.standard_normal(shape)
    y3 = pam3[i3] * g3 + sigma * rng.standard_normal(shape)
    y2 = pam2[i2] * g2 + sigma * rng.standard_normal(shape)
    return tuple(table.decide(y, counter)[0] for table, y in zip(links.tables, (y1, y2, y3)))
