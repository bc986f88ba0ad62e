"""Transmit superposition, AWGN, and all symbol decoders.

All functions are vectorized: symbol indices and received amplitudes may be
scalars or numpy arrays, each amplitude shaped by the indices it depends on.
Symbol indices and decided labels are 0-based positions in the level arrays;
only ``vlcnoma simulate --trace`` prints them 1-based, like the paper's levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelGains
from .constellation import ConstellationSet
from .errors import ParameterError


class Workspace:
    """Reusable arrays for the hot path, so that a warmed Monte Carlo batch
    allocates no temporaries.  A request for a key overwrites what an earlier
    one handed out.  Decisions are keyed by their ``DecisionTable``, scratch
    by role: "y" the one received amplitude being decoded, then its SIC
    residual; "t", "z" and "index" short-lived floats and an intp; "below"
    one compare at a time.  No stage writes an array that a caller passed in.
    """

    def __init__(self):
        self._arrays: dict = {}

    def take(self, key, shape: tuple, dtype=float) -> np.ndarray:
        size, dtype = math.prod(shape), np.dtype(dtype)  # float and float64: one array
        array = self._arrays.get((key, dtype))
        if array is None or array.size < size:
            array = self._arrays[key, dtype] = np.empty(size, dtype)
        return array[:size].reshape(shape)


def _out(ws: Workspace | None, key, shape: tuple, dtype=float) -> np.ndarray:
    """The destination of a stage: the workspace's array ``key``, or a fresh one."""
    return np.empty(shape, dtype) if ws is None else ws.take(key, shape, dtype)


def oma_sizes(bpcu) -> tuple[int, int, int]:
    """PAM sizes of the orthogonal baseline: each superposed size squared.

    The baseline's two-slot frame (``oma_levels``) doubles every efficiency,
    so each user moves the same bits per channel use as when superposed.
    """
    return tuple(m * m for m in bpcu.sizes)


def _indices(symbols, sizes) -> tuple[np.ndarray, ...]:
    """The (u1, u2, u3) symbol indices as arrays of their own shapes, each
    checked to lie in 0..size-1: ``_take`` clips and fancy indexing wraps
    negative indices, so this check is the only guard of both."""
    arrays = tuple(np.asarray(values) for values in symbols)
    for name, arr, size in zip(("u1", "u2", "u3"), arrays, sizes):
        if arr.size and (arr.min() < 0 or arr.max() >= size):
            raise ParameterError(f"{name} indices must be >= 0 and < {size}")
    return arrays


def _take(values: np.ndarray, index: np.ndarray, ws: Workspace | None, key) -> np.ndarray:
    """``values[index]`` for in-range indices of any integer type, into the
    workspace array ``key``.  An index that is not intp is widened first into
    the short-lived intp array "index": np.take would allocate to cast it."""
    if index.dtype != np.intp:
        wide = _out(ws, "index", index.shape, np.intp)
        np.copyto(wide, index)
        index = wide
    return np.take(values, index, out=_out(ws, key, index.shape, values.dtype), mode="clip")


def received_terms(cset: ConstellationSet, gains: ChannelGains) -> tuple:
    """The four ``(levels, levels, gain)`` products of the received amplitudes,
    each ``(first[i] + second[j]) * gain``: cell 1's sum over (u1, u2) through
    h11 and h21, then cell 2's over (u2, u3) through h22 and h32.  User 1
    hears the first, the edge user the middle two summed, user 3 the last.
    """
    cell1, cell2 = (cset.cell1_center, cset.cell1_edge), (cset.cell2_edge, cset.cell2_center)
    return (*cell1, gains.h11), (*cell1, gains.h21), (*cell2, gains.h22), (*cell2, gains.h32)


def superpose_transmit(symbols, cset: ConstellationSet, gains: ChannelGains):
    """Noiseless ``(y1, y2, y3)``, the sums of ``received_terms``, each broadcast
    over only its indices: y1 over (u1, u2), y3 over (u2, u3), y2 over all three."""
    i1, i2, i3 = _indices(symbols, cset.bpcu.sizes)
    y1, y21, y22, y3 = ((first[a] + second[b]) * h for (first, second, h), a, b in
                        zip(received_terms(cset, gains), (i1, i1, i2, i2), (i2, i2, i3, i3)))
    return y1, y21 + y22, y3


def awgn_sample(noiseless, sigma: float, rng: np.random.Generator, ws: Workspace | None = None):
    """Add independent zero-mean Gaussian noise of std sigma to ``noiseless``:
    one amplitude array, or a stacked ``(y1, y2, y3)``.

    Draw order is the flat order of ``noiseless``: y1, y2, then y3.  With a
    workspace the noise is drawn into its array "t", and the sum is its
    array "y", which ``noiseless`` may be.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    shape = np.shape(noiseless)
    noise = rng.standard_normal(shape, out=_out(ws, "t", shape))
    noise *= sigma
    return np.add(noise, noiseless, out=_out(ws, "y", shape))


_SIGN_FREE = np.int64(0x7FFFFFFFFFFFFFFF)
_LARGEST = float(np.finfo(float).max)


def _flip(bits: np.ndarray) -> np.ndarray:
    """Maps float64 bit patterns to int64 keys that sort like the floats, and back."""
    return bits ^ ((bits >> 63) & _SIGN_FREE)


def _first_true(rule, low, high, guess) -> np.ndarray:
    """Elementwise smallest float y in (low, high] at which ``rule(y)`` holds.
    ``rule`` must be False at low, True at high and switch once in between;
    ``guess`` only shortens the bisection over the int64 keys that order the
    floats.  Their midpoint is taken without forming their sum or difference,
    which overflow for brackets that straddle zero from magnitude 2 up (a
    codebook from -4096 to 1000, say)."""
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


def _bucket(y, low, high, scale, shift, top, ws: Workspace | None = None) -> np.ndarray:
    """Bucket index of each sample, ``top`` for NaN: monotone in y, as each
    IEEE step below is, and it never overflows."""
    shape = np.shape(y)
    x = np.clip(y, low, high, out=_out(ws, "t", shape))
    x *= scale
    x -= shift
    x = np.fmin(x, top, out=_out(ws, "t", shape))
    # copyto truncates toward zero, as astype does, and needs no cast buffer
    bucket = _out(ws, "index", shape, np.intp)
    np.copyto(bucket, x, casting="unsafe")
    return bucket


class DecisionTable:
    """A decision on one real sample: ``labels[slot]``, where the slot of y
    counts the ``thresholds`` at or below it, all of them for NaN, as
    ``np.searchsorted(thresholds, y, 'right')`` does.

    ``thresholds`` are sorted and finite.  ``labels`` holds one label per
    interval, K + 1 for K thresholds, and adjacent labels differ.  Up to 32
    thresholds are counted; more go through four uniform buckets per
    threshold, whose index is monotone in y, so only the thresholds in y's
    own bucket need a compare.  Only compares with the exact thresholds
    decide, so both lookups are exact with no rounding analysis.  A slot
    takes the smallest unsigned type that holds K, and where the labels are
    0..K, as in every table of the reference design, it is the label, with
    no gather.  Tables hash by identity, which the workspace keys rely on.
    """

    def __init__(self, thresholds: np.ndarray, labels: np.ndarray):
        self.thresholds, self.labels = thresholds, labels
        if not np.isfinite(thresholds).all():
            raise ParameterError("decision thresholds must be finite")
        if thresholds.ndim != 1:
            raise ParameterError(f"decision thresholds need one row, got shape {thresholds.shape}")
        if np.any(thresholds[1:] < thresholds[:-1]):
            raise ParameterError("decision thresholds must be in ascending order")
        if labels.shape != (thresholds.size + 1,):
            raise ParameterError(f"{thresholds.size} decision thresholds need {thresholds.size + 1}"
                                 f" labels in one row, got shape {labels.shape}")
        # the most thresholds a table counts; larger tables use buckets
        self._counted = thresholds.size <= 32
        self._direct = np.array_equal(labels, np.arange(thresholds.size + 1))
        if self._counted:
            return  # the bucket fields below serve the other lookup only
        # a zero width gets scale 0, and so does one that overflows (ends of
        # opposite sign beyond 2^1023): one bucket for all
        low, high = float(thresholds[0]), float(thresholds[-1])
        scale = min(4 * thresholds.size / (high - low), _LARGEST) if high > low else 0.0
        shift = low * scale
        top = math.floor(high * scale - shift) + 1
        self._geometry = (low, high, scale, shift, top)
        counts = np.bincount(_bucket(thresholds, *self._geometry), minlength=top + 1)
        self._start = (counts.cumsum() - counts).astype(np.min_scalar_type(thresholds.size))
        self._span = int(counts.max())
        self._padded = np.concatenate([thresholds, [np.nan]])

    def decide(self, y, ws: Workspace | None = None) -> np.ndarray:
        """The labels, shaped like y; with a workspace, its array keyed by this
        table (by identity), so a frame decides at most once with each table."""
        y = np.asarray(y)
        shape = y.shape
        key = self if self._direct else "slot"
        if self._counted:
            # K less the byte of each compare y < t, all 0 for NaN: K <= 32 fits a uint8
            slot = _out(ws, key, shape, np.uint8)
            slot.fill(self.thresholds.size)
            below = _out(ws, "below", shape, bool)
            for t in self.thresholds:
                slot -= np.less(y, t, out=below).view(np.uint8)
        else:
            # every index below is in range by construction
            slot = _take(self._start, _bucket(y, *self._geometry, ws), ws, key)
            for _ in range(self._span):  # a NaN after the last threshold ends the steps
                slot += np.greater_equal(y, _take(self._padded, slot, ws, "t"),
                                         out=_out(ws, "below", shape, bool))
        if self._direct:
            return slot
        return _take(self.labels, slot, ws, self)


@dataclass(frozen=True, eq=False)
class SicReceiver:
    """Successive interference cancellation at a center user, as its two
    stages: ``stage1`` decides the edge label e of the sample y, then
    ``stage2`` decides the user's own label of the residual
    fl(y - levels[e]).  That is the two-stage receiver itself, so it is
    exact by construction, and stage-1 mistakes propagate as they do in it.
    ``levels`` are the edge levels.  It compares and hashes by identity.
    """

    stage1: DecisionTable
    levels: np.ndarray
    stage2: DecisionTable

    def decide(self, y, ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(own, edge)`` labels shaped like y, decided by ``stage2`` and
        ``stage1``: bytes where that table is direct with at most 255 thresholds.
        With a workspace the residual is its array "y", which y may be."""
        edge = self.stage1.decide(y, ws)
        shift = _take(self.levels, edge, ws, "t")
        residual = np.subtract(y, shift, out=_out(ws, "y", edge.shape))
        return self.stage2.decide(residual, ws), edge


def nearest_table(candidates, outputs=None) -> DecisionTable:
    """Exact table of the nearest-candidate rule over ``candidates``, adjacent
    equal labels merged.  Labels are flat candidate indices, or the entries
    of ``outputs``, broadcast to the candidates' shape, at those indices.

    The rule picks the smallest computed ``|y - c|`` of the two candidates
    adjacent to y, a tie going to the lowest index.  Between adjacent
    distinct candidates a < b, fl(y - a) never decreases and fl(b - y)
    never increases as y grows through (a, b], so the choice flips once,
    at the float ``_first_true`` finds.
    """
    candidates = np.asarray(candidates, dtype=float)
    values, lowest = np.unique(candidates.reshape(-1), return_index=True)
    labels = lowest if outputs is None else np.broadcast_to(outputs, candidates.shape).flat[lowest]
    keep = labels[1:] != labels[:-1]  # only these adjacent pairs get a threshold
    a, b = values[:-1][keep], values[1:][keep]
    b_first = (lowest[1:] < lowest[:-1])[keep]

    def picks_b(y):
        d_a, d_b = np.abs(y - a), np.abs(y - b)
        return (d_b < d_a) | ((d_b == d_a) & b_first)

    thresholds = _first_true(picks_b, a, b, a / 2 + b / 2)
    return DecisionTable(thresholds, labels[np.concatenate([[True], keep])])


def center_user(cset: ConstellationSet, gains: ChannelGains, user: int):
    """``(edge levels, own levels, gain)`` of center user 1 or 3: the first
    or the last of ``received_terms``."""
    if user not in (1, 3):
        raise ParameterError(f"center users are 1 and 3, got {user}")
    (own1, edge1, h1), *_, (edge3, own3, h3) = received_terms(cset, gains)
    return (edge1, own1, h1) if user == 1 else (edge3, own3, h3)


def decode_center_sic(y, table: SicReceiver, ws: Workspace | None = None):
    """``(own_index, edge_index)`` at a center user, from its ``SicReceiver``."""
    return table.decide(y, ws)


def decode_u2_sic(y2, table: DecisionTable, ws: Workspace | None = None):
    """Edge-user decode by the interference-as-noise rule: nearest combined edge level."""
    return table.decide(y2, ws)


def decode_u2_jml(y2, table: DecisionTable, ws: Workspace | None = None):
    """Edge-user decode by joint maximum likelihood: nearest of every tuple's y2."""
    return table.decide(y2, ws)


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


def oma_levels(bpcu, gains: ChannelGains, avg_intensity_w: float) -> tuple[np.ndarray, ...]:
    """Received levels of users 1, 2, 3: PAM of sizes ``oma_sizes(bpcu)``
    with mean ``avg_intensity_w``, times the gain of each user's link.

    Slot A: Tx1 sends user 1's level, Tx2 sends user 3's.  Slot B: both
    transmitters send the edge user's level, so it rides the combined gain
    h21 + h22.  The mean PAM level of every transmitter in every slot is
    ``avg_intensity_w``, which keeps the average transmit power per channel
    use equal to the superposed scheme's target.
    """
    link_gains = (gains.h11, gains.h21 + gains.h22, gains.h32)
    return tuple(oma_pam_points(size, avg_intensity_w) * g
                 for size, g in zip(oma_sizes(bpcu), link_gains))


def oma_round(symbols, links, sigma: float, rng: np.random.Generator,
              ws: Workspace | None = None):
    """One two-slot orthogonal frame: transmit, add noise, decode all users.

    ``links`` holds one ``(levels, table)`` pair per user, in user order 1,
    2, 3: the levels it receives (``oma_levels``) and its detector's table.
    Noise draw order is fixed: user 1, user 3, then the edge user.  Each
    user is decoded as soon as its noise is drawn; decoding draws nothing.
    Returns the three decoded indices.
    """
    indices = _indices(symbols, tuple(levels.size for levels, _ in links))
    decided = [None, None, None]
    for k in (0, 2, 1):
        levels, table = links[k]
        y = awgn_sample(_take(levels, indices[k], ws, "y"), sigma, rng, ws)
        decided[k] = table.decide(y, ws)
    return tuple(decided)
