"""Deterministic parallel Monte Carlo sweep of symbol error rates.

Determinism contract: trials are split into fixed-size batches and every
batch draws from its own counter-addressed Philox stream keyed by
(seed, SNR index, batch index).  Batch tallies are plain integer counts,
summed in batch order, so the result is bit-identical no matter how many
workers run or how batches are scheduled.  Optional early stopping consumes
batches strictly in index order: the cut point depends only on cumulative
counts, never on scheduling, so speculative parallel batches past the cut
are simply discarded.

Within a batch the draw order is fixed by ``_frame``: the superposed
symbols u1, u2, u3, the noise on y1, y2, y3, then, if the orthogonal
baseline runs, its symbols and its noise on users 1, 3 and 2.  ``vlcnoma
simulate --trace`` prints one channel use of the same frame code.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import analytic
from .channel import ChannelGains
from .constellation import ConstellationSet, verify_gap_condition
from .errors import ParameterError
from .link import (awgn_sample, decode_center_sic, decode_u2_jml, decode_u2_sic, oma_round,
                   oma_sizes, superpose_transmit)

USERS = ("u1", "u2", "u3")
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: SNR grid, trial budget, seed, and which schemes to run."""

    snr_points_db: tuple[float, ...]
    trials_per_point: int
    seed: int
    target_power_w: float
    schemes: tuple[str, ...] = ("noma-sic",)
    min_errors: int = 0
    batch_size: int = 1 << 15

    def __post_init__(self):
        if not self.snr_points_db:
            raise ParameterError("snr_points_db must be nonempty")
        if self.trials_per_point < 1:
            raise ParameterError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if not 0 < self.target_power_w < math.inf:
            raise ParameterError(
                f"target_power_w must be finite and > 0, got {self.target_power_w}")
        for snr_db in self.snr_points_db:
            try:
                sigma_from_snr(snr_db, self.target_power_w)
            except ParameterError:
                raise ParameterError(f"snr_points_db: no finite noise at {snr_db} dB") from None
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.min_errors < 0:
            raise ParameterError(f"min_errors must be >= 0, got {self.min_errors}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.schemes or not set(self.schemes) <= set(analytic.SCHEMES):
            raise ParameterError(
                f"schemes must name some of {analytic.SCHEMES}, got {self.schemes}")
        if len(self.snr_points_db) >= 2**31 or self.trials_per_point >= self.batch_size << 32:
            raise ParameterError("sweep too large for the stream-addressing scheme")


@dataclass(frozen=True)
class SerEstimate:
    """Error tally with a 95% Wilson interval around the point estimate."""

    errors: int
    trials: int
    ser: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, errors: int, trials: int) -> "SerEstimate":
        low, high = wilson_interval(errors, trials)
        return cls(errors, trials, errors / trials, low, high)


@dataclass(frozen=True)
class SerPoint:
    """One row of a sweep result: (SNR, user, scheme) with its estimate."""

    snr_db: float
    user: str
    scheme: str
    estimate: SerEstimate
    analytic: float | None


def wilson_interval(errors: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval; stays sane at zero or near-zero error counts."""
    if trials < 1 or not 0 <= errors <= trials:
        raise ParameterError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    # the interval brackets p exactly; min/max absorb float rounding at 0 and 1
    return min(max(0.0, center - half), p), max(min(1.0, center + half), p)


def sigma_from_snr(snr_db: float, target_power_w: float) -> float:
    """Noise standard deviation for a transmit SNR of 10*log10(P/sigma^2).

    +inf dB, like any SNR beyond the float range of 10**(snr/10), gives 0.
    NaN, and SNRs so low that the noise overflows (-inf too), are rejected.
    """
    if not 0 < target_power_w < math.inf:
        raise ParameterError(f"target_power_w must be finite and > 0, got {target_power_w}")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    if not (ratio > 0 and target_power_w / ratio < math.inf):
        raise ParameterError(f"snr_db must give a finite noise level, got {snr_db}")
    return math.sqrt(target_power_w / ratio)


def philox_stream(seed: int, snr_index: int, batch_index: int) -> np.random.Generator:
    """Counter-addressed deterministic stream for one (SNR point, batch).

    The key is (seed, snr_index * 2^32 + batch_index); distinct addresses
    give statistically independent streams, and the same address always
    replays the same draws.
    """
    if not 0 <= snr_index < 2**32 or not 0 <= batch_index < 2**32:
        raise ParameterError("stream address out of range")
    key = np.array([seed, (snr_index << 32) | batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _frame(
    rng: np.random.Generator,
    n: int,
    sigma: float,
    cset: ConstellationSet,
    gains: ChannelGains,
    schemes: tuple[str, ...],
    power_w: float,
) -> tuple[dict, tuple | None, dict]:
    """n channel uses of every scheme: ``(sent, received, decided)``.

    ``sent`` and ``decided`` map each scheme to its (u1, u2, u3) indices;
    both superposed schemes share one transmission.  ``received`` is the
    superposed (y1, y2, y3), None without a superposed scheme, and
    ``decided["sic-stage1"]`` holds the edge indices that SIC stage 1 at
    users 1 and 3 subtracted.
    """
    sent: dict[str, tuple] = {}
    decided: dict[str, tuple] = {}
    received = None
    if any(s.startswith("noma") for s in schemes):
        symbols = tuple(rng.integers(1, m + 1, n) for m in cset.bpcu.sizes)
        received = awgn_sample(superpose_transmit(symbols, cset, gains), sigma, rng)
        y1, y2, y3 = received
        u1_hat, edge1 = decode_center_sic(y1, gains.h11, cset, 1)
        u3_hat, edge3 = decode_center_sic(y3, gains.h32, cset, 3)
        decided["sic-stage1"] = (edge1, edge3)
        if "noma-sic" in schemes:
            sent["noma-sic"] = symbols
            decided["noma-sic"] = (u1_hat, decode_u2_sic(y2, gains, cset), u3_hat)
        if "noma-jml" in schemes:
            sent["noma-jml"] = symbols
            decided["noma-jml"] = (u1_hat, decode_u2_jml(y2, gains, cset), u3_hat)
    if "oma" in schemes:
        sizes = oma_sizes(cset.bpcu)
        sent["oma"] = tuple(rng.integers(1, size + 1, n) for size in sizes)
        decided["oma"] = oma_round(sent["oma"], gains, sigma, sizes, power_w, rng)
    return sent, received, decided


def _run_point(
    config: SweepConfig,
    snr_index: int,
    sigma: float,
    cset: ConstellationSet,
    gains: ChannelGains,
    workers: int,
) -> tuple[dict[tuple[str, str], int], int]:
    """Totals for one SNR point honoring the in-order early-stop rule.

    Batches run in windows of ``workers``, on threads only when there are
    several, and are consumed in index order.
    """
    total, size = config.trials_per_point, config.batch_size
    sizes = [min(size, total - start) for start in range(0, total, size)]

    def compute(batch_index: int) -> dict[tuple[str, str], int]:
        """Symbol error counts of one batch, keyed by (scheme, user)."""
        rng = philox_stream(config.seed, snr_index, batch_index)
        sent, _, decided = _frame(rng, sizes[batch_index], sigma, cset, gains, config.schemes,
                                  config.target_power_w)
        return {(scheme, user): int(np.count_nonzero(got != want))
                for scheme in config.schemes
                for user, want, got in zip(USERS, sent[scheme], decided[scheme])}

    tracked = [(s, u) for s in config.schemes for u in USERS]
    totals = {key: 0 for key in tracked}
    trials = 0

    def consume(batch_index: int, result: dict) -> bool:
        nonlocal trials
        for key, count in result.items():
            totals[key] += count
        trials += sizes[batch_index]
        if config.min_errors > 0:
            return min(totals[key] for key in tracked) >= config.min_errors
        return False

    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        for start in range(0, len(sizes), workers):
            window = range(start, min(start + workers, len(sizes)))
            results = list(run(compute, window))
            if any(consume(i, result) for i, result in zip(window, results)):
                break
    return totals, trials


def run_sweep(
    config: SweepConfig,
    cset: ConstellationSet,
    gains: ChannelGains,
    workers: int = 1,
) -> list[SerPoint]:
    """Estimate per-user SER for every requested scheme at every SNR point.

    Rows come back sorted by (snr_db, user, scheme) and include an "avg"
    user per scheme whose tally pools the three users.  Analytic values ride
    along where a closed form or bound exists.  A design that fails the
    zero-error gap condition only warns; sweeping bad designs on purpose is
    a supported way to watch the condition matter.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    ok, _ = verify_gap_condition(cset, gains)
    if not ok:
        warnings.warn("constellation fails the zero-error gap condition", stacklevel=2)
    points = []
    for snr_index, snr_db in enumerate(config.snr_points_db):
        sigma = sigma_from_snr(snr_db, config.target_power_w)
        totals, trials = _run_point(config, snr_index, sigma, cset, gains, workers)
        for scheme in config.schemes:
            counts = {user: (totals[(scheme, user)], trials) for user in USERS}
            counts["avg"] = (sum(totals[(scheme, user)] for user in USERS), 3 * trials)
            points.extend(SerPoint(snr_db, user, scheme, SerEstimate.from_counts(*count),
                                   analytic.closed_form(scheme, user, cset, gains, sigma))
                          for user, count in counts.items())
    points.sort(key=lambda p: (p.snr_db, p.user, p.scheme))
    return points
