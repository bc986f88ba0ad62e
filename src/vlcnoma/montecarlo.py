"""Deterministic parallel Monte Carlo sweep of symbol error rates.

Determinism contract: trials are split into fixed-size batches and every
batch draws from its own counter-addressed Philox stream keyed by
(seed, SNR index, batch index).  Batch tallies are plain integer counts,
summed in batch order, so the result is bit-identical no matter how many
workers run or how batches are scheduled.  Optional early stopping consumes
batches strictly in index order: the cut point depends only on cumulative
counts, never on scheduling, so speculative parallel batches past the cut
are simply discarded.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import analytic
from .channel import ChannelGains
from .constellation import ConstellationSet, verify_gap_condition
from .errors import ParameterError
from .link import (OmaConfig, awgn_sample, decode_center_sic, decode_u2_jml, decode_u2_sic,
                   oma_round, superpose_transmit)

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
        if self.target_power_w <= 0:
            raise ParameterError(f"target_power_w must be > 0, got {self.target_power_w}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.min_errors < 0:
            raise ParameterError(f"min_errors must be >= 0, got {self.min_errors}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        unknown = set(self.schemes) - set(analytic.SCHEMES)
        if unknown:
            raise ParameterError(f"unknown schemes {sorted(unknown)}")
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
    """Noise standard deviation for a transmit SNR of 10*log10(P/sigma^2)."""
    if target_power_w <= 0:
        raise ParameterError(f"target_power_w must be > 0, got {target_power_w}")
    return math.sqrt(target_power_w / 10.0 ** (snr_db / 10.0))


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


def _batch_errors(
    rng: np.random.Generator,
    n: int,
    sigma: float,
    cset: ConstellationSet,
    gains: ChannelGains,
    schemes: tuple[str, ...],
    oma: OmaConfig | None,
) -> dict[tuple[str, str], int]:
    """Symbol error counts of one batch, keyed by (scheme, user).

    Draw order is fixed: superposed symbols, superposed noise, then the
    orthogonal baseline's symbols and noise if requested.
    """
    m1, m2, m3 = cset.bpcu.sizes
    errors: dict[tuple[str, str], int] = {}
    noma = [s for s in schemes if s.startswith("noma")]
    if noma:
        u1 = rng.integers(1, m1 + 1, n)
        u2 = rng.integers(1, m2 + 1, n)
        u3 = rng.integers(1, m3 + 1, n)
        y1, y2, y3 = awgn_sample(superpose_transmit((u1, u2, u3), cset, gains), sigma, rng)
        u1_hat, _ = decode_center_sic(y1, gains.h11, cset, 1)
        u3_hat, _ = decode_center_sic(y3, gains.h32, cset, 3)
        center = {"u1": int(np.count_nonzero(u1_hat != u1)),
                  "u3": int(np.count_nonzero(u3_hat != u3))}
        if "noma-sic" in schemes:
            u2_hat = decode_u2_sic(y2, gains, cset)
            errors[("noma-sic", "u2")] = int(np.count_nonzero(u2_hat != u2))
            errors[("noma-sic", "u1")] = center["u1"]
            errors[("noma-sic", "u3")] = center["u3"]
        if "noma-jml" in schemes:
            u2_hat = decode_u2_jml(y2, gains, cset)
            errors[("noma-jml", "u2")] = int(np.count_nonzero(u2_hat != u2))
            errors[("noma-jml", "u1")] = center["u1"]
            errors[("noma-jml", "u3")] = center["u3"]
    if "oma" in schemes:
        s1, s2, s3 = oma.sizes
        m = (rng.integers(1, s1 + 1, n), rng.integers(1, s2 + 1, n), rng.integers(1, s3 + 1, n))
        decoded = oma_round(m, gains, sigma, oma, rng)
        for user, sent, got in zip(USERS, m, decoded):
            errors[("oma", user)] = int(np.count_nonzero(got != sent))
    return errors


def _run_point(
    config: SweepConfig,
    snr_index: int,
    sigma: float,
    cset: ConstellationSet,
    gains: ChannelGains,
    oma: OmaConfig | None,
    workers: int,
) -> tuple[dict[tuple[str, str], int], int]:
    """Totals for one SNR point honoring the in-order early-stop rule."""
    sizes = []
    remaining = config.trials_per_point
    while remaining > 0:
        sizes.append(min(config.batch_size, remaining))
        remaining -= sizes[-1]

    def compute(batch_index: int) -> dict[tuple[str, str], int]:
        rng = philox_stream(config.seed, snr_index, batch_index)
        return _batch_errors(rng, sizes[batch_index], sigma, cset, gains, config.schemes, oma)

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

    if workers <= 1:
        for i in range(len(sizes)):
            if consume(i, compute(i)):
                break
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            start = 0
            stopped = False
            while start < len(sizes) and not stopped:
                window = range(start, min(start + workers, len(sizes)))
                results = list(pool.map(compute, window))
                for offset, result in zip(window, results):
                    if consume(offset, result):
                        stopped = True
                        break
                start += workers
    return totals, trials


def _analytic_value(
    scheme: str, user: str, cset: ConstellationSet, gains: ChannelGains, sigma: float
) -> float | None:
    if scheme == "oma":
        return None
    if user == "u1":
        return analytic.ser_center_lower_bound(cset, gains, sigma, 1)
    if user == "u3":
        return analytic.ser_center_lower_bound(cset, gains, sigma, 3)
    if scheme == "noma-sic":
        return analytic.ser_u2_analytic(cset, gains, sigma)
    return None


def run_sweep(
    config: SweepConfig,
    cset: ConstellationSet,
    gains: ChannelGains,
    oma: OmaConfig | None = None,
    workers: int = 1,
) -> list[SerPoint]:
    """Estimate per-user SER for every requested scheme at every SNR point.

    Rows come back sorted by (snr_db, user, scheme) and include an "avg"
    user per scheme whose tally pools the three users.  Analytic values ride
    along where a closed form or bound exists.  A design that fails the
    zero-error gap condition only warns; sweeping bad designs on purpose is
    a supported way to watch the condition matter.
    """
    ok, _ = verify_gap_condition(cset, gains)
    if not ok:
        warnings.warn("constellation fails the zero-error gap condition", stacklevel=2)
    if "oma" in config.schemes and oma is None:
        oma = OmaConfig.from_noma(cset.bpcu, config.target_power_w)
    points = []
    for snr_index, snr_db in enumerate(config.snr_points_db):
        sigma = sigma_from_snr(snr_db, config.target_power_w)
        totals, trials = _run_point(config, snr_index, sigma, cset, gains, oma, workers)
        for scheme in config.schemes:
            for user in USERS:
                estimate = SerEstimate.from_counts(totals[(scheme, user)], trials)
                points.append(SerPoint(
                    snr_db=snr_db,
                    user=user,
                    scheme=scheme,
                    estimate=estimate,
                    analytic=_analytic_value(scheme, user, cset, gains, sigma),
                ))
            pooled = sum(totals[(scheme, user)] for user in USERS)
            points.append(SerPoint(
                snr_db=snr_db,
                user="avg",
                scheme=scheme,
                estimate=SerEstimate.from_counts(pooled, 3 * trials),
                analytic=None,
            ))
    points.sort(key=lambda p: (p.snr_db, p.user, p.scheme))
    return points
