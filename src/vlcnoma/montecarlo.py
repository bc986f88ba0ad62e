"""Deterministic parallel Monte Carlo sweep of symbol error rates.

Determinism contract: trials are split into fixed-size batches and every
batch draws from its own counter-addressed Philox stream keyed by
(seed, SNR index, batch index), with plain integer tallies.  A point is
one task: workers take the next point and add its batches in index order
until it stops, so each point stops at the same batch for any number of
workers.

Within a batch the draw order is fixed by ``_frame``: the superposed
symbols u1, u2, u3, the noise on y1, y2, y3, then, if the orthogonal
baseline runs, its symbols and its noise on users 1, 3 and 2.  Each user
is decoded as soon as its noise is drawn.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from threading import Lock, Thread

import numpy as np

from . import analytic
from .channel import ChannelGains
from .constellation import ConstellationSet, verify_gap_condition
from .errors import ParameterError
from .link import (SicReceiver, Workspace, _out, _take, awgn_sample, center_user,
                   decode_center_sic, decode_u2_jml, decode_u2_sic, nearest_table, oma_levels,
                   oma_round, oma_sizes, received_terms, superpose_transmit)

USERS = ("u1", "u2", "u3")
Z_95 = 1.959963984540054
MAX_PAIRS = 1 << 12  # symbol pairs per cell up to which sweeps tabulate amplitudes: 128 KiB
MAX_BATCH = 1 << 20  # trials; a worker's workspace of one batch is then about 38 MB
MAX_WORKERS = 64  # threads, each with a workspace of one batch (see SweepConfig.batch_size)
MAX_POINTS = 1 << 16  # SNR points per sweep; the paper's grids have 26
MAX_TRIALS = 1 << 36  # trials per sweep, about 3 h at 150 ns/trial; the paper's is 2.6e6
# the names of _frame's decisions that each scheme's u1, u2 and u3 rows count
COUNTED = {"noma-sic": ("u1", "noma-sic", "u3"), "noma-jml": ("u1", "noma-jml", "u3"),
           "oma": ("oma-u1", "oma-u2", "oma-u3")}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: SNR grid, trial budget, seed, schemes, and the derived noise ``sigmas``."""

    snr_points_db: tuple[float, ...]
    trials_per_point: int
    seed: int
    target_power_w: float
    schemes: tuple[str, ...] = ("noma-sic",)
    min_errors: int = 0
    batch_size: int = 1 << 15
    sigmas: tuple[float, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # a tuple, so that a listed grid hashes as a memo key
        object.__setattr__(self, "snr_points_db", tuple(self.snr_points_db))
        for name in ("trials_per_point", "seed", "min_errors", "batch_size"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 < len(self.snr_points_db) <= MAX_POINTS:
            raise ParameterError(f"snr_points_db must hold 1..{MAX_POINTS} points,"
                                 f" got {len(self.snr_points_db)}")
        if self.trials_per_point < 1:
            raise ParameterError(f"trials_per_point must be >= 1, got {self.trials_per_point}")
        if len(self.snr_points_db) * self.trials_per_point > MAX_TRIALS:
            raise ParameterError(
                f"snr_points_db ({len(self.snr_points_db)} points) times trials_per_point"
                f" ({self.trials_per_point}) is more than the {MAX_TRIALS} trials of one sweep")
        if not 0 < self.target_power_w < math.inf:
            raise ParameterError(
                f"target_power_w must be finite and > 0, got {self.target_power_w}")
        sigmas = []
        for snr_db in self.snr_points_db:
            try:
                sigmas.append(sigma_from_snr(snr_db, self.target_power_w))
            except ParameterError:
                raise ParameterError(f"snr_points_db: no finite noise at {snr_db} dB") from None
        object.__setattr__(self, "sigmas", tuple(sigmas))
        if len(set(self.snr_points_db)) < len(self.snr_points_db):
            raise ParameterError(f"snr_points_db lists a point twice: {self.snr_points_db}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if self.min_errors < 0:
            raise ParameterError(f"min_errors must be >= 0, got {self.min_errors}")
        if not 1 <= self.batch_size <= MAX_BATCH:
            raise ParameterError(f"batch_size must be in 1..{MAX_BATCH}, got {self.batch_size}")
        if not self.schemes or not set(self.schemes) <= set(analytic.SCHEMES):
            raise ParameterError(
                f"schemes must name some of {analytic.SCHEMES}, got {self.schemes}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ParameterError(f"schemes lists a scheme twice: {self.schemes}")
        # a tuple too, so that listed schemes hash, and equal run_sweep's OMA-only layout
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.trials_per_point >= self.batch_size << 32:
            raise ParameterError("sweep too large for the stream-addressing scheme")


@dataclass(frozen=True)
class SerEstimate:
    """Error tally with a 95% Wilson interval around the point estimate."""

    errors: int
    trials: int
    ser: float
    ci_low: float
    ci_high: float


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


def receivers(
    cset: ConstellationSet, gains: ChannelGains, schemes: tuple[str, ...], power_w: float
) -> dict:
    """The tables that ``schemes`` decode with, built once per sweep.  For
    any superposed scheme: "u1" and "u3" (SIC at the center users) and
    "amplitudes", the four products of ``received_terms``, each at every
    pair if no cell has more than ``MAX_PAIRS``, else as (levels, levels,
    gain).  When their scheme runs: "noma-sic" and "noma-jml" (the edge
    user) and "oma" (``oma_round``'s links at intensity ``power_w``).
    """
    tables: dict = {}
    if "noma-sic" in schemes:
        tables["noma-sic"] = nearest_table(gains.h21 * cset.cell1_edge
                                           + gains.h22 * cset.cell2_edge)
    if "noma-jml" in schemes:  # ties break toward the lexicographically lowest tuple
        grid = np.ix_(*(np.arange(m) for m in cset.bpcu.sizes))
        tables["noma-jml"] = nearest_table(superpose_transmit(grid, cset, gains)[1], grid[1])
    if tables:  # a superposed scheme runs
        terms = received_terms(cset, gains)
        if all(low.size * high.size <= MAX_PAIRS for low, high, _ in terms):
            terms = tuple((low[:, None] + high) * h for low, high, h in terms)
        tables["amplitudes"] = terms
        for user in (1, 3):
            edge, own, h = center_user(cset, gains, user)
            levels = h * edge  # stage 1's candidates, and the levels it subtracts
            tables[f"u{user}"] = SicReceiver(nearest_table(levels), levels, nearest_table(h * own))
    if "oma" in schemes:
        tables["oma"] = tuple((levels, nearest_table(levels))
                              for levels in oma_levels(cset.bpcu, gains, power_w))
    return tables


def _symbols(rng: np.random.Generator, sizes, n: int) -> tuple[np.ndarray, ...]:
    """n indices below each size, drawn as int32, whose values equal int64 draws,
    and each held in the smallest type that fits, a byte up to size 256."""
    return tuple(rng.integers(0, m, n, dtype=np.int32).astype(np.min_scalar_type(m - 1))
                 for m in sizes)


def _frame(rng: np.random.Generator, n: int, sigma: float, cset: ConstellationSet,
           tables: dict, ws: Workspace | None = None) -> tuple[dict, tuple | None]:
    """n channel uses of every scheme that ``tables`` (see ``receivers``)
    decodes, as ``_batch`` frames them: ``(decided, received)``.

    ``decided`` maps each decision's name to its 0-based ``(sent, decided)``
    indices, sent in fresh ``_symbols`` arrays: "u1" and "u3", the center
    users' SIC that both superposed schemes share; "noma-sic" and "noma-jml",
    the edge user; "edge1" and "edge3", SIC stage 1's edge index at users 1
    and 3 with the sent u2; "oma-u1".."oma-u3".  Users 1, 2 and 3 in turn take
    their noiseless amplitude from ``tables["amplitudes"]``, add their noise
    and decode it.  ``received`` is the superposed (y1, y2, y3); None without
    a superposed scheme, or with a workspace, whose one array "y" each user
    overwrites and whose decided arrays last until its next frame.
    """
    decided: dict[str, tuple] = {}
    received = None
    if "amplitudes" in tables:
        u1, u2, u3 = _symbols(rng, cset.bpcu.sizes, n)

        def term(k: int, key, scratch="t") -> np.ndarray:
            """Product k of "amplitudes" at each trial, into the array ``key``:
            gathered from its table at the trial's flat symbol pair, held in
            the smallest type that fits, or summed and scaled from its levels."""
            first, second = (u1, u2) if k < 2 else (u2, u3)
            if isinstance(product := tables["amplitudes"][k], np.ndarray):
                pair = _out(ws, "pair", (n,), np.min_scalar_type(product.size - 1))
                np.multiply(first, product.shape[1], out=pair, dtype=pair.dtype)
                return _take(product, np.add(pair, second, out=pair), ws, key)
            low, high, h = product
            x = _take(low, first, ws, key)
            return np.multiply(np.add(x, _take(high, second, ws, scratch), out=x), h, out=x)

        y1 = awgn_sample(term(0, "y"), sigma, rng, ws)
        decided["u1"], decided["edge1"] = zip((u1, u2), decode_center_sic(y1, tables["u1"], ws))
        y2 = term(1, "y")
        y2 = awgn_sample(np.add(y2, term(2, "t", "z"), out=y2), sigma, rng, ws)
        decided.update((s, (u2, decode(y2, tables[s], ws))) for s, decode in
                       (("noma-sic", decode_u2_sic), ("noma-jml", decode_u2_jml)) if s in tables)
        y3 = awgn_sample(term(3, "y"), sigma, rng, ws)
        decided["u3"], decided["edge3"] = zip((u3, u2), decode_center_sic(y3, tables["u3"], ws))
        received = (y1, y2, y3) if ws is None else None
    if "oma" in tables:
        oma = _symbols(rng, oma_sizes(cset.bpcu), n)
        decided.update(zip(COUNTED["oma"], zip(oma, oma_round(oma, tables["oma"], sigma, rng, ws))))
    return decided, received


def _batch(config: SweepConfig, point: int, batch: int, cset: ConstellationSet,
           tables: dict, ws: Workspace | None = None) -> tuple:
    """``_frame`` of one batch of a point: its own Philox stream and its size."""
    n = min(config.batch_size, config.trials_per_point - batch * config.batch_size)
    return _frame(philox_stream(config.seed, point, batch), n, config.sigmas[point], cset,
                  tables, ws)


def _settled(totals: np.ndarray, min_errors: int) -> np.ndarray:
    """Per scheme of a point's (scheme, user) error totals: has every user ``min_errors``?"""
    return (totals >= min_errors).all(axis=1) & (min_errors > 0)


def _run_points(config: SweepConfig, cset: ConstellationSet, gains: ChannelGains,
                workers: int) -> list[list[tuple[int, np.ndarray]]]:
    """Per SNR point, the snapshots ``(trials, totals)`` that ``_stop`` reads:
    int64 error totals indexed (scheme, user) in ``config.schemes`` × ``USERS``
    order, taken at each batch where one more scheme first settles and at
    the point's last batch.  A point is one task: ``workers`` threads, the
    calling thread among them, but no more than the sweep has points, each
    take the next point and add its batches in index order on their own
    workspace until it stops or every batch is added."""
    total, size = config.trials_per_point, config.batch_size
    batches = -(-total // size)  # per point, each of ``size`` trials but the last
    count = len(config.snr_points_db)
    workers = min(workers, count)
    tables = receivers(cset, gains, config.schemes, config.target_power_w)
    rows = [COUNTED[scheme] for scheme in config.schemes]
    records: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(count)]
    points, lock = iter(range(count)), Lock()
    errors: list[BaseException] = []  # the first is raised once every worker is joined

    def compute(point: int, batch: int, ws: Workspace) -> np.ndarray:
        """(scheme, user) error counts of one batch; each named decision is compared once."""
        decided, _ = _batch(config, point, batch, cset, tables, ws)
        wrong = ws.take("errors", decided[rows[0][0]][0].shape, bool)
        counts = {name: np.count_nonzero(np.not_equal(*decided[name], out=wrong))
                  for name in set().union(*rows)}
        return np.array([[counts[name] for name in row] for row in rows], dtype=np.int64)

    def work() -> None:
        try:
            ws = Workspace()
            while not errors:
                with lock:
                    point = next(points, None)
                if point is None:
                    return
                totals = np.zeros((len(config.schemes), len(USERS)), dtype=np.int64)
                settled = 0  # schemes settled at the point's last snapshot
                for batch in range(batches):
                    totals += compute(point, batch, ws)
                    now = int(_settled(totals, config.min_errors).sum())
                    if now > settled or batch + 1 == batches:
                        records[point].append((min((batch + 1) * size, total), totals.copy()))
                        settled = now
                    if errors or now == len(config.schemes):
                        break
        except BaseException as exc:
            errors.append(exc)  # the other workers stop after their current batch

    threads: list[Thread] = []
    try:
        for _ in range(workers - 1):
            thread = Thread(target=work)
            thread.start()
            threads.append(thread)
        work()  # the calling thread is a worker too, so one worker starts no thread
    except BaseException as exc:  # a thread that failed to start: the started ones stop
        errors.append(exc)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


def _stop(snapshots: list[tuple[int, np.ndarray]], rows: list[int],
          min_errors: int) -> tuple[int, np.ndarray]:
    """(trials, totals of ``rows``) where a sweep of just those schemes
    stops: the first snapshot in which they all settled, else the last.
    Settling only grows as batches are added, so a subset of a sweep's
    schemes settles at one of its snapshots or never before it stopped."""
    for trials, totals in snapshots:
        if _settled(totals[rows], min_errors).all():
            break
    return trials, totals[rows]


def run_sweep(
    config: SweepConfig,
    cset: ConstellationSet,
    gains: ChannelGains,
    workers: int = 1,
    memo: dict | None = None,
) -> list[SerPoint]:
    """Estimate per-user SER for every requested scheme at every SNR point.

    Rows come back sorted by (snr_db, user, scheme) and include an "avg"
    user per scheme whose tally pools the three users.  Analytic values ride
    along where a closed form or bound exists.  A design that fails the
    zero-error gap condition only warns; sweeping bad designs on purpose is
    a supported way to watch the condition matter.

    ``memo``, a dict shared by the sweeps of one run, is the run's one
    cache, keyed by value on the design, every setting but schemes, and the
    draw layout: OMA alone, or the superposed symbols with OMA's after them.
    A sweep that the key's sweep covers replays its own stop rule on that
    sweep's snapshots and simulates nothing; any other simulates exactly its
    own schemes and takes the key over, so the last simulated sweep of each
    layout wins.  Without a memo the sweep takes the same path on its own dict.
    """
    if not isinstance(workers, numbers.Integral) or not 1 <= workers <= MAX_WORKERS:
        raise ParameterError(f"workers must be an integer in 1..{MAX_WORKERS}, got {workers!r}")
    ok, _ = verify_gap_condition(cset, gains)
    if not ok:
        warnings.warn("constellation fails the zero-error gap condition", stacklevel=2)
    memo = {} if memo is None else memo
    layout = ("oma",) if config.schemes == ("oma",) else analytic.SCHEMES  # what it draws
    schemes, records = memo.get(key := (replace(config, schemes=layout), gains, cset), ((), None))
    if not set(config.schemes) <= set(schemes):  # the last sweep of a layout wins
        schemes, records = memo[key] = config.schemes, _run_points(config, cset, gains, workers)
    rows = [schemes.index(scheme) for scheme in config.schemes]
    stops = [_stop(snapshots, rows, config.min_errors) for snapshots in records]
    forms = analytic.closed_forms(config.schemes, cset, gains, config.sigmas)
    none = [None] * len(config.sigmas)
    points = [SerPoint(snr_db, user, scheme, SerEstimate(e, t, e / t, *wilson_interval(e, t)),
                       (forms.get((scheme, user)) or none)[point])
              for point, (snr_db, (n, totals)) in enumerate(zip(config.snr_points_db, stops))
              for scheme, errors in zip(config.schemes, totals.tolist())  # Python ints
              for user, e, t in zip((*USERS, "avg"), (*errors, sum(errors)), (n, n, n, 3 * n))]
    points.sort(key=lambda p: (p.snr_db, p.user, p.scheme))
    return points
