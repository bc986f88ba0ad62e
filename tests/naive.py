"""The one brute-force model of the link that the tests check the fast paths
against (differential testing).  It builds no decision table and takes no
amplitude table: every tuple is listed, each cell's levels are summed and
scaled by its gains, every user decodes by argmin over its candidates, and a
frame draws from its stream in the sweep's order.  The recount applies the
stop rule over whole sweeps, so ``run_sweep`` is matched count for count and
``_frame`` trial for trial."""

import itertools

import numpy as np

from vlcnoma.link import oma_levels, oma_sizes
from vlcnoma.montecarlo import philox_stream

BLOCK = 1 << 20  # distances that ``nearest`` holds at once: 8 MiB


def tuples(sizes):
    """Every symbol tuple below ``sizes`` in lexicographic order, one index row per user."""
    return np.array(list(itertools.product(*map(range, sizes)))).T


def transmit(cset, gains, u1, u2, u3):
    """Noiseless (y1, y2, y3): each cell's level sum times its gains."""
    tx1 = cset.cell1_center[u1] + cset.cell1_edge[u2]
    tx2 = cset.cell2_edge[u2] + cset.cell2_center[u3]
    return tx1 * gains.h11, tx1 * gains.h21 + tx2 * gains.h22, tx2 * gains.h32


def nearest(y, candidates):
    """Index of the candidate nearest to each sample, the lowest index on a
    tie: the argmin of every distance, taken a block of samples at a time."""
    y, candidates = np.asarray(y, dtype=float), np.ravel(candidates)
    rows, step = y.reshape(-1, 1), max(1, BLOCK // max(1, candidates.size))
    blocks = [np.argmin(np.abs(rows[i:i + step] - candidates), axis=1)
              for i in range(0, rows.shape[0], step)]
    return np.concatenate([np.empty(0, np.intp), *blocks]).reshape(y.shape)


def center_sic(y, edge, own):
    """Two-stage SIC: ``(own, edge)`` indices, the nearest edge level, then the
    nearest own level of the residual; stage-1 mistakes propagate."""
    edge_hat = nearest(y, edge)
    return nearest(y - edge[edge_hat], own), edge_hat


def frame(rng, n, sigma, cset, gains, schemes, power_w):
    """n channel uses of ``schemes``, drawn from ``rng`` as a sweep draws them:
    ``(decided, received)`` under ``_frame``'s decision names.  The superposed
    symbols u1, u2, u3 and the noise on y1, y2, y3 are drawn if a superposed
    scheme runs, then, if OMA runs, its symbols and its noise on users 1, 3
    and 2.  ``received`` is the noisy (y1, y2, y3), None without a superposed
    scheme."""
    decided, received = {}, None
    if set(schemes) - {"oma"}:
        sent = [rng.integers(0, m, n, dtype=np.int32) for m in cset.bpcu.sizes]
        y1, y2, y3 = received = tuple(sigma * rng.standard_normal(n) + y
                                      for y in transmit(cset, gains, *sent))
        for user, y, h, edge, own in ((1, y1, gains.h11, cset.cell1_edge, cset.cell1_center),
                                      (3, y3, gains.h32, cset.cell2_edge, cset.cell2_center)):
            decided[f"u{user}"], decided[f"edge{user}"] = zip(
                (sent[user - 1], sent[1]), center_sic(y, h * edge, h * own))
        if "noma-sic" in schemes:
            edge = gains.h21 * cset.cell1_edge + gains.h22 * cset.cell2_edge
            decided["noma-sic"] = sent[1], nearest(y2, edge)
        if "noma-jml" in schemes:  # ties go to the lexicographically lowest tuple
            grid = tuples(cset.bpcu.sizes)
            decided["noma-jml"] = sent[1], grid[1][nearest(y2, transmit(cset, gains, *grid)[1])]
    if "oma" in schemes:
        sent = [rng.integers(0, m, n, dtype=np.int32) for m in oma_sizes(cset.bpcu)]
        levels = oma_levels(cset.bpcu, gains, power_w)
        for k in (0, 2, 1):  # the edge user's slot is drawn last
            y = sigma * rng.standard_normal(n) + levels[k][sent[k]]
            decided[f"oma-u{k + 1}"] = sent[k], nearest(y, levels[k])
    return decided, received


def counted(scheme):
    """The names of the decisions that a scheme's u1, u2 and u3 rows count."""
    return ("oma-u1", "oma-u2", "oma-u3") if scheme == "oma" else ("u1", scheme, "u3")


def recount(config, cset, gains):
    """Per SNR point, (trials, {scheme: [errors of u1, u2, u3]}) where a sweep of
    ``config.schemes`` stops: after the first batch at which every user of every
    scheme has ``min_errors`` errors (never for 0), else after the last batch."""
    size, total = config.batch_size, config.trials_per_point
    counts = []
    for point, sigma in enumerate(config.sigmas):
        totals = {scheme: np.zeros(3, dtype=np.int64) for scheme in config.schemes}
        for batch in range(-(-total // size)):
            trials = min((batch + 1) * size, total)
            decided, _ = frame(philox_stream(config.seed, point, batch), trials - batch * size,
                               sigma, cset, gains, config.schemes, config.target_power_w)
            for scheme, errors in totals.items():
                errors += [np.count_nonzero(sent != got)
                           for sent, got in map(decided.get, counted(scheme))]
            if config.min_errors > 0 and all((t >= config.min_errors).all()
                                             for t in totals.values()):
                break
        counts.append((trials, totals))
    return counts
