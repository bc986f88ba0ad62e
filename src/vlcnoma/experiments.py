"""Named experiments and CSV emission.

Every experiment writes a single CSV whose top comment block echoes the
exact configuration used, so any output file can be reproduced from itself.
Numbers are written with repr, the shortest decimal that round-trips, which
together with deterministic sweeps makes outputs byte-stable.
"""

from __future__ import annotations

import numbers
from dataclasses import replace
from pathlib import Path

from . import analytic
from .config import ExperimentConfig, config_echo, with_sweep
from .constellation import LEVEL_SETS, SpectralEfficiencies, peak_powers, verify_gap_condition
from .errors import ParameterError
from .montecarlo import USERS, SerPoint, run_sweep, sigma_from_snr

SER_HEADER = "snr_db,user,scheme,trials,errors,ser,ci_low,ci_high,analytic"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return repr(float(value))
    return str(value)


def write_csv(path, header: str, rows, comments=()) -> Path:
    path = Path(path)
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def echo_comments(cfg: ExperimentConfig) -> list[str]:
    return [f"{key} = {value}" for key, value in config_echo(cfg)]


def ser_rows(points: list[SerPoint]) -> list[tuple]:
    return [
        (p.snr_db, p.user, p.scheme, p.estimate.trials, p.estimate.errors,
         p.estimate.ser, p.estimate.ci_low, p.estimate.ci_high, p.analytic)
        for p in points
    ]


def experiment_gains(cfg: ExperimentConfig, out: Path) -> Path:
    """Computed link gains next to any configured override, with ratios."""
    computed = cfg.computed_gains()
    override = cfg.gain_override
    rows = []
    for name in ("h11", "h21", "h22", "h32"):
        c = getattr(computed, name)
        o = getattr(override, name) if override is not None else None
        rows.append((name, c, o, None if o is None else c / o))
    diagnostic = computed.ordering_diagnostic()
    comments = echo_comments(cfg) + [
        f"computed_noma_ordering_ok = {str(diagnostic is None).lower()}",
    ]
    if diagnostic:
        comments.append(f"computed_ordering_diagnostic = {diagnostic}")
    return write_csv(out, "link,computed,override,ratio_computed_over_override", rows, comments)


def experiment_design(cfg: ExperimentConfig, out: Path) -> Path:
    """Level tables, spacings, scale factors, peak powers, and gap margins."""
    gains, cset = cfg.design()
    ok, margins = verify_gap_condition(cset, gains)
    spacing = cset.spacings()
    rows: list[tuple] = []
    for name, cell, user in LEVEL_SETS:
        levels = zip(getattr(cset, f"raw_{name}"), getattr(cset, name))
        rows.extend(("level", cell, user, idx, float(r), float(n))
                    for idx, (r, n) in enumerate(levels, start=1))
    rows.extend(("spacing", cell, user, None, spacing[name],
                 spacing[name] * getattr(cset, f"scale_cell{cell}"))
                for name, cell, user in LEVEL_SETS)
    rows.extend(("scale", cell, None, None, None, getattr(cset, f"scale_cell{cell}"))
                for cell in (1, 2))
    rows.extend(("peak_power", cell, None, None, None, peak)
                for cell, peak in enumerate(peak_powers(cset), start=1))
    rows.append(("target_power", None, None, None, None, cfg.target_power_w))
    rows.extend(("gap_margin", None, "u2", idx, None, float(margin))
                for idx, margin in enumerate(margins, start=1))
    comments = echo_comments(cfg) + [f"gap_condition_ok = {str(ok).lower()}"]
    return write_csv(out, "kind,cell,user,index,raw,normalized", rows, comments)


def experiment_analytic(cfg: ExperimentConfig, out: Path) -> Path:
    """Closed-form SER (edge user) and lower bounds (center users) vs SNR."""
    gains, cset = cfg.design()
    rows = []
    for snr_db in cfg.sweep.snr_points_db:
        sigma = sigma_from_snr(snr_db, cfg.target_power_w)
        rows.extend((snr_db, user, analytic.closed_form("noma-sic", user, cset, gains, sigma))
                    for user in USERS)
    return write_csv(out, "snr_db,user,analytic", rows, echo_comments(cfg))


def experiment_complexity(cfg: ExperimentConfig, out: Path) -> Path:
    """Decoding-cost table for the configured efficiencies."""
    rows = []
    for scheme in analytic.SCHEMES:
        avg, edge = analytic.complexity_counts(cfg.bpcu, scheme)
        rows.append((scheme, avg, edge))
    return write_csv(out, "scheme,avg_per_channel_use,cell_edge_per_channel_use",
                     rows, echo_comments(cfg))


REFERENCE_BPCU = SpectralEfficiencies(3, 2, 2)
ALL_SCHEMES = ("noma-sic", "noma-jml", "oma")
BASELINE_NOTE = ("note: the prior single-cell superposition baseline is omitted; its level"
                 " design rules are not part of this package")

# Figure name -> (schemes swept, rows kept, extra comment lines).  Every
# figure runs at the reference efficiencies.  fig3 and fig4 are two views of
# one sweep over all schemes; the orthogonal baseline in it runs doubled
# efficiencies so each user carries the same bits per channel use.  fig2
# keeps its own noma-sic sweep: early stopping waits until every tracked
# (scheme, user) has reached min_errors, so with min_errors > 0 a sweep over
# all schemes cuts each point at a different batch and changes fig2's rows.
FIGURES = {
    "fig2": (("noma-sic",), lambda p: p.user != "avg", ()),
    "fig3": (ALL_SCHEMES, lambda p: p.user == "avg",
             ("series = average SER per scheme", BASELINE_NOTE)),
    "fig4": (ALL_SCHEMES, lambda p: p.user == "u2",
             ("series = cell-edge user SER per scheme", BASELINE_NOTE)),
}
TABLES = {
    "gains": experiment_gains,
    "design": experiment_design,
    "analytic": experiment_analytic,
    "complexity": experiment_complexity,
}
EXPERIMENTS = (*TABLES, *FIGURES)


def experiment_figure(name: str, cfg: ExperimentConfig, out: Path, workers: int,
                      memo: dict | None) -> Path:
    """One reference figure's SER rows.

    ``memo`` maps each derived config to its sweep, so figures that need the
    same sweep within one run share it; the key is the whole derived config,
    so an entry is never reused for a different one.
    """
    schemes, keep, notes = FIGURES[name]
    cfg = with_sweep(replace(cfg, bpcu=REFERENCE_BPCU), schemes=schemes)
    memo = {} if memo is None else memo
    if cfg not in memo:
        gains, cset = cfg.design()
        memo[cfg] = run_sweep(cfg.sweep, cset, gains, workers=workers)
    rows = ser_rows([p for p in memo[cfg] if keep(p)])
    return write_csv(out, SER_HEADER, rows, echo_comments(cfg) + list(notes))


def run_experiment(name: str, cfg: ExperimentConfig, out: Path, workers: int = 1,
                   memo: dict | None = None) -> Path:
    """Write one named experiment's CSV; ``memo`` is shared by the figures."""
    if name in FIGURES:
        return experiment_figure(name, cfg, out, workers, memo)
    if name in TABLES:
        return TABLES[name](cfg, out)
    raise ParameterError(f"unknown experiment {name!r}, expected one of {EXPERIMENTS}")
