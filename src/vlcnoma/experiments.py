"""Named experiments and CSV emission.

Every experiment writes a single CSV whose top comment block echoes the
exact configuration used, so any output file can be reproduced from itself.
Numbers are written with repr, the shortest decimal that round-trips, which
together with deterministic sweeps makes outputs byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from . import analytic
from .channel import _keys_read, gain_matrix
from .config import ExperimentConfig, _fmt, config_echo
from .constellation import LEVEL_SETS, SpectralEfficiencies, peak_powers, verify_gap_condition
from .errors import ParameterError
from .montecarlo import USERS, run_sweep

SER_HEADER = "snr_db,user,scheme,trials,errors,ser,ci_low,ci_high,analytic"


def write_csv(path, header: str, rows, comments=()) -> Path:
    path = Path(path)
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def echo_comments(cfg: ExperimentConfig) -> list[str]:
    return [f"{key} = {value}" for key, value in config_echo(cfg)]


def experiment_gains(cfg: ExperimentConfig, out: Path) -> Path:
    """Computed link gains next to any configured override, with ratios."""
    computed = gain_matrix(cfg.geometry, cfg.front_end)
    override = cfg.gain_override
    rows = []
    for name in ("h11", "h21", "h22", "h32"):
        c = getattr(computed, name)
        o = getattr(override, name) if override is not None else None
        ratio = None if o is None else c / o
        if ratio == math.inf:  # c is finite and o > 0, so only an overflow is not finite
            raise ParameterError(f"computed gain {name} = {c!r} over gain_{name} = {o!r} is past"
                                 f" the float range; the computed gain reads {_keys_read(name)}")
        rows.append((name, c, o, ratio))
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
    forms = analytic.closed_forms(("noma-sic",), cset, gains, cfg.sweep.sigmas)
    rows = [(snr_db, user, forms["noma-sic", user][point])
            for point, snr_db in enumerate(cfg.sweep.snr_points_db) for user in USERS]
    return write_csv(out, "snr_db,user,analytic", rows, echo_comments(cfg))


def experiment_complexity(cfg: ExperimentConfig, out: Path) -> Path:
    """Decoding-cost table for the configured efficiencies."""
    rows = [(scheme, *analytic.complexity_counts(cfg.bpcu, scheme)) for scheme in analytic.SCHEMES]
    return write_csv(out, "scheme,avg_per_channel_use,cell_edge_per_channel_use",
                     rows, echo_comments(cfg))


REFERENCE_BPCU = SpectralEfficiencies(3, 2, 2)
BASELINE_NOTE = ("note: the prior single-cell superposition baseline is omitted; its level"
                 " design rules are not part of this package")

# Figure name -> (schemes swept, users kept, extra comment lines).  Every
# figure runs at the reference efficiencies.  fig3 sweeps all schemes, its
# orthogonal baseline at doubled efficiencies so each user carries the same
# bits per channel use; fig4 and fig2 come after it, so run_sweep's memo
# replays both from that sweep.
FIGURES = {
    "fig3": (analytic.SCHEMES, ("avg",), ("series = average SER per scheme", BASELINE_NOTE)),
    "fig4": (analytic.SCHEMES, ("u2",), ("series = cell-edge user SER per scheme", BASELINE_NOTE)),
    "fig2": (("noma-sic",), USERS, ()),
}
# Table name -> (the function that writes it, the help text of its subcommand)
TABLES = {
    "gains": (experiment_gains, "computed vs configured channel gains"),
    "design": (experiment_design, "power-level tables and zero-error margins"),
    "analytic": (experiment_analytic, "closed-form SER and bounds vs SNR"),
    "complexity": (experiment_complexity, "decoding-cost table"),
}
EXPERIMENTS = (*TABLES, *FIGURES)


def write_ser_csv(cfg: ExperimentConfig, out: Path, workers: int = 1, memo: dict | None = None,
                  users: tuple[str, ...] = (*USERS, "avg"), notes: tuple[str, ...] = ()) -> Path:
    """Write the rows of ``users`` from ``cfg``'s sweep under its config
    echo and ``notes``: the one writer of every SER CSV.

    It keeps no cache of its own.  ``memo`` goes to ``run_sweep``, the one
    cache: a figure replays the last sweep simulated under its draw layout
    when that sweep covers its schemes, and simulates nothing.
    """
    gains, cset = cfg.design()
    rows = [(p.snr_db, p.user, p.scheme, p.estimate.trials, p.estimate.errors, p.estimate.ser,
             p.estimate.ci_low, p.estimate.ci_high, p.analytic)
            for p in run_sweep(cfg.sweep, cset, gains, workers=workers, memo=memo)
            if p.user in users]
    return write_csv(out, SER_HEADER, rows, echo_comments(cfg) + list(notes))


def run_experiment(name: str, cfg: ExperimentConfig, out: Path, workers: int = 1,
                   memo: dict | None = None) -> Path:
    """Write one named experiment's CSV; ``memo``, ``run_sweep``'s one cache,
    lets a figure replay an earlier figure's sweep."""
    if name in FIGURES:
        schemes, users, notes = FIGURES[name]
        cfg = replace(cfg, bpcu=REFERENCE_BPCU, sweep=replace(cfg.sweep, schemes=schemes))
        return write_ser_csv(cfg, out, workers, memo, users, notes)
    if name in TABLES:
        return TABLES[name][0](cfg, out)
    raise ParameterError(f"unknown experiment {name!r}, expected one of {EXPERIMENTS}")
