"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them).  The heavy sweeps share module-scoped fixtures; the whole module
runs in about a minute on a laptop."""

import itertools

import numpy as np
import pytest

from vlcnoma import (ChannelGains, SpectralEfficiencies, SweepConfig, design_constellation,
                     run_sweep, ser_u2_analytic)
from vlcnoma.analytic import complexity_counts
from vlcnoma.channel import OpticalFrontEnd, dc_gain
from vlcnoma.cli import main
from vlcnoma.constellation import peak_powers
from vlcnoma.link import (center_user, decode_center_sic, decode_u2_jml, decode_u2_sic,
                          oma_levels, oma_pam_points, oma_sizes, superpose_transmit)
from vlcnoma.montecarlo import receivers, sigma_from_snr, wilson_interval

GAINS = ChannelGains(h11=2.5892e-6, h21=7.8573e-7, h22=6.8573e-7, h32=3.5892e-6)
BPCU = SpectralEfficiencies(3, 2, 2)
POWER = 1.0
SEED = 1


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def cset():
    return design_constellation(BPCU, GAINS, POWER)


@pytest.fixture(scope="module")
def tables(cset):
    return receivers(cset, GAINS, ("noma-sic", "noma-jml", "oma"), POWER)


@pytest.fixture(scope="module")
def midband_grid(cset):
    """SNR points whose closed-form edge SER lies in [1e-3, 0.5]."""
    points = []
    for snr_db in np.arange(120.0, 170.0, 2.0):
        value = ser_u2_analytic(cset, GAINS, sigma_from_snr(snr_db, POWER))
        if 1e-3 <= value <= 0.5:
            points.append(float(snr_db))
    assert len(points) >= 5
    return tuple(points)


@pytest.fixture(scope="module")
def sic_sweep(cset, midband_grid):
    config = SweepConfig(snr_points_db=midband_grid, trials_per_point=1_000_000,
                         seed=SEED, target_power_w=POWER, schemes=("noma-sic",))
    return run_sweep(config, cset, GAINS)


@pytest.fixture(scope="module")
def jml_sweep(cset, midband_grid):
    config = SweepConfig(snr_points_db=midband_grid, trials_per_point=200_000,
                         seed=SEED, target_power_w=POWER,
                         schemes=("noma-sic", "noma-jml"))
    return run_sweep(config, cset, GAINS)


def all_tuples():
    m1, m2, m3 = BPCU.sizes
    grid = np.array(list(itertools.product(range(m1), range(m2), range(m3)))).T
    return grid[0], grid[1], grid[2]


def test_ac1_noiseless_zero_error(cset, tables):
    u1, u2, u3 = all_tuples()
    y1, y2, y3 = superpose_transmit((u1, u2, u3), cset, GAINS)
    u1_hat, _ = decode_center_sic(y1, tables["u1"])
    u3_hat, _ = decode_center_sic(y3, tables["u3"])
    u2_sic = decode_u2_sic(y2, tables["noma-sic"])
    u2_jml = decode_u2_jml(y2, tables["noma-jml"])
    wrong = (int(np.count_nonzero(u1_hat != u1)) + int(np.count_nonzero(u2_sic != u2))
             + int(np.count_nonzero(u3_hat != u3)) + int(np.count_nonzero(u2_jml != u2)))
    report("AC-1", wrong == 0,
           f"all {u1.size} symbol tuples decode exactly at sigma=0; wrong={wrong}")


def test_ac2_edge_user_matches_closed_form(cset, sic_sweep):
    worst = ""
    ok = True
    checked = 0
    for p in sic_sweep:
        if p.user != "u2":
            continue
        expected = ser_u2_analytic(cset, GAINS, sigma_from_snr(p.snr_db, POWER))
        low, high = wilson_interval(p.estimate.errors, p.estimate.trials, z=3.0)
        checked += 1
        if not low <= expected <= high:
            ok = False
            worst = f"; miss at {p.snr_db} dB: {expected:.3e} not in [{low:.3e}, {high:.3e}]"
    report("AC-2", ok and checked >= 5,
           f"closed form inside 3-sigma Wilson band at {checked} SNR points, 1e6 trials each"
           + worst)


def test_ac3_center_bounds_stay_below_simulation(sic_sweep):
    ok = True
    checked = 0
    for p in sic_sweep:
        if p.user not in ("u1", "u3"):
            continue
        half = (p.estimate.ci_high - p.estimate.ci_low) / 2.0
        checked += 1
        if p.estimate.ser < p.analytic - half:
            ok = False
    report("AC-3", ok, f"simulated center-user SER >= lower bound - CI/2 at {checked} rows")


def test_ac4_joint_ml_dominates_on_common_noise(jml_sweep):
    per_point = {}
    for p in jml_sweep:
        if p.user == "u2":
            per_point.setdefault(p.snr_db, {})[p.scheme] = p.estimate
    never_worse = all(e["noma-jml"].errors <= e["noma-sic"].errors
                      for e in per_point.values())
    halved = any(
        e["noma-sic"].errors >= 100
        and e["noma-jml"].ser < 0.5 * e["noma-sic"].ser
        for e in per_point.values()
    )
    report("AC-4", never_worse and halved,
           f"JML errors <= SIC-rule errors at all {len(per_point)} points"
           f" and below half the SIC-rule SER somewhere (halved={halved})")


def test_ac5_complexity_table_and_instrumented_counts(cset):
    table_ok = (
        complexity_counts(BPCU, "noma-sic") == (24, 4)
        and complexity_counts(BPCU, "noma-jml") == (148, 128)
        and complexity_counts(BPCU, "oma") == (48, 8)
    )
    # each receiver's brute-force cost per decoded sample, the size of the
    # candidate set its table is built from: the center users pay for both
    # SIC stages, and the two-slot orthogonal frame decodes every user once,
    # so its per-channel-use figures are frame sums halved
    u1, u3 = (edge.size + own.size for edge, own, _ in (center_user(cset, GAINS, u)
                                                         for u in (1, 3)))
    sic = (GAINS.h21 * cset.cell1_edge + GAINS.h22 * cset.cell2_edge).size
    # joint ML's table is built from every (u1, u2, u3) tuple's y2
    jml = superpose_transmit(np.indices(BPCU.sizes).reshape(3, -1), cset, GAINS)[1].size
    oma = [levels.size for levels in oma_levels(BPCU, GAINS, POWER)]
    measured_ok = (
        (u1, sic, u3, jml) == (8 + 4, 4, 4 + 4, 128)
        and (u1 + sic + u3, sic) == complexity_counts(BPCU, "noma-sic")
        and (u1 + jml + u3, jml) == complexity_counts(BPCU, "noma-jml")
        and (sum(oma), oma[1]) == tuple(2 * c for c in complexity_counts(BPCU, "oma"))
    )
    report("AC-5", table_ok and measured_ok,
           "table rows (24,4)/(148,128)/(48,8) and the receivers' candidate counts agree")


def test_ac6_channel_model_near_quoted_gains(tmp_path):
    links = {"h11": (0.4885, 0.5), "h21": (3.2880, 0.5),
             "h22": (3.4670, 0.5), "h32": (0.3030, 1.0)}
    front_end = OpticalFrontEnd(60.0, 1e-4, 0.4, 1.0, 60.0, 1.5)
    deltas = {}
    ok = True
    for name, (r, height) in links.items():
        computed = dc_gain(front_end, r, 4.0, height)
        quoted = getattr(GAINS, name)
        deltas[name] = computed / quoted - 1.0
        ok &= abs(deltas[name]) <= 0.25
    out = tmp_path / "gains.csv"
    assert main(["gains", "--out", str(out)]) == 0
    data_rows = [l for l in out.read_text().splitlines()
                 if l and not l.startswith(("#", "link"))]
    ratios_emitted = all(len(row.split(",")) == 4 and row.split(",")[3] for row in data_rows)
    summary = ", ".join(f"{k}:{v:+.1%}" for k, v in deltas.items())
    report("AC-6", ok and ratios_emitted,
           f"computed-vs-quoted within 25%: {summary}; ratios in gains.csv")


def test_ac7_power_identities(cset):
    pairs1 = cset.cell1_center[:, None] + cset.cell1_edge[None, :]
    pairs2 = cset.cell2_center[:, None] + cset.cell2_edge[None, :]
    cell_ok = (abs(pairs1.mean() / POWER - 1.0) < 1e-12
               and abs(pairs2.mean() / POWER - 1.0) < 1e-12)
    oma_ok = all(
        abs(oma_pam_points(size, POWER).mean() / POWER - 1.0) < 1e-12
        for size in oma_sizes(BPCU)
    )
    p1, p2 = peak_powers(cset)
    peak_ok = pairs1.max() <= p1 * (1 + 1e-15) and pairs2.max() <= p2 * (1 + 1e-15)
    report("AC-7", cell_ok and oma_ok and peak_ok,
           "per-cell mean power = target, PAM slot means = target, peaks bound all tuples")


def test_ac8_limits(cset):
    config = SweepConfig(snr_points_db=(-20.0,), trials_per_point=100_000, seed=SEED,
                         target_power_w=POWER, schemes=("noma-sic", "noma-jml", "oma"))
    points = run_sweep(config, cset, GAINS)
    noma_limits = {"u1": 1 - 2.0**-3, "u2": 1 - 2.0**-2, "u3": 1 - 2.0**-2}
    oma_limits = {"u1": 1 - 2.0**-6, "u2": 1 - 2.0**-4, "u3": 1 - 2.0**-4}
    sim_ok = True
    for p in points:
        if p.user == "avg":
            continue
        limit = oma_limits[p.user] if p.scheme == "oma" else noma_limits[p.user]
        if not p.estimate.ci_low <= limit <= p.estimate.ci_high:
            sim_ok = False
    analytic_limit = ser_u2_analytic(cset, GAINS, float("inf"))
    analytic_ok = analytic_limit == pytest.approx(1 - 2.0**-2, rel=1e-12)
    report("AC-8", sim_ok and analytic_ok,
           "uniform-guess SER limits inside 95% CI for every user/scheme;"
           f" closed-form limit = {analytic_limit}")


def test_ac9_reproduction_independent_of_workers(tmp_path, monkeypatch):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text(
        "trials_per_point = 5000\nbatch_size = 512\nseed = 1\n"
        "snr_start_db = 136\nsnr_stop_db = 152\nsnr_step_db = 8\n"
    )
    outputs = []
    for workers in ("1", "5"):
        out = tmp_path / f"fig2_workers{workers}.csv"
        monkeypatch.setenv("VLCNOMA_WORKERS", workers)
        assert main(["reproduce", "fig2", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    report("AC-9", outputs[0] == outputs[1],
           "reproduce fig2 byte-identical across 1 and 5 workers")
