import contextlib
import io
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_file
from vlcnoma import cli, experiments, montecarlo
from vlcnoma.cli import main
from vlcnoma.config import (SCHEMA, build_config, config_echo, default_config_path, load_config,
                            parse_kv_file, snr_grid)
from vlcnoma.errors import ParameterError

GOLDEN_CFG = Path(__file__).resolve().with_name("golden") / "golden.cfg"


class TestLoadConfig:
    def test_bundled_defaults_load(self):
        cfg = load_config()
        assert cfg.bpcu.sizes == (8, 4, 4)
        assert cfg.gain_override is not None
        assert cfg.gain_override.h11 == 2.5892e-6
        assert cfg.gain_override.h21 == 7.8573e-7
        assert cfg.gain_override.h22 == 6.8573e-7
        assert cfg.gain_override.h32 == 3.5892e-6
        assert cfg.sweep.snr_points_db[0] == 100.0
        assert cfg.sweep.snr_points_db[-1] == 150.0

    def test_default_config_file_exists(self):
        assert default_config_path().is_file()

    def test_bundled_file_sets_every_schema_default(self, tmp_path):
        # SCHEMA and default.cfg each hold every default; only the file's gain
        # override is its own, so a file without the gains computes them
        raw = parse_kv_file(default_config_path())
        gains = {"gain_h11", "gain_h21", "gain_h22", "gain_h32"}
        defaults = {key for key, (_, default, _) in SCHEMA.items() if default is not None}
        assert defaults == set(raw) - gains
        for key in set(raw) - gains:
            parser, default, _ = SCHEMA[key]
            assert parser(raw[key]) == default, key
        seed_only = tmp_path / "seed.cfg"
        seed_only.write_text("seed = 1\n")
        assert load_config(seed_only).gain_override is None

    @pytest.mark.parametrize("text,message", [
        ("semi_angle_deg = 120\n", "{path}: semi_angle_deg must be in (0, 90), got 120.0"),
        ("# comment line\nsemiangle = 60\n", "{path}:2: unknown key 'semiangle'"),
        ("room_height_m = 4.0\nnot a kv line\n",
         "{path}:2: expected 'key = value', got 'not a kv line'"),
        ("trials_per_point = many\n", "{path}: bad value for 'trials_per_point': invalid"),
        ("gain_h11 = 1e-6\ngain_h21 = 5e-7\n",
         "{path}: gain override needs all four gains, missing ['gain_h22', 'gain_h32']"),
        ("seed = 1\nseed = 2\n", "{path}:2: duplicate key 'seed'"),
    ], ids=["out_of_range_value_names_key", "unknown_key_names_key_and_line",
            "malformed_line_reports_line_number", "unparseable_value_names_key",
            "partial_gain_override_rejected", "duplicate_key_rejected"])
    def test_bad_file_is_rejected_naming_what_is_wrong(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ParameterError, match=re.escape(message.format(path=path))):
            load_config(path)

    def test_inline_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\nseed = 9  # pinned\n\n# trailing comment\n")
        assert load_config(path).sweep.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParameterError,
                           match=re.escape(f"config file not found: {tmp_path / 'nope.cfg'}")):
            load_config(tmp_path / "nope.cfg")

    def test_directory_is_not_a_file(self, tmp_path, capsys):
        # a directory used to be reported as "config file not found"
        with pytest.raises(ParameterError, match=re.escape(f"config path {tmp_path} is not a"
                                                           " file")):
            load_config(tmp_path)
        assert run_cli("gains", "--config", str(tmp_path), "--out", str(tmp_path / "g.csv")) == 1
        assert f"{tmp_path} is not a file" in capsys.readouterr().err

    def test_name_too_long_names_the_file(self, tmp_path, capsys):
        path = tmp_path / ("a" * 300 + ".cfg")  # past any file system's 255-byte name limit
        with pytest.raises(ParameterError, match=re.escape(f"config file {path}: ")):
            load_config(path)
        assert run_cli("gains", "--config", str(path), "--out", str(tmp_path / "g.csv")) == 1
        assert f"config file {path}: " in capsys.readouterr().err

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        # a leading 0xff byte used to exit 2 with a codec error
        path = tmp_path / "latin.cfg"
        path.write_bytes(b"\xffseed = 1\n")
        with pytest.raises(ParameterError, match=re.escape(f"{path}: not UTF-8 text")):
            load_config(path)
        assert run_cli("gains", "--config", str(path), "--out", str(tmp_path / "g.csv")) == 1
        assert "latin.cfg" in capsys.readouterr().err

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # a UTF-8 byte-order mark used to read as part of the first key:
        # "unknown key '\ufeffseed'"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("seed = 7\ntrials_per_point = 64\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert parse_kv_file(marked) == {"seed": "7", "trials_per_point": "64"}
        assert load_config(marked) == load_config(plain)
        assert run_cli("gains", "--config", str(marked), "--out", str(tmp_path / "g.csv")) == 0
        assert "error" not in capsys.readouterr().err

    def test_explicit_snr_points_key(self, tmp_path):
        path = tmp_path / "pts.cfg"
        path.write_text("snr_points_db = 140.0:143.5:151.25\n")
        assert load_config(path).sweep.snr_points_db == (140.0, 143.5, 151.25)

    def test_echo_round_trips(self):
        cfg = load_config()
        rebuilt = build_config(dict(config_echo(cfg)))
        assert rebuilt == cfg

    def test_echo_of_numpy_and_bool_values_round_trips(self):
        # each value echoes as the text its key's parser reads back
        cfg = load_config()
        for sweep in (replace(cfg.sweep, snr_points_db=np.array([100.0, 102.0]),
                              target_power_w=np.float64(1.0)),
                      replace(cfg.sweep, trials_per_point=np.int64(500)),
                      replace(cfg.sweep, seed=True)):
            echo = config_echo(replace(cfg, sweep=sweep))
            assert build_config(dict(echo)) == replace(cfg, sweep=sweep), echo

    def test_csv_reproducible_from_its_own_echo(self, tmp_path):
        first = tmp_path / "first.csv"
        again = tmp_path / "again.csv"
        assert run_cli("simulate", "--trials", "1200", "--snr", "141:145:4",
                       "--seed", "4", "--out", str(first)) == 0
        echo_cfg = tmp_path / "echo.cfg"
        echo_cfg.write_text("\n".join(
            line[2:] for line in first.read_text().splitlines() if line.startswith("# ")))
        assert run_cli("simulate", "--config", str(echo_cfg), "--out", str(again)) == 0
        assert first.read_bytes() == again.read_bytes()


class TestSnrGrid:
    def test_inclusive_endpoints(self):
        assert snr_grid(100.0, 150.0, 2.0) == tuple(float(x) for x in range(100, 152, 2))

    def test_fractional_step_hits_stop(self):
        grid = snr_grid(0.0, 1.0, 0.1)
        assert len(grid) == 11
        assert grid[-1] == pytest.approx(1.0)

    def test_bad_step_rejected(self):
        with pytest.raises(ParameterError, match=r"snr_step_db must be > 0, got 0\.0"):
            snr_grid(0.0, 1.0, 0.0)

    def test_grid_past_the_point_cap_rejected_before_it_is_built(self, tmp_path):
        assert len(snr_grid(0.0, montecarlo.MAX_POINTS - 1.0, 1.0)) == montecarlo.MAX_POINTS
        # 1e9 + 1 points: the tuple alone would take about 32 GB
        path = tmp_path / "big.cfg"
        path.write_text("snr_start_db = 0\nsnr_stop_db = 1e9\nsnr_step_db = 1\n")
        message = f"gives too many points, more than {montecarlo.MAX_POINTS}"
        tracemalloc.start()
        try:
            for start, stop in ((0.0, 1e9), (0.0, float(montecarlo.MAX_POINTS))):
                with pytest.raises(ParameterError, match=message):
                    snr_grid(start, stop, 1.0)
            with pytest.raises(ParameterError, match=f"{path}: snr_start_db .*{message}"):
                load_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_step_too_fine_to_tell_points_apart_rejected(self):
        # fl(100 + k * 1e-15) takes 8 distinct values over the 100 points
        with pytest.raises(ParameterError, match=re.escape(
                "snr_start_db 100.0 to snr_stop_db 100.0000000000001 in steps of snr_step_db"
                " 1e-15 gives repeated points")):
            snr_grid(100.0, 100.0000000000001, 1e-15)


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_complexity_command(self, tmp_path, capsys):
        out = tmp_path / "complexity.csv"
        assert run_cli("complexity", "--out", str(out)) == 0
        body = out.read_text()
        assert "noma-sic,24,4" in body
        assert "noma-jml,148,128" in body
        assert "oma,48,8" in body

    def test_gains_command_reports_ratios(self, tmp_path):
        out = tmp_path / "gains.csv"
        assert run_cli("gains", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "link,computed,override,ratio_computed_over_override"
        for line in lines[1:]:
            ratio = float(line.split(",")[3])
            assert 0.75 <= ratio <= 1.25

    def test_gains_command_diagnoses_a_geometry_that_fails_the_ordering(self, tmp_path):
        # each center user farther from its LED than the edge user: both cells fail
        config, out = tmp_path / "swapped.cfg", tmp_path / "gains.csv"
        config.write_text("r11_m = 3.2880\nr21_m = 0.4885\nr22_m = 0.3030\nr32_m = 3.4670\n")
        assert run_cli("gains", "--config", str(config), "--out", str(out)) == 0
        comments = [l for l in out.read_text().splitlines() if "ordering" in l]
        assert comments[0] == "# computed_noma_ordering_ok = false"
        assert re.fullmatch(r"# computed_ordering_diagnostic = h11=\S+ <= h21=\S+ in cell 1;"
                            r" h32=\S+ <= h22=\S+ in cell 2", comments[1]), comments

    def test_unknown_experiment_rejected_before_any_write(self, tmp_path):
        out = tmp_path / "fig5.csv"
        with pytest.raises(ParameterError, match="unknown experiment 'fig5', expected one of"):
            experiments.run_experiment("fig5", load_config(), out)
        assert not out.exists()

    def test_design_command_margins_positive(self, tmp_path):
        out = tmp_path / "design.csv"
        assert run_cli("design", "--out", str(out)) == 0
        body = out.read_text()
        assert "# gap_condition_ok = true" in body
        margins = [float(l.split(",")[5]) for l in body.splitlines()
                   if l.startswith("gap_margin")]
        assert margins and all(m > 0 for m in margins)

    def test_analytic_command(self, tmp_path):
        out = tmp_path / "analytic.csv"
        assert run_cli("analytic", "--out", str(out)) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,user,analytic"
        assert len(lines) == 1 + 3 * 26

    def test_simulate_with_overrides(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("simulate", "--out", str(out), "--trials", "2000",
                       "--snr", "140:144:4", "--schemes", "noma-sic,oma",
                       "--seed", "5") == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "snr_db,user,scheme,trials,errors,ser,ci_low,ci_high,analytic"
        # 2 SNR points x 4 user rows x 2 schemes
        assert len(lines) == 1 + 16

    def test_simulate_trace_prints_frame(self, capsys, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("trials_per_point = 10\n")
        assert run_cli("simulate", "--trace", "--config", str(cfg)) == 0
        captured = capsys.readouterr().out
        assert "sent:" in captured and "received:" in captured

    def test_simulate_trace_reads_neither_workers_nor_out(self, capsys, tmp_path, monkeypatch):
        # the trace decides one frame on the calling thread and writes no file
        monkeypatch.setenv("VLCNOMA_WORKERS", "abc")
        out = tmp_path / "missing" / "x.csv"
        assert run_cli("simulate", "--trace", "--trials", "10", "--out", str(out)) == 0
        assert "sent:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_trace_is_trial_0_of_the_sweeps_first_batch(self, capsys):
        # the frame that batch 0 of the first point decides in any superposed sweep
        cfg = load_config(GOLDEN_CFG)
        gains, cset = cfg.design()
        tables = montecarlo.receivers(cset, gains, ("noma-sic", "noma-jml"), cfg.target_power_w)
        n = min(cfg.sweep.batch_size, cfg.sweep.trials_per_point)
        assert n == 512
        snr_db = cfg.sweep.snr_points_db[0]
        sigma = montecarlo.sigma_from_snr(snr_db, cfg.target_power_w)
        decided, received = montecarlo._frame(
            montecarlo.philox_stream(cfg.sweep.seed, 0, 0), n, sigma, cset, tables)
        assert run_cli("simulate", "--trace", "--config", str(GOLDEN_CFG)) == 0
        first, *rest = capsys.readouterr().out.splitlines()
        assert first == f"snr_db = {snr_db}  sigma = {sigma!r}"

        def index(array):  # printed 1-based
            return str(array.item(0) + 1)

        sent = [decided[name][0] for name in ("u1", "noma-sic", "u3")]
        u1_hat, u2_sic, u3_hat, u2_jml, edge1, edge3 = (
            decided[name][1] for name in ("u1", "noma-sic", "u3", "noma-jml", "edge1", "edge3"))
        assert [re.findall(r"(?:=|: )([-+.\de]+)", line) for line in rest] == [
            [index(u) for u in sent],
            [repr(y.item(0)) for y in received],
            [index(u1_hat), index(edge1)],
            [index(u2_sic), index(u2_jml)],
            [index(u3_hat), index(edge3)],
        ]

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("fov_deg = 200\n")
        assert run_cli("gains", "--config", str(bad)) == 1
        assert "fov_deg" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("simulate", "--snr"), "--snr"),
        # the option that follows used to be taken for --snr's value
        (("simulate", "--snr", "--trials", "5"), "--snr"),
        (("simulate", "--trials"), "--trials"),
        (("simulate", "--bogus", "1"), "--bogus"),
        (("reproduce", "fig5"), "fig5"),
        ((), "command"),
    ], ids=["snr-without-value", "snr-before-an-option", "trials-without-value",
            "unknown-option", "unknown-figure", "no-command"])
    def test_usage_error_exits_1_naming_the_option(self, capsys, argv, named):
        # argparse used to exit 2
        assert run_cli(*argv) == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("--help",), ("simulate", "--help")])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv)
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert "usage: vlcnoma" in out
        if argv[0] == "simulate":  # the --schemes help names only its key
            assert all(scheme in out for scheme in ("noma-sic", "noma-jml", "oma"))

    def test_bad_snr_spec_exit_code(self, capsys):
        assert run_cli("simulate", "--snr", "10:20") == 1

    def test_empty_scheme_list_exits_1(self, capsys):
        assert run_cli("simulate", "--schemes", ",", "--min-errors", "5") == 1
        assert "schemes" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("design", "gain_h11", "nan"),
        ("analytic", "snr_step_db", "nan"),
        ("design", "target_power_w", "inf"),
        ("gains", "room_height_m", "nan"),
        # finite but degenerate: too many SNR points, no Lambertian order,
        # levels past the float range, a receiver at the ceiling
        ("analytic", "snr_step_db", "1e-308"),
        ("design", "semi_angle_deg", "1e-308"),
        ("design", "target_power_w", "1e308"),
        ("gains", "rx_height_u3_m", "4"),
        ("gains", "detector_area_m2", "1e308"),
        # the computed gain over its override past the float range, which used
        # to be written as inf with exit 0
        ("gains", "gain_h11", "1e-320"),
        ("gains", "responsivity_a_per_w", "1e308"),
        # listed twice, which used to write the rows twice
        ("simulate", "schemes", "noma-sic, noma-sic"),
        ("simulate", "snr_points_db", "110:110"),
    ])
    def test_non_finite_value_exits_1_naming_key(self, tmp_path, capsys, command, key, value):
        # the bundled file with one value replaced, so the gain override stays complete
        lines = [line for line in default_config_path().read_text().splitlines()
                 if line.partition("=")[0].strip() != key]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        out = tmp_path / "out.csv"
        assert run_cli(command, "--config", str(cfg), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("values,key", [
        ({"bpcu_u1": 40}, "bpcu_u1"),
        ({"bpcu_u3": 11}, "bpcu_u3"),
        ({"bpcu_u1": 7, "bpcu_u2": 7, "bpcu_u3": 7}, "bpcu_u1..bpcu_u3"),
    ], ids=["u1=40", "u3=11", "all=7"])
    def test_efficiencies_past_the_grid_bound_exit_1_naming_keys(self, tmp_path, capsys,
                                                                values, key):
        # bpcu_u1 = 40 used to exit 2 on an 8 TiB allocation
        cfg = tmp_path / "big.cfg"
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
        out = tmp_path / "design.csv"
        assert run_cli("design", "--config", str(cfg), "--out", str(out)) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_link_too_short_for_a_finite_gain_exits_1_naming_keys(self, tmp_path, capsys):
        # the LED-to-receiver distance squares to zero, which used to exit 2
        cfg = tmp_path / "near.cfg"
        cfg.write_text("room_height_m = 1e-200\nrx_height_u1_m = 0\nrx_height_u2_m = 0\n"
                       "rx_height_u3_m = 0\nr11_m = 0\n")
        assert run_cli("gains", "--config", str(cfg), "--out", str(tmp_path / "g.csv")) == 1
        err = capsys.readouterr().err
        assert "h11" in err and "r11_m" in err and "rx_height_u1_m" in err

    def test_field_of_view_too_narrow_for_a_finite_gain_exits_1_naming_keys(self, tmp_path,
                                                                           capsys):
        # sin^2 of the field of view underflows, which used to exit 2
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text("room_height_m = 1e308\nfov_deg = 1e-308\n")
        assert run_cli("gains", "--config", str(cfg), "--out", str(tmp_path / "g.csv")) == 1
        err = capsys.readouterr().err
        assert "fov_deg" in err and "room_height_m" in err

    @pytest.mark.parametrize("flag,value,keys", [
        ("--seed", "4", {"seed": "4"}),
        ("--trials", "900", {"trials_per_point": "900"}),
        ("--min-errors", "3", {"min_errors": "3"}),
        ("--schemes", "noma-sic,oma", {"schemes": "noma-sic,oma"}),
        ("--snr", "141:145:4", {"snr_start_db": "141", "snr_stop_db": "145",
                                "snr_step_db": "4"}),
    ])
    def test_simulate_flag_writes_what_its_config_key_does(self, tmp_path, flag, value, keys):
        # the base file lists snr_points_db, which --snr replaces
        base = {"trials_per_point": "600", "batch_size": "256", "seed": "2",
                "snr_points_db": "140.0:146.0"}
        keyed = {k: v for k, v in base.items() if not (flag == "--snr" and k == "snr_points_db")}
        paths = {}
        for name, values in (("base", base), ("keyed", {**keyed, **keys})):
            paths[name] = tmp_path / f"{name}.cfg"
            paths[name].write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert run_cli("simulate", "--config", str(paths["base"]), flag, value,
                       "--out", str(by_flag)) == 0
        assert run_cli("simulate", "--config", str(paths["keyed"]), "--out", str(by_key)) == 0
        assert by_flag.read_bytes() == by_key.read_bytes()

    @pytest.mark.parametrize("flag,value,key", [
        ("--trials", "abc", "trials_per_point"),
        ("--seed", "x", "seed"),
        ("--min-errors", "1.5", "min_errors"),
        ("--snr", "a:150:2", "snr_start_db"),
        ("--snr", "10:20", "snr_start_db"),
        ("--schemes", "fft", "schemes"),
        ("--trials", "0", "trials_per_point"),
        # a scheme twice, and a step that leaves 100 points on 8 distinct SNRs
        ("--schemes", "oma,oma", "schemes"),
        ("--snr", "100:100.0000000000001:1e-15", "snr_step_db"),
        ("--seed", "-1", "seed"),
        ("--min-errors", "-1", "min_errors"),
    ])
    def test_bad_override_exits_1_naming_key_and_flag(self, tmp_path, capsys, flag, value,
                                                      key):
        # argparse's type=int used to exit 2 with a usage dump for the first three
        out = tmp_path / "out.csv"
        assert run_cli("simulate", flag, value, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert key in err and flag in err, err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "65", str(10**30), "abc", "1.5", ""])
    def test_worker_count_out_of_bounds_exits_1(self, tmp_path, capsys, monkeypatch, workers):
        def no_thread(target):
            raise AssertionError("a worker thread was asked for")

        # checked before any thread could start: a thread here fails the run
        monkeypatch.setattr(montecarlo, "Thread", no_thread)
        monkeypatch.setenv("VLCNOMA_WORKERS", workers)
        out = tmp_path / "out.csv"
        assert run_cli("simulate", "--trials", "64", "--out", str(out)) == 1
        assert "VLCNOMA_WORKERS" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [("simulate", "--trials", "2000"), ("reproduce", "fig2"),
                                         ("analytic",)])
    def test_unwritable_out_exits_1_before_any_work(self, tmp_path, capsys, no_sweep, command):
        # a sweep here would fail the run with exit 2, as the write used to after it
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            assert run_cli(*command, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert "--out" in err and str(out) in err, err
        assert list(tmp_path.iterdir()) == []

    def test_out_name_too_long_exits_1_naming_out(self, tmp_path, capsys):
        out = tmp_path / ("a" * 300 + ".csv")  # past any file system's 255-byte name limit
        assert run_cli("complexity", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out}: "), err

    def test_unexpected_error_exits_2_as_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise OSError("device unplugged")

        monkeypatch.setattr(cli, "run_experiment", broken)
        assert run_cli("complexity", "--out", str(tmp_path / "complexity.csv")) == 2
        assert capsys.readouterr().err == "runtime error: device unplugged\n"

    @pytest.mark.parametrize("link", ["missing/x.csv", "loop.csv"], ids=["dangling", "loop"])
    def test_out_through_a_broken_symlink_exits_1_before_any_work(self, tmp_path, capsys,
                                                                   no_sweep, link):
        # a link into a missing directory used to run the sweep, then exit 2
        out = tmp_path / "out.csv"
        out.symlink_to(tmp_path / link)
        if link == "loop.csv":
            (tmp_path / link).symlink_to(out)
        assert run_cli("simulate", "--trials", "64", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err, err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("script", [False, True], ids=["out", "reproduce_all"])
    def test_read_only_out_file_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        no_sweep, script):
        # an existing file that refused the write used to run the sweep, then exit 2
        out = tmp_path / ("fig2.csv" if script else "out.csv")
        out.write_text("old\n")
        # root may write any file, so os.access answers as the mode bits would
        access, target = os.access, Path(os.path.realpath(out))
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != target
                            and access(path, mode))
        status = (REPRODUCE_ALL_MAIN([str(tmp_path)]) if script
                  else run_cli("simulate", "--trials", "64", "--out", str(out)))
        assert status == 1
        err = capsys.readouterr().err
        assert str(out) in err and ("output" if script else "--out") in err, err
        assert out.read_text() == "old\n"

    def test_non_finite_snr_spec_exits_1(self, capsys):
        assert run_cli("simulate", "--snr", "nan:150:2") == 1
        assert "--snr" in capsys.readouterr().err

    def test_snr_spec_with_a_negative_start_runs_as_written(self, tmp_path):
        # argparse takes a separate value that starts with '-' for an option
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        assert run_cli("simulate", "--snr", "-10:-6:2", "--trials", "5",
                       "--out", str(spaced)) == 0
        assert run_cli("simulate", "--snr=-10:-6:2", "--trials", "5", "--out", str(joined)) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        rows = [line for line in spaced.read_text().splitlines() if not line.startswith("#")]
        assert sorted({float(row.split(",")[0]) for row in rows[1:]}) == [-10.0, -8.0, -6.0]

    @pytest.mark.parametrize("start,stop,step,message", [
        ("100", "150", "0", "snr_step_db must be > 0, got 0.0"),
        ("150", "100", "2", "snr_stop_db 100.0 is below snr_start_db 150.0"),
        ("0", "1e300", "1e-300", "snr_start_db 0.0 to snr_stop_db 1e+300 in steps of"
                                 " snr_step_db 1e-300 gives too many points"),
    ], ids=["zero-step", "stop-below-start", "too-many-points"])
    def test_snr_grid_error_names_its_source(self, tmp_path, capsys, start, stop, step,
                                             message):
        spec = f"{start}:{stop}:{step}"
        assert run_cli("simulate", "--snr", spec, "--out", str(tmp_path / "out.csv")) == 1
        err = capsys.readouterr().err
        assert f"error: {default_config_path()} --snr {spec}: {message}" in err, err
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"snr_start_db = {start}\nsnr_stop_db = {stop}\nsnr_step_db = {step}\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "out.csv")) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_reproduce_fig2_deterministic_across_workers(self, tmp_path, monkeypatch):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "trials_per_point = 3000\nbatch_size = 1024\n"
            "snr_start_db = 138\nsnr_stop_db = 146\nsnr_step_db = 4\n"
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        monkeypatch.setenv("VLCNOMA_WORKERS", "1")
        assert run_cli("reproduce", "fig2", "--config", str(cfg), "--out", str(out1)) == 0
        monkeypatch.setenv("VLCNOMA_WORKERS", "4")
        assert run_cli("reproduce", "fig2", "--config", str(cfg), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reproduce_fig3_emits_average_rows_only(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "trials_per_point = 1000\nsnr_start_db = 140\nsnr_stop_db = 140\n"
        )
        out = tmp_path / "fig3.csv"
        assert run_cli("reproduce", "fig3", "--config", str(cfg), "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("snr_db")]
        assert len(rows) == 3
        assert all(",avg," in r for r in rows)

    def test_reproduce_fig4_emits_edge_user_rows(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "trials_per_point = 1000\nsnr_start_db = 140\nsnr_stop_db = 140\n"
        )
        out = tmp_path / "fig4.csv"
        assert run_cli("reproduce", "fig4", "--config", str(cfg), "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#") and not l.startswith("snr_db")]
        assert len(rows) == 3
        assert all(",u2," in r for r in rows)
        assert {r.split(",")[2] for r in rows} == {"noma-sic", "noma-jml", "oma"}

    def test_identical_invocations_are_byte_stable(self, tmp_path):
        out1 = tmp_path / "one.csv"
        out2 = tmp_path / "two.csv"
        args = ("simulate", "--trials", "1500", "--snr", "142:146:4", "--seed", "8")
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()


# Values the config fuzz writes: non-finite, signed zero, extremes, empty
# lists and a few ordinary ones.  None of them can ask for a large run.
FUZZ_VALUES = ("nan", "inf", "-inf", "-0", "0", "1", "2", "-1", "0.5", "1e308", "-1e308",
               "1e-308", "", ",", ":", "1:2", "noma-sic,oma")
FUZZ_BASE = {"trials_per_point": "64", "batch_size": "32", "snr_start_db": "130",
             "snr_stop_db": "140", "snr_step_db": "10", "schemes": "noma-sic,noma-jml,oma"}


@settings(max_examples=200, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(sorted(SCHEMA)), st.sampled_from(FUZZ_VALUES),
                               min_size=1, max_size=4),
       override=st.booleans(), command=st.sampled_from(("gains", "design", "simulate")))
def test_fuzzed_config_exits_1_naming_a_key_or_writes_csv_without_nan(changes, override,
                                                                      command):
    """A tiny run of the bundled file with random values either exits 1 with
    a message naming a config key (a condition across keys names the keys it
    reads, not always the one changed) or writes a CSV with no NaN."""
    values = {**parse_kv_file(default_config_path()), **FUZZ_BASE}
    if not override:
        values = {k: v for k, v in values.items() if not k.startswith("gain_")}
    values.update(changes)
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "out.csv"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            status = main([command, "--config", str(cfg), "--out", str(out)])
        if status == 1:
            assert any(key in err.getvalue() for key in SCHEMA), err.getvalue()
            assert not out.exists()
        else:
            assert status == 0, err.getvalue()
            assert "nan" not in out.read_text().lower()


# Values of any config line but the two that size a sweep: valid, boundary,
# non-finite and garbage.  No integer among them is large and valid at once.
LINE_VALUES = ("1", "2", "0", "-0", "-1", "0.5", "0_1", "٣", "1e308", "-1e308", "1e-308",
               "5e-324", "99999999999999999999", "nan", "inf", "-inf", "", " ", ",", ":", "1:2",
               "abc", "0x10", "noma-sic,oma", "oma,oma", "noma-jml")
# The sweep sizes: every valid value is one SNR point or at most 64 trials.
TRIALS = ("64", "1", "0", "-1", "1e3", "٦٤", "99999999999999999999", "abc")
POINTS = ("130", "-0", "1e308", "-1e308", "130:130", "nan", ":", "99999999999999999999")
SNR_SPECS = ("130:130:1", "130:131:2", "150:140:1", "130:130:0", "130:140:1e-308", "nan:130:1",
             "1e308:1e308:1e308", "-1e308:-1e308:1", "1:2", "a:b:c", "")
# flag -> its values, a valid one first; None for a switch
SIMULATE_FLAGS = {"--seed": ("7", *LINE_VALUES), "--trials": TRIALS, "--snr": SNR_SPECS,
                  "--schemes": ("noma-sic,oma", *LINE_VALUES),
                  "--min-errors": ("5", *LINE_VALUES), "--trace": None}
SCRIPT_FLAGS = {"--trials": TRIALS}
COMMANDS = (["gains"], ["design"], ["analytic"], ["complexity"], ["simulate"],
            ["reproduce", "fig2"], ["reproduce", "fig3"], ["reproduce", "fig4"],
            ["reproduce", "fig5"])
# where an output goes: a file, the file already there, a directory, a link
# into a missing directory, a missing directory, none given, a name the OS
# refuses as too long, a read-only directory or file (root writes into
# either anyway, so not as root)
PLACES = ("new", "existing", "directory", "dangling", "missing", "absent", "too-long") + (
    ("read-only", "read-only-file") if os.geteuid() != 0 else ())
# a file name longer than the 255 bytes that common file systems allow
TOO_LONG = "a" * 300


def mostly(value, *others):
    """``value`` five times in six, else one of ``others``: so that most runs
    get past the faults they hold few of."""
    return st.sampled_from([value] * 5 * len(others) + list(others))


def flag_lists(options):
    """Up to two flags of ``options`` (flag -> values, a valid one first;
    None for a switch), and now and then an unknown flag or a last
    ``--trials`` without its value."""
    pair = st.sampled_from(sorted(options)).flatmap(
        lambda flag: st.just([flag]) if options[flag] is None
        else mostly(*options[flag]).map(lambda value: [flag, value]))
    return st.builds(lambda pairs, tail: [word for p in pairs for word in p] + tail,
                     st.lists(pair, max_size=2),
                     mostly([], ["--bogus"], ["--trials"]))


@st.composite
def config_bytes(draw):
    """The bundled file sized to one point of at most 64 trials, with a line
    or two changed, dropped or added, as bytes: now and then a byte-order
    mark, CRLF ends, a NUL or a byte that is not UTF-8."""
    values = {**parse_kv_file(default_config_path()), "snr_points_db": "130",
              "trials_per_point": "64", "batch_size": "32", "schemes": "noma-sic,noma-jml,oma"}
    others = sorted(set(SCHEMA) - {"snr_points_db", "trials_per_point"})
    for _ in range(draw(mostly(0, 1, 2))):
        values[draw(st.sampled_from(others))] = draw(st.sampled_from(LINE_VALUES))
    values["trials_per_point"] = draw(mostly(*TRIALS))
    values["snr_points_db"] = draw(mostly(*POINTS))
    if key := draw(mostly(None, *others)):
        del values[key]
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines.append(draw(mostly("# x", "", "seed = 2", "unknown_key = 1", "=", "seed")))
    data = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if bad := draw(mostly(b"", b"\x00", b"\xff", b"\xc3")):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bad + data[at:]
    return data


def place(root: Path, kind: str) -> Path | None:
    """An output path of the given kind under root; None for none at all."""
    path = root / "out.csv"
    if kind == "existing":
        path.write_text("old\n")
    elif kind == "directory":
        path.mkdir()
    elif kind == "dangling":
        path.symlink_to(root / "nowhere" / "x.csv")
    elif kind == "missing":
        path = root / "nowhere" / "out.csv"
    elif kind == "too-long":
        path = root / f"{TOO_LONG}.csv"
    elif kind == "read-only":
        (root / "ro").mkdir(mode=0o555)
        path = root / "ro" / "out.csv"
    elif kind == "read-only-file":
        path.write_text("old\n")
        path.chmod(0o444)
    return None if kind == "absent" else path


def written_fields(root: Path):
    """Every field of every CSV row under root, comments and headers skipped."""
    for csv in root.rglob("*.csv"):
        if csv.is_file():
            for line in csv.read_text().splitlines()[1:]:
                if not line.startswith("#"):
                    yield from line.split(",")


REPRODUCE_ALL_MAIN = load_file().main


@settings(max_examples=300, deadline=None)
@given(data=config_bytes(), config=mostly("file", "directory", "missing", "too-long"),
       out=mostly("new", *PLACES[1:]), script=st.booleans(), command=st.sampled_from(COMMANDS),
       flags=st.data())
def test_input_boundary_exits_0_or_1_naming_the_fault(data, config, out, script, command,
                                                      flags):
    """Whatever the config bytes, flags and output path, ``vlcnoma`` and
    ``reproduce_all.py`` exit 0 with CSVs free of NaN and infinities, or 1
    with a message naming a config key, a flag or a path."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cfg = {"file": root / "fuzz.cfg", "directory": root, "missing": root / "none.cfg",
               "too-long": root / TOO_LONG}[config]
        if config == "file":
            cfg.write_bytes(data)
        target = place(root, out)
        argv = ["--config", str(cfg)]
        if script:
            argv = ([] if target is None else [str(target)]) + argv
            argv += flags.draw(flag_lists(SCRIPT_FLAGS))
        else:
            argv = command + argv + ([] if target is None else ["--out", str(target)])
            if command == ["simulate"]:
                argv += flags.draw(flag_lists(SIMULATE_FLAGS))
            else:
                argv += flags.draw(mostly([], ["--bogus"], ["--seed", "1"], ["--out"]))
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)  # where a run without an output path writes
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    mock.patch.dict(os.environ, {"VLCNOMA_WORKERS": "1"}):
                status = (REPRODUCE_ALL_MAIN if script else main)(argv)
        finally:
            os.chdir(cwd)
            if (root / "ro").exists():
                (root / "ro").chmod(0o755)
        message = err.getvalue()
        assert status in (0, 1), message
        if status == 1:
            names = [*SCHEMA, *(word for word in argv if word.startswith("-")), str(cfg),
                     *([] if target is None else [str(target)]), "command", "figure"]
            assert any(name in message for name in names), message
            if out == "new" and not script:  # the CLI checks all it reads before it writes
                assert not target.exists()
        else:
            bad = [field for field in written_fields(root)
                   if field.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")]
            assert not bad, bad
