import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcnoma.cli import main
from vlcnoma.config import (SCHEMA, build_config, config_echo, default_config_path, load_config,
                            parse_kv_file, snr_grid)
from vlcnoma.errors import ConfigError


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

    def test_out_of_range_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("semi_angle_deg = 120\n")
        with pytest.raises(ConfigError, match="semi_angle_deg"):
            load_config(path)

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("# comment line\nsemiangle = 60\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'semiangle'"):
            load_config(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("room_height_m = 4.0\nnot a kv line\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config(path)

    def test_unparseable_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("trials_per_point = many\n")
        with pytest.raises(ConfigError, match="trials_per_point"):
            load_config(path)

    def test_partial_gain_override_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gain_h11 = 1e-6\ngain_h21 = 5e-7\n")
        with pytest.raises(ConfigError, match="gain override"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_inline_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("\nseed = 9  # pinned\n\n# trailing comment\n")
        assert load_config(path).sweep.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.cfg")

    def test_explicit_snr_points_key(self, tmp_path):
        path = tmp_path / "pts.cfg"
        path.write_text("snr_points_db = 140.0:143.5:151.25\n")
        assert load_config(path).sweep.snr_points_db == (140.0, 143.5, 151.25)

    def test_echo_round_trips(self):
        cfg = load_config()
        rebuilt = build_config(dict(config_echo(cfg)))
        assert rebuilt == cfg

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
        with pytest.raises(ConfigError):
            snr_grid(0.0, 1.0, 0.0)


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

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("fov_deg = 200\n")
        assert run_cli("gains", "--config", str(bad)) == 1
        assert "fov_deg" in capsys.readouterr().err

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

    def test_non_finite_snr_spec_exits_1(self, capsys):
        assert run_cli("simulate", "--snr", "nan:150:2") == 1
        assert "--snr" in capsys.readouterr().err

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
       override=st.booleans(), command=st.sampled_from(("design", "simulate")))
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
