"""Golden outputs of the reproduce script and the CLI, and the one simulation
behind figs. 2-4.

The files under ``tests/golden/`` are compared byte for byte.  After a
deliberate output change, rewrite them with
``PYTHONPATH=src python tests/test_reproduce.py`` and say why in CHANGES.md.
"""

import contextlib
import csv
import io
import os
from pathlib import Path
from unittest import mock

import pytest

from conftest import SCRIPT, load_file, run_python
from vlcnoma import analytic, experiments, montecarlo
from vlcnoma.cli import main as cli_main

GOLDEN = Path(__file__).resolve().with_name("golden")
CONFIG = GOLDEN / "golden.cfg"
GOLDEN_FILES = [f"reproduce/{name}.csv" for name in experiments.EXPERIMENTS] + [
    "simulate.csv", "trace.txt"]


def generate(outdir: Path) -> None:
    """Write every golden output into outdir: the reproduce script's on 1
    worker, simulate.csv on 2."""
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet, mock.patch.dict(os.environ, {"VLCNOMA_WORKERS": "1"}):
        assert load_file().main([str(outdir / "reproduce"), "--config", str(CONFIG)]) == 0
    with quiet, mock.patch.dict(os.environ, {"VLCNOMA_WORKERS": "2"}):
        assert cli_main(["simulate", "--config", str(CONFIG), "--out",
                         str(outdir / "simulate.csv"),
                         "--schemes", "noma-sic,noma-jml,oma"]) == 0
    trace = io.StringIO()
    with contextlib.redirect_stdout(trace):
        assert cli_main(["simulate", "--trace", "--config", str(CONFIG)]) == 0
    (outdir / "trace.txt").write_text(trace.getvalue())


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("golden")
    generate(outdir)
    return outdir


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_output_matches_golden(generated, name):
    assert (generated / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_the_figures_are_one_simulation(tmp_path, monkeypatch):
    # fig4 used to take fig3's rows from a second, config-keyed cache
    def counted(module, name):
        calls = []
        wrapped = getattr(module, name)

        def call(*args, **kwargs):
            calls.append(args[0].schemes)
            return wrapped(*args, **kwargs)

        monkeypatch.setattr(module, name, call)
        return calls

    simulated = counted(montecarlo, "_run_points")
    swept = counted(experiments, "run_sweep")
    monkeypatch.setenv("VLCNOMA_WORKERS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert load_file().main([str(tmp_path / "all"), "--config", str(CONFIG)]) == 0
    assert simulated == [analytic.SCHEMES]
    assert swept == [analytic.SCHEMES, analytic.SCHEMES, ("noma-sic",)]  # fig3, fig4, fig2
    for name in ("fig3", "fig4", "fig2"):
        alone = tmp_path / f"{name}.csv"
        assert cli_main(["reproduce", name, "--config", str(CONFIG), "--out", str(alone)]) == 0
        assert alone.read_bytes() == (tmp_path / "all" / f"{name}.csv").read_bytes()


def test_a_run_draws_each_batch_of_the_shared_sweep_once(tmp_path, monkeypatch, streams_drawn):
    # fig2's noma-sic sweep used to draw every stream of its batches again
    calls = streams_drawn
    monkeypatch.setenv("VLCNOMA_WORKERS", "1")
    with contextlib.redirect_stdout(io.StringIO()):
        assert load_file().main([str(tmp_path), "--config", str(CONFIG)]) == 0
    with (tmp_path / "fig4.csv").open() as fig4:  # the all-scheme sweep's u2 rows
        rows = csv.DictReader(line for line in fig4 if not line.startswith("#"))
        trials = {row["snr_db"]: int(row["trials"]) for row in rows}
    consumed = sum(-(-n // 512) for n in trials.values())  # golden.cfg's batch_size
    assert len(set(calls)) == len(calls) == consumed, (calls, trials)
    assert 3 < consumed < 12  # early stopping cut in, and more than one batch per point



def test_script_run_as_a_process_on_3_workers_writes_the_goldens(tmp_path):
    # golden.cfg has 3 points, so each worker, the calling thread among them, can take one
    out = tmp_path / "reproduce"
    run_python("-W", "error", str(SCRIPT), str(out), "--config", str(CONFIG),
               env={"VLCNOMA_WORKERS": "3"})
    golden = sorted((GOLDEN / "reproduce").iterdir())
    assert sorted(path.name for path in out.iterdir()) == [path.name for path in golden]
    for path in golden:
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("entry", ["cli", "script"])
def test_bad_trials_exits_1_from_the_command_line(tmp_path, entry):
    # the process exits with main()'s 1, not argparse's 2 nor a silent 0
    out = tmp_path / "r"
    argv = {"cli": ["-m", "vlcnoma.cli", "simulate", "--out", str(out)],
            "script": [str(SCRIPT), str(out)]}[entry]
    result = run_python(*argv, "--trials", "abc", check=False)
    assert result.returncode == 1, result.stderr
    assert "trials_per_point" in result.stderr, result.stderr
    assert not out.exists()


def test_bad_trials_exits_1_naming_the_key(tmp_path, capsys):
    # argparse's type=int used to exit 2 with a usage dump
    out = tmp_path / "r"
    assert load_file().main([str(out), "--trials", "abc"]) == 1
    err = capsys.readouterr().err
    assert "trials_per_point" in err and "--trials" in err, err
    assert not out.exists()


def test_trials_without_a_value_exits_1_naming_the_option(tmp_path, capsys):
    # argparse used to exit 2
    assert load_file().main([str(tmp_path / "r"), "--trials"]) == 1
    assert "--trials" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["gains", "fig2"])
def test_output_file_that_is_a_directory_exits_1_before_any_work(tmp_path, capsys, no_sweep,
                                                                 name):
    # gains.csv used to exit 2 on its write; fig2.csv after four experiments and a sweep
    (tmp_path / f"{name}.csv").mkdir()
    assert load_file().main([str(tmp_path), "--config", str(CONFIG)]) == 1
    assert str(tmp_path / f"{name}.csv") in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == [f"{name}.csv"]


def test_output_file_that_is_a_dangling_symlink_exits_1_before_any_work(tmp_path, capsys,
                                                                       no_sweep):
    # the link's own directory exists, its target's does not
    (tmp_path / "fig3.csv").symlink_to(tmp_path / "missing" / "fig3.csv")
    assert load_file().main([str(tmp_path), "--config", str(CONFIG)]) == 1
    assert str(tmp_path / "fig3.csv") in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["fig3.csv"]


def test_output_directory_that_cannot_be_made_exits_1_before_any_work(tmp_path, capsys,
                                                                     no_sweep):
    existing = tmp_path / "file"
    existing.write_text("kept\n")
    for outdir in (existing, existing / "sub"):
        assert load_file().main([str(outdir), "--config", str(CONFIG)]) == 1
        err = capsys.readouterr().err
        assert "output directory" in err and str(outdir) in err, err
    assert existing.read_text() == "kept\n"


def test_trials_flag_writes_what_its_config_key_does(tmp_path, monkeypatch):
    monkeypatch.setenv("VLCNOMA_WORKERS", "1")
    keyed = tmp_path / "keyed.cfg"
    keyed.write_text(CONFIG.read_text().replace("trials_per_point = 2048",
                                                "trials_per_point = 300"))
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet:
        assert load_file().main([str(tmp_path / "flag"), "--config", str(CONFIG),
                                 "--trials", "300"]) == 0
        assert load_file().main([str(tmp_path / "key"), "--config", str(keyed)]) == 0
    for name in experiments.EXPERIMENTS:
        flag, key = (tmp_path / side / f"{name}.csv" for side in ("flag", "key"))
        assert flag.read_bytes() == key.read_bytes(), name
    assert "trials_per_point = 300" in (tmp_path / "flag" / "fig2.csv").read_text()

if __name__ == "__main__":
    generate(GOLDEN)
