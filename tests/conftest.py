import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from vlcnoma import (ChannelGains, SpectralEfficiencies, design_constellation, experiments,
                     montecarlo)
from vlcnoma.channel import OpticalFrontEnd, ScenarioGeometry
from vlcnoma.config import default_config_path

# Tests that need a worker count set their own; none, child processes
# included, sees the shell's.
os.environ.pop("VLCNOMA_WORKERS", None)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPT = ROOT / "scripts" / "reproduce_all.py"


def run_python(*args: str, env: dict[str, str] | None = None, timeout: float = 120,
               check: bool = True) -> subprocess.CompletedProcess:
    """``python *args`` in a child process on this interpreter, with ``src``
    first on PYTHONPATH and ``env`` on top of this process's environment."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, **(env or {})},
                          timeout=timeout, check=check)


def load_file(path: Path = SCRIPT):
    """The module of a Python file outside the package, by default
    ``scripts/reproduce_all.py``, executed afresh."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# A child's code around a command of the CLI: it limits its own address space
# to 1,000,000 KiB, as `ulimit -v 1000000` limits a shell's commands, runs the
# code given, then the command, and prints its own peak RSS in KiB last.  That
# is VmHWM: ru_maxrss also counts the RSS of the process it was spawned from.
IN_1_GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1_000_000 << 10,) * 2)
{}
from vlcnoma.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_cli_in_1_gb(tmp_path: Path, bpcu: tuple[int, int, int], *argv: str,
                    before: str = "") -> tuple[list[str], str, int]:
    """``vlcnoma *argv --config C --out O`` under ``-W error`` in a child process
    limited to 1 GB of address space, after the code ``before``, where C is the
    bundled config at efficiencies ``bpcu``.  Asserts exit 0 and a non-empty O;
    returns the lines the child printed before its peak, O's text and the peak
    (VmHWM in KiB)."""
    keys = dict(zip(("bpcu_u1", "bpcu_u2", "bpcu_u3"), bpcu))
    lines = [line for line in default_config_path().read_text().splitlines()
             if line.partition("=")[0].strip() not in keys]
    config, out = tmp_path / "limited.cfg", tmp_path / "limited.csv"
    config.write_text("\n".join(lines + [f"{key} = {value}" for key, value in keys.items()])
                      + "\n")
    result = run_python("-W", "error", "-c", IN_1_GB.format(before), *argv,
                        "--config", str(config), "--out", str(out), timeout=300, check=False)
    assert result.returncode == 0, result.stderr
    *printed, peak = result.stdout.splitlines()
    assert out.stat().st_size > 0
    return printed, out.read_text(), int(peak)


# A deterministic, deeper search, selected with --hypothesis-profile=ci; tests
# that fix max_examples themselves keep their own count.
settings.register_profile("ci", derandomize=True, max_examples=1000)

# Reference scenario: room and link geometry of the bundled default config.
REFERENCE_GAINS = ChannelGains(h11=2.5892e-6, h21=7.8573e-7, h22=6.8573e-7, h32=3.5892e-6)


@pytest.fixture(scope="session")
def reference_gains():
    return REFERENCE_GAINS


@pytest.fixture(scope="session")
def reference_geometry():
    return ScenarioGeometry(
        room_height_m=4.0,
        cell_radius_m=3.6,
        rx_height_u1_m=0.5,
        rx_height_u2_m=0.5,
        rx_height_u3_m=1.0,
        r11_m=0.4885,
        r21_m=3.2880,
        r22_m=3.4670,
        r32_m=0.3030,
    )


@pytest.fixture(scope="session")
def reference_front_end():
    return OpticalFrontEnd(
        semi_angle_deg=60.0,
        detector_area_m2=1e-4,
        responsivity_a_per_w=0.4,
        filter_gain=1.0,
        fov_deg=60.0,
        concentrator_index=1.5,
    )


@pytest.fixture(scope="session")
def reference_bpcu():
    return SpectralEfficiencies(3, 2, 2)


@pytest.fixture(scope="session")
def reference_set(reference_bpcu, reference_gains):
    return design_constellation(reference_bpcu, reference_gains, 1.0)


@pytest.fixture
def streams_drawn(monkeypatch):
    """The (seed, point, batch) of every Philox stream that sweeps draw during the test."""
    calls = []
    philox_stream = montecarlo.philox_stream

    def counted(*args):
        calls.append(args)
        return philox_stream(*args)

    monkeypatch.setattr(montecarlo, "philox_stream", counted)
    return calls


@pytest.fixture
def no_sweep(monkeypatch):
    """Fails the test if any experiment runs a sweep."""
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(experiments, "run_sweep", sweep)
