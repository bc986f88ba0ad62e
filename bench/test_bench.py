"""The benchmark's own test: ``python -m pytest bench`` runs its self-test mode."""

import subprocess
import sys
from pathlib import Path


def test_self_test():
    run = Path(__file__).with_name("run.py")
    out = subprocess.run([sys.executable, str(run), "--self-test"],
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
