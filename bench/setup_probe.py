"""Child interpreter that measures the benchmark's set-up phase.

Usage: python3 bench/setup_probe.py SRC_DIR

Set-up is ``import vlcnoma``, ``load_config`` (bundled defaults),
``effective_gains`` and ``design_constellation`` at the reference rates.
Prints one JSON line.  ``done`` is ``time.perf_counter()`` at the end of
set-up; on Linux that clock is CLOCK_MONOTONIC, shared by every process, so
the parent subtracts its own reading taken just before it started this
interpreter to get set-up time from interpreter start.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import vlcnoma  # noqa: E402

imported = time.perf_counter()
cfg = vlcnoma.load_config()
configured = time.perf_counter()
gains = cfg.effective_gains()
gains_done = time.perf_counter()
vlcnoma.design_constellation(vlcnoma.SpectralEfficiencies(3, 2, 2), gains, cfg.target_power_w)
done = time.perf_counter()
# With the bundled gain override, effective_gains never calls gain_matrix;
# time it on its own so the channel layer is still measured.
vlcnoma.gain_matrix(cfg.geometry, cfg.front_end)
gain_matrix_end = time.perf_counter()

print(json.dumps({
    "module_file": vlcnoma.__file__,
    "done": done,
    "import.vlcnoma_s": imported - start,
    "config.load_config.ms": (configured - imported) * 1e3,
    "constellation.design_constellation.ms": (done - gains_done) * 1e3,
    "channel.gain_matrix.ms": (gain_matrix_end - done) * 1e3,
}))
