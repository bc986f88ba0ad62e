"""Link-level simulator for a two-cell indoor visible-light system where a
cell-edge user is jointly served by both cells through power-domain
superposition.  Everything else is imported from its submodule."""

from .analytic import ser_u2_analytic
from .channel import ChannelGains, gain_matrix
from .config import load_config
from .constellation import SpectralEfficiencies, design_constellation
from .montecarlo import SweepConfig, run_sweep

__all__ = [
    "ChannelGains", "SpectralEfficiencies", "SweepConfig", "design_constellation",
    "gain_matrix", "load_config", "run_sweep", "ser_u2_analytic",
]

__version__ = "0.1.0"
