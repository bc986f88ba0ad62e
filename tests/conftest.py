import pytest
from hypothesis import settings

from vlcnoma import ChannelGains, SpectralEfficiencies, design_constellation, montecarlo
from vlcnoma.channel import OpticalFrontEnd, ScenarioGeometry

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
