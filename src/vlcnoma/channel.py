"""Lambertian line-of-sight DC channel gains for indoor optical links.

The scenario is two ceiling LEDs (one per cell) facing straight down and
three single-photodiode receivers facing straight up, so for every link the
emission angle at the LED equals the incidence angle at the detector.
Angles are degrees at all public interfaces and radians internally.

The gain of one link is

    h = (zeta + 1) * A_D * R_p * cos(phi)^zeta * T * g(psi) * cos(psi)
        -----------------------------------------------------------
                             2 * pi * d^2

inside the detector field of view and exactly zero outside it, where zeta
is the Lambertian order of the LED, A_D the detection area, R_p the
photodiode responsivity, T the optical filter gain, and g the concentrator
gain.  The concentrator is modelled as the standard non-imaging hemisphere,
g = n_c^2 / sin^2(psi_fov) inside the field of view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class ScenarioGeometry:
    """Room layout: one value per user height, one top-view distance per link.

    The four links are Tx1-U1, Tx1-U2, Tx2-U2 and Tx2-U3; U2 is the
    cell-edge user served by both transmitters.
    """

    room_height_m: float
    cell_radius_m: float
    rx_height_u1_m: float
    rx_height_u2_m: float
    rx_height_u3_m: float
    r11_m: float
    r21_m: float
    r22_m: float
    r32_m: float

    def __post_init__(self):
        for name in ("room_height_m", "cell_radius_m"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("rx_height_u1_m", "rx_height_u2_m", "rx_height_u3_m"):
            if not 0 <= getattr(self, name) < self.room_height_m:
                raise ParameterError(
                    f"{name} must be in [0, room_height_m), got {getattr(self, name)}"
                )
        for name in ("r11_m", "r21_m", "r22_m", "r32_m"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class OpticalFrontEnd:
    """LED and photodiode parameters shared by all links."""

    semi_angle_deg: float
    detector_area_m2: float
    responsivity_a_per_w: float
    filter_gain: float
    fov_deg: float
    concentrator_index: float

    def __post_init__(self):
        lambertian_order(self.semi_angle_deg)
        if not 0 < self.fov_deg <= 90:
            raise ParameterError(f"fov_deg must be in (0, 90], got {self.fov_deg}")
        for name in ("detector_area_m2", "responsivity_a_per_w", "filter_gain"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.concentrator_index < 1:
            raise ParameterError(
                f"concentrator_index must be >= 1, got {self.concentrator_index}"
            )


@dataclass(frozen=True)
class ChannelGains:
    """The four link gains; h11/h21 from Tx1, h22/h32 from Tx2."""

    h11: float
    h21: float
    h22: float
    h32: float

    def __post_init__(self):
        for name in ("h11", "h21", "h22", "h32"):
            if not getattr(self, name) >= 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")

    def ordering_diagnostic(self) -> str | None:
        """Why the gains cannot support the power ordering, or None when each
        center user outgains the edge user in its own cell."""
        problems = []
        if self.h11 <= self.h21:
            problems.append(f"h11={self.h11!r} <= h21={self.h21!r} in cell 1")
        if self.h32 <= self.h22:
            problems.append(f"h32={self.h32!r} <= h22={self.h22!r} in cell 2")
        return "; ".join(problems) if problems else None


def lambertian_order(semi_angle_deg: float) -> float:
    """Radiation-pattern exponent of an LED from its half-power semi-angle.

    zeta = -1 / log2(cos(semi_angle)); a 60 degree semi-angle gives exactly 1.
    """
    if not 0 < semi_angle_deg < 90:
        raise ParameterError(f"semi_angle_deg must be in (0, 90), got {semi_angle_deg}")
    log_cos = math.log2(math.cos(math.radians(semi_angle_deg)))
    if log_cos == 0:
        raise ParameterError(f"semi_angle_deg {semi_angle_deg} is too small to have an order")
    return -1.0 / log_cos


def link_geometry(
    top_view_m: float, room_height_m: float, rx_height_m: float
) -> tuple[float, float]:
    """Distance and angle cosine of one LED-to-photodiode link.

    Returns ``(d, cosine)``.  With both devices facing vertically the
    emission and incidence cosines are equal: (L - L_w) / d.
    """
    if room_height_m <= rx_height_m:
        raise ParameterError(
            f"receiver height {rx_height_m} must be below room height {room_height_m}"
        )
    if top_view_m < 0:
        raise ParameterError(f"top-view distance must be >= 0, got {top_view_m}")
    drop = room_height_m - rx_height_m
    d = math.hypot(top_view_m, drop)
    return d, drop / d


def concentrator_gain(incidence_deg: float, fov_deg: float, refractive_index: float) -> float:
    """Non-imaging concentrator gain: n^2 / sin^2(fov) inside the FOV, else 0."""
    if not 0 <= incidence_deg <= 90:
        raise ParameterError(f"incidence angle must be in [0, 90], got {incidence_deg}")
    if incidence_deg > fov_deg:
        return 0.0
    s = math.sin(math.radians(fov_deg))
    if s * s == 0:  # sin^2 underflows: the field of view is narrower than any float resolves
        return math.inf
    return refractive_index * refractive_index / (s * s)


def dc_gain(
    front_end: OpticalFrontEnd,
    top_view_m: float,
    room_height_m: float,
    rx_height_m: float,
) -> float:
    """DC gain of one link, zero when the incidence angle exceeds the FOV."""
    zeta = lambertian_order(front_end.semi_angle_deg)
    d, cosine = link_geometry(top_view_m, room_height_m, rx_height_m)
    psi_deg = math.degrees(math.acos(min(cosine, 1.0)))
    g = concentrator_gain(psi_deg, front_end.fov_deg, front_end.concentrator_index)
    sphere = 2.0 * math.pi * d * d
    if sphere == 0:  # d * d underflows: the link is closer than any float resolves
        return math.inf
    return (
        (zeta + 1.0)
        * front_end.detector_area_m2
        * front_end.responsivity_a_per_w
        * math.pow(cosine, zeta)
        * front_end.filter_gain
        * g
        * cosine
        / sphere
    )


def _keys_read(name: str) -> str:
    """The config keys that the computed gain ``name``, h<w><c> for receiver w
    and transmitter c, reads."""
    return (f"room_height_m, rx_height_u{name[1]}_m, r{name[1:]}_m and the front-end keys"
            " semi_angle_deg, fov_deg, filter_gain, responsivity_a_per_w, detector_area_m2"
            " and concentrator_index")


def gain_matrix(geometry: ScenarioGeometry, front_end: OpticalFrontEnd) -> ChannelGains:
    """Gains of all four links.

    Check ``ordering_diagnostic()`` on the result; the matrix itself is
    returned even when the ordering is infeasible.  A gain that is not
    finite is rejected, naming the keys it reads.
    """
    L = geometry.room_height_m
    gains = {
        "h11": dc_gain(front_end, geometry.r11_m, L, geometry.rx_height_u1_m),
        "h21": dc_gain(front_end, geometry.r21_m, L, geometry.rx_height_u2_m),
        "h22": dc_gain(front_end, geometry.r22_m, L, geometry.rx_height_u2_m),
        "h32": dc_gain(front_end, geometry.r32_m, L, geometry.rx_height_u3_m),
    }
    for name, h in gains.items():
        if not math.isfinite(h):
            raise ParameterError(f"computed gain {name} = {h!r} is not finite; it reads"
                                 f" {_keys_read(name)}")
    return ChannelGains(**gains)
