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

from .errors import GeometryError, ParameterError

USERS = (1, 2, 3)


@dataclass(frozen=True)
class ScenarioGeometry:
    """Room layout: one value per user height, one top-view distance per link.

    The four links are Tx1-U1, Tx1-U2, Tx2-U2 and Tx2-U3; U2 is the
    cell-edge user served by both transmitters.
    """

    room_height_m: float
    cell_radius_m: float
    rx_heights_m: tuple[float, float, float]
    r11_m: float
    r21_m: float
    r22_m: float
    r32_m: float

    def __post_init__(self):
        if self.room_height_m <= 0:
            raise GeometryError(f"room_height_m must be > 0, got {self.room_height_m}")
        if self.cell_radius_m <= 0:
            raise GeometryError(f"cell_radius_m must be > 0, got {self.cell_radius_m}")
        for w, height in zip(USERS, self.rx_heights_m):
            if not 0 <= height < self.room_height_m:
                raise GeometryError(
                    f"rx_height_u{w}_m must be in [0, room_height_m), got {height}"
                )
        for name in ("r11_m", "r21_m", "r22_m", "r32_m"):
            if getattr(self, name) < 0:
                raise GeometryError(f"{name} must be >= 0, got {getattr(self, name)}")


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
        if self.detector_area_m2 <= 0:
            raise ParameterError(f"detector_area_m2 must be > 0, got {self.detector_area_m2}")
        if self.responsivity_a_per_w <= 0:
            raise ParameterError(
                f"responsivity_a_per_w must be > 0, got {self.responsivity_a_per_w}"
            )
        if self.filter_gain <= 0:
            raise ParameterError(f"filter_gain must be > 0, got {self.filter_gain}")
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
        raise GeometryError(
            f"receiver height {rx_height_m} must be below room height {room_height_m}"
        )
    if top_view_m < 0:
        raise GeometryError(f"top-view distance must be >= 0, got {top_view_m}")
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
    return (
        (zeta + 1.0)
        * front_end.detector_area_m2
        * front_end.responsivity_a_per_w
        * math.pow(cosine, zeta)
        * front_end.filter_gain
        * g
        * cosine
        / (2.0 * math.pi * d * d)
    )


def gain_matrix(geometry: ScenarioGeometry, front_end: OpticalFrontEnd) -> ChannelGains:
    """Gains of all four links.

    Check ``ordering_diagnostic()`` on the result; the matrix itself is
    returned even when the ordering is infeasible.
    """
    L = geometry.room_height_m
    heights = geometry.rx_heights_m
    return ChannelGains(
        h11=dc_gain(front_end, geometry.r11_m, L, heights[0]),
        h21=dc_gain(front_end, geometry.r21_m, L, heights[1]),
        h22=dc_gain(front_end, geometry.r22_m, L, heights[1]),
        h32=dc_gain(front_end, geometry.r32_m, L, heights[2]),
    )
