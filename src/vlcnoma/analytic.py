"""Closed-form symbol error rates and decoder complexity accounting.

The edge user's SER under the interference-as-noise rule is exact: its
received constellation is uniformly spaced, the center users shift the
noiseless point toward the next boundary by a known amount, and averaging
the two tail probabilities over all center symbol pairs gives

    SER = (1 - 2^-b2) * mean over (u1, u3) of [Q(rho+/sigma) + Q(rho-/sigma)]

where rho+/- are the distances to the upper/lower decision boundary.  The
center users' SER has no closed form once stage-1 mistakes propagate, so
only the no-propagation lower bound is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .channel import ChannelGains
from .constellation import ConstellationSet, uniform_spacing
from .errors import ParameterError
from .link import oma_sizes


def q_function(t):
    """Standard normal tail probability, Q(t) = erfc(t / sqrt(2)) / 2."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class DecisionBoundaries:
    """Noiseless boundary distances for the edge user.

    ``gamma`` is the half-gap between consecutive combined edge levels.
    ``rho_plus[i, j]`` / ``rho_minus[i, j]`` are the distances to the next /
    previous boundary when center users transmit levels i+1 and j+1; the
    always-positive interference shifts the signal upward, so
    rho_plus = gamma - shift and rho_minus = gamma + shift.
    """

    gamma: float
    rho_plus: np.ndarray
    rho_minus: np.ndarray


def decision_boundaries(cset: ConstellationSet, gains: ChannelGains) -> DecisionBoundaries:
    """Boundary distances from the first consecutive pair of edge levels.

    Requires uniform per-cell spacing, otherwise a single gamma does not
    describe the whole constellation.
    """
    gap1 = uniform_spacing(cset.cell1_edge, "cell1_edge")
    gap2 = uniform_spacing(cset.cell2_edge, "cell2_edge")
    gamma = 0.5 * gap1 * gains.h21 + 0.5 * gap2 * gains.h22
    shift = (
        gains.h21 * cset.cell1_center[:, np.newaxis]
        + gains.h22 * cset.cell2_center[np.newaxis, :]
    )
    return DecisionBoundaries(
        gamma=float(gamma),
        rho_plus=gamma - shift,
        rho_minus=gamma + shift,
    )


def ser_u2_analytic(cset: ConstellationSet, gains: ChannelGains, sigma2: float) -> float:
    """Exact SER of the edge user under the interference-as-noise rule.

    At sigma2 = 0 the continuous limit is returned: each tail probability
    becomes an indicator of its boundary distance being negative (one half
    exactly on the boundary).
    """
    if not sigma2 >= 0:
        raise ParameterError(f"sigma2 must be >= 0, got {sigma2}")
    b = decision_boundaries(cset, gains)
    m2 = cset.bpcu.sizes[1]
    if sigma2 == 0:
        tails = _indicator(b.rho_plus) + _indicator(b.rho_minus)
    else:
        tails = q_function(b.rho_plus / sigma2) + q_function(b.rho_minus / sigma2)
    return float((1.0 - 1.0 / m2) * tails.mean())


def _indicator(rho: np.ndarray) -> np.ndarray:
    return np.where(rho < 0, 1.0, np.where(rho == 0, 0.5, 0.0))


def ser_center_lower_bound(
    cset: ConstellationSet, gains: ChannelGains, sigma: float, user: int
) -> float:
    """No-error-propagation lower bound on a center user's SER.

    Models the center user as plain PAM with its own level gap, assuming the
    stage-1 subtraction is always correct; real SIC does worse, so the
    simulated SER sits above this value.
    """
    if not sigma >= 0:
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    if user == 1:
        gap = uniform_spacing(cset.cell1_center, "cell1_center")
        h, m = gains.h11, cset.bpcu.sizes[0]
    elif user == 3:
        gap = uniform_spacing(cset.cell2_center, "cell2_center")
        h, m = gains.h32, cset.bpcu.sizes[2]
    else:
        raise ParameterError(f"lower bound applies to users 1 and 3, got {user}")
    if sigma == 0:
        return 0.0
    return float(2.0 * (1.0 - 1.0 / m) * q_function(gap * h / (2.0 * sigma)))


def closed_form(
    scheme: str, user: str, cset: ConstellationSet, gains: ChannelGains, sigma: float
) -> float | None:
    """The closed form or bound for one (scheme, user) SER, None if there is none.

    Center users of either superposed scheme get the no-propagation lower
    bound; the edge user gets the exact SER under the interference-as-noise
    rule only.
    """
    if scheme == "oma":
        return None
    if user in ("u1", "u3"):
        return ser_center_lower_bound(cset, gains, sigma, int(user[1]))
    if scheme == "noma-sic" and user == "u2":
        return ser_u2_analytic(cset, gains, sigma)
    return None


SCHEMES = ("noma-sic", "noma-jml", "oma")


def complexity_counts(bpcu, scheme: str) -> tuple[int, int]:
    """Decoding cost: (all-user total per channel use, edge user per channel use).

    Superposed schemes decode every channel use; center users pay for both
    SIC stages, the edge user pays its candidate count (all tuples under
    joint ML).  The orthogonal baseline runs doubled-efficiency PAM over a
    two-slot frame, so its per-channel-use figures are frame totals halved.
    """
    m1, m2, m3 = bpcu.sizes
    if scheme == "noma-sic":
        return (m1 + m2) + m2 + (m2 + m3), m2
    if scheme == "noma-jml":
        joint = m1 * m2 * m3
        return (m1 + m2) + joint + (m2 + m3), joint
    if scheme == "oma":
        o1, o2, o3 = oma_sizes(bpcu)
        return (o1 + o2 + o3) // 2, o2 // 2
    raise ParameterError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
