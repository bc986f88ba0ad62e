"""Closed-form symbol error rates and decoder complexity accounting.

The edge user's SER under the interference-as-noise rule is exact.  The
center users' SER has no closed form once stage-1 mistakes propagate, so
only the no-propagation lower bound is provided.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelGains
from .constellation import ConstellationSet, uniform_spacing
from .errors import ParameterError
from .link import center_user, oma_sizes


def q_function(t):
    """Standard normal tail probability, Q(t) = erfc(t / sqrt(2)) / 2.

    scipy is imported here, on first use, because importing it costs most of
    the package's import time and only the closed forms need it.
    """
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


def _per_sigma(sigma) -> np.ndarray:
    """sigma as a float array, checked: every value >= 0 (inf too, not NaN)."""
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(sigma >= 0):
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    return sigma


def _result(value: np.ndarray):
    """A float for one sigma, else the array of one value per sigma."""
    return float(value) if value.ndim == 0 else value


def ser_u2_analytic(cset: ConstellationSet, gains: ChannelGains, sigma):
    """Exact SER of the edge user under the interference-as-noise rule, for
    noise of standard deviation sigma: a float, or one per sigma of an array.

    The combined edge levels are uniformly spaced, 2*gamma apart.  Center
    levels i+1 and j+1 shift the noiseless point up by h21*c1[i] +
    h22*c2[j], so the boundary above is rho+ = gamma - shift away and the
    one below rho- = gamma + shift, and

        SER = (1 - 2^-b2) * mean over (i, j) of [Q(rho+/sigma) + Q(rho-/sigma)]

    where each sigma's mean runs over one contiguous row of the (i, j)
    pairs.  At sigma = 0 the continuous limit is returned: each tail
    probability becomes an indicator of its boundary distance being
    negative (one half exactly on the boundary).  Requires uniform per-cell
    edge spacing; otherwise one gamma does not describe the constellation.
    """
    sigma = _per_sigma(sigma)
    gap1 = uniform_spacing(cset.cell1_edge, "cell1_edge")
    gap2 = uniform_spacing(cset.cell2_edge, "cell2_edge")
    gamma = 0.5 * gap1 * gains.h21 + 0.5 * gap2 * gains.h22
    shift = (gains.h21 * cset.cell1_center[:, np.newaxis]
             + gains.h22 * cset.cell2_center[np.newaxis, :]).reshape(-1)
    rho_plus, rho_minus = gamma - shift, gamma + shift
    zero = sigma[..., np.newaxis] == 0
    scale = np.where(zero, 1.0, sigma[..., np.newaxis])
    tails = np.where(zero, _indicator(rho_plus) + _indicator(rho_minus),
                     q_function(rho_plus / scale) + q_function(rho_minus / scale))
    return _result((1.0 - 1.0 / cset.bpcu.sizes[1]) * tails.mean(axis=-1))


def _indicator(rho: np.ndarray) -> np.ndarray:
    return np.where(rho < 0, 1.0, np.where(rho == 0, 0.5, 0.0))


def ser_center_lower_bound(cset: ConstellationSet, gains: ChannelGains, sigma, user: int):
    """No-error-propagation lower bound on a center user's SER: a float, or
    one per sigma of an array.

    Models the center user as plain PAM with its own level gap, assuming the
    stage-1 subtraction is always correct; real SIC does worse, so the
    simulated SER sits above this value.
    """
    sigma = _per_sigma(sigma)
    _, own, h = center_user(cset, gains, user)
    gap = uniform_spacing(own, f"u{user}")
    zero = sigma == 0
    bound = 2.0 * (1.0 - 1.0 / own.size) * q_function(gap * h / (2.0 * np.where(zero, 1.0, sigma)))
    return _result(np.where(zero, 0.0, bound))


def closed_forms(schemes, cset: ConstellationSet, gains: ChannelGains, sigmas) -> dict:
    """The closed form or bound of every (scheme, user) SER of ``schemes``,
    user "u1", "u2" or "u3": a list of one float per sigma, None where there
    is none.

    Center users of either superposed scheme get the no-propagation lower
    bound, evaluated once for both; the edge user gets the exact SER under
    the interference-as-noise rule only.  Each function runs once over the
    whole sigma grid.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    bounds: dict = {}
    forms: dict = {}
    for scheme in schemes:
        for user in ("u1", "u2", "u3"):
            if scheme == "oma" or (user == "u2" and scheme != "noma-sic"):
                forms[scheme, user] = None
            elif user == "u2":
                forms[scheme, user] = ser_u2_analytic(cset, gains, sigmas).tolist()
            else:
                if user not in bounds:
                    bounds[user] = ser_center_lower_bound(cset, gains, sigmas,
                                                          int(user[1])).tolist()
                forms[scheme, user] = bounds[user]
    return forms


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
