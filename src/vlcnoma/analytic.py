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

# erfc as scipy.special.erfc computes doubles, from Cephes' ndtr.c (S. L.
# Moshier): 1 - x T(x^2) / U(x^2) for |x| < 1, else exp(-x^2) P(|x|) / Q(|x|)
# below 8 and exp(-x^2) R(|x|) / S(|x|) from 8, and 2 minus that for x < 0.
MAXLOG = 7.09782712893383996843e2  # past x^2 = MAXLOG, exp(-x^2) underflows: 0 or 2
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

EXP_SLICE = 1 << 14  # entries per erfc branch slice, math.exp list and ser_u2_analytic chunk


def _horner(x, coefs):  # coefs[0] x^n + ... + coefs[n], each step rounded as in Cephes
    y = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def erfc(x) -> np.ndarray:
    """Complementary error function, bit for bit scipy.special.erfc's for doubles: separate
    numpy multiplies and adds round as the C's do, and exp is libm's, not numpy's."""
    flat = np.asarray(x, dtype=float).reshape(-1)
    a = np.abs(flat)
    with np.errstate(over="ignore"):  # a square that overflows is past MAXLOG anyway
        square = a * a
    # the rationals see only |x| <= sqrt(MAXLOG), so none overflows; NaN is in none
    small = np.flatnonzero(a < 1.0)
    out = 1.0 - np.sign(flat)  # 0 or 2 where exp(-x^2) underflows, NaN for NaN
    for part in (small[k:k + EXP_SLICE] for k in range(0, small.size, EXP_SLICE)):
        out[part] = 1.0 - flat[part] * _horner(square[part], _T) / _horner(square[part], _U)
    for low, high, num, den in ((1.0, 8.0, _P, _Q), (8.0, math.inf, _R, _S)):
        tail = np.flatnonzero((a >= low) & (a < high) & (square <= MAXLOG))
        for part in (tail[k:k + EXP_SLICE] for k in range(0, tail.size, EXP_SLICE)):
            v = a[part]  # each rational on its own entries, math.exp on one slice at a time
            y = (np.fromiter(map(math.exp, (-square[part]).tolist()), float, v.size)
                 * _horner(v, num) / _horner(v, den))
            out[part] = np.where(flat[part] < 0, 2.0 - y, y)
    return out.reshape(np.shape(x))


def q_function(t):
    """Standard normal tail probability, Q(t) = erfc(t / sqrt(2)) / 2."""
    return 0.5 * erfc(np.asarray(t, dtype=float) / math.sqrt(2.0))


def _per_sigma(sigma) -> np.ndarray:
    """sigma as a float array, checked: every value >= 0 (inf too, not NaN)."""
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(sigma >= 0):
        raise ParameterError(f"sigma must be >= 0, got {sigma}")
    return sigma


def _tail(d, sigma) -> np.ndarray:
    """Q(d / sigma), and at sigma = 0 its limit (1 - sign d) / 2."""
    zero = sigma == 0
    q = np.asarray(q_function(d / np.where(zero, 1.0, sigma)))  # 0-d: an array, not a scalar
    np.copyto(q, 0.5 * (1.0 - np.sign(d)), where=zero)
    return q


def ser_u2_analytic(cset: ConstellationSet, gains: ChannelGains, sigma):
    """Exact SER of the edge user under the interference-as-noise rule, for
    noise of standard deviation sigma: a float, or one per sigma of an array.

    The combined edge levels are uniformly spaced, 2*gamma apart.  Center
    levels i+1 and j+1 shift the noiseless point up by h21*c1[i] +
    h22*c2[j], so the boundary above is rho+ = gamma - shift away and the
    one below rho- = gamma + shift, and

        SER = (1 - 2^-b2) * mean over (i, j) of [Q(rho+/sigma) + Q(rho-/sigma)]

    where each sigma's mean runs over one contiguous row of the (i, j)
    pairs.  Sigmas go in chunks of whole rows, at most EXP_SLICE entries or
    one row, so memory does not grow with their number.  At sigma = 0 the
    continuous limit is returned.  Requires uniform per-cell edge spacing;
    otherwise one gamma does not describe the constellation.
    """
    sigma = _per_sigma(sigma)
    gamma = (0.5 * uniform_spacing(cset.cell1_edge, "cell1_edge") * gains.h21
             + 0.5 * uniform_spacing(cset.cell2_edge, "cell2_edge") * gains.h22)
    shift = (gains.h21 * cset.cell1_center[:, np.newaxis]
             + gains.h22 * cset.cell2_center[np.newaxis, :]).reshape(-1)
    rho = np.stack((gamma - shift, gamma + shift), axis=-1)
    flat, mean = sigma.reshape(-1, 1, 1), np.empty(sigma.size)
    step = max(1, EXP_SLICE // rho.size)  # whole rows: a split row would sum in another order
    for start in range(0, sigma.size, step):
        q = _tail(rho, flat[start:start + step])
        mean[start:start + step] = (q[..., 0] + q[..., 1]).mean(axis=-1)
    ser = (1.0 - 1.0 / cset.bpcu.sizes[1]) * mean.reshape(sigma.shape)
    return float(ser) if ser.ndim == 0 else ser


def ser_center_lower_bound(cset: ConstellationSet, gains: ChannelGains, sigma, user: int):
    """No-error-propagation lower bound on a center user's SER: a float, or
    one per sigma of an array.

    Models the center user as plain PAM with its own level gap, assuming the
    stage-1 subtraction is always correct; real SIC does worse, so the
    simulated SER sits above this value.
    """
    sigma = _per_sigma(sigma)
    _, own, h = center_user(cset, gains, user)
    ser = 2.0 * (1.0 - 1.0 / own.size) * _tail(uniform_spacing(own, f"u{user}") * h, 2.0 * sigma)
    return float(ser) if ser.ndim == 0 else ser


def closed_forms(schemes, cset: ConstellationSet, gains: ChannelGains, sigmas) -> dict:
    """The closed form or bound of every (scheme, user) SER of ``schemes``,
    user "u1", "u2" or "u3": a list of one float per sigma (one sigma may
    be a float), None where there is none or the levels it reads are not
    uniformly spaced.

    Center users of either superposed scheme get the no-propagation lower
    bound, evaluated once for both; the edge user gets the exact SER under
    the interference-as-noise rule only.
    """
    sigmas = _per_sigma(np.atleast_1d(sigmas))

    def grid(form, *user) -> list | None:
        try:
            return form(cset, gains, sigmas, *user).tolist()
        except ParameterError:  # with sigma checked, only uniform_spacing raises
            return None

    values = ({user: grid(ser_center_lower_bound, int(user[1])) for user in ("u1", "u3")}
              if any(scheme != "oma" for scheme in schemes) else {})
    if "noma-sic" in schemes:
        values["u2"] = grid(ser_u2_analytic)
    return {(scheme, user): None if scheme == "oma" or (user == "u2" and scheme != "noma-sic")
            else values[user] for scheme in schemes for user in ("u1", "u2", "u3")}


SCHEMES = ("noma-sic", "noma-jml", "oma")


def complexity_counts(bpcu, scheme: str) -> tuple[int, int]:
    """Decoding cost: (all-user total per channel use, edge user per channel use).

    Superposed schemes decode every channel use; center users pay for both
    SIC stages, the edge user pays its candidate count (all tuples under
    joint ML).  The orthogonal baseline runs doubled-efficiency PAM over a
    two-slot frame, so its per-channel-use figures are frame totals halved.
    """
    m1, m2, m3 = bpcu.sizes
    edge = {"noma-sic": m2, "noma-jml": m1 * m2 * m3}.get(scheme)
    if edge is not None:  # both superposed schemes pay the same center-user SIC
        return (m1 + m2) + edge + (m2 + m3), edge
    if scheme == "oma":
        o1, o2, o3 = oma_sizes(bpcu)
        return (o1 + o2 + o3) // 2, o2 // 2
    raise ParameterError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
