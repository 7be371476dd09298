"""Closed-form primitives for oscillatory integrals on [0, duration].

Everything here reduces to exact antiderivatives of exponentials.  For
complex arguments the numerical care is the small-argument series that
avoids cancellation in (e^{ix} - 1)/x type expressions; the series switch
doubles as the resonant limit: at delta == 0 the formulas below return the
exact limits.  For real arguments ``centred_phase_integral`` needs no
series, and forms its arguments exactly to first order.
"""

from __future__ import annotations

import numpy as np

SERIES_SWITCH = 1e-6

# Entries per block of a blocked dense evaluation: a complex temporary of a
# block takes 256 KiB whatever the problem size, so the few that a block
# needs stay in a core's L2 cache.
BLOCK_ELEMENTS = 1 << 14


def row_blocks(rows: int, width: int) -> list:
    """Slices over ``rows`` rows of ``width`` entries, each slice covering at
    most BLOCK_ELEMENTS entries (at least one row)."""
    step = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def mirror_index(freqs):
    """The permutation j -> j' with freqs[j'] == -conj(freqs[j]), or None
    when the frequency set is not closed under that mirror.

    Equal frequencies pair in their order, so the map is an involution: a
    self-mirrored (purely imaginary) frequency maps to itself or to an equal
    partner.  For a real control the terms on j and j' are conjugates.
    """
    freqs = np.asarray(freqs)
    mirror = -np.conj(freqs)
    pair = np.lexsort((freqs.imag, freqs.real))[
        np.argsort(np.lexsort((mirror.imag, mirror.real)))]
    return pair if np.array_equal(freqs[pair], mirror) else None


def phase_integral(delta, duration, switch=SERIES_SWITCH):
    """Integral of e^{i*delta*t} dt over [0, duration].

    Closed form (e^{i*delta*T} - 1)/(i*delta); for |delta| <= switch a
    second-order series T*(1 + x/2 + x^2/6), x = i*delta*T, which is exact
    in the resonant limit delta -> 0.  The closed form runs over the whole
    array in its output buffer, silently dividing 0 by 0 at delta == 0 (and
    overflowing at subnormal delta); the series then overwrites the entries
    at or below the switch.
    Accepts scalars or arrays, complex delta allowed; long-double input is
    evaluated in long double.
    """
    d = np.asarray(delta)
    d = d.astype(np.result_type(d, complex), copy=False)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    i_d = 1j * d
    out = i_d * duration
    np.exp(out, out=out)
    out -= 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out /= i_d
    small = np.abs(d) <= switch
    x = 1j * d[small] * duration
    out[small] = duration * (1.0 + x / 2.0 + x * x / 6.0)
    return out[0] if scalar else out


def half_angle(x, duration):
    """x * duration / 2 for real x as a pair (hi, lo) of arrays whose sum is
    the exact product (Dekker's two-product, Numer. Math. 18, 1971; x and
    duration far from overflow)."""
    x = np.asarray(x, dtype=float)
    half = duration / 2.0
    hi = x * half
    x_hi, x_lo = _split(x)
    h_hi, h_lo = _split(half)
    lo = ((x_hi * h_hi - hi) + x_hi * h_lo + x_lo * h_hi) + x_lo * h_lo
    return hi, lo


def unit_phase(pair):
    """e^{i x T} from ``pair`` = half_angle(x, T): e^{2i hi}, exact in its
    argument, corrected to first order in lo."""
    hi, lo = pair
    out = np.exp(2j * hi)
    cos, sin = out.real.copy(), out.imag.copy()
    out.real -= 2.0 * lo * sin
    out.imag += 2.0 * lo * cos
    return out


def _split(x):
    """Veltkamp's split of x into a 26-bit head and the rest, exactly."""
    scaled = 134217729.0 * x
    head = scaled - (scaled - x)
    return head, x - head


def centred_phase_integral(theta, phi, duration):
    """``phase_integral(nu - w, duration)`` for real nu and w, from the
    pairs theta = half_angle(nu) and phi = half_angle(w), broadcast
    against each other: T e^{iy} sin(y) / y with y = (nu - w) T / 2, T at
    y == 0.

    y is taken as theta - phi to first order in its rounding (Knuth's
    two-sum), and e^{iy} and sin(y) are corrected by that rounding, so
    only the rounding of the exponential and of the products remains:
    nodes close to each other far from w keep their exact difference in
    y, which (nu - w) * T, rounded once per node, loses by up to
    eps |y|.  No series is needed: sin(y) / y has no cancellation.
    """
    t_hi, t_lo = theta
    p_hi, p_lo = phi
    y = t_hi - p_hi
    back = y - t_hi
    lo = (t_hi - (y - back)) - (p_hi + back)
    lo += t_lo - p_lo
    out = np.exp(1j * y)
    cos, sin = out.real, out.imag
    sin_y = sin + cos * lo
    cos_y = cos - sin * lo
    y += lo
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = sin_y / y
    scale *= duration
    np.copyto(scale, duration, where=y == 0)
    np.multiply(scale, cos_y, out=cos)
    np.multiply(scale, sin_y, out=sin)
    return out


def ramp_integral(nu, duration, switch=SERIES_SWITCH):
    """Integral of (duration - t) * e^{i*nu*t} dt over [0, duration].

    This is the zero-frequency Duhamel kernel: sin(w s)/w -> s as w -> 0.
    """
    n = np.asarray(nu, dtype=complex)
    scalar = n.ndim == 0
    n = np.atleast_1d(n)
    out = np.empty(n.shape, dtype=complex)
    small = np.abs(n) <= switch
    x = 1j * n[small] * duration
    out[small] = duration * duration * (0.5 + x / 6.0 + x * x / 24.0)
    big = ~small
    nb = 1j * n[big]
    out[big] = (np.exp(nb * duration) - 1.0) / (nb * nb) - duration / nb
    return out[0] if scalar else out


def segment_moment(mu, h):
    """Integral of t * e^{i*mu*t} dt over [0, h] (first moment on a segment)."""
    m = np.asarray(mu, dtype=complex)
    scalar = m.ndim == 0
    m = np.atleast_1d(m)
    out = np.empty(m.shape, dtype=complex)
    small = np.abs(m) <= SERIES_SWITCH
    y = 1j * m[small] * h
    out[small] = h * h * (0.5 + y / 3.0 + y * y / 8.0)
    big = ~small
    mb = 1j * m[big]
    e = np.exp(mb * h)
    out[big] = (h * e) / mb - (e - 1.0) / (mb * mb)
    return out[0] if scalar else out
