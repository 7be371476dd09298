"""Closed-form primitives for oscillatory integrals on [0, duration].

Everything here reduces to exact antiderivatives of exponentials; the only
numerical care is the small-argument series that avoids cancellation in
(e^{ix} - 1)/x type expressions.  The series switch doubles as the resonant
limit: at delta == 0 the formulas below return the exact limits.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

SERIES_SWITCH = 1e-6

# Entries per block of a blocked dense evaluation: a complex temporary of a
# block takes 256 KiB whatever the problem size, so the few that a block
# needs stay in a core's L2 cache.  Each thread of ``map_blocks`` holds its
# own block's temporaries, so T threads hold T blocks' worth at once.
BLOCK_ELEMENTS = 1 << 14

# Threads of one ``map_blocks`` call at most, whatever the CPU count.  Each
# thread's block temporaries, and the free memory its malloc arena keeps
# after them, add about 1.5 MiB to the peak: the peak RSS of a K sweep up to
# m = 1024 grew by 2.8 % on 2 threads and by 5.3 % on 4 against one.
MAX_THREADS = 2


def row_blocks(rows: int, width: int) -> list:
    """Slices over ``rows`` rows of ``width`` entries, each slice covering at
    most BLOCK_ELEMENTS entries (at least one row)."""
    step = max(1, BLOCK_ELEMENTS // max(width, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def workers() -> int:
    """The threads of ``map_blocks``: one per CPU this process may run on
    (its affinity mask, which ``taskset`` narrows, or the machine's CPU
    count where the mask cannot be read), at most MAX_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_THREADS)


def map_blocks(body, blocks) -> list:
    """``[body(block) for block in blocks]``, on ``workers()`` threads when
    there are at least two blocks per thread, else in this thread.

    The results come back in block order, and the exception of the first
    block (in that order) whose body raised is raised here, once every
    thread has finished.  A body must write only its own block's slices, so
    the output is the same bits whatever the number of threads, and must
    call no function that perfbench/spans.py traces, whose span stack is one
    per process.  numpy's exponentials and copies release the GIL, which is
    what runs the blocks at once.  The threads live for this call only.
    """
    blocks = list(blocks)
    count = workers()
    if count < 2 or len(blocks) < 2 * count:
        return [body(block) for block in blocks]
    with ThreadPoolExecutor(count) as pool:
        return list(pool.map(body, blocks))


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
