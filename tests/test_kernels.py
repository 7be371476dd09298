import warnings

import mpmath
import numpy as np

from wavemoment import _kernels
from wavemoment._kernels import (SERIES_SWITCH, centred_phase_integral,
                                half_angle, mirror_index, phase_integral,
                                row_blocks)

import oracles

DURATION = 8.0 * np.pi + 1.0
EPS = np.finfo(float).eps


def test_phase_integral_matches_masked_reference():
    rng = np.random.default_rng(5)
    sw = SERIES_SWITCH
    edges = np.array([f * sw * u for f in (0.5, 1.0, 2.0)
                      for u in (1, -1, 1j, -1j, (1 + 1j) / abs(1 + 1j))])
    cases = [
        np.zeros(4, dtype=complex),
        edges,
        rng.standard_normal(300) * 40 + 1j * rng.standard_normal(300),
        np.append(edges, [0.0, 3.0 - 0.2j, -7.5, 1e3j, -40.0]).reshape(4, 5),
        np.array([[0.0, 1e-320], [0.25j, -0.25j]]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for delta in cases:
            got = phase_integral(delta, DURATION)
            assert got.shape == np.shape(delta)
            assert np.array_equal(got, oracles.phase_integral_masked(
                delta, DURATION, sw))
            assert np.all(np.isfinite(got))
        for delta in (0.0, 0.5 * sw, 2.0 * sw, 1.5 - 0.5j):
            got = phase_integral(delta, DURATION)
            assert isinstance(got, np.complexfloating)
            assert got == oracles.phase_integral_masked(delta, DURATION, sw)
    assert phase_integral(0.0, DURATION) == DURATION


def test_row_blocks_cover_rows_within_block_size(monkeypatch):
    for rows, width in ((0, 5), (1, 10 ** 6), (100, 3), (1000, 1000)):
        blocks = row_blocks(rows, width)
        assert [i for b in blocks for i in range(rows)[b]] == list(range(rows))
        assert all(b.stop - b.start == 1
                   or (b.stop - b.start) * width <= _kernels.BLOCK_ELEMENTS
                   for b in blocks)
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", 7)
    assert row_blocks(5, 3) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert row_blocks(2, 8) == [slice(0, 1), slice(1, 2)]


def test_mirror_index_pairs_each_frequency_with_its_mirror():
    # an involution j -> j' with freqs[j'] == -conj(freqs[j]); equal
    # frequencies (a duplicated pair, a self-mirrored 2j and 0 twice) pair
    # in their order
    freqs = np.array([1.5, 2j, -1.5 + 0.25j, 0.0, -1.5, 1.5 + 0.25j, 0.0,
                      1.5, 2j, -1.5])
    pair = mirror_index(freqs)
    assert np.array_equal(freqs[pair], -np.conj(freqs))
    assert np.array_equal(pair[pair], np.arange(freqs.size))
    assert np.array_equal(pair, [4, 1, 5, 3, 0, 2, 6, 9, 8, 7])
    for broken in (np.append(freqs, 0.5), np.append(freqs, 0.5j)[1:],
                   np.array([1.0 + 0.5j, -1.0 - 0.5j])):
        assert mirror_index(broken) is None


def mp_phase_integral(delta, duration):
    """int_0^T e^{i delta t} dt for an mpmath ``delta``, at its precision."""
    t = mpmath.mpf(duration)
    if delta == 0:
        return t
    return (mpmath.exp(1j * delta * t) - 1) / (1j * delta)


def test_centred_phase_integral_is_the_exact_integral_to_rounding():
    # real frequencies against real modes at resonance, near it and far
    # from it: within a few roundings of the 40-digit integral of the exact
    # nu - w, with no series switch
    rng = np.random.default_rng(8)
    w = np.array([1.224744871391589, 3.3, 150.7])
    nu = np.concatenate([rng.uniform(-300.0, 300.0, 40), w, w + 2.5e-5,
                         w + 1e-7, [-150.7, 0.0]])
    got = centred_phase_integral(
        half_angle(nu, DURATION),
        tuple(part[:, None] for part in half_angle(w, DURATION)), DURATION)
    assert got.shape == (w.size, nu.size)
    with mpmath.workdps(40):
        for i, j in np.ndindex(got.shape):
            want = mp_phase_integral(mpmath.mpf(nu[j]) - mpmath.mpf(w[i]),
                                     DURATION)
            assert abs(got[i, j] - want) <= 8 * EPS * abs(want)
    assert np.all(got[np.arange(3), 40 + np.arange(3)] == DURATION)


def test_centred_phase_integral_keeps_the_difference_of_close_nodes():
    # two nodes 2.5e-5 apart, far from w: the difference of their integrals
    # (6e-4 of each) within the two integrals' own rounding; (nu - w) T
    # rounded per node, as phase_integral takes it, misses it by 2e-11
    w = np.array([[1.5]])
    nu = np.array([200.1234567, 200.1234567 + 2.5e-5])
    got = centred_phase_integral(
        half_angle(nu, DURATION),
        tuple(part[:, None] for part in half_angle(w[:, 0], DURATION)),
        DURATION)[0]
    plain = phase_integral(nu - w, DURATION)[0]
    with mpmath.workdps(40):
        want = [mp_phase_integral(mpmath.mpf(x) - mpmath.mpf(1.5), DURATION)
                for x in nu]
        diff = want[1] - want[0]
        assert abs((got[1] - got[0]) - diff) <= 1e-12 * abs(diff)
        assert abs((plain[1] - plain[0]) - diff) > 1e-11 * abs(diff)
