import warnings

import numpy as np

from wavemoment import _kernels
from wavemoment._kernels import (SERIES_SWITCH, mirror_index, phase_integral,
                                row_blocks)

import oracles

DURATION = 8.0 * np.pi + 1.0


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
