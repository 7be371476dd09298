import math

import numpy as np
import pytest

from wavemoment.coupling import CouplingSystem, decompose
from wavemoment.exceptions import CollisionInBlock
from wavemoment.spectrum import (build_edd, build_frequencies,
                                 detect_collisions, gap_diagnostics)

import oracles


def spec_for(eigvals, coupling_shape=True):
    """Spectral decomposition of a matrix with the given distinct eigenvalues."""
    eigvals = list(eigvals)
    n = len(eigvals)
    if n == 1:
        return decompose(CouplingSystem(np.array([[eigvals[0]]]),
                                        np.array([1.0])))
    # lower-triangular with ones below the diagonal, eigenvalues on it
    a = np.diag(eigvals).astype(float)
    for i in range(1, n):
        a[i, i - 1] = 1.0
    return decompose(CouplingSystem(a, np.eye(n)[0]))


def test_frequency_examples():
    grid = build_frequencies(spec_for([3.0]), 1)
    assert grid.omega_at(1, 1) == pytest.approx(2.0)

    grid = build_frequencies(spec_for([0.0]), 8)
    for k in range(1, 9):
        assert grid.omega_at(k, 1) == pytest.approx(k)
        assert grid.omega_at(-k, 1) == pytest.approx(-k)

    grid = build_frequencies(spec_for([-2.0]), 1)
    assert grid.omega_at(1, 1) == pytest.approx(1.0j)


def test_frequency_branch_and_square():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        lam = rng.standard_normal(n) * 3 + 1j * rng.standard_normal(n)
        spec = spec_for([0.0])  # placeholder, omega built directly below
        k = np.arange(1, 13, dtype=float)
        z = k[:, None] ** 2 + np.conj(lam)[None, :]
        from wavemoment.spectrum import _principal_branch

        w = _principal_branch(z)
        assert np.abs(w ** 2 - z).max() <= 1e-10 * (k[:, None] ** 2 + 1).max()
        assert np.all((w.real > 0) | ((w.real == 0) & (w.imag >= 0)))


def test_sign_extension_exact():
    spec = spec_for([-0.3, 0.5])
    grid = build_frequencies(spec, 6)
    for k in range(1, 7):
        for l in (1, 2):
            assert grid.omega_at(-k, l) == -grid.omega_at(k, l)
    freqs = grid.frequencies()
    idx = grid.signed_indices()
    assert len(freqs) == len(idx) == 4 * 6
    for (k, l), w in zip(idx, freqs):
        assert w == grid.omega_at(k, l)


def test_zero_mode_detection():
    grid = build_frequencies(spec_for([-1.0]), 2)
    assert (1, 1) in grid.zero_modes and (-1, 1) in grid.zero_modes
    assert grid.omega_at(1, 1) == 0


def test_collision_examples():
    # sqrt(1 + 3) = sqrt(4 + 0) = 2: modes (1, l_high) and (2, l_low) collide
    spec = spec_for([0.0, 3.0])
    grid = build_frequencies(spec, 2)
    l_low = 1 if abs(spec.eigenvalues[0]) < 1 else 2
    l_high = 3 - l_low
    assert ((1, l_high), (2, l_low)) in grid.collisions

    grid = build_frequencies(spec_for([0.0, 0.5]), 16)
    assert grid.collisions == []

    grid = build_frequencies(spec_for([0.7]), 16)
    assert grid.collisions == []


def test_collision_pairwise_oracle():
    spec = spec_for([0.0, 3.0, -1.0])
    grid = build_frequencies(spec, 5)
    freqs = grid.frequencies()
    idx = grid.signed_indices()
    tol = 1e-8 * (1 + grid.k_max)
    expect = set()
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if abs(freqs[a] - freqs[b]) <= tol:
                expect.add(tuple(sorted((idx[a], idx[b]))))
    assert set(grid.collisions) == expect


def test_edd_pair_block():
    # block frequencies {1, 2}: second function is e^{2it} - e^{it}
    spec = spec_for([0.0, 3.0])
    grid = build_frequencies(spec, 1)
    fam = build_edd(grid)
    blk = fam.blocks[1]
    assert np.allclose(blk.frequencies, [1.0, 2.0])
    assert np.allclose(blk.weights[1], [-1.0, 1.0])


def test_edd_triple_block_weights():
    # frozen oracle values for nodes {1, 2, 4}: 1/3, -1/2, 1/6
    assert np.allclose(oracles.dd_weights([1.0, 2.0, 4.0]),
                       [1 / 3, -1 / 2, 1 / 6])
    spec = spec_for([0.0, 3.0, 15.0])  # omega at k=1: 1, 2, 4
    grid = build_frequencies(spec, 1)
    fam = build_edd(grid)
    blk = fam.blocks[1]
    assert np.allclose(blk.frequencies, [1.0, 2.0, 4.0])
    assert np.allclose(blk.weights[2], [1 / 3, -1 / 2, 1 / 6])


def test_edd_recurrence_property():
    # weights satisfy the divided-difference recurrence on every block
    spec = spec_for([-0.3, 0.5, 2.2])
    grid = build_frequencies(spec, 8)
    fam = build_edd(grid)
    for k, blk in fam.blocks.items():
        for l in range(1, grid.n + 1):
            nodes = blk.frequencies[:l]
            assert np.allclose(blk.weights[l - 1], oracles.dd_weights(nodes),
                               rtol=1e-12, atol=1e-14)


def test_edd_triangular_reconstruction():
    spec = spec_for([-0.3, 0.5])
    grid = build_frequencies(spec, 4)
    fam = build_edd(grid)
    for k, blk in fam.blocks.items():
        w = blk.weight_matrix()
        assert np.allclose(w, np.tril(w))
        assert np.abs(np.diag(w)).min() > 0
        # invertibility: raw exponentials recoverable from the edd family
        recon = np.linalg.inv(w) @ w
        assert np.allclose(recon, np.eye(grid.n), atol=1e-12)


def test_edd_order_one_equals_raw():
    spec = spec_for([0.7])
    grid = build_frequencies(spec, 5)
    fam = build_edd(grid)
    for blk in fam.blocks.values():
        assert np.array_equal(blk.weight_matrix(), [[1.0]])
    assert np.allclose(fam.frequencies(), grid.frequencies())


def test_edd_collision_raises():
    spec = spec_for([0.0, 3.0])
    grid = build_frequencies(spec, 2)  # omega_{2,1} = omega_{1,2} = 2
    # the collision is across blocks, so edd still works ...
    fam = build_edd(grid)
    assert fam.blocks[2].frequencies[0] == pytest.approx(2.0)
    # ... but a within-block collision must raise; decompose would already
    # reject eigenvalues this close, so assemble the decomposition by hand
    from wavemoment.coupling import SpectralDecomposition

    near = SpectralDecomposition(
        eigenvalues=np.array([0.0, 1e-10], dtype=complex),
        eigenvectors=np.eye(2, dtype=complex),
        biorthogonal=np.eye(2, dtype=complex),
        beta=np.ones(2, dtype=complex),
        min_separation=1e-10)
    grid2 = build_frequencies(near, 2)
    with pytest.raises(CollisionInBlock):
        build_edd(grid2)


def test_edd_weight_scale_growth():
    # leading weight of the highest-order function grows like k^(N-1):
    # within a factor 4 of that power law over the upper half of the range
    spec = spec_for([0.0, 0.5])
    grid = build_frequencies(spec, 32)
    fam = build_edd(grid)
    ratios = []
    for k in range(16, 33):
        scale = fam.blocks[k].weight_scale[-1]
        ratios.append(scale / k ** (grid.n - 1))
    assert max(ratios) / min(ratios) < 4.0


def test_gap_products():
    spec = spec_for([0.0, 1.0])
    grid = build_frequencies(spec, 64)
    rep = gap_diagnostics(grid)
    # k * d_k -> 1/2 for eigenvalue gap 1
    assert rep.product[-1] == pytest.approx(0.5, rel=1e-3)
    assert rep.median_product == pytest.approx(0.5, rel=1e-2)
    assert rep.flagged == []

    spec = spec_for([0.0, 0.5])
    grid = build_frequencies(spec, 64)
    rep = gap_diagnostics(grid)
    assert rep.product[-1] == pytest.approx(0.25, rel=1e-3)


def test_gap_report_single_level():
    grid = build_frequencies(spec_for([0.3]), 8)
    rep = gap_diagnostics(grid)
    assert rep.k.size == 0 and rep.flagged == []
