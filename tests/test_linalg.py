import numpy as np
import pytest

from wavemoment.exceptions import DimensionTooLarge, SingularSystem
from wavemoment.linalg import (MAX_DENSE_DIM, HermitianFactor,
                               cond_estimate_1norm, eig_dense,
                               factor_hermitian, solve_hermitian)
from wavemoment.tolerances import DEFAULT

import oracles

# frozen oracle values: roots of z^2 - z - 1 by bisection (see oracles.py)
GOLDEN_PLUS = 1.618033988749895
GOLDEN_MINUS = -0.6180339887498949


def test_oracle_golden_ratio_roots():
    r_hi = oracles.poly_root_bisection([1.0, -1.0, -1.0], 1.0, 2.0)
    r_lo = oracles.poly_root_bisection([1.0, -1.0, -1.0], -1.0, 0.0)
    assert abs(r_hi - GOLDEN_PLUS) < 1e-13
    assert abs(r_lo - GOLDEN_MINUS) < 1e-13


def test_eig_diagonal():
    res = eig_dense(np.diag([1.0, 2.0]))
    assert np.allclose(res.eigenvalues, [1.0, 2.0])
    assert np.allclose(np.abs(res.eigenvectors), np.eye(2), atol=1e-14)


def test_eig_identity_repeated():
    res = eig_dense(np.eye(2))
    assert np.allclose(res.eigenvalues, [1.0, 1.0])


def test_eig_companion_golden_ratio():
    comp = np.array([[1.0, 1.0], [1.0, 0.0]])  # companion of z^2 - z - 1
    res = eig_dense(comp)
    assert abs(res.eigenvalues[0] - GOLDEN_MINUS) < 1e-12
    assert abs(res.eigenvalues[1] - GOLDEN_PLUS) < 1e-12


def test_eig_ordering_and_unit_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = rng.integers(2, 9)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        res = eig_dense(a)
        key = np.lexsort((res.eigenvalues.imag, res.eigenvalues.real))
        assert np.array_equal(key, np.arange(n))
        norms = np.linalg.norm(res.eigenvectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(res.residuals <= 1e-10)


def test_eig_diagonal_similarity():
    # A = V D V^-1 with controlled cond(V) must reproduce diag(D)
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = rng.integers(2, 7)
        d = np.sort(rng.standard_normal(n) * 3.0)
        while True:
            v = rng.standard_normal((n, n))
            if np.linalg.cond(v) <= 100:
                break
        a = v @ np.diag(d) @ np.linalg.inv(v)
        res = eig_dense(a, tol=DEFAULT.replace(eig_tol=1e-8))
        assert np.allclose(res.eigenvalues.real, d, atol=1e-8)
        assert np.abs(res.eigenvalues.imag).max() < 1e-8


def test_eig_phase_fix_deterministic():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    r1 = eig_dense(a)
    r2 = eig_dense(a.copy())
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
    for j in range(2):
        v = r1.eigenvectors[:, j]
        i = int(np.argmax(np.abs(v)))
        assert v[i].imag == pytest.approx(0.0, abs=1e-15)
        assert v[i].real > 0


def test_eig_dimension_cap():
    with pytest.raises(DimensionTooLarge):
        eig_dense(np.eye(MAX_DENSE_DIM + 1))


def test_eig_rejects_nonfinite():
    with pytest.raises(ValueError):
        eig_dense(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_solve_identity():
    x, cond = solve_hermitian(np.eye(2), np.array([1.0, -2.0]))
    assert np.allclose(x, [1.0, -2.0])
    assert cond == pytest.approx(1.0)


def test_solve_diagonal():
    x, _ = solve_hermitian(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_solve_random_hpd_residuals():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = rng.integers(1, 17)
        m = rng.standard_normal((n, n))
        g = m @ m.T + 0.1 * np.eye(n)
        rhs = rng.standard_normal(n)
        x, cond = solve_hermitian(g, rhs)
        res = np.linalg.norm(g @ x - rhs)
        assert res <= 1e-10 * cond * np.linalg.norm(rhs)


def test_solve_with_supplied_factor_is_bitwise_identical():
    rng = np.random.default_rng(5)
    for n in (1, 4, 16, 64):
        m = rng.standard_normal((n, n))
        g = m @ m.T + 0.1 * np.eye(n)
        rhs = rng.standard_normal(n)
        factor = factor_hermitian(g)
        x, cond = solve_hermitian(g, rhs)
        x_f, cond_f = solve_hermitian(g, rhs, factor=factor)
        assert np.array_equal(x, x_f)
        assert cond == cond_f == factor.cond


def test_factor_in_place_matches_copying_factor():
    # m = 300 spans two column blocks of the Hermitian check and the 1-norm
    rng = np.random.default_rng(9)
    m = rng.standard_normal((300, 300))
    g = m @ m.T + 0.1 * np.eye(300)
    for order in "CF":
        s = np.array(g, order=order)
        kept = s.copy(order="K")
        ref = factor_hermitian(kept)
        assert np.array_equal(kept, s)
        assert ref.anorm == np.linalg.norm(s, 1)
        low = np.tril(ref.lu)
        assert np.allclose(low @ low.T, g, rtol=0,
                           atol=1e-13 * ref.anorm)
        got = factor_hermitian(s, overwrite=True)
        assert np.array_equal(got.lu, ref.lu)
        assert (got.anorm, got.cond) == (ref.anorm, ref.cond)
        # LAPACK factors a Fortran-ordered buffer in place, copies a C one
        assert np.shares_memory(got.lu, s) == (order == "F")
    g[0, -1] += 1e-6 * np.abs(g).max()
    with pytest.raises(ValueError, match="not symmetric"):
        factor_hermitian(g)
    # the Cholesky path is real: a complex matrix or right-hand side is
    # refused, not cast
    with pytest.raises(ValueError, match="real"):
        factor_hermitian(np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="real"):
        solve_hermitian(np.eye(2), np.array([1.0, 1.0j]))


def test_leading_blocks_of_the_factor():
    # L[:n, :n] factors S[:n, :n]; a breakdown at column j = 31 zeroes L_jj
    # onward, so the pivot guard fails the blocks with n >= 31 only
    rng = np.random.default_rng(17)
    m = rng.standard_normal((40, 40))
    g = m @ m.T / 40 + 0.1 * np.eye(40)
    g[30, 30] = -1.0
    rhs = rng.standard_normal(40)
    factor = factor_hermitian(g)
    assert factor.cond == np.inf
    for n in (1, 8, 30, 31, 40):
        lu = np.array(factor.lu[:n, :n], order="F")
        anorm = np.linalg.norm(g[:n, :n], 1)
        lead = HermitianFactor(lu, anorm, cond_estimate_1norm(lu, anorm))
        if n > 30:
            assert lead.cond == np.inf
            with pytest.raises(SingularSystem):
                solve_hermitian(g[:n, :n], rhs[:n], factor=lead)
            continue
        ref = factor_hermitian(g[:n, :n])
        assert np.allclose(np.tril(lu), np.tril(ref.lu), rtol=0, atol=1e-14)
        assert lead.cond == pytest.approx(ref.cond, rel=1e-10, abs=0)
        x, cond = solve_hermitian(g[:n, :n], rhs[:n], factor=lead)
        assert cond == lead.cond
        assert np.linalg.norm(g[:n, :n] @ x - rhs[:n]) <= \
            1e-12 * cond * np.linalg.norm(rhs[:n])


def test_scaled_solve_guards_pivots_of_the_scaled_matrix():
    # G = diag(1e-14, 1) fails the pivot guard; with d = diag(G)^(-1/2) the
    # factored matrix is the identity and G x = rhs is solved exactly
    g = np.diag([1e-14, 1.0])
    rhs = np.array([1e-14, -2.0])
    with pytest.raises(SingularSystem):
        solve_hermitian(g, rhs)
    d = np.array([1e7, 1.0])
    for factor in (None, factor_hermitian(np.eye(2))):
        x, cond = solve_hermitian(g, rhs, factor=factor, scale=d)
        assert np.allclose(x, [1.0, -2.0], rtol=1e-14, atol=0)
        assert cond == pytest.approx(1.0)


def test_factor_defers_singularity_to_solve():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    factor = factor_hermitian(g)
    assert factor.anorm == 2.0 and factor.cond == np.inf
    with pytest.raises(SingularSystem):
        solve_hermitian(g, np.array([1.0, 1.0]), factor=factor)
    with pytest.raises(ValueError):
        factor_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_solve_singular_raises():
    g = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularSystem):
        solve_hermitian(g, np.array([1.0, 1.0]))


def test_solve_rejects_non_hermitian():
    g = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_hermitian(g, np.array([1.0, 1.0]))


def test_solve_rhs_shape_check():
    with pytest.raises(ValueError):
        solve_hermitian(np.eye(2), np.ones(3))


def test_cond_estimate_basics():
    # the estimate is taken on the Cholesky factor (pocon)
    assert factor_hermitian(np.eye(4)).cond == pytest.approx(1.0)
    # 1-norm condition of diag(1, 10) is exactly 10
    assert factor_hermitian(np.diag([1.0, 10.0])).cond == pytest.approx(10.0)
    assert factor_hermitian(np.zeros((2, 2))).cond == np.inf
    assert factor_hermitian(np.ones((2, 2))).cond == np.inf
    assert cond_estimate_1norm(np.eye(3), 1.0) == pytest.approx(1.0)


def test_cond_estimate_follows_lapack_and_reproduces():
    # the same Hager-Higham iteration as LAPACK dpocon, whose result
    # varied in the last bits with the alignment of its work array; here
    # the estimate does not depend on what else was allocated
    from scipy.linalg.lapack import dpocon

    rng = np.random.default_rng(31)
    for n in (1, 2, 7, 40, 512):
        m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 2, size=n)
        g = m @ m.T + 1e-6 * np.eye(n)
        factor = factor_hermitian(g)
        rcond, info = dpocon(factor.lu, factor.anorm, uplo="L")
        assert info == 0
        assert factor.cond == pytest.approx(1.0 / rcond, rel=1e-12)
    held = []
    for size in rng.integers(1, 3000, size=50):
        held.append(np.empty(int(size)))
        assert cond_estimate_1norm(factor.lu, factor.anorm) == factor.cond
