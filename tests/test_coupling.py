import json
import math
import time

import numpy as np
import pytest

from wavemoment import cli
from wavemoment.coupling import (MAX_GAP, CouplingSystem, analyze, decompose,
                                 kalman_check, resonance_check)
from wavemoment.exceptions import BadInput, RepeatedEigenvalues
from wavemoment.tolerances import DEFAULT

import oracles

# lower-triangular benchmark pair used throughout: eigenvalues {-0.3, 0.5},
# eigenvector (0, 1) for -0.3 and (0.8, 1)/norm for 0.5
A2 = np.array([[0.5, 0.0], [1.0, -0.3]])
B2 = np.array([1.0, 0.0])


def test_system_validation():
    with pytest.raises(ValueError):
        CouplingSystem(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        CouplingSystem(np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        CouplingSystem(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(ValueError):
        CouplingSystem(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))


def test_decompose_diagonal():
    spec = decompose(CouplingSystem(np.diag([1.0, 2.0]), np.array([1.0, 1.0])))
    assert np.allclose(spec.eigenvalues, [1.0, 2.0])
    assert np.allclose(spec.eigenvectors, np.eye(2), atol=1e-14)
    assert np.allclose(spec.biorthogonal, np.eye(2), atol=1e-14)
    assert np.allclose(spec.beta, [1.0, 1.0])
    assert spec.min_separation == pytest.approx(1.0)


def test_decompose_triangular_benchmark():
    spec = decompose(CouplingSystem(A2, B2))
    assert np.allclose(spec.eigenvalues, [-0.3, 0.5], atol=1e-12)
    v_low = spec.eigenvectors[:, 0]
    v_high = spec.eigenvectors[:, 1]
    # eigenvector for -0.3 is (0, 1); for 0.5 proportional to (0.8, 1)
    assert abs(v_low[0]) < 1e-12
    ratio = v_high[0] / v_high[1]
    assert ratio == pytest.approx(0.8, abs=1e-12)


def test_decompose_conjugate_pair():
    spec = decompose(CouplingSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    np.array([1.0, 0.0])))
    assert np.allclose(spec.eigenvalues, [-1.0j, 1.0j])


def test_decompose_biorthogonality_random():
    rng = np.random.default_rng(5)
    done = 0
    while done < 60:
        n = rng.integers(1, 7)
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        if not np.any(b):
            continue
        try:
            spec = decompose(CouplingSystem(a, b))
        except RepeatedEigenvalues:
            continue
        gram = spec.eigenvectors.conj().T @ spec.biorthogonal
        assert np.abs(gram.conj().T - np.eye(n)).max() <= 1e-9
        # beta definition: <b, psi_l> = sum_m b_m conj(psi_{l,m})
        beta_direct = np.array([np.vdot(spec.biorthogonal[:, l], b)
                                for l in range(n)])
        assert np.allclose(beta_direct, spec.beta, atol=1e-10)
        done += 1


def test_decompose_rejects_repeated():
    with pytest.raises(RepeatedEigenvalues):
        decompose(CouplingSystem(np.eye(2), np.array([1.0, 0.0])))
    almost = np.diag([1.0, 1.0 + 1e-12])
    with pytest.raises(RepeatedEigenvalues):
        decompose(CouplingSystem(almost, np.array([1.0, 1.0])))


def kalman_rank(a, b):
    system = CouplingSystem(a, b)
    return kalman_check(system, decompose(system).eigenvalues)


def test_kalman_examples():
    assert kalman_rank(np.diag([1.0, 2.0]), np.array([1.0, 1.0])) == 2
    # b along the eigenvector of 1 leaves the eigenvalue 2 unreachable
    assert kalman_rank(np.diag([1.0, 2.0]), np.array([1.0, 0.0])) == 1
    assert kalman_rank(A2, B2) == 2


def test_kalman_iff_beta_nonzero():
    # rank N <=> all beta_l away from zero, over random diagonalizable systems
    rng = np.random.default_rng(17)
    done = 0
    while done < 500:
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal(n)
        try:
            spec = decompose(CouplingSystem(a, b))
        except RepeatedEigenvalues:
            continue
        rank = kalman_check(CouplingSystem(a, b), spec.eigenvalues)
        min_beta = np.abs(spec.beta).min()
        if rank == n:
            assert min_beta > 1e-12
        if min_beta > 1e-6:
            assert rank == n
        done += 1


def test_kalman_defect_from_orthogonal_b():
    # b built orthogonal to one dual vector kills the rank
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        d = np.sort(rng.standard_normal(n))
        while n >= 2 and np.diff(d).min() < 1e-3:
            d = np.sort(rng.standard_normal(n))
        v = rng.standard_normal((n, n))
        while np.linalg.cond(v) > 50:
            v = rng.standard_normal((n, n))
        a = v @ np.diag(d) @ np.linalg.inv(v)
        # b = combination of all eigenvectors but the first
        b = v[:, 1:] @ rng.standard_normal(n - 1)
        if not np.any(b):
            continue
        assert kalman_rank(a, b) < n


def dense_draw(n):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    return a, rng.standard_normal(n)


@pytest.mark.parametrize("n", [12, 16, 20, 24, 32])
def test_kalman_full_on_dense_draws(n):
    # the Krylov matrix's QR rank was 13, 12, 9 and 9 at N = 16, 20, 24 and 32
    assert kalman_rank(*dense_draw(n)) == n


def test_kalman_on_bidiagonal_systems():
    # e_1 reaches every eigenvector of a lower-bidiagonal A; e_N is the
    # eigenvector of the last diagonal entry, so it reaches that one only
    for n in range(2, 17):
        a = np.diag(np.linspace(-0.9, 2.0, n)) + np.diag(np.ones(n - 1), -1)
        assert kalman_rank(a, np.eye(n)[0]) == n
        assert kalman_rank(a, np.eye(n)[-1]) == 1


def test_kalman_with_b_in_an_invariant_subspace():
    # the Krylov matrix's QR rank was 17 here
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((32, 32)))[0]
    a = q @ np.diag(np.linspace(-0.9, 2.0, 32)) @ q.T
    b = q[:, :16] @ rng.standard_normal(16)
    assert kalman_rank(a, b) == 16


def test_analyze_dense_draw_beyond_krylov_precision():
    a, b = dense_draw(16)
    doc = {"A": a.tolist(), "b": b.tolist(), "T": 2 * math.pi * 16 + 1}
    report, code = cli.run("analyze", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert report["data"]["conditions"]["kalman_rank"] == 16


def test_resonance_examples():
    hits = resonance_check(np.array([0.0, 3.0]))
    quads = {h[:4] for h in hits}
    assert (2, 1, 2, 1) in quads
    assert (1, 2, 1, 2) in quads
    assert resonance_check(np.array([0.0, 0.5])) == []
    assert resonance_check(np.array([7.0])) == []


def test_resonance_symmetry_and_oracle():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        # mix integers (resonance-prone) and irrational-ish values
        lam = np.where(rng.random(n) < 0.5,
                       rng.integers(-4, 8, size=n).astype(float),
                       rng.standard_normal(n) * 4.0)
        lam = np.unique(lam)
        if len(lam) < 2:
            continue
        got = resonance_check(lam)
        quads = {h[:4] for h in got}
        for (k, l, i, j, _) in got:
            assert (l, k, j, i) in quads
        expect = {h[:4] for h in oracles.brute_resonances(lam, 1e-9)}
        assert quads == expect


def test_resonance_complex_gaps_never_match():
    lam = np.array([1.0j, -1.0j])  # gap +-2i, never equal to real k^2-l^2
    assert resonance_check(lam) == []


@pytest.mark.parametrize("res_tol", [1e-12, 0.3, 2.5])
def test_resonance_matches_enumeration(res_tol):
    # integers, half-integers, generic reals and complex-conjugate pairs
    # (some with an imaginary part below res_tol), against the walk over
    # every (k, l) up to the spread
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        kind = rng.integers(0, 3, size=n)
        lam = np.where(kind == 0, rng.integers(-20, 21, size=n),
                       np.where(kind == 1, rng.integers(-40, 41, size=n) / 2,
                                rng.uniform(-20, 20, size=n))).astype(complex)
        if n >= 3 and rng.random() < 0.5:
            im = float(rng.choice([1e-13, 0.1, 2.0]))
            lam[-1] = lam[-2].real - 1j * im
            lam[-2] = lam[-2].real + 1j * im
        assert resonance_check(lam, DEFAULT.replace(res_tol=res_tol)) == \
            oracles.resonances_enumerated(lam, res_tol)


def test_resonance_large_spread():
    # 10^9 = (k - l)(k + l) with both factors even, (k - l)(k + l) / 4 =
    # 2^7 5^9 = p q with p < q in 40 ways; the walk over every (k, l) up to
    # the spread would take hours
    started = time.perf_counter()
    hits = resonance_check(np.array([0.0, 1e9]))
    assert len({h[:4] for h in hits}) == len(hits) == 2 * 40
    assert all(k * k - l * l == (10 ** 9 if i == 2 else -10 ** 9)
               for k, l, i, j, defect in hits)
    assert resonance_check(np.array([0.0, 1e9 + 0.5])) == []
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("gap, res_tol", [
    (999999999989, 1e-9), (1000000000039, 2.5),  # primes near 1e12
    (10 ** 12, 1e-9), (999983 ** 2, 0.3),  # squares
    (2 ** 40, 1e-9), (2 ** 39, 1.5)])  # powers of two
def test_resonance_matches_trial_division_near_1e12(gap, res_tol):
    # the chunked divisor search against a Python loop of trial division
    lam = np.array([0.0, float(gap)])
    assert resonance_check(lam, DEFAULT.replace(res_tol=res_tol)) == \
        oracles.resonances_trial_division(lam, res_tol)


def test_resonance_gap_beyond_double_integers_is_bad_input():
    # the largest gap still split, in about half a second: 2^53 = (k - l)
    # (k + l) with both factors even and k > l >= 1 in 26 ways
    hits = resonance_check(np.array([0.0, float(MAX_GAP)]))
    assert len(hits) == 2 * 26
    for spread in (2.0 ** 53 + 2.0, 2.0 ** 63, 1e19, 1e300):
        with pytest.raises(BadInput, match="above 2\\^53"):
            resonance_check(np.array([0.0, spread]))
    # a gap far from any integer is never split, whatever its size
    assert resonance_check(np.array([0.0, 1e19 + 1e9j])) == []


def test_analyze_benchmark_controllable():
    rep = analyze(CouplingSystem(A2, B2), 4 * math.pi)
    assert rep.kalman_ok and rep.beta_ok and rep.t_ok
    assert rep.resonances == []
    assert rep.overall_controllable
    assert rep.t_min == pytest.approx(4 * math.pi)


def test_analyze_resonant_system():
    a = np.array([[3.0, 0.0], [1.0, 0.0]])  # eigenvalues {0, 3}
    rep = analyze(CouplingSystem(a, B2), 4 * math.pi)
    assert not rep.overall_controllable
    assert rep.resonances
    assert rep.kalman_ok  # rank itself is fine, resonance is the blocker


def test_analyze_time_threshold():
    sys2 = CouplingSystem(A2, B2)
    assert not analyze(sys2, 0.1).t_ok
    assert analyze(sys2, 4 * math.pi).t_ok  # exact threshold passes
    assert not analyze(sys2, 4 * math.pi - 1e-6).t_ok


def test_analyze_beta_zero_surfaced():
    # b equal to the eigenvector for -0.3 leaves beta_2 = 0
    rep = analyze(CouplingSystem(A2, np.array([0.0, 1.0])), 4 * math.pi)
    assert rep.kalman_rank < 2
    assert not rep.beta_ok
    assert min(rep.beta_magnitudes) <= 1e-12
    assert not rep.overall_controllable


def test_analyze_deterministic():
    r1 = analyze(CouplingSystem(A2, B2), 4 * math.pi)
    r2 = analyze(CouplingSystem(A2.copy(), B2.copy()), 4 * math.pi)
    assert r1 == r2
