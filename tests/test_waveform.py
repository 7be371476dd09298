import dataclasses
import math

import numpy as np
import pytest

from wavemoment import waveform
from wavemoment.coupling import CouplingSystem, decompose
from wavemoment.exceptions import GridTooCoarse
from wavemoment.moments import (ControlSignal, ModalState, TargetSpec,
                                assemble_gram, moments_from_target, synthesize,
                                target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies, build_raw
from wavemoment.tolerances import DEFAULT
from wavemoment.waveform import (duhamel_exact, evolve, evolve_quadrature,
                                 reconstruct, sobolev_norm, verify,
                                 wellposedness_ratio)

import oracles

TWO_PI = 2.0 * math.pi

A2 = np.array([[0.5, 0.0], [1.0, -0.3]])
B2 = np.array([1.0, 0.0])

SIN_T = ControlSignal(TWO_PI, [1.0, -1.0], [-0.5j, 0.5j])  # f(t) = sin t


def spec_for(eigvals):
    eigvals = list(eigvals)
    n = len(eigvals)
    if n == 1:
        return decompose(CouplingSystem(np.array([[eigvals[0]]]),
                                        np.array([1.0])))
    a = np.diag(eigvals).astype(float)
    for i in range(1, n):
        a[i, i - 1] = 1.0
    return decompose(CouplingSystem(a, np.eye(n)[0]))


def oracle_modal(spec, grid, f, duration):
    a = np.zeros((grid.k_max, grid.n), dtype=complex)
    adot = np.zeros_like(a)
    for ki in range(grid.k_max):
        for li in range(grid.n):
            a[ki, li], adot[ki, li] = oracles.duhamel(
                ki + 1, spec.eigenvalues[li], spec.beta[li], f, duration)
    return ModalState(a, adot)


def max_rel_diff(got, want):
    scale = 1.0 + np.maximum(np.abs(want.a), np.abs(want.adot))
    return float(np.max(np.maximum(np.abs(got.a - want.a),
                                   np.abs(got.adot - want.adot)) / scale))


def test_resonant_sine_example():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 2)
    modal = duhamel_exact(spec, grid, SIN_T, TWO_PI)
    assert modal.a[0, 0] == pytest.approx(-2.0, abs=1e-10)
    assert modal.adot[0, 0] == pytest.approx(0.0, abs=1e-10)


def test_zero_control():
    spec = spec_for([0.3, 2.0])
    grid = build_frequencies(spec, 3)
    zero = ControlSignal(TWO_PI, [1.0], [0.0])
    modal = duhamel_exact(spec, grid, zero, TWO_PI)
    assert np.allclose(modal.a, 0.0) and np.allclose(modal.adot, 0.0)


def test_nonresonant_matches_oracle():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 2)
    ctrl = ControlSignal(TWO_PI, [3.0], [1.0])
    got = duhamel_exact(spec, grid, ctrl, TWO_PI)
    want = oracle_modal(spec, grid, oracles.combo([3.0], [1.0]), TWO_PI)
    assert max_rel_diff(got, want) <= 1e-10

    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 3)
    freqs = [0.7, -1.3 + 0.1j]
    amps = [1.0, 0.4 - 0.2j]
    ctrl = ControlSignal(2 * TWO_PI, freqs, amps)
    got = duhamel_exact(spec, grid, ctrl, 2 * TWO_PI)
    want = oracle_modal(spec, grid, oracles.combo(freqs, amps), 2 * TWO_PI)
    assert max_rel_diff(got, want) <= 1e-10


def test_constant_control_example():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 1)
    ctrl = ControlSignal(3.0, [0.0], [1.0])
    modal = duhamel_exact(spec, grid, ctrl, 3.0)
    assert modal.a[0, 0] == pytest.approx((2 / math.pi) * (1 - math.cos(3.0)))
    assert modal.adot[0, 0] == pytest.approx((2 / math.pi) * math.sin(3.0))


def test_zero_frequency_mode():
    # eigenvalue -1 makes omega vanish at k = 1: ramp kernel
    spec = spec_for([-1.0])
    grid = build_frequencies(spec, 2)
    assert abs(grid.omega[0, 0]) == 0.0
    ctrl = ControlSignal(3.0, [0.0], [1.0])
    modal = duhamel_exact(spec, grid, ctrl, 3.0)
    assert modal.a[0, 0] == pytest.approx(9.0 / math.pi, abs=1e-12)
    assert modal.adot[0, 0] == pytest.approx(6.0 / math.pi, abs=1e-12)
    want = oracle_modal(spec, grid, oracles.combo([0.0], [1.0]), 3.0)
    assert max_rel_diff(modal, want) <= 1e-8

    # just off the degenerate point the closed form must continue smoothly
    spec = spec_for([-1.0 + 1e-8])
    grid = build_frequencies(spec, 2)
    modal = duhamel_exact(spec, grid, ctrl, 3.0)
    want = oracle_modal(spec, grid, oracles.combo([0.0], [1.0]), 3.0)
    assert max_rel_diff(modal, want) <= 1e-8


@pytest.mark.parametrize("block", [None, 40])
def test_duhamel_matches_per_mode_reference(block, monkeypatch):
    # modes in blocks of phase integrals, bitwise as one call per mode; a
    # control closed under the mirror nu -> -conj(nu) reads the backward
    # integrals of blocks of real modes as conjugates, bitwise as evaluated
    from wavemoment import _kernels

    if block is not None:  # 40 entries: one mode per block
        monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(17)
    systems = [
        (np.array([[-1.0, 0.0], [1.0, 0.5]]), 0),  # omega_{1,1} = 0
        (np.array([[0.2, 0.7], [-0.7, 0.2]]), 16),  # complex pair
        (np.array([[-1.1, 0.0], [1.0, 0.5]]), 1),  # omega_{1,1} imaginary
    ]
    for a, complex_modes in systems:
        spec = decompose(CouplingSystem(a, B2))
        grid = build_frequencies(spec, 8)
        assert np.count_nonzero(grid.omega.imag) == complex_modes
        assert (grid.omega == 0).any() == (a[0, 0] == -1.0)
        # not closed: 2.5 - 0.3j has no mirror
        freqs = np.concatenate([grid.frequencies(), [0.0, 2.5 - 0.3j]])
        amps = rng.standard_normal(freqs.size) \
            + 1j * rng.standard_normal(freqs.size)
        # closed, with conjugate amplitudes on mirrors: the positive-k
        # frequencies and their mirrors, a duplicated pair as pinned extras
        # add, and a self-mirrored imaginary term with a real amplitude
        half = np.append(grid.omega.ravel(), grid.omega[2, 1])
        coef = rng.standard_normal(half.size) \
            + 1j * rng.standard_normal(half.size)
        closed = (np.concatenate([half, -np.conj(half), [0.4j]]),
                  np.concatenate([coef, np.conj(coef), [0.7]]))
        for freqs, amps, pairing in ((freqs, amps, False),
                                     (*closed, True)):
            assert (_kernels.mirror_index(freqs) is not None) == pairing
            ctrl = ControlSignal(3 * TWO_PI + 1.0, freqs, amps)
            got = duhamel_exact(spec, grid, ctrl, ctrl.duration)
            want_a, want_adot = oracles.duhamel_per_mode(
                spec, grid, ctrl, ctrl.duration, DEFAULT)
            assert np.array_equal(got.a, want_a)
            assert np.array_equal(got.adot, want_adot)


def test_quadrature_exact_for_piecewise_linear():
    rng = np.random.default_rng(41)
    spec = spec_for([0.3])
    grid = build_frequencies(spec, 2)
    duration = 2.0
    tgrid = np.linspace(0.0, duration, 9)
    samples = rng.standard_normal(9)
    got = evolve_quadrature(spec, grid, samples, duration)
    f = lambda t: np.interp(t, tgrid, samples) + 0.0j
    want = oracle_modal(spec, grid, f, duration)
    assert max_rel_diff(got, want) <= 1e-9


def test_quadrature_second_order():
    spec = spec_for([0.5])
    grid = build_frequencies(spec, 2)
    ctrl = ControlSignal(TWO_PI, [0.7, -1.3], [1.0, 0.3])
    exact = duhamel_exact(spec, grid, ctrl, TWO_PI)
    errs = []
    for count in (129, 257, 513):
        _, values = ctrl.sample(count)
        got = evolve_quadrature(spec, grid, values, TWO_PI)
        errs.append(max_rel_diff(got, exact))
    assert 3.0 <= errs[0] / errs[1] <= 5.5
    assert 3.0 <= errs[1] / errs[2] <= 5.5


def test_evolve_oracle_residuals():
    rng = np.random.default_rng(43)
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    for _ in range(8):
        m = int(rng.integers(1, 4))
        freqs = rng.uniform(-2.0, 2.0, size=m)
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        amps /= max(1.0, np.abs(amps).sum())
        ctrl = ControlSignal(2 * TWO_PI, freqs, amps)
        result = evolve(spec, grid, ctrl, 2 * TWO_PI,
                        oracle_samples=2 ** 16 + 1)
        assert result.per_mode_residuals is not None
        assert result.per_mode_residuals.max() <= 1e-8


def test_quadrature_grid_too_coarse():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 8)
    _, values = ControlSignal(TWO_PI, [1.0], [1.0]).sample(33)
    with pytest.raises(GridTooCoarse):
        evolve_quadrature(spec, grid, values, TWO_PI)


def test_quadrature_ignores_the_series_switch_override():
    # the README control; an override of 1.0 reaches its lowest frequency,
    # 0.84, where the quadrature moved by 6.8e-9 when it took the override
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 8)
    modal = target_to_modal(TargetSpec({1: [1.0, 0.0], 2: [0.0, 1.0]},
                                       {1: [0.0, 1.0]}), spec, grid)
    gamma = moments_from_target(modal, spec, grid, 2 * TWO_PI)
    control = synthesize(assemble_gram(build_edd(grid), 2 * TWO_PI), gamma)
    _, values = control.sample(2048)
    want = evolve_quadrature(spec, grid, values, 2 * TWO_PI)
    for switch in (0.05, 1.0):
        got = evolve_quadrature(spec, grid, values, 2 * TWO_PI,
                                tol=DEFAULT.replace(series_switch=switch))
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.adot, want.adot)


def test_quadrature_input_validation():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 1)
    for values in ([], [1.0], [[1.0, 2.0], [3.0, 4.0]]):
        with pytest.raises(ValueError):
            evolve_quadrature(spec, grid, values, TWO_PI)


def test_time_continuity():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    ctrl = ControlSignal(2 * TWO_PI, [0.9, -1.7], [0.8, 0.5])
    base = duhamel_exact(spec, grid, ctrl, 2 * TWO_PI)

    def c_distance(h):
        moved = duhamel_exact(spec, grid, ctrl, 2 * TWO_PI + h)
        delta = ModalState(moved.a - base.a, moved.adot - base.adot)
        return sobolev_norm(delta, -1.0, table="c", grid=grid)

    hs = [1e-1, 1e-2, 1e-3, 1e-4]
    dists = [c_distance(h) for h in hs]
    rate = dists[0] / hs[0]
    for h, d in zip(hs[1:], dists[1:]):
        assert d <= 2.0 * rate * h
    assert dists == sorted(dists, reverse=True)


def test_reconstruct_examples():
    spec = spec_for([0.0])
    modal = ModalState([[0.7]], [[0.0]])
    x = np.linspace(0.1, math.pi - 0.1, 11)
    u, ut = reconstruct(modal, spec, x)
    assert u.shape == (11, 1) and ut.shape == (11, 1)
    assert np.allclose(u[:, 0], 0.7 * np.sin(x), atol=1e-12)
    assert np.allclose(ut, 0.0)

    spec = decompose(CouplingSystem(A2, B2))
    modal = ModalState([[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)))
    u, _ = reconstruct(modal, spec, [math.pi / 2])
    assert np.allclose(u[0], spec.eigenvectors[:, 0], atol=1e-12)

    # linearity in the modal tables
    rng = np.random.default_rng(47)
    m1 = ModalState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    m2 = ModalState(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    both = ModalState(m1.a + m2.a, m1.adot + m2.adot)
    u1, _ = reconstruct(m1, spec, x)
    u2, _ = reconstruct(m2, spec, x)
    u12, _ = reconstruct(both, spec, x)
    assert np.allclose(u12, u1 + u2, atol=1e-12)


def test_sobolev_norm_values():
    modal = ModalState([[0.0], [1.0]], [[0.0], [0.0]])
    assert sobolev_norm(modal, 1.0) == pytest.approx(2.0)
    assert sobolev_norm(modal, 0.0) == pytest.approx(1.0)
    assert sobolev_norm(modal, -1.0) == pytest.approx(0.5)

    modal = ModalState([[3.0, 4.0]], [[0.0, 0.0]])
    assert sobolev_norm(modal, 0.0) == pytest.approx(5.0)

    spec = spec_for([0.0])
    grid = build_frequencies(spec, 1)
    modal = ModalState([[1.0]], [[0.0]])
    assert sobolev_norm(modal, 0.0, table="c", grid=grid) == \
        pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        sobolev_norm(modal, 0.0, table="c")
    with pytest.raises(ValueError):
        sobolev_norm(modal, 0.0, table="b")


def test_sobolev_norm_parseval():
    # for orthonormal mode shapes the coefficient norm matches the
    # L2(0, pi) integral of the reconstructed state up to the sine factor
    spec = decompose(CouplingSystem(np.diag([-0.3, 0.5]), np.array([1.0, 1.0])))
    rng = np.random.default_rng(53)
    modal = ModalState(rng.standard_normal((4, 2)), np.zeros((4, 2)))
    x = np.linspace(0.0, math.pi, 20001)
    u, _ = reconstruct(modal, spec, x)
    integral = np.trapezoid(np.sum(np.abs(u) ** 2, axis=1), x)
    assert sobolev_norm(modal, 0.0) == pytest.approx(
        math.sqrt(integral * 2.0 / math.pi), rel=1e-6)


def test_verify_closed_loop():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    target = TargetSpec({1: [1.0, 0.0], 2: [0.0, 0.5]}, {1: [0.0, 0.3]})
    modal = target_to_modal(target, spec, grid)
    ms = assemble_gram(build_raw(grid), 2 * TWO_PI)
    signal = synthesize(ms, moments_from_target(modal, spec, grid, 2 * TWO_PI))
    report = verify(spec, grid, signal, modal, 2 * TWO_PI)
    assert report.passed
    assert report.max_rel_error <= 1e-10
    assert report.max_rel_error == max(report.error_a, report.error_adot)

    # a perturbed control must degrade smoothly and fail at large size
    bumped = dataclasses.replace(
        signal, amplitudes=signal.amplitudes + np.eye(len(signal.amplitudes))[0] * 1e-2)
    bad = verify(spec, grid, bumped, modal, 2 * TWO_PI)
    assert not bad.passed and bad.max_rel_error > 1e-4
    tiny = dataclasses.replace(
        signal, amplitudes=signal.amplitudes + np.eye(len(signal.amplitudes))[0] * 1e-10)
    assert verify(spec, grid, tiny, modal, 2 * TWO_PI).passed


# (A, T, z0, z1, tolerance): complex pairs lambda = 0.2 +- 0.7i, -0.9 +- 2i
# (k = +-1 pinned: e^{|Im omega| T} = 5.6e5, and the double-precision oracle
# itself loses about that many ulps) and 0.3 +- 0.4i beside 1.4.  Measured
# misses: 4e-14, 1.8e-10 and 1e-12
COMPLEX_PAIRS = [
    ([[0.2, 0.7], [-0.7, 0.2]], 2 * TWO_PI, {1: [1.0, 0.5]}, {2: [0.0, -0.3]},
     1e-12),
    ([[-0.9, 2.0], [-2.0, -0.9]], 2 * TWO_PI + 1.0, {1: [1.0, 0.5]},
     {2: [0.0, -0.3]}, 1e-9),
    ([[0.3, 0.4, 0.0], [-0.4, 0.3, 0.0], [1.0, 0.5, 1.4]], 3 * TWO_PI + 1.0,
     {1: [1.0, 0.5, -0.2]}, {2: [0.0, -0.3, 0.4]}, 1e-11),
]


@pytest.mark.parametrize("basis", ["raw", "edd"])
@pytest.mark.parametrize("case", range(len(COMPLEX_PAIRS)))
def test_complex_pair_control_reaches_the_physical_target(case, basis):
    # the control of u_tt - u_xx + A u = 0, evolved in physical coordinates
    # by an oracle that never diagonalizes A, reaches the target on every
    # mode k <= K; verify shares the package's frequencies, so it cannot see
    # a wrong model (omega^2 = k^2 + conj(lambda) controls A^T instead)
    a, duration, z0, z1, rtol = COMPLEX_PAIRS[case]
    n, k_max = len(a), 8
    b = np.eye(n)[0]
    spec = decompose(CouplingSystem(np.array(a), b))
    grid = build_frequencies(spec, k_max)
    family = build_edd(grid) if basis == "edd" else build_raw(grid)
    ms = assemble_gram(family, duration)
    target = TargetSpec(z0, z1)
    modal = target_to_modal(target, spec, grid)
    control = synthesize(ms, moments_from_target(modal, spec, grid, duration))
    assert verify(spec, grid, control, modal, duration).passed
    want = np.zeros((2, k_max, n))
    for row, table in zip(want, (target.z0, target.z1)):
        for mode, vec in table.items():
            row[mode - 1] = vec.real
    got = oracles.physical_state(a, b, k_max, control.frequencies,
                                 control.amplitudes, duration)
    assert np.linalg.norm(np.array(got) - want) <= rtol * np.linalg.norm(want)


def test_verify_zero_control_error():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 2)
    target = ModalState([[1.0], [0.0]], [[0.0], [0.0]])
    zero = ControlSignal(TWO_PI, [1.0], [0.0])
    report = verify(spec, grid, zero, target, TWO_PI)
    assert not report.passed
    assert report.max_rel_error == pytest.approx(0.5)
    assert report.error_adot == 0.0

    loose = verify(spec, grid, zero, target, TWO_PI,
                   tol=DEFAULT.replace(verify_rtol=0.6))
    assert loose.passed


def test_wellposedness_bounded_and_stable():
    spec = decompose(CouplingSystem(A2, B2))
    grid8 = build_frequencies(spec, 8)
    grid16 = build_frequencies(spec, 16)
    rng = np.random.default_rng(59)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        freqs = rng.uniform(-3.0, 3.0, size=m)
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ctrl = ControlSignal(2 * TWO_PI, freqs, amps)
        r8 = evolve(spec, grid8, ctrl, 2 * TWO_PI).wellposedness_ratio
        modal16 = duhamel_exact(spec, grid16, ctrl, 2 * TWO_PI)
        r16 = wellposedness_ratio(modal16, grid16, ctrl)
        assert np.isfinite(r8) and r8 <= 100.0
        assert r8 <= r16 <= 2.0 * r8


def real_terms(rng, count, scale):
    """A real control's terms: frequencies closed under nu -> -conj(nu),
    conjugate amplitudes on mirrored frequencies."""
    freqs = rng.standard_normal(count) * scale + 0.05j * rng.standard_normal(
        count)
    amps = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return (np.concatenate([freqs, -np.conj(freqs)]),
            np.concatenate([amps, np.conj(amps)]))


def one_call_and_alone(spec, k_top, pairs, duration, monkeypatch):
    """Check the one-call states against each control alone; return the
    sizes of the one call's walks over the mode blocks."""
    walks = []
    evolve = waveform._evolve
    with monkeypatch.context() as patch:
        patch.setattr(waveform, "_evolve", lambda *args: walks.append(
            len(args[-1])) or evolve(*args))
        grid = build_frequencies(spec, k_top)
        one_call = duhamel_exact(spec, grid, pairs, duration)
    alone = [duhamel_exact(spec, build_frequencies(spec, k), c, duration)
             for c, k in pairs]
    for got, want, (_, k) in zip(one_call, alone, pairs):
        assert got.a.shape == (k, spec.eigenvalues.size)
        assert np.array_equal(got.a, want.a)
        assert np.array_equal(got.adot, want.adot)
    return walks


def test_one_call_evolution_with_a_zero_mode(monkeypatch):
    # lambda = -1: omega_{1,1} = 0 takes the ramp kernel, in every control
    spec = spec_for([-1.0, 0.5])
    duration = 2 * TWO_PI + 1.0
    grid = build_frequencies(spec, 12)
    assert grid.omega[0, 0] == 0 and np.count_nonzero(grid.omega == 0) == 1
    rng = np.random.default_rng(3)
    freqs, amps = real_terms(rng, 40, 6.0)
    top = ControlSignal(duration, freqs, amps)
    pairs = [(top, 12)]
    for k, count in ((6, 24), (1, 8), (12, 40)):
        # a random subset of the top's terms, closed under the mirror, in a
        # shuffled order
        pick = rng.permutation(40)[:count]
        cols = rng.permutation(np.concatenate([pick, pick + 40]))
        pairs.append((ControlSignal(duration, freqs[cols],
                                    rng.standard_normal(2 * count)), k))
    assert one_call_and_alone(spec, 12, pairs, duration, monkeypatch) == [4]


def test_one_call_evolution_with_open_controls(monkeypatch):
    # controls not closed under the mirror, or with terms the head lacks,
    # are evolved alone
    spec = spec_for([0.5, -0.3, 1.7])
    duration = 3 * TWO_PI + 1.0
    rng = np.random.default_rng(5)
    freqs, amps = real_terms(rng, 60, 10.0)
    open_freqs = freqs[:50]
    pairs = [(ControlSignal(duration, freqs, amps), 16),
             (ControlSignal(duration, freqs[::-1], amps), 8),
             (ControlSignal(duration, open_freqs, amps[:50]), 8),
             (ControlSignal(duration, open_freqs[:20], amps[:20]), 4),
             (ControlSignal(duration, rng.standard_normal(30),
                            rng.standard_normal(30)), 4)]
    # the head and its reversed terms in one walk, the others alone
    assert one_call_and_alone(spec, 16, pairs, duration,
                              monkeypatch) == [1, 1, 1, 2]
    # an open head shares its integrals with an open control on its terms
    assert one_call_and_alone(spec, 8, pairs[2:4], duration,
                              monkeypatch) == [2]
