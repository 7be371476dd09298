import math

import numpy as np
import pytest
from scipy.integrate import simpson

from wavemoment.coupling import (CouplingSystem, SpectralDecomposition,
                                 decompose)
from wavemoment.exceptions import (BetaZero, ConditioningExceeded,
                                   DegenerateEigenvector, ModeOutOfRange,
                                   SingularSystem)
from wavemoment.linalg import factor_hermitian
from wavemoment.moments import (ControlSignal, ModalState, TargetSpec,
                                assemble_gram, combo_l2_norm, gram_entry,
                                moments_from_target, n2_edd_coefficients,
                                n2_normalize_eigvecs, n2_sharp_targets,
                                realify, synthesize, target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies
from wavemoment.tolerances import DEFAULT

import oracles

TWO_PI = 2.0 * math.pi

# two-component benchmark: distinct real eigenvalues 0.5 and -0.3,
# control direction along the first coordinate axis
A2 = np.array([[0.5, 0.0], [1.0, -0.3]])
B2 = np.array([1.0, 0.0])


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


def pipeline(a, b, k_max, duration, basis="raw", z0=None, z1=None):
    """Decompose, build the grid and Gram, attach the target moments."""
    spec = decompose(CouplingSystem(np.asarray(a, dtype=float),
                                    np.asarray(b, dtype=float)))
    grid = build_frequencies(spec, k_max)
    edd = build_edd(grid) if basis == "edd" else None
    ms = assemble_gram(grid, duration, basis_kind=basis, edd=edd)
    modal = target_to_modal(TargetSpec(z0 or {}, z1 or {}), spec, grid)
    ms.gamma = moments_from_target(modal, spec, grid, duration)
    return spec, grid, edd, ms


def l2_distance(sig_a, sig_b):
    f = np.concatenate([sig_a.frequencies, sig_b.frequencies])
    a = np.concatenate([sig_a.amplitudes, -sig_b.amplitudes])
    return combo_l2_norm(f, a, sig_a.duration)


def test_gram_entry_examples():
    assert gram_entry(1.0, 1.0, TWO_PI) == pytest.approx(TWO_PI)
    # integer frequency gap over a full period integrates to zero
    assert gram_entry(2.0, 1.0, TWO_PI) == pytest.approx(0.0, abs=1e-12)
    assert gram_entry(0.5, 0.0, TWO_PI) == pytest.approx(4.0j)
    # swapping the arguments conjugates the inner product
    a, b = 0.3 + 0.1j, -1.2 + 0.05j
    assert gram_entry(a, b, 5.0) == pytest.approx(np.conj(gram_entry(b, a, 5.0)))


def test_gram_entry_matches_quadrature():
    rng = np.random.default_rng(7)
    for trial in range(40):
        duration = float(rng.uniform(1.0, 4.0)) * math.pi
        wb = rng.standard_normal() + 1j * rng.uniform(-0.3, 0.3)
        if trial % 2 == 0:
            wa = 2.0 * rng.standard_normal() + 1j * rng.uniform(-0.3, 0.3)
        else:
            # near-coincident pair, exercising the series branch
            delta = 10.0 ** rng.uniform(-10.0, -5.0)
            wa = np.conj(wb) + delta
        got = gram_entry(wa, wb, duration)
        want = oracles.inner_product(oracles.combo([wa], [1.0]), wb, duration)
        assert abs(got - want) <= 1e-9 * (1.0 + duration)


def test_identity_gram_single_level():
    _, grid, _, ms = pipeline([[0.0]], [1.0], 1, TWO_PI)
    assert ms.index_order == [(-1, 1), (1, 1)]
    assert ms.duration == TWO_PI
    assert np.allclose(ms.gram, TWO_PI * np.eye(2), atol=1e-12)
    assert ms.cond_estimate == pytest.approx(1.0)


def test_gram_hermitian_psd():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        while True:
            lams = np.sort(rng.uniform(-0.8, 4.0, size=n))
            if n == 1 or np.min(np.diff(lams)) > 0.3:
                break
        spec = spec_for(lams.tolist())
        grid = build_frequencies(spec, int(rng.integers(2, 6)))
        duration = TWO_PI * n * float(rng.uniform(1.0, 1.5))
        ms = assemble_gram(grid, duration)
        assert np.array_equal(ms.gram, ms.gram.conj().T)
        eigs = np.linalg.eigvalsh(ms.gram)
        assert eigs.min() >= -1e-8 * eigs.max()

    # complex-conjugate eigenvalue pair
    spec = decompose(CouplingSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    np.array([1.0, 0.0])))
    grid = build_frequencies(spec, 3)
    ms = assemble_gram(grid, 2 * TWO_PI)
    eigs = np.linalg.eigvalsh(ms.gram)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_edd_gram_single_level_matches_raw():
    spec = spec_for([0.7])
    grid = build_frequencies(spec, 4)
    raw = assemble_gram(grid, TWO_PI)
    edd = assemble_gram(grid, TWO_PI, basis_kind="edd", edd=build_edd(grid))
    assert np.allclose(edd.gram, raw.gram, atol=1e-12)
    with pytest.raises(ValueError):
        assemble_gram(grid, TWO_PI, basis_kind="edd")
    with pytest.raises(ValueError):
        assemble_gram(grid, TWO_PI, basis_kind="chebyshev")


def test_edd_block_maps_match_dense_reference():
    # the blockwise weight products against the dense block-diagonal map
    from scipy.linalg import block_diag

    from wavemoment.moments import _edd_transform_gamma

    spec = spec_for([0.5, -0.3, 1.7])
    grid = build_frequencies(spec, 6)
    edd = build_edd(grid)
    duration = 3 * TWO_PI + 1.0
    ms = assemble_gram(grid, duration, basis_kind="edd", edd=edd)
    assert edd.weights.shape == (12, 3, 3)
    w = block_diag(*edd.weights)
    dense = np.conj(w) @ ms.kernel @ w.T
    assert np.allclose(ms.gram, (dense + dense.conj().T) / 2,
                       rtol=0, atol=1e-13 * np.abs(dense).max())
    perm = np.concatenate([p + 3 * pos for pos, p in enumerate(edd.perm)])
    gamma = np.random.default_rng(41).standard_normal(36) + 0j
    want = np.conj(w) @ gamma[perm]
    got = _edd_transform_gamma(gamma, edd)
    assert np.allclose(got, want, rtol=0,
                       atol=1e-13 * (np.abs(w) @ np.abs(gamma)).max())


def test_assembly_peak_memory_in_gram_units():
    # large-edd's system at K = 128 (m = 1024).  The assembly keeps three
    # m x m complex arrays (kernel, G, LU of S); with EDD weights, S and its
    # LU reuse the weighted product's buffer, the raw S is a fourth array
    # while LAPACK factors its Fortran-ordered copy
    import tracemalloc

    a = np.diag([0.5, -0.3, 1.7, 2.9]) + np.diag(np.ones(3), -1)
    spec = decompose(CouplingSystem(a, np.eye(4)[0]))
    grid = build_frequencies(spec, 128)
    edd = build_edd(grid)
    unit = 16 * (2 * 128 * 4) ** 2
    for basis, bound in (("edd", 3.25), ("raw", 4.25)):
        tracemalloc.start()
        try:
            ms = assemble_gram(grid, 8 * math.pi + 1.0, basis_kind=basis,
                               edd=edd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * unit, (basis, peak / unit)
        if basis == "edd":
            assert ms.factor.lu.flags.f_contiguous
        del ms


def test_restriction_matches_assembly_at_k():
    # the K = 3 system read from a K = 6 assembly: G, kernel and D are its
    # middle blocks, the factor the leading block in |k| order
    spec = spec_for([0.5, -0.3, 1.7])
    duration = 3 * TWO_PI + 1.0
    for basis in ("raw", "edd"):
        big_grid, grid = build_frequencies(spec, 6), build_frequencies(spec, 3)
        big = assemble_gram(big_grid, duration, basis_kind=basis,
                            edd=build_edd(big_grid))
        own = assemble_gram(grid, duration, basis_kind=basis,
                            edd=build_edd(grid))
        assert big.restrict(6).factor is big.factor
        assert big.restrict(6).gamma is None
        # S = D G D is factored in |k| order; its strict upper triangle stays
        s = own.gram * own.scale[:, None] * own.scale
        o = own.order
        assert np.array_equal(np.triu(own.factor.lu, 1),
                              np.triu(s[np.ix_(o, o)], 1))
        ms = big.restrict(3)
        assert ms.index_order == own.index_order == grid.signed_indices()
        assert [abs(ms.index_order[i][0]) for i in ms.order] == \
            [k for k in (1, 2, 3) for _ in range(6)]
        assert np.shares_memory(ms.gram, big.gram)
        assert np.array_equal(ms.kernel, own.kernel)
        if basis == "raw":
            assert np.array_equal(ms.gram, own.gram)
        assert np.allclose(ms.gram, own.gram, rtol=0,
                           atol=1e-14 * np.abs(own.gram).max())
        assert np.allclose(np.tril(ms.factor.lu), np.tril(own.factor.lu),
                           rtol=0, atol=1e-13)
        assert ms.cond_estimate == pytest.approx(own.cond_estimate, rel=1e-10)
        assert ms.factor.anorm == pytest.approx(own.factor.anorm, rel=1e-13)


def test_edd_gram_matches_quadrature():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 3)
    edd = build_edd(grid)
    ms = assemble_gram(grid, 2 * TWO_PI, basis_kind="edd", edd=edd)

    # explicit divided-difference basis functions, in moment-system order
    funcs = []
    for nodes, w in zip(edd.nodes, edd.weights):
        for j in range(grid.n):
            funcs.append(oracles.combo(nodes, w[j]))
    rng = np.random.default_rng(13)
    for _ in range(10):
        i, j = rng.integers(0, len(funcs), size=2)
        want = oracles.quad_complex(
            lambda t: funcs[j](t) * np.conj(funcs[i](t)), 0.0, ms.duration)
        assert abs(ms.gram[i, j] - want) <= 1e-9 * (1.0 + abs(want))


def test_target_to_modal_diagonal():
    spec, grid, _, _ = pipeline(np.diag([-0.3, 0.5]), [1.0, 1.0], 3, TWO_PI)
    modal = target_to_modal(TargetSpec({1: [2.0, 3.0]}, {2: [0.0, 1.0]}),
                            spec, grid)
    assert np.allclose(modal.a[0], [2.0, 3.0], atol=1e-12)
    assert np.allclose(modal.adot[1], [0.0, 1.0], atol=1e-12)
    assert np.allclose(modal.a[1:], 0.0) and np.allclose(modal.adot[0], 0.0)
    assert np.allclose(modal.adot[2], 0.0)


def test_target_to_modal_eigvec_alignment():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    rng = np.random.default_rng(17)
    for _ in range(20):
        c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = c[0] * spec.eigenvectors[:, 0] + c[1] * spec.eigenvectors[:, 1]
        modal = target_to_modal(TargetSpec({3: vec}, {}), spec, grid)
        assert np.allclose(modal.a[2], c, atol=1e-12)
        assert np.allclose(modal.a[[0, 1, 3]], 0.0)


def test_target_to_modal_errors():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 2)
    with pytest.raises(ModeOutOfRange):
        target_to_modal(TargetSpec({3: [1.0, 0.0]}, {}), spec, grid)
    with pytest.raises(ValueError):
        target_to_modal(TargetSpec({1: [1.0, 0.0, 0.0]}, {}), spec, grid)
    with pytest.raises(ValueError):
        TargetSpec({0: [1.0]}, {})
    assert TargetSpec({}, {}).max_mode() == 0


def test_moments_displacement_example():
    spec, grid, _, _ = pipeline([[0.0]], [1.0], 1, TWO_PI)
    modal = target_to_modal(TargetSpec({1: [1.0]}, {}), spec, grid)
    gamma = moments_from_target(modal, spec, grid, TWO_PI)
    # order is [(-1, 1), (1, 1)]
    assert gamma[0] == pytest.approx(-1j * math.pi / 2)
    assert gamma[1] == pytest.approx(1j * math.pi / 2)


def test_moments_velocity_example():
    spec, grid, _, _ = pipeline([[0.0]], [1.0], 1, TWO_PI)
    modal = target_to_modal(TargetSpec({}, {1: [1.0]}), spec, grid)
    gamma = moments_from_target(modal, spec, grid, TWO_PI)
    assert gamma[0] == pytest.approx(math.pi / 2)
    assert gamma[1] == pytest.approx(math.pi / 2)


def test_moments_scaling_and_conjugate_symmetry():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    idx = {kl: pos for pos, kl in enumerate(grid.signed_indices())}
    rng = np.random.default_rng(19)
    for _ in range(10):
        z0 = {int(n): rng.standard_normal(2) for n in rng.integers(1, 5, size=2)}
        z1 = {int(n): rng.standard_normal(2) for n in rng.integers(1, 5, size=1)}
        modal = target_to_modal(TargetSpec(z0, z1), spec, grid)
        gamma = moments_from_target(modal, spec, grid, 2 * TWO_PI)
        double = moments_from_target(ModalState(2 * modal.a, 2 * modal.adot),
                                     spec, grid, 2 * TWO_PI)
        assert np.allclose(double, 2 * gamma, atol=1e-14)
        # real data: the moment at (-k, l) is the conjugate of the one at (k, l)
        for k in range(1, 5):
            for l in (1, 2):
                assert gamma[idx[(-k, l)]] == pytest.approx(
                    np.conj(gamma[idx[(k, l)]]), abs=1e-13)


def test_moments_beta_zero():
    spec = SpectralDecomposition(
        eigenvalues=np.array([0.0 + 0j]),
        eigenvectors=np.eye(1, dtype=complex),
        biorthogonal=np.eye(1, dtype=complex),
        beta=np.array([1e-13 + 0j]),
        min_separation=np.inf)
    grid = build_frequencies(spec, 1)
    modal = ModalState(np.array([[1.0]]), np.array([[0.0]]))
    with pytest.raises(BetaZero):
        moments_from_target(modal, spec, grid, TWO_PI)


def test_synthesize_zero_target():
    _, grid, _, ms = pipeline(A2, B2, 3, 2 * TWO_PI)
    signal = synthesize(ms, grid)
    assert np.allclose(signal.amplitudes, 0.0)
    assert signal.moment_residual == 0.0
    assert signal.l2_norm() == 0.0


def test_synthesize_diagonal_example():
    _, grid, _, ms = pipeline([[0.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    signal = synthesize(ms, grid)
    assert np.allclose(signal.amplitudes, 0.25, atol=1e-12)
    t = np.linspace(0.0, TWO_PI, 7)
    assert np.allclose(signal.evaluate(t), 0.5 * np.cos(t), atol=1e-12)
    assert signal.l2_norm() == pytest.approx(math.sqrt(math.pi) / 2)
    assert signal.realification_residual <= 1e-12
    f = oracles.combo(signal.frequencies, signal.amplitudes)
    for omega in (1.0, -1.0):
        got = oracles.inner_product(f, omega, TWO_PI)
        assert got == pytest.approx(math.pi / 2, abs=1e-9)


def test_synthesize_moment_consistency_quadrature():
    z0 = {1: [1.0, 0.0], 3: [0.0, 0.4]}
    z1 = {2: [0.2, 0.0]}
    _, grid, _, ms = pipeline(A2, B2, 3, 2 * TWO_PI, z0=z0, z1=z1)
    signal = synthesize(ms, grid)
    assert signal.moment_residual <= 1e-10
    f = oracles.combo(signal.frequencies, signal.amplitudes)
    freqs = grid.frequencies()
    for j in range(len(freqs)):
        got = oracles.inner_product(f, freqs[j], ms.duration)
        assert abs(got - ms.gamma[j]) <= 1e-7 * (1.0 + abs(ms.gamma[j]))

    # the divided-difference route must satisfy the same raw moments
    _, _, edd, ms_e = pipeline(A2, B2, 3, 2 * TWO_PI, basis="edd", z0=z0, z1=z1)
    sig_e = synthesize(ms_e, grid, edd=edd)
    f_e = oracles.combo(sig_e.frequencies, sig_e.amplitudes)
    for j in (0, 3, 5, 7, 9, 11):
        got = oracles.inner_product(f_e, freqs[j], ms.duration)
        assert abs(got - ms.gamma[j]) <= 1e-7 * (1.0 + abs(ms.gamma[j]))


def test_synthesize_real_for_real_data():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z0 = {1: rng.standard_normal(2), 2: rng.standard_normal(2)}
        z1 = {1: rng.standard_normal(2)}
        _, grid, _, ms = pipeline(A2, B2, 4, 2 * TWO_PI, z0=z0, z1=z1)
        signal = synthesize(ms, grid)
        assert signal.realification_residual <= 1e-8
        fixed = realify(signal)
        assert l2_distance(signal, fixed) <= 1e-8 * signal.l2_norm()
        t = np.linspace(0.0, signal.duration, 50)
        vals = fixed.evaluate(t)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * (1 + np.max(np.abs(vals)))


def test_synthesize_raw_vs_edd_same_control():
    z0 = {1: [0.3, -0.2], 4: [0.0, 1.0]}
    _, grid, _, ms_r = pipeline(A2, B2, 6, 2 * TWO_PI, z0=z0)
    _, _, edd, ms_e = pipeline(A2, B2, 6, 2 * TWO_PI, basis="edd", z0=z0)
    sig_r = synthesize(ms_r, grid)
    sig_e = synthesize(ms_e, grid, edd=edd)
    assert l2_distance(sig_r, sig_e) <= 1e-6 * sig_r.l2_norm()


def test_cond_estimate_is_that_of_the_normalized_gram():
    # scaling a basis function changes neither the span nor the control,
    # so the estimate is taken on D G D, D = diag(G)^(-1/2); criterion 6's
    # system (K = 16, T = 4 pi), where the EDD diagonal spans 12.6 to 658
    z0 = {1: [1.0, 0.0], 2: [0.0, 1.0]}
    z1 = {1: [0.0, 1.0]}
    controls = []
    for basis in ("raw", "edd"):
        _, grid, edd, ms = pipeline(A2, B2, 16, 2 * TWO_PI, basis=basis,
                                    z0=z0, z1=z1)
        d = 1.0 / np.sqrt(ms.gram.diagonal().real)
        want = factor_hermitian(ms.gram * np.multiply.outer(d, d)).cond
        assert ms.cond_estimate == pytest.approx(want, rel=1e-12, abs=0)
        controls.append(synthesize(ms, grid, edd=edd))
    sig_r, sig_e = controls
    assert l2_distance(sig_r, sig_e) <= 1e-6 * sig_r.l2_norm()


def test_synthesize_singular_on_resonance():
    # eigenvalue gap 3 = 2^2 - 1^2 duplicates a frequency across levels
    _, grid, _, ms = pipeline([[0.0, 0.0], [1.0, 3.0]], [1.0, 0.0], 2,
                              2 * TWO_PI, z0={1: [1.0, 0.0]})
    with pytest.raises(SingularSystem):
        synthesize(ms, grid)


def test_synthesize_singular_on_zero_mode_pair():
    # omega = 0 at k = +-1 collapses the two basis functions into one
    _, grid, _, ms = pipeline([[-1.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    with pytest.raises(SingularSystem):
        synthesize(ms, grid)


def test_synthesize_conditioning_cap():
    _, grid, _, ms = pipeline([[0.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    with pytest.raises(ConditioningExceeded):
        synthesize(ms, grid, tol=DEFAULT.replace(cond_cap=0.5))


def test_synthesize_requires_gamma_and_family():
    spec = spec_for([0.0])
    grid = build_frequencies(spec, 2)
    ms = assemble_gram(grid, TWO_PI)
    with pytest.raises(ValueError):
        synthesize(ms, grid)
    edd = build_edd(grid)
    ms_e = assemble_gram(grid, TWO_PI, basis_kind="edd", edd=edd)
    ms_e.gamma = np.zeros(4, dtype=complex)
    with pytest.raises(ValueError):
        synthesize(ms_e, grid)


def test_minimal_norm_monotone_bounded():
    # a fixed finite target gains only constraints as the truncation grows,
    # so the minimal control norm is nondecreasing and stays bounded
    z0 = {1: [1.0, 0.0], 2: [0.0, 0.5], 3: [0.2, 0.0]}
    norms = []
    for k_max in (4, 8, 16):
        _, grid, edd, ms = pipeline(A2, B2, k_max, 2 * TWO_PI, basis="edd",
                                    z0=z0)
        norms.append(synthesize(ms, grid, edd=edd).l2_norm())
    assert norms[0] <= norms[1] * (1 + 1e-9)
    assert norms[1] <= norms[2] * (1 + 1e-9)
    assert norms[2] <= 2.0 * norms[0]


def test_realification_residual_matches_quadrature():
    # N = 4 lower-bidiagonal system, K = 32, EDD basis, README target: the
    # imaginary part is ~3e-11 of the control, below what a 2m-term
    # quadratic form over f and conj(f) can resolve
    a = np.diag([0.5, -0.3, 1.7, 2.9]) + np.eye(4, k=-1)
    duration = 4 * TWO_PI + 1.0
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    _, grid, edd, ms = pipeline(a, e1, 32, duration, basis="edd",
                                z0={1: e1, 2: e2}, z1={1: e2})
    signal = synthesize(ms, grid, edd=edd)
    t = np.linspace(0.0, duration, 20001)
    vals = np.exp(1j * np.multiply.outer(t, signal.frequencies)) \
        @ signal.amplitudes
    want = math.sqrt(simpson(vals.imag ** 2, x=t)
                     / simpson(np.abs(vals) ** 2, x=t))
    assert signal.realification_residual == pytest.approx(want, rel=1e-2)
    assert signal.l2_norm() == pytest.approx(
        math.sqrt(simpson(np.abs(vals) ** 2, x=t)), rel=1e-8)


def test_realify_examples():
    cos = ControlSignal(TWO_PI, [1.0, -1.0], [0.5, 0.5])
    fixed = realify(cos)
    assert fixed.realification_residual <= 1e-12
    assert l2_distance(cos, fixed) <= 1e-12

    plus = ControlSignal(TWO_PI, [1.0], [1.0])
    fixed = realify(plus)
    assert fixed.realification_residual == pytest.approx(1 / math.sqrt(2))
    order = np.argsort(fixed.frequencies.real)
    assert np.allclose(fixed.frequencies[order], [-1.0, 1.0])
    assert np.allclose(fixed.amplitudes[order], [0.5, 0.5])


def test_combo_l2_norm_matches_quadrature():
    assert combo_l2_norm([], [], TWO_PI) == 0.0
    rng = np.random.default_rng(29)
    for _ in range(15):
        m = int(rng.integers(1, 5))
        freqs = rng.standard_normal(m) + 1j * rng.uniform(-0.3, 0.3, size=m)
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        duration = float(rng.choice([TWO_PI, 2 * TWO_PI]))
        f = oracles.combo(freqs, amps)
        want = oracles.quad_complex(lambda t: f(t) * np.conj(f(t)),
                                    0.0, duration).real
        got = combo_l2_norm(freqs, amps, duration)
        assert got == pytest.approx(math.sqrt(max(want, 0.0)), rel=1e-8)


def test_n2_normalize_benchmark():
    spec = decompose(CouplingSystem(A2, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)
    assert norm.alpha == pytest.approx(0.8)
    assert np.allclose(norm.phi1 + norm.phi2, [0.8, 0.0], atol=1e-12)
    assert sorted([norm.phi1[1], norm.phi2[1]], key=lambda z: z.real) == \
        pytest.approx([-1.0, 1.0])
    re = norm.decomposition
    assert np.allclose(re.eigenvectors @ re.beta, B2, atol=1e-12)
    assert np.allclose(re.biorthogonal.conj().T @ re.eigenvectors, np.eye(2),
                       atol=1e-12)
    # b recovered from the original decomposition gives the same answer
    auto = n2_normalize_eigvecs(spec)
    assert auto.alpha == pytest.approx(norm.alpha)
    assert np.allclose(auto.decomposition.beta, re.beta, atol=1e-12)


def test_n2_normalize_symmetric_example():
    a = np.array([[0.1, 0.4], [0.4, 0.1]])  # eigenvectors (1, 1) and (1, -1)
    spec = decompose(CouplingSystem(a, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)
    assert norm.alpha == pytest.approx(2.0)
    assert np.allclose(norm.phi1 + norm.phi2, [2.0, 0.0], atol=1e-12)


def test_n2_normalize_degenerate():
    spec = decompose(CouplingSystem(np.diag([-0.3, 0.5]), np.array([1.0, 1.0])))
    with pytest.raises(DegenerateEigenvector):
        n2_normalize_eigvecs(spec)
    with pytest.raises(ValueError):
        n2_normalize_eigvecs(spec_for([1.0]))


def test_n2_sharp_matches_projection():
    spec = decompose(CouplingSystem(A2, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)
    grid = build_frequencies(spec, 4)
    rng = np.random.default_rng(31)
    for _ in range(15):
        z0 = {int(n): rng.standard_normal(2) + 1j * rng.standard_normal(2)
              for n in rng.integers(1, 5, size=2)}
        z1 = {int(n): rng.standard_normal(2) for n in rng.integers(1, 5, size=1)}
        target = TargetSpec(z0, z1)
        sharp = n2_sharp_targets(target, norm, grid)
        proj = target_to_modal(target, norm.decomposition, grid)
        assert np.allclose(sharp.a, proj.a, atol=1e-10)
        assert np.allclose(sharp.adot, proj.adot, atol=1e-10)


def test_n2_sharp_examples():
    spec = decompose(CouplingSystem(A2, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)
    grid = build_frequencies(spec, 2)

    sharp = n2_sharp_targets(TargetSpec({1: [1.0, 0.0]}, {}), norm, grid)
    assert np.allclose(sharp.a[0], [1.25, 1.25], atol=1e-12)
    assert np.allclose(sharp.adot, 0.0)

    sharp = n2_sharp_targets(TargetSpec({1: [0.0, 1.0]}, {}), norm, grid)
    assert np.allclose(sharp.a[0], [-1.0, 0.0], atol=1e-12)

    sharp = n2_sharp_targets(TargetSpec({}, {}), norm, grid)
    assert np.allclose(sharp.a, 0.0) and np.allclose(sharp.adot, 0.0)

    with pytest.raises(ModeOutOfRange):
        n2_sharp_targets(TargetSpec({3: [1.0, 0.0]}, {}), norm, grid)
    with pytest.raises(ValueError):
        n2_sharp_targets(TargetSpec({1: [1.0]}, {}), norm, grid)


def test_n2_edd_coefficients():
    spec = decompose(CouplingSystem(A2, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)
    grid = build_frequencies(spec, 3)
    gap = grid.omega_at(1, 2) - grid.omega_at(1, 1)

    modal = n2_sharp_targets(TargetSpec({1: [0.0, 1.0]}, {}), norm, grid)
    tilde = n2_edd_coefficients(modal, grid)
    assert tilde[0, 0] == pytest.approx(-1.0)
    assert tilde[0, 1] == pytest.approx(1.0 / gap)

    rng = np.random.default_rng(37)
    for _ in range(10):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        tilde = n2_edd_coefficients(ModalState(a, np.zeros_like(a)), grid)
        for mode in range(1, 4):
            g = grid.omega_at(mode, 2) - grid.omega_at(mode, 1)
            assert tilde[mode - 1, 0] == pytest.approx(a[mode - 1, 0])
            assert tilde[mode - 1, 1] == pytest.approx(
                (a[mode - 1, 1] - a[mode - 1, 0]) / g)


def test_control_signal_api():
    sig = ControlSignal(TWO_PI, [1.0, -1.0], [0.5, 0.5])
    assert sig.sample_dt is None
    sampled = sig.with_samples(9)
    assert sampled.sample_dt == pytest.approx(TWO_PI / 8)
    assert np.allclose(sampled.sample_values,
                       np.cos(np.linspace(0.0, TWO_PI, 9)), atol=1e-12)
    assert sig.combo == [(1.0 + 0j, 0.5 + 0j), (-1.0 + 0j, 0.5 + 0j)]
    with pytest.raises(ValueError):
        ControlSignal(TWO_PI, [1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        ControlSignal(0.0, [1.0], [0.5])
    with pytest.raises(ValueError):
        sig.with_samples(1)
