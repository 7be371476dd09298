import json
import math

import numpy as np
import pytest
from scipy.integrate import simpson

from wavemoment.coupling import (CouplingSystem, SpectralDecomposition,
                                 decompose)
from wavemoment.exceptions import (BetaZero, ConditioningExceeded,
                                   DegenerateEigenvector, ModeOutOfRange,
                                   SingularSystem)
from wavemoment.linalg import factor_hermitian, solve_hermitian
from wavemoment.moments import (ControlSignal, ModalState, TargetSpec,
                                assemble_gram, combo_l2_norm, gram_entry,
                                moments_from_target, n2_edd_coefficients,
                                n2_normalize_eigvecs, realify, synthesize,
                                target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies, build_raw
from wavemoment.tolerances import DEFAULT
from wavemoment.waveform import verify

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
    """Decompose, build the grid, the family and its Gram system, and the
    target moments: (spec, grid, ms, gamma)."""
    spec = decompose(CouplingSystem(np.asarray(a, dtype=float),
                                    np.asarray(b, dtype=float)))
    grid = build_frequencies(spec, k_max)
    family = build_edd(grid) if basis == "edd" else build_raw(grid)
    ms = assemble_gram(family, duration)
    modal = target_to_modal(TargetSpec(z0 or {}, z1 or {}), spec, grid)
    return spec, grid, ms, moments_from_target(modal, spec, grid, duration)


def family_kernel(family, duration):
    """B[i, j] = (e_j, e_i) over the family's exponentials e^{i conj(x) t}."""
    freqs = np.conj(family.nodes.ravel())
    return gram_entry(freqs, freqs[:, None], duration)


def real_basis_coefficients(family):
    """Dense coefficients (m x m) of the real basis on the family's
    exponentials in signed node order: per |k|, Re phi_a and then Im phi_a
    of block k's functions phi_a = sum_j W[a, j] e_j (conj(e_j) is block
    -k's exponential at position j); a self-mirrored phi_a and its block -k
    partner as they are."""
    k_max, n = family.k_max, family.n
    coef = np.zeros((2 * k_max * n,) * 2, dtype=complex)
    for g in range(k_max):
        w = family.weights[k_max + g]
        pos = slice((k_max + g) * n, (k_max + g + 1) * n)
        neg = slice((k_max - 1 - g) * n, (k_max - g) * n)
        for a in range(n):
            re, im = 2 * g * n + a, (2 * g + 1) * n + a
            if family.nodes[k_max + g, a].real == 0:
                coef[re, pos.start + a] = coef[im, neg.start + a] = 1.0
            else:
                coef[re, pos], coef[re, neg] = w[a] / 2, np.conj(w[a]) / 2
                coef[im, pos], coef[im, neg] = w[a] / 2j, -np.conj(w[a]) / 2j
    return coef


def real_gram_reference(family, duration):
    """Gram R[p, q] = (psi_q, psi_p) of the real basis from the dense
    kernel of all the family's exponentials; its imaginary part is
    rounding."""
    coef = real_basis_coefficients(family)
    dense = np.conj(coef) @ family_kernel(family, duration) @ coef.T
    assert np.abs(dense.imag).max() <= 1e-13 * np.abs(dense).max()
    return dense.real


def family_moments(gamma, family):
    """Moments of the plain exponentials in family order, one row per
    signed block."""
    return np.stack([gamma[family.n * r + p]
                     for r, p in enumerate(family.perm)])


def mirror_of(signal, family):
    """Index of each term's mirror term, at frequency -conj(nu): among the
    family's terms for those, among the appended pinned extras for these."""
    freqs = signal.frequencies
    out = []
    for lo, hi in ((0, family.nodes.size), (family.nodes.size, freqs.size)):
        where = {complex(x): lo + i for i, x in enumerate(freqs[lo:hi])}
        out += [where[complex(-np.conj(x))] for x in freqs[lo:hi]]
    return np.array(out, dtype=int)


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
    # the real basis is cos t, sin t, each of squared norm pi on [0, 2 pi]
    _, _, ms, _ = pipeline([[0.0]], [1.0], 1, TWO_PI)
    assert ms.k_max == 1
    assert ms.duration == TWO_PI
    assert np.allclose(ms.gram, math.pi * np.eye(2), atol=1e-12)
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
        ms = assemble_gram(build_raw(grid), duration)
        assert ms.gram.dtype == np.float64 and ms.factor.lu.dtype == np.float64
        assert np.array_equal(ms.gram, ms.gram.T)
        eigs = np.linalg.eigvalsh(ms.gram)
        assert eigs.min() >= -1e-8 * eigs.max()

    # complex-conjugate eigenvalue pair
    spec = decompose(CouplingSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                    np.array([1.0, 0.0])))
    grid = build_frequencies(spec, 3)
    ms = assemble_gram(build_raw(grid), 2 * TWO_PI)
    eigs = np.linalg.eigvalsh(ms.gram)
    assert eigs.min() >= -1e-8 * eigs.max()


def test_edd_gram_single_level_matches_raw():
    spec = spec_for([0.7])
    grid = build_frequencies(spec, 4)
    raw = assemble_gram(build_raw(grid), TWO_PI)
    edd = assemble_gram(build_edd(grid), TWO_PI)
    assert np.allclose(edd.gram, raw.gram, atol=1e-12)


def test_raw_system_is_the_order_one_family():
    # identity weights: R is the Gram of the real and imaginary parts of
    # block k's plain exponentials, and the amplitudes are the solved
    # coefficients (c_re - i c_im) / 2 and their conjugates, bit for bit,
    # with the terms sorted by (Re, Im)
    from wavemoment.moments import _real_moments

    pair = [[0.0, 1.0], [-1.0, 0.0]]
    for a, duration in ((A2, 2 * TWO_PI), (pair, 3 * TWO_PI)):
        _, grid, ms, gamma = pipeline(a, B2, 4, duration, z0={1: [1.0, 0.5]},
                                      z1={2: [0.0, -0.3]})
        raw = build_raw(grid)
        want = real_gram_reference(raw, duration)
        assert np.allclose(ms.gram, want, rtol=0,
                           atol=1e-14 * np.abs(want).max())
        rhs = _real_moments(family_moments(gamma, raw), raw, DEFAULT)
        coef, _ = solve_hermitian(ms.gram, rhs, factor=ms.factor,
                                  scale=ms.scale)
        c = coef.reshape(4, 2, 2)
        amps = (c[:, 0] - 1j * c[:, 1]) / 2.0
        signal = synthesize(ms, gamma)
        freqs = np.conj(raw.nodes.ravel())
        order = np.lexsort((freqs.imag, freqs.real))
        assert np.array_equal(signal.amplitudes, np.concatenate(
            [np.conj(amps)[::-1], amps]).ravel()[order])
        assert np.array_equal(signal.frequencies, freqs[order])
        assert np.array_equal(np.sort_complex(signal.frequencies),
                              np.sort_complex(np.conj(grid.frequencies())))


def test_edd_block_maps_match_dense_reference():
    # the streamed kernel rows and blockwise basis products, and the real
    # moments, against the dense real basis over all exponentials
    from wavemoment.moments import _real_moments

    spec = spec_for([0.5, -0.3, 1.7])
    grid = build_frequencies(spec, 6)
    edd = build_edd(grid)
    duration = 3 * TWO_PI + 1.0
    ms = assemble_gram(edd, duration)
    assert edd.weights.shape == (12, 3, 3)
    # block -k holds the mirrors -conj(x) of block k's nodes x
    assert np.array_equal(edd.nodes[5::-1], -np.conj(edd.nodes[6:]))
    want = real_gram_reference(edd, duration)
    assert np.allclose(ms.gram, want, rtol=0, atol=1e-13 * np.abs(want).max())
    perm = np.concatenate([p + 3 * pos for pos, p in enumerate(edd.perm)])
    modal = target_to_modal(TargetSpec({1: [0.3, -1.0, 0.5]}, {2: [1.0] * 3}),
                            spec, grid)
    gamma = moments_from_target(modal, spec, grid, duration)
    # (f, psi_p) = sum_j conj(C[p, j]) (f, e_j), with the dense real basis
    coef = real_basis_coefficients(edd)
    dense = np.conj(coef) @ gamma[perm]
    scale = (np.abs(coef) @ np.abs(gamma[perm])).max()
    assert np.abs(dense.imag).max() <= 1e-13 * scale
    assert np.allclose(_real_moments(family_moments(gamma, edd), edd, DEFAULT),
                       dense.real, rtol=0, atol=1e-13 * scale)


@pytest.mark.parametrize("block", [None, 200])
def test_block_lower_gram_matches_dense_kernel(block, monkeypatch):
    # R is filled block-lower and its upper triangle copied from the lower,
    # so it is exactly symmetric; it matches the real basis over the dense
    # kernel of all exponentials, self-mirrored nodes (lambda < -1) included
    from wavemoment import _kernels

    if block is not None:  # 200 entries: row blocks of a few |k| and rows
        monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", block)
    systems = [(spec_for([0.5, -0.3, 1.7]), 0),
               (decompose(CouplingSystem(np.array([[0.2, 0.7], [-0.7, 0.2]]),
                                         B2)), 0),
               (spec_for([-5.5, 0.5, 1.7]), 2)]
    for spec, plain in systems:
        grid = build_frequencies(spec, 6)
        duration = 2 * TWO_PI * spec.n
        for family in (build_raw(grid), build_edd(grid)):
            assert np.count_nonzero(family.self_mirrored) == plain
            ms = assemble_gram(family, duration)
            assert np.array_equal(ms.gram, ms.gram.T)
            want = real_gram_reference(family, duration)
            assert np.allclose(ms.gram, want, rtol=0,
                               atol=1e-13 * want.diagonal().max())


def test_assembly_peak_memory_in_gram_units():
    # large-edd's system at K = 128 (m = 1024).  The assembly keeps two
    # m x m real arrays (R, LU of S): half the kernel is streamed into the
    # basis products, and for either family S and its LU reuse the buffer
    # of the filled rows
    import tracemalloc

    a = np.diag([0.5, -0.3, 1.7, 2.9]) + np.diag(np.ones(3), -1)
    spec = decompose(CouplingSystem(a, np.eye(4)[0]))
    grid = build_frequencies(spec, 128)
    unit = 8 * (2 * 128 * 4) ** 2
    for basis, family in (("edd", build_edd(grid)), ("raw", build_raw(grid))):
        tracemalloc.start()
        try:
            ms = assemble_gram(family, 8 * math.pi + 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * unit, (basis, peak / unit)
        assert ms.factor.lu.flags.f_contiguous
        del ms


def test_restriction_matches_assembly_at_k():
    # the K = 3 system read from a K = 6 assembly: the family is its middle
    # rows, bit for bit, and R, D and the factor are its leading blocks, the
    # unknowns being in |k| order (the kernel's K = 3 exponentials are its
    # middle blocks)
    spec = spec_for([0.5, -0.3, 1.7])
    duration = 3 * TWO_PI + 1.0
    for basis in ("raw", "edd"):
        big_grid, grid = build_frequencies(spec, 6), build_frequencies(spec, 3)
        families = [build_raw(g) if basis == "raw" else build_edd(g)
                    for g in (big_grid, grid)]
        big, own = (assemble_gram(f, duration) for f in families)
        assert big.restrict(6).factor is big.factor
        # S = D R D is factored in place; its strict upper triangle stays
        s = own.gram * own.scale[:, None] * own.scale
        assert np.array_equal(np.triu(own.factor.lu, 1), np.triu(s, 1))
        for k_max in (0, 7):
            with pytest.raises(ValueError, match=r"outside 1\.\.6"):
                big.restrict(k_max)
        assert big.restrict(1).gram.shape == (6, 6)
        ms = big.restrict(3)
        assert ms.k_max == own.k_max == ms.family.k_max == 3
        for name in ("nodes", "perm", "weights"):
            got, want = getattr(ms.family, name), getattr(families[1], name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert np.shares_memory(ms.gram, big.gram)
        assert np.array_equal(ms.gram, big.gram[:18, :18])
        assert np.array_equal(ms.scale, big.scale[:18])
        big_kernel, kernel = (family_kernel(f, duration) for f in families)
        assert np.array_equal(big_kernel[9:27, 9:27], kernel)
        if basis == "raw":
            assert np.array_equal(ms.gram, own.gram)
        assert np.allclose(ms.gram, own.gram, rtol=0,
                           atol=1e-14 * np.abs(own.gram).max())
        assert np.allclose(np.tril(ms.factor.lu), np.tril(own.factor.lu),
                           rtol=0, atol=1e-13)
        assert ms.cond_estimate == pytest.approx(own.cond_estimate, rel=1e-10)
        assert ms.factor.anorm == pytest.approx(own.factor.anorm, rel=1e-13)


def kernel_forms(signal, family):
    """(||f||, ||Im f|| / ||f||) of a synthesized control as quadratic forms
    on the kernel of its terms, pinned extras included (Im f is formed per
    mirrored amplitude pair)."""
    freqs, amps = signal.frequencies, signal.amplitudes
    conj_amps = np.conj(amps[mirror_of(signal, family)])
    re, im = (amps + conj_amps) / 2.0, (amps - conj_amps) / 2j
    kernel = gram_entry(freqs, freqs[:, None], signal.duration)
    re2, im2 = (max(float(np.vdot(x, kernel @ x).real), 0.0) for x in (re, im))
    norm = math.sqrt(re2 + im2)
    return norm, math.sqrt(im2) / max(norm, 1e-300)


# (A, b, K, T, z0, z1): real spectrum, complex pair, lambda_1 < -1
REAL_SYSTEMS = [
    (A2, B2, 6, 2 * TWO_PI, {1: [1.0, 0.5]}, {2: [0.0, -0.3]}),
    ([[0.2, 0.7], [-0.7, 0.2]], B2, 8, 2 * TWO_PI, {1: [1.0, 0.5]},
     {2: [0.0, -0.3]}),
    ([[-2.239541, 0.0, 0.0], [1.0, 0.562783, 0.0], [0.0, 1.0, 0.997996]],
     [1.0, 0.0, 0.0], 16, 19.563415613241176,
     {1: [-0.479126, 0.537645, 0.290559]}, {2: [0.2, -0.1, 0.3]})]


def test_norm_and_residual_from_gram_match_kernel_forms():
    # synthesize takes ||f|| as c^T R c on the real basis coefficients c;
    # the kernel forms on the amplitudes agree, and Im f is exactly zero
    for a, b, k_max, duration, z0, z1 in REAL_SYSTEMS:
        for basis in ("raw", "edd"):
            spec, grid, ms, gamma = pipeline(a, b, k_max, duration,
                                             basis=basis, z0=z0, z1=z1)
            signal = synthesize(ms, gamma)
            norm, imag = kernel_forms(signal, ms.family)
            assert signal.norm == pytest.approx(norm, rel=1e-12)
            assert signal.realification_residual == imag == 0.0
    # a K-sweep row: the K = 8 system, family included, read from the
    # K = 16 assembly above; the K = 16 moments do not fit it
    row = ms.restrict(8)
    with pytest.raises(ValueError, match="expected 48 moments"):
        synthesize(row, gamma)
    grid = build_frequencies(spec, 8)
    gamma = moments_from_target(
        target_to_modal(TargetSpec(z0, z1), spec, grid), spec, grid, duration)
    signal = synthesize(row, gamma)
    norm, imag = kernel_forms(signal, row.family)
    assert signal.norm == pytest.approx(norm, rel=1e-12)
    assert signal.realification_residual == imag == 0.0


def test_synthesized_control_is_exactly_real():
    # a real A and a real target: the amplitudes on mirrored frequencies
    # -conj(nu) are exact conjugates (a self-mirrored one is real), pinned
    # extras included, so the reported realification residual reads 0
    from wavemoment import cli

    pinned = 0
    for a, b, k_max, duration, z0, z1 in REAL_SYSTEMS:
        for basis in ("raw", "edd"):
            _, _, ms, gamma = pipeline(a, b, k_max, duration, basis=basis,
                                       z0=z0, z1=z1)
            family = ms.family
            signal = synthesize(ms, gamma)
            amps = signal.amplitudes
            pinned += amps.size > family.nodes.size
            assert np.array_equal(amps[mirror_of(signal, family)],
                                  np.conj(amps))
            doc = {"A": np.asarray(a).tolist(), "b": list(b), "T": duration,
                   "K": k_max, "method": basis,
                   "target": {"z0": [[n, list(v)] for n, v in z0.items()],
                              "z1": [[n, list(v)] for n, v in z1.items()]}}
            report, code = cli.run("synthesize",
                                   cli.parse_config(json.dumps(doc)))
            assert code == cli.EXIT_OK
            assert report["data"]["synthesis"]["realification_residual"] \
                == 0.0
    assert pinned == 2


def test_samples_of_a_synthesized_control_are_direct_sums_to_rounding():
    # sample sums block leads times steps, evaluate the direct table: the
    # same sum within the rounding bound derived in oracles, pinned extras
    # included, in one block (count 2) and in 21 blocks of 21 points whose
    # last holds 2 (count 401)
    for a, b, k_max, duration, z0, z1 in REAL_SYSTEMS:
        for basis in ("raw", "edd"):
            _, _, ms, gamma = pipeline(a, b, k_max, duration, basis=basis,
                                       z0=z0, z1=z1)
            signal = synthesize(ms, gamma)
            for count in (2, 401):
                t, values = signal.sample(count)
                assert np.array_equal(t, np.linspace(0.0, duration, count))
                assert np.all(np.abs(values - signal.evaluate(t))
                              <= oracles.sample_rounding_bound(signal, t))


def test_synthesize_refuses_a_nonreal_target():
    # the real system meets the moments of a real control only; a complex
    # target (a library caller's, the CLI parses real ones) would be missed
    for a, z0, k_max in ((A2, {1: [1.0, 0.5j]}, 4), ([[-2.5]], {1: [1j]}, 2)):
        for basis in ("raw", "edd"):
            _, _, ms, gamma = pipeline(a, [1.0, 0.0][:len(a)], k_max,
                                       3 * TWO_PI, basis=basis, z0=z0)
            with pytest.raises(ValueError, match="not mirror-symmetric"):
                synthesize(ms, gamma)


def test_edd_gram_matches_quadrature():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 3)
    edd = build_edd(grid)
    ms = assemble_gram(edd, 2 * TWO_PI)

    # explicit real basis functions, in moment-system order: per |k|, Re
    # and then Im of block k's divided differences (no self-mirrored node)
    funcs = []
    for nodes, w in zip(edd.nodes[3:], edd.weights[3:]):
        phis = [oracles.combo(np.conj(nodes), w[j]) for j in range(grid.n)]
        funcs += [lambda t, f=f: f(t).real for f in phis]
        funcs += [lambda t, f=f: f(t).imag for f in phis]
    rng = np.random.default_rng(13)
    for _ in range(10):
        i, j = rng.integers(0, len(funcs), size=2)
        want = oracles.quad_complex(lambda t: funcs[j](t) * funcs[i](t),
                                    0.0, ms.duration).real
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
    _, _, ms, gamma = pipeline(A2, B2, 3, 2 * TWO_PI)
    signal = synthesize(ms, gamma)
    assert np.allclose(signal.amplitudes, 0.0)
    assert signal.moment_residual == 0.0
    assert signal.l2_norm() == 0.0


def test_synthesize_diagonal_example():
    _, _, ms, gamma = pipeline([[0.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    signal = synthesize(ms, gamma)
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
    _, grid, ms, gamma = pipeline(A2, B2, 3, 2 * TWO_PI, z0=z0, z1=z1)
    signal = synthesize(ms, gamma)
    assert signal.moment_residual <= 1e-10
    f = oracles.combo(signal.frequencies, signal.amplitudes)
    freqs = grid.frequencies()
    for j in range(len(freqs)):
        got = oracles.inner_product(f, freqs[j], ms.duration)
        assert abs(got - gamma[j]) <= 1e-7 * (1.0 + abs(gamma[j]))

    # the divided-difference route must satisfy the same raw moments
    _, _, ms_e, gamma_e = pipeline(A2, B2, 3, 2 * TWO_PI, basis="edd",
                                   z0=z0, z1=z1)
    sig_e = synthesize(ms_e, gamma_e)
    f_e = oracles.combo(sig_e.frequencies, sig_e.amplitudes)
    for j in (0, 3, 5, 7, 9, 11):
        got = oracles.inner_product(f_e, freqs[j], ms.duration)
        assert abs(got - gamma[j]) <= 1e-7 * (1.0 + abs(gamma[j]))


def test_synthesize_real_for_real_data():
    rng = np.random.default_rng(23)
    for _ in range(10):
        z0 = {1: rng.standard_normal(2), 2: rng.standard_normal(2)}
        z1 = {1: rng.standard_normal(2)}
        _, _, ms, gamma = pipeline(A2, B2, 4, 2 * TWO_PI, z0=z0, z1=z1)
        signal = synthesize(ms, gamma)
        assert signal.realification_residual <= 1e-8
        fixed = realify(signal)
        assert l2_distance(signal, fixed) <= 1e-8 * signal.l2_norm()
        t = np.linspace(0.0, signal.duration, 50)
        vals = fixed.evaluate(t)
        assert np.max(np.abs(vals.imag)) <= 1e-10 * (1 + np.max(np.abs(vals)))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double on this platform")
def test_pin_growing_moments():
    # real frequencies amplify nothing: no extra term
    _, _, ms, gamma = pipeline(A2, B2, 3, 2 * TWO_PI, z0={1: [1.0, 0.0]})
    assert synthesize(ms, gamma).frequencies.size == 2 * 3 * 2

    # lambda = -2.5: the k = -1 representer is e^{-mu t}, mu = sqrt(1.5), and
    # its state is the moment times e^{mu T} = 1e10 at T = 6 pi
    duration, mu = 3 * TWO_PI, math.sqrt(1.5)
    target = TargetSpec({1: [1.0]}, {2: [0.5]})
    spec, grid, ms, gamma = pipeline([[-2.5]], [1.0], 4, duration,
                                     z0=target.z0, z1=target.z1)
    modal = target_to_modal(target, spec, grid)
    pinned = synthesize(ms, gamma)
    assert pinned.frequencies.size == 2 * 4 + 1
    assert pinned.frequencies[-1] == pytest.approx(1j * mu)
    assert abs(pinned.amplitudes[-1]) <= 1e-14 * pinned.l2_norm()
    assert pinned.amplitudes[-1].imag == 0.0
    assert verify(spec, grid, pinned, modal, duration).max_rel_error <= 1e-9


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double on this platform")
def test_pinned_complex_pair_is_mirrored_by_family_position():
    # lambda = -0.9 +- 2i at T = 4 pi + 1: the k = +-1 representers of one
    # level decay, e^{Im T} = 5e5, and are pinned in pairs; block -1's extra
    # amplitude is the conjugate of block 1's at the same family position
    from wavemoment.moments import GROWTH_PIN

    a = [[-0.9, 2.0], [-2.0, -0.9]]
    duration = 2 * TWO_PI + 1.0
    target = TargetSpec({1: [1.0, 0.5]}, {2: [0.0, -0.3]})
    for basis in ("raw", "edd"):
        spec, grid, ms, gamma = pipeline(a, B2, 8, duration, basis=basis,
                                         z0=target.z0, z1=target.z1)
        family = ms.family
        signal = synthesize(ms, gamma)
        reps = np.conj(family.nodes)
        pin = reps.imag * duration > math.log(GROWTH_PIN)
        assert pin.sum() == 2 and not family.self_mirrored.any()
        assert np.array_equal(pin[7::-1], pin[8:])
        m = family.nodes.size
        assert np.array_equal(signal.frequencies[m:], reps[pin])
        amps = signal.amplitudes
        assert np.array_equal(amps[mirror_of(signal, family)], np.conj(amps))
        extra = np.zeros(reps.shape, dtype=complex)
        extra[pin] = amps[m:]
        assert np.array_equal(extra[7::-1], np.conj(extra[8:]))
        assert np.abs(amps[m:]).max() <= 1e-12 * signal.l2_norm()
        modal = target_to_modal(target, spec, grid)
        assert verify(spec, grid, signal, modal, duration).max_rel_error \
            <= 1e-9


def test_synthesize_raw_vs_edd_same_control():
    z0 = {1: [0.3, -0.2], 4: [0.0, 1.0]}
    _, _, ms_r, gamma = pipeline(A2, B2, 6, 2 * TWO_PI, z0=z0)
    _, _, ms_e, _ = pipeline(A2, B2, 6, 2 * TWO_PI, basis="edd", z0=z0)
    sig_r = synthesize(ms_r, gamma)
    sig_e = synthesize(ms_e, gamma)
    assert l2_distance(sig_r, sig_e) <= 1e-6 * sig_r.l2_norm()


def test_cond_estimate_is_that_of_the_normalized_gram():
    # scaling a basis function changes neither the span nor the control,
    # so the estimate is taken on D G D, D = diag(G)^(-1/2); criterion 6's
    # system (K = 16, T = 4 pi), where the EDD diagonal spans 12.6 to 658
    z0 = {1: [1.0, 0.0], 2: [0.0, 1.0]}
    z1 = {1: [0.0, 1.0]}
    controls = []
    for basis in ("raw", "edd"):
        _, _, ms, gamma = pipeline(A2, B2, 16, 2 * TWO_PI, basis=basis,
                                   z0=z0, z1=z1)
        d = 1.0 / np.sqrt(ms.gram.diagonal().real)
        want = factor_hermitian(ms.gram * np.multiply.outer(d, d)).cond
        assert ms.cond_estimate == pytest.approx(want, rel=1e-12, abs=0)
        controls.append(synthesize(ms, gamma))
    sig_r, sig_e = controls
    assert l2_distance(sig_r, sig_e) <= 1e-6 * sig_r.l2_norm()


def test_synthesize_singular_on_resonance():
    # eigenvalue gap 3 = 2^2 - 1^2 duplicates a frequency across levels
    _, _, ms, gamma = pipeline([[0.0, 0.0], [1.0, 3.0]], [1.0, 0.0], 2,
                               2 * TWO_PI, z0={1: [1.0, 0.0]})
    with pytest.raises(SingularSystem):
        synthesize(ms, gamma)


def test_synthesize_singular_on_zero_mode_pair():
    # omega = 0 at k = +-1 collapses the two basis functions into one
    _, _, ms, gamma = pipeline([[-1.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    with pytest.raises(SingularSystem):
        synthesize(ms, gamma)


def test_synthesize_conditioning_cap():
    _, _, ms, gamma = pipeline([[0.0]], [1.0], 1, TWO_PI, z1={1: [1.0]})
    with pytest.raises(ConditioningExceeded):
        synthesize(ms, gamma, tol=DEFAULT.replace(cond_cap=0.5))


def test_minimal_norm_monotone_bounded():
    # a fixed finite target gains only constraints as the truncation grows,
    # so the minimal control norm is nondecreasing and stays bounded
    z0 = {1: [1.0, 0.0], 2: [0.0, 0.5], 3: [0.2, 0.0]}
    norms = []
    for k_max in (4, 8, 16):
        _, _, ms, gamma = pipeline(A2, B2, k_max, 2 * TWO_PI, basis="edd",
                                   z0=z0)
        norms.append(synthesize(ms, gamma).l2_norm())
    assert norms[0] <= norms[1] * (1 + 1e-9)
    assert norms[1] <= norms[2] * (1 + 1e-9)
    assert norms[2] <= 2.0 * norms[0]


def test_realification_residual_matches_quadrature():
    # N = 4 lower-bidiagonal system, K = 32, EDD basis, README target: the
    # control is real by construction (conjugate amplitudes on mirrored
    # frequencies), so the residual reads 0 and the sampled Im f is the
    # rounding of the sums alone
    a = np.diag([0.5, -0.3, 1.7, 2.9]) + np.eye(4, k=-1)
    duration = 4 * TWO_PI + 1.0
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    _, _, ms, gamma = pipeline(a, e1, 32, duration, basis="edd",
                               z0={1: e1, 2: e2}, z1={1: e2})
    signal = synthesize(ms, gamma)
    t = np.linspace(0.0, duration, 20001)
    vals = np.exp(1j * np.multiply.outer(t, signal.frequencies)) \
        @ signal.amplitudes
    want = math.sqrt(simpson(vals.imag ** 2, x=t)
                     / simpson(np.abs(vals) ** 2, x=t))
    assert signal.realification_residual == 0.0
    assert want <= 1e-12
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
    re = n2_normalize_eigvecs(spec, B2)
    phi = re.eigenvectors
    assert phi[0].sum() == pytest.approx(0.8)
    assert np.allclose(phi.sum(axis=1), [0.8, 0.0], atol=1e-12)
    assert sorted(phi[1], key=lambda z: z.real) == pytest.approx([-1.0, 1.0])
    assert np.allclose(re.eigenvectors @ re.beta, B2, atol=1e-12)
    assert np.allclose(re.biorthogonal.conj().T @ re.eigenvectors, np.eye(2),
                       atol=1e-12)


def test_n2_normalize_symmetric_example():
    a = np.array([[0.1, 0.4], [0.4, 0.1]])  # eigenvectors (1, 1) and (1, -1)
    spec = decompose(CouplingSystem(a, B2))
    phi = n2_normalize_eigvecs(spec, B2).eigenvectors
    assert phi[0].sum() == pytest.approx(2.0)
    assert np.allclose(phi.sum(axis=1), [2.0, 0.0], atol=1e-12)


def test_n2_normalize_degenerate():
    b = np.array([1.0, 1.0])
    spec = decompose(CouplingSystem(np.diag([-0.3, 0.5]), b))
    with pytest.raises(DegenerateEigenvector):
        n2_normalize_eigvecs(spec, b)
    with pytest.raises(ValueError):
        n2_normalize_eigvecs(spec_for([1.0]), b[:1])


def test_n2_sharp_examples():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 2)

    spec2 = n2_normalize_eigvecs(spec, B2)
    sharp = target_to_modal(TargetSpec({1: [1.0, 0.0]}, {}), spec2, grid)
    assert np.allclose(sharp.a[0], [1.25, 1.25], atol=1e-12)
    assert np.allclose(sharp.adot, 0.0)

    sharp = target_to_modal(TargetSpec({1: [0.0, 1.0]}, {}), spec2, grid)
    assert np.allclose(sharp.a[0], [-1.0, 0.0], atol=1e-12)

    sharp = target_to_modal(TargetSpec({}, {}), spec2, grid)
    assert np.allclose(sharp.a, 0.0) and np.allclose(sharp.adot, 0.0)

    with pytest.raises(ModeOutOfRange):
        target_to_modal(TargetSpec({3: [1.0, 0.0]}, {}), spec2, grid)
    with pytest.raises(ValueError):
        target_to_modal(TargetSpec({1: [1.0]}, {}), spec2, grid)


def test_n2_edd_coefficients():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 3)
    gap = grid.omega[0, 1] - grid.omega[0, 0]

    modal = target_to_modal(TargetSpec({1: [0.0, 1.0]}, {}),
                            n2_normalize_eigvecs(spec, B2), grid)
    tilde = n2_edd_coefficients(modal, grid)
    assert tilde[0, 0] == pytest.approx(-1.0)
    assert tilde[0, 1] == pytest.approx(1.0 / gap)

    rng = np.random.default_rng(37)
    for _ in range(10):
        a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        tilde = n2_edd_coefficients(ModalState(a, np.zeros_like(a)), grid)
        for mode in range(1, 4):
            g = grid.omega[mode - 1, 1] - grid.omega[mode - 1, 0]
            assert tilde[mode - 1, 0] == pytest.approx(a[mode - 1, 0])
            assert tilde[mode - 1, 1] == pytest.approx(
                (a[mode - 1, 1] - a[mode - 1, 0]) / g)


def test_control_signal_api():
    sig = ControlSignal(TWO_PI, [1.0, -1.0], [0.5, 0.5])
    t, values = sig.sample(9)
    assert np.array_equal(t, np.linspace(0.0, TWO_PI, 9))
    assert np.allclose(values, np.cos(t), atol=1e-12)
    assert np.all(np.abs(values - sig.evaluate(t))
                  <= oracles.sample_rounding_bound(sig, t))
    with pytest.raises(ValueError):
        ControlSignal(TWO_PI, [1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        ControlSignal(0.0, [1.0], [0.5])
    with pytest.raises(ValueError):
        sig.sample(1)
