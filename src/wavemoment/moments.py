"""Terminal-state moment problems and minimal-norm control synthesis.

Driving the system to a prescribed terminal state is equivalent to a family
of moment equations on the control f: its inner products against the grid
exponentials e_{k,l}(t) = exp(i*omega_{k,l}*t) over [0, T] must equal values
gamma_{k,l} computed from the target.  The minimal L2-norm solution inside
the truncated span solves the Hermitian Gram system G alpha = gamma; a
divided-difference basis replaces the raw exponentials when in-block
clustering would poison the conditioning.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._kernels import phase_integral, row_blocks
from .coupling import SpectralDecomposition
from .exceptions import (BetaZero, ConditioningExceeded, DegenerateEigenvector,
                         ModeOutOfRange)
from .linalg import (HermitianFactor, cond_estimate_1norm, factor_hermitian,
                     solve_hermitian)
from .spectrum import EddFamily, FrequencyGrid, signed_modes
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "ModalState", "TargetSpec", "MomentSystem", "ControlSignal",
    "N2Normalization", "gram_entry", "assemble_gram", "target_to_modal",
    "moments_from_target", "synthesize", "realify", "combo_l2_norm",
    "n2_normalize_eigvecs", "n2_sharp_targets", "n2_edd_coefficients",
]


@dataclasses.dataclass
class ModalState:
    """Modal coefficient tables a and adot, rows k = 1..k_max, cols l = 1..n.

    The exponential-form coefficients extend to signed k through
    c_{k,l} = i*omega_{k,l} a_{k,l} + adot_{k,l} with a and adot even in k
    and omega odd in k, so c_{-k,l} = -i*omega_{k,l} a_{k,l} + adot_{k,l}.
    """

    a: np.ndarray
    adot: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=complex)
        self.adot = np.asarray(self.adot, dtype=complex)
        if self.a.shape != self.adot.shape or self.a.ndim != 2:
            raise ValueError("a and adot must be 2-D arrays of equal shape")

    @property
    def k_max(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def c_signed(self, grid: FrequencyGrid) -> np.ndarray:
        """c coefficients aligned with ``grid.signed_indices()``."""
        w = grid.omega[: self.k_max]
        c_pos = 1j * w * self.a + self.adot
        c_neg = -1j * w * self.a + self.adot
        return np.concatenate([c_neg[::-1].ravel(), c_pos.ravel()])


@dataclasses.dataclass
class TargetSpec:
    """Sine-series coefficients of the terminal state and velocity.

    ``z0`` and ``z1`` map mode number n >= 1 to a complex component vector of
    length N (terminal displacement and velocity respectively).
    """

    z0: dict
    z1: dict

    def __post_init__(self):
        self.z0 = {int(n): np.asarray(v, dtype=complex) for n, v in dict(self.z0).items()}
        self.z1 = {int(n): np.asarray(v, dtype=complex) for n, v in dict(self.z1).items()}
        for tab in (self.z0, self.z1):
            for n, v in tab.items():
                if n < 1:
                    raise ValueError(f"mode number {n} must be >= 1")
                if v.ndim != 1 or not np.all(np.isfinite(v.real) & np.isfinite(v.imag)):
                    raise ValueError(f"coefficients for mode {n} must be a finite vector")

    def max_mode(self) -> int:
        modes = list(self.z0) + list(self.z1)
        return max(modes) if modes else 0


@dataclasses.dataclass
class MomentSystem:
    """Assembled Gram system over the signed index order.

    ``kernel`` is B[i, j] = (e_j, e_i) over the family's exponentials, before
    EDD weights and symmetrization; ``gram`` is the Hermitian Gram G of the
    family.  ``scale`` is D = diag(G)^(-1/2), so S = D G D is the Gram of the
    normalized family (unit-norm basis functions); ``factor`` is the one
    Cholesky factor of S[order][:, order], ``order`` sorting the unknowns by
    |k| (stably), and ``cond_estimate`` its 1-norm condition estimate, which
    does not depend on how the basis functions are scaled.  ``gamma``
    always stores the raw moments (eigenvalue-ordered); for the
    divided-difference basis the triangular weight map is applied at solve
    time.
    """

    index_order: list
    basis_kind: str
    gram: np.ndarray
    cond_estimate: float
    duration: float = 0.0
    gamma: np.ndarray | None = None
    kernel: np.ndarray | None = None
    factor: HermitianFactor | None = None
    scale: np.ndarray | None = None
    order: np.ndarray | None = None

    def restrict(self, k_max: int) -> "MomentSystem":
        """The system over |k| <= k_max, with no new assembly: G, kernel and
        D are middle blocks (views; kernel entries are element-wise, EDD
        weights block-local), and the factor of its S, in |k| order, is the
        leading block of L (copied when smaller, with its own 1-norm)."""
        keep = [i for i, (k, _) in enumerate(self.index_order)
                if abs(k) <= k_max]
        mid, n = slice(keep[0], keep[-1] + 1), len(keep)
        factor, gram, scale = self.factor, self.gram[mid, mid], self.scale[mid]
        if n < factor.lu.shape[0]:
            lu = np.array(factor.lu[:n, :n], order="F")
            anorm = float((scale * (np.abs(gram) @ scale)).max())
            factor = HermitianFactor(lu, anorm,
                                     cond_estimate_1norm(lu, anorm))
        return dataclasses.replace(
            self, index_order=self.index_order[mid], gram=gram, scale=scale,
            kernel=self.kernel[mid, mid], factor=factor,
            cond_estimate=factor.cond, gamma=None,
            order=self.order[:n] - mid.start)


@dataclasses.dataclass
class ControlSignal:
    """Finite exponential combination f(t) = sum_j amp_j * exp(i*freq_j*t).

    ``sample_values`` (optional) holds values on the uniform grid
    t_i = i * duration / (samples - 1).  ``norm`` (||f|| in L2(0, duration))
    and ``realification_residual`` (||Im f|| / ||f||) come from the assembled
    kernel; a combination built by hand computes them from its own kernel.
    """

    duration: float
    frequencies: np.ndarray
    amplitudes: np.ndarray
    sample_values: np.ndarray | None = None
    realification_residual: float | None = None
    moment_residual: float | None = None
    norm: float | None = None

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=complex)
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.frequencies.shape != self.amplitudes.shape:
            raise ValueError("frequencies and amplitudes must align")
        if not self.duration > 0:
            raise ValueError("duration must be positive")

    @property
    def combo(self) -> list:
        return list(zip(self.frequencies.tolist(), self.amplitudes.tolist()))

    @property
    def sample_dt(self) -> float | None:
        if self.sample_values is None:
            return None
        return self.duration / (len(self.sample_values) - 1)

    def evaluate(self, t) -> np.ndarray:
        # one sum per sample (a matrix product sums a lone row another way)
        t = np.asarray(t, dtype=float)
        return np.vecdot(np.conj(self.amplitudes),
                         np.exp(1j * np.multiply.outer(t, self.frequencies)))

    def with_samples(self, count: int) -> "ControlSignal":
        if count < 2:
            raise ValueError("need at least two samples")
        t = np.linspace(0.0, self.duration, count)
        return dataclasses.replace(self, sample_values=self.evaluate(t))

    def l2_norm(self) -> float:
        if self.norm is None:
            return combo_l2_norm(self.frequencies, self.amplitudes, self.duration)
        return self.norm


def gram_entry(omega_a, omega_b, duration: float, tol: Tolerances = DEFAULT):
    """Inner products (e_a, e_b) of exponentials over [0, duration].

    Closed form (e^{i*Delta*T} - 1)/(i*Delta) with Delta = omega_a -
    conj(omega_b); a second-order series takes over for |Delta| below
    ``tol.series_switch`` to avoid cancellation.  Broadcasts, so
    ``gram_entry(f, f[:, None], T)`` is the kernel B[i, j] = (e_j, e_i) of a
    frequency vector f.
    """
    delta = np.asarray(omega_a, dtype=complex) \
        - np.conj(np.asarray(omega_b, dtype=complex))
    return phase_integral(delta, duration, switch=tol.series_switch)


def _sq_norms(kernel: np.ndarray, *amps) -> list:
    return [max(float(np.vdot(a, kernel @ a).real), 0.0) for a in amps]


def combo_l2_norm(frequencies, amplitudes, duration: float,
                  tol: Tolerances = DEFAULT) -> float:
    """L2(0, duration) norm of an exponential combination (Gram quadratic form)."""
    f = np.asarray(frequencies, dtype=complex)
    a = np.asarray(amplitudes, dtype=complex)
    if f.size == 0:
        return 0.0
    return math.sqrt(_sq_norms(gram_entry(f, f[:, None], duration, tol=tol), a)[0])


def _real_split(freqs: np.ndarray, amps: np.ndarray) -> tuple:
    """(freqs, re, im) with Re f and Im f as combinations on the same terms.

    conj(f) puts conj(amps[j]) on the term P[j] with freqs[P] == -conj(freqs)
    exactly, so Im f is formed per amplitude, free of cancellation in L2.  A
    set not closed under w -> -conj(w) (no grid of a real A) gets its mirror.
    """
    mirror = -np.conj(freqs)
    pair = np.lexsort((freqs.imag, freqs.real))[
        np.argsort(np.lexsort((mirror.imag, mirror.real)))]
    if not np.array_equal(freqs[pair], mirror):
        n = freqs.size
        freqs = np.concatenate([freqs, mirror])
        amps = np.concatenate([amps, np.zeros_like(amps)])
        pair = np.roll(np.arange(2 * n), n)
    conj_amps = np.empty_like(amps)
    conj_amps[pair] = np.conj(amps)
    return freqs, (amps + conj_amps) / 2.0, (amps - conj_amps) / 2j


def _norm_and_residual(freqs, re, im, duration, tol, kernel=None) -> tuple:
    """(||f||, ||Im f|| / ||f||) as quadratic forms on the kernel of freqs."""
    if kernel is None:
        kernel = gram_entry(freqs, freqs[:, None], duration, tol=tol)
    re2, im2 = _sq_norms(kernel, re, im)
    norm = math.sqrt(re2 + im2)
    return norm, math.sqrt(im2) / max(norm, 1e-300)


def _weighted_gram(kernel: np.ndarray, edd: EddFamily) -> tuple:
    """conj(W) @ kernel @ W.T for the block-diagonal EDD weights W.

    One n x n block at a time: O(m^2 n), and the same sums in the same order
    as the dense m^3 products (the right one as (W @ left.T).T).  The right
    product is written over the left one, so the result is a Fortran-ordered
    view; the second m x m buffer (left.T) comes back as spare.
    """
    w = edd.weights
    blocks, n, m = w.shape[0], edd.n, kernel.shape[0]
    left = np.conj(w) @ kernel.reshape(blocks, n, m)
    spare = np.ascontiguousarray(left.reshape(m, m).T)
    np.matmul(w, spare.reshape(blocks, n, m), out=left)
    return left.reshape(m, m).T, spare


def assemble_gram(grid: FrequencyGrid, duration: float, basis_kind: str = "raw",
                  edd: EddFamily | None = None,
                  tol: Tolerances = DEFAULT) -> MomentSystem:
    """Build the Hermitian Gram G of the chosen family over [0, duration].

    ``basis_kind`` is "raw" (grid exponentials, eigenvalue order inside each
    block) or "edd" (divided differences over block-sorted frequencies).
    The one factorization is of S = D G D, D = diag(G)^(-1/2), the Gram of
    the normalized family: scaling a basis function changes neither the span
    nor the minimal-norm control, so ``cond_estimate`` (the 1-norm estimate
    of S) measures the family's independence, within a factor m of the best
    diagonal scaling of G (van der Sluis, 1969).  S is Cholesky-factored in
    |k| order, so the factor serves every smaller K (``restrict``).  A
    singular Gram still assembles; ``synthesize`` raises on its pivots.  The
    kernel is filled in row blocks; G takes the EDD product's spare buffer,
    S (factored in place) its own, or a new one for raw, so three m x m
    arrays are kept: the kernel, G and the factor.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    if basis_kind not in ("raw", "edd"):
        raise ValueError(f"unknown basis_kind {basis_kind!r}")
    if basis_kind == "edd" and edd is None:
        raise ValueError("edd family required for basis_kind='edd'")
    freqs = grid.frequencies() if basis_kind == "raw" else edd.frequencies()
    m = freqs.size
    kernel = np.empty((m, m), dtype=complex)
    for rows in row_blocks(m, m):
        kernel[rows] = gram_entry(freqs, freqs[rows, None], duration, tol=tol)
    if basis_kind == "raw":
        weighted, spare = kernel, np.empty_like(kernel)
    else:
        weighted, spare = _weighted_gram(kernel, edd)
    gram = np.conjugate(weighted.T, out=spare)
    gram += weighted
    gram /= 2.0
    scale = 1.0 / np.sqrt(gram.diagonal().real)
    # S[order][:, order] in Fortran order, each column a conjugated row
    order = np.argsort(np.abs(np.repeat(signed_modes(grid.k_max), grid.n)),
                       kind="stable")
    normalized = np.empty((m, m), complex, "F") if weighted is kernel \
        else weighted
    del weighted
    columns = normalized.T
    for column, i in zip(columns, order):
        np.take(gram[i], order, out=column, mode="clip")
    columns *= scale[order]
    columns *= scale[order, None]
    np.conjugate(columns, out=columns)
    factor = factor_hermitian(normalized, tol=tol, overwrite=True)
    return MomentSystem(index_order=grid.signed_indices(),
                        basis_kind=basis_kind, gram=gram,
                        cond_estimate=factor.cond, duration=duration,
                        kernel=kernel, factor=factor, scale=scale, order=order)


def target_to_modal(target: TargetSpec, spec: SpectralDecomposition,
                    grid: FrequencyGrid) -> ModalState:
    """Project target sine coefficients onto the eigenbasis.

    a_{n,l} = <z0_n, psi_l> and adot_{n,l} = <z1_n, psi_l>; modes absent from
    the target are zero.  Raises ModeOutOfRange if a target mode exceeds the
    grid truncation.
    """
    n_comp = spec.n
    k_max = grid.k_max
    top = target.max_mode()
    if top > k_max:
        raise ModeOutOfRange(f"target mode {top} exceeds truncation {k_max}")
    a = np.zeros((k_max, n_comp), dtype=complex)
    adot = np.zeros((k_max, n_comp), dtype=complex)
    proj = np.conj(spec.biorthogonal)  # column l: projection weights for level l
    for table, out in ((target.z0, a), (target.z1, adot)):
        for mode, vec in table.items():
            if vec.shape != (n_comp,):
                raise ValueError(f"mode {mode}: expected {n_comp} components")
            out[mode - 1] = vec @ proj
    return ModalState(a, adot)


def moments_from_target(modal: ModalState, spec: SpectralDecomposition,
                        grid: FrequencyGrid, duration: float,
                        tol: Tolerances = DEFAULT) -> np.ndarray:
    """Moment values gamma over the signed index order.

    gamma_{k,l} = c_{k,l}(T) * (2|k|/pi * beta_l * e^{i*omega_{k,l}*T})^{-1}
    with omega odd in k.  Raises BetaZero when any |beta_l| is at or below
    tol.beta_tol.
    """
    beta = spec.beta
    if np.any(np.abs(beta) <= tol.beta_tol):
        worst = int(np.argmin(np.abs(beta)))
        raise BetaZero(f"|beta_{worst + 1}| = {np.abs(beta[worst]):.3e} "
                       "is numerically zero")
    c = modal.c_signed(grid)
    idx = grid.signed_indices()
    freqs = grid.frequencies()
    k_abs = np.array([abs(k) for k, _ in idx], dtype=float)
    beta_at = np.array([beta[l - 1] for _, l in idx])
    phase = np.exp(-1j * freqs * duration)
    return c * (np.pi / (2.0 * k_abs)) / beta_at * phase


def _edd_transform_gamma(gamma: np.ndarray, edd: EddFamily) -> np.ndarray:
    """Map raw moments to divided-difference moments, blockwise."""
    n = edd.n
    perm = (edd.perm + n * np.arange(2 * edd.k_max)[:, None]).ravel()
    return (np.conj(edd.weights) @ gamma[perm].reshape(-1, n, 1)).ravel()


def synthesize(ms: MomentSystem, grid: FrequencyGrid,
               edd: EddFamily | None = None,
               tol: Tolerances = DEFAULT) -> ControlSignal:
    """Minimal-norm control in the span of the assembled family.

    Solves S y = D gamma on the stored Cholesky factor of the normalized
    Gram S = D G D (the coefficients are D y) and expands them into a plain
    exponential combination, with norm and realification residual from the
    stored kernel; the moment residual is measured against G.  Raises
    SingularSystem when a pivot L_jj^2 of S is at most
    ``tol.pivot_tol * ||S||_1`` (resonance or insufficient control time) and
    ConditioningExceeded when the condition estimate of S is above
    ``tol.cond_cap``.
    """
    if ms.gamma is None:
        raise ValueError("moment system has no gamma attached")
    if ms.basis_kind == "edd":
        if edd is None:
            raise ValueError("edd family required to synthesize in edd basis")
        rhs = _edd_transform_gamma(ms.gamma, edd)
    else:
        rhs = ms.gamma
    coef, _ = solve_hermitian(ms.gram, rhs, tol=tol, factor=ms.factor,
                              scale=ms.scale, order=ms.order)
    if ms.cond_estimate > tol.cond_cap:
        raise ConditioningExceeded(
            f"normalized gram condition estimate {ms.cond_estimate:.3e} "
            f"exceeds {tol.cond_cap:.1e}")
    rhs_norm = float(np.linalg.norm(rhs))
    residual = 0.0
    if rhs_norm > 0:
        residual = float(np.linalg.norm(ms.gram @ coef - rhs)) / rhs_norm

    if ms.basis_kind == "edd":
        freqs = edd.frequencies()
        amps = (edd.weights.transpose(0, 2, 1)
                @ coef.reshape(-1, edd.n, 1)).ravel()
    else:
        freqs = grid.frequencies()
        amps = coef
    closed, re, im = _real_split(freqs, amps)
    norm, imag = _norm_and_residual(closed, re, im, ms.duration, tol,
                                    ms.kernel if closed is freqs else None)
    return ControlSignal(
        duration=ms.duration, frequencies=freqs, amplitudes=amps,
        realification_residual=imag, moment_residual=residual, norm=norm)


def realify(signal: ControlSignal, tol: Tolerances = DEFAULT) -> ControlSignal:
    """Project a control onto its real part, as an exponential combination.

    Each amplitude is averaged with the conjugate amplitude of its mirror
    frequency -conj(nu); terms come sorted by (Re, Im).  The output records
    the input's relative imaginary content, reused when stored.
    """
    freqs, re, im = _real_split(signal.frequencies, signal.amplitudes)
    norm, resid = signal.norm, signal.realification_residual
    if norm is None or resid is None:
        norm, resid = _norm_and_residual(freqs, re, im, signal.duration, tol)
    order = np.lexsort((freqs.imag, freqs.real))
    return ControlSignal(
        duration=signal.duration, frequencies=freqs[order], amplitudes=re[order],
        realification_residual=resid, moment_residual=signal.moment_residual,
        norm=norm * math.sqrt(max(1.0 - resid * resid, 0.0)))


@dataclasses.dataclass
class N2Normalization:
    """Rescaled eigenvector pair for the two-component sharp construction.

    ``phi1 + phi2 = (alpha, 0)``; the second components are +1 and -1.  The
    attached decomposition carries the rescaled biorthogonal family and beta.
    """

    phi1: np.ndarray
    phi2: np.ndarray
    alpha: complex
    decomposition: SpectralDecomposition


def n2_normalize_eigvecs(spec: SpectralDecomposition,
                         tol: Tolerances = DEFAULT,
                         b: np.ndarray | None = None) -> N2Normalization:
    """Rescale a two-component eigenvector pair so the second components cancel.

    The rescaled pair has second components +1 and -1 (in some order, fixed
    so that Re(alpha) > 0, with ties broken toward Im(alpha) >= 0).  Requires
    both eigenvectors to have nonzero second components (this is forced by
    the rank condition when the control direction is the first coordinate
    axis); raises DegenerateEigenvector otherwise.
    """
    if spec.n != 2:
        raise ValueError("normalization applies to two-component systems only")
    v = spec.eigenvectors
    for j in range(2):
        if abs(v[1, j]) <= 1e-12 * np.linalg.norm(v[:, j]):
            raise DegenerateEigenvector(
                f"eigenvector {j + 1} has numerically zero second component; "
                "inconsistent with the rank condition")
    phi1 = v[:, 0] / v[1, 0]
    phi2 = -v[:, 1] / v[1, 1]
    alpha = phi1[0] + phi2[0]
    if abs(alpha) <= 1e-12:
        raise DegenerateEigenvector("rescaled eigenvectors are parallel")
    if alpha.real < 0 or (alpha.real == 0 and alpha.imag < 0):
        phi1, phi2, alpha = -phi1, -phi2, -alpha
    vp = np.column_stack([phi1, phi2])
    wp = np.linalg.inv(vp)
    if b is None:
        # recover b from the original decomposition: b = V beta
        b = spec.eigenvectors @ spec.beta
    beta = wp @ np.asarray(b, dtype=complex)
    rescaled = SpectralDecomposition(
        eigenvalues=spec.eigenvalues.copy(),
        eigenvectors=vp,
        biorthogonal=wp.conj().T,
        beta=beta,
        min_separation=spec.min_separation)
    return N2Normalization(phi1=phi1, phi2=phi2, alpha=complex(alpha),
                           decomposition=rescaled)


def n2_sharp_targets(target: TargetSpec, norm: N2Normalization,
                     grid: FrequencyGrid) -> ModalState:
    """Modal tables for a two-component target via the order-one
    divided-difference back-substitution.

    With the rescaled pair, the combined mode shape for the order-one
    function is (alpha, 0) and the order-two shape is phi2 * (w_{n,2} -
    w_{n,1}), so the second target component determines the order-two
    coefficient alone and the first component then fixes the order-one
    coefficient.  The result is returned in plain (a, adot) form.
    """
    if grid.n != 2:
        raise ValueError("sharp targets require a two-component grid")
    top = target.max_mode()
    if top > grid.k_max:
        raise ModeOutOfRange(f"target mode {top} exceeds truncation {grid.k_max}")
    alpha = norm.alpha
    beta_c = norm.phi2[0]
    gamma_c = norm.phi2[1]
    a = np.zeros((grid.k_max, 2), dtype=complex)
    adot = np.zeros((grid.k_max, 2), dtype=complex)
    for table, out in ((target.z0, a), (target.z1, adot)):
        for mode, vec in table.items():
            if vec.shape != (2,):
                raise ValueError(f"mode {mode}: expected 2 components")
            gap = grid.omega_at(mode, 2) - grid.omega_at(mode, 1)
            t2 = vec[1] / (gamma_c * gap)
            t1 = (vec[0] - t2 * beta_c * gap) / alpha
            out[mode - 1, 0] = t1
            out[mode - 1, 1] = t1 + t2 * gap
    return ModalState(a, adot)


def n2_edd_coefficients(modal: ModalState, grid: FrequencyGrid) -> np.ndarray:
    """Order-one divided-difference coefficients (tilde table) of a modal state.

    Column 0 is a_{n,1}; column 1 is (a_{n,2} - a_{n,1}) / (w_{n,2} - w_{n,1}).
    """
    if grid.n != 2:
        raise ValueError("divided-difference coefficients require n = 2")
    out = np.empty_like(modal.a)
    for mode in range(1, modal.k_max + 1):
        gap = grid.omega_at(mode, 2) - grid.omega_at(mode, 1)
        out[mode - 1, 0] = modal.a[mode - 1, 0]
        out[mode - 1, 1] = (modal.a[mode - 1, 1] - modal.a[mode - 1, 0]) / gap
    return out
