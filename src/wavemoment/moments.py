"""Terminal-state moment problems and minimal-norm control synthesis.

Driving the system to a prescribed terminal state is equivalent to a family
of moment equations on the control f: its inner products against the
exponentials e_{k,l}(t) = exp(i*conj(omega_{k,l})*t) over [0, T] (the Riesz
representers of the moment functionals) must equal values gamma_{k,l}
computed from the target.  The minimal L2-norm solution inside the
truncated span solves the Hermitian Gram system G alpha = gamma.  The raw
exponentials are the order-one divided-difference family, so both bases run
one path; in-block divided differences undo the clustering that poisons them.
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
from .spectrum import EddFamily, FrequencyGrid, build_raw
from .tolerances import DEFAULT, Tolerances

# a moment whose terminal-state amplification |e^{i omega T}| exceeds this is
# pinned after synthesis, and the evolution that verifies it runs in long double
GROWTH_PIN = 1e4

__all__ = [
    "ModalState", "TargetSpec", "MomentSystem", "ControlSignal",
    "N2Normalization", "gram_entry", "assemble_gram", "target_to_modal",
    "moments_from_target", "synthesize", "realify", "pin_growing_moments",
    "combo_l2_norm",
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
    """Assembled Gram system over the signed index order, |k| <= ``k_max``.

    ``gram`` is the Hermitian Gram G of the family (of the order-one family
    for "raw": the symmetrized kernel); the norms of a control in the span
    are quadratic forms on it.  G and the factor are its two m x m arrays.
    ``scale`` is D = diag(G)^(-1/2), so S = D G D is the Gram of the
    normalized family (unit-norm basis functions); ``factor`` is the one
    Cholesky factor of S[order][:, order], ``order`` sorting the unknowns by
    |k| (stably), and ``cond_estimate`` its 1-norm condition estimate, which
    does not depend on how the basis functions are scaled.  ``gamma`` holds
    the moments of the plain exponentials (eigenvalue-ordered); the family's
    weights map them at solve time.
    """

    k_max: int
    basis_kind: str
    gram: np.ndarray
    cond_estimate: float
    duration: float = 0.0
    gamma: np.ndarray | None = None
    factor: HermitianFactor | None = None
    scale: np.ndarray | None = None
    order: np.ndarray | None = None

    def restrict(self, k_max: int) -> "MomentSystem":
        """The system over |k| <= k_max, 1 <= k_max <= K (else ValueError),
        with no new assembly: G and D are middle blocks (views, as kernel
        entries are element-wise and weights block-local); the factor of its
        S, in |k| order, is L's leading block (copied when smaller)."""
        if not 1 <= k_max <= self.k_max:
            raise ValueError(f"k_max {k_max} outside 1..{self.k_max}")
        n = self.gram.shape[0] // (2 * self.k_max)  # unknowns per mode
        mid = slice((self.k_max - k_max) * n, (self.k_max + k_max) * n)
        size = 2 * k_max * n
        factor, gram, scale = self.factor, self.gram[mid, mid], self.scale[mid]
        if size < factor.lu.shape[0]:
            lu = np.array(factor.lu[:size, :size], order="F")
            anorm = float((scale * (np.abs(gram) @ scale)).max())
            factor = HermitianFactor(lu, anorm,
                                     cond_estimate_1norm(lu, anorm))
        return dataclasses.replace(
            self, k_max=k_max, gram=gram, scale=scale, factor=factor,
            cond_estimate=factor.cond, gamma=None,
            order=self.order[:size] - mid.start)


@dataclasses.dataclass
class ControlSignal:
    """Finite exponential combination f(t) = sum_j amp_j * exp(i*freq_j*t).

    ``norm`` (||f|| in L2(0, duration)) and ``realification_residual``
    (||Im f|| / ||f||) come from the assembled Gram G; a combination built
    by hand computes them from its own kernel.
    """

    duration: float
    frequencies: np.ndarray
    amplitudes: np.ndarray
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

    def evaluate(self, t) -> np.ndarray:
        # one sum per sample (a matrix product sums a lone row another way)
        t = np.asarray(t, dtype=float)
        return np.vecdot(np.conj(self.amplitudes),
                         np.exp(1j * np.multiply.outer(t, self.frequencies)))

    def sample(self, count: int) -> tuple:
        """(t, f(t)) on ``count`` uniform points of [0, duration]; row blocks
        keep the points x terms exponential table small."""
        if count < 2:
            raise ValueError("need at least two samples")
        t = np.linspace(0.0, self.duration, count)
        return t, np.concatenate([self.evaluate(t[rows]) for rows in
                                  row_blocks(count, self.frequencies.size)])

    def l2_norm(self) -> float:
        if self.norm is None:
            return combo_l2_norm(self.frequencies, self.amplitudes, self.duration)
        return self.norm


def gram_entry(omega_a, omega_b, duration: float, tol: Tolerances = DEFAULT):
    """Inner products (e_a, e_b) of exponentials over [0, duration].

    Closed form (e^{i*Delta*T} - 1)/(i*Delta) with Delta = omega_a -
    conj(omega_b); a second-order series takes over for |Delta| below
    ``tol.series_switch`` to avoid cancellation; long-double frequencies give
    long-double entries.  Broadcasts, so
    ``gram_entry(f, f[:, None], T)`` is the kernel B[i, j] = (e_j, e_i) of a
    frequency vector f.
    """
    delta = np.asarray(omega_a) - np.conj(np.asarray(omega_b))
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


def _norm_and_residual(freqs, re, im, duration, tol, form=None) -> tuple:
    """(||f||, ||Im f|| / ||f||) as quadratic forms on ``form`` (a Gram over
    the coefficients re and im), by default the kernel of freqs."""
    if form is None:
        form = gram_entry(freqs, freqs[:, None], duration, tol=tol)
    re2, im2 = _sq_norms(form, re, im)
    norm = math.sqrt(re2 + im2)
    return norm, math.sqrt(im2) / max(norm, 1e-300)


def _weighted_gram(family: EddFamily, duration: float,
                   tol: Tolerances) -> tuple:
    """conj(W) @ B @ W.T for the block-diagonal weights W of a family and
    the kernel B[i, j] = (e_j, e_i) of its exponentials.

    B is never stored: each row block of whole weight blocks is filled and
    multiplied by conj(W) of those blocks straight into the product.  One
    n x n block at a time: O(m^2 n), and the same sums in the same order as
    the dense m^3 products (the right one as (W @ left.T).T).  The right
    product is written over the left one, so the result is a Fortran-ordered
    view; the second m x m buffer (left.T) comes back as spare.
    """
    w, freqs = family.weights, np.conj(family.nodes.ravel())
    blocks, n, m = w.shape[0], family.n, freqs.size
    left = np.empty((blocks, n, m), dtype=complex)
    for rows in row_blocks(blocks, n * m):
        kernel = gram_entry(freqs, freqs[rows.start * n:rows.stop * n, None],
                            duration, tol=tol)
        np.matmul(np.conj(w[rows]), kernel.reshape(-1, n, m), out=left[rows])
    spare = np.ascontiguousarray(left.reshape(m, m).T)
    np.matmul(w, spare.reshape(blocks, n, m), out=left)
    return left.reshape(m, m).T, spare


def _family(grid: FrequencyGrid, basis_kind: str,
            edd: EddFamily | None) -> EddFamily:
    """The family of ``basis_kind``: ``build_raw(grid)`` or ``edd``."""
    if basis_kind not in ("raw", "edd"):
        raise ValueError(f"unknown basis_kind {basis_kind!r}")
    if basis_kind == "edd" and edd is None:
        raise ValueError("edd family required for basis_kind='edd'")
    return build_raw(grid) if basis_kind == "raw" else edd


def assemble_gram(grid: FrequencyGrid, duration: float, basis_kind: str = "raw",
                  edd: EddFamily | None = None,
                  tol: Tolerances = DEFAULT) -> MomentSystem:
    """Build the Hermitian Gram G of the chosen family over [0, duration].

    The family is ``build_raw(grid)`` (order one) for ``basis_kind`` "raw"
    and ``edd`` for "edd".  The one factorization is of S = D G D, with
    D = diag(G)^(-1/2), the Gram of the normalized family: scaling a basis
    function changes neither the span nor the minimal-norm control, so
    ``cond_estimate`` (the 1-norm estimate of S) measures the family's
    independence, within a factor m of the best diagonal scaling of G (van
    der Sluis, 1969).  S is Cholesky-factored in |k| order, so the factor
    serves every smaller K (``restrict``).  A singular Gram still assembles;
    ``synthesize`` raises on its pivots.  The kernel is filled in row blocks
    and streamed into the weight product, never stored; G takes the
    product's spare buffer and S (factored in place) the product's own, so
    two m x m arrays are kept: G and the factor.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    family = _family(grid, basis_kind, edd)
    weighted, spare = _weighted_gram(family, duration, tol)
    gram = np.conjugate(weighted.T, out=spare)
    gram += weighted
    gram /= 2.0
    scale = 1.0 / np.sqrt(gram.diagonal().real)
    # S[order][:, order] over the Fortran-ordered product, by conjugated rows
    order = np.argsort(np.abs(grid.signed_k()), kind="stable")
    columns = weighted.T
    for column, i in zip(columns, order):
        np.take(gram[i], order, out=column, mode="clip")
    columns *= scale[order]
    columns *= scale[order, None]
    np.conjugate(columns, out=columns)
    factor = factor_hermitian(weighted, tol=tol, overwrite=True)
    return MomentSystem(k_max=grid.k_max, basis_kind=basis_kind, gram=gram,
                        cond_estimate=factor.cond, duration=duration,
                        factor=factor, scale=scale, order=order)


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
    k_abs = np.abs(grid.signed_k())
    beta_at = np.tile(beta, 2 * grid.k_max)
    phase = np.exp(-1j * grid.frequencies() * duration)
    return c * (np.pi / (2.0 * k_abs)) / beta_at * phase


def _edd_transform_gamma(gamma: np.ndarray, family: EddFamily) -> np.ndarray:
    """Map the moments of the plain exponentials to the family's, blockwise."""
    n = family.n
    perm = (family.perm + n * np.arange(2 * family.k_max)[:, None]).ravel()
    return (np.conj(family.weights) @ gamma[perm].reshape(-1, n, 1)).ravel()


def synthesize(ms: MomentSystem, grid: FrequencyGrid,
               edd: EddFamily | None = None,
               tol: Tolerances = DEFAULT) -> ControlSignal:
    """Minimal-norm control in the span of the assembled family.

    Solves S y = D W gamma, W the weights of the family (``build_raw(grid)``
    for "raw", ``edd`` for "edd"), on the stored Cholesky factor of the
    normalized Gram S = D G D and expands the coefficients D y into a plain
    exponential combination, with norm and realification residual as
    quadratic forms on G; the moment residual is measured against G.  Raises
    SingularSystem when a pivot L_jj^2 of S is at most
    ``tol.pivot_tol * ||S||_1`` (resonance or insufficient control time) and
    ConditioningExceeded when the condition estimate of S is above
    ``tol.cond_cap``.
    """
    if ms.gamma is None:
        raise ValueError("moment system has no gamma attached")
    family = _family(grid, ms.basis_kind, edd)
    rhs = _edd_transform_gamma(ms.gamma, family)
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

    freqs = np.conj(family.nodes.ravel())
    wt = family.weights.transpose(0, 2, 1)
    amps = (wt @ coef.reshape(-1, family.n, 1)).ravel()
    closed, re, im = _real_split(freqs, amps)
    if closed is freqs:
        # the family coefficients u, W^T u = x, of Re f and Im f; W^T is
        # upper triangular in each block, so the solve does no pivoting
        re, im = (np.linalg.solve(wt, x.reshape(-1, family.n, 1)).ravel()
                  for x in (re, im))
    norm, imag = _norm_and_residual(closed, re, im, ms.duration, tol,
                                    ms.gram if closed is freqs else None)
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


def pin_growing_moments(signal: ControlSignal, grid: FrequencyGrid,
                        gamma: np.ndarray,
                        tol: Tolerances = DEFAULT) -> ControlSignal:
    """Meet the moments whose state amplification e^{i omega T} exceeds
    GROWTH_PIN: the control's moments against those (decaying)
    representers are taken in long double, and the miss is met by extra
    real terms on them, appended; their amplitudes are tiny, so their own
    rounding does not matter.  Norm and residuals are left as they are."""
    freqs = np.conj(grid.frequencies())
    pin = freqs.imag * signal.duration > math.log(GROWTH_PIN)
    if not pin.any():
        return signal
    held = gram_entry(signal.frequencies.astype(np.clongdouble),
                      freqs[pin, None].astype(np.clongdouble),
                      signal.duration, tol=tol) \
        @ signal.amplitudes.astype(np.clongdouble)
    miss = (gamma[pin] - held).astype(complex)
    block = gram_entry(freqs[pin], freqs[pin, None], signal.duration, tol=tol)
    extra, amps, _ = _real_split(freqs[pin], np.linalg.solve(block, miss))
    return dataclasses.replace(
        signal, frequencies=np.concatenate([signal.frequencies, extra]),
        amplitudes=np.concatenate([signal.amplitudes, amps]))


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
    w = grid.omega[:modal.k_max]
    a = modal.a
    return np.column_stack([a[:, 0], (a[:, 1] - a[:, 0]) / (w[:, 1] - w[:, 0])])
