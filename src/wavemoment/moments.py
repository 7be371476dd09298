"""Terminal-state moment problems and minimal-norm control synthesis.

Driving the system to a prescribed terminal state is equivalent to a family
of moment equations on the control f: its inner products against the
exponentials e_{k,l}(t) = exp(i*conj(omega_{k,l})*t) over [0, T] (the Riesz
representers of the moment functionals) must equal values gamma_{k,l}
computed from the target.  For a real A the exponentials of block -k are the
conjugates of block k's, a real target gives mirror-symmetric moments, and
the minimal L2-norm control is real: it solves the real symmetric Gram
system R c = b over the real and imaginary parts of block k's family
functions.  The raw exponentials are the order-one divided-difference
family, so both bases run one path; in-block divided differences undo the
clustering that poisons them.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._kernels import map_blocks, mirror_index, phase_integral, row_blocks
from .coupling import SpectralDecomposition
from .exceptions import (BetaZero, ConditioningExceeded, DegenerateEigenvector,
                         ModeOutOfRange)
from .linalg import (HermitianFactor, cond_estimate_1norm, factor_hermitian,
                     solve_hermitian)
from .spectrum import EddFamily, FrequencyGrid
from .tolerances import DEFAULT, Tolerances

# a moment whose terminal-state amplification |e^{i omega T}| exceeds this is
# pinned by synthesis, and the evolution that verifies it runs in long double
GROWTH_PIN = 1e4

__all__ = [
    "ModalState", "TargetSpec", "MomentSystem", "ControlSignal",
    "gram_entry", "assemble_gram", "target_to_modal",
    "moments_from_target", "synthesize", "realify", "combo_l2_norm",
    "n2_normalize_eigvecs", "n2_edd_coefficients",
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
    """The real Gram system of ``family``, 2N unknowns per |k| in |k| order.

    The real basis of each |k| holds Re phi and then Im phi of the N family
    functions phi of block k (a self-mirrored phi and, in its Im place, its
    block -k partner, both real).  ``gram`` is their real symmetric Gram R
    over [0, duration], filled block-lower and exactly symmetric; the norms
    of a control in the span are quadratic forms on it.  R and the factor
    are its two m x m arrays.  ``scale`` is D = diag(R)^(-1/2), so
    S = D R D is the Gram of the normalized basis (unit-norm functions);
    ``factor`` is the one Cholesky factor of S, and ``cond_estimate`` its
    1-norm condition estimate, which does not depend on how the basis
    functions are scaled.
    """

    family: EddFamily
    duration: float
    gram: np.ndarray
    factor: HermitianFactor
    scale: np.ndarray

    @property
    def k_max(self) -> int:
        return self.family.k_max

    @property
    def cond_estimate(self) -> float:
        return self.factor.cond

    def restrict(self, k_max: int) -> "MomentSystem":
        """The system over |k| <= k_max, 1 <= k_max <= K (else ValueError),
        with no new assembly: the family's middle rows, and R, D and the
        factor of S leading blocks (R and D views, as kernel entries are
        element-wise and weights block-local; the factor copied when
        smaller)."""
        if not 1 <= k_max <= self.k_max:
            raise ValueError(f"k_max {k_max} outside 1..{self.k_max}")
        rows = slice(self.k_max - k_max, self.k_max + k_max)
        family = dataclasses.replace(
            self.family, k_max=k_max, nodes=self.family.nodes[rows],
            perm=self.family.perm[rows], weights=self.family.weights[rows])
        size = self.gram.shape[0] // self.k_max * k_max
        factor, gram = self.factor, self.gram[:size, :size]
        scale = self.scale[:size]
        if size < factor.lu.shape[0]:
            lu = np.array(factor.lu[:size, :size], order="F")
            anorm = float((scale * (np.abs(gram) @ scale)).max())
            factor = HermitianFactor(lu, anorm,
                                     cond_estimate_1norm(lu, anorm))
        return MomentSystem(family, self.duration, gram, factor, scale)


@dataclasses.dataclass
class ControlSignal:
    """Finite exponential combination f(t) = sum_j amp_j * exp(i*freq_j*t).

    For a synthesized control ``norm`` (||f|| in L2(0, duration)) is the
    solved combination's, from the assembled Gram R (the tiny pinned extra
    terms left out), and ``realification_residual`` (||Im f|| / ||f||) is
    0: the control is real.  ``realify`` measures both for a combination
    built by hand on its own kernel, and ``l2_norm`` falls back to that
    kernel when ``norm`` is None.
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

    def evaluate(self, t) -> np.ndarray:
        """f at the points ``t`` (any shape), from the points x terms table
        of e^{i nu_j t}: one sum per point (a matrix product would sum a
        lone point another way), so a point gives the same bits alone as
        inside a vector."""
        table = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=float),
                                              self.frequencies))
        return np.vecdot(np.conj(self.amplitudes), table)

    def sample(self, count: int) -> tuple:
        """(t, f(t)) on ``count`` uniform points of [0, duration], step dt.

        The points run in blocks of B = ceil(sqrt(count)), and
        f(t_b + q dt) = sum_j (amp_j e^{i nu_j t_b}) e^{i nu_j q dt}: one
        B x terms table of steps and a row of leads per block (leads taken
        a row block at a time) replace ``evaluate``'s count x terms table.
        Sample b B + q is taken at t_b + q dt, t_b = t[b B], which differs
        from the returned t by a few ulps.  Each sample is one sum over the
        terms, so the values do not depend on the row blocks.
        """
        if count < 2:
            raise ValueError("need at least two samples")
        t, dt = np.linspace(0.0, self.duration, count, retstep=True)
        width = math.isqrt(count - 1) + 1
        freqs = self.frequencies
        # conjugated, as vecdot conjugates its first argument
        steps = np.conj(np.exp(1j * np.multiply.outer(np.arange(width) * dt,
                                                      freqs)))
        leads = t[::width]

        def block(rows):
            return np.vecdot(steps, self.amplitudes * np.exp(
                1j * np.multiply.outer(leads[rows], freqs))[:, None, :])

        values = map_blocks(block, row_blocks(leads.size, freqs.size))
        return t, np.concatenate(values).ravel()[:count]

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


def _real_basis(family: EddFamily) -> np.ndarray:
    """Coefficients C[g] (2N x 2N) of the real basis of |k| = g + 1 on its
    exponentials (block k's, then block -k's).

    Row a is Re phi_a = (phi_a + conj(phi_a)) / 2 and row N + a is Im phi_a,
    phi_a = sum_j W[a, j] e_j of block k, since conj(e_j) is block -k's
    exponential at position j; a self-mirrored phi_a (a plain real
    exponential) and its block -k partner take unit rows.
    """
    w = family.weights[family.k_max:]
    wc = np.conj(w)
    coef = np.concatenate([np.concatenate([w, wc], axis=2),
                           np.concatenate([-1j * w, 1j * wc], axis=2)],
                          axis=1) / 2.0
    plain = np.tile(family.self_mirrored, 2)
    return np.where(plain[:, :, None], np.eye(2 * family.n), coef)


def _real_gram(family: EddFamily, duration: float,
               tol: Tolerances) -> np.ndarray:
    """The real Gram R[p, q] = (psi_q, psi_p) of the real basis psi,
    exactly symmetric, C-ordered m x m.

    Only block k's rows of the kernel B[i, j] = (e_j, e_i) are filled, a
    row block of whole |k| at a time against the column groups |k'| up to
    its last |k| (block-lower), and taken through conj(W) on the left and
    C^T on the right: Z[a, q] = (psi_q, phi_a) for block k's functions
    phi_a, whose Re is the row of Re phi_a and whose -Im that of Im phi_a.
    The few rows of self-mirrored block -k partners are filled whole on
    their own.  The lower triangle is then copied into the upper, a block
    of rows at a time in tiles of 256 columns.  Row blocks run on
    ``map_blocks`` threads.
    """
    k_max, n = family.k_max, family.n
    pos, neg = family.nodes[k_max:], family.nodes[k_max - 1::-1]
    cols = np.conj(np.stack([pos, neg], axis=1)).ravel()
    m = cols.size
    right = _real_basis(family).transpose(0, 2, 1)

    def to_basis(rows):
        # (r, width) kernel-side rows over the first width / 2N |k| ->
        # the same rows against psi, |k| by |k|
        groups = rows.reshape(rows.shape[0], -1, 2 * n).transpose(1, 0, 2)
        return np.matmul(groups, right[:groups.shape[0]]) \
            .transpose(1, 0, 2).reshape(rows.shape)

    out = np.empty((k_max, 2, n, m))
    w = np.conj(family.weights[k_max:])

    def fill(rows):
        width = 2 * n * rows.stop
        kernel = gram_entry(cols[:width], np.conj(pos[rows]).reshape(-1, 1),
                            duration, tol=tol)
        z = to_basis(np.matmul(w[rows], kernel.reshape(-1, n, width))
                     .reshape(-1, width)).reshape(-1, n, width)
        out[rows, 0, :, :width] = z.real
        np.negative(z.imag, out=out[rows, 1, :, :width])

    map_blocks(fill, row_blocks(k_max, n * m))
    plain = family.self_mirrored
    if plain.any():
        kernel = gram_entry(cols, np.conj(neg[plain])[:, None], duration,
                            tol=tol)
        out[:, 1][plain] = to_basis(kernel).real
    gram = out.reshape(m, m)

    tile = 256

    def mirror(rows):
        # read down the lower triangle, written across the upper
        for lo in range(rows.stop, m, tile):
            cut = slice(lo, min(lo + tile, m))
            gram[rows, cut] = gram[cut, rows].T
        square = gram[rows, rows]
        upper = np.triu_indices(len(square), 1)
        square[upper] = square.T[upper]

    map_blocks(mirror, row_blocks(m, tile))
    return gram


def assemble_gram(family: EddFamily, duration: float,
                  tol: Tolerances = DEFAULT) -> MomentSystem:
    """Build the real symmetric Gram R of ``family`` over [0, duration].

    The family is ``build_raw(grid)`` (order one) or ``build_edd(grid)``; R
    is the Gram of its real basis (see ``MomentSystem``).  The one
    factorization is of S = D R D, with D = diag(R)^(-1/2), the Gram of the
    normalized basis: scaling a basis function changes neither the span nor
    the minimal-norm control, so ``cond_estimate`` (the 1-norm estimate of
    S) measures the family's independence, within a factor m of the best
    diagonal scaling of R (van der Sluis, 1969).  The unknowns are in |k|
    order, so the factor serves every smaller K (``restrict``).  A singular
    Gram still assembles; ``synthesize`` raises on its pivots.  Only the
    kernel's block-lower half is filled, in row blocks streamed into the
    basis products and never stored, and R's upper triangle is copied from
    its lower; S is the second array and is factored in place, so two
    m x m real arrays are kept: R and the factor.
    """
    if not duration > 0:
        raise ValueError("duration must be positive")
    gram = _real_gram(family, duration, tol)
    scale = 1.0 / np.sqrt(gram.diagonal())
    # S, transposed: its Fortran-ordered view is S; R scaled by columns
    # first (rows first rounds differently, and rerolls the D1 rows that
    # verify at the rounding floor), a row block at a time
    s = np.empty_like(gram)

    def form(rows):
        np.multiply(gram[rows], scale, out=s[rows])
        s[rows] *= scale[rows, None]

    map_blocks(form, row_blocks(*gram.shape))
    factor = factor_hermitian(s.T, tol=tol, overwrite=True)
    return MomentSystem(family, duration, gram, factor, scale)


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


def _real_moments(gamma: np.ndarray, family: EddFamily,
                  tol: Tolerances) -> np.ndarray:
    """The real basis' moments (f, Re phi_a) = Re (f, phi_a) and
    (f, Im phi_a) = -Im (f, phi_a), |k| by |k|, from the moments gamma of
    the plain exponentials in family order (one row per signed block); a
    self-mirrored phi_a's partner takes its own.

    They are the moments of a real f only when gamma is mirror-symmetric,
    the moment of e_j's conjugate being conj(gamma_j), which a real target
    gives; otherwise (within ``tol.hermit_rtol``) raises ValueError.
    """
    k_max = family.k_max
    pair = np.stack([gamma[k_max:], gamma[k_max - 1::-1]])
    plain = family.self_mirrored
    mirror = np.conj(np.where(plain, pair, pair[::-1]))
    if np.linalg.norm(pair - mirror) > tol.hermit_rtol * np.linalg.norm(gamma):
        raise ValueError("moments are not mirror-symmetric: the target is "
                         "not real")
    rhs = (np.conj(family.weights[k_max:]) @ pair[0, :, :, None])[..., 0]
    return np.stack([rhs.real, np.where(plain, pair[1].real, -rhs.imag)],
                    axis=1).ravel()


def synthesize(ms: MomentSystem, gamma: np.ndarray,
               tol: Tolerances = DEFAULT) -> ControlSignal:
    """The real minimal-norm control in the span of the assembled family,
    as it is written and verified, for the moments ``gamma`` of the plain
    exponentials (signed, eigenvalue-ordered: ``moments_from_target``).

    Solves S y = D b, b the real basis' moments (ValueError unless the
    moments are those of a real target), on the stored Cholesky factor of
    the normalized Gram S = D R D and expands c = D y into exponentials
    sorted by (Re, Im), with exact conjugate amplitudes on mirrored
    frequencies; norm sqrt(c^T R c), moment residual ||R c - b|| / ||b||.
    Moments amplified beyond GROWTH_PIN (by e^{i omega T}) are then pinned:
    the miss of the control's moments against those decaying representers,
    taken in long double, is met by tiny extra terms on them, mirrored by
    family position and appended.  Raises SingularSystem when a pivot
    L_jj^2 of S is at most ``tol.pivot_tol * ||S||_1`` (resonance or
    insufficient control time) and ConditioningExceeded when the condition
    estimate of S is above ``tol.cond_cap``.
    """
    family = ms.family
    k_max, n = family.k_max, family.n
    if np.shape(gamma) != (family.nodes.size,):
        raise ValueError(f"expected {family.nodes.size} moments")
    moments = gamma[family.perm + n * np.arange(2 * k_max)[:, None]]
    rhs = _real_moments(moments, family, tol)
    coef, _ = solve_hermitian(ms.gram, rhs, tol=tol, factor=ms.factor,
                              scale=ms.scale)
    if ms.cond_estimate > tol.cond_cap:
        raise ConditioningExceeded(
            f"normalized gram condition estimate {ms.cond_estimate:.3e} "
            f"exceeds {tol.cond_cap:.1e}")
    product = ms.gram @ coef
    rhs_norm = float(np.linalg.norm(rhs))
    residual = 0.0
    if rhs_norm > 0:
        residual = float(np.linalg.norm(product - rhs)) / rhs_norm

    # f = sum_a alpha_a phi_a + conj(alpha_a phi_a) over block k's functions;
    # a self-mirrored pair takes its two real coefficients
    c = coef.reshape(k_max, 2, n)
    plain = family.self_mirrored
    alpha = (c[:, 0] - 1j * c[:, 1]) / 2.0
    amps = np.where(plain, c[:, 0], (family.weights[k_max:].transpose(0, 2, 1)
                                     @ alpha[:, :, None])[..., 0])
    mirrored = np.where(plain, c[:, 1], np.conj(amps))
    # terms in (Re, Im) order, as control_modes.json lists them
    reps = np.conj(family.nodes)
    order = np.lexsort((reps.imag.ravel(), reps.real.ravel()))
    freqs = reps.ravel()[order]
    amps = np.concatenate([mirrored[::-1], amps]).ravel()[order]

    pin = reps.imag * ms.duration > math.log(GROWTH_PIN)
    if pin.any():
        held = gram_entry(freqs.astype(np.clongdouble),
                          reps[pin, None].astype(np.clongdouble),
                          ms.duration, tol=tol) @ amps.astype(np.clongdouble)
        block = gram_entry(reps[pin], reps[pin, None], ms.duration, tol=tol)
        extra = np.zeros(reps.shape, dtype=complex)
        extra[pin] = np.linalg.solve(block,
                                     (moments[pin] - held).astype(complex))
        # block -k takes the conjugates of block k's, position by position;
        # a self-mirrored node, pinned on block -k only, its real part
        extra[k_max - 1::-1] = np.where(plain, extra[k_max - 1::-1].real,
                                        np.conj(extra[k_max:]))
        freqs = np.concatenate([freqs, reps[pin]])
        amps = np.concatenate([amps, extra[pin]])
    return ControlSignal(
        duration=ms.duration, frequencies=freqs, amplitudes=amps,
        realification_residual=0.0, moment_residual=residual,
        norm=math.sqrt(max(float(coef @ product), 0.0)))


def realify(signal: ControlSignal, tol: Tolerances = DEFAULT) -> ControlSignal:
    """Project a hand-built combination onto its real part, on the same terms.

    Re f = (f + conj(f)) / 2, where conj(f) puts conj(amps[j]) on the mirror
    frequency -conj(freqs[j]); a set not closed under the mirror gets the
    missing terms.  Terms come sorted by (Re, Im).  The output records the
    input's relative imaginary content ||Im f|| / ||f|| and, as its norm,
    ||Re f||, both quadratic forms on the kernel of the terms.
    """
    freqs, amps = signal.frequencies, signal.amplitudes
    pair = mirror_index(freqs)
    if pair is None:
        n = freqs.size
        freqs = np.concatenate([freqs, -np.conj(freqs)])
        amps = np.concatenate([amps, np.zeros_like(amps)])
        pair = np.roll(np.arange(2 * n), n)
    conj_amps = np.empty_like(amps)
    conj_amps[pair] = np.conj(amps)
    re = (amps + conj_amps) / 2.0
    re2, im2 = _sq_norms(gram_entry(freqs, freqs[:, None], signal.duration,
                                    tol=tol), re, (amps - conj_amps) / 2j)
    resid = math.sqrt(im2) / max(math.sqrt(re2 + im2), 1e-300)
    order = np.lexsort((freqs.imag, freqs.real))
    return ControlSignal(
        duration=signal.duration, frequencies=freqs[order], amplitudes=re[order],
        realification_residual=resid, moment_residual=signal.moment_residual,
        norm=math.sqrt(re2))


def n2_normalize_eigvecs(spec: SpectralDecomposition,
                         b: np.ndarray) -> SpectralDecomposition:
    """Rescale a two-component eigenvector pair so the second components cancel.

    Returns a copy of ``spec`` whose eigenvector columns phi1, phi2 have
    second components +1 and -1 (in some order, fixed so that
    phi1 + phi2 = (alpha, 0) with Re(alpha) > 0, ties broken toward
    Im(alpha) >= 0), with the biorthogonal family and the beta of control
    direction ``b`` in that basis.  Requires both eigenvectors to have
    nonzero second components (this is forced by the rank condition when the
    control direction is the first coordinate axis); raises
    DegenerateEigenvector otherwise.
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
        phi1, phi2 = -phi1, -phi2
    vp = np.column_stack([phi1, phi2])
    wp = np.linalg.inv(vp)
    return SpectralDecomposition(
        eigenvalues=spec.eigenvalues.copy(),
        eigenvectors=vp,
        biorthogonal=wp.conj().T,
        beta=wp @ np.asarray(b, dtype=complex),
        min_separation=spec.min_separation)


def n2_edd_coefficients(modal: ModalState, grid: FrequencyGrid) -> np.ndarray:
    """Order-one divided-difference coefficients (tilde table) of a modal state.

    Column 0 is a_{n,1}; column 1 is (a_{n,2} - a_{n,1}) / (w_{n,2} - w_{n,1}).
    """
    if grid.n != 2:
        raise ValueError("divided-difference coefficients require n = 2")
    w = grid.omega[:modal.k_max]
    a = modal.a
    return np.column_stack([a[:, 0], (a[:, 1] - a[:, 0]) / (w[:, 1] - w[:, 0])])
