"""Forward evolution of modal coefficients and terminal-state verification.

Each mode obeys a driven oscillator whose Duhamel solution against an
exponential control term has a closed form; resonant terms degenerate to the
t * e^{i w t} limit, which the series branch of the kernel integrals covers.
For real terms against real modes, the closed forms of a term and a mode
far apart are entries of one real Cauchy matrix 1 / (nu - w), so each
mode's sums over the terms are a row of one BLAS product.  A
piecewise-linear exponential integrator over sampled controls provides an
independent check of the closed forms (exact for piecewise-linear input,
second order in the sample spacing for smooth input).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._kernels import (centred_phase_integral, half_angle, mirror_index,
                       phase_integral, ramp_integral, row_blocks,
                       segment_moment, unit_phase)
from .coupling import SpectralDecomposition
from .exceptions import GridTooCoarse
from .moments import GROWTH_PIN, ControlSignal, ModalState
from .spectrum import FrequencyGrid
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "EvolutionResult", "VerifyReport", "duhamel_exact", "evolve_quadrature",
    "evolve", "reconstruct", "sobolev_norm", "verify", "wellposedness_ratio",
]

# A real term nu and a real mode w with |nu - w| T / 2 below NEAR take the
# centred kernel; farther pairs take the Cauchy form of ``_real_sums``.
NEAR = 1.0


@dataclasses.dataclass
class EvolutionResult:
    modal: ModalState
    per_mode_residuals: np.ndarray | None
    wellposedness_ratio: float


@dataclasses.dataclass
class VerifyReport:
    max_rel_error: float
    passed: bool
    wellposedness_ratio: float
    error_a: float
    error_adot: float
    achieved: ModalState


def duhamel_exact(spec: SpectralDecomposition, grid: FrequencyGrid,
                  control: ControlSignal, duration: float,
                  tol: Tolerances = DEFAULT) -> ModalState:
    """Terminal modal state under an exponential-combination control.

    a_{k,l}(T) = (2k/pi) beta_l * int f(s) sin(w (T-s))/w ds and adot with the
    cosine kernel; the sine and cosine split into phase integrals, and modes
    with |w| <= tol.zero_tol use the exact w -> 0 limit (ramp kernel).  The
    integrals take the kernels' fixed series switch, never
    ``tol.series_switch``: an override that coarsens the Gram's series must
    not coarsen the check of the control it gives.  When every frequency
    of the control is real, the modes with real w take ``_real_sums``:
    the pairs far apart are one real Cauchy product, which needs the
    exponentials of the terms and of the modes only, each exact in its
    argument, and the pairs close together take
    ``centred_phase_integral``, which keeps the exact differences of
    clustered frequencies in its arguments: (nu - w) T, rounded term by
    term, loses them, and with them the cancellation of a block's large
    EDD amplitudes (ROADMAP D8).  The other modes run in blocks of phase
    integrals, forward and backward.  When some mode's amplification
    e^{|Im w| T} exceeds GROWTH_PIN, its terms are that much larger than
    its state, and all run in long double.
    """
    omega = grid.omega
    dtype = np.clongdouble if _amplified(omega, duration) else complex
    nus = control.frequencies.astype(dtype)
    amp = control.amplitudes.astype(dtype)
    k_max, n = omega.shape
    zero = np.abs(omega) <= tol.zero_tol
    # kernels of the other modes a block of modes at a time; one dot per mode
    # keeps the summation order of each mode's integral
    rows_k, rows_l = np.nonzero(~zero)
    gains = (2.0 * (rows_k + 1) / math.pi) * spec.beta[rows_l]
    ws = omega[~zero].astype(dtype)
    state = ModalState(np.zeros((k_max, n), dtype=complex),
                       np.zeros((k_max, n), dtype=complex))

    def write(done, sine, cosine):
        # the gain applied as numpy's scalar complex product rounds it (its
        # array product rounds some entries differently)
        gain = gains[done]
        for table, dot in ((state.a, sine), (state.adot, cosine)):
            value = np.empty_like(dot)
            value.real = gain.real * dot.real - gain.imag * dot.imag
            value.imag = gain.real * dot.imag + gain.imag * dot.real
            table[rows_k[done], rows_l[done]] = value

    # real terms against real modes: one Cauchy product
    cauchy = np.zeros(ws.size, dtype=bool)
    if dtype is complex and not nus.imag.any():
        cauchy = ws.imag == 0
        done = np.flatnonzero(cauchy)
        w = ws[done].real
        fwd, bwd = _real_sums(control.frequencies.real, amp, w, duration)
        write(done, (fwd - bwd) / (2j * w), (fwd + bwd) / 2.0)

    old = np.flatnonzero(~cauchy)
    for block in row_blocks(old.size, nus.size):
        rows = old[block]
        w = ws[rows, None]
        fwd = phase_integral(nus - w, duration)
        bwd = phase_integral(nus + w, duration)
        # in place, in the operand order of a product into a new array (the
        # other order rounds differently)
        np.multiply(np.exp(1j * w * duration), fwd, out=fwd)
        np.multiply(np.exp(-1j * w * duration), bwd, out=bwd)
        # one BLAS dot per mode, as amp @ row
        write(rows, *(np.matmul(amp, kernel[:, :, None])[:, 0]
                      for kernel in ((fwd - bwd) / (2j * w),
                                     (fwd + bwd) / 2.0)))
    for ki, li in zip(*np.nonzero(zero)):
        gain = (2.0 * (ki + 1) / math.pi) * spec.beta[li]
        state.a[ki, li] = gain * (amp @ ramp_integral(nus, duration))
        state.adot[ki, li] = gain * (amp @ phase_integral(nus, duration))
    return state


def _amplified(omega, duration: float) -> bool:
    """Whether some mode's e^{|Im w| T} exceeds GROWTH_PIN (long double)."""
    return bool((np.abs(omega.imag) * duration > math.log(GROWTH_PIN)).any())


def _real_sums(nus, amp, ws, duration: float):
    """The forward and backward sums of the control with real terms
    ``nus`` and amplitudes ``amp`` at the real modes ``ws``:
    sum_j amp_j e^{iwT} P(nu_j - w) and sum_j amp_j e^{-iwT} P(nu_j + w),
    P the phase integral over [0, T].

    A term and a mode far apart, |nu_j - w| T / 2 >= NEAR, give the forward
    term (E_j - e^{iwT}) / (i (nu_j - w)) with E_j = e^{i nu_j T}, whose
    numerator has no cancellation there: a mode's forward sums are one row
    of the real Cauchy matrix 1 / (nu_j - w) times the columns amp E and
    amp.  Its backward terms have the same form in nu_j + w, which is
    -(nu_j' - w) for the mirror j' of j (``mirror_index``), so the same
    row times the two columns mirrored gives them; without a mirror they
    are the forward sums at -w.  Only the exponentials E_j and e^{iwT} are
    taken, exact in their arguments (``unit_phase``).  The pairs nearer
    than NEAR, found by bisection in the sorted terms, are zero in the
    Cauchy matrix and added through ``centred_phase_integral``.
    """
    mirror = mirror_index(nus)
    rows = ws if mirror is not None else np.concatenate([ws, -ws])
    theta, phi = half_angle(nus, duration), half_angle(rows, duration)
    ahead = unit_phase(phi)
    columns = [amp * unit_phase(theta), amp]
    if mirror is not None:
        columns += [columns[0][mirror], amp[mirror]]
    columns = np.stack(columns, axis=1).view(float)
    # the near pairs (near_r, near_j), in the order of their rows
    order = np.argsort(nus, kind="stable")
    radius = 2.0 * NEAR / duration
    first = np.searchsorted(nus[order], rows - radius, "left")
    count = np.searchsorted(nus[order], rows + radius, "right") - first
    near_r = np.repeat(np.arange(rows.size), count)
    near_j = order[np.arange(near_r.size)
                   + np.repeat(first - np.cumsum(count) + count, count)]
    sums = np.empty((rows.size, columns.shape[1] // 2), dtype=complex)
    for block in row_blocks(rows.size, nus.size):
        cauchy = np.subtract(nus, rows[block, None])
        with np.errstate(divide="ignore"):
            np.divide(1.0, cauchy, out=cauchy)
        part = slice(*np.searchsorted(near_r, [block.start, block.stop]))
        cauchy[near_r[part] - block.start, near_j[part]] = 0.0
        np.matmul(cauchy, columns, out=sums[block].view(float))
    near = ahead[near_r] * centred_phase_integral(
        tuple(x[near_j] for x in theta), tuple(x[near_r] for x in phi),
        duration)
    fwd = -1j * (sums[:, 0] - ahead * sums[:, 1])
    np.add.at(fwd, near_r, amp[near_j] * near)
    if mirror is None:
        return fwd[:ws.size], fwd[ws.size:]
    bwd = 1j * (sums[:, 2] - np.conj(ahead) * sums[:, 3])
    np.add.at(bwd, near_r, amp[mirror[near_j]] * np.conj(near))
    return fwd, bwd


def evolve_quadrature(spec: SpectralDecomposition, grid: FrequencyGrid,
                      samples, duration: float,
                      tol: Tolerances = DEFAULT) -> ModalState:
    """Terminal modal state from control values on ``len(samples)`` uniform
    points of [0, duration] (as from ``ControlSignal.sample``).

    Integrates the piecewise-linear interpolant of the samples exactly
    against the oscillatory kernels, so the result is second order in the
    sample spacing for smooth controls.  As in ``duhamel_exact``, the
    integrals take the kernels' fixed series switch, never
    ``tol.series_switch``.  Raises GridTooCoarse when the spacing exceeds
    pi / (4 * max |w|).
    """
    values = np.asarray(samples, dtype=complex)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("need at least two samples")
    count = values.size
    dt = duration / (count - 1)
    w_max = float(np.abs(grid.omega).max())
    if w_max > 0 and dt > math.pi / (4.0 * w_max):
        raise GridTooCoarse(
            f"sample spacing {dt:.3e} exceeds pi/(4*max|omega|) = "
            f"{math.pi / (4.0 * w_max):.3e}")

    t0 = np.arange(count - 1) * dt
    left = values[:-1]
    slope = np.diff(values) / dt

    def segment_sum(mu: complex) -> complex:
        # int f_lin(s) e^{i mu s} ds, exact per linear segment
        e_seg = phase_integral(mu, dt)
        d_seg = segment_moment(mu, dt)
        ph = np.exp(1j * mu * t0)
        return e_seg * (ph @ left) + d_seg * (ph @ slope)

    k_max, n = grid.k_max, grid.n
    a = np.zeros((k_max, n), dtype=complex)
    adot = np.zeros((k_max, n), dtype=complex)
    for ki in range(k_max):
        for li in range(n):
            w = grid.omega[ki, li]
            gain = (2.0 * (ki + 1) / math.pi) * spec.beta[li]
            if abs(w) <= tol.zero_tol:
                # ramp kernel: int f(s) (T - s) ds, exact per segment
                tau = duration - t0
                ramp = left * (tau * dt - dt * dt / 2.0) \
                    + slope * (tau * dt * dt / 2.0 - dt ** 3 / 3.0)
                a[ki, li] = gain * ramp.sum()
                adot[ki, li] = gain * segment_sum(0.0)
            else:
                p_minus = segment_sum(-w)
                p_plus = segment_sum(w)
                fwd = np.exp(1j * w * duration) * p_minus
                bwd = np.exp(-1j * w * duration) * p_plus
                a[ki, li] = gain * (fwd - bwd) / (2j * w)
                adot[ki, li] = gain * (fwd + bwd) / 2.0
    return ModalState(a, adot)


def wellposedness_ratio(modal: ModalState, grid: FrequencyGrid,
                        control: ControlSignal) -> float:
    """Terminal state size over control size.

    The state is measured through the exponential-form coefficients weighted
    by 1/k (both signs), the control in L2(0, T); for an admissible family
    this ratio stays bounded uniformly in the truncation.
    """
    c = modal.c_signed(grid)
    k_abs = np.abs(grid.signed_k())
    state = math.sqrt(float(np.sum((np.abs(c) / k_abs) ** 2)))
    ctrl = control.l2_norm()
    return state / max(ctrl, 1e-300)


def evolve(spec: SpectralDecomposition, grid: FrequencyGrid,
           control: ControlSignal, duration: float,
           oracle_samples: int | None = None,
           tol: Tolerances = DEFAULT) -> EvolutionResult:
    """Closed-form evolution, optionally cross-checked by quadrature.

    When ``oracle_samples`` is given, the control is sampled on that many
    points (``ControlSignal.sample``) and re-evolved with the piecewise-linear
    integrator; per-mode residuals |delta| / (1 + |value|) over both tables
    are attached.
    """
    modal = duhamel_exact(spec, grid, control, duration, tol=tol)
    residuals = None
    if oracle_samples is not None:
        _, values = control.sample(oracle_samples)
        check = evolve_quadrature(spec, grid, values, duration, tol=tol)
        scale = 1.0 + np.maximum(np.abs(modal.a), np.abs(modal.adot))
        residuals = np.maximum(np.abs(modal.a - check.a),
                               np.abs(modal.adot - check.adot)) / scale
    return EvolutionResult(
        modal=modal,
        per_mode_residuals=residuals,
        wellposedness_ratio=wellposedness_ratio(modal, grid, control))


def reconstruct(modal: ModalState, spec: SpectralDecomposition, x):
    """Evaluate state and velocity on interior points of (0, pi).

    Returns arrays of shape (len(x), N): u = sum a_{n,l} sin(n x) phi_l and
    the same sum with adot for the velocity.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    modes = np.arange(1, modal.k_max + 1)
    sines = np.sin(np.multiply.outer(x, modes))  # (len(x), k_max)
    shapes = spec.eigenvectors.T  # row l: phi_l
    u = sines @ (modal.a @ shapes)
    ut = sines @ (modal.adot @ shapes)
    return u, ut


def sobolev_norm(modal: ModalState, s: float, table: str = "a",
                 grid: FrequencyGrid | None = None) -> float:
    """Coefficient Sobolev norm (sum over modes of k^{2s} |coef|^2)^(1/2).

    ``table`` selects "a", "adot", or "c"; the exponential-form table needs
    the frequency grid and runs over both signs of k.
    """
    if table in ("a", "adot"):
        coef = modal.a if table == "a" else modal.adot
        k = np.arange(1, modal.k_max + 1)[:, None]
    elif table == "c":
        if grid is None:
            raise ValueError("table='c' requires the frequency grid")
        coef, k = modal.c_signed(grid), np.abs(grid.signed_k())
    else:
        raise ValueError(f"unknown table {table!r}")
    return float(math.sqrt(np.sum((k ** float(s) * np.abs(coef)) ** 2)))


def verify(spec: SpectralDecomposition, grid: FrequencyGrid,
           control: ControlSignal, target: ModalState, duration: float,
           tol: Tolerances = DEFAULT) -> VerifyReport:
    """Evolve the control and compare against the target modal tables.

    The error metric is max over modes of |achieved - target| / (1 +
    |target|), taken over both the a and adot tables; the control passes at
    or below ``tol.verify_rtol``.  The achieved modal state is handed back
    on the report.
    """
    achieved = duhamel_exact(spec, grid, control, duration, tol=tol)
    err_a = float((np.abs(achieved.a - target.a)
                   / (1.0 + np.abs(target.a))).max())
    err_adot = float((np.abs(achieved.adot - target.adot)
                      / (1.0 + np.abs(target.adot))).max())
    err = max(err_a, err_adot)
    return VerifyReport(
        max_rel_error=err,
        passed=err <= tol.verify_rtol,
        wellposedness_ratio=wellposedness_ratio(achieved, grid, control),
        error_a=err_a,
        error_adot=err_adot,
        achieved=achieved)
