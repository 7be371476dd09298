"""Forward evolution of modal coefficients and terminal-state verification.

Each mode obeys a driven oscillator whose Duhamel solution against an
exponential control term has a closed form; resonant terms degenerate to the
t * e^{i w t} limit, which the series branch of the kernel integrals covers.
A piecewise-linear exponential integrator over sampled controls provides an
independent check of the closed forms (exact for piecewise-linear input,
second order in the sample spacing for smooth input).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._kernels import (map_blocks, mirror_index, phase_integral,
                       ramp_integral, row_blocks, segment_moment)
from .coupling import SpectralDecomposition
from .exceptions import GridTooCoarse
from .moments import GROWTH_PIN, ControlSignal, ModalState
from .spectrum import FrequencyGrid
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "EvolutionResult", "VerifyReport", "duhamel_exact", "evolve_quadrature",
    "evolve", "reconstruct", "sobolev_norm", "verify", "wellposedness_ratio",
]


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
                  control: ControlSignal | list, duration: float,
                  tol: Tolerances = DEFAULT) -> ModalState | list:
    """Terminal modal state under an exponential-combination control.

    a_{k,l}(T) = (2k/pi) beta_l * int f(s) sin(w (T-s))/w ds and adot with the
    cosine kernel; the sine and cosine split into phase integrals, and modes
    with |w| <= tol.zero_tol use the exact w -> 0 limit (ramp kernel).  The
    integrals take the kernels' fixed series switch, never
    ``tol.series_switch``: an override that coarsens the Gram's series must
    not coarsen the check of the control it gives.  When the control's
    frequencies are closed under the mirror nu -> -conj(nu)
    (``mirror_index``), a block of modes with real w reads its backward
    integrals as conjugates of its forward ones, nu_j + w = -conj(nu_j' - w),
    bit for bit as evaluated; a block with a complex or imaginary w
    evaluates both.  When some mode's amplification e^{|Im w| T} exceeds
    GROWTH_PIN, its terms are that much larger than its state, and all run
    in long double.

    ``control`` may instead be a list of (control, k_max) pairs, as a sweep
    at one duration holds them, ``grid`` reaching the largest k_max: then
    the result is the list of their states over the modes k <= k_max, each
    the same bits as the control alone on its own grid.  The first control
    with the largest k_max heads one walk over its mode blocks, and every
    control whose terms its terms give bit for bit (``_shared_columns``)
    reads its kernel columns from that walk's, so each integral is
    evaluated once; any other control is evolved alone.
    """
    if isinstance(control, ControlSignal):
        return _evolve(spec, grid.omega, duration, tol,
                       [(control, grid.k_max, None)])[0]
    states = [None] * len(control)
    head = max(range(len(control)), key=lambda i: control[i][1])
    columns = _shared_columns(*control[head], grid.omega, duration)
    walk = [(head, None)]
    for i, (other, k_max) in enumerate(control):
        if i == head:
            continue
        cols = columns(other, k_max)
        if cols is None:
            states[i] = _evolve(spec, grid.omega, duration, tol,
                                [(other, k_max, None)])[0]
        else:
            walk.append((i, cols))
    members = [(*control[i], cols) for i, cols in walk]
    for (i, _), state in zip(walk, _evolve(spec, grid.omega, duration, tol,
                                           members)):
        states[i] = state
    return states


def _amplified(omega, duration: float) -> bool:
    """Whether some mode's e^{|Im w| T} exceeds GROWTH_PIN (long double)."""
    return bool((np.abs(omega.imag) * duration > math.log(GROWTH_PIN)).any())


def _shared_columns(head: ControlSignal, k_head: int, omega,
                    duration: float):
    """The function of a (control, k_max) pair, k_max <= k_head, that gives
    the columns of ``head``'s terms whose integrals are each of the
    control's terms' integrals alone, or None when some are not: the
    control's frequencies must be among the head's as bits, both must run
    in one precision, and both must read the mirror, each term's partner
    the same bits, or neither."""
    bits = head.frequencies.view("V16")
    index = dict(zip(bits.tolist(), range(bits.size)))
    mirror = mirror_index(head.frequencies)
    precision = _amplified(omega[:k_head], duration)

    def columns(control: ControlSignal, k_max: int):
        if _amplified(omega[:k_max], duration) != precision:
            return None
        cols = [index.get(key)
                for key in control.frequencies.view("V16").tolist()]
        own = mirror_index(control.frequencies)
        if None in cols or (mirror is None) != (own is None):
            return None
        cols = np.array(cols, dtype=np.intp)
        if own is not None and not np.array_equal(
                bits[mirror[cols]].view(np.uint64),
                control.frequencies[own].view(np.uint64)):
            return None
        return cols

    return columns


def _evolve(spec: SpectralDecomposition, omega, duration: float,
            tol: Tolerances, members: list) -> list:
    """The states of ``members``, (control, k_max, cols) triples.  The
    first is the head: the blocks run over its terms and its modes
    k <= k_max, and its cols are None.  Every other member reads the
    columns ``cols`` of the head's kernels and the rows of its own modes,
    which lead the head's, as its k_max is no larger."""
    head, k_max, _ = members[0]
    omega = omega[:k_max]
    dtype = np.clongdouble if _amplified(omega, duration) else complex
    nus = head.frequencies.astype(dtype)
    n = omega.shape[1]
    zero = np.abs(omega) <= tol.zero_tol
    # kernels of the other modes a block of modes at a time; one dot per mode
    # keeps the summation order of each mode's integral
    modes = list(zip(*np.nonzero(~zero)))
    gains = [(2.0 * (ki + 1) / math.pi) * spec.beta[li] for ki, li in modes]
    ws = omega[~zero].astype(dtype)
    mirror = mirror_index(head.frequencies)
    amps = [control.amplitudes.astype(dtype) for control, _, _ in members]
    counts = [int(np.count_nonzero(~zero[:k])) for _, k, _ in members]
    states = [ModalState(np.zeros((k, n), dtype=complex),
                         np.zeros((k, n), dtype=complex))
              for _, k, _ in members]

    def evolve_block(rows):
        w = ws[rows, None]
        fwd = phase_integral(nus - w, duration)
        if mirror is not None and not w.imag.any():
            bwd = fwd[:, mirror]
            np.conj(bwd, out=bwd)
        else:
            bwd = phase_integral(nus + w, duration)
        # in place, in the operand order of a product into a new array (the
        # other order rounds differently)
        np.multiply(np.exp(1j * w * duration), fwd, out=fwd)
        np.multiply(np.exp(-1j * w * duration), bwd, out=bwd)
        s_kernel = (fwd - bwd) / (2j * w)
        c_kernel = (fwd + bwd) / 2.0
        for (_, _, cols), amp, count, state in zip(members, amps, counts,
                                                   states):
            own = min(rows.stop, count) - rows.start
            if own <= 0:
                continue
            for table, kernel in ((state.a, s_kernel),
                                  (state.adot, c_kernel)):
                kernel = kernel[:own]
                if cols is not None:
                    # np.take gives C-ordered rows, whose dots round as the
                    # control's own kernel rows do (a[:, cols] would not)
                    kernel = np.take(kernel, cols, axis=1)
                for (ki, li), gain, row in zip(modes[rows], gains[rows],
                                               kernel):
                    table[ki, li] = gain * (amp @ row)

    map_blocks(evolve_block, row_blocks(len(modes), nus.size))
    for ki, li in zip(*np.nonzero(zero)):
        gain = (2.0 * (ki + 1) / math.pi) * spec.beta[li]
        ramp = ramp_integral(nus, duration)
        phase = phase_integral(nus, duration)
        for (_, k, cols), amp, state in zip(members, amps, states):
            if ki < k:
                take = slice(None) if cols is None else cols
                state.a[ki, li] = gain * (amp @ ramp[take])
                state.adot[ki, li] = gain * (amp @ phase[take])
    return states


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
           tol: Tolerances = DEFAULT,
           achieved: ModalState | None = None) -> VerifyReport:
    """Evolve the control and compare against the target modal tables.

    The error metric is max over modes of |achieved - target| / (1 +
    |target|), taken over both the a and adot tables; the control passes at
    or below ``tol.verify_rtol``.  The achieved modal
    state is handed back on the report.  ``achieved`` is the control's
    ``duhamel_exact`` state when the caller has it already (a sweep evolves
    its controls in one call), and is then not evolved again.
    """
    if achieved is None:
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
