"""Coupled system setup: spectral decomposition and controllability checks.

The model is a vector of wave components coupled through a constant matrix A,
driven at one end of the interval (0, pi) through a fixed direction b by one
scalar control.  Whether a target state is reachable hinges on three checks:
a rank condition on (A, b), absence of integer-gap resonances between the
eigenvalues of A, and a long enough control time T >= 2*pi*N.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import NonConvergence, RepeatedEigenvalues
from .linalg import eig_dense, rank_qr
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "CouplingSystem", "SpectralDecomposition", "ConditionsReport",
    "decompose", "kalman_check", "resonance_check", "analyze",
]


@dataclasses.dataclass
class CouplingSystem:
    """Real coupling matrix A (N x N) and control direction b (N,)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ValueError(f"A must be square, got shape {self.a.shape}")
        n = self.a.shape[0]
        if self.b.shape != (n,):
            raise ValueError(f"b has shape {self.b.shape}, expected ({n},)")
        if not (np.all(np.isfinite(self.a)) and np.all(np.isfinite(self.b))):
            raise ValueError("A and b must be finite")
        if not np.any(self.b):
            raise ValueError("b must not be identically zero")

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclasses.dataclass
class SpectralDecomposition:
    """Eigen data of A and the induced control coefficients.

    eigenvalues are sorted ascending by (Re, Im).  Columns of ``eigenvectors``
    are the unit right eigenvectors phi_l; columns of ``biorthogonal`` are the
    dual family psi_l with <phi_i, psi_j> = delta_ij.  ``beta[l]`` is the
    projection <b, psi_l> of the control direction onto the dual family.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    biorthogonal: np.ndarray
    beta: np.ndarray
    min_separation: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclasses.dataclass
class ConditionsReport:
    kalman_rank: int
    kalman_ok: bool
    beta_magnitudes: list
    beta_ok: bool
    resonances: list
    t_min: float
    t_ok: bool
    overall_controllable: bool


def decompose(system: CouplingSystem, tol: Tolerances = DEFAULT) -> SpectralDecomposition:
    """Diagonalize A and build the biorthogonal family and beta.

    Raises
    ------
    RepeatedEigenvalues
        If the minimal eigenvalue gap is at or below
        ``tol.sep_scale * (1 + ||A||)``.
    NonConvergence
        If the eigensolve fails or biorthogonality cannot be certified.
    """
    eig = eig_dense(system.a, tol=tol)
    lam, v = eig.eigenvalues, eig.eigenvectors
    n = system.n

    if n >= 2:
        gaps = np.abs(lam[None, :] - lam[:, None])[~np.eye(n, dtype=bool)]
        min_sep = float(gaps.min())
    else:
        min_sep = math.inf
    sep_tol = tol.sep_scale * (1.0 + float(np.linalg.norm(system.a, 2)))
    if min_sep <= sep_tol:
        raise RepeatedEigenvalues(
            f"minimal eigenvalue gap {min_sep:.3e} <= {sep_tol:.3e}")

    w = np.linalg.inv(v)
    psi = w.conj().T  # column l is conj of row l of inv(V)
    # certify <phi_i, psi_j> = delta before anything downstream relies on it
    gram = w @ v
    if np.abs(gram - np.eye(n)).max() > tol.biorth_tol:
        raise NonConvergence("biorthogonality residual above tolerance; "
                             "eigenvector matrix is too ill-conditioned")
    beta = w @ system.b.astype(complex)
    return SpectralDecomposition(lam, v, psi, beta, min_sep)


def kalman_check(system: CouplingSystem, tol: Tolerances = DEFAULT) -> int:
    """Rank of the controllability matrix [A^{N-1} b, ..., A b, b]."""
    n = system.n
    cols = []
    vec = system.b.astype(float)
    for _ in range(n):
        cols.append(vec)
        vec = system.a @ vec
    cols.reverse()
    return rank_qr(np.column_stack(cols), tol=tol)


def resonance_check(eigenvalues, tol: Tolerances = DEFAULT) -> list:
    """Find integer mode pairs whose squared gap matches an eigenvalue gap.

    Returns tuples ``(k, l, i, j, defect)`` with mode numbers k != l >= 1,
    eigenvalue indices i != j (1-based, ascending eigenvalue order) and
    ``defect = |(k^2 - l^2) - (lam_i - lam_j)|``.  The enumeration is
    exhaustive over ``|k^2 - l^2| <= max_{i != j} |lam_i - lam_j| + 1`` and
    the output is symmetric: (k, l, i, j) is reported iff (l, k, j, i) is.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    n = lam.shape[0]
    if n < 2:
        return []
    diffs = np.abs(lam[None, :] - lam[:, None])
    bound = float(diffs.max()) + 1.0

    found = []
    lo = 1
    while 2 * lo + 1 <= bound:  # smallest gap for this lo is (lo+1)^2 - lo^2
        hi = lo + 1
        while hi * hi - lo * lo <= bound:
            gap = hi * hi - lo * lo
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    defect = abs(gap - (lam[i] - lam[j]))
                    if defect <= tol.res_tol:
                        found.append((hi, lo, i + 1, j + 1, float(defect)))
                        found.append((lo, hi, j + 1, i + 1, float(defect)))
            hi += 1
        lo += 1
    found.sort(key=lambda t: t[:4])
    return found


def analyze(system: CouplingSystem, duration: float,
            tol: Tolerances = DEFAULT) -> ConditionsReport:
    """Evaluate every controllability condition at control time ``duration``.

    A vanishing |beta_l| <= tol.beta_tol is reported as a rank-equivalent
    failure; in exact arithmetic it coincides with kalman_ok.
    """
    if not duration > 0:
        raise ValueError("control time must be positive")
    spec = decompose(system, tol=tol)
    rank = kalman_check(system, tol=tol)
    resonances = resonance_check(spec.eigenvalues, tol=tol)
    n = system.n
    kalman_ok = rank == n
    beta_mags = [float(x) for x in np.abs(spec.beta)]
    beta_ok = all(m > tol.beta_tol for m in beta_mags)
    t_min = 2.0 * math.pi * n
    t_ok = duration >= t_min - tol.time_tol
    overall = kalman_ok and beta_ok and not resonances and t_ok
    return ConditionsReport(
        kalman_rank=rank,
        kalman_ok=kalman_ok,
        beta_magnitudes=beta_mags,
        beta_ok=beta_ok,
        resonances=resonances,
        t_min=t_min,
        t_ok=t_ok,
        overall_controllable=overall,
    )
