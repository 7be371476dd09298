"""Coupled system setup: spectral decomposition and controllability checks.

The model is a vector of wave components coupled through a constant matrix A,
driven at one end of the interval (0, pi) through a fixed direction b by one
scalar control.  Whether a target state is reachable hinges on three checks:
the Kalman rank condition on (A, b), absence of integer-gap resonances
between the eigenvalues of A, and a long enough control time T >= 2*pi*N.
For the distinct eigenvalues the model requires, the Kalman condition is
decided by the Hautus test at each eigenvalue, not from the Krylov matrix
[A^{N-1} b, ..., b], whose conditioning grows exponentially with N.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .exceptions import BadInput, NonConvergence, RepeatedEigenvalues
from .linalg import eig_dense
from .tolerances import DEFAULT, Tolerances

# trial divisors per numpy pass of the resonance search
DIVISOR_CHUNK = 1 << 16
# largest eigenvalue gap the resonance search splits: every double above it
# is an integer, so its match to k^2 - l^2 says nothing, and its split would
# take over 10^8 trial divisors
MAX_GAP = 2 ** 53

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


def kalman_check(system: CouplingSystem, eigenvalues,
                 tol: Tolerances = DEFAULT) -> int:
    """Kalman rank of (A, b) by the Hautus test at the distinct
    ``eigenvalues`` of A: N minus the number of eigenvalues lam at which
    sigma_min([A - lam I, b]) <= ``tol.rank_tol`` * ||[A, b]||_2."""
    lam = np.asarray(eigenvalues, dtype=complex)
    n = system.n
    pencils = np.empty((lam.size, n, n + 1), dtype=complex)
    pencils[:, :, :n] = system.a - lam[:, None, None] * np.eye(n)
    pencils[:, :, n] = system.b
    sigma_min = np.linalg.svd(pencils, compute_uv=False)[:, -1]
    cutoff = tol.rank_tol * np.linalg.svd(
        np.column_stack([system.a, system.b]), compute_uv=False)[0]
    return n - int(np.count_nonzero(sigma_min <= cutoff))


def resonance_check(eigenvalues, tol: Tolerances = DEFAULT) -> list:
    """Find integer mode pairs whose squared gap matches an eigenvalue gap.

    Returns tuples ``(k, l, i, j, defect)`` with mode numbers k != l >= 1,
    eigenvalue indices i != j (1-based, ascending eigenvalue order) and
    ``defect = |(k^2 - l^2) - (lam_i - lam_j)|``.  The search is exhaustive
    over ``|k^2 - l^2| <= max_{i != j} |lam_i - lam_j| + 1`` and the output
    is symmetric: (k, l, i, j) is reported iff (l, k, j, i) is.
    Raises BadInput when a gap within ``res_tol`` of some lam_i - lam_j
    exceeds MAX_GAP.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    n = lam.shape[0]
    if n < 2:
        return []
    diffs = np.abs(lam[None, :] - lam[:, None])
    bound = float(diffs.max()) + 1.0

    found = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            diff = lam[i] - lam[j]
            # the defect is at least |gap - Re(diff)|, so only the integers
            # within res_tol of Re(diff) can match (one spare on each side
            # against rounding); the smallest gap is 2^2 - 1^2
            first = max(3, math.floor(diff.real - tol.res_tol))
            last = min(math.floor(bound), math.ceil(diff.real + tol.res_tol))
            for gap in range(first, last + 1):
                defect = abs(gap - diff)
                if defect > tol.res_tol:
                    continue
                if gap > MAX_GAP:
                    raise BadInput(
                        f"eigenvalues {i + 1} and {j + 1} differ by "
                        f"{diff.real:.6g}, above 2^53: no resonance "
                        "k^2 - l^2 can be resolved at that spread")
                # every split gap = (k - l)(k + l) with k > l >= 1
                for p in _divisors_to_root(gap):
                    q = gap // p
                    if q > p and (q - p) % 2 == 0:
                        hi, lo = (q + p) // 2, (q - p) // 2
                        found.append((hi, lo, i + 1, j + 1, float(defect)))
                        found.append((lo, hi, j + 1, i + 1, float(defect)))
    found.sort(key=lambda t: t[:4])
    return found


def _divisors_to_root(number: int) -> list:
    """The divisors p <= sqrt(number) of a positive ``number`` <= MAX_GAP,
    ascending, by trial division over DIVISOR_CHUNK candidates at a time."""
    root = math.isqrt(number)
    found = []
    for start in range(1, root + 1, DIVISOR_CHUNK):
        trial = np.arange(start, min(start + DIVISOR_CHUNK, root + 1),
                          dtype=np.int64)
        found += trial[number % trial == 0].tolist()
    return found


def analyze(system: CouplingSystem, duration: float,
            tol: Tolerances = DEFAULT,
            spec: SpectralDecomposition | None = None) -> ConditionsReport:
    """Evaluate every controllability condition at control time ``duration``.

    ``spec`` is ``decompose(system)``, computed here when not given.  A
    vanishing |beta_l| <= tol.beta_tol is reported as a rank-equivalent
    failure; in exact arithmetic it coincides with kalman_ok.
    """
    if not duration > 0:
        raise ValueError("control time must be positive")
    if spec is None:
        spec = decompose(system, tol=tol)
    rank = kalman_check(system, spec.eigenvalues, tol=tol)
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
