"""Dense complex linear algebra with deterministic ordering.

Thin, contract-enforcing wrappers over LAPACK (through numpy/scipy): a dense
eigensolver for small matrices with a fixed eigenvalue ordering and residual
guarantee, a Hermitian factorization that carries its 1-norm condition
estimate, a solve with pivot diagnostics on that factorization, and a numeric
rank from column-pivoted QR.
"""

from __future__ import annotations

import collections
import dataclasses
import warnings

import numpy as np
import scipy.linalg
from scipy.linalg import LinAlgWarning, get_lapack_funcs, lu_factor, lu_solve

from .exceptions import DimensionTooLarge, NonConvergence, SingularSystem
from .tolerances import DEFAULT, Tolerances

MAX_DENSE_DIM = 32

__all__ = [
    "EigenResult", "HermitianFactor", "eig_dense", "factor_hermitian",
    "solve_hermitian", "rank_qr", "cond_estimate_1norm", "MAX_DENSE_DIM",
]


@dataclasses.dataclass
class EigenResult:
    """Eigendecomposition with eigenvalues sorted ascending by (Re, Im).

    Eigenvectors are unit-norm columns, each rotated so that its
    largest-magnitude component is real positive (reproducible output);
    ``residuals`` holds ||A v - lam v||_2 per eigenvector.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


def _as_square(a, dtype=complex):
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix entries must be finite")
    return a


def eig_dense(a, eig_tol: float | None = None, tol: Tolerances = DEFAULT) -> EigenResult:
    """Full eigendecomposition of a small dense (n <= 32) complex matrix.

    ``eig_tol`` (default ``tol.eig_tol``) bounds the residual, absolute on
    unit-norm eigenvectors.  Raises DimensionTooLarge above the size cap and
    NonConvergence if LAPACK fails or any residual exceeds the bound.
    """
    # keep real input real: the real-matrix LAPACK path returns exactly
    # conjugate eigenvalue pairs, which keeps the (Re, Im) sort well defined
    a = np.asarray(a)
    a = _as_square(a, complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    if n > MAX_DENSE_DIM:
        raise DimensionTooLarge(f"matrix size {n} exceeds {MAX_DENSE_DIM}")
    if eig_tol is None:
        eig_tol = tol.eig_tol
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    values = values.astype(complex, copy=False)
    vectors = vectors.astype(complex)

    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]

    # unit norm, then rotate the largest component to the positive real axis
    for j in range(n):
        v = vectors[:, j]
        v = v / np.linalg.norm(v)
        i = int(np.argmax(np.abs(v)))
        phase = v[i] / abs(v[i])
        vectors[:, j] = v / phase

    residuals = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    if np.any(residuals > eig_tol):
        raise NonConvergence(
            f"eigenpair residual {residuals.max():.3e} exceeds {eig_tol:.3e}")
    return EigenResult(values, vectors, residuals)


def cond_estimate_1norm(g, lu=None) -> float:
    """1-norm condition estimate of a square matrix via LAPACK gecon.

    Returns inf when the matrix is numerically singular.
    """
    g = np.asarray(g, dtype=complex)
    anorm = float(np.linalg.norm(g, 1)) if g.size else 0.0
    if anorm == 0.0:
        return np.inf
    if lu is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinAlgWarning)
            try:
                lu, _ = lu_factor(g)
            except (ValueError, scipy.linalg.LinAlgError):
                return np.inf
    gecon = get_lapack_funcs("gecon", (g,))
    rcond, info = gecon(lu, anorm)
    if info != 0 or rcond <= 0.0:
        return np.inf
    return 1.0 / float(rcond)


# Partially pivoted LU of a Hermitian matrix, its 1-norm and gecon estimate
HermitianFactor = collections.namedtuple("HermitianFactor", "lu piv anorm cond")


def factor_hermitian(g, tol: Tolerances = DEFAULT) -> HermitianFactor:
    """Check that G is Hermitian, LU-factor it once, estimate its condition.

    Raises ValueError if G is not Hermitian; ``solve_hermitian`` guards pivots.
    """
    g = _as_square(g)
    scale = float(np.abs(g).max()) if g.size else 0.0
    if scale and np.abs(g - g.conj().T).max() > tol.hermit_rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    anorm = float(np.linalg.norm(g, 1)) if g.size else 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(g)
    return HermitianFactor(lu, piv, anorm, cond_estimate_1norm(g, lu=lu))


def solve_hermitian(g, rhs, pivot_tol: float | None = None,
                    tol: Tolerances = DEFAULT,
                    factor: HermitianFactor | None = None):
    """Solve G x = rhs for Hermitian G; returns (x, 1-norm cond estimate).

    Partially pivoted LU plus one step of iterative refinement keeps the
    residual well under ``1e-10 * cond * ||rhs||``.  ``factor`` is
    ``factor_hermitian(g)``, computed here when not given.  Raises
    SingularSystem if any pivot falls below ``pivot_tol * ||G||_1`` (for a
    Gram: a resonant family or a control time below threshold), ValueError
    if G is not Hermitian within ``tol.hermit_rtol``.
    """
    g = _as_square(g)
    rhs = np.asarray(rhs, dtype=complex)
    n = g.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    if pivot_tol is None:
        pivot_tol = tol.pivot_tol
    if factor is None:
        factor = factor_hermitian(g, tol=tol)

    if factor.anorm == 0.0:
        raise SingularSystem("zero matrix")
    pivots = np.abs(np.diag(factor.lu))
    if pivots.min() <= pivot_tol * factor.anorm:
        raise SingularSystem(
            f"pivot {pivots.min():.3e} below {pivot_tol:.1e} * ||G||_1")

    lu = (factor.lu, factor.piv)
    x = lu_solve(lu, rhs)
    x = x + lu_solve(lu, rhs - g @ x)
    return x, factor.cond


def rank_qr(m, rank_tol: float | None = None, tol: Tolerances = DEFAULT) -> int:
    """Numeric rank from column-pivoted QR.

    Counts diagonal entries of R with magnitude above
    ``rank_tol * max |R_jj|``.  An empty or zero matrix has rank 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    if m.size == 0:
        return 0
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    if rank_tol is None:
        rank_tol = tol.rank_tol
    r = scipy.linalg.qr(m, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    top = diag.max() if diag.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(diag > rank_tol * top))
