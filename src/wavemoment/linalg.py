"""Dense complex linear algebra with deterministic ordering.

Thin, contract-enforcing wrappers over LAPACK (through numpy/scipy): a dense
eigensolver for small matrices with a fixed eigenvalue ordering and residual
guarantee, a Hermitian Cholesky factorization that carries its 1-norm
condition estimate, a solve with pivot diagnostics on that factorization,
and a numeric rank from column-pivoted QR.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import scipy.linalg
# lu_factor stays bound here, where perfbench/spans.py traces it
from scipy.linalg import lu_factor  # noqa: F401
from scipy.linalg.lapack import zpocon, zpotrf, zpotrs

from ._kernels import row_blocks
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


def eig_dense(a, tol: Tolerances = DEFAULT) -> EigenResult:
    """Full eigendecomposition of a small dense (n <= 32) complex matrix.

    ``tol.eig_tol`` bounds the residual, absolute on unit-norm eigenvectors.
    Raises DimensionTooLarge above the size cap and NonConvergence if LAPACK
    fails or any residual exceeds the bound.
    """
    # keep real input real: the real-matrix LAPACK path returns exactly
    # conjugate eigenvalue pairs, which keeps the (Re, Im) sort well defined
    a = np.asarray(a)
    a = _as_square(a, complex if np.iscomplexobj(a) else float)
    n = a.shape[0]
    if n > MAX_DENSE_DIM:
        raise DimensionTooLarge(f"matrix size {n} exceeds {MAX_DENSE_DIM}")
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
    if np.any(residuals > tol.eig_tol):
        raise NonConvergence(f"eigenpair residual {residuals.max():.3e} "
                             f"exceeds {tol.eig_tol:.3e}")
    return EigenResult(values, vectors, residuals)


def cond_estimate_1norm(chol, anorm: float) -> float:
    """1-norm condition estimate (LAPACK pocon) of a Hermitian S from its
    lower Cholesky factor and ``anorm`` = ||S||_1; inf when S is not
    numerically positive definite (a zero pivot or a zero S)."""
    rcond, info = zpocon(chol, anorm, uplo="L")
    if info != 0 or not rcond > 0.0:
        return np.inf
    return 1.0 / float(rcond)


# Cholesky factor L of a Hermitian S (lower triangle of ``lu``, Fortran
# order), ||S||_1 and the pocon estimate of S
HermitianFactor = collections.namedtuple("HermitianFactor", "lu anorm cond")


def factor_hermitian(g, tol: Tolerances = DEFAULT,
                     overwrite: bool = False) -> HermitianFactor:
    """Check that S is Hermitian, Cholesky-factor it, estimate its condition.

    The check and the 1-norm run over column blocks, so they need no m x m
    temporary.  ``overwrite=True`` hands S's buffer to LAPACK, which factors
    it in place when S is Fortran-ordered.  L[:n, :n] factors S[:n, :n]; if
    the factorization breaks down at column j, L_jj onward are set to zero,
    so the pivot guard of ``solve_hermitian`` fails the blocks with n >= j.
    Raises ValueError if S is not Hermitian.
    """
    g = _as_square(g)
    scale = asym = 0.0
    col_sums = np.zeros(g.shape[1])
    for cols in row_blocks(g.shape[1], g.shape[0]):
        block = np.abs(g[:, cols])
        scale = max(scale, float(block.max()))
        col_sums[cols] = block.sum(axis=0)
        asym = max(asym, float(np.abs(g[:, cols] - g[cols].conj().T).max()))
    if scale and asym > tol.hermit_rtol * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    anorm = float(col_sums.max(initial=0.0))
    lu, info = zpotrf(g, lower=1, clean=0, overwrite_a=overwrite)
    if info > 0:
        np.fill_diagonal(lu[info - 1:, info - 1:], 0.0)
    return HermitianFactor(lu, anorm, cond_estimate_1norm(lu, anorm))


def solve_hermitian(g, rhs, tol: Tolerances = DEFAULT,
                    factor: HermitianFactor | None = None,
                    scale: np.ndarray | None = None,
                    order: np.ndarray | None = None):
    """Solve G x = rhs for Hermitian G; returns (x, 1-norm cond estimate).

    Cholesky plus one step of iterative refinement keeps the residual well
    under ``1e-10 * cond * ||rhs||``.  With a positive ``scale`` vector d the
    solve runs on S = diag(d) G diag(d): S y = d * rhs and x = d * y, and the
    pivot guard, the refinement and the estimate all refer to S (without
    ``scale``, S is G).  ``factor`` is ``factor_hermitian`` of S with its
    unknowns in ``order``, computed here when not given.  Raises
    SingularSystem if any pivot L_jj^2 is at most ``tol.pivot_tol * ||S||_1``
    (for a Gram: a resonant family or a control time below threshold),
    ValueError if G is not Hermitian within ``tol.hermit_rtol``.
    """
    g = _as_square(g)
    rhs = np.asarray(rhs, dtype=complex)
    n = g.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    d = np.ones(n) if scale is None else np.asarray(scale, dtype=float)
    o = np.arange(n) if order is None else np.asarray(order)
    if factor is None:
        s = g if scale is None else g * np.multiply.outer(d, d)
        factor = factor_hermitian(s[np.ix_(o, o)], tol=tol)

    pivots = np.abs(np.diag(factor.lu)) ** 2
    if not np.all(pivots > tol.pivot_tol * factor.anorm):
        raise SingularSystem(
            f"pivot {pivots.min():.3e} below {tol.pivot_tol:.1e} * ||S||_1")

    x = np.empty(n, dtype=complex)
    x[o] = d[o] * zpotrs(factor.lu, (d * rhs)[o], lower=1)[0]
    x[o] += d[o] * zpotrs(factor.lu, (d * (rhs - g @ x))[o], lower=1)[0]
    return x, factor.cond


def rank_qr(m, tol: Tolerances = DEFAULT) -> int:
    """Numeric rank from column-pivoted QR.

    Counts diagonal entries of R with magnitude above
    ``tol.rank_tol * max |R_jj|``.  An empty or zero matrix has rank 0.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("expected a 2-D array")
    if m.size == 0:
        return 0
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    r = scipy.linalg.qr(m, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    top = diag.max() if diag.size else 0.0
    if top == 0.0:
        return 0
    return int(np.count_nonzero(diag > tol.rank_tol * top))
