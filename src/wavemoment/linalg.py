"""Dense linear algebra with deterministic ordering.

Thin, contract-enforcing wrappers over LAPACK (through numpy/scipy): a dense
eigensolver for small real or complex matrices with a fixed eigenvalue
ordering and residual guarantee, a real symmetric Cholesky factorization
(dpotrf) that carries its 1-norm condition estimate, and a solve with pivot
diagnostics on that factorization (dpotrs).  The Kalman condition needs no
rank routine: ``coupling.kalman_check`` runs the Hautus test at the
eigenvalues of A.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import numpy as np
# lu_factor stays bound here, where perfbench/spans.py traces it
from scipy.linalg import lu_factor  # noqa: F401
from scipy.linalg.lapack import dpotrf, dpotrs

from ._kernels import row_blocks
from .exceptions import DimensionTooLarge, NonConvergence, SingularSystem
from .tolerances import DEFAULT, Tolerances

MAX_DENSE_DIM = 32

__all__ = [
    "EigenResult", "HermitianFactor", "eig_dense", "factor_hermitian",
    "solve_hermitian", "cond_estimate_1norm", "MAX_DENSE_DIM",
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


def _as_square(a, real: bool = False):
    """A finite square float array, or complex when the input is complex
    (ValueError for complex input when ``real``)."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        a = a.astype(float, copy=False)
    elif real:
        raise ValueError("expected a real matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def eig_dense(a, tol: Tolerances = DEFAULT) -> EigenResult:
    """Full eigendecomposition of a small dense (n <= 32) matrix.

    ``tol.eig_tol`` bounds the residual, absolute on unit-norm eigenvectors.
    Raises DimensionTooLarge above the size cap and NonConvergence if LAPACK
    fails or any residual exceeds the bound.
    """
    # keep real input real: the real-matrix LAPACK path returns exactly
    # conjugate eigenvalue pairs, which keeps the (Re, Im) sort well defined
    a = _as_square(a)
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
    """1-norm condition estimate ||S||_1 * est(||S^-1||_1) of a symmetric S
    from its lower Cholesky factor and ``anorm`` = ||S||_1; inf when S is
    not numerically positive definite (a zero pivot or a zero S).

    The estimate is Hager's as refined by Higham (LAPACK dlacn2, which
    dpocon runs), with dpotrs solves and exactly rounded sums: dpocon's own
    final sum, an OpenBLAS dasum over a work array it allocates, rounds with
    that array's alignment, which would make reports differ between runs.
    """
    n = chol.shape[0]
    if not (anorm > 0 and np.all(np.diag(chol) > 0)):
        return np.inf

    def solve(v):
        return dpotrs(chol, v, lower=1)[0]

    def norm1(v):
        return math.fsum(np.abs(v))

    with np.errstate(all="ignore"):
        y = solve(np.full(n, 1.0 / n))
        est = norm1(y)
        sign = np.where(y >= 0, 1.0, -1.0)
        j = int(np.argmax(np.abs(solve(sign))))
        for _ in range(4 if n > 1 else 0):
            y = solve(np.eye(1, n, j)[0])
            last, est = est, norm1(y)
            new = np.where(y >= 0, 1.0, -1.0)
            if np.array_equal(new, sign) or est <= last:
                break
            sign = new
            z = solve(sign)
            previous, j = j, int(np.argmax(np.abs(z)))
            if z[previous] == abs(z[j]):
                break
        alt = (1.0 + np.arange(n) / max(n - 1, 1)) * (-1.0) ** np.arange(n)
        est = max(est, 2.0 * norm1(solve(alt)) / (3.0 * n))
    return anorm * est if math.isfinite(est) else np.inf


# Cholesky factor L of a real symmetric S (lower triangle of ``lu``, Fortran
# order), ||S||_1 and the condition estimate of S
HermitianFactor = collections.namedtuple("HermitianFactor", "lu anorm cond")


def factor_hermitian(g, tol: Tolerances = DEFAULT,
                     overwrite: bool = False) -> HermitianFactor:
    """Check that a real S is symmetric, Cholesky-factor it (dpotrf),
    estimate its condition.

    The check and the 1-norm run over column blocks, so they need no m x m
    temporary, and in this thread, so their temporaries are one block's
    (``assemble_gram`` holds R besides S).  ``overwrite=True`` hands S's
    buffer to LAPACK, which factors it in place when S is Fortran-ordered.
    L[:n, :n] factors S[:n, :n]; if the factorization breaks down at column
    j, L_jj onward are set to zero, so the pivot guard of
    ``solve_hermitian`` fails the blocks with n >= j.
    Raises ValueError if S is complex or not symmetric.
    """
    g = _as_square(g, real=True)
    scale = asym = 0.0
    col_sums = np.zeros(g.shape[1])
    for cols in row_blocks(g.shape[1], g.shape[0]):
        block = np.abs(g[:, cols])
        scale = max(scale, float(block.max()))
        col_sums[cols] = block.sum(axis=0)
        # each symmetric pair read once
        asym = max(asym, float(np.abs(g[cols.start:, cols]
                                      - g[cols, cols.start:].T).max()))
    if scale and asym > tol.hermit_rtol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    anorm = float(col_sums.max(initial=0.0))
    lu, info = dpotrf(g, lower=1, clean=0, overwrite_a=overwrite)
    if info > 0:
        np.fill_diagonal(lu[info - 1:, info - 1:], 0.0)
    return HermitianFactor(lu, anorm, cond_estimate_1norm(lu, anorm))


def solve_hermitian(g, rhs, tol: Tolerances = DEFAULT,
                    factor: HermitianFactor | None = None,
                    scale: np.ndarray | None = None):
    """Solve G x = rhs for real symmetric G; returns (x, 1-norm cond
    estimate).

    Cholesky plus one step of iterative refinement keeps the residual well
    under ``1e-10 * cond * ||rhs||``.  With a positive ``scale`` vector d the
    solve runs on S = diag(d) G diag(d): S y = d * rhs and x = d * y, and the
    pivot guard, the refinement and the estimate all refer to S (without
    ``scale``, S is G).  ``factor`` is ``factor_hermitian`` of S, computed
    here when not given.  Raises SingularSystem if any pivot L_jj^2 is at
    most ``tol.pivot_tol * ||S||_1`` (for a Gram: a resonant family or a
    control time below threshold), ValueError if G or rhs is complex or G
    is not symmetric within ``tol.hermit_rtol``.
    """
    g = _as_square(g, real=True)
    rhs = np.asarray(rhs)
    if np.iscomplexobj(rhs):
        raise ValueError("expected a real right-hand side")
    n = g.shape[0]
    if rhs.shape != (n,):
        raise ValueError(f"rhs has shape {rhs.shape}, expected ({n},)")
    d = np.ones(n) if scale is None else np.asarray(scale, dtype=float)
    if factor is None:
        factor = factor_hermitian(g if scale is None
                                  else g * np.multiply.outer(d, d), tol=tol)

    pivots = np.diag(factor.lu) ** 2
    if not np.all(pivots > tol.pivot_tol * factor.anorm):
        raise SingularSystem(
            f"pivot {pivots.min():.3e} below {tol.pivot_tol:.1e} * ||S||_1")

    x = d * dpotrs(factor.lu, d * rhs, lower=1)[0]
    x += d * dpotrs(factor.lu, d * (rhs - g @ x), lower=1)[0]
    return x, factor.cond

