"""Mode frequencies and exponential divided-difference families.

Each sine mode k and eigenvalue index l carries a frequency with
omega^2 = k^2 + lambda_l, that of the modal equation
a'' + (k^2 + lambda_l) a = (2k/pi) beta_l f of u_tt - u_xx + A u = 0,
extended to negative k by omega_{-k,l} = -omega_{k,l}.  Within one k the N
frequencies cluster as k grows (gaps decay like 1/k), which ruins the
conditioning of any plain exponential family built from them.  Divided
differences of the exponentials restore a uniformly independent family; the
weights here are the standard inverse Newton products, and the identity for
the order-one family of the plain exponentials.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .coupling import SpectralDecomposition
from .exceptions import CollisionInBlock
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "FrequencyGrid", "EddFamily", "GapReport", "signed_modes", "build_raw",
    "build_frequencies", "detect_collisions", "build_edd", "gap_diagnostics",
]


def signed_modes(k_max: int) -> list:
    """Signed mode numbers -k_max..-1, 1..k_max in ascending order."""
    return list(range(-k_max, 0)) + list(range(1, k_max + 1))


@dataclasses.dataclass
class FrequencyGrid:
    """Frequencies omega_{k,l} for k = 1..k_max, plus sign extension.

    ``omega[k-1, l-1]`` holds the branch with Re >= 0 (ties broken toward
    Im >= 0); negative k is always the exact negation.
    """

    k_max: int
    n: int
    omega: np.ndarray

    def omega_at(self, k: int, l: int) -> complex:
        """Frequency at signed mode k (1-based |k| <= k_max) and level l (1-based)."""
        if k == 0 or abs(k) > self.k_max:
            raise ValueError(f"mode index {k} outside +-1..{self.k_max}")
        if not 1 <= l <= self.n:
            raise ValueError(f"level index {l} outside 1..{self.n}")
        w = self.omega[abs(k) - 1, l - 1]
        return complex(w if k > 0 else -w)

    def signed_indices(self) -> list:
        """Index pairs (k, l) ordered by k ascending over -K..-1, 1..K, then l."""
        return [(k, l) for k in signed_modes(self.k_max)
                for l in range(1, self.n + 1)]

    def signed_k(self) -> np.ndarray:
        """Signed mode k of each unknown, aligned with ``signed_indices()``."""
        return np.repeat(signed_modes(self.k_max), self.n)

    def frequencies(self) -> np.ndarray:
        """Frequency vector aligned with ``signed_indices()``."""
        neg = -self.omega[::-1, :]  # k = -K .. -1
        return np.concatenate([neg.ravel(), self.omega.ravel()])


def _principal_branch(z: np.ndarray) -> np.ndarray:
    w = np.sqrt(z.astype(complex))
    flip = (w.real < 0) | ((w.real == 0) & (w.imag < 0))
    w = np.where(flip, -w, w)
    return w


def build_frequencies(spec: SpectralDecomposition, k_max: int) -> FrequencyGrid:
    """Tabulate omega_{k,l} = sqrt(k^2 + lambda_l) for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lam = spec.eigenvalues
    k = np.arange(1, k_max + 1, dtype=float)
    z = k[:, None] ** 2 + lam[None, :]
    return FrequencyGrid(k_max=k_max, n=lam.shape[0],
                         omega=_principal_branch(z))


def detect_collisions(grid: FrequencyGrid, tol: Tolerances = DEFAULT) -> list:
    """All unordered index pairs with |omega - omega'| at or below the
    collision tolerance ``tol.coll_scale * (1 + k_max)``."""
    coll_tol = tol.coll_scale * (1.0 + grid.k_max)
    idx = grid.signed_indices()
    freqs = grid.frequencies()
    order = np.lexsort((freqs.imag, freqs.real))
    out = []
    # sweep on the real part: candidates must be adjacent in sorted real order
    for a in range(len(order)):
        ia = order[a]
        for b in range(a + 1, len(order)):
            ib = order[b]
            if freqs[ib].real - freqs[ia].real > coll_tol:
                break
            if abs(freqs[ib] - freqs[ia]) <= coll_tol:
                pair = tuple(sorted((idx[ia], idx[ib])))
                out.append(pair)
    out.sort()
    return out


@dataclasses.dataclass
class EddFamily:
    """Divided-difference families of every signed block, one row per block.

    Row r belongs to mode ``signed_modes(k_max)[r]``; ``perm[r]`` maps
    eigenvalue order into the order of ``nodes[r]``.  Block -k is the mirror
    of block k: at each position it holds -conj(x) for the node x of block
    k, so its exponentials are the conjugates of block k's and its
    functions are +-conj of theirs.  A self-mirrored node (x = -conj(x),
    purely imaginary: lambda_l <= -k^2) is paired with its negation instead
    and is a plain exponential, in no other function's divided difference.
    ``build_edd`` sorts block k ascending by (Re, Im), except that nodes
    with Im > 0 (growing functions e^{Im x t}, which would dominate every
    divided difference after them) come after the others by Im, and the
    self-mirrored ones last; row l of the lower triangular ``weights[r]``
    holds the order-(l + 1) function over the first l + 1 nodes, whose
    diagonal weight grows like |k|^l in clustered blocks.  ``build_raw``
    keeps block k in eigenvalue order with identity weights (order one).
    """

    k_max: int
    n: int
    nodes: np.ndarray
    perm: np.ndarray
    weights: np.ndarray

    @property
    def self_mirrored(self) -> np.ndarray:
        """(k_max, n) mask of the self-mirrored nodes of blocks k = 1..k_max."""
        return self.nodes[self.k_max:].real == 0


def _mirrored(grid: FrequencyGrid, perm: np.ndarray) -> tuple:
    """(nodes, perm) of every signed block from the order ``perm`` of the
    blocks k = 1..K: block -k takes the mirrors of block k's nodes, position
    by position (a self-mirrored node's negation).  Raises ValueError when
    some node has no mirror in its block -k, which a real A rules out."""
    w = grid.omega
    # conj(omega_{k,l}) = omega_{k,l'} exactly for a conjugate pair
    # lambda_l' = conj(lambda_l); a purely imaginary omega keeps its level
    match = (w[:, None, :] == np.conj(w)[:, :, None]) \
        | (np.eye(grid.n, dtype=bool) & (w.real == 0)[:, :, None])
    if not match.any(axis=2).all():
        raise ValueError("frequencies are not closed under w -> -conj(w); "
                         "the coupling matrix must be real")
    partner = match.argmax(axis=2)
    perm = np.concatenate([np.take_along_axis(partner, perm, axis=1)[::-1],
                           perm])
    freqs = grid.frequencies().reshape(2 * grid.k_max, grid.n)
    return np.take_along_axis(freqs, perm, axis=1), perm


def build_edd(grid: FrequencyGrid, tol: Tolerances = DEFAULT) -> EddFamily:
    """Build the divided-difference family for every signed block.

    The weight of node j in the order-(l + 1) function is
    1 / prod_{i <= l, i != j} (x_j - x_i), the product taken in ascending i;
    the row of a self-mirrored node is its unit row.

    Raises
    ------
    CollisionInBlock
        If two frequencies of one block are closer than the collision
        tolerance; the plain divided difference is then undefined.
    """
    coll_tol = tol.coll_scale * (1.0 + grid.k_max)
    w = grid.omega
    nodes, perm = _mirrored(grid, np.lexsort(
        (w.imag, w.real, np.maximum(w.imag, 0.0), w.real == 0)))
    # factors[r, i, j] = x_j - x_i, with the excluded i = j set to exactly 1
    factors = -(nodes[:, :, None] - nodes[:, None, :])
    off = ~np.eye(grid.n, dtype=bool)
    hit = (off & (np.abs(factors) <= coll_tol)).any(axis=(1, 2))
    if hit.any():
        k = signed_modes(grid.k_max)[int(np.argmax(hit))]
        raise CollisionInBlock(
            f"block k={k}: frequency gap at or below {coll_tol:.3e}")
    factors[:, ~off] = 1.0
    weights = np.tril(1.0 / np.cumprod(factors, axis=1))
    plain = nodes.real == 0
    weights[plain] = 0.0
    weights[plain[:, :, None] & ~off] = 1.0
    return EddFamily(k_max=grid.k_max, n=grid.n, nodes=nodes, perm=perm,
                     weights=weights)


def build_raw(grid: FrequencyGrid) -> EddFamily:
    """The order-one family: block k's exponentials in eigenvalue order,
    block -k's mirrored, every weight block the N x N identity."""
    blocks = 2 * grid.k_max
    nodes, perm = _mirrored(grid, np.tile(np.arange(grid.n), (grid.k_max, 1)))
    return EddFamily(k_max=grid.k_max, n=grid.n, nodes=nodes, perm=perm,
                     weights=np.tile(np.eye(grid.n, dtype=complex),
                                     (blocks, 1, 1)))


@dataclasses.dataclass
class GapReport:
    k: np.ndarray
    diameter: np.ndarray
    product: np.ndarray
    median_product: float
    flagged: list


def gap_diagnostics(grid: FrequencyGrid) -> GapReport:
    """In-block frequency diameters d_k and the scaled products k * d_k.

    For distinct eigenvalues the products settle near max|lam_i - lam_j| / 2;
    blocks in the upper half of the k range whose product drifts outside
    [c/2, 2c] of the upper-half median c are flagged.
    """
    if grid.n < 2:
        empty = np.empty(0)
        return GapReport(k=np.empty(0, dtype=int), diameter=empty,
                         product=empty, median_product=0.0, flagged=[])
    ks = np.arange(1, grid.k_max + 1)
    w = grid.omega
    diam = np.abs(w[:, None, :] - w[:, :, None]).max(axis=(1, 2))
    product = ks * diam
    upper = ks >= max(1, grid.k_max // 2)
    median = float(np.median(product[upper]))
    drift = (product < median / 2.0) | (product > 2.0 * median)
    flagged = [int(k) for k in ks[upper & drift]] if median > 0 else []
    return GapReport(k=ks, diameter=diam, product=product,
                     median_product=median, flagged=flagged)
