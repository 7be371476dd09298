"""Mode frequencies and exponential divided-difference families.

Each sine mode k and eigenvalue index l carries a frequency with
omega^2 = k^2 + conj(lambda_l), extended to negative k by omega_{-k,l} =
-omega_{k,l}.  Within one k the N frequencies cluster as k grows (gaps decay
like 1/k), which ruins the conditioning of any plain exponential family built
from them.  Divided differences of the exponentials restore a uniformly
independent family; the weights here are the standard inverse Newton products.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .coupling import SpectralDecomposition
from .exceptions import CollisionInBlock
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "FrequencyGrid", "EddBlock", "EddFamily", "GapReport", "signed_modes",
    "build_frequencies", "detect_collisions", "build_edd", "gap_diagnostics",
]


def signed_modes(k_max: int) -> list:
    """Signed mode numbers -k_max..-1, 1..k_max in ascending order."""
    return list(range(-k_max, 0)) + list(range(1, k_max + 1))


@dataclasses.dataclass
class FrequencyGrid:
    """Frequencies omega_{k,l} for k = 1..k_max, plus sign extension.

    ``omega[k-1, l-1]`` holds the branch with Re >= 0 (ties broken toward
    Im >= 0); negative k is always the exact negation.  ``zero_modes`` lists
    signed (k, l) pairs whose frequency is numerically zero, ``collisions``
    all unordered index pairs closer than the collision tolerance.
    """

    k_max: int
    n: int
    omega: np.ndarray
    zero_modes: list
    collisions: list

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

    def frequencies(self) -> np.ndarray:
        """Frequency vector aligned with ``signed_indices()``."""
        neg = -self.omega[::-1, :]  # k = -K .. -1
        return np.concatenate([neg.ravel(), self.omega.ravel()])


def _principal_branch(z: np.ndarray) -> np.ndarray:
    w = np.sqrt(z.astype(complex))
    flip = (w.real < 0) | ((w.real == 0) & (w.imag < 0))
    w = np.where(flip, -w, w)
    return w


def build_frequencies(spec: SpectralDecomposition, k_max: int,
                      tol: Tolerances = DEFAULT) -> FrequencyGrid:
    """Tabulate omega_{k,l} = sqrt(k^2 + conj(lambda_l)) for k = 1..k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    lam = spec.eigenvalues
    k = np.arange(1, k_max + 1, dtype=float)
    z = k[:, None] ** 2 + np.conj(lam)[None, :]
    omega = _principal_branch(z)

    zero = []
    for ki, li in zip(*np.nonzero(np.abs(omega) <= tol.zero_tol)):
        zero.append((int(ki) + 1, int(li) + 1))
        zero.append((-(int(ki) + 1), int(li) + 1))
    zero.sort()

    grid = FrequencyGrid(k_max=k_max, n=lam.shape[0], omega=omega,
                         zero_modes=zero, collisions=[])
    grid.collisions = detect_collisions(grid, tol=tol)
    return grid


def detect_collisions(grid: FrequencyGrid, coll_tol: float | None = None,
                      tol: Tolerances = DEFAULT) -> list:
    """All unordered index pairs with |omega - omega'| <= coll_tol.

    The default tolerance is ``tol.coll_scale * (1 + k_max)``.
    """
    if coll_tol is None:
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
class EddBlock:
    """Divided-difference data for one signed mode k.

    ``frequencies`` are the block frequencies sorted ascending by (Re, Im),
    ``perm`` maps eigenvalue order into that sorted order, ``weights[l-1]``
    holds the l coefficients of the order-l function over the first l sorted
    frequencies, and ``weight_scale[l-1]`` is the magnitude of its diagonal
    (leading) weight, which grows like |k|^(l-1) for clustered blocks.
    """

    frequencies: np.ndarray
    perm: np.ndarray
    weights: list
    weight_scale: np.ndarray

    def weight_matrix(self) -> np.ndarray:
        n = self.frequencies.shape[0]
        w = np.zeros((n, n), dtype=complex)
        for l in range(n):
            w[l, : l + 1] = self.weights[l]
        return w


@dataclasses.dataclass
class EddFamily:
    """Per-block divided-difference families over a frequency grid."""

    k_max: int
    n: int
    blocks: dict

    def frequencies(self) -> np.ndarray:
        """Sorted block frequencies in the lexicographic signed-index order."""
        return np.concatenate([self.blocks[k].frequencies
                               for k in signed_modes(self.k_max)])


def build_edd(grid: FrequencyGrid, tol: Tolerances = DEFAULT) -> EddFamily:
    """Build the divided-difference family for every signed block.

    Raises
    ------
    CollisionInBlock
        If two frequencies of one block are closer than the collision
        tolerance; the plain divided difference is then undefined.
    """
    coll_tol = tol.coll_scale * (1.0 + grid.k_max)
    blocks = {}
    for k in signed_modes(grid.k_max):
        freqs = np.array([grid.omega_at(k, l) for l in range(1, grid.n + 1)])
        perm = np.lexsort((freqs.imag, freqs.real))
        sf = freqs[perm]
        weights = []
        scale = np.empty(grid.n)
        for l in range(1, grid.n + 1):
            nodes = sf[:l]
            wl = np.empty(l, dtype=complex)
            for j in range(l):
                diff = np.delete(nodes, j) - nodes[j]
                if l > 1 and np.abs(diff).min() <= coll_tol:
                    raise CollisionInBlock(
                        f"block k={k}: frequency gap at or below {coll_tol:.3e}")
                wl[j] = 1.0 / np.prod(-diff) if l > 1 else 1.0
            weights.append(wl)
            scale[l - 1] = abs(wl[l - 1])
        blocks[k] = EddBlock(frequencies=sf, perm=perm, weights=weights,
                             weight_scale=scale)
    return EddFamily(k_max=grid.k_max, n=grid.n, blocks=blocks)


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
    diam = np.empty(grid.k_max)
    for i in range(grid.k_max):
        row = grid.omega[i]
        diam[i] = np.abs(row[None, :] - row[:, None]).max()
    product = ks * diam
    upper = ks >= max(1, grid.k_max // 2)
    median = float(np.median(product[upper]))
    flagged = []
    if median > 0:
        for k in ks[upper]:
            p = product[k - 1]
            if p < median / 2.0 or p > 2.0 * median:
                flagged.append(int(k))
    return GapReport(k=ks, diameter=diam, product=product,
                     median_product=median, flagged=flagged)
