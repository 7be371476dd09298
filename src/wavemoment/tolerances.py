"""Numerical tolerances used across the package.

All thresholds live in one frozen dataclass so a run can be reproduced from
its report.  Profiles give coarse presets; individual fields can be overridden
through the CLI config.
"""

from __future__ import annotations

import dataclasses
import os

_PROFILE_ENV = "WAVEMOMENT_PROFILE"


@dataclasses.dataclass(frozen=True)
class Tolerances:
    # eigensolver residual bound, absolute on unit-norm eigenvectors
    eig_tol: float = 1e-10
    # symmetric solve: a Cholesky pivot L_jj^2 at most pivot_tol * ||S||_1
    # means singular, S the factored matrix (for a Gram: the normalized real
    # one)
    pivot_tol: float = 1e-12
    # Kalman rank by Hautus: an eigenvalue lam is unreachable when
    # sigma_min([A - lam I, b]) <= rank_tol * ||[A, b]||_2
    rank_tol: float = 1e-9
    # eigenvalue separation: repeated if min gap <= sep_scale * (1 + ||A||)
    sep_scale: float = 1e-8
    # resonance defect |(k^2 - l^2) - (lam_i - lam_j)| threshold
    res_tol: float = 1e-9
    # control-time comparison slack for T >= 2*pi*N
    time_tol: float = 1e-12
    # |beta_l| at or below this is treated as a rank failure
    beta_tol: float = 1e-12
    # |omega| at or below this is a zero-frequency mode
    zero_tol: float = 1e-10
    # frequency collision threshold is coll_scale * (1 + K)
    coll_scale: float = 1e-8
    # small-argument series switch for synthesis' kernel integrals (the
    # evolutions that verify a control, closed-form and quadrature, keep
    # _kernels.SERIES_SWITCH); covers the resonant-limit band (<= 1e-8)
    # with a guard margin
    series_switch: float = 1e-6
    # synthesis cap on the condition estimate of the normalized Gram, the
    # conditioning of the family itself
    cond_cap: float = 1e12
    # relative symmetry check on the real Gram/solve inputs, and relative
    # mirror-symmetry check on the moments (a real target); a config may
    # not set it below cli.MIN_HERMIT_RTOL
    hermit_rtol: float = 1e-10
    # biorthogonality residual allowed in spectral decomposition
    biorth_tol: float = 1e-9
    # default verification threshold on terminal modal error
    verify_rtol: float = 1e-6

    def replace(self, **kwargs) -> "Tolerances":
        return dataclasses.replace(self, **kwargs)


DEFAULT = Tolerances()

PROFILES = {
    "default": DEFAULT,
    "strict": DEFAULT.replace(res_tol=1e-10, cond_cap=1e10, verify_rtol=1e-8),
    "loose": DEFAULT.replace(res_tol=1e-8, cond_cap=1e14, verify_rtol=1e-4),
}


def profile_name() -> str:
    """The profile name ``WAVEMOMENT_PROFILE`` selects, "default" when
    unset: the only environment influence on the package but one, the
    BLAS thread count, on which a synthesized control's rounding
    depends."""
    return os.environ.get(_PROFILE_ENV, "default")


def from_profile(name: str | None = None) -> Tolerances:
    """Resolve a tolerance profile by name, or from the environment
    (``profile_name``) when ``name`` is None."""
    if name is None:
        name = profile_name()
    try:
        return PROFILES[name]
    except KeyError:
        from .exceptions import BadInput

        raise BadInput(f"unknown tolerance profile {name!r}; "
                       f"expected one of {sorted(PROFILES)}") from None
