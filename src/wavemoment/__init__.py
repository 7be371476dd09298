"""Boundary control of coupled 1-D wave systems via the moment method.

Pipeline: decompose the coupling (``coupling``), build the frequency grid and
divided-difference family (``spectrum``), assemble and solve the moment
problem (``moments``), then evolve and check the result (``waveform``).  The
``cli`` module wires the pieces into the ``wavemoment`` command.
"""

from .coupling import (ConditionsReport, CouplingSystem, SpectralDecomposition,
                       analyze, decompose, kalman_check, resonance_check)
from .exceptions import (BadInput, BetaZero, CollisionInBlock,
                         ConditioningExceeded, DegenerateEigenvector,
                         DimensionTooLarge, GridTooCoarse, ModeOutOfRange,
                         NonConvergence, RepeatedEigenvalues, SingularSystem,
                         WaveMomentError)
from .linalg import (EigenResult, cond_estimate_1norm, eig_dense, rank_qr,
                     solve_hermitian)
from .moments import (ControlSignal, ModalState, MomentSystem,
                      N2Normalization, TargetSpec, assemble_gram,
                      combo_l2_norm, gram_entry, moments_from_target,
                      n2_edd_coefficients, n2_normalize_eigvecs, realify,
                      synthesize, target_to_modal)
from .spectrum import (EddFamily, FrequencyGrid, GapReport, build_edd,
                       build_frequencies, detect_collisions, gap_diagnostics)
from .tolerances import DEFAULT, PROFILES, Tolerances, from_profile
from .waveform import (EvolutionResult, VerifyReport, duhamel_exact, evolve,
                       evolve_quadrature, reconstruct, sobolev_norm, verify,
                       wellposedness_ratio)

__version__ = "0.1.0"

__all__ = [
    "BadInput", "BetaZero", "CollisionInBlock", "ConditionsReport",
    "ConditioningExceeded", "ControlSignal", "CouplingSystem", "DEFAULT",
    "DegenerateEigenvector", "DimensionTooLarge", "EddFamily",
    "EigenResult", "EvolutionResult", "FrequencyGrid", "GapReport",
    "GridTooCoarse", "ModalState", "ModeOutOfRange", "MomentSystem",
    "N2Normalization", "NonConvergence", "PROFILES", "RepeatedEigenvalues",
    "SingularSystem", "SpectralDecomposition", "TargetSpec", "Tolerances",
    "VerifyReport", "WaveMomentError", "analyze", "assemble_gram",
    "build_edd", "build_frequencies", "combo_l2_norm", "cond_estimate_1norm",
    "decompose", "detect_collisions", "duhamel_exact", "eig_dense", "evolve",
    "evolve_quadrature", "from_profile", "gap_diagnostics", "gram_entry",
    "kalman_check", "moments_from_target", "n2_edd_coefficients",
    "n2_normalize_eigvecs", "rank_qr", "realify",
    "reconstruct", "resonance_check", "sobolev_norm", "solve_hermitian",
    "synthesize", "target_to_modal", "verify", "wellposedness_ratio",
]
