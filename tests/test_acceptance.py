"""End-to-end acceptance experiments for the synthesis pipeline.

Each test prints one PASS/FAIL line with its measured numbers before
asserting, so a full run leaves a readable scoreboard.
"""

import json
import math
import time

import numpy as np
import pytest

from wavemoment import cli
from wavemoment.coupling import CouplingSystem, analyze, decompose
from wavemoment.exceptions import SingularSystem
from wavemoment.moments import (TargetSpec, assemble_gram, moments_from_target,
                                n2_edd_coefficients, n2_normalize_eigvecs,
                                synthesize, target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies, build_raw
from wavemoment.waveform import (duhamel_exact, evolve, verify,
                                 wellposedness_ratio)

TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi

A2 = np.array([[0.5, 0.0], [1.0, -0.3]])
B2 = np.array([1.0, 0.0])


def _line(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _solve_and_verify(a, b, k_max, duration, basis, z0, z1):
    spec = decompose(CouplingSystem(np.asarray(a, float), np.asarray(b, float)))
    grid = build_frequencies(spec, k_max)
    family = build_edd(grid) if basis == "edd" else build_raw(grid)
    modal = target_to_modal(TargetSpec(z0, z1), spec, grid)
    ms = assemble_gram(family, duration)
    control = synthesize(ms, moments_from_target(modal, spec, grid, duration))
    return verify(spec, grid, control, modal, duration)


def test_criterion_1_scalar_benchmark():
    t0 = time.perf_counter()
    report = _solve_and_verify([[0.0]], [1.0], 8, TWO_PI, "raw",
                               {1: [1.0], 3: [0.3]}, {})
    elapsed = time.perf_counter() - t0
    ok = report.max_rel_error <= 1e-8 and elapsed < 1.0
    _line(1, ok, f"max rel error {report.max_rel_error:.3e}, {elapsed:.3f} s")
    assert report.max_rel_error <= 1e-8
    assert elapsed < 1.0


def test_criterion_2_coupled_positive():
    t0 = time.perf_counter()
    conditions = analyze(CouplingSystem(A2, B2), FOUR_PI)
    report = _solve_and_verify(A2, B2, 8, FOUR_PI, "edd",
                               {1: [1.0, 0.0], 2: [0.0, 1.0]},
                               {1: [0.0, 1.0]})
    elapsed = time.perf_counter() - t0
    ok = (conditions.overall_controllable and report.max_rel_error <= 1e-6
          and elapsed < 5.0)
    _line(2, ok, f"controllable {conditions.overall_controllable}, "
                 f"max rel error {report.max_rel_error:.3e}, {elapsed:.3f} s")
    assert conditions.overall_controllable
    assert report.max_rel_error <= 1e-6
    assert elapsed < 5.0


def test_criterion_3_resonance_negative():
    doc = {"A": [[0.0, 0.0], [1.0, 3.0]], "b": [1.0, 0.0], "T": FOUR_PI,
           "K": 4, "target": {"z0": [[1, [1.0, 0.0]]]}}
    config = cli.parse_config(json.dumps(doc))
    report, analyze_code = cli.run("analyze", config)
    quads = [tuple(r[:2]) for r in report["data"]["conditions"]["resonances"]]
    _, forced_code = cli.run("synthesize", config, force=True)

    # the raw Gram is already singular at the smallest truncation holding
    # the colliding pair
    spec = decompose(CouplingSystem(np.array(doc["A"]), np.array(doc["b"])))
    grid = build_frequencies(spec, 2)
    ms = assemble_gram(build_raw(grid), FOUR_PI)
    modal = target_to_modal(TargetSpec({1: [1.0, 0.0]}, {}), spec, grid)
    try:
        synthesize(ms, moments_from_target(modal, spec, grid, FOUR_PI))
        raised = False
    except SingularSystem:
        raised = True

    ok = (analyze_code == 2 and (2, 1) in quads and forced_code == 3 and raised)
    _line(3, ok, f"analyze exit {analyze_code}, resonance pairs {quads}, "
                 f"forced exit {forced_code}, singular at K=2 {raised}")
    assert analyze_code == 2
    assert (2, 1) in quads
    assert forced_code == 3
    assert raised


def test_criterion_4_kalman_negative():
    doc = {"A": [[0.5, 0.0], [1.0, -0.3]], "b": [0.0, 1.0], "T": FOUR_PI,
           "K": 4}
    config = cli.parse_config(json.dumps(doc))
    report, code = cli.run("analyze", config)
    conditions = report["data"]["conditions"]
    betas = conditions["beta_magnitudes"]
    ok = (code == 2 and conditions["kalman_rank"] < 2 and betas[1] <= 1e-12)
    _line(4, ok, f"exit {code}, kalman rank {conditions['kalman_rank']}, "
                 f"|beta_2| = {betas[1]:.3e}")
    assert code == 2
    assert conditions["kalman_rank"] < 2
    assert betas[1] <= 1e-12


def test_criterion_5_time_threshold_conditioning():
    spec = decompose(CouplingSystem(np.array([[0.0, 0.0], [1.0, 0.5]]),
                                    np.array([1.0, 0.0])))

    def conds(duration):
        out = []
        for k_max in (4, 8, 16):
            grid = build_frequencies(spec, k_max)
            ms = assemble_gram(build_edd(grid), duration)
            out.append(ms.cond_estimate)
        return out

    below = conds(TWO_PI)
    above = conds(FOUR_PI)
    growth_below = below[2] / below[0]
    growth_above = above[2] / above[0]
    # growth per doubling read as the geometric mean over the two doublings:
    # >= 10x per doubling means >= 100x overall, < 3x means < 9x overall
    ok = growth_below >= 100.0 and growth_above < 9.0
    _line(5, ok,
          f"T=2pi conds {below[0]:.2e}/{below[1]:.2e}/{below[2]:.2e} "
          f"(steps {below[1] / below[0]:.1f}x, {below[2] / below[1]:.1f}x), "
          f"T=4pi conds {above[0]:.2e}/{above[1]:.2e}/{above[2]:.2e} "
          f"(steps {above[1] / above[0]:.2f}x, {above[2] / above[1]:.2f}x)")
    assert growth_below >= 100.0
    assert growth_above < 9.0


def test_criterion_6_edd_conditioning_advantage():
    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 16)
    raw = assemble_gram(build_raw(grid), FOUR_PI)
    edd = assemble_gram(build_edd(grid), FOUR_PI)
    ok = edd.cond_estimate <= raw.cond_estimate
    _line(6, ok, f"cond edd {edd.cond_estimate:.4e} vs raw "
                 f"{raw.cond_estimate:.4e} at K=16, T=4pi")
    assert edd.cond_estimate <= raw.cond_estimate


def test_criterion_7_sharp_n2_reachability():
    spec = decompose(CouplingSystem(A2, B2))
    norm = n2_normalize_eigvecs(spec, b=B2)

    def setup(k_max):
        grid = build_frequencies(spec, k_max)
        z0 = {n: [1.0 / n, 1.0 / n ** 2] for n in range(1, k_max + 1)}
        modal = target_to_modal(TargetSpec(z0, {}), norm.decomposition, grid)
        return grid, z0, modal

    grid, z0, modal = setup(16)
    ms = assemble_gram(build_edd(grid), FOUR_PI)
    control = synthesize(ms, moments_from_target(modal, norm.decomposition,
                                                 grid, FOUR_PI))
    report = verify(norm.decomposition, grid, control, modal, FOUR_PI)

    def ratio(k_max):
        grid_k, z0_k, modal_k = setup(k_max)
        tilde = n2_edd_coefficients(modal_k, grid_k)
        c = np.array([z0_k[n] for n in range(1, k_max + 1)])
        n = np.arange(1, k_max + 1, dtype=float)
        physical = (math.pi / 2) * (np.sum(c[:, 0] ** 2)
                                    + np.sum(n ** 2 * c[:, 1] ** 2))
        return physical / float(np.sum(np.abs(tilde) ** 2))

    r8, r16 = ratio(8), ratio(16)
    drift = max(r16 / r8, r8 / r16)
    ok = report.max_rel_error <= 1e-6 and drift <= 2.0
    _line(7, ok, f"max rel error {report.max_rel_error:.3e}, norm ratio "
                 f"{r8:.3f} (K=8) vs {r16:.3f} (K=16), drift {drift:.3f}x")
    assert report.max_rel_error <= 1e-6
    assert drift <= 2.0


def test_criterion_8_oracle_agreement():
    from wavemoment.moments import ControlSignal

    spec = decompose(CouplingSystem(A2, B2))
    grid = build_frequencies(spec, 4)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        freqs = rng.uniform(-2.0, 2.0, size=m)
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        amps /= max(1.0, np.abs(amps).sum())
        ctrl = ControlSignal(FOUR_PI, freqs, amps)
        result = evolve(spec, grid, ctrl, FOUR_PI, oracle_samples=2 ** 17 + 1)
        worst = max(worst, float(result.per_mode_residuals.max()))

    sine = ControlSignal(TWO_PI, [1.0, -1.0], [-0.5j, 0.5j])
    scalar = decompose(CouplingSystem(np.array([[0.0]]), np.array([1.0])))
    sgrid = build_frequencies(scalar, 1)
    resonant = duhamel_exact(scalar, sgrid, sine, TWO_PI).a[0, 0]
    ok = worst <= 1e-8 and abs(resonant - (-2.0)) <= 1e-10
    _line(8, ok, f"worst oracle residual {worst:.3e} over 100 controls, "
                 f"resonant value {resonant.real:+.12f}")
    assert worst <= 1e-8
    assert abs(resonant - (-2.0)) <= 1e-10


def test_criterion_9_wellposedness_ratio():
    from wavemoment.moments import ControlSignal

    spec = decompose(CouplingSystem(A2, B2))
    grid8 = build_frequencies(spec, 8)
    grid16 = build_frequencies(spec, 16)
    rng = np.random.default_rng(103)
    worst_ratio = 0.0
    worst_drift = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        freqs = rng.uniform(-3.0, 3.0, size=m)
        amps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        ctrl = ControlSignal(FOUR_PI, freqs, amps)
        r8 = wellposedness_ratio(duhamel_exact(spec, grid8, ctrl, FOUR_PI),
                                 grid8, ctrl)
        r16 = wellposedness_ratio(duhamel_exact(spec, grid16, ctrl, FOUR_PI),
                                  grid16, ctrl)
        worst_ratio = max(worst_ratio, r8, r16)
        worst_drift = max(worst_drift, r16 / r8)
    ok = np.isfinite(worst_ratio) and worst_ratio <= 100.0 and worst_drift <= 2.0
    _line(9, ok, f"max ratio {worst_ratio:.3f} over 200 controls, max drift "
                 f"{worst_drift:.3f}x under K doubling")
    assert np.isfinite(worst_ratio)
    assert worst_ratio <= 100.0
    assert worst_drift <= 2.0
