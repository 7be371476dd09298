"""Seeded workload generators for the wavemoment benchmark.

Each generator turns a seed into a list of ``Problem`` records.  A problem
holds the JSON config document the program receives, the CLI command to run
on it and the outcome its construction guarantees: ``controllable`` systems
satisfy the Kalman rank condition, have no integer-gap resonance and run for
T >= 2*pi*N; ``uncontrollable`` systems break one of those conditions by
construction.  The expectation never comes from the program under test.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

TWO_PI = 2.0 * math.pi

CONTROLLABLE = "controllable"
UNCONTROLLABLE = "uncontrollable"

# Every small-batch class gets the same number of problems per pass, so the
# class mix (and with it the share of D1 failures) does not depend on the seed.
SMALL_BATCH_PER_CLASS = 36
SMALL_BATCH_KS = (8, 16, 32)
METHODS = ("raw", "edd")


@dataclasses.dataclass(frozen=True)
class Problem:
    kind: str
    command: str
    config: dict
    expect: str


def _target(rng: np.random.Generator, n: int) -> dict:
    """Terminal state on sine modes 1..3 with coefficients in [-1, 1]."""
    def coefs():
        return [round(float(x), 6) for x in rng.uniform(-1.0, 1.0, size=n)]

    z0 = [[mode, coefs()] for mode in (1, 2, 3) if mode == 1 or rng.random() < 0.5]
    z1 = [[mode, coefs()] for mode in (1, 2) if rng.random() < 0.5]
    return {"z0": z0, "z1": z1}


def _bidiagonal(diag) -> list:
    """Lower-bidiagonal matrix with the given diagonal and unit subdiagonal.

    Its eigenvalues are the diagonal and (A, e_1) satisfies the Kalman rank
    condition, while (A, e_N) does not (e_N is an eigenvector).
    """
    n = len(diag)
    a = np.diag(np.asarray(diag, dtype=float)) + np.diag(np.ones(n - 1), -1)
    return a.tolist()


def _unit(n: int, j: int) -> list:
    e = [0.0] * n
    e[j] = 1.0
    return e


# The README target lifted to N = 4, and the unit-size draw of ``_target``
# for seed 11.  At K = 256 the second misses the default verify tolerance
# (max_rel_error 1.33e-6 > 1e-6), a defect not yet diagnosed; it stays in
# the workload so that it shows in ``failed``.  Both targets are fixed, so
# every seed sees the same pass/fail split.
LARGE_EDD_TARGETS = (
    ("readme-target", {"z0": [[1, [1.0, 0.0, 0.0, 0.0]], [2, [0.0, 1.0, 0.0, 0.0]]],
                       "z1": [[1, [0.0, 1.0, 0.0, 0.0]]]}),
    ("dense-target", {"z0": [[1, [-0.74286, -0.001444, 0.202997, -0.942622]],
                             [2, [0.856422, -0.859159, -0.740452, 0.896657]]],
                      "z1": [[1, [0.02278, 0.325686, -0.449382, -0.724064]]]}),
)


def large_edd(rng: np.random.Generator) -> list:
    """ROADMAP direction 1's target size: N = 4, K = 256, EDD, m = 2048.

    The inputs do not depend on the seed (see ``LARGE_EDD_TARGETS``).
    """
    system = {"A": _bidiagonal([0.5, -0.3, 1.7, 2.9]), "b": _unit(4, 0),
              "T": 8.0 * math.pi + 1.0, "K": 256, "method": "edd"}
    return [Problem(kind, "verify", dict(system, target=target), CONTROLLABLE)
            for kind, target in LARGE_EDD_TARGETS]


def k_sweep(rng: np.random.Generator) -> list:
    """The README's N = 2 system swept over K with the raw basis."""
    config = {"A": [[0.5, 0.0], [1.0, -0.3]], "b": [1.0, 0.0], "T": 4.0 * math.pi,
              "K": 16, "method": "raw", "target": _target(rng, 2),
              "sweep": {"parameter": "K",
                        "values": [16, 32, 48, 64, 96, 128, 192, 256]}}
    return [Problem("k-sweep", "sweep", config, CONTROLLABLE)]


def _distinct_real(rng, n, low, high, min_gap=0.3):
    while True:
        lam = np.sort(rng.uniform(low, high, size=n))
        if n == 1 or np.diff(lam).min() >= min_gap:
            return [round(float(x), 6) for x in lam]


def _real_distinct(rng, n, margin):
    # eigenvalues in (-1, 2): all frequencies real and every gap below the
    # smallest integer-square gap 2^2 - 1^2 = 3
    return _bidiagonal(_distinct_real(rng, n, -0.9, 2.0)), _unit(n, 0), \
        TWO_PI * n + margin


def _class_real_distinct(rng, n):
    a, b, t = _real_distinct(rng, n, rng.uniform(0.5, 2.0))
    return a, b, t, CONTROLLABLE


def _class_complex_pair(rng, n):
    re, im = rng.uniform(0.0, 1.0), rng.uniform(0.3, 1.0)
    a = np.zeros((n, n))
    a[:2, :2] = [[re, im], [-im, re]]
    if n == 3:
        a[2, 1] = 1.0
        a[2, 2] = rng.uniform(1.5, 2.5)
    return a.round(6).tolist(), _unit(n, 0), TWO_PI * n + rng.uniform(0.5, 2.0), \
        CONTROLLABLE


def _class_below_minus_one(rng, n):
    # one eigenvalue below -1, so k^2 + lambda < 0 at k = 1
    low = round(float(rng.uniform(-2.5, -1.1)), 6)
    rest = _distinct_real(rng, n - 1, 0.0, 1.5) if n > 1 else []
    return _bidiagonal([low] + rest), _unit(n, 0), \
        TWO_PI * n + rng.uniform(0.5, 2.0), CONTROLLABLE


def _class_near_resonant(rng, n):
    # eigenvalue gap 3 + delta next to 2^2 - 1^2, so omega_{2,1} and
    # omega_{1,2} nearly coincide across blocks without resonating
    low = round(float(rng.uniform(-0.5, 0.5)), 6)
    delta = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-2))
    return _bidiagonal([low, round(low + 3.0 + delta, 9)]), _unit(2, 0), \
        TWO_PI * 2 + rng.uniform(0.5, 2.0), CONTROLLABLE


def _class_t_above(rng, n):
    a, b, t = _real_distinct(rng, n, rng.uniform(1e-3, 1e-2))
    return a, b, t, CONTROLLABLE


def _class_t_below(rng, n):
    a, b, t = _real_distinct(rng, n, -rng.uniform(1e-3, 1e-2))
    return a, b, t, UNCONTROLLABLE


def _class_kalman_fail(rng, n):
    # e_N is an eigenvector of a lower-bidiagonal A: the Krylov space of b
    # is one-dimensional
    return _bidiagonal(_distinct_real(rng, n, -0.9, 2.0)), _unit(n, n - 1), \
        TWO_PI * n + rng.uniform(0.5, 2.0), UNCONTROLLABLE


# (class name, generator, component counts cycled through)
SMALL_BATCH_CLASSES = (
    ("real-distinct", _class_real_distinct, (1, 2, 3)),
    ("complex-pair", _class_complex_pair, (2, 3)),
    ("below-minus-one", _class_below_minus_one, (1, 2, 3)),
    ("near-resonant", _class_near_resonant, (2,)),
    ("t-above", _class_t_above, (1, 2, 3)),
    ("t-below", _class_t_below, (1, 2, 3)),
    ("kalman-fail", _class_kalman_fail, (2, 3)),
)


def small_batch(rng: np.random.Generator) -> list:
    """Problems of every class, interleaved so that any prefix is balanced.

    Within a class the (N, K, method) triples run through a fixed cycle;
    the seed only draws the matrices, times and targets.
    """
    per_class = []
    for name, make, ns in SMALL_BATCH_CLASSES:
        shapes = itertools.cycle(itertools.product(METHODS, SMALL_BATCH_KS, ns))
        problems = []
        for _ in range(SMALL_BATCH_PER_CLASS):
            method, k_max, n = next(shapes)
            a, b, t, expect = make(rng, n)
            config = {"A": a, "b": b, "T": float(t), "K": k_max,
                      "method": method, "target": _target(rng, n)}
            problems.append(Problem(name, "verify", config, expect))
        per_class.append(problems)
    return [p for group in zip(*per_class) for p in group]


WORKLOADS = {
    "large-edd": large_edd,
    "k-sweep": k_sweep,
    "small-batch": small_batch,
}


def generate(workload: str, seed: int) -> list:
    return WORKLOADS[workload](np.random.default_rng(seed))


def warmup(problem: Problem) -> Problem:
    """The same command, method and code path at the smallest size.

    A full-size warm-up would cost one whole command (about 10 s on
    large-edd) per set-up sample while loading no code the small one does
    not load.
    """
    config = dict(problem.config, K=8)
    if "sweep" in config:
        config["sweep"] = {"parameter": "K", "values": [8]}
    return dataclasses.replace(problem, config=config)
