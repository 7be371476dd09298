"""The dense row-block stages run on ``_kernels.map_blocks`` threads and give
the same bits for any number of workers."""

import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from wavemoment import _kernels, cli
from wavemoment.coupling import CouplingSystem, decompose
from wavemoment.moments import (ControlSignal, TargetSpec, assemble_gram,
                                moments_from_target, synthesize,
                                target_to_modal)
from wavemoment.spectrum import build_edd, build_frequencies, build_raw
from wavemoment.waveform import duhamel_exact

# entries per block in these tests: every stage of the systems below then
# has at least 16 blocks, so 8 workers run in parallel
BLOCK = 256
# (A, b, K, T, basis): the stages that map_blocks runs are the kernel fill,
# the mirror, the formation of S, the evolution and the samples
SYSTEMS = {
    "real-edd": ([[0.5, 0.0, 0.0], [1.0, -0.3, 0.0], [0.0, 1.0, 1.7]],
                 [1.0, 0.0, 0.0], 24, 6 * np.pi + 1.0, "edd"),
    # lambda_1 = -2.24 < -1: growing modes, pinned moments and the
    # long-double evolution
    "raw-growing": ([[-2.239541, 0.0, 0.0], [1.0, 0.562783, 0.0],
                     [0.0, 1.0, 0.997996]], [1.0, 0.0, 0.0], 24,
                    19.563415613241176, "raw"),
    "complex-pair": ([[0.2, 0.7], [-0.7, 0.2]], [1.0, 0.0], 32,
                     4 * np.pi + 1.0, "edd"),
}
STAGES = 5


class CountingPool(_kernels.ThreadPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        CountingPool.started += 1
        super().__init__(*args, **kwargs)


def system_outputs(a, b, k_max, duration, basis):
    """R, the factor, the amplitudes, a/adot and the samples of the
    control that drives the system to a fixed target."""
    a, b = np.array(a), np.array(b)
    spec = decompose(CouplingSystem(a, b))
    grid = build_frequencies(spec, k_max)
    family = build_edd(grid) if basis == "edd" else build_raw(grid)
    ms = assemble_gram(family, duration)
    n = len(b)
    target = TargetSpec({1: np.linspace(-0.5, 0.5, n), 3: np.ones(n)},
                        {2: np.linspace(0.8, -0.3, n)})
    modal = target_to_modal(target, spec, grid)
    control = synthesize(ms, moments_from_target(modal, spec, grid,
                                                 duration))
    state = duhamel_exact(spec, grid, control, duration)
    return [ms.gram, ms.factor.lu, np.array([ms.factor.anorm,
                                             ms.factor.cond]),
            ms.scale, control.amplitudes, state.a, state.adot,
            control.sample(2049)[1]]


def open_control_outputs():
    """a/adot and the samples of a control whose frequencies are not closed
    under the mirror nu -> -conj(nu), so every integral is evaluated."""
    a, b, k_max, duration, _ = SYSTEMS["real-edd"]
    spec = decompose(CouplingSystem(np.array(a), np.array(b)))
    grid = build_frequencies(spec, k_max)
    rng = np.random.default_rng(11)
    freqs = rng.standard_normal(200) * 20 + 0.05j * rng.standard_normal(200)
    amps = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    control = ControlSignal(duration, freqs, amps)
    assert _kernels.mirror_index(control.frequencies) is None
    state = duhamel_exact(spec, grid, control, duration)
    return [state.a, state.adot, control.sample(4097)[1]]


def run_with_workers(monkeypatch, count, make):
    monkeypatch.setattr(_kernels, "workers", lambda: count)
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", CountingPool)
    CountingPool.started = 0
    outputs = make()
    return outputs, CountingPool.started


@pytest.mark.parametrize("name", SYSTEMS)
def test_outputs_do_not_depend_on_worker_count(name, monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", BLOCK)
    runs = [run_with_workers(monkeypatch, count,
                             lambda: system_outputs(*SYSTEMS[name]))
            for count in (1, 2, 8)]
    assert [started for _, started in runs] == [0, STAGES, STAGES]
    first = runs[0][0]
    for outputs, _ in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(first, outputs))


def test_open_control_does_not_depend_on_worker_count(monkeypatch):
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", BLOCK)
    runs = [run_with_workers(monkeypatch, count, open_control_outputs)
            for count in (1, 2, 8)]
    # the evolution and the samples
    assert [started for _, started in runs] == [0, 2, 2]
    first = runs[0][0]
    for outputs, _ in runs[1:]:
        assert all(np.array_equal(x, y) for x, y in zip(first, outputs))


def test_outputs_hold_under_rapid_thread_switching(monkeypatch):
    # 8 workers switching the GIL every microsecond interleave the blocks
    # as finely as the interpreter allows
    monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", BLOCK)
    want, _ = run_with_workers(monkeypatch, 1,
                               lambda: system_outputs(*SYSTEMS["real-edd"]))
    interval = sys.getswitchinterval()
    started = time.perf_counter()
    sys.setswitchinterval(1e-6)
    try:
        got, pools = run_with_workers(
            monkeypatch, 8, lambda: system_outputs(*SYSTEMS["real-edd"]))
    finally:
        sys.setswitchinterval(interval)
    assert time.perf_counter() - started < 60.0
    assert pools == STAGES
    assert all(np.array_equal(x, y) for x, y in zip(want, got))


def test_threads_are_capped_whatever_the_cpu_count(monkeypatch):
    monkeypatch.setattr(_kernels.os, "sched_getaffinity",
                        lambda pid: set(range(64)))
    assert _kernels.workers() == _kernels.MAX_THREADS
    monkeypatch.setattr(_kernels.os, "sched_getaffinity", lambda pid: {0})
    assert _kernels.workers() == 1


@pytest.mark.parametrize("count", [8, 16])
def test_assembly_peak_memory_does_not_grow_with_threads(count, monkeypatch):
    # test_moments' m = 1024 bound on more threads than MAX_THREADS allows:
    # the kernel fill's 32 blocks run on all of them; the check of S, which
    # runs while R and S are both held, stays in one thread
    monkeypatch.setattr(_kernels, "workers", lambda: count)
    a = np.diag([0.5, -0.3, 1.7, 2.9]) + np.diag(np.ones(3), -1)
    spec = decompose(CouplingSystem(a, np.eye(4)[0]))
    family = build_edd(build_frequencies(spec, 128))
    tracemalloc.start()
    try:
        assemble_gram(family, 8 * math.pi + 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * 1024 ** 2, peak / (8 * 1024 ** 2)


def test_small_problem_starts_no_thread(monkeypatch):
    # every loop of a small command has fewer than 2 W blocks
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(_kernels, "workers", lambda: 2)
    monkeypatch.setattr(_kernels, "ThreadPoolExecutor", refuse)
    threads = threading.active_count()
    assert _kernels.map_blocks(lambda b: b + 1, range(3)) == [1, 2, 3]
    doc = {"A": [[0.5, 0.0], [1.0, -0.3]], "b": [1.0, 0.0],
           "T": 4 * np.pi + 0.5, "K": 8, "method": "edd",
           "target": {"z0": [[1, [1.0, 0.5]]], "z1": []}}
    report, code = cli.run("verify", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert report["timings"]["workers"] == 2
    assert threading.active_count() == threads


def test_results_come_in_block_order(monkeypatch):
    monkeypatch.setattr(_kernels, "workers", lambda: 4)

    def body(block):
        time.sleep(0.001 * (block % 3))  # finish out of order
        return block * block

    assert _kernels.map_blocks(body, range(40)) == [b * b for b in range(40)]


def test_first_failing_block_raises_in_the_caller(monkeypatch):
    monkeypatch.setattr(_kernels, "workers", lambda: 4)
    done = []

    def body(block):
        if block in (5, 12):
            time.sleep(0.01 if block == 5 else 0.0)  # 12 raises first
            raise ValueError(f"block {block}")
        done.append(block)
        return block

    threads = threading.active_count()
    with pytest.raises(ValueError, match="block 5"):
        _kernels.map_blocks(body, range(20))
    assert set(range(5)) <= set(done)
    # the pool is shut down before the exception reaches the caller
    assert threading.active_count() == threads
