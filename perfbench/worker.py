"""Run one benchmark workload in a fresh process.

The parent (``run.py``) starts this script with BLAS and OpenMP threads
pinned to 1.  Set-up is interpreter start, ``import wavemoment`` from the
checkout's ``src``, workload generation (every config goes through
``cli.parse_config`` as JSON text) and one untimed warm-up command; the
script then prints ``READY``, which is where the parent stops the set-up
clock.  With ``--setup-only`` it exits there.

The timed loop is a closed loop with one client: each command starts when
the previous one has been checked.  Whole passes over the workload's
problems run until ``--seconds`` have passed.  With ``--trace 1`` passes
alternate between untraced and traced (at least one of each), so the
tracing overhead is measured inside one process.  The last stdout line is a
JSON object with the outcome counts, the metrics and the run record.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import outcome
import spans
import workloads
from run import PINNED


SELF_TIMED = (
    "cli.run", "coupling.analyze", "coupling.decompose",
    "spectrum.build_frequencies", "spectrum.detect_collisions",
    "spectrum.build_edd", "moments.target_to_modal",
    "moments.moments_from_target", "moments.assemble_gram",
    "moments.combo_l2_norm", "moments.synthesize", "moments.realify",
    "linalg.cond_estimate_1norm", "linalg.solve_hermitian", "linalg.lu_factor",
    "waveform.verify", "waveform.duhamel_exact", "waveform.reconstruct",
)
COUNTED = ("moments.assemble_gram", "moments.combo_l2_norm", "linalg.lu_factor",
           "coupling.decompose", "waveform.duhamel_exact")
QUALITY = ("cond_estimate", "moment_residual", "realification_residual",
           "max_rel_error")
TRACE_MIN_PASSES = 2


def environment(workload: str, seed: int) -> dict:
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"

    return {
        "workload": workload,
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "machine": platform.machine(),
    }


def _out_bytes(out_dir: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(out_dir))


class Run:
    """Outcome counts, samples and output checks of one timed loop."""

    def __init__(self, problems, configs, work_dir):
        self.problems = problems
        self.configs = configs
        self.work_dir = work_dir
        self.seconds = {False: [], True: []}
        self.attempted = 0
        self.failures = collections.Counter()
        self.output_problems = []
        self.data_text = {}
        self.out_bytes = 0

    def one_pass(self, run, tracer=None):
        for index, (problem, config) in enumerate(zip(self.problems, self.configs)):
            shutil.rmtree(self.work_dir, ignore_errors=True)
            if tracer is not None:
                tracer.request += 1
            code = data = exc = None
            started = time.perf_counter()
            try:
                report, code = run(problem.command, config, out_dir=self.work_dir)
                data = report["data"]
            except Exception as err:  # any escape from cli.run is a counted failure
                exc = err
            elapsed = time.perf_counter() - started
            self.seconds[tracer is not None].append(elapsed)
            self.attempted += 1
            ok, reason = outcome.classify(problem.expect, problem.command,
                                          code, data, exc)
            if not ok:
                self.failures[f"{problem.kind}: exit {code}"
                              if exc is None else f"{problem.kind}: {reason}"] += 1
            if exc is not None:
                continue
            issues, text = outcome.check_outputs(problem.command, code,
                                                 self.work_dir, problem.config)
            if text is not None and self.data_text.setdefault(index, text) != text:
                issues.append("report data differs between repeats")
            self.output_problems += [f"{problem.kind}: {i}" for i in issues]
            if tracer is not None:
                self.out_bytes += _out_bytes(self.work_dir)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def end_to_end(run: Run) -> dict:
    times = run.seconds[False]
    return {
        "command_s_p50": statistics.median(times),
        "command_s_p90": float(np.percentile(times, 90)),
        "commands_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }


def per_layer(run: Run, tracer: spans.Tracer) -> dict:
    traced = len(run.seconds[True])
    self_s, calls = tracer.self_times()
    metrics = {f"{name}.self_s": self_s[name] / traced for name in SELF_TIMED}
    metrics.update({f"{name}.calls": calls[name] / traced for name in COUNTED})
    metrics["moments.gram_dim"] = tracer.gram_dim
    metrics["moments.dense_bytes"] = tracer.dense_bytes / traced
    metrics["cli.out_bytes"] = run.out_bytes / traced
    metrics.update({f"quality.{key}": tracer.worst.get(key, 0.0)
                    for key in QUALITY})
    metrics["trace.overhead_s"] = (statistics.median(run.seconds[True])
                                   - statistics.median(run.seconds[False]))
    return metrics


def measure(cli, problems, configs, seconds, trace, work_dir, spans_path):
    run = Run(problems, configs, work_dir)
    tracer = spans.Tracer() if trace else None
    started = time.perf_counter()
    passes = 0
    while True:
        if trace and passes % 2 == 1:
            tracer.install()
            try:
                run.one_pass(tracer.wrap(spans.ROOT, cli.run), tracer)
            finally:
                tracer.uninstall()
        else:
            run.one_pass(cli.run)
        passes += 1
        if time.perf_counter() - started >= seconds \
                and (not trace or passes >= TRACE_MIN_PASSES):
            break
    if trace:
        metrics = per_layer(run, tracer)
        tracer.write(spans_path)
    else:
        metrics = end_to_end(run)
    return {
        "correct": not run.output_problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "record": {
            "passes": passes,
            "commands": {"untraced": len(run.seconds[False]),
                         "traced": len(run.seconds[True])},
            "fail_share": run.failed / run.attempted,
            "failures": dict(sorted(run.failures.items())),
            "output_problems": run.output_problems[:20],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    from wavemoment import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"wavemoment imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    problems = workloads.generate(args.workload, args.seed)
    configs = [cli.parse_config(json.dumps(p.config)) for p in problems]
    results = os.path.join(args.root, ".perfbench_results")
    work_dir = os.path.join(args.root, ".perfbench_work",
                            f"{args.workload}-{os.getpid()}")
    try:
        warm = workloads.warmup(problems[0])
        cli.run(warm.command, cli.parse_config(json.dumps(warm.config)),
                out_dir=work_dir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        os.makedirs(results, exist_ok=True)
        spans_path = os.path.join(
            results, f"{args.workload}-seed{args.seed}-spans.jsonl")
        result = measure(cli, problems, configs, args.seconds, args.trace,
                         work_dir, spans_path)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["record"]["environment"] = environment(args.workload, args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
