"""wavemoment benchmark: one workload, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large-edd --seed 1 --seconds 30 --trace 0

Each workload runs in its own fresh worker process (``worker.py``) with BLAS
and OpenMP threads pinned to 1.  Before it, further fresh processes only set
up and exit, so ``setup_s`` is the median of several set-ups.  With
``--trace 0`` the result carries the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` its per-layer metrics.  The environment record and the
failure summary are printed before the result, which is the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without a result when the checkout has no ``src/wavemoment``
or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, root: str, setup_only: bool, deadline: float):
    """Run one worker; return (set-up seconds, last stdout line or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED)
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(max(deadline - started, 1.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or first.strip() != "READY":
        raise WorkerFailed(f"worker exited with {code} "
                           f"(first line {first.strip()[:80]!r})")
    lines = rest.strip().splitlines()
    return setup_s, (lines[-1] if lines else None)


def declared_metrics(root: str, trace: int) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wavemoment benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through start_worker's cleanup, which ends the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.perf_counter() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wavemoment", "__init__.py")):
        print(f"no src/wavemoment under {root}: run from a wavemoment checkout",
              file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)

    try:
        setups = [start_worker(args, root, True, deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup_s, line = start_worker(args, root, False, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)
    result = json.loads(line)
    record = result.pop("record")
    record["setup_s_samples"] = setups

    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in units}

    os.makedirs(os.path.join(root, ".perfbench_results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, ".perfbench_results", name), "w",
              encoding="utf-8") as fh:
        json.dump(dict(result, record=record), fh, indent=2)
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
