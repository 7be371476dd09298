"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --base <checkout> --head <checkout> \\
        --out BENCH.json [--pairs 10] [--seconds 15] [--seed 101] \\
        [--workload NAME ...]

Pair i of a workload runs ``perfbench/run.py --trace 0`` once in each
checkout at seed ``--seed + i``, the base first in even pairs and the head
first in odd ones, so a drift in the machine's speed falls on both sides
alike.  Then each side runs once with ``--trace 1`` for the per-layer
metrics.  For each end-to-end metric of BENCHMARK.json the output holds
each side's values, median and quartiles, the head/base ratio of the
medians and the number of pairs that the head won (better by the metric's
``better``; a tie is no win), and each run's attempted and failed
commands and their ratio, the fail share.  It also holds each side's
environment record (thread variables, nproc, versions).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_bench(checkout: str, workload: str, seed: int, seconds: int,
              trace: int) -> tuple:
    """(result, record) of one perfbench run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout.strip().splitlines()
    record = json.loads(out[-2].removeprefix("record "))
    return json.loads(out[-1]), record


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list, specs: list) -> dict:
    """Per end-to-end metric: both sides' values and quartiles, the ratio
    of the medians and the head's win count over ``pairs``."""
    out = {}
    for spec in specs:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [pair[side]["metrics"][name]["value"] for pair in pairs]
                 for side in ("base", "head")}
        wins = sum((h < b) if lower else (h > b)
                   for b, h in zip(sides["base"], sides["head"]))
        stats = {side: dict(quartiles(values), values=values)
                 for side, values in sides.items()}
        base_median = stats["base"]["median"]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], **stats,
            "ratio_of_medians": (stats["head"]["median"] / base_median
                                 if base_median else None),
            "head_wins": wins, "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True)
    parser.add_argument("--head", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    doc = {"command": bench["command"], "pairs": args.pairs,
           "seconds": args.seconds, "seeds": [args.seed, args.seed
                                              + args.pairs - 1],
           "order": "base first in even pairs, head first in odd pairs",
           "sides": {}, "workloads": {}}
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {}
            for side in order:
                result, record = run_bench(sides[side], workload,
                                           args.seed + i, args.seconds, 0)
                pair[side] = result
                doc["sides"].setdefault(
                    side, {"environment": record["environment"]})
            pairs.append(pair)
            print(f"{workload} pair {i + 1}: " + ", ".join(
                f"{side} {pair[side]['metrics']['command_s_p50']['value']:.4f}"
                for side in order), file=sys.stderr)
        traced = {}
        for side in ("base", "head"):
            result, record = run_bench(sides[side], workload, args.seed,
                                       args.seconds, 1)
            traced[side] = {name: value["value"]
                            for name, value in result["metrics"].items()}
        doc["workloads"][workload] = {
            "end_to_end": summarize(pairs, bench["end_to_end"]),
            **{count: {side: [pair[side][count] for pair in pairs]
                       for side in ("base", "head")}
               for count in ("attempted", "failed")},
            "fail_share": {side: [pair[side]["failed"]
                                  / max(pair[side]["attempted"], 1)
                                  for pair in pairs]
                           for side in ("base", "head")},
            "per_layer_trace1": traced}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
