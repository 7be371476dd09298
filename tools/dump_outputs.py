"""Write every output of the seed-7 benchmark commands to one directory tree.

Usage, from the root of a checkout:

    python3 tools/dump_outputs.py <src_dir> <out_dir>

``src_dir`` is the ``src`` directory whose ``wavemoment`` is run, so one
checkout's workloads can drive another checkout's package.  Every command
of every workload in ``perfbench/workloads.py`` (seed 7) goes through
``cli.parse_config`` and ``cli.run`` with BLAS and OpenMP threads pinned to
1, as the benchmark runs it, and gets its own directory
``<out_dir>/<workload>/<index>`` holding:

- ``exit_code``: the exit code, or the exception that escaped ``cli.run``;
- ``report.json``: the report without its ``timings`` block;
- every other file the command wrote.

Two trees written from two source trees are byte-identical exactly when
``diff -r`` prints nothing, which is how a refactor shows that it kept every
output.
"""

from __future__ import annotations

import json
import os
import sys

SEED = 7
# the thread variables perfbench/run.py pins; they are set before numpy
# loads, so they are not read from run.py, whose import loads numpy
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def dump(cli, workloads, out_dir: str) -> int:
    """Run every command into ``out_dir``; returns the number of commands."""
    count = 0
    for name in sorted(workloads.WORKLOADS):
        for index, problem in enumerate(workloads.generate(name, SEED)):
            case = os.path.join(out_dir, name, f"{index:03d}")
            os.makedirs(case)
            config = cli.parse_config(json.dumps(problem.config))
            try:
                _, code = cli.run(problem.command, config, out_dir=case)
            except Exception as exc:  # recorded, so that it shows in the diff
                code = f"{type(exc).__name__}: {exc}"
            with open(os.path.join(case, "exit_code"), "w") as fh:
                fh.write(f"{code}\n")
            report = os.path.join(case, "report.json")
            if os.path.exists(report):
                with open(report, encoding="utf-8") as fh:
                    doc = json.load(fh)
                doc.pop("timings", None)
                with open(report, "w", encoding="utf-8", newline="\n") as fh:
                    json.dump(doc, fh, indent=2, sort_keys=True)
                    fh.write("\n")
            count += 1
    return count


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src_dir, out_dir = (os.path.abspath(p) for p in argv)
    if os.path.exists(out_dir):
        print(f"{out_dir} exists; give a new directory", file=sys.stderr)
        return 2
    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, src_dir)
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    from wavemoment import cli
    import workloads

    if not os.path.abspath(cli.__file__).startswith(src_dir + os.sep):
        print(f"wavemoment imported from {cli.__file__}, not {src_dir}",
              file=sys.stderr)
        return 2
    print(f"{dump(cli, workloads, out_dir)} commands written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
