"""Write every output of one seed's benchmark commands to one directory
tree, or compare two such trees.

Usage, from the root of a checkout:

    python3 tools/dump_outputs.py [--seed N] <src_dir> <out_dir>
    python3 tools/dump_outputs.py --compare <old_dir> <new_dir>

``src_dir`` is the ``src`` directory whose ``wavemoment`` is run, so one
checkout's workloads can drive another checkout's package.  Every command
of every workload in ``perfbench/workloads.py`` (seed ``N``, 7 when not
given) goes through
``cli.parse_config`` and ``cli.run`` with BLAS and OpenMP threads pinned to
1, as the benchmark runs it, and gets its own directory
``<out_dir>/<workload>/<index>`` holding:

- ``exit_code``: the exit code, or the exception that escaped ``cli.run``;
- ``report.json``: the report without its ``timings`` block;
- every other file the command wrote.

Two trees written from two source trees are byte-identical exactly when
``diff -r`` prints nothing, which is how a refactor shows that it kept every
output.  ``--compare`` says how a change that moves outputs moved them: it
prints every changed exit code, the number of commands with any changed
file, the number of commands in which each file name changed, and, for
each ``report.json`` data field that changed, the largest
relative change |new - old| / |old| over the commands (list items share
one field, as ``sweep.rows[].cond_estimate``; a change that is not between
two numbers counts as ``changed``).  It exits 1 when anything differs.
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import re
import sys

DEFAULT_SEED = 7
# the thread variables perfbench/run.py pins; they are set before numpy
# loads, so they are not read from run.py, whose import loads numpy
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def dump(cli, workloads, out_dir: str, seed: int) -> int:
    """Run every command of ``seed`` into ``out_dir``; returns the number of
    commands."""
    count = 0
    for name in sorted(workloads.WORKLOADS):
        for index, problem in enumerate(workloads.generate(name, seed)):
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


def _leaves(doc, path: str = "") -> dict:
    """{path: value} of the scalars of a JSON document."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}" if path else key, value)
                 for key, value in doc.items()]
    elif isinstance(doc, list):
        items = [(f"{path}[{i}]", value) for i, value in enumerate(doc)]
    else:
        return {path: doc}
    return {leaf: value for key, item in items
            for leaf, value in _leaves(item, key).items()}


def _read(case: str, name: str):
    path = os.path.join(case, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh) if name.endswith(".json") else fh.read().strip()


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old_dir: str, new_dir: str) -> int:
    """Print how the outputs in ``new_dir`` differ from those in
    ``old_dir``; returns the number of commands with any changed file."""
    cases = sorted({os.path.join(name, index)
                    for root in (old_dir, new_dir)
                    for name in os.listdir(root)
                    for index in os.listdir(os.path.join(root, name))})
    changed, files, fields = 0, {}, {}
    for case in cases:
        old, new = (os.path.join(root, case) for root in (old_dir, new_dir))
        names = set()
        for d in (old, new):
            names.update(os.listdir(d) if os.path.isdir(d) else ())
        _, mismatch, errors = filecmp.cmpfiles(old, new, sorted(names),
                                               shallow=False)
        if not (mismatch or errors):
            continue
        changed += 1
        for name in mismatch + errors:
            files[name] = files.get(name, 0) + 1
        codes = [_read(d, "exit_code") for d in (old, new)]
        if codes[0] != codes[1]:
            print(f"exit code {case}: {codes[0]} -> {codes[1]}")
        before, after = (_leaves((_read(d, "report.json") or {})
                                 .get("data", {})) for d in (old, new))
        for path in before.keys() | after.keys():
            a, b = before.get(path), after.get(path)
            if a == b:
                continue
            rel = delta = math.inf
            if _number(a) and _number(b):
                delta = abs(b - a)
                rel = delta / abs(a) if a else math.inf
            field = re.sub(r"\[\d+\]", "[]", path)
            worst_rel, worst_delta, count = fields.get(field, (0.0, 0.0, 0))
            fields[field] = (max(worst_rel, rel), max(worst_delta, delta),
                             count + 1)
    print(f"{changed} of {len(cases)} commands changed")
    for name, count in sorted(files.items()):
        print(f"  {name}: changed in {count} commands")
    for field, (rel, delta, count) in sorted(fields.items()):
        if math.isinf(delta):
            print(f"  {field}: changed in {count} values")
        else:
            print(f"  {field}: largest relative change {rel:.2e}, largest "
                  f"absolute {delta:.2e}, in {count} values")
    return changed


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return 1 if compare(*argv[1:]) else 0
    seed = DEFAULT_SEED
    if len(argv) == 4 and argv[0] == "--seed" and argv[1].isdigit():
        seed, argv = int(argv[1]), argv[2:]
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
    print(f"{dump(cli, workloads, out_dir, seed)} commands of seed {seed} "
          f"written to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
