"""Outcome classification and output checks for benchmark commands.

Two separate questions are asked of every command:

* ``classify``: did the command end the way its problem class requires?
  A controllable problem must exit 0 with a passed verification (every
  sweep row ``ok`` for ``sweep``); an uncontrollable one must exit 2.  Any
  other exit code, and any exception escaping ``cli.run``, is a failure.
  Failures are counted, not hidden: they are the benchmark's ``failed``.
* ``check_outputs``: are the files the command wrote well formed and
  consistent with its exit code and with each other?  A problem here means
  the program produced wrong output, and the run reports ``correct: false``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from workloads import CONTROLLABLE, UNCONTROLLABLE

EXIT_OK = 0
EXIT_CONDITIONS = 2
EXIT_NUMERICAL = 3
STATE_POINTS = 513
SPOT_CHECKS = 16


def classify(expect: str, command: str, code, data, exc=None) -> tuple:
    """Return (ok, reason) for one command outcome.

    ``code`` and ``data`` are the exit code and the report's ``data`` block
    returned by ``cli.run``; ``exc`` is the exception it raised, if any.
    """
    if exc is not None:
        return False, f"exception {type(exc).__name__}: {exc}"
    if expect == UNCONTROLLABLE:
        if code == EXIT_CONDITIONS:
            return True, "uncontrollable, exit 2"
        return False, f"uncontrollable problem gave exit {code}"
    if expect != CONTROLLABLE:
        raise ValueError(f"unknown expectation {expect!r}")
    if code != EXIT_OK:
        return False, f"controllable problem gave exit {code}: " \
                      f"{data.get('error', 'verification failed')}"
    if command == "sweep":
        bad = [row["status"] for row in data["sweep"]["rows"]
               if row["status"] != "ok"]
        if bad:
            return False, f"sweep rows not ok: {sorted(set(bad))}"
        return True, "controllable, every sweep row ok"
    if not data.get("verification", {}).get("passed"):
        return False, "exit 0 without a passed verification"
    return True, "controllable, verification passed"


def _read_csv(path: str) -> tuple:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def _check_control(out_dir: str, samples: int, problems: list):
    header, rows = _read_csv(os.path.join(out_dir, "control.csv"))
    if header != ["t", "f"] or len(rows) != samples:
        problems.append(f"control.csv: header {header}, {len(rows)} rows, "
                        f"expected {samples}")
        return
    values = np.array(rows, dtype=float)
    if not np.all(np.isfinite(values)):
        problems.append("control.csv: non-finite values")
        return
    with open(os.path.join(out_dir, "control_modes.json"), encoding="utf-8") as fh:
        terms = json.load(fh)["terms"]
    if not terms:
        problems.append("control_modes.json: no terms")
        return
    freqs = np.array([t["frequency_re"] + 1j * t["frequency_im"] for t in terms])
    amps = np.array([t["amplitude_re"] + 1j * t["amplitude_im"] for t in terms])
    # the sampled control must be the real part of the stored combination
    pick = np.linspace(0, samples - 1, SPOT_CHECKS).astype(int)
    t = values[pick, 0]
    combo = np.exp(1j * np.multiply.outer(t, freqs)) @ amps
    scale = float(np.abs(amps).sum())
    worst = float(np.abs(combo.real - values[pick, 1]).max())
    if not worst <= 1e-9 * max(scale, 1.0):
        problems.append(f"control.csv differs from control_modes.json by {worst:.3e}")


def _check_state(out_dir: str, n: int, problems: list):
    header, rows = _read_csv(os.path.join(out_dir, "state.csv"))
    expected = ["x"] + [f"u{j}" for j in range(1, n + 1)] \
        + [f"ut{j}" for j in range(1, n + 1)]
    if header != expected or len(rows) != STATE_POINTS:
        problems.append(f"state.csv: header {header}, {len(rows)} rows")
    elif not np.all(np.isfinite(np.array(rows, dtype=float))):
        problems.append("state.csv: non-finite values")


def _check_sweep(out_dir: str, data: dict, problems: list):
    header, rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    statuses = [row[-1] for row in rows]
    expected = [row["status"] for row in data["sweep"]["rows"]]
    if header[-1] != "status" or statuses != expected:
        problems.append(f"sweep.csv statuses {statuses} differ from the "
                        f"report's {expected}")


def check_outputs(command: str, code, out_dir: str, config: dict) -> tuple:
    """Check the files of one finished command.

    Returns (problems, data_text): a list of inconsistencies (empty when the
    output is correct) and the canonical text of the written report's
    ``data`` block, which repeated runs of one config must reproduce byte
    for byte.
    """
    problems = []
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        data = report["data"]
        if data["command"] != command:
            problems.append(f"report command {data['command']!r}")
        if code == EXIT_CONDITIONS and data["conditions"]["overall_controllable"]:
            problems.append("exit 2 but the report says controllable")
        if code == EXIT_NUMERICAL and data.get("verification", {}).get("passed"):
            problems.append("exit 3 with a passed verification")
        written = set(os.listdir(out_dir))
        if code == EXIT_OK and command == "verify":
            if not data["verification"]["passed"]:
                problems.append("exit 0 with a failed verification")
            _check_control(out_dir, config.get("samples", 2048), problems)
            _check_state(out_dir, len(config["b"]), problems)
        elif code == EXIT_OK and command == "sweep":
            _check_sweep(out_dir, data, problems)
        elif code == EXIT_CONDITIONS and written != {"report.json"}:
            problems.append(f"exit 2 wrote {sorted(written)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        return problems, None
    return problems, json.dumps(data, sort_keys=True)

