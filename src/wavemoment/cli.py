"""Command-line interface: analyze / synthesize / verify / sweep.

Configs are JSON; reports are JSON with all timing data segregated under a
separate key so the remainder is byte-identical across repeated runs.  Exit
codes: 0 success, 2 controllability conditions violated, 3 numerical failure
during synthesis or verification, 4 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import coupling, moments, spectrum, waveform
from .exceptions import (BadInput, BetaZero, CollisionInBlock,
                         ConditioningExceeded, GridTooCoarse, ModeOutOfRange,
                         NonConvergence, RepeatedEigenvalues, SingularSystem)
from .linalg import MAX_DENSE_DIM
from .tolerances import Tolerances, from_profile, profile_name

__all__ = ["ProblemConfig", "SweepSpec", "parse_config", "run", "main"]

EXIT_OK = 0
EXIT_CONDITIONS = 2
EXIT_NUMERICAL = 3
EXIT_BAD_INPUT = 4

METHODS = ("raw", "edd")
STATE_POINTS = 513
DEFAULT_SAMPLES = 2048
# The smallest hermit_rtol override.  The relative asymmetries it bounds, of
# the moments under the mirror and of the assembled S, are rounding: at most
# 1.6e-15 and 2.2e-16 over the benchmark's seed 7-9 commands, so a bound
# near them would fail inputs that are right, with an untyped ValueError.
MIN_HERMIT_RTOL = 1e-13

_NUMERICAL_ERRORS = (SingularSystem, ConditioningExceeded, BetaZero,
                     CollisionInBlock, GridTooCoarse, NonConvergence)


@dataclasses.dataclass
class SweepSpec:
    parameter: str  # "T" or "K"
    values: list


@dataclasses.dataclass
class ProblemConfig:
    a: np.ndarray
    b: np.ndarray
    duration: float
    k_max: int = 16
    method: str = "raw"
    target: moments.TargetSpec = dataclasses.field(
        default_factory=lambda: moments.TargetSpec({}, {}))
    samples: int = DEFAULT_SAMPLES
    tolerance_overrides: dict = dataclasses.field(default_factory=dict)
    sweep: SweepSpec | None = None

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _check_target_entry(raw, n_comp, label, errors):
    table = {}
    if not isinstance(raw, list):
        errors.append(f"target.{label} must be a list of [mode, coefficients]")
        return table
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], int) or isinstance(item[0], bool)):
            errors.append(f"target.{label} entries must be [int mode, [coefficients]]")
            continue
        mode, coefs = item
        if mode < 1:
            errors.append(f"target.{label}: mode {mode} must be >= 1")
            continue
        if (not isinstance(coefs, list) or len(coefs) != n_comp
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           and math.isfinite(c) for c in coefs)):
            errors.append(f"target.{label} mode {mode}: expected {n_comp} "
                          "finite numbers")
            continue
        if mode in table:
            errors.append(f"target.{label}: duplicate mode {mode}")
            continue
        table[mode] = [float(c) for c in coefs]
    return table


def _method_errors(method) -> list:
    """Why ``method`` cannot run: it is not one of METHODS."""
    return [] if method in METHODS else [f"method must be one of {METHODS}"]


def parse_config(source: str) -> ProblemConfig:
    """Parse a JSON config from a path or a literal JSON string.

    All validation problems are gathered and raised together as BadInput.
    """
    text = source
    if not source.lstrip().startswith("{"):
        if not os.path.exists(source):
            raise BadInput(f"config file not found: {source}")
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadInput(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadInput("config must be a JSON object")

    errors = []
    known = {"A", "b", "T", "K", "method", "target", "samples",
             "tolerances", "sweep"}
    for key in doc:
        if key not in known:
            errors.append(f"unknown config key {key!r}")

    def is_num(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool) \
            and math.isfinite(x)

    a_raw = doc.get("A")
    n_comp = 0
    a = np.zeros((0, 0))
    if (isinstance(a_raw, list) and a_raw
            and all(isinstance(r, list) and len(r) == len(a_raw)
                    and all(is_num(x) for x in r) for r in a_raw)):
        a = np.array(a_raw, dtype=float)
        n_comp = a.shape[0]
    else:
        errors.append("A must be a nonempty square matrix of finite numbers")
    if n_comp > MAX_DENSE_DIM:
        errors.append(f"A is {n_comp} x {n_comp}; at most {MAX_DENSE_DIM} x "
                      f"{MAX_DENSE_DIM} is supported")

    b_raw = doc.get("b")
    b = np.zeros(0)
    if isinstance(b_raw, list) and all(is_num(x) for x in b_raw):
        b = np.array(b_raw, dtype=float)
        if n_comp and b.shape != (n_comp,):
            errors.append(f"b must have {n_comp} entries to match A")
        elif not np.any(b):
            errors.append("b must not be identically zero")
    else:
        errors.append("b must be a list of finite numbers")

    duration = doc.get("T")
    if not (is_num(duration) and duration > 0):
        errors.append("T must be a positive number")
        duration = 1.0

    k_max = doc.get("K", 16)
    if not (isinstance(k_max, int) and not isinstance(k_max, bool) and k_max >= 1):
        errors.append("K must be an integer >= 1")
        k_max = 16

    method = doc.get("method", "raw")
    errors += _method_errors(method)

    target_raw = doc.get("target", {})
    z0, z1 = {}, {}
    if isinstance(target_raw, dict):
        for key in target_raw:
            if key not in ("z0", "z1"):
                errors.append(f"unknown target key {key!r}")
        if n_comp:
            z0 = _check_target_entry(target_raw.get("z0", []), n_comp, "z0", errors)
            z1 = _check_target_entry(target_raw.get("z1", []), n_comp, "z1", errors)
    else:
        errors.append("target must be an object with z0/z1 lists")
    top_mode = max(list(z0) + list(z1), default=0)
    # a K sweep never uses K: the sweep check bounds the swept values
    sweep_raw = doc.get("sweep")
    k_swept = isinstance(sweep_raw, dict) and sweep_raw.get("parameter") == "K"
    if top_mode > k_max and not k_swept:
        errors.append(f"K = {k_max} is below the largest target mode {top_mode}")

    samples = doc.get("samples", DEFAULT_SAMPLES)
    if not (isinstance(samples, int) and not isinstance(samples, bool)
            and samples >= 2):
        errors.append("samples must be an integer >= 2")
        samples = DEFAULT_SAMPLES

    tol_over = doc.get("tolerances", {})
    if isinstance(tol_over, dict):
        valid = {f.name for f in dataclasses.fields(Tolerances)}
        for key, val in tol_over.items():
            if key not in valid:
                errors.append(f"unknown tolerance {key!r}")
            elif not (is_num(val) and val > 0):
                errors.append(f"tolerance {key!r} must be a positive number")
            elif key == "hermit_rtol" and val < MIN_HERMIT_RTOL:
                errors.append(f"tolerance 'hermit_rtol' must be at least "
                              f"{MIN_HERMIT_RTOL:g}, above the rounding of "
                              "the symmetries it checks")
    else:
        errors.append("tolerances must be an object")
        tol_over = {}

    sweep = None
    if sweep_raw is not None:
        if (not isinstance(sweep_raw, dict)
                or sweep_raw.get("parameter") not in ("T", "K")
                or not isinstance(sweep_raw.get("values"), list)
                or not sweep_raw["values"]):
            errors.append('sweep must be {"parameter": "T"|"K", "values": [...]}')
        else:
            vals = sweep_raw["values"]
            if sweep_raw["parameter"] == "K":
                if not all(isinstance(v, int) and not isinstance(v, bool)
                           and v >= max(1, top_mode) for v in vals):
                    errors.append("sweep K values must be integers >= the "
                                  "largest target mode")
                else:
                    sweep = SweepSpec("K", [int(v) for v in vals])
            else:
                if not all(is_num(v) and v > 0 for v in vals):
                    errors.append("sweep T values must be positive numbers")
                else:
                    sweep = SweepSpec("T", [float(v) for v in vals])

    if errors:
        raise BadInput(errors)
    return ProblemConfig(
        a=a, b=b, duration=float(duration), k_max=k_max, method=method,
        target=moments.TargetSpec(z0, z1), samples=samples,
        tolerance_overrides={k: float(v) for k, v in tol_over.items()},
        sweep=sweep)


def _resolve_tolerances(config: ProblemConfig) -> tuple:
    """(profile name, its tolerances with the config's overrides)."""
    name = profile_name()
    tol = from_profile(name)
    if config.tolerance_overrides:
        tol = tol.replace(**config.tolerance_overrides)
    return name, tol


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _write_csv(path: str, header: list, rows):
    """A header line, then one line per row: a cell is "" for None, text as
    is, and a number to 17 significant digits (the sweep's rows; tables of
    numbers only take ``_write_table``)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(["" if v is None else v if isinstance(v, str)
                               else format(float(v), ".17g") for v in row])
                     + "\n")


def _write_table(path: str, header: list, table: np.ndarray):
    """``_write_csv`` of a 2-D float array, formatted in one pass: "%.17g"
    of a float is its format(v, ".17g"), so the bytes are the same."""
    rows, cols = table.shape
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((",".join(["%.17g"] * cols) + "\n") * rows
                 % tuple(table.ravel().tolist()))


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


_TERM = ('    {\n      "amplitude_im": %s,\n      "amplitude_re": %s,\n'
         '      "frequency_im": %s,\n      "frequency_re": %s\n    }')


def _write_terms(path: str, control):
    """control_modes.json, byte for byte ``_write_json`` of {"duration",
    "terms": [{"amplitude_im", "amplitude_re", "frequency_im",
    "frequency_re"}, ...]}, in that indented layout written out here: the
    numbers go, as one list, through the standard library's C encoder,
    which writes a float as float.__repr__ as the indented encoder does,
    and through ``_json_safe`` first when some are not finite (they become
    "nan", "inf", "-inf"; a finite float passes it unchanged)."""
    table = np.column_stack([control.amplitudes.imag, control.amplitudes.real,
                             control.frequencies.imag,
                             control.frequencies.real])
    cells = [float(control.duration)] + table.ravel().tolist()
    if not (np.isfinite(table).all() and math.isfinite(cells[0])):
        cells = _json_safe(cells)
    duration, *cells = json.dumps(cells)[1:-1].split(", ")
    terms = ",\n".join([_TERM] * control.frequencies.size) % tuple(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write('{\n  "duration": %s,\n  "terms": %s\n}\n'
                 % (duration, f"[\n{terms}\n  ]" if terms else "[]"))


def _write_control_files(out_dir: str, control, samples: int):
    t, values = control.sample(samples)
    _write_table(os.path.join(out_dir, "control.csv"), ["t", "f"],
                 np.column_stack([t, values.real]))
    _write_terms(os.path.join(out_dir, "control_modes.json"), control)


def _write_state_file(out_dir: str, modal, spec):
    x = np.linspace(0.0, math.pi, STATE_POINTS)
    u, ut = waveform.reconstruct(modal, spec, x)
    header = ["x"] + [f"{name}{j}" for name in ("u", "ut")
                      for j in range(1, u.shape[1] + 1)]
    _write_table(os.path.join(out_dir, "state.csv"), header,
                 np.column_stack([x, u.real, ut.real]))


def _system(config: ProblemConfig, spec, tol: Tolerances, kept=None):
    """Pipeline head and Gram system at ``config.k_max``: (grid, modal,
    gamma, ms).  A K sweep passes ``kept``, its list of at most one
    system: the system is read from the one it holds (assembled for the same
    T at a K at least as large), else its family is built and assembled
    here and the system appended to it."""
    grid = spectrum.build_frequencies(spec, config.k_max)
    modal = moments.target_to_modal(config.target, spec, grid)
    gamma = moments.moments_from_target(modal, spec, grid, config.duration,
                                        tol=tol)
    if kept:
        return grid, modal, gamma, kept[0].restrict(config.k_max)
    family = (spectrum.build_raw(grid) if config.method == "raw"
              else spectrum.build_edd(grid, tol=tol))
    ms = moments.assemble_gram(family, config.duration, tol)
    if kept is not None:
        kept.append(ms)
    return grid, modal, gamma, ms


def _sweep_point(config: ProblemConfig, spec, kept,
                 tol: Tolerances) -> dict:
    """A sweep point's row: its synthesis, then the verification of its
    control."""
    row = {"T": config.duration, "K": config.k_max, "status": "ok",
           "cond_estimate": None, "control_norm": None,
           "moment_residual": None, "max_rel_error": None, "error": None}
    try:
        grid, modal, gamma, ms = _system(config, spec, tol, kept)
        row["cond_estimate"] = ms.cond_estimate
        control = moments.synthesize(ms, gamma, tol=tol)
    except _NUMERICAL_ERRORS as exc:
        row["status"] = type(exc).__name__
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    del ms
    row["control_norm"] = control.l2_norm()
    row["moment_residual"] = control.moment_residual
    report = waveform.verify(spec, grid, control, modal, config.duration,
                             tol=tol)
    row["max_rel_error"] = report.max_rel_error
    if not report.passed:
        row["status"] = "verify_failed"
    return row


def run(command: str, config: ProblemConfig, out_dir: str | None = None,
        method: str | None = None, force: bool = False):
    """Execute one CLI command; returns (report dict, exit code).

    ``method`` overrides the config method.  ``force`` skips the
    controllability gate so that failure modes downstream stay observable;
    forced runs are outside the normal report guarantees.
    """
    if method is not None:
        if errors := _method_errors(method):
            raise BadInput(errors)
        config = dataclasses.replace(config, method=method)
    profile, tol = _resolve_tolerances(config)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    timings = {}
    # profile and resolved tolerances: a run reproduces from its report
    report = {"command": command, "method": config.method,
              "T": config.duration, "K": config.k_max, "forced": force,
              "profile": profile, "tolerances": dataclasses.asdict(tol)}
    started = time.perf_counter()

    def write(writer, *args):
        # output_s: the control, state and sweep files, samples included
        t0 = time.perf_counter()
        writer(*args)
        timings["output_s"] = (timings.get("output_s", 0.0)
                               + time.perf_counter() - t0)

    def finish(code: int) -> tuple:
        timings["total_s"] = time.perf_counter() - started
        out = {"data": report, "timings": timings}
        if out_dir is not None:
            _write_json(os.path.join(out_dir, "report.json"), out)
        return out, code

    try:
        system = coupling.CouplingSystem(config.a, config.b)
    except ValueError as exc:
        report["error"] = str(exc)
        return finish(EXIT_BAD_INPUT)

    try:
        spec = coupling.decompose(system, tol=tol)
        conditions = coupling.analyze(system, config.duration, tol=tol,
                                      spec=spec)
    except BadInput as exc:
        # an eigenvalue spread beyond the resonance search
        report["error"] = f"{type(exc).__name__}: {exc}"
        return finish(EXIT_BAD_INPUT)
    except (RepeatedEigenvalues, NonConvergence) as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return finish(EXIT_CONDITIONS if isinstance(exc, RepeatedEigenvalues)
                      else EXIT_NUMERICAL)
    report["conditions"] = _json_safe(dataclasses.asdict(conditions))

    if command == "analyze":
        return finish(EXIT_OK if conditions.overall_controllable
                      else EXIT_CONDITIONS)

    if command == "sweep":
        if config.sweep is None:
            raise BadInput("sweep command requires a sweep section in the config")
        key = "duration" if config.sweep.parameter == "T" else "k_max"
        points = [dataclasses.replace(config, **{key: value})
                  for value in config.sweep.values]
        # the points run from the largest K down; a K sweep builds its
        # family, assembles and factors once, at the first point that
        # assembles, and reads every later row's system from there: an EDD
        # family that builds at K builds at every smaller K, whose blocks
        # are among K's and whose collision tolerance coll_scale * (1 + K)
        # is smaller.  A T sweep holds one system at a time.  A point's
        # time (point_*_s) covers its synthesis and its verification.
        kept = [] if key == "k_max" else None
        rows = [None] * len(points)
        for i in sorted(range(len(points)), key=lambda i: -points[i].k_max):
            t0 = time.perf_counter()
            rows[i] = _sweep_point(points[i], spec, kept, tol)
            timings[f"point_{config.sweep.values[i]}_s"] = \
                time.perf_counter() - t0
        report["sweep"] = {"parameter": config.sweep.parameter,
                           "values": list(config.sweep.values), "rows": rows}
        if out_dir is not None:
            cols = ["T", "K", "cond_estimate", "control_norm",
                    "moment_residual", "max_rel_error", "status"]
            write(_write_csv, os.path.join(out_dir, "sweep.csv"), cols,
                  ([row[col] for col in cols] for row in rows))
        return finish(EXIT_OK)

    if command not in ("synthesize", "verify"):
        raise BadInput(f"unknown command {command!r}")

    if not conditions.overall_controllable and not force:
        report["error"] = "controllability conditions violated"
        return finish(EXIT_CONDITIONS)

    try:
        t0 = time.perf_counter()
        grid, modal, gamma, ms = _system(config, spec, tol)
        timings["setup_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        control = moments.synthesize(ms, gamma, tol=tol)
        timings["synthesis_s"] = time.perf_counter() - t0
    except ModeOutOfRange as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return finish(EXIT_BAD_INPUT)
    except _NUMERICAL_ERRORS as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        return finish(EXIT_NUMERICAL)

    report["synthesis"] = {
        "size": int(ms.gram.shape[0]),
        "cond_estimate": ms.cond_estimate,
        "control_norm": control.l2_norm(),
        "moment_residual": control.moment_residual,
        "realification_residual": control.realification_residual,
    }
    del ms  # the Gram and its factors end with synthesis
    if out_dir is not None:
        write(_write_control_files, out_dir, control, config.samples)

    if command == "synthesize":
        return finish(EXIT_OK)

    t0 = time.perf_counter()
    result = waveform.verify(spec, grid, control, modal, config.duration,
                             tol=tol)
    timings["verification_s"] = time.perf_counter() - t0
    report["verification"] = {
        "max_rel_error": result.max_rel_error,
        "passed": result.passed,
        "wellposedness_ratio": result.wellposedness_ratio,
    }
    if out_dir is not None:
        write(_write_state_file, out_dir, result.achieved, spec)
    return finish(EXIT_OK if result.passed else EXIT_NUMERICAL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wavemoment",
        description="Boundary control synthesis for coupled wave systems "
                    "via the moment method.")
    parser.add_argument("command", choices=["analyze", "synthesize",
                                            "verify", "sweep"])
    parser.add_argument("--config", required=True,
                        help="path to a JSON problem description")
    parser.add_argument("--out", default=None,
                        help="directory for report/control/state files")
    parser.add_argument("--method", choices=list(METHODS), default=None,
                        help="override the config synthesis method")
    parser.add_argument("--force", action="store_true",
                        help="attempt synthesis even when conditions fail")
    args = parser.parse_args(argv)

    try:
        config = parse_config(args.config)
        report, code = run(args.command, config, out_dir=args.out,
                           method=args.method, force=args.force)
    except BadInput as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(json.dumps(_json_safe(report), indent=2, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
