import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from wavemoment import cli
from wavemoment.exceptions import BadInput
from wavemoment.linalg import MAX_DENSE_DIM
from wavemoment.tolerances import from_profile

import oracles

FOUR_PI = 4 * math.pi

A2_DOC = {
    "A": [[0.5, 0.0], [1.0, -0.3]],
    "b": [1.0, 0.0],
    "T": FOUR_PI,
    "K": 4,
    "target": {"z0": [[1, [1.0, 0.0]]], "z1": [[2, [0.0, 0.25]]]},
}

RESONANT_DOC = {
    "A": [[0.0, 0.0], [1.0, 3.0]],  # eigenvalue gap 3 = 2^2 - 1^2
    "b": [1.0, 0.0],
    "T": FOUR_PI,
    "K": 4,
    "target": {"z0": [[1, [1.0, 0.0]]]},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_minimal_defaults():
    config = cli.parse_config(json.dumps(
        {"A": [[0.0]], "b": [1.0], "T": 2 * math.pi}))
    assert config.n == 1
    assert config.k_max == 16
    assert config.method == "raw"
    assert config.samples == cli.DEFAULT_SAMPLES
    assert config.target.max_mode() == 0
    assert config.sweep is None
    assert config.tolerance_overrides == {}


def test_parse_fields():
    doc = dict(A2_DOC, method="edd", samples=512,
               tolerances={"cond_cap": 1e10},
               sweep={"parameter": "K", "values": [4, 8]})
    config = cli.parse_config(json.dumps(doc))
    assert np.array_equal(config.a, [[0.5, 0.0], [1.0, -0.3]])
    assert np.array_equal(config.b, [1.0, 0.0])
    assert config.duration == FOUR_PI
    assert config.k_max == 4
    assert config.method == "edd"
    assert config.samples == 512
    assert config.tolerance_overrides == {"cond_cap": 1e10}
    assert config.sweep == cli.SweepSpec("K", [4, 8])
    assert {n: v.tolist() for n, v in config.target.z0.items()} == \
        {1: [1.0, 0.0]}
    assert {n: v.tolist() for n, v in config.target.z1.items()} == \
        {2: [0.0, 0.25]}


def test_parse_collects_errors(capsys):
    doc = {
        "A": [[0.0, 1.0]],          # not square
        "b": "nope",                # not a list
        "K": 0,                     # below 1
        "method": "magic",          # unknown
        "samples": 1,               # too few
        "tolerances": {"bogus": 1.0, "cond_cap": -2.0},
        "extra": True,              # unknown key
    }
    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(doc))
    messages = "\n".join(err.value.errors)
    assert len(err.value.errors) >= 7
    for needle in ("square", "b must be", "T must be", "K must be",
                   "method", "samples", "bogus", "cond_cap", "extra"):
        assert needle in messages

    # an A beyond the dense eigensolver's limit is bad input, not a traceback
    n = MAX_DENSE_DIM + 1
    big = {"A": np.diag(np.arange(n) / n).tolist(), "b": [1.0] * n,
           "T": 2 * math.pi * n}
    message = "A is 33 x 33; at most 32 x 32 is supported"
    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(big))
    assert err.value.errors == [message]
    assert cli.main(["analyze", "--config", json.dumps(big)]) == \
        cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_target_validation():
    base = {"A": [[0.0]], "b": [1.0], "T": 6.0, "K": 2}
    bad = dict(base, target={"z0": [[1, [1.0]], [1, [2.0]], [0, [1.0]],
                                    [2, [1.0, 2.0]]],
                             "z1": "x", "z9": []})
    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(bad))
    messages = "\n".join(err.value.errors)
    assert "duplicate mode 1" in messages
    assert "mode 0 must be >= 1" in messages
    assert "expected 1 finite numbers" in messages
    assert "z1 must be a list" in messages
    assert "'z9'" in messages

    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(dict(base, target={"z0": [[5, [1.0]]]})))
    assert any("below the largest target mode" in m for m in err.value.errors)


def test_parse_sweep_validation():
    base = {"A": [[0.0]], "b": [1.0], "T": 6.0, "K": 4,
            "target": {"z0": [[3, [1.0]]]}}
    for sweep in ({"parameter": "X", "values": [1]},
                  {"parameter": "T", "values": []},
                  {"parameter": "T", "values": [2.0, -1.0]},
                  {"parameter": "K", "values": [2]}):  # below top mode 3
        with pytest.raises(BadInput):
            cli.parse_config(json.dumps(dict(base, sweep=sweep)))
    config = cli.parse_config(json.dumps(
        dict(base, sweep={"parameter": "T", "values": [6.0, 12.0]})))
    assert config.sweep.parameter == "T"
    assert config.sweep.values == [6.0, 12.0]


def test_parse_path_and_text(tmp_path):
    path = write_config(tmp_path, A2_DOC)
    from_path = cli.parse_config(path)
    from_text = cli.parse_config(json.dumps(A2_DOC))
    assert np.array_equal(from_path.a, from_text.a)
    with pytest.raises(BadInput):
        cli.parse_config(str(tmp_path / "missing.json"))
    with pytest.raises(BadInput):
        cli.parse_config("{not json")
    with pytest.raises(BadInput):
        cli.parse_config("[1, 2]")


def test_json_safe():
    doc = {"a": float("nan"), "b": [np.int64(2), float("inf"), -float("inf")],
           "c": np.float64(0.5)}
    assert cli._json_safe(doc) == {"a": "nan", "b": [2, "inf", "-inf"],
                                   "c": 0.5}


def test_csv_cell_contract(tmp_path):
    path = tmp_path / "rows.csv"
    cli._write_csv(str(path), ["a", "b", "c", "d"],
                   [[None, "ok", 3, 0.5],
                    [np.float64(1.0) / 3.0, -0.0, 0.1, None]])
    assert path.read_bytes() == (
        b"a,b,c,d\n"
        b",ok,3,0.5\n"
        b"0.33333333333333331,-0,0.10000000000000001,\n")


def test_analyze_exit_codes():
    good = cli.parse_config(json.dumps(A2_DOC))
    report, code = cli.run("analyze", good)
    assert code == cli.EXIT_OK
    assert report["data"]["conditions"]["overall_controllable"] is True
    assert report["data"]["conditions"]["kalman_rank"] == 2

    bad = cli.parse_config(json.dumps(RESONANT_DOC))
    report, code = cli.run("analyze", bad)
    assert code == cli.EXIT_CONDITIONS
    assert report["data"]["conditions"]["overall_controllable"] is False
    quads = [row[:4] for row in report["data"]["conditions"]["resonances"]]
    assert [2, 1, 2, 1] in quads

    short = cli.parse_config(json.dumps(dict(A2_DOC, T=2 * math.pi)))
    report, code = cli.run("analyze", short)
    assert code == cli.EXIT_CONDITIONS
    assert report["data"]["conditions"]["t_ok"] is False


def test_run_bad_system_shape():
    config = cli.parse_config(json.dumps(A2_DOC))
    import dataclasses
    broken = dataclasses.replace(config, b=np.array([1.0, 0.0, 0.0]))
    report, code = cli.run("analyze", broken)
    assert code == cli.EXIT_BAD_INPUT
    assert "error" in report["data"]


def test_run_eigenvalue_spread_beyond_resonance_search():
    # a gap of 1e19 = 2^19 5^19 is an integer, but beyond 2^53 no gap is
    # told from rounding; the run reports bad input instead of splitting it
    doc = dict(A2_DOC, A=[[0.0, 0.0], [1.0, 1e19]], b=[1.0, 0.0])
    report, code = cli.run("analyze", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_BAD_INPUT
    assert report["data"]["error"].startswith(
        "BadInput: eigenvalues 2 and 1 differ by 1e+19, above 2^53")


def test_run_mode_out_of_range():
    config = cli.parse_config(json.dumps(A2_DOC))
    import dataclasses
    broken = dataclasses.replace(config, k_max=1)
    report, code = cli.run("synthesize", broken)
    assert code == cli.EXIT_BAD_INPUT
    assert "ModeOutOfRange" in report["data"]["error"]


def test_synthesize_writes_files(tmp_path):
    config = cli.parse_config(json.dumps(dict(A2_DOC, samples=64)))
    out = str(tmp_path / "out")
    report, code = cli.run("synthesize", config, out_dir=out)
    assert code == cli.EXIT_OK
    assert report["data"]["method"] == "raw"
    assert report["data"]["synthesis"]["size"] == 16
    assert report["data"]["synthesis"]["moment_residual"] <= 1e-10

    lines = Path(out, "control.csv").read_text().splitlines()
    assert lines[0] == "t,f"
    assert len(lines) == 1 + 64
    assert lines[1].split(",")[0] == "0"
    last_t = float(lines[-1].split(",")[0])
    assert last_t == pytest.approx(FOUR_PI)

    modes = json.loads(Path(out, "control_modes.json").read_text())
    assert modes["duration"] == pytest.approx(FOUR_PI)
    assert len(modes["terms"]) == 16
    assert os.path.exists(os.path.join(out, "report.json"))
    assert not os.path.exists(os.path.join(out, "state.csv"))


def test_verify_writes_state(tmp_path):
    config = cli.parse_config(json.dumps(A2_DOC))
    out = str(tmp_path / "out")
    report, code = cli.run("verify", config, out_dir=out)
    assert code == cli.EXIT_OK
    assert report["data"]["verification"]["passed"] is True
    assert report["data"]["verification"]["max_rel_error"] <= 1e-8

    lines = Path(out, "state.csv").read_text().splitlines()
    assert lines[0] == "x,u1,u2,ut1,ut2"
    assert len(lines) == 1 + cli.STATE_POINTS
    # terminal displacement should match the target shape at the midpoint:
    # z0 = sin(x) phi-projected; check the file parses as floats
    mid = lines[1 + cli.STATE_POINTS // 2].split(",")
    assert len(mid) == 5
    assert float(mid[0]) == pytest.approx(math.pi / 2)


README_EDD_DOC = {
    "A": [[0.5, 0.0], [1.0, -0.3]],
    "b": [1.0, 0.0],
    "T": FOUR_PI,
    "K": 8,
    "method": "edd",
    "target": {"z0": [[1, [1.0, 0.0]], [2, [0.0, 1.0]]],
               "z1": [[1, [0.0, 1.0]]]},
}

# eigenvalues 0.1 +- 0.3i: no node is real, so the Gram system is R on [0, T]
PAIR_EDD_DOC = dict(README_EDD_DOC, A=[[0.1, 0.3], [-0.3, 0.1]])


def count_calls(monkeypatch, calls, module, name):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    calls[name] = 0
    monkeypatch.setattr(module, name, counted)


def test_verify_assembles_factors_and_evolves_once(tmp_path, monkeypatch):
    # the README system's spectrum is real: one assembly of the even and
    # odd halves, factored once each
    from wavemoment import coupling, linalg, moments, waveform

    calls = {}
    count_calls(monkeypatch, calls, coupling, "decompose")
    count_calls(monkeypatch, calls, linalg, "dpotrf")
    count_calls(monkeypatch, calls, moments, "combo_l2_norm")
    count_calls(monkeypatch, calls, waveform, "duhamel_exact")
    config = cli.parse_config(json.dumps(README_EDD_DOC))
    report, code = cli.run("verify", config, out_dir=str(tmp_path))
    assert code == cli.EXIT_OK
    assert report["data"]["verification"]["passed"] is True
    assert (tmp_path / "state.csv").exists()
    assert calls == {"decompose": 1, "dpotrf": 2, "combo_l2_norm": 0,
                     "duhamel_exact": 1}


def test_k_sweep_assembles_factors_and_decomposes_once(monkeypatch):
    # every row reads its system, EDD family included, from the one
    # assembly at the largest K, which computes no moments of its own
    from wavemoment import coupling, linalg, moments, spectrum

    calls = {}
    count_calls(monkeypatch, calls, coupling, "decompose")
    count_calls(monkeypatch, calls, spectrum, "build_edd")
    count_calls(monkeypatch, calls, moments, "assemble_gram")
    count_calls(monkeypatch, calls, moments, "target_to_modal")
    count_calls(monkeypatch, calls, moments, "moments_from_target")
    count_calls(monkeypatch, calls, linalg, "dpotrf")
    doc = dict(README_EDD_DOC, sweep={"parameter": "K", "values": [4, 16, 8]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    rows = report["data"]["sweep"]["rows"]
    assert [row["status"] for row in rows] == ["ok"] * 3
    # (the even and odd halves of the README system's real spectrum)
    assert calls == {"decompose": 1, "build_edd": 1, "assemble_gram": 1,
                     "target_to_modal": 3, "moments_from_target": 3,
                     "dpotrf": 2}


def sweep_calls(monkeypatch, doc):
    """(rows, timings, calls) of a sweep, counting its evolutions and
    verifications."""
    from wavemoment import waveform

    calls = {}
    count_calls(monkeypatch, calls, waveform, "duhamel_exact")
    count_calls(monkeypatch, calls, waveform, "verify")
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    monkeypatch.undo()
    assert code == cli.EXIT_OK
    return report["data"]["sweep"]["rows"], report["timings"], calls


def test_k_sweep_evolves_once_and_verifies_each_point(monkeypatch):
    doc = dict(README_EDD_DOC, sweep={"parameter": "K", "values": [4, 16, 8]})
    rows, timings, calls = sweep_calls(monkeypatch, doc)
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert calls == {"duhamel_exact": 3, "verify": 3}
    # a point's time covers its synthesis and its verification
    assert {key for key in timings if key.startswith("point_")} == \
        {"point_4_s", "point_16_s", "point_8_s"}
    assert "verification_s" not in timings


def test_k_sweep_rows_are_unchanged_when_the_top_point_fails(monkeypatch):
    # raw basis: the condition estimate is 1.2e3 at K = 16 and 3.2e2 at
    # K = 8, so the top point fails synthesis and is not verified
    doc = dict(A2_DOC, method="raw", tolerances={"cond_cap": 1e3},
               sweep={"parameter": "K", "values": [4, 16, 8]})
    rows, _, calls = sweep_calls(monkeypatch, doc)
    assert [row["status"] for row in rows] == \
        ["ok", "ConditioningExceeded", "ok"]
    assert calls == {"duhamel_exact": 2, "verify": 2}


def test_t_sweep_evolves_each_point_once(monkeypatch):
    doc = dict(README_EDD_DOC, sweep={
        "parameter": "T", "values": [FOUR_PI, FOUR_PI + 1.0, FOUR_PI]})
    rows, _, calls = sweep_calls(monkeypatch, doc)
    assert [row["status"] for row in rows] == ["ok"] * 3
    assert calls == {"duhamel_exact": 3, "verify": 3}


def assert_row_is_verify(row, doc):
    """A sweep row carries the numbers of ``verify`` on its point."""
    report, code = cli.run("verify", cli.parse_config(json.dumps(
        dict(doc, T=row["T"], K=row["K"]))))
    synthesis = report["data"]["synthesis"]
    for key in ("cond_estimate", "control_norm", "moment_residual"):
        assert row[key] == synthesis[key]
    assert row["max_rel_error"] == \
        report["data"]["verification"]["max_rel_error"]
    assert (row["status"] == "ok") == (code == cli.EXIT_OK)


def test_sweep_rows_are_the_numbers_of_verify():
    doc = dict(README_EDD_DOC, sweep={
        "parameter": "T", "values": [FOUR_PI, FOUR_PI + 1.0]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    for row in report["data"]["sweep"]["rows"]:
        assert_row_is_verify(row, README_EDD_DOC)
    # the top row of a K sweep assembles; the smaller K read a restricted
    # factor, whose 1-norm is summed another way
    doc = dict(README_EDD_DOC, sweep={"parameter": "K", "values": [4, 16, 8]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert_row_is_verify(report["data"]["sweep"]["rows"][1], README_EDD_DOC)


def test_k_sweep_checks_its_values_not_k_against_the_target():
    # K defaults to 16, below the target's mode 20, and a K sweep never
    # uses it
    doc = dict(README_EDD_DOC, target={"z0": [[20, [1.0, 0.0]]]},
               sweep={"parameter": "K", "values": [24, 32]})
    del doc["K"]
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert report["data"]["K"] == 16
    rows = report["data"]["sweep"]["rows"]
    assert [(row["K"], row["status"]) for row in rows] == \
        [(24, "ok"), (32, "ok")]
    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(
            dict(doc, sweep={"parameter": "K", "values": [16, 32]})))
    assert err.value.errors == [
        "sweep K values must be integers >= the largest target mode"]


def test_series_switch_override_does_not_reach_verify():
    # the complex-pair system's Gram R takes the second-order series up to
    # |Delta| = 0.05 and misses the target; the evolution that checks the
    # control keeps its own switch.  The README system's real spectrum is
    # centred, whose kernel has no series: the override changes nothing
    doc = dict(PAIR_EDD_DOC, target={"z0": [[1, [1.0, 0.5]]]},
               tolerances={"series_switch": 0.05})
    report, code = cli.run("verify", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_NUMERICAL
    assert report["data"]["verification"]["max_rel_error"] > 1e-3
    runs = [cli.run("verify", cli.parse_config(json.dumps(dict(
        README_EDD_DOC, target={"z0": [[1, [1.0, 0.5]]]}, **extra))))
        for extra in ({}, {"tolerances": {"series_switch": 0.05}})]
    assert [code for _, code in runs] == [cli.EXIT_OK] * 2
    assert runs[0][0]["data"]["synthesis"] == runs[1][0]["data"]["synthesis"]


def test_hermit_rtol_below_rounding_is_bad_input(tmp_path, capsys):
    path = write_config(tmp_path, dict(README_EDD_DOC,
                                       tolerances={"hermit_rtol": 1e-17}))
    assert cli.main(["verify", "--config", path]) == cli.EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: tolerance 'hermit_rtol' must be at least")
    assert "Traceback" not in err
    cli.parse_config(json.dumps(dict(README_EDD_DOC, tolerances={
        "hermit_rtol": cli.MIN_HERMIT_RTOL})))


N3_EDD_DOC = {
    "A": [[0.5, 0.0, 0.0], [1.0, -0.3, 0.0], [0.0, 1.0, 1.7]],
    "b": [1.0, 0.0, 0.0],
    "T": 6 * math.pi + 1.0,
    "K": 4,
    "method": "edd",
    "target": {"z0": [[1, [1.0, 0.0, 0.5]]], "z1": [[2, [0.0, 0.25, 0.0]]]},
}


def assert_row_matches_single_k(row, doc, force=False):
    report, code = cli.run("verify", cli.parse_config(json.dumps(
        dict(doc, K=row["K"]))), force=force)
    data = report["data"]
    assert (row["status"], code) == ("ok", cli.EXIT_OK)
    assert row["cond_estimate"] == pytest.approx(
        data["synthesis"]["cond_estimate"], rel=1e-10, abs=0)
    assert row["control_norm"] == pytest.approx(
        data["synthesis"]["control_norm"], rel=1e-10, abs=0)
    # the terminal error itself is at rounding level (about 1e-14 here),
    # so its agreement is absolute
    assert row["max_rel_error"] == pytest.approx(
        data["verification"]["max_rel_error"], rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("doc", [A2_DOC, N3_EDD_DOC], ids=["raw", "edd-n3"])
def test_k_sweep_rows_match_single_k_commands(doc):
    # every row is read from the K = 16 assembly and its Cholesky factor
    sweep = dict(doc, sweep={"parameter": "K", "values": [4, 8, 16]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(sweep)))
    assert code == cli.EXIT_OK
    for row in report["data"]["sweep"]["rows"]:
        assert_row_matches_single_k(row, doc)


# eigenvalue gap 5e-5: the in-block frequency gap at k = 64 (about 4e-7) is
# below that K's collision threshold 1e-8 * (1 + 64), the gaps at k <= 8 are
# above 1e-8 * (1 + 8)
COLLIDING_TOP_DOC = dict(A2_DOC, A=[[0.5, 0.0], [1.0, 0.50005]], method="edd",
                         target={"z0": [[1, [1.0, 0.0]]]},
                         sweep={"parameter": "K", "values": [4, 64, 8]})


def test_k_sweep_keeps_rows_below_a_colliding_top():
    # the lower rows share an assembly at K = 8, as they did when each
    # assembled its own
    report, code = cli.run("sweep",
                           cli.parse_config(json.dumps(COLLIDING_TOP_DOC)))
    assert code == cli.EXIT_OK
    rows = report["data"]["sweep"]["rows"]
    assert [row["status"] for row in rows] == ["ok", "CollisionInBlock", "ok"]
    assert rows[1]["cond_estimate"] is None


def test_k_sweep_builds_a_colliding_top_family_once(monkeypatch):
    # the K = 64 row builds the family that fails, the K = 8 row the one
    # that K = 4 reads
    from wavemoment import spectrum

    calls = {}
    count_calls(monkeypatch, calls, spectrum, "build_edd")
    report, code = cli.run("sweep",
                           cli.parse_config(json.dumps(COLLIDING_TOP_DOC)))
    assert code == cli.EXIT_OK
    assert calls == {"build_edd": 2}


def test_k_sweep_keeps_rows_below_a_colliding_complex_top(monkeypatch):
    # the same collision on the complex pair 0.5 +- 2.5e-5i, whose Gram
    # system stays R on [0, T] where the real pair's is centred
    from wavemoment import spectrum

    calls = {}
    count_calls(monkeypatch, calls, spectrum, "build_edd")
    doc = dict(COLLIDING_TOP_DOC, A=[[0.5, 2.5e-5], [-2.5e-5, 0.5]])
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    rows = report["data"]["sweep"]["rows"]
    assert [row["status"] for row in rows] == ["ok", "CollisionInBlock", "ok"]
    assert calls == {"build_edd": 2}


def test_k_sweep_row_below_a_failed_cholesky_is_intact(monkeypatch):
    # omega_{1,2} = omega_{2,1} = 2: in |k| order the Cholesky factors of
    # the K = 2 assembly break down past the unknowns of K = 1, whose row
    # is read from the factors' leading blocks
    from wavemoment import moments

    factors = []
    original = moments.factor_hermitian

    def keep(*args, **kwargs):
        factors.append(original(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(moments, "factor_hermitian", keep)
    doc = dict(RESONANT_DOC, sweep={"parameter": "K", "values": [1, 2]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    monkeypatch.undo()
    assert code == cli.EXIT_OK
    # the spectrum is real: the even and odd halves, KN = 2 unknowns each
    # at K = 1, each break down at column 3
    assert len(factors) == 2
    for factor in factors:
        pivots = np.abs(np.diag(factor.lu))
        assert np.all(pivots[:2] > 0) and np.all(pivots[2:] == 0)
    rows = report["data"]["sweep"]["rows"]
    assert rows[1]["status"] == "SingularSystem"
    # the resonance fails the controllability gate, hence the forced command
    assert_row_matches_single_k(rows[0], RESONANT_DOC, force=True)


def test_t_sweep_holds_one_gram_system_at_a_time():
    # R and the factor take 8 m^2 bytes each (m = 2KN = 512); a row whose
    # system outlived it into the next row's assembly would about double
    # the peak
    import tracemalloc

    doc = dict(README_EDD_DOC, K=128, method="raw", sweep={
        "parameter": "T", "values": [FOUR_PI, FOUR_PI + 1.0, 5 * math.pi]})
    config = cli.parse_config(json.dumps(doc))
    tracemalloc.start()
    try:
        report, code = cli.run("sweep", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_OK
    assert [row["status"] for row in report["data"]["sweep"]["rows"]] == \
        ["ok"] * 3
    assert peak <= 3.25 * 8 * 512 ** 2


@pytest.mark.parametrize("method", ["edd", "raw"])
def test_t_sweep_rows_with_normless_basis_functions(method):
    # at T = 1e-9 and 1e-4 some basis function's squared norm rounds to
    # zero or below: a typed row, not a square root of it
    doc = dict(README_EDD_DOC, method=method, sweep={
        "parameter": "T", "values": [1e-9, 1e-4, 13.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    rows = report["data"]["sweep"]["rows"]
    assert [row["status"] for row in rows] == \
        ["SingularSystem", "SingularSystem", "ok"]


def test_forced_verify_with_a_normless_basis_function(tmp_path):
    path = write_config(tmp_path, dict(README_EDD_DOC, T=1e-4))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["verify", "--config", path, "--out", str(out),
                         "--force"])
    assert code == cli.EXIT_NUMERICAL
    error = json.loads((out / "report.json").read_text())["data"]["error"]
    assert error.startswith("SingularSystem: squared norm")


# complex frequencies: a complex eigenvalue pair and an eigenvalue below -1
NONREAL_DOCS = {
    "pair-raw": dict(A2_DOC, A=[[0.2, 0.7], [-0.7, 0.2]], K=8),
    "pair-edd": dict(A2_DOC, A=[[0.2, 0.7], [-0.7, 0.2]], K=8, method="edd"),
    "below-minus-one": {"A": [[-1.5]], "b": [1.0], "T": 2 * math.pi, "K": 8,
                        "target": {"z0": [[1, [1.0]]], "z1": [[2, [0.5]]]}},
}


@pytest.mark.parametrize("doc", NONREAL_DOCS.values(), ids=NONREAL_DOCS)
def test_control_reaches_target_for_nonreal_frequencies(doc):
    # the moment functionals' Riesz representers are e^{i conj(w) t}; a
    # family built on e^{i w t} misses these targets by about 1e3
    report, code = cli.run("verify", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert report["data"]["verification"]["max_rel_error"] <= 1e-12


# lambda_1 = -2.24 < -1: the k = 1 state amplifies moment errors by
# e^{T sqrt(-1 - lambda_1)} = 2.9e9, so double rounding of the amplitudes
# alone missed the target by 2.5e-6 (raw), and with the growing node first
# every EDD function of its block was singular
GROWING_DOC = {"A": [[-2.239541, 0.0, 0.0], [1.0, 0.562783, 0.0],
                     [0.0, 1.0, 0.997996]],
               "b": [1.0, 0.0, 0.0], "T": 19.563415613241176, "K": 16,
               "target": {"z0": [[1, [-0.479126, 0.537645, 0.290559]]],
                          "z1": [[1, [0.832854, -0.349868, 0.834267]]]}}


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is double on this platform")
@pytest.mark.parametrize("method", ["raw", "edd"])
def test_control_reaches_target_through_growing_mode(method):
    doc = dict(GROWING_DOC, method=method)
    report, code = cli.run("verify", cli.parse_config(json.dumps(doc)))
    assert code == cli.EXIT_OK
    assert report["data"]["verification"]["max_rel_error"] <= 1e-8


def test_control_samples_do_not_depend_on_row_blocks(tmp_path, monkeypatch):
    from wavemoment import _kernels
    from wavemoment.moments import ControlSignal

    rng = np.random.default_rng(3)
    freqs = rng.standard_normal(64) * 20 + 0.1j * rng.standard_normal(64)
    amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    control = ControlSignal(FOUR_PI, freqs, amps)
    t = np.linspace(0.0, FOUR_PI, 1001)
    values = control.evaluate(t)
    assert all(control.evaluate(t[i:i + 1])[0] == values[i]
               and control.evaluate(t[i]) == values[i] for i in range(1001))
    _, sampled = control.sample(1001)
    assert np.all(np.abs(sampled - values)
                  <= oracles.sample_rounding_bound(control, t))
    written = []
    # 1001 samples in 32 blocks of 32 points (the last of 9), one lead row
    # per block: the samples take no row blocks, so the file is the same
    # bits whatever BLOCK_ELEMENTS the other stages run at (all 32 lead
    # rows' worth, 1, 2, 7 and 30 rows' worth, and the default)
    for block in (10 ** 9, 64, 2 * 64, 7 * 64, 30 * 64, None):
        if block is not None:
            monkeypatch.setattr(_kernels, "BLOCK_ELEMENTS", block)
        else:
            monkeypatch.undo()
        out = tmp_path / str(block)
        out.mkdir()
        cli._write_control_files(str(out), control, 1001)
        written.append((out / "control.csv").read_bytes())
    assert len(written[0].splitlines()) == 1002
    assert all(w == written[0] for w in written)


def test_table_writer_matches_the_cell_writer(tmp_path, monkeypatch):
    # control.csv and state.csv are formatted in one pass, byte for byte as
    # the per-cell writer formats the same numbers
    rng = np.random.default_rng(5)
    table = np.concatenate([
        rng.integers(0, 2 ** 64, size=3000, dtype=np.uint64).view(float),
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1]])
    table = table.reshape(-1, 2)
    cli._write_table(str(tmp_path / "one.csv"), ["a", "b"], table)
    cli._write_csv(str(tmp_path / "cells.csv"), ["a", "b"], table.tolist())
    assert (tmp_path / "one.csv").read_bytes() \
        == (tmp_path / "cells.csv").read_bytes()

    config = cli.parse_config(json.dumps(README_EDD_DOC))
    outs = [str(tmp_path / name) for name in ("one", "cells")]
    assert cli.run("verify", config, out_dir=outs[0])[1] == cli.EXIT_OK
    monkeypatch.setattr(cli, "_write_table", lambda path, header, table:
                        cli._write_csv(path, header, table.tolist()))
    assert cli.run("verify", config, out_dir=outs[1])[1] == cli.EXIT_OK
    for name in ("control.csv", "state.csv"):
        assert Path(outs[0], name).read_bytes() \
            == Path(outs[1], name).read_bytes()


def terms_doc(control) -> bytes:
    """control_modes.json as the indented standard encoder writes it."""
    doc = {"duration": control.duration, "terms": [
        {"frequency_re": float(nu.real), "frequency_im": float(nu.imag),
         "amplitude_re": float(am.real), "amplitude_im": float(am.imag)}
        for nu, am in zip(control.frequencies, control.amplitudes)]}
    return (json.dumps(cli._json_safe(doc), indent=2, sort_keys=True)
            + "\n").encode()


LARGE_EDD_DOC = {
    "A": [[0.5, 0.0, 0.0, 0.0], [1.0, -0.3, 0.0, 0.0],
          [0.0, 1.0, 1.7, 0.0], [0.0, 0.0, 1.0, 2.9]],
    "b": [1.0, 0.0, 0.0, 0.0], "T": 8.0 * math.pi + 1.0, "K": 256,
    "method": "edd", "samples": 64,
    "target": {"z0": [[1, [-0.74286, -0.001444, 0.202997, -0.942622]],
                      [2, [0.856422, -0.859159, -0.740452, 0.896657]]],
               "z1": [[1, [0.02278, 0.325686, -0.449382, -0.724064]]]},
}


def test_terms_writer_matches_json_dump(tmp_path):
    from wavemoment.moments import ControlSignal

    # the N = 4, K = 256 EDD control (2048 terms), read back exactly
    out = tmp_path / "large"
    config = cli.parse_config(json.dumps(LARGE_EDD_DOC))
    assert cli.run("synthesize", config, out_dir=str(out))[1] == cli.EXIT_OK
    doc = json.loads((out / "control_modes.json").read_text())
    large = ControlSignal(
        doc["duration"],
        [complex(t["frequency_re"], t["frequency_im"]) for t in doc["terms"]],
        [complex(t["amplitude_re"], t["amplitude_im"]) for t in doc["terms"]])
    assert large.frequencies.size == 2048
    assert (out / "control_modes.json").read_bytes() == terms_doc(large)
    nonfinite = ControlSignal(
        np.float64(2.5), [1.0, -1.0, 2.0 + 1j, -0.0],
        [math.nan, complex(math.inf, -math.inf), complex(-0.0, math.nan),
         -0.0])
    for control in (large, nonfinite, ControlSignal(1.0, [-0.0], [3.0]),
                    ControlSignal(FOUR_PI, [], [])):
        path = tmp_path / "control_modes.json"
        cli._write_terms(str(path), control)
        assert path.read_bytes() == terms_doc(control)
    assert b'"amplitude_re": "nan"' in terms_doc(nonfinite)


def test_terms_writer_walks_the_cells_only_when_some_are_not_finite(
        tmp_path, monkeypatch):
    from wavemoment.moments import ControlSignal

    walked = []
    json_safe = cli._json_safe
    monkeypatch.setattr(cli, "_json_safe",
                        lambda value: walked.append(1) or json_safe(value))
    path = tmp_path / "control_modes.json"
    cli._write_terms(str(path), ControlSignal(FOUR_PI, [1.0, -1.0],
                                              [0.5 + 1j, 0.5 - 1j]))
    assert walked == []
    cli._write_terms(str(path), ControlSignal(FOUR_PI, [1.0, -1.0],
                                              [math.nan, math.inf]))
    assert walked
    text = path.read_text()
    assert '"amplitude_re": "nan"' in text and '"amplitude_re": "inf"' in text


# numpy warns of the nan products; the writers must write them, not raise
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_writers_take_nonfinite_amplitudes(tmp_path, monkeypatch):
    from wavemoment import moments

    synthesize = moments.synthesize

    def broken(*args, **kwargs):
        control = synthesize(*args, **kwargs)
        control.amplitudes[:3] = [math.nan, math.inf, -math.inf]
        return control

    monkeypatch.setattr(moments, "synthesize", broken)
    out = tmp_path / "out"
    report, code = cli.run("verify", cli.parse_config(json.dumps(A2_DOC)),
                           out_dir=str(out))
    assert code == cli.EXIT_NUMERICAL
    assert "nan" in (out / "control.csv").read_text()
    assert '"amplitude_re": "inf"' in (out / "control_modes.json").read_text()
    assert (out / "state.csv").exists()


def test_output_time_is_reported_with_files_only(tmp_path):
    config = cli.parse_config(json.dumps(A2_DOC))
    report, code = cli.run("verify", config, out_dir=str(tmp_path / "out"))
    assert code == cli.EXIT_OK
    assert report["timings"]["output_s"] > 0.0
    report, code = cli.run("verify", config)
    assert code == cli.EXIT_OK
    assert "output_s" not in report["timings"]


def test_conditions_gate_blocks_synthesis(tmp_path):
    config = cli.parse_config(json.dumps(RESONANT_DOC))
    out = str(tmp_path / "out")
    report, code = cli.run("synthesize", config, out_dir=out)
    assert code == cli.EXIT_CONDITIONS
    assert report["data"]["error"] == "controllability conditions violated"
    assert not os.path.exists(os.path.join(out, "control.csv"))
    assert os.path.exists(os.path.join(out, "report.json"))


def test_force_reaches_numerical_failure():
    config = cli.parse_config(json.dumps(RESONANT_DOC))
    report, code = cli.run("synthesize", config, force=True)
    assert code == cli.EXIT_NUMERICAL
    assert report["data"]["forced"] is True
    assert "SingularSystem" in report["data"]["error"]


def test_method_override(tmp_path, capsys):
    config = cli.parse_config(json.dumps(A2_DOC))
    report, code = cli.run("synthesize", config, method="edd")
    assert code == cli.EXIT_OK
    assert report["data"]["method"] == "edd"
    with pytest.raises(BadInput):
        cli.run("synthesize", config, method="fastest")
    with pytest.raises(BadInput):
        cli.run("transmogrify", config)
    # n2_sharp is gone: a config naming it and the override both exit 4
    reason = "method must be one of ('raw', 'edd')"
    with pytest.raises(BadInput) as err:
        cli.parse_config(json.dumps(dict(A2_DOC, method="n2_sharp")))
    assert err.value.errors == [reason]
    with pytest.raises(BadInput) as err:
        cli.run("verify", config, method="n2_sharp")
    assert err.value.errors == [reason]
    path = write_config(tmp_path, dict(A2_DOC, method="n2_sharp"))
    assert cli.main(["verify", "--config", path]) == cli.EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_deterministic_outputs(tmp_path):
    config = cli.parse_config(json.dumps(dict(A2_DOC, samples=128)))
    outs = []
    for name in ("one", "two"):
        out = str(tmp_path / name)
        report, code = cli.run("verify", config, out_dir=out)
        assert code == cli.EXIT_OK
        outs.append(out)
    for fname in ("control.csv", "control_modes.json", "state.csv"):
        first = Path(outs[0], fname).read_bytes()
        second = Path(outs[1], fname).read_bytes()
        assert first == second
    reports = [json.loads(Path(o, "report.json").read_text())
               for o in outs]
    assert json.dumps(reports[0]["data"], sort_keys=True) == \
        json.dumps(reports[1]["data"], sort_keys=True)
    assert "timings" in reports[0]


def test_sweep_outputs(tmp_path):
    doc = dict(A2_DOC, sweep={"parameter": "K", "values": [4, 8]})
    config = cli.parse_config(json.dumps(doc))
    out = str(tmp_path / "out")
    report, code = cli.run("sweep", config, out_dir=out)
    assert code == cli.EXIT_OK
    rows = report["data"]["sweep"]["rows"]
    assert [row["K"] for row in rows] == [4, 8]
    assert all(row["status"] == "ok" for row in rows)
    assert rows[0]["cond_estimate"] <= rows[1]["cond_estimate"]

    lines = Path(out, "sweep.csv").read_text().splitlines()
    assert lines[0] == "T,K,cond_estimate,control_norm,moment_residual," \
        "max_rel_error,status"
    assert len(lines) == 3
    assert lines[1].endswith(",ok")

    # a resonant point reports its failure instead of aborting the sweep
    doc = dict(RESONANT_DOC, sweep={"parameter": "K", "values": [1, 2]})
    config = cli.parse_config(json.dumps(doc))
    report, code = cli.run("sweep", config)
    assert code == cli.EXIT_OK
    statuses = [row["status"] for row in report["data"]["sweep"]["rows"]]
    assert statuses[0] == "ok"          # truncation below the resonant pair
    assert statuses[1] == "SingularSystem"

    plain = cli.parse_config(json.dumps(A2_DOC))
    with pytest.raises(BadInput):
        cli.run("sweep", plain)


def test_sweep_rows_keep_the_error_message(tmp_path):
    # T = 2 is below 2 pi N: the family is dependent and the row fails;
    # report data keeps the message, sweep.csv keeps its seven columns
    doc = dict(A2_DOC, sweep={"parameter": "T", "values": [2.0, FOUR_PI]})
    report, code = cli.run("sweep", cli.parse_config(json.dumps(doc)),
                           out_dir=str(tmp_path))
    assert code == cli.EXIT_OK
    failed, ok = report["data"]["sweep"]["rows"]
    assert failed["status"] == "SingularSystem"
    assert failed["error"].startswith("SingularSystem: pivot ")
    assert (ok["status"], ok["error"]) == ("ok", None)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert [len(line.split(",")) for line in lines] == [7, 7, 7]
    assert lines[1].endswith(",SingularSystem")


def test_main_analyze(tmp_path, capsys):
    path = write_config(tmp_path, A2_DOC)
    code = cli.main(["analyze", "--config", path])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["data"]["command"] == "analyze"

    code = cli.main(["analyze", "--config", "{broken"])
    assert code == cli.EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        cli.main(["analyze", "--config", path, "--seed", "1"])


def test_main_synthesize_with_flags(tmp_path, capsys):
    path = write_config(tmp_path, RESONANT_DOC)
    out = str(tmp_path / "forced")
    code = cli.main(["synthesize", "--config", path, "--out", out,
                     "--method", "raw", "--force"])
    assert code == cli.EXIT_NUMERICAL
    printed = json.loads(capsys.readouterr().out)
    assert printed["data"]["forced"] is True
    assert os.path.exists(os.path.join(out, "report.json"))


def test_profile_environment(monkeypatch):
    monkeypatch.setenv("WAVEMOMENT_PROFILE", "strict")
    assert from_profile().cond_cap == pytest.approx(1e10)
    config = cli.parse_config(json.dumps(A2_DOC))
    _, code = cli.run("analyze", config)
    assert code == cli.EXIT_OK

    monkeypatch.setenv("WAVEMOMENT_PROFILE", "warp9")
    with pytest.raises(BadInput):
        cli.run("synthesize", config)
    monkeypatch.delenv("WAVEMOMENT_PROFILE")
    assert from_profile().cond_cap == pytest.approx(1e12)

def test_report_carries_profile_and_tolerances(tmp_path, monkeypatch):
    # a run reproduces from its report: the profile WAVEMOMENT_PROFILE
    # selects and every resolved tolerance, overrides included, are in data,
    # which stays byte-identical across runs
    import dataclasses

    from wavemoment.tolerances import Tolerances

    monkeypatch.setenv("WAVEMOMENT_PROFILE", "strict")
    config = cli.parse_config(json.dumps(dict(A2_DOC,
                                              tolerances={"cond_cap": 1e9})))
    texts = []
    for name in ("one", "two"):
        report, code = cli.run("verify", config, out_dir=str(tmp_path / name))
        assert code == cli.EXIT_OK
        texts.append((tmp_path / name / "report.json").read_text())
    data = json.loads(texts[0])["data"]
    assert data["profile"] == "strict"
    want = dataclasses.asdict(from_profile("strict").replace(cond_cap=1e9))
    assert data["tolerances"] == want
    assert set(want) == {f.name for f in dataclasses.fields(Tolerances)}
    assert [json.dumps(json.loads(t)["data"], sort_keys=True)
            for t in texts] == [json.dumps(data, sort_keys=True)] * 2
    monkeypatch.delenv("WAVEMOMENT_PROFILE")
    report, _ = cli.run("analyze", config)
    assert report["data"]["profile"] == "default"
