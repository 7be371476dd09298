import importlib
import json
import math

import pytest

import outcome
import spans
import workloads
from wavemoment import cli

README_SYSTEM = {"A": [[0.5, 0.0], [1.0, -0.3]], "b": [1.0, 0.0],
                 "T": 4 * math.pi, "K": 8,
                 "target": {"z0": [[1, [1.0, 0.0]], [2, [0.0, 1.0]]],
                            "z1": [[1, [0.0, 1.0]]]}}
# acceptance criterion 4: b along the eigenvector of the second eigenvalue
KALMAN_NEGATIVE = {"A": [[0.5, 0.0], [1.0, -0.3]], "b": [0.0, 1.0],
                   "T": 4 * math.pi, "K": 4}


def run_verify(doc, out_dir):
    report, code = cli.run("verify", cli.parse_config(json.dumps(doc)),
                           out_dir=str(out_dir))
    return code, report["data"]


def test_classify_passing_case(tmp_path):
    code, data = run_verify(README_SYSTEM, tmp_path)
    ok, _ = outcome.classify(workloads.CONTROLLABLE, "verify", code, data)
    assert ok
    problems, text = outcome.check_outputs("verify", code, str(tmp_path),
                                           README_SYSTEM)
    assert problems == []
    assert json.loads(text) == json.loads(
        (tmp_path / "report.json").read_text())["data"]


def test_classify_uncontrollable_case(tmp_path):
    code, data = run_verify(KALMAN_NEGATIVE, tmp_path)
    assert outcome.classify(workloads.UNCONTROLLABLE, "verify", code, data)[0]
    assert not outcome.classify(workloads.CONTROLLABLE, "verify", code, data)[0]
    assert outcome.check_outputs("verify", code, str(tmp_path),
                                 KALMAN_NEGATIVE)[0] == []


def test_classify_d1_case():
    # outcome of the complex pair A = [[0.2, 0.7], [-0.7, 0.2]], b = e1,
    # T = 4*pi, K = 8 (ROADMAP defect D1): controllable, yet verify misses
    data = {"verification": {"passed": False, "max_rel_error": 9.5e2}}
    ok, reason = outcome.classify(workloads.CONTROLLABLE, "verify", 3, data)
    assert not ok
    assert "exit 3" in reason


def test_classify_escaped_exception_fails():
    ok, reason = outcome.classify(workloads.UNCONTROLLABLE, "verify", None,
                                  None, exc=ValueError("boom"))
    assert not ok
    assert "ValueError" in reason


def test_check_outputs_flags_tampered_control(tmp_path):
    code, _ = run_verify(README_SYSTEM, tmp_path)
    path = tmp_path / "control.csv"
    lines = path.read_text().splitlines()
    t, f = lines[-1].split(",")  # the last sample is always spot-checked
    lines[-1] = f"{t},{float(f) + 1.0!r}"
    path.write_text("\n".join(lines) + "\n")
    problems, _ = outcome.check_outputs("verify", code, str(tmp_path),
                                        README_SYSTEM)
    assert problems


@pytest.mark.parametrize("name", ["k-sweep", "small-batch"])
def test_workloads_are_seeded(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)


def test_large_edd_is_fixed():
    problems = workloads.generate("large-edd", 7)
    assert problems == workloads.generate("large-edd", 8)
    assert [p.kind for p in problems] == ["readme-target", "dense-target"]


def test_small_batch_mix_is_balanced():
    problems = workloads.generate("small-batch", 3)
    classes = [name for name, _, _ in workloads.SMALL_BATCH_CLASSES]
    assert len(problems) == len(classes) * workloads.SMALL_BATCH_PER_CLASS
    assert [p.kind for p in problems[:len(classes)]] == classes
    for p in problems:
        config = cli.parse_config(json.dumps(p.config))
        assert config.n <= 3 and config.k_max in workloads.SMALL_BATCH_KS


def test_tracer_self_times_add_up_and_uninstall_restores():
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in spans.TRACED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        config = cli.parse_config(json.dumps(README_SYSTEM))
        tracer.wrap(spans.ROOT, cli.run)("verify", config)
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn
    root = tracer.spans[0]
    assert root.name == spans.ROOT and root.parent is None
    assert all(s.parent is not None and s.parent < i
               for i, s in enumerate(tracer.spans) if i)
    self_s, calls = tracer.self_times()
    assert sum(self_s.values()) == pytest.approx(root.end - root.start, rel=1e-9)
    assert calls[spans.ROOT] == 1
    assert tracer.gram_dim == 2 * 8 * 2
