"""The benchmark's own tests, on the toy size: a broken gate, an unwrapped
layer or a missing metric fails here in seconds.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_toy_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    detail, result = (json.loads(line)
                      for line in proc.stdout.strip().splitlines()[-2:])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and detail["errors"] == []
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in wanted] == list(result["metrics"])
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        return
    assert detail["idle_predicted_but_fired"] == {}
    for name in workloads.MUST_FIRE[workload]:
        calls = result["metrics"].get(f"{name}.calls")
        assert calls is None or calls["value"] > 0


def test_spec_matches_layers():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    traced = {f"{layer}.{fn}" for layer, fns in tracer.LAYERS.items()
              for fn in fns}
    for w in SPEC["workloads"]:
        assert set(workloads.MUST_FIRE[w["name"]]) <= traced
        assert set(workloads.PREDICTED_IDLE[w["name"]]) <= traced
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS.values():
        assert w.prepare("toy", 5) == w.prepare("toy", 5)
    build = workloads.WORKLOADS["build"]
    assert build.prepare("std", 1) != build.prepare("std", 2)
    assert sorted(map(str, build.prepare("std", 1))) == \
        sorted(map(str, build.prepare("std", 2)))


def test_build_gate_catches_a_wrong_expansion():
    build = workloads.WORKLOADS["build"]
    inputs = build.prepare("toy", 1)
    outputs = build.run(inputs, run_clock())
    refs = workloads.load_refs()
    assert build.gate(inputs, outputs, refs)[1] == 0
    L, N = inputs[0]
    bad = dict(refs, **{workloads.ref_key(L, N): "0" * 64})
    attempted, failed, errors = build.gate(inputs, outputs, bad)
    assert failed == 1 and str(L) in errors[0]


def test_stability_gate_catches_a_missing_violation():
    stab = workloads.WORKLOADS["stability"]
    inputs = stab.prepare("toy", 1)
    outputs = stab.run(inputs, run_clock())
    refs = workloads.load_refs()
    assert stab.gate(inputs, outputs, refs)[1] == 0
    key = next(k for k in refs if k.startswith("stability|1,3,2,4"))
    bad = dict(refs, **{key: dict(refs[key],
                                  violations=refs[key]["violations"][1:])})
    assert stab.gate(inputs, outputs, bad)[1] == 1


def test_tracer_wraps_every_binding():
    import superjack.cli
    import superjack.coeffring
    import superjack.ideals
    import superjack.jack

    original = superjack.coeffring.solve_exact
    tr = tracer.Tracer("test")
    tr.install()
    try:
        assert superjack.ideals.solve_exact is not original
        assert superjack.jack.solve_exact is superjack.ideals.solve_exact
        assert superjack.cli.jack_symbolic is superjack.jack.jack_symbolic
    finally:
        tr.uninstall()
    assert superjack.ideals.solve_exact is original


def test_unwrapped_layer_fails_the_run():
    layers = {f"{name}.calls": 1 for name in workloads.MUST_FIRE["build"]}
    layers.update({f"{name}.calls": 0
                   for name in workloads.PREDICTED_IDLE["build"]})
    errors = []
    run.check_layers("build", [{"layers": layers}], errors)
    assert errors == []
    layers["ops.apply_D.calls"] = 0
    run.check_layers("build", [{"layers": layers}], errors)
    assert errors == ["traced pass 0: ops.apply_D recorded no calls"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "build", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def run_clock():
    class Clock:
        def mark(self):
            pass
    return Clock()
