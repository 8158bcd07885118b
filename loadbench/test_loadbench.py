"""The benchmark's own tests.

* every workload, run briefly, prints every metric ``BENCHMARK.json``
  names, with its unit, and no failed operation;
* the output checks reject a perturbed digest and a perturbed frame;
* the exact per-layer counts repeat across two traced runs of one seed.

Run from the checkout root: ``python3 -m pytest loadbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import service  # noqa: E402
import studies  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = {
    "study-cnn": ("gossip.executor.tasks", "gossip.executor.fallback_rows"),
    "service-durable": ("service.checkpoint.bytes",),
}
_RUNS: dict = {}


def run(workload: str, trace: int, repeat: int = 0) -> dict:
    """The result line of a short run (cached per test session)."""
    key = (workload, trace, repeat)
    if key not in _RUNS:
        out = subprocess.run(
            [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        _RUNS[key] = json.loads(out.stdout.strip().splitlines()[-1])
    return _RUNS[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if trace == 0:
            assert got["value"] > 0, m["name"]


def test_layer_catalogue_matches_benchmark_json():
    layers = json.loads((BENCH / "layers.json").read_text())
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)
    for m in SPEC["per_layer"]:
        assert layers[m["name"]]["unit"] == m["unit"]
        assert layers[m["name"]]["better"] == m["better"]
        assert set(layers[m["name"]]["workloads"]) <= set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat(workload):
    first = run(workload, 1, 0)["metrics"]
    second = run(workload, 1, 1)["metrics"]
    for name in EXACT[workload]:
        assert first[name]["value"] == second[name]["value"], name
    if workload == "service-durable":
        assert first["service.checkpoint.bytes"]["value"] > 0


def _small_study():
    return studies.config_for("study-cnn", 2, False, None, 0).with_overrides(rounds=1)


def test_study_check_rejects_a_perturbed_digest(tmp_path):
    config = _small_study()
    good = studies.oracle(config)
    for stored, mismatches in ((good, 0), ("0" * 24, 1)):
        refs = harness.References(
            "study-cnn", lambda c, value=stored: value, path=tmp_path / "none.json"
        )
        tally = harness.Tally()
        studies.run_one(config, refs, tally, studies.Samples())
        assert (tally.attempted, tally.mismatches) == (1, mismatches)


def test_service_check_rejects_a_perturbed_frame():
    from repro.core import run_study

    config = service.config_for(2, False, None, 0).with_overrides(rounds=2)
    result = run_study(config)
    ref = service.oracle(config)

    def served(frames):
        op = service.Op(config, fresh=True)
        op.frames = [harness.sha(f) for f in frames]
        op.ids = [str(i) for i in range(len(frames))]
        op.end = {"status": "done", "rounds": len(frames)}
        op.result = harness.sha(result.to_json())
        return op

    frames = [record.to_json() for record in result.rounds]
    assert service.check_op(served(frames), ref)
    perturbed = frames[:-1] + [frames[-1].replace("0", "1", 1)]
    assert perturbed != frames
    assert not service.check_op(served(perturbed), ref)
    wrong_result = served(frames)
    wrong_result.result = harness.sha(result.to_json() + " ")
    assert not service.check_op(wrong_result, ref)
