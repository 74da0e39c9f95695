"""Tests of the benchmark itself: output schema and the correctness gate.

    python3 -m pytest perfbench/tests

Each run is a tiny-size smoke run in its own process, as the benchmark is
run for real.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--seed", "0",
         "--seconds", "0.3", *args],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    out = bench("--workload", workload, "--trace", str(trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in out["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())


def _first_corpus_member() -> str:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import workloads
        return workloads.build_corpus(0)[0].name
    finally:
        del sys.path[:2]


def _move_one_trial(ref):
    counts = ref["workloads"]["ensemble-n5"]["counts"][0]
    counts[0] += 1
    counts[1] -= 1


def _change_verdict(ref):
    members = ref["workloads"]["check-corpus"]["members"]
    entry = members[_first_corpus_member()]
    entry["verdict"] = "Falsified" if entry["verdict"] != "Falsified" \
        else "Certified"


def _change_seed_digest(ref):
    ref["workloads"]["ensemble-n7"]["seed_sha256"][0] = "0" * 64


@pytest.mark.parametrize("workload,trace,corrupt", [
    ("ensemble-n5", 0, _move_one_trial),
    ("check-corpus", 0, _change_verdict),
    ("ensemble-n7", 1, _change_seed_digest),
])
def test_corrupted_reference_entry_counts_as_failed(tmp_path, workload, trace,
                                                    corrupt):
    ref = json.loads((BENCH / "reference.json").read_text())
    corrupt(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    out = bench("--workload", workload, "--trace", str(trace),
                "--reference", str(path))
    assert not out["correct"]
    assert out["failed"] / out["attempted"] > 0


def test_fake_witness_is_rejected():
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    try:
        import workloads
        from dstab.matrix import parse_matrix
    finally:
        del sys.path[:2]
    stable = parse_matrix(workloads.FIXED["worked-5x5"])
    assert not workloads.witness_holds(stable, [1.0] * 5)
    assert not workloads.witness_holds(stable, [1.0] * 4)
    unstable = parse_matrix("1 0\n0 -1")
    assert workloads.witness_holds(unstable, [0.5, 2.0])
    assert not workloads.witness_holds(unstable, [0.5, -2.0])
