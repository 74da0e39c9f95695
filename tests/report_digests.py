"""A standing byte lock on the reports of ``dstab check`` and on the
tallies of ``run_experiment``.

``golden/report_digests.json`` holds, for every member of the seed-0 and
seed-1 perfbench corpora and three option sets, the exit code and the
SHA-256 of the standard output of ``dstab check``, and the verdict counts
of ``run_experiment`` for n = 1..7, tests I and II, refinement on and off.
``test_report_digests.py`` recomputes and compares them.  Regenerate the
file only when a report is meant to change, from the root of a checkout:

    PYTHONPATH=src python tests/report_digests.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from dstab import cli
from dstab.harness import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "report_digests.json"

CORPUS_SEEDS = (0, 1)
# name -> extra arguments of ``dstab check``; "bench" is perfbench's CHECK_ARGS
OPTION_SETS = {
    "permutations": ["--json", "--permutations", "2", "--refine"],
    "test-II-falsify": ["--json", "--test", "II", "--falsify", "300"],
}
EXPERIMENT_TRIALS = {7: 12}   # per n; 24 elsewhere


def _workloads():
    """perfbench's ``workloads`` module, imported as its own tests do."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    return workloads


def _check(args: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", *args])
    return {"exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def check_digests() -> dict:
    """"seed/member/option set" -> exit code and stdout digest.  Each
    matrix file is passed by its bare name from its own directory, so the
    report's ``file`` field does not depend on where it was written."""
    workloads = _workloads()
    option_sets = {"bench": workloads.CHECK_ARGS, **OPTION_SETS}
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for seed in CORPUS_SEEDS:
                directory = Path(tmp) / f"seed{seed}"
                members = workloads.build_corpus(seed)
                workloads.write_corpus(members, directory)
                os.chdir(directory)
                for m in members:
                    for name, args in option_sets.items():
                        out[f"seed{seed}/{m.name}/{name}"] = _check(
                            [f"{m.name}.txt", *args])
        finally:
            os.chdir(here)
    return out


def experiment_counts() -> dict:
    """"n/test/refine" -> the verdict counts of one ``run_experiment``."""
    out = {}
    for n in range(1, 8):
        for test in ("I", "II"):
            for refine in (False, True):
                stats = run_experiment(n, EXPERIMENT_TRIALS.get(n, 24), seed=0,
                                       test=test, refine=refine)
                out[f"n{n}/{test}/refine={int(refine)}"] = stats.counts
    return out


def compute() -> dict:
    return {"check": check_digests(), "experiment": experiment_counts()}


def render(digests: dict) -> str:
    return json.dumps(digests, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    GOLDEN.write_text(render(compute()))
    print(f"wrote {GOLDEN}")
