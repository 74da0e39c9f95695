#!/usr/bin/env python3
"""Benchmark of dstab: ensemble throughput and ``dstab check`` latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble-n5 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads: ensemble-n5, ensemble-n7 (``run_experiment`` at depth 3) and
check-corpus (in-process ``dstab check`` over a seeded matrix corpus).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics from spans around the calls into each dstab module.
``--workload all`` runs every workload, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy is imported, so the benchmark never
# uses more than one core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

import speed


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


LOADAVG_AT_START = _read("/proc/loadavg").split()[:3]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("ensemble-n5", "ensemble-n7", "check-corpus")
SETUP_REPEATS = 7
FALSIFY_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s",
                    "latency_ms.p50": "ms", "latency_ms.p90": "ms",
                    "peak_rss_mb": "MB"}


def import_program():
    """Import dstab from the checkout's ``src``, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dstab
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dstab from {src}: {exc}")
    if Path(dstab.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: dstab was imported from "
                         f"{dstab.__file__}, not from {src}")
    return dstab


def machine() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg_at_start": LOADAVG_AT_START}


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup(workload: str, seed: int):
    """Build the workload's inputs: the corpus files for check-corpus.

    The ensembles take only their batch seeds, which cost nothing to make.
    """
    import workloads
    if workload != workloads.CHECK:
        return None
    members = workloads.build_corpus(seed)
    workloads.write_corpus(members, WORK / f"corpus-s{seed}")
    return members


def measure_setup(args, meter) -> float:
    """Median time from spawning a fresh process to the end of its set-up,
    normalised by the speed factor measured around each spawn."""
    def probe():
        start = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120)
        return float(proc.stdout.split()[-1]) - start

    times = []
    for _ in range(SETUP_REPEATS):
        elapsed, factor = meter.around(probe)
        times.append(elapsed / factor)
    return statistics.median(times)


def warm_up(workload: str, members, meter) -> None:
    """One untimed operation, so lazy imports inside numpy are done."""
    import workloads
    if workload in workloads.ENSEMBLES:
        workloads.run_batches(workload, -1, meter, count=1)
    else:
        workloads.run_checks(members[:1], meter, count=1)


def reference_for(args) -> dict | None:
    with open(args.reference) as fh:
        ref = json.load(fh)
    if ref["seed"] != args.seed:
        return None
    return ref["workloads"][args.workload]


def normalised(results) -> list[float]:
    return [r.seconds / r.factor for r in results]


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics


def run_untraced(args) -> tuple[dict, dict]:
    import workloads

    meter = speed.Meter()
    members = setup(args.workload, args.seed)
    ref = reference_for(args)
    setup_s = measure_setup(args, meter)
    warm_up(args.workload, members, meter)
    problems: list[str] = []
    if args.workload in workloads.ENSEMBLES:
        trials = workloads.ENSEMBLES[args.workload][1]
        results = workloads.run_batches(args.workload, args.seed, meter,
                                        seconds=args.seconds)
        # the step-by-step replica must agree with run_experiment
        replica = workloads.replica_batch(args.workload, results[0].seed)
        attempted = failed = 0
        mix = Counter()
        for b in results:
            found = workloads.ensemble_problems(
                args.workload, b, ref, replica.counts if b.index == 0 else None)
            problems += found
            attempted += trials
            failed += trials if found else 0
            if b.counts:
                mix.update(dict(zip(workloads.VERDICTS, b.counts)))
    else:
        results = workloads.run_checks(members, meter, seconds=args.seconds)
        seen: dict[str, str] = {}
        attempted, failed = len(results), 0
        for res in results:
            found = workloads.check_problems(res, ref and ref["members"], seen)
            problems += found
            failed += bool(found)
        mix = Counter(res.report.get("verdict", "error") for res in results)
    latencies = [x * 1e3 for x in normalised(results)]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(normalised(results)),
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p90": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {"attempted": attempted, "failed": failed, "problems": problems,
            "verdict_mix": dict(mix), "latency_samples": len(latencies),
            "beyond_p90": sum(x > metrics["latency_ms.p90"] for x in latencies),
            "raw_ops_per_s": attempted / sum(r.seconds for r in results),
            "speed_factor_median": statistics.median(r.factor for r in results),
            "reference_checked": ref is not None}
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]}
             for k, v in metrics.items()}, info)


# ---------------------------------------------------------------------------
# traced: per-layer metrics


def run_traced(args) -> tuple[dict, dict]:
    import spans
    import workloads
    from dstab import harness

    meter = speed.Meter()
    members = setup(args.workload, args.seed)
    ref = reference_for(args)
    warm_up(args.workload, members, meter)
    half = args.seconds / 2
    tracer = spans.Tracer()
    problems: list[str] = []
    if args.workload in workloads.ENSEMBLES:
        trials = workloads.ENSEMBLES[args.workload][1]
        probes = workloads.falsify_probe_matrices(args.workload, args.seed,
                                                  FALSIFY_PROBES)
        first = workloads.run_batches(args.workload, args.seed, meter,
                                      seconds=half)
        with spans.patched(tracer, workloads.trace_table()):
            second = meter.loop(
                lambda i: workloads.replica_batch(args.workload,
                                                  first[i].seed, tracer),
                count=len(first))
            for trial_seed, a in probes:
                def probe():
                    with tracer.op("falsifier.probe", "aux"):
                        harness.falsify(a, trials=1000, seed=trial_seed)
                    return tracer.ops[-1]
                op, factor = meter.around(probe)
                tracer.set_factor([op], factor)
        hashes = (ref or {}).get("seed_sha256", [])
        failed = 0
        for b, rep in zip(first, second):
            tracer.set_factor(rep.ops, rep.factor)
            found = workloads.ensemble_problems(args.workload, b, ref,
                                                rep.counts)
            if b.index < len(hashes) and hashes[b.index] != rep.digest:
                found.append(f"batch {b.index}: seed polynomials differ "
                             f"from the reference")
            problems += found
            failed += 2 * trials if found else 0
        attempted = 2 * trials * len(first)
    else:
        first = workloads.run_checks(members, meter, seconds=half)
        with spans.patched(tracer, workloads.trace_table()):
            ops_before = len(tracer.ops)
            factor = meter.around(
                lambda: workloads.build_corpus(args.seed, tracer))[1]
            tracer.set_factor(tracer.ops[ops_before:], factor)
            second = workloads.run_checks(members, meter, count=len(first),
                                          tracer=tracer)
        members_ref = ref and ref["members"]
        seen: dict[str, str] = {}
        failed = 0
        for a, b in zip(first, second):
            tracer.set_factor([b.op], b.factor)
            found = (workloads.check_problems(a, members_ref, seen)
                     + workloads.check_problems(b, members_ref, seen))
            want = (members_ref or {}).get(b.member.name)
            if want is not None and want["seed_sha256"] != b.seed_sha256:
                found.append(f"{b.member.name}: seed polynomials differ "
                             f"from the reference")
            problems += found
            failed += 2 if found else 0
        attempted = 2 * len(first)
    overhead = tracer.op_seconds("main") / sum(normalised(first)) - 1
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"trace-{args.workload}-s{args.seed}.jsonl")
    info = {"attempted": attempted, "failed": failed, "problems": problems,
            "spans": len(tracer.spans), "reference_checked": ref is not None}
    return spans.layer_metrics(tracer, overhead), info


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload, each in its own process; one table."""
    rows, metrics = [], {}
    attempted = failed = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--reference",
             args.reference],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: {workload} exited with "
                             f"{proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[f"{workload}.{name}"] = m
            rows.append((workload, name, m["value"], m["unit"]))
        rows.append((workload, "failed_frac",
                     result["failed"] / result["attempted"], "fraction"))
    for row in rows:
        print(f"{row[0]:<14} {row[1]:<16} {row[2]:>14.6g} {row[3]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="pinned results for the reference seed")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_program()
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.time())
        return 0
    if args.workload == "all":
        return run_all(args)

    desc = machine()
    run = run_traced if args.trace else run_untraced
    metrics, info = run(args)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": desc, "metrics": metrics, **info}
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for problem in info["problems"][:20]:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print("machine:", json.dumps(desc))
    for key in ("verdict_mix", "latency_samples", "beyond_p90",
                "raw_ops_per_s", "speed_factor_median", "spans",
                "reference_checked"):
        if key in info:
            print(f"{key}: {info[key]}")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<28} {info['failed'] / info['attempted']:>14.6g} "
          f"fraction ({info['failed']} of {info['attempted']})")
    print(json.dumps({"correct": info["failed"] == 0,
                      "attempted": info["attempted"], "failed": info["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
