#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the pinned results for seed 0.

    python3 perfbench/make_reference.py

The reference holds, per ensemble, the verdict counts of the first
``BATCHES`` run_experiment calls and the SHA-256 of the rendered F(0,1) and
G(0,1) of the first ``HASHED`` batches; per corpus member, the verdict, test,
certifying depth, exit code and seed digest of ``dstab check``.  Regenerate
it only in a change that is meant to alter verdicts or seed polynomials.
"""

from __future__ import annotations

import json
import sys

import run

BATCHES = 512
HASHED = 256


def main() -> int:
    run.import_program()
    import spans
    import workloads

    meter = run.speed.Meter()
    seed = 0
    out = {"seed": seed, "workloads": {}}
    for workload in workloads.ENSEMBLES:
        batches = workloads.run_batches(workload, seed, meter, count=BATCHES)
        counts = [b.counts for b in batches]
        tracer = spans.Tracer()
        hashes = []
        with spans.patched(tracer, workloads.trace_table()):
            for b in batches[:HASHED]:
                replica = workloads.replica_batch(workload, b.seed, tracer)
                if replica.counts != b.counts:
                    raise SystemExit(f"{workload} batch {b.index}: replica "
                                     f"{replica.counts} != run_experiment "
                                     f"{b.counts}")
                hashes.append(replica.digest)
                tracer.spans.clear()
                tracer.ops.clear()
        out["workloads"][workload] = {"counts": counts, "seed_sha256": hashes}

    members = workloads.build_corpus(seed)
    workloads.write_corpus(members, run.WORK / f"corpus-s{seed}")
    tracer = spans.Tracer()
    with spans.patched(tracer, workloads.trace_table()):
        results = workloads.run_checks(members, meter, count=len(members),
                                       tracer=tracer)
    pinned = {}
    for res in results:
        problems = workloads.check_problems(res, None, {})
        if problems:
            raise SystemExit("; ".join(problems))
        pinned[res.member.name] = {
            "verdict": res.report["verdict"], "test": res.report.get("test"),
            "depth": res.report.get("depth"), "exit": res.exit_code,
            "seed_sha256": res.seed_sha256}
    out["workloads"][workloads.CHECK] = {"members": dict(sorted(pinned.items()))}

    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
