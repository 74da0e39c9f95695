"""Inputs, timed loops and correctness checks of the dstab benchmark.

Importing this module imports dstab, so ``run.py`` puts the checkout's
``src`` on ``sys.path`` and pins the BLAS threads first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Optional

from dstab import certifier, cli, harness
from dstab.certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED,
                             INCONCLUSIVE, NOT_STABLE, TestReport)
from dstab.falsifier import stable_seed
from dstab.matrix import Matrix, is_positive_stable, parse_matrix

import spans

VERDICTS = (CERTIFIED, INCONCLUSIVE, FAILED_NECESSARY, FALSIFIED)

# The documented exit codes of ``dstab check``.
EXIT_CODES = {CERTIFIED: 0, FALSIFIED: 1, NOT_STABLE: 1, FAILED_NECESSARY: 1,
              INCONCLUSIVE: 2}

# workload -> (n, trials per run_experiment call).  A call takes about 80 ms
# at the reference speed, so a 20 s run makes 160 or more of them and at
# least 16 lie beyond the 90th percentile of their latency.
ENSEMBLES = {"ensemble-n5": (5, 32), "ensemble-n7": (7, 4)}
ENSEMBLE_DEPTH = 3

CHECK = "check-corpus"
CHECK_ARGS = ["--json", "--test", "both", "--depth", "auto", "--refine",
              "--falsify", "1000"]

WEAK = "diag_lo=1,diag_hi=10,noise=10"
# Corpus mix per seed.  Fast exits (weak draws failing the P0+ filter and
# negated draws) are 28 of 116 checks, so both the median and the 90th
# percentile of the check latency fall among the full checks.
DEFAULT_DRAWS = {4: 20, 5: 20}
WEAK_DRAWS = {3: (16, 4), 4: (16, 4), 5: (12, 8)}   # (pass, fail) the filter
NEGATED_DRAWS = {4: 6, 5: 6}

# The worked example and the three published matrices; all are Certified.
FIXED = {
    "worked-5x5": """
2 -2 1 0 0
1 0 0 0 -1
1 -1 1 0 0
0 -1 0 1 -1
0 1 0 0 2
""",
    "published-5x5-I": """
100.00  17.85  18.21 -10.86 -23.71
  2.07  27.19  -0.47  16.65  -0.23
 19.18 -78.22  94.07  20.13  34.86
 -4.37  13.73  -0.70 115.66  -7.10
 21.96   7.00  39.87  10.92  55.94
""",
    "published-5x5-II": """
100.00  -1.02   6.78   2.94  40.45
  1.48  67.37   0.37  40.32 -10.39
 55.47  -9.16  99.71 -10.81 -50.60
 19.59  14.49   9.17  63.68  52.13
 13.24 -21.48 -20.74  15.60  66.59
""",
    "published-6x6-I": """
100.00  -5.67   1.89   2.29   9.05 -38.42
-14.64  53.17  11.64   1.16  -8.78  46.73
-34.03  -2.32  92.53 -49.82   8.70 -53.98
 21.68  19.69 -21.72  28.90   6.50 -16.12
 30.69 -20.02  13.80   4.41  52.42 -30.91
 13.63  18.86 -12.82   3.87 -11.02  88.71
""",
}


def derive(*parts) -> int:
    """64-bit seed from the benchmark seed and a label."""
    data = repr(parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")


def seed_digest(items) -> str:
    """SHA-256 over rendered (key, F(0,1), G(0,1)) triples, in order."""
    h = hashlib.sha256()
    for key, f, g in items:
        h.update(f"{key}:{f.render()}|{g.render()}\n".encode())
    return h.hexdigest()


def trace_table():
    """Patch rows for a traced run: (owner, attribute, span name, attrs)."""
    return [
        (harness, "random_stable_matrix", "harness.generate", None),
        (harness, "is_positive_stable", "matrix.stability", None),
        (harness, "all_principal_minors", "matrix.minors", None),
        (harness, "necessary_filter", "matrix.filter", spans.filter_attrs),
        (harness, "falsify", "falsifier.falsify", spans.falsify_attrs),
        (harness, "build_tree", "recursion.build_tree", None),
        (harness, "test_hierarchy", "certifier.hierarchy",
         spans.hierarchy_attrs),
        (certifier, "seed_polys", "certifier.seed", spans.seed_attrs),
        (cli, "load_matrix", "cli.load", None),
        (cli, "check_matrix", "harness.check", None),
        # the report: to_dict, then json.dumps and print
        (TestReport, "to_dict", "cli.report", None),
        (cli, "_emit", "cli.report", None),
    ]


# ---------------------------------------------------------------------------
# ensembles


@dataclass
class Batch:
    index: int
    seed: int
    counts: Optional[list[int]]     # in VERDICTS order
    error: Optional[str]
    seconds: float
    factor: float = 1.0             # speed factor, see speed.py


def batch_seed(workload: str, seed: int, index: int) -> int:
    return derive(workload, seed, index)


def run_batches(workload: str, seed: int, meter, seconds: float | None = None,
                count: int | None = None) -> list[Batch]:
    """``run_experiment`` calls on successive batch seeds, timed each."""
    n, trials = ENSEMBLES[workload]

    def step(index):
        bs = batch_seed(workload, seed, index)
        t0 = perf_counter()
        try:
            stats = harness.run_experiment(n, trials, seed=bs,
                                           depth=ENSEMBLE_DEPTH)
            counts, error = [stats.counts.get(v, 0) for v in VERDICTS], None
            if set(stats.counts) != set(VERDICTS):
                error = f"unexpected verdict keys {sorted(stats.counts)}"
        except Exception as exc:   # a failed operation is counted, not fatal
            counts, error = None, repr(exc)
        return Batch(index, bs, counts, error, perf_counter() - t0)

    return meter.loop(step, seconds, count)


@dataclass
class Replica:
    counts: list[int]               # in VERDICTS order
    digest: Optional[str]           # traced only: SHA-256 of the seeds
    seconds: float
    ops: list[int]                  # traced only: the trials' op spans
    factor: float = 1.0


def replica_batch(workload: str, bseed: int, tracer=None) -> Replica:
    """The ``run_experiment`` trial loop, one public call per step.

    Follows today's call sequence of ``run_experiment`` (test I, no
    refinement, no falsifier) so that a traced run can time each layer of
    the pipeline the untraced run measures.
    """
    n, trials = ENSEMBLES[workload]
    counts = dict.fromkeys(VERDICTS, 0)
    seeds, ops = [], []
    t0 = perf_counter()
    for t in range(trials):
        with tracer.op("harness.trial") if tracer else nullcontext():
            a = harness.random_stable_matrix(n, stable_seed(bseed, t),
                                             "default").scale(100)
            minors = harness.all_principal_minors(a)
            if not harness.necessary_filter(a, minors=minors):
                verdict = FAILED_NECESSARY
            else:
                rep = harness.test_hierarchy(
                    a, which="I", depth=ENSEMBLE_DEPTH, refine=False,
                    tree=harness.build_tree(a, minors=minors),
                    check_preconditions=False)
                verdict = rep.verdict
        counts[verdict] += 1
        if tracer is not None:
            ops.append(tracer.ops[-1])
            if tracer.first_seed is not None:
                seeds.append((t, *tracer.first_seed))
                tracer.first_seed = None
    seconds = perf_counter() - t0
    return Replica([counts[v] for v in VERDICTS],
                   seed_digest(seeds) if tracer else None, seconds, ops)


def falsify_probe_matrices(workload: str, seed: int, count: int) -> list:
    """The first ``count`` scaled ensemble matrices that pass the filter."""
    n, trials = ENSEMBLES[workload]
    out = []
    b = 0
    while len(out) < count:
        bs = batch_seed(workload, seed, b)
        for t in range(trials):
            a = harness.random_stable_matrix(n, stable_seed(bs, t),
                                             "default").scale(100)
            if harness.necessary_filter(a) and len(out) < count:
                out.append((stable_seed(bs, t), a))
        b += 1
    return out


def ensemble_problems(workload: str, batch: Batch, ref: dict | None,
                      replica: list[int] | None) -> list[str]:
    """Why a batch's result is wrong; empty when it checks out."""
    n, trials = ENSEMBLES[workload]
    if batch.error is not None:
        return [batch.error]
    out = []
    c = dict(zip(VERDICTS, batch.counts))
    if sum(batch.counts) != trials:
        out.append(f"counts {c} do not add up to {trials} trials")
    if c[FALSIFIED]:
        out.append("Falsified without a falsifier")
    if replica is not None and replica != batch.counts:
        out.append(f"replica tallies {dict(zip(VERDICTS, replica))}, "
                   f"run_experiment {c}")
    if ref is not None and batch.index < len(ref["counts"]):
        want = ref["counts"][batch.index]
        if want != batch.counts:
            out.append(f"reference counts {dict(zip(VERDICTS, want))}, got {c}")
    return [f"batch {batch.index}: {p}" for p in out]


# ---------------------------------------------------------------------------
# check corpus


@dataclass
class Member:
    name: str
    kind: str          # fixed, default, weak-pass, weak-fail, negated
    matrix: Matrix
    path: str = ""


def format_entry(x: Fraction) -> str:
    """Exact two-decimal text of an entry."""
    h = x * 100
    if h.denominator != 1:
        raise ValueError(f"{x} has more than two decimals")
    h = h.numerator
    return f"{'-' if h < 0 else ''}{abs(h) // 100}.{abs(h) % 100:02d}"


def matrix_text(a: Matrix) -> str:
    return "\n".join(" ".join(format_entry(x) for x in row)
                     for row in a.rows) + "\n"


def build_corpus(seed: int, tracer=None) -> list[Member]:
    """The seeded check corpus, in a seeded order.

    When traced, every draw is an auxiliary operation, so that the
    generator's per-layer time is measured on this workload too.
    """
    def draw(n, label, k, style):
        with tracer.op("corpus.draw", "aux") if tracer else nullcontext():
            return harness.random_stable_matrix(n, derive(label, seed, n, k),
                                                style)

    members = [Member(name, "fixed", parse_matrix(text))
               for name, text in FIXED.items()]
    for n, count in DEFAULT_DRAWS.items():
        members += [Member(f"default-n{n}-{k:02d}", "default",
                           draw(n, "default", k, "default"))
                    for k in range(count)]
    for n, (want_pass, want_fail) in WEAK_DRAWS.items():
        got = {True: 0, False: 0}
        want = {True: want_pass, False: want_fail}
        k = 0
        while got[True] < want_pass or got[False] < want_fail:
            a = draw(n, "weak", k, WEAK)
            k += 1
            passes = harness.necessary_filter(a.scale(100))
            if got[passes] < want[passes]:
                kind = "weak-pass" if passes else "weak-fail"
                members.append(Member(f"{kind}-n{n}-{got[passes]:02d}", kind, a))
                got[passes] += 1
    for n, count in NEGATED_DRAWS.items():
        members += [Member(f"negated-n{n}-{k:02d}", "negated",
                           draw(n, "negated", k, "default").scale(-1))
                    for k in range(count)]
    random.Random(derive("order", seed)).shuffle(members)
    return members


def write_corpus(members: list[Member], directory) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for m in members:
        text = matrix_text(m.matrix)
        if parse_matrix(text) != m.matrix:
            raise ValueError(f"{m.name} does not round-trip through text")
        path = directory / f"{m.name}.txt"
        path.write_text(text)
        m.path = str(path)


@dataclass
class CheckResult:
    member: Member
    exit_code: Optional[int]
    error: Optional[str]
    seconds: float
    stdout_sha256: str = ""
    report: dict = field(default_factory=dict)   # see summarize
    factor: float = 1.0                 # speed factor, see speed.py
    op: Optional[int] = None            # traced runs: the operation's span
    seed_sha256: Optional[str] = None   # traced runs: digest of its seeds


def summarize(stdout: str) -> dict:
    """The fields the checks read from a JSON report; {} if unreadable.

    Only these are kept, so memory does not grow with the number of checks.
    """
    try:
        payload = json.loads(stdout)
        rep = payload["report"]
        return {"schema": payload.get("schema"), "verdict": rep["verdict"],
                "test": rep.get("test"), "depth": rep.get("depth"),
                "d": rep.get("counterexample", {}).get("d", [])}
    except (ValueError, KeyError, TypeError, AttributeError):
        return {}


def run_checks(members: list[Member], meter, seconds: float | None = None,
               count: int | None = None, tracer=None) -> list[CheckResult]:
    """``dstab check`` in-process over the corpus, cycling, timed each."""
    def step(index):
        m = members[index % len(members)]
        buf, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with tracer.op("cli.main") if tracer else nullcontext():
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(["check", m.path, *CHECK_ARGS])
            error = None
        except Exception as exc:   # a failed operation is counted, not fatal
            code, error = None, repr(exc)
        res = CheckResult(m, code, error, perf_counter() - t0)
        out = buf.getvalue()
        res.stdout_sha256 = hashlib.sha256(out.encode()).hexdigest()
        res.report = summarize(out)
        if tracer is not None:
            res.op = tracer.ops[-1]
            if tracer.first_seed is not None:
                res.seed_sha256 = seed_digest([(m.name, *tracer.first_seed)])
                tracer.first_seed = None
        return res

    return meter.loop(step, seconds, count)


def witness_holds(a: Matrix, d) -> bool:
    """Exact re-check of a Falsified witness: D*A is not positive stable."""
    if len(d) != a.n or not all(isinstance(x, (int, float)) for x in d):
        return False
    diag = [Fraction(x) for x in d]
    if any(x <= 0 for x in diag):
        return False
    da = Matrix([[diag[i] * x for x in row] for i, row in enumerate(a.rows)])
    return not is_positive_stable(da)


def check_problems(res: CheckResult, ref: dict | None,
                   seen: dict[str, str]) -> list[str]:
    """Why a check's output is wrong; empty when it checks out.

    ``seen`` maps member names to the digest of their first output, so that
    repeated checks of one matrix must print the same report.
    """
    m = res.member
    if res.error is not None:
        return [f"{m.name}: {res.error}"]
    rep = res.report
    if not rep:
        return [f"{m.name}: unreadable report"]
    verdict = rep["verdict"]
    out = []
    if rep["schema"] != "dstab-report/1":
        out.append(f"schema {rep['schema']!r}")
    if EXIT_CODES.get(verdict) != res.exit_code:
        out.append(f"exit code {res.exit_code} for {verdict}")
    if m.kind == "fixed" and verdict != CERTIFIED:
        out.append(f"published D-stable matrix gave {verdict}")
    if m.kind == "negated" and verdict != NOT_STABLE:
        out.append(f"negated stable matrix gave {verdict}")
    if m.kind not in ("fixed", "negated") and verdict == NOT_STABLE:
        out.append("stable draw gave NotStable")
    if verdict == FALSIFIED and not witness_holds(m.matrix, rep["d"]):
        out.append(f"witness d={rep['d']} does not verify")
    if seen.setdefault(m.name, res.stdout_sha256) != res.stdout_sha256:
        out.append("report differs from an earlier check of the same file")
    want = (ref or {}).get(m.name)
    if want is not None:
        got = {"verdict": verdict, "test": rep["test"], "depth": rep["depth"],
               "exit": res.exit_code}
        for key, value in got.items():
            if want[key] != value:
                out.append(f"reference {key} {want[key]!r}, got {value!r}")
    return [f"{m.name}: {p}" for p in out]
