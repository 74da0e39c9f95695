"""End-to-end check pipeline and the random-matrix experiment harness."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isfinite, sqrt
from typing import Optional

from . import certifier
from .certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED, INCONCLUSIVE,
                        NOT_STABLE, TestReport, hierarchy_depths,
                        one_by_one_report, screened_verdict, step1_sufficient,
                        test_hierarchy)
from .falsifier import falsify, first_stage_trials, stable_seed
from .matrix import (DEFAULT_MINOR_CAP, Matrix, MinorTable, _checked_int,
                     all_principal_minors, check_minor_cap,
                     is_positive_stable, necessary_filter)
# called by name only from the benchmark's traced replica (perfbench)
from .recursion import build_tree  # noqa: F401

REPORT_SCHEMA = "dstab-report/1"
# draws random_stable_matrix makes before it gives up
MAX_ATTEMPTS = 10_000


@dataclass
class RunConfig:
    """Options for a single end-to-end check."""

    test: str = "I"                  # "I", "II" or "both"
    depth: int | str = "auto"
    refine: bool = False
    permutations: int = 0
    falsify_trials: int = 0
    seed: int = 0
    minor_cap: int = DEFAULT_MINOR_CAP


def check_matrix(a: Matrix, cfg: RunConfig | None = None) -> TestReport:
    """Run the full verdict pipeline on one matrix.

    Cheap filters first: exact stability, then the P0+ necessary condition.
    Then the (optional) randomized falsifier's first stage, its probes and
    first chunk of draws, where a falsifiable matrix is usually caught.
    Then the proofs: the step-1 sufficient test and one hierarchy run per
    permutation.  Only a matrix that no proof certifies meets the rest of
    the falsifier's samples.  The split does not change a report: the
    samples are searched in index order either way, a Certified matrix is
    D-stable, so no exactly verified counterexample exists for it, and a
    found counterexample is reported on its own.
    The minor table is enumerated once and decides stability; permuted
    retries relabel it.  The seeds are formed once for step 1 and the
    unpermuted hierarchy run.  Above the cap, stability is decided from
    ``char_poly`` and a stable matrix raises ``MinorCapExceeded``.
    """
    cfg = cfg or RunConfig()
    for name in ("permutations", "falsify_trials"):
        count = getattr(cfg, name)
        _checked_int(count, f"{name} must be nonnegative, got {count!r}", 0)
    _checked_int(cfg.minor_cap,
                 f"minor_cap must be an integer, got {cfg.minor_cap!r}")
    hierarchy_depths(a.n, cfg.test, cfg.depth)   # refuses a bad depth or test
    if a.n == 1:
        return one_by_one_report(a, cfg.test)
    minors = (all_principal_minors(a, cap=cfg.minor_cap)
              if a.n <= cfg.minor_cap else None)
    if not is_positive_stable(a, minors):
        return TestReport(NOT_STABLE, detail="matrix is not positive stable")
    if minors is None:
        minors = all_principal_minors(a, cap=cfg.minor_cap)
    if not necessary_filter(a, minors=minors):
        return TestReport(FAILED_NECESSARY,
                          detail="matrix is not a P0+-matrix")
    first = min(cfg.falsify_trials, first_stage_trials(a.n))
    found = _falsify_range(a, cfg.seed, 0, first, minors)
    if found is not None:
        return _falsified(found)
    # looked up on the module, so that a wrapped seed_polys sees this call
    seeds = certifier.seed_polys(a, minors=minors)
    report = step1_sufficient(a, seeds=seeds)
    if report.verdict == CERTIFIED:
        return report
    rng = random.Random(cfg.seed)
    perms: list[Optional[tuple[int, ...]]] = [None]
    for _ in range(cfg.permutations):
        p = list(range(1, a.n + 1))
        rng.shuffle(p)
        perms.append(tuple(p))
    for perm in perms:
        if perm is None:
            mat, mat_minors, mat_seeds = a, minors, seeds
        else:
            mat, mat_minors, mat_seeds = (a.permuted(perm),
                                          minors.permuted(perm), None)
        report = test_hierarchy(mat, which=cfg.test, depth=cfg.depth,
                                refine=cfg.refine, check_preconditions=False,
                                minors=mat_minors, seeds=mat_seeds)
        report.permutation = perm
        if report.verdict == CERTIFIED:
            return report
    found = _falsify_range(a, cfg.seed, first, cfg.falsify_trials, minors)
    return report if found is None else _falsified(found)


def _falsify_range(a: Matrix, seed: int, start: int, stop: int,
                   minors: MinorTable):
    """``falsify`` over the sample indices start..stop-1 (none if empty),
    screened with A's minor table."""
    if stop <= start:
        return None
    return falsify(a, trials=stop - start, seed=seed, start=start,
                   minors=minors)


def _falsified(found) -> TestReport:
    return TestReport(FALSIFIED, counterexample=found,
                      detail="positive diagonal with nonpositive spectral "
                             "margin")


# ---------------------------------------------------------------------------
# random stable matrices and the experiment loop


def _finite(key: str, value: str) -> float:
    """A generator parameter's value, which must be a finite number."""
    try:
        x = float(value)
        if isfinite(x):
            return x
    except ValueError:
        pass
    raise ValueError(f"generator parameter {key} must be a finite number, "
                     f"got {value.strip()!r}")


@dataclass(frozen=True)
class GeneratorStyle:
    """Parameters of the stable-matrix ensemble.

    Entries have two decimal places; the diagonal is positive and dominant
    in magnitude, with uniform off-diagonal noise.  Verdicts on this
    ensemble depend strongly on these parameters, so they are embedded in
    every experiment report.
    """

    diag_lo: float = 20.0
    diag_hi: float = 120.0
    noise: float = 25.0

    @staticmethod
    def parse(spec: str) -> "GeneratorStyle":
        """Parse "default" or comma-separated key=value overrides."""
        style = GeneratorStyle()
        if spec in ("", "default"):
            return style
        kwargs = {}
        for part in spec.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            if key not in ("diag_lo", "diag_hi", "noise"):
                raise ValueError(f"unknown generator parameter {key!r}")
            kwargs[key] = _finite(key, value)
        return GeneratorStyle(**{**style.__dict__, **kwargs})

    def describe(self) -> str:
        return (f"diag_lo={self.diag_lo},diag_hi={self.diag_hi},"
                f"noise={self.noise}")


def random_stable_matrix(n: int, seed: int,
                         style: GeneratorStyle | str = "default") -> Matrix:
    """Positive-stable matrix by rejection sampling.

    Deterministic in (n, seed, style); entries are exact rationals with at
    most two decimal places.
    """
    check_minor_cap(_checked_int(n, "matrix must have dimension >= 1", 1))
    return _stable_draw(n, seed, style)[0].scale(Fraction(1, 100))


def _stable_draw(n: int, seed: int, style: GeneratorStyle | str
                 ) -> tuple[Matrix, MinorTable]:
    """100 times the matrix of ``random_stable_matrix``, and its minor table.

    Each entry is drawn as a float, rounded to a two-decimal string, and
    read as an int of hundredths.  Stability is scale-invariant, so each
    draw is decided from its integer matrix's table.
    """
    if isinstance(style, str):
        style = GeneratorStyle.parse(style)
    rng = random.Random(stable_seed("dstab-gen", n, seed))
    # entry (i, j) is uniform over bounds[i == j]
    bounds = ((-style.noise, style.noise), (style.diag_lo, style.diag_hi))
    for _ in range(MAX_ATTEMPTS):
        a = Matrix([[int(f"{rng.uniform(*bounds[i == j]):.2f}"
                         .replace(".", "")) for j in range(n)]
                    for i in range(n)])
        minors = all_principal_minors(a, cap=n)
        if is_positive_stable(a, minors):
            return a, minors
    raise ValueError(f"no positive-stable {n}x{n} matrix in {MAX_ATTEMPTS} "
                     f"draws of generator style {style.describe()}")


@dataclass
class ExperimentStats:
    """Aggregated verdicts of a randomized experiment."""

    n: int
    trials: int
    seed: int
    generator: str
    test: str
    depth: int
    refine: bool
    counts: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.counts.get(CERTIFIED, 0) / self.trials if self.trials else 0.0

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the Certified rate."""
        if self.trials == 0:
            return (0.0, 0.0)
        p = self.hit_rate
        t = self.trials
        denom = 1 + z * z / t
        center = (p + z * z / (2 * t)) / denom
        half = z * sqrt(p * (1 - p) / t + z * z / (4 * t * t)) / denom
        return (max(center - half, 0.0), min(center + half, 1.0))

    def to_dict(self) -> dict:
        lo, hi = self.wilson_interval()
        return {
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "generator": self.generator,
            "test": self.test,
            "depth": self.depth,
            "refine": self.refine,
            "counts": dict(self.counts),
            "hit_rate": self.hit_rate,
            "hit_rate_wilson_95": [lo, hi],
            "wall_time_s": self.wall_time,
        }


def run_experiment(n: int, trials: int, seed: int = 0, test: str = "I",
                   depth: int | None = None, refine: bool = False,
                   style: GeneratorStyle | str = "default",
                   falsify_trials: int = 0,
                   minor_cap: int = DEFAULT_MINOR_CAP) -> ExperimentStats:
    """Generate stable matrices and tally the certification verdicts.

    Each trial draws its matrix from a seed derived from (seed, trial), so
    results are reproducible and order-independent.  Without ``refine`` a
    trial's verdict does not depend on ``depth`` (see ``screened_verdict``),
    and no coefficient tree is walked.
    """
    _checked_int(n, f"n must be at least 1, got {n!r}", 1)
    for name, count in (("trials", trials),
                        ("falsify_trials", falsify_trials)):
        _checked_int(count, f"{name} must be nonnegative, got {count!r}", 0)
    if isinstance(style, str):
        style = GeneratorStyle.parse(style)
    top = max(n - 2, 0)
    depth = _checked_int(top if depth is None else depth,
                         f"depth must be an integer in 0..{top}, got {depth!r}",
                         0, top)
    hierarchy_depths(n, test)   # refuses a bad test
    check_minor_cap(n, minor_cap)
    counts = {CERTIFIED: 0, INCONCLUSIVE: 0, FAILED_NECESSARY: 0, FALSIFIED: 0}
    first = min(falsify_trials, first_stage_trials(n))
    start = time.perf_counter()
    for t in range(trials):
        trial_seed = stable_seed(seed, t)
        # Every verdict below is invariant under positive scaling, and
        # integer entries make the exact arithmetic much cheaper.
        a, minors = _stable_draw(n, trial_seed, style)
        if n == 1:
            counts[one_by_one_report(a, test).verdict] += 1
            continue
        if not necessary_filter(a, minors=minors):
            counts[FAILED_NECESSARY] += 1
            continue
        # as in check_matrix: the falsifier's first stage, the proofs, and
        # the rest of the samples only for an uncertified trial
        if _falsify_range(a, trial_seed, 0, first, minors) is not None:
            counts[FALSIFIED] += 1
            continue
        if refine:
            verdict = test_hierarchy(a, which=test, depth=depth, refine=True,
                                     check_preconditions=False,
                                     minors=minors).verdict
        else:
            verdict = screened_verdict(a, test, minors=minors)
        if (verdict != CERTIFIED and _falsify_range(
                a, trial_seed, first, falsify_trials, minors) is not None):
            verdict = FALSIFIED
        counts[verdict] += 1
    stats = ExperimentStats(n=n, trials=trials, seed=seed,
                            generator=style.describe(), test=test,
                            depth=depth, refine=refine, counts=counts,
                            wall_time=time.perf_counter() - start)
    return stats
