"""End-to-end check pipeline and the random-matrix experiment harness."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Optional

from .certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED, INCONCLUSIVE,
                        NOT_STABLE, TestReport, hierarchy_depths,
                        one_by_one_report, step1_sufficient, test_hierarchy)
from .falsifier import falsify, stable_seed
from .matrix import (DEFAULT_MINOR_CAP, Matrix, MinorTable,
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

    Cheap filters first: exact stability, then the P0+ necessary condition,
    then (optionally) the randomized falsifier, then the step-1 sufficient
    test and finally one hierarchy run per permutation.  The minor table is
    enumerated once and decides stability; permuted retries relabel it.
    Above the cap, stability is decided from ``char_poly`` and a stable
    matrix raises ``MinorCapExceeded``.
    """
    cfg = cfg or RunConfig()
    for name in ("permutations", "falsify_trials"):
        if getattr(cfg, name) < 0:
            raise ValueError(f"{name} must be nonnegative, "
                             f"got {getattr(cfg, name)}")
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
    if cfg.falsify_trials > 0:
        found = falsify(a, trials=cfg.falsify_trials, seed=cfg.seed)
        if found is not None:
            return TestReport(FALSIFIED, counterexample=found,
                              detail="positive diagonal with nonpositive "
                                     "spectral margin")
    report = step1_sufficient(a, minors=minors)
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
            mat, mat_minors = a, minors
        else:
            mat, mat_minors = a.permuted(perm), minors.permuted(perm)
        report = test_hierarchy(mat, which=cfg.test, depth=cfg.depth,
                                refine=cfg.refine, check_preconditions=False,
                                minors=mat_minors)
        report.permutation = perm
        if report.verdict == CERTIFIED:
            break
    return report


# ---------------------------------------------------------------------------
# random stable matrices and the experiment loop


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
            kwargs[key] = float(value)
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
    return _stable_draw(n, seed, style)[0].scale(Fraction(1, 100))


def _stable_draw(n: int, seed: int, style: GeneratorStyle | str,
                 minor_cap: int = DEFAULT_MINOR_CAP
                 ) -> tuple[Matrix, MinorTable]:
    """100 times the matrix of ``random_stable_matrix``, and its minor table.

    Each entry is drawn as a float, rounded to a two-decimal string, and
    read as an int of hundredths.  Stability is scale-invariant, so each
    draw is decided from its integer matrix's table.
    """
    check_minor_cap(n, minor_cap)
    if isinstance(style, str):
        style = GeneratorStyle.parse(style)
    rng = random.Random(stable_seed("dstab-gen", n, seed))
    # entry (i, j) is uniform over bounds[i == j]
    bounds = ((-style.noise, style.noise), (style.diag_lo, style.diag_hi))
    for _ in range(MAX_ATTEMPTS):
        a = Matrix([[int(f"{rng.uniform(*bounds[i == j]):.2f}"
                         .replace(".", "")) for j in range(n)]
                    for i in range(n)])
        minors = all_principal_minors(a, cap=minor_cap)
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
    results are reproducible and order-independent.
    """
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    if isinstance(style, str):
        style = GeneratorStyle.parse(style)
    top = max(n - 2, 0)
    if depth is None:
        depth = top
    elif depth not in range(top + 1):
        raise ValueError(f"depth must be an integer in 0..{top}, got {depth!r}")
    check_minor_cap(n, minor_cap)
    counts = {CERTIFIED: 0, INCONCLUSIVE: 0, FAILED_NECESSARY: 0, FALSIFIED: 0}
    start = time.perf_counter()
    for t in range(trials):
        trial_seed = stable_seed(seed, t)
        # Every verdict below is invariant under positive scaling, and
        # integer entries make the exact arithmetic much cheaper.
        a, minors = _stable_draw(n, trial_seed, style, minor_cap)
        if n == 1:
            counts[one_by_one_report(a, test).verdict] += 1
            continue
        if not necessary_filter(a, minors=minors):
            counts[FAILED_NECESSARY] += 1
            continue
        if falsify_trials > 0:
            if falsify(a, trials=falsify_trials, seed=trial_seed) is not None:
                counts[FALSIFIED] += 1
                continue
        rep = test_hierarchy(a, which=test, depth=depth, refine=refine,
                             check_preconditions=False, minors=minors)
        counts[rep.verdict] += 1
    stats = ExperimentStats(n=n, trials=trials, seed=seed,
                            generator=style.describe(), test=test,
                            depth=depth, refine=refine, counts=counts,
                            wall_time=time.perf_counter() - start)
    return stats
