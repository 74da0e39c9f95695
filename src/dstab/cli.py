"""Command-line front end.

Subcommands:

* ``check``      full verdict pipeline on one matrix file
* ``experiment`` randomized ensemble statistics
* ``minors``     principal minor table dump
* ``expand``     seed polynomials and branched coefficient tree dump

Exit codes: 0 Certified, 1 Falsified / NotStable / FailedNecessary,
2 Inconclusive, 3 usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .certifier import (CERTIFIED, FAILED_NECESSARY, FALSIFIED, INCONCLUSIVE,
                        NOT_STABLE, coeff_tree, seed_polys)
from .harness import (REPORT_SCHEMA, GeneratorStyle, RunConfig, check_matrix,
                      run_experiment)
from .matrix import (DEFAULT_MINOR_CAP, MinorCapExceeded, all_principal_minors,
                     load_matrix)

USAGE_ERROR = 3

_VERDICT_EXIT = {
    CERTIFIED: 0,
    FALSIFIED: 1,
    NOT_STABLE: 1,
    FAILED_NECESSARY: 1,
    INCONCLUSIVE: 2,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; reserve 2 for Inconclusive."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_ERROR)


def _minor_cap() -> int:
    raw = os.environ.get("DSTAB_MINOR_CAP")
    if raw is None:
        return DEFAULT_MINOR_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"DSTAB_MINOR_CAP must be an integer, got {raw!r}") from None


def _depth_arg(value: str):
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("depth must be an integer or 'auto'")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dstab",
                     description="Certify or disprove matrix D-stability.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the full verdict pipeline")
    check.add_argument("file")
    check.add_argument("--test", choices=("I", "II", "both"), default="I")
    check.add_argument("--depth", type=_depth_arg, default="auto",
                       metavar="N|auto")
    check.add_argument("--refine", action="store_true",
                       help="apply quadratic-discriminant refinement")
    check.add_argument("--permutations", type=int, default=0, metavar="K",
                       help="extra random permutation-similarity retries")
    check.add_argument("--falsify", type=int, default=0, metavar="N",
                       help="randomized counterexample trials; past the "
                            "probes and first chunk, only on a matrix the "
                            "certificates leave unsettled")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--json", action="store_true")

    exp = sub.add_parser("experiment", help="randomized ensemble statistics")
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--trials", type=int, required=True)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--style", default="default",
                     help="generator spec, e.g. 'noise=10,diag_hi=80'")
    exp.add_argument("--test", choices=("I", "II"), default="I")
    exp.add_argument("--depth", type=int, default=None, metavar="N",
                     help="coefficient-tree depth (default n-2); it changes "
                          "no verdict without --refine")
    exp.add_argument("--refine", action="store_true",
                     help="apply quadratic-discriminant refinement")
    exp.add_argument("--json", action="store_true")

    minors = sub.add_parser("minors", help="principal minor table dump")
    minors.add_argument("file")
    minors.add_argument("--json", action="store_true")

    expand = sub.add_parser("expand", help="seed polynomial / tree dump")
    expand.add_argument("file")
    expand.add_argument("--depth", type=int, default=0, metavar="K",
                        help="levels of the branched coefficient tree")
    expand.add_argument("--seed", choices=("F01", "G01"), default="F01",
                        dest="seed_name")
    expand.add_argument("--json", action="store_true")

    return parser


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_check(args) -> int:
    a = load_matrix(args.file)
    cfg = RunConfig(test=args.test, depth=args.depth, refine=args.refine,
                    permutations=args.permutations,
                    falsify_trials=args.falsify, seed=args.seed,
                    minor_cap=_minor_cap())
    report = check_matrix(a, cfg)
    payload = {"schema": REPORT_SCHEMA, "command": "check",
               "file": args.file, "report": report.to_dict()}
    lines = [f"verdict: {report.verdict}"]
    if report.test:
        lines.append(f"test: {report.test}  depth: {report.depth}")
    if report.detail:
        lines.append(report.detail)
    if report.counterexample is not None:
        lines.append(f"counterexample d = {list(report.counterexample.sample.d)}")
    _emit(payload, args.json, "\n".join(lines))
    return _VERDICT_EXIT[report.verdict]


def cmd_experiment(args) -> int:
    style = GeneratorStyle.parse(args.style)
    stats = run_experiment(args.n, args.trials, seed=args.seed,
                           test=args.test, depth=args.depth,
                           refine=args.refine, style=style,
                           minor_cap=_minor_cap())
    payload = {"schema": REPORT_SCHEMA, "command": "experiment",
               "stats": stats.to_dict()}
    lo, hi = stats.wilson_interval()
    text = "\n".join([
        f"n={stats.n} trials={stats.trials} seed={stats.seed}",
        f"generator: {stats.generator}",
        f"counts: {stats.counts}",
        f"hit rate: {stats.hit_rate:.6g}  (95% CI {lo:.3g}..{hi:.3g})",
        f"wall time: {stats.wall_time:.2f}s",
    ])
    _emit(payload, args.json, text)
    return 0


def cmd_minors(args) -> int:
    a = load_matrix(args.file)
    table = all_principal_minors(a, cap=_minor_cap())
    entries = sorted(((sorted(alpha), val) for alpha, val in table.items()),
                     key=lambda kv: (len(kv[0]), kv[0]))
    payload = {"schema": REPORT_SCHEMA, "command": "minors",
               "n": a.n,
               "minors": [{"alpha": alpha, "value": str(val)}
                          for alpha, val in entries]}
    text = "\n".join(f"A({','.join(map(str, alpha)) or 'empty'}) = {val}"
                     for alpha, val in entries)
    _emit(payload, args.json, text)
    return 0


def cmd_expand(args) -> int:
    a = load_matrix(args.file)
    f, g = seed_polys(a, minors=all_principal_minors(a, cap=_minor_cap()))
    payload = {"schema": REPORT_SCHEMA, "command": "expand",
               "n": a.n, "F01": f.render(), "G01": g.render()}
    lines = [f"F(0,1) = {f.render()}", f"G(0,1) = {g.render()}"]
    if args.depth != 0:   # coeff_tree refuses a negative depth
        ct = coeff_tree(a, seed=args.seed_name, depth=args.depth,
                        seeds=(f, g))
        payload["tree"] = {path: p.render() for path, p in
                           sorted(ct.nodes.items())}
        payload["tree_seed"] = args.seed_name
        lines.append(f"coefficient tree of {args.seed_name}:")
        for path, p in sorted(ct.nodes.items(), key=lambda kv: (len(kv[0]), kv[0])):
            lines.append(f"  c[{path or 'root'}] = {p.render()}")
    _emit(payload, args.json, "\n".join(lines))
    return 0


_COMMANDS = {
    "check": cmd_check,
    "experiment": cmd_experiment,
    "minors": cmd_minors,
    "expand": cmd_expand,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; ``parse_args`` keeps no state in
    it, since every call fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, MinorCapExceeded) as exc:
        print(f"dstab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
