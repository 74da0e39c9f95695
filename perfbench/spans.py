"""In-memory spans around calls into dstab, and the per-layer metrics.

A traced run replaces module attributes of dstab with wrappers for its
duration (``patched``), so every call the pipeline makes through those names
records a span: name, start, end, parent span and operation.  Spans stay in
memory and are written out once, when the run ends.

Per-layer metrics are medians over operations: for each operation, the
durations of a layer's spans are summed, and the median is taken over the
operations that called the layer at all.  Durations are divided by the
operation's speed factor (see speed.py).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# span fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Records spans in a flat list; an operation is itself a span."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[int] = []        # span indices of the operations
        self.op_kinds: dict[int, str] = {}
        self.factors: dict[int, float] = {}   # op -> speed factor
        self.first_seed = None          # (F, G) of the current operation
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    @contextmanager
    def op(self, name: str, kind: str = "main"):
        """One operation of the workload: a trial, a check, a probe."""
        span = self._open(name)
        idx = self._stack[-1]
        span[OP] = self._op = idx
        self.ops.append(idx)
        self.op_kinds[idx] = kind
        self.first_seed = None
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            self._op = None

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a span per call; ``on_result`` returns its attrs."""
        def traced(*args, **kwargs):
            span = self._open(name)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                span[ATTRS] = on_result(self, result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def set_factor(self, ops, factor: float) -> None:
        for op in ops:
            self.factors[op] = factor

    def seconds(self, idx: int) -> float:
        """Duration of a span, normalised by its operation's speed factor."""
        span = self.spans[idx]
        return (span[END] - span[START]) / self.factors.get(span[OP], 1.0)

    def op_seconds(self, kind: str = "main") -> float:
        return sum(self.seconds(i) for i in self.ops
                   if self.op_kinds[i] == kind)

    def write(self, path) -> None:
        """JSON lines, one span each; times in seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "start": span[START] - t0,
                    "end": span[END] - t0, "parent": span[PARENT],
                    "op": span[OP], "attrs": span[ATTRS]}) + "\n")


@contextmanager
def patched(tracer: Tracer, table):
    """Replace ``owner.attr`` by a traced wrapper for each table row.

    Rows are ``(owner, attr, span_name, on_result)``; the originals are
    restored on exit.
    """
    saved = []
    try:
        for owner, attr, name, on_result in table:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, on_result))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# span attributes recorded at the layer boundaries


def _coeff_bits(poly) -> int:
    bits = 0
    for c in poly.terms.values():
        if isinstance(c, int):
            bits = max(bits, c.bit_length())
        else:
            bits = max(bits, c.numerator.bit_length(),
                       c.denominator.bit_length())
    return bits


def seed_attrs(tracer, result, args, kwargs):
    f, g = result
    if tracer.first_seed is None:
        tracer.first_seed = (f, g)
    tree = args[1] if len(args) > 1 else kwargs.get("tree")
    attrs = {"terms_F": len(f.terms), "terms_G": len(g.terms),
             "bits": max(_coeff_bits(f), _coeff_bits(g))}
    if tree is not None:
        # F = P0*P1 + Q0*Q1 and G = P0*Q1 - Q0*P1 multiply every term of
        # node "0" with every term of node "1".
        n0 = len(tree["0"].P.terms) + len(tree["0"].Q.terms)
        n1 = len(tree["1"].P.terms) + len(tree["1"].Q.terms)
        attrs["products"] = n0 * n1
    return attrs


def filter_attrs(tracer, result, args, kwargs):
    return {"pass": bool(result)}


def hierarchy_attrs(tracer, result, args, kwargs):
    return {"nodes": len(result.nodes), "verdict": result.verdict}


def falsify_attrs(tracer, result, args, kwargs):
    trials = kwargs.get("trials", args[1] if len(args) > 1 else 10_000)
    samples = trials if result is None else result.sample.index + 1
    return {"samples": samples, "hit": result is not None}


# ---------------------------------------------------------------------------
# per-layer metrics

# time metric -> span name
_TIMES = {
    "harness.generate_ms": "harness.generate",
    "matrix.stability_ms": "matrix.stability",
    "matrix.minors_ms": "matrix.minors",
    "matrix.filter_ms": "matrix.filter",
    "recursion.build_tree_ms": "recursion.build_tree",
    "certifier.seed_ms": "certifier.seed",
    "certifier.hierarchy_ms": "certifier.hierarchy",
    "falsifier.falsify_ms": "falsifier.falsify",
    "cli.load_ms": "cli.load",
    "cli.report_ms": "cli.report",
}

UNITS = {
    **{name: "ms" for name in _TIMES},
    "matrix.filter_pass_ratio": "ratio",
    "certifier.certify_self_ms": "ms",
    "certifier.nodes_visited": "count",
    "certifier.certified_ratio": "ratio",
    "poly.seed_terms_F": "count",
    "poly.seed_terms_G": "count",
    "poly.seed_term_products": "count",
    "poly.max_coeff_bits": "bits",
    "falsifier.samples": "count",
    "falsifier.us_per_sample": "us",
    "falsifier.hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict:
    """Every per-layer metric, as ``{name: {"value", "unit"}}``.

    Each layer is measured on the main operations when they call it, and
    otherwise on the auxiliary ones (the traced corpus build of the check
    workload, the falsifier probes of the ensembles).  A layer that no
    operation calls reports 0.
    """
    by_op: dict[int, dict[str, list[int]]] = {}
    for idx, span in enumerate(tracer.spans):
        if span[OP] is not None and span[OP] != idx:
            by_op.setdefault(span[OP], {}).setdefault(span[NAME], []).append(idx)

    def ops_calling(name):
        for kind in ("main", "aux"):
            found = [by_op[i][name] for i in tracer.ops
                     if tracer.op_kinds[i] == kind and name in by_op.get(i, {})]
            if found:
                return found
        return []

    def total_ms(idxs):
        return 1e3 * sum(tracer.seconds(i) for i in idxs)

    def attrs(name):
        return [[tracer.spans[i][ATTRS] for i in idxs]
                for idxs in ops_calling(name)]

    out = {name: _median([total_ms(idxs) for idxs in ops_calling(span)])
           for name, span in _TIMES.items()}

    filters = [a["pass"] for per_op in attrs("matrix.filter") for a in per_op]
    out["matrix.filter_pass_ratio"] = _ratio(sum(filters), len(filters))

    self_ms = []
    for idxs in ops_calling("certifier.hierarchy"):
        inside = set(idxs)
        seeds = [i for i in by_op[tracer.spans[idxs[0]][OP]].get(
            "certifier.seed", []) if tracer.spans[i][PARENT] in inside]
        self_ms.append(total_ms(idxs) - total_ms(seeds))
    out["certifier.certify_self_ms"] = _median(self_ms)

    hier = attrs("certifier.hierarchy")
    out["certifier.nodes_visited"] = _median(
        [sum(a["nodes"] for a in per_op) for per_op in hier])
    out["certifier.certified_ratio"] = _ratio(
        sum(any(a["verdict"] == "Certified" for a in per_op) for per_op in hier),
        len(hier))

    seeds = [per_op[0] for per_op in attrs("certifier.seed")]
    out["poly.seed_terms_F"] = _median([a["terms_F"] for a in seeds])
    out["poly.seed_terms_G"] = _median([a["terms_G"] for a in seeds])
    out["poly.seed_term_products"] = _median(
        [a["products"] for a in seeds if "products" in a])
    out["poly.max_coeff_bits"] = _median([a["bits"] for a in seeds])

    fals_ops = ops_calling("falsifier.falsify")
    samples = [sum(tracer.spans[i][ATTRS]["samples"] for i in idxs)
               for idxs in fals_ops]
    out["falsifier.samples"] = _median(samples)
    out["falsifier.us_per_sample"] = _median(
        [1e3 * total_ms(idxs) / s for idxs, s in zip(fals_ops, samples) if s])
    calls = [a for per_op in attrs("falsifier.falsify") for a in per_op]
    out["falsifier.hit_ratio"] = _ratio(sum(a["hit"] for a in calls),
                                        len(calls))

    out["trace.overhead_frac"] = overhead_frac
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in out.items()}
