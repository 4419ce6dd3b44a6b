"""Per-layer tracing from the benchmark's own files.

The program's public functions are wrapped where they are looked up: a
module-level function at every name under which a prefixalg module imports
it, a method on its class. Each wrapper records a span (name, start, end,
parent span, operation); spans stay in memory and are written out when the
run ends. A layer's self time is its spans' duration minus the time their
child spans cover. Calls that happen very often (the monomial product,
Scalar construction) are only counted.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

TRACE_CASES = (
    "base",
    "leftmost-anchor",
    "projection-carry",
    "prefix-rewrite",
    "early-orthogonal",
    "late-dominates",
)

# name, unit, better: the per-layer metrics, in the order they are printed.
LAYER_METRICS = [
    ("cli.startup_ms", "ms", "lower"),
    ("session.load_ms", "ms", "lower"),
    ("session.records_replayed", "count", "lower"),
    ("session.save_ms", "ms", "lower"),
    ("session.file_bytes", "bytes", "lower"),
    ("registry.link_ms", "ms", "lower"),
    ("registry.fresh_label", "count", "lower"),
    ("registry.audit_ms", "ms", "lower"),
    ("registry.vanishing_tuple_ms", "ms", "lower"),
    ("registry.stage_lookup_ms", "ms", "lower"),
    ("parser.parse_ms", "ms", "lower"),
    ("parser.chars", "count", "lower"),
    ("expr.eval_ms", "ms", "lower"),
    ("expr.print_ms", "ms", "lower"),
    ("monomials.normal_form_ms", "ms", "lower"),
    ("monomials.multiply_calls", "count", "lower"),
    ("polynomials.product_ms", "ms", "lower"),
    ("polynomials.product_term_pairs", "count", "lower"),
    ("polynomials.scalars_built", "count", "lower"),
    ("polynomials.fragment_index_ms", "ms", "lower"),
    ("polynomials.fragment_matrix_ms", "ms", "lower"),
    ("polynomials.fragment_rows", "count", "lower"),
    ("polynomials.psd_ms", "ms", "lower"),
    ("polynomials.entry_bits_max", "bits", "lower"),
    ("witnesses.ideal_witness_ms", "ms", "lower"),
    ("witnesses.primeness_ms", "ms", "lower"),
    ("witnesses.verify_certificate_ms", "ms", "lower"),
    ("witnesses.vanishing_ms", "ms", "lower"),
    ("witnesses.state_check_ms", "ms", "lower"),
    ("witnesses.verify_trace_ms", "ms", "lower"),
    ("witnesses.trace_steps", "count", "lower"),
    ("witnesses.zero_reports", "count", "lower"),
] + [(f"witnesses.trace_case.{case}", "count", "lower") for case in TRACE_CASES] + [
    ("trace.overhead_pct", "%", "lower"),
]


def _entry_bits(matrix) -> int:
    return max(
        (
            max(f.numerator.bit_length(), f.denominator.bit_length())
            for row in matrix.rows
            for c in row
            for f in (c.re, c.im)
        ),
        default=0,
    )


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index, op]
        self.stack: list = []
        self.counts: Counter = Counter()
        self.bits_max = 0
        self.op = -1
        self._undo: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, fn, after=None, not_inside=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = spans[stack[-1]][0] if stack else None
            # A recursive call stays in its caller's span; a replayed link is
            # part of loading the session.
            if parent == layer or (not_inside is not None and parent == not_inside):
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch_function(self, module, attr, make):
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "prefixalg" or name.startswith("prefixalg."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def install(self, pa) -> None:
        """Wrap the layers of the prefixalg package `pa`."""
        c = self.counts
        span, fn, meth = self._span, self._patch_function, self._patch_method
        reg, ses, par, ex = pa.registry, pa.session, pa.parser, pa.expr
        mon, pol, wit = pa.monomials, pa.polynomials, pa.witnesses

        def replayed(args, s):
            c["session.records_replayed"] += len(s.registry.records)

        def saved(args, _):
            c["session.file_bytes"] += os.path.getsize(args[1])

        def linked(args, rec):
            c["registry.fresh_label"] += rec.fresh + 1

        def parsed(args, _):
            c["parser.chars"] += len(args[0])

        def multiplied(args, _):
            if isinstance(args[1], pol.Polynomial):
                c["polynomials.product_term_pairs"] += len(args[0].terms) * len(args[1].terms)

        def built(args, m):
            c["polynomials.fragment_rows"] += m.size()

        def judged(args, _):
            self.bits_max = max(self.bits_max, _entry_bits(args[0]))

        def traced(args, result):
            if isinstance(result, wit.ZeroReport):
                c["witnesses.zero_reports"] += 1
            c["witnesses.trace_steps"] += len(result.steps)
            for step in result.steps:
                c[f"witnesses.trace_case.{step.case}"] += 1

        meth(ses.Session, "load", lambda f: span("session.load", f, replayed))
        meth(ses.Session, "save", lambda f: span("session.save", f, saved))
        meth(reg.Registry, "link", lambda f: span("registry.link", f, linked, "session.load"))
        meth(reg.Registry, "audit", lambda f: span("registry.audit", f))
        meth(reg.Registry, "vanishing_tuple", lambda f: span("registry.vanishing_tuple", f))
        for attr in ("generator_stages_matching", "protection_by_stage"):
            meth(reg.Registry, attr, lambda f: span("registry.stage_lookup", f))
        for attr in ("parse_expr", "parse_word"):
            fn(par, attr, lambda f: span("parser.parse", f, parsed))
        fn(ex, "eval_expr", lambda f: span("expr.eval", f))
        for attr in ("print_expr", "poly_text"):
            fn(ex, attr, lambda f: span("expr.print", f))
        fn(mon, "normal_form", lambda f: span("monomials.normal_form", f))
        fn(mon, "multiply", lambda f: self._counter("monomials.multiply_calls", f))
        meth(pol.Polynomial, "__mul__", lambda f: span("polynomials.product", f, multiplied))
        meth(pol.Scalar, "__post_init__", lambda f: self._counter("polynomials.scalars_built", f))
        fn(pol, "fragment_index", lambda f: span("polynomials.fragment_index", f))
        meth(pol.Polynomial, "fragment_matrix", lambda f: span("polynomials.fragment_matrix", f, built))
        meth(pol.FragmentMatrix, "is_positive_semidefinite", lambda f: span("polynomials.psd", f, judged))
        fn(wit, "ideal_projection_witness", lambda f: span("witnesses.ideal_witness", f))
        fn(wit, "primeness_witness", lambda f: span("witnesses.primeness", f))
        for attr in ("verify_certificate_text", "verify_certificate"):
            fn(wit, attr, lambda f: span("witnesses.verify_certificate", f))
        fn(wit, "vanishing_witness", lambda f: span("witnesses.vanishing", f, traced))
        fn(wit, "check_state_vanishes", lambda f: span("witnesses.state_check", f))
        for attr in ("verify_trace_text", "verify_trace"):
            fn(wit, attr, lambda f: span("witnesses.verify_trace", f))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds of self time per layer."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def layer_metrics(self, ops: int) -> dict:
        """Per-operation self time (ms) and counts, over `ops` traced operations."""
        values = {name: 0.0 for name, _, _ in LAYER_METRICS}
        for layer, seconds in self.self_times().items():
            values[f"{layer}_ms"] = 1000 * seconds / ops
        for name, count in self.counts.items():
            values[name] = count / ops
        values["polynomials.entry_bits_max"] = self.bits_max
        return values

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
