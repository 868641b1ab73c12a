"""Span tracer for traced benchmark runs, installed from outside ``src/``.

Each wrapped entry point records a span (name, start, end, parent) and
folds its duration into per-name call counts, total time and self time
(the span's duration minus the time its child spans cover).  Spans are
kept in memory up to ``SPAN_CAP`` per process and handed back at exit;
the aggregates are exact whatever the cap drops.

Wrappers are bound in the namespace where each caller looks the entry
point up: ``rebind`` replaces every module-level name in ``whcalc.*``
bound to the original object, which covers the modules that import a
function by name (``falg`` takes ``_collapses_to_point`` that way,
``lens`` and ``cli`` take ``homology_c2`` and the ``groupring``
functions).  Methods are replaced on their class.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

SPAN_CAP = 50_000

# (module, attribute, span name).  A dotted attribute names a method.
SPANS = [
    ("whcalc._snf", "smith", "snf"),
    ("whcalc.lattice", "kernel_with_denominator", "lattice.kernel_with_denominator"),
    ("whcalc.lattice", "lattice_basis", "lattice.lattice_basis"),
    ("whcalc.lattice", "quotient_factors", "lattice.quotient"),
    ("whcalc.lattice", "quotient_with_generators", "lattice.quotient"),
    ("whcalc.lattice", "Lattice.__init__", "lattice.Lattice.init"),
    ("whcalc.lattice", "Lattice.reduce", "lattice.Lattice.reduce"),
    ("whcalc.abelian", "homology_c2", "abelian.homology_c2"),
    ("whcalc.abelian", "tate_homology_c2", "abelian.tate_homology_c2"),
    ("whcalc.abelian", "double_subgroup", "abelian.double_subgroup"),
    ("whcalc.abelian", "InvolutiveAbelianGroup.reduce", "abelian.reduce"),
    ("whcalc.abelian", "InvolutiveAbelianGroup.is_zero_element",
     "abelian.is_zero_element"),
    ("whcalc.abelian", "InvolutiveAbelianGroup.act", "abelian.act"),
    ("whcalc.falg", "_membership_rows", "falg.rows"),
    ("whcalc.falg", "_normalization_rows", "falg.rows"),
    ("whcalc.falg", "_delta0_rows", "falg.rows"),
    ("whcalc.falg", "moore_homotopy", "falg.moore_homotopy"),
    ("whcalc.falg", "falg_group", "falg.falg_group"),
    ("whcalc.falg", "normalized_group", "falg.normalized_group"),
    ("whcalc.falg", "psi_is_bijective", "falg.psi_is_bijective"),
    ("whcalc.falg", "TorsionFunctor.value_on", "falg.value_on"),
    ("whcalc.falg", "generalized_duality_holds", "falg.duality"),
    ("whcalc.falg", "_duality_ok", "falg.duality"),
    ("whcalc.falg", "mixed_duality_holds", "falg.duality"),
    ("whcalc.falg", "check_square", "falg.check_square"),
    ("whcalc.simplicial", "is_contractible", "simplicial.collapse"),
    ("whcalc.simplicial", "enumerate_subcomplexes", "simplicial.enumerate"),
    ("whcalc.simplicial", "enumerate_contractible_subcomplexes",
     "simplicial.enumerate"),
    ("whcalc.groupring", "invert_unit", "groupring.invert_unit"),
    ("whcalc.groupring", "wh_class_equal", "groupring.wh_class_equal"),
    ("whcalc.lens", "discrepancy_report", "lens.discrepancy_report"),
    ("whcalc.lens", "inertia_set", "lens.inertia_set"),
    ("whcalc.torsion", "compose", "torsion"),
    ("whcalc.torsion", "reverse", "torsion"),
    ("whcalc.torsion", "double", "torsion"),
    ("whcalc.torsion", "inertial_twist", "torsion"),
    ("whcalc.torsion", "inertial_twist_torsion", "torsion"),
    ("whcalc.torsion", "basepoint_change_torsion", "torsion"),
    ("whcalc.ktheory", "tor_pi_r", "ktheory"),
    ("whcalc.ktheory", "k3_divisibility", "ktheory"),
    ("whcalc.ktheory", "load_facts", "ktheory"),
    ("whcalc.ktheory", "localize", "ktheory"),
    ("whcalc.ktheory", "away_part", "ktheory"),
    ("whcalc.report", "ReportDocument.to_json", "report.serialize"),
    ("whcalc.report", "ReportDocument.to_text", "report.serialize"),
]

# Per-layer metrics a traced run reports: (name, unit).
PER_LAYER = [
    ("snf.calls", "count"), ("snf.self_s", "s"), ("snf.cells", "count"),
    ("snf.nnz", "count"), ("snf.density", "ratio"),
    ("snf.max_rows", "count"), ("snf.max_cols", "count"),
    ("snf.compiled_calls", "count"), ("snf.overflow_fallbacks", "count"),
    ("lattice.kernel_with_denominator.calls", "count"),
    ("lattice.kernel_with_denominator.self_s", "s"),
    ("lattice.lattice_basis.calls", "count"),
    ("lattice.lattice_basis.self_s", "s"),
    ("lattice.quotient.calls", "count"), ("lattice.quotient.self_s", "s"),
    ("lattice.solve.calls", "count"),
    ("lattice.Lattice.init.calls", "count"),
    ("lattice.Lattice.init.self_s", "s"),
    ("lattice.Lattice.reduce.calls", "count"),
    ("lattice.Lattice.reduce.self_s", "s"),
    ("lattice.builds_per_distinct", "ratio"),
    ("abelian.homology_c2.calls", "count"),
    ("abelian.homology_c2.self_s", "s"),
    ("abelian.reduce.calls", "count"),
    ("abelian.is_zero_element.calls", "count"),
    ("abelian.self_s", "s"),
    ("falg.rows.calls", "count"), ("falg.rows.self_s", "s"),
    ("falg.moore_homotopy.self_s", "s"),
    ("falg.value_on.calls", "count"), ("falg.duality.calls", "count"),
    ("falg.check_square.self_s", "s"), ("falg.elements", "count"),
    ("falg.cache_hit_ratio", "ratio"),
    ("simplicial.collapse.calls", "count"),
    ("simplicial.collapse.hit_ratio", "ratio"),
    ("simplicial.enumerate.self_s", "s"),
    ("groupring.invert_unit.calls", "count"),
    ("groupring.invert_unit.self_s", "s"),
    ("groupring.wh_class_equal.calls", "count"),
    ("lens.discrepancy_report.self_s", "s"),
    ("torsion.self_s", "s"), ("ktheory.self_s", "s"),
    ("report.serialize_s", "s"), ("cli.main_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


class Tracer:
    """Span recorder with exact per-name aggregates."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1]
        self.dropped = 0
        self.stack = []  # [child time, span index] per open span
        self.calls = {}
        self.total = {}
        self.self_time = {}
        self.counts = {}
        self.maxima = {}

    def span(self, name, fn, before=None):
        """Wrap ``fn`` so that every call records a span called ``name``.

        ``before(args)`` runs ahead of the span, for counters that need
        the arguments; its time is excluded from every span's self time.
        """
        clock = time.perf_counter
        stack, spans = self.stack, self.spans
        calls, total, self_time = self.calls, self.total, self.self_time
        for table in (calls, total, self_time):
            table.setdefault(name, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = clock()
                before(args)
                if stack:
                    stack[-1][0] += clock() - t
            rec = None
            if len(spans) < SPAN_CAP:
                rec = [name, 0.0, 0.0, stack[-1][1] if stack else -1]
                spans.append(rec)
                frame = [0.0, len(spans) - 1]
            else:
                self.dropped += 1
                frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if rec is not None:
                    rec[1], rec[2] = start, end

        return wrapper

    def counter(self, key, fn):
        """Wrap ``fn`` so that every call bumps ``counts[key]``."""
        counts = self.counts
        counts.setdefault(key, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_iter(self, key, fn):
        """Wrap a generator function so every yielded item bumps ``key``."""
        counts = self.counts
        counts.setdefault(key, 0)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def aggregates(self, groups):
        """Summable per-process totals (JSON-ready); ``groups`` maps a
        metric prefix to the lru caches whose hits and misses it sums."""
        counts = dict(self.counts)
        for key, fns in groups.items():
            infos = [fn.cache_info() for fn in fns]
            counts[key + ".hits"] = sum(i.hits for i in infos)
            counts[key + ".misses"] = sum(i.misses for i in infos)
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "counts": counts,
                "maxima": dict(self.maxima), "dropped": self.dropped}


def whcalc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "whcalc" or name.startswith("whcalc."))]


def rebind(original, replacement, modules, skip=()):
    """Point every module-level name bound to ``original`` at ``replacement``."""
    for mod in modules:
        if mod in skip:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def lru_caches(modules):
    """Module-level lru caches, keyed ``module.name`` by defining module.

    Call before ``install``: the span wrappers hide ``cache_info``.
    """
    out = {}
    for mod in modules:
        for key, value in vars(mod).items():
            if hasattr(value, "cache_info") \
                    and getattr(value, "__module__", None) == mod.__name__:
                out[f"{mod.__name__}.{key}"] = value
    return out


def cache_groups(caches):
    """The caches behind ``falg.cache_hit_ratio`` and the collapse ratio."""
    return {
        "falg.cache": [v for k, v in caches.items() if k.startswith("whcalc.falg.")],
        "simplicial.collapse": [caches["whcalc.simplicial._collapses_to_point"]],
    }


def install(tracer):
    """Wrap the whcalc entry points listed in ``SPANS`` plus the counters."""
    import importlib

    for name in ("whcalc._snf", "whcalc.lattice", "whcalc.abelian",
                 "whcalc.simplicial", "whcalc.falg", "whcalc.groupring",
                 "whcalc.torsion", "whcalc.lens", "whcalc.ktheory",
                 "whcalc.report", "whcalc.cli"):
        importlib.import_module(name)
    modules = whcalc_modules()
    lattice = sys.modules["whcalc.lattice"]
    simplicial = sys.modules["whcalc.simplicial"]
    falg = sys.modules["whcalc.falg"]
    snf = sys.modules["whcalc._snf"]

    distinct = set()

    def snf_args(args):
        rows = args[0]
        m = len(rows)
        n = len(rows[0]) if m else 0
        tracer.bump("snf.cells", m * n)
        tracer.bump("snf.nnz", sum(len(r) - r.count(0) for r in rows))
        tracer.peak("snf.max_rows", m)
        tracer.peak("snf.max_cols", n)

    def lattice_args(args):
        gens, dim = args[1], args[2]
        if isinstance(gens, (list, tuple)):
            key = (tuple(map(tuple, gens)), dim)
            if key not in distinct:
                distinct.add(key)
                tracer.bump("lattice.Lattice.distinct")

    hooks = {"snf": snf_args, "lattice.Lattice.init": lattice_args}
    for mod_name, attr, span_name in SPANS:
        mod = sys.modules[mod_name]
        before = hooks.get(span_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.span(span_name, getattr(cls, meth), before))
        else:
            original = getattr(mod, attr)
            rebind(original, tracer.span(span_name, original, before), modules)

    # Callers outside simplicial only: the recursion inside
    # _collapses_to_point stays the layer's own work.
    collapse = simplicial._collapses_to_point
    rebind(collapse, tracer.span("simplicial.collapse", collapse), modules,
           skip=(simplicial,))
    snf.pure.smith = tracer.counter("snf.pure_calls", snf.pure.smith)
    lattice.Solver.solve = tracer.counter("lattice.solve.calls",
                                          lattice.Solver.solve)
    falg.FAlgGroup.elements = tracer.counted_iter("falg.elements",
                                                  falg.FAlgGroup.elements)


def merge(aggs):
    """Sum the aggregates of several processes (one repetition)."""
    out = {"calls": {}, "total": {}, "self": {}, "counts": {}, "maxima": {},
           "dropped": 0}
    for agg in aggs:
        for table in ("calls", "total", "self", "counts"):
            for key, value in agg[table].items():
                out[table][key] = out[table].get(key, 0) + value
        for key, value in agg["maxima"].items():
            out["maxima"][key] = max(out["maxima"].get(key, 0), value)
        out["dropped"] += agg["dropped"]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg, backend):
    """Per-layer metric values of one repetition, from merged aggregates.

    ``trace.*`` metrics are filled in by the caller, which sees walls.
    """
    calls, self_t, total = agg["calls"], agg["self"], agg["total"]
    counts, maxima = agg["counts"], agg["maxima"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_t.get(name, 0.0)

    snf_calls = c("snf")
    fallbacks = counts.get("snf.pure_calls", 0) if backend == "compiled" else 0
    falg_hits = counts.get("falg.cache.hits", 0)
    falg_lookups = falg_hits + counts.get("falg.cache.misses", 0)
    col_hits = counts.get("simplicial.collapse.hits", 0)
    col_lookups = col_hits + counts.get("simplicial.collapse.misses", 0)
    return {
        "snf.calls": snf_calls,
        "snf.self_s": s("snf"),
        "snf.cells": counts.get("snf.cells", 0),
        "snf.nnz": counts.get("snf.nnz", 0),
        "snf.density": _ratio(counts.get("snf.nnz", 0), counts.get("snf.cells", 0)),
        "snf.max_rows": maxima.get("snf.max_rows", 0),
        "snf.max_cols": maxima.get("snf.max_cols", 0),
        "snf.compiled_calls": snf_calls - fallbacks if backend == "compiled" else 0,
        "snf.overflow_fallbacks": fallbacks,
        "lattice.kernel_with_denominator.calls": c("lattice.kernel_with_denominator"),
        "lattice.kernel_with_denominator.self_s": s("lattice.kernel_with_denominator"),
        "lattice.lattice_basis.calls": c("lattice.lattice_basis"),
        "lattice.lattice_basis.self_s": s("lattice.lattice_basis"),
        "lattice.quotient.calls": c("lattice.quotient"),
        "lattice.quotient.self_s": s("lattice.quotient"),
        "lattice.solve.calls": counts.get("lattice.solve.calls", 0),
        "lattice.Lattice.init.calls": c("lattice.Lattice.init"),
        "lattice.Lattice.init.self_s": s("lattice.Lattice.init"),
        "lattice.Lattice.reduce.calls": c("lattice.Lattice.reduce"),
        "lattice.Lattice.reduce.self_s": s("lattice.Lattice.reduce"),
        "lattice.builds_per_distinct": _ratio(
            c("lattice.Lattice.init"), counts.get("lattice.Lattice.distinct", 0)),
        "abelian.homology_c2.calls": c("abelian.homology_c2"),
        "abelian.homology_c2.self_s": s("abelian.homology_c2"),
        "abelian.reduce.calls": c("abelian.reduce"),
        "abelian.is_zero_element.calls": c("abelian.is_zero_element"),
        "abelian.self_s": sum(v for k, v in self_t.items()
                              if k.startswith("abelian.")),
        "falg.rows.calls": c("falg.rows"),
        "falg.rows.self_s": s("falg.rows"),
        "falg.moore_homotopy.self_s": s("falg.moore_homotopy"),
        "falg.value_on.calls": c("falg.value_on"),
        "falg.duality.calls": c("falg.duality"),
        "falg.check_square.self_s": s("falg.check_square"),
        "falg.elements": counts.get("falg.elements", 0),
        "falg.cache_hit_ratio": _ratio(falg_hits, falg_lookups),
        "simplicial.collapse.calls": c("simplicial.collapse"),
        "simplicial.collapse.hit_ratio": _ratio(col_hits, col_lookups),
        "simplicial.enumerate.self_s": s("simplicial.enumerate"),
        "groupring.invert_unit.calls": c("groupring.invert_unit"),
        "groupring.invert_unit.self_s": s("groupring.invert_unit"),
        "groupring.wh_class_equal.calls": c("groupring.wh_class_equal"),
        "lens.discrepancy_report.self_s": s("lens.discrepancy_report"),
        "torsion.self_s": s("torsion"),
        "ktheory.self_s": s("ktheory"),
        "report.serialize_s": total.get("report.serialize", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
    }
