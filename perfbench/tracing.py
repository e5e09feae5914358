"""Per-layer tracing for the benchmark, from outside the program.

``Tracer.install()`` replaces modelbench functions at every site where a
caller looks them up: each module global (in modelbench and in the
benchmark's own modules) that holds the original function, and the class
attribute for methods.  ``restore()`` puts the originals back.

Layer boundaries get spans (name, parent, start, end), kept in memory and
written out by ``dump()``.  Hot leaves get counters only.  A span's self time
is its duration minus the time its child spans cover.  Shares of distinct
argument values are computed here, with functors and categories compared by
value, not inside the program.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


# Per-layer counts summed from arguments or results of wrapped calls.
TALLIES = {
    "enumfun.enumerate_functors.pinned_calls", "enumfun.enumerate_functors.results",
    "diagrams.saturate.classes", "diagrams.saturate.possibly_infinite",
    "ambient.lift_candidates.results", "factor.universal.cocones_checked",
    "search.is_orthogonal.squares_checked", "search.find_lifting.found",
    "search.find_retract.found", "cells.small_object_factorization.stages_used",
    "linalg.rref.entries",
}


class Tracer:
    def __init__(self, extra_modules=()):
        self.spans = []                 # [name, parent index or -1, start ns, end ns]
        self._stack = []
        self.counts = Counter()         # counter-only calls and per-layer tallies
        self.horizon_max = 0            # longest path horizon saturate explored
        self.distinct = defaultdict(set)
        self._cats = {}                 # id -> (FinCat, value id); holds the FinCat alive
        self._cat_values = {}
        self._extra_modules = list(extra_modules)
        self._patches = []
        self.layers = set()             # names of wrapped functions

    # -- values ------------------------------------------------------------

    def cat_id(self, C):
        entry = self._cats.get(id(C))
        if entry is None:
            value = (tuple(C.objects), tuple(C.morphisms),
                     frozenset(C.identity.items()), frozenset(C.compose_table.items()))
            entry = self._cats[id(C)] = (C, self._cat_values.setdefault(value, len(self._cat_values)))
        return entry[1]

    def functor_value(self, F):
        return (self.cat_id(F.source), self.cat_id(F.target),
                frozenset(F.obj_map.items()), frozenset(F.mor_map.items()))

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        self.layers.add(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter_ns(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter_ns()
            if after is not None:
                after(result)
            return result

        return wrapper

    def counter(self, name, fn, before=None, after=None):
        counts = self.counts
        self.layers.add(name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_function(self, module, attr, make):
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        sites = [m for name, m in list(sys.modules.items())
                 if name == "modelbench" or name.startswith("modelbench.")]
        for site in sites + self._extra_modules:
            for key, value in list(vars(site).items()):
                if value is original:
                    setattr(site, key, wrapped)
                    self._patches.append((site, key, original))

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def install(self):
        from modelbench.catmodel.ambient import CatAmbient
        from modelbench.fincat.core import FinCat, Functor

        c, d = self.counts, self.distinct

        def tally(key, value):
            c[key] += value

        def functors_in(args, kwargs):
            pinned = _arg(args, kwargs, 2, "fixed_obj") or _arg(args, kwargs, 3, "fixed_mor")
            tally("enumfun.enumerate_functors.pinned_calls", bool(pinned))

        def saturated(result):
            self.horizon_max = max(self.horizon_max, result.explored_len)
            tally("diagrams.saturate.classes", result.class_count)
            tally("diagrams.saturate.possibly_infinite", result.status == "possibly_infinite")

        def orthogonal_in(args, kwargs):
            d["search.is_orthogonal"].add(
                (self.functor_value(args[1]), self.functor_value(args[2])))

        def rref_in(args, kwargs):
            a = args[0]
            tally("linalg.rref.entries", len(a) * (len(a[0]) if a else 0))

        functions = [
            ("modelbench.fincat.enumfun", "enumerate_functors", "enumfun.enumerate_functors",
             functors_in, lambda r: tally("enumfun.enumerate_functors.results", len(r))),
            ("modelbench.fincat.enumfun", "natural_isos", "enumfun.natural_isos", None, None),
            ("modelbench.fincat.diagrams", "colimit", "diagrams.colimit", None, None),
            ("modelbench.fincat.diagrams", "saturate", "diagrams.saturate", None, saturated),
            ("modelbench.catmodel.classify", "classify", "classify",
             lambda a, k: d["classify"].add(self.functor_value(a[0])), None),
            ("modelbench.catmodel.factor", "functor_cylinder_factorization",
             "factor.cylinder_factorization", None, None),
            ("modelbench.catmodel.factor", "functor_cocylinder_factorization",
             "factor.cocylinder_factorization", None, None),
            ("modelbench.catmodel.interval", "cylinder", "interval.cylinder", None, None),
            ("modelbench.catmodel.interval", "path_object", "interval.path_object", None, None),
            ("modelbench.catmodel.homotopy", "naturally_isomorphic",
             "homotopy.naturally_isomorphic", None, None),
            ("modelbench.catmodel.homotopy", "ho_hom", "homotopy.ho_hom", None, None),
            ("modelbench.lifting.search", "is_orthogonal", "search.is_orthogonal", orthogonal_in,
             lambda r: tally("search.is_orthogonal.squares_checked", r.squares_checked)),
            ("modelbench.lifting.search", "find_lifting", "search.find_lifting", None,
             lambda r: tally("search.find_lifting.found", r is not None)),
            ("modelbench.lifting.search", "find_retract", "search.find_retract", None,
             lambda r: tally("search.find_retract.found", r is not None)),
            ("modelbench.lifting.axioms", "check_model_axioms", "axioms.check_model_axioms",
             None, None),
            ("modelbench.lifting.cells", "cell_step", "cells.cell_step", None, None),
            ("modelbench.complexes", "cone", "complexes.cone", None, None),
            ("modelbench.complexes", "cohomology", "complexes.cohomology", None, None),
            ("modelbench.complexes", "section_condition", "complexes.section_condition",
             None, None),
            ("modelbench.linalg", "rref", "linalg.rref", rref_in, None),
            ("modelbench.linalg", "nullspace", "linalg.nullspace", None, None),
            ("modelbench.linalg", "solve", "linalg.solve", None, None),
            ("modelbench.linalg", "rank", "linalg.rank", None, None),
        ]
        for module, attr, name, before, after in functions:
            self._patch_function(module, attr,
                                 lambda fn, n=name, b=before, a=after: self.span(n, fn, b, a))

        counted = [
            ("modelbench.lifting.cells", "small_object_factorization",
             "cells.small_object_factorization", None,
             lambda r: tally("cells.small_object_factorization.stages_used", r.stages_used)),
            ("modelbench.catmodel.factor", "cylinder_pushout_check", "factor.universal", None,
             lambda r: tally("factor.universal.cocones_checked", r.cocones_checked)),
            ("modelbench.catmodel.factor", "cocylinder_pullback_check", "factor.universal", None,
             lambda r: tally("factor.universal.cocones_checked", r.cocones_checked)),
        ]
        for module, attr, name, before, after in counted:
            self._patch_function(module, attr,
                                 lambda fn, n=name, b=before, a=after: self.counter(n, fn, b, a))

        def between_in(args, kwargs):
            d["ambient.morphisms_between"].add(
                (args[0], self.cat_id(args[1]), self.cat_id(args[2])))

        methods = [
            (FinCat, "__eq__", lambda fn: self.counter("core.FinCat.eq", fn)),
            (Functor, "then", lambda fn: self.counter("core.Functor.then", fn)),
            (Functor, "validate", lambda fn: self.counter("core.Functor.validate", fn)),
            (CatAmbient, "morphisms_between",
             lambda fn: self.counter("ambient.morphisms_between", fn, between_in)),
            (CatAmbient, "lift_candidates", lambda fn: self.span(
                "ambient.lift_candidates", fn,
                after=lambda r: tally("ambient.lift_candidates.results", len(r)))),
            (CatAmbient, "attach_cells", lambda fn: self.span("ambient.attach_cells", fn)),
            (CatAmbient, "attachment_squares",
             lambda fn: self.span("ambient.attachment_squares", fn)),
        ]
        for cls, attr, make in methods:
            self._patch_method(cls, attr, make)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        child = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_ns = Counter(), Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += end - start - child[i]
        return calls, {name: ns / 1e9 for name, ns in self_ns.items()}

    def layer_metrics(self, names):
        """Values of the named per-layer metrics for what was traced so far."""
        calls, self_s = self.self_times()
        calls.update(self.counts)
        c, d = self.counts, self.distinct

        def share(part, whole):
            return part / whole if whole else 0.0

        derived = {
            "diagrams.saturate.horizon_max": self.horizon_max,
            "classify.distinct_share": share(len(d["classify"]), calls["classify"]),
            "search.is_orthogonal.distinct_share": share(
                len(d["search.is_orthogonal"]), calls["search.is_orthogonal"]),
            "search.find_lifting.found_share": share(
                c["search.find_lifting.found"], calls["search.find_lifting"]),
            # A call hits when the same ambient was already asked for the same
            # (source, target) pair by value, as its functor cache would be.
            "ambient.morphisms_between.hit_share": share(
                calls["ambient.morphisms_between"] - len(d["ambient.morphisms_between"]),
                calls["ambient.morphisms_between"]),
        }
        out = {}
        for name in names:
            layer, _, stat = name.rpartition(".")
            if name in derived:
                out[name] = derived[name]
            elif stat == "calls" and layer in self.layers:
                out[name] = calls[layer]
            elif stat == "self_s" and layer in self.layers:
                out[name] = self_s.get(layer, 0.0)
            elif name in TALLIES:
                out[name] = c[name]
            else:
                raise KeyError(f"no per-layer metric {name}")
        return out

    def dump(self, path, header):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump({**header, "span_names": names, "counts": dict(self.counts),
                       "span_fields": ["name", "parent", "start_ns", "end_ns"]}, f)
            f.write("\n")
            for name, parent, start, end in self.spans:
                f.write(f"[{index[name]},{parent},{start},{end}]\n")
