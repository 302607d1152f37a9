"""Outside-in tracing of one looplab job.

The tracer wraps the public functions of each looplab layer from outside
the package: it replaces every binding of a traced function object, in
every loaded ``looplab`` module, with a wrapper.  Rebinding by identity
matters because ``from .gf2 import rref`` gives ``homology`` its own
name for the same object, and patching ``gf2`` alone would miss it.

Spans (name, parent span, start, end) are kept in memory and written
out when the job ends: a JSON header line, then the four span columns
as raw arrays.  Functions that run once per element
(``FiniteAModule.sq_label`` runs about 1.6M times on cp1) get a call
counter instead of a span, which keeps the tracing cost bounded.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array
from collections import Counter
from functools import reduce
from operator import or_

# (metric name, module, attribute path, kind).  "span" records a span per
# call; "count" only counts calls.
TARGETS = (
    ("gf2.rref", "gf2", "rref", "span"),
    ("gf2.transpose", "gf2", "transpose", "span"),
    ("gf2.kernel_basis", "gf2", "kernel_basis", "span"),
    ("gf2.left_kernel", "gf2", "left_kernel", "span"),
    ("gf2.intersect", "gf2", "intersect", "span"),
    ("gf2.quotient_reps", "gf2", "quotient_reps", "span"),
    ("gf2.solve_in_span", "gf2", "solve_in_span", "span"),
    ("algebra.monomial_basis", "algebra", "monomial_basis", "span"),
    ("algebra.Form.from_monos", "algebra", "Form.from_monos", "count"),
    ("simplicial.face", "simplicial", "face", "span"),
    ("simplicial.degeneracy", "simplicial", "degeneracy", "span"),
    ("simplicial.mono_face", "simplicial", "mono_face", "count"),
    ("homology.homology_dim", "homology", "homology_dim", "span"),
    ("homology.normalized_basis", "homology", "normalized_basis", "span"),
    ("homology.koszul_dim", "homology", "koszul_dim", "span"),
    ("closedform.main1_dims", "closedform", "main1_dims", "span"),
    ("closedform.loop_module", "closedform", "loop_module", "span"),
    ("steenrod.FiniteAModule", "steenrod", "FiniteAModule.__init__", "span"),
    ("steenrod.check_instability", "steenrod", "check_instability", "span"),
    ("steenrod.check_cartan", "steenrod", "check_cartan", "span"),
    ("steenrod.check_adem", "steenrod", "check_adem", "span"),
    ("steenrod.module_iso", "steenrod", "module_iso", "span"),
    ("steenrod.sq_label", "steenrod", "FiniteAModule.sq_label", "count"),
    ("steenrod.product_set", "steenrod", "FiniteAModule.product_set", "count"),
    ("ez.run_trials", "ez", "run_trials", "span"),
    ("ez.shuffle_product", "ez", "shuffle_product", "span"),
    ("thom.model_module_f2", "thom", "model_module_f2", "span"),
    ("thom.model_homology_z", "thom", "model_homology_z", "span"),
    ("thom.reference_loop_homology", "thom", "reference_loop_homology", "span"),
    ("thom.loop_dictionary", "thom", "loop_dictionary", "span"),
    ("cli.main", "cli", "main", "span"),
)

# Counters beside the call counts; they read 0 when nothing was counted.
SIZES = (
    "gf2.rref.rows",
    "gf2.left_kernel.rows",
    "gf2.max_rows",
    "gf2.max_cols",
    "algebra.monomial_basis.monos",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One entry per span: name index, parent span index (-1 at top), start, end.
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.counters: dict[str, itertools.count] = {}
        self.missing: list[str] = []

    def _span(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.ids, self.parents, self.starts, self.ends
        stack, clock = self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        calls = itertools.count()
        self.counters[name + ".calls"] = calls
        tick = calls.__next__  # the cheapest counter; these run millions of times

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _gf2_sizes(self, name: str):
        """Row counts and the largest matrix seen, from the first argument
        (the row list) and the trailing ncols argument where there is one."""
        counts = self.counts

        def after(args, _result):
            rows = args[0]
            n_rows = len(rows)
            if name == "gf2.rref":
                n_cols = reduce(or_, rows, 0).bit_length()
            else:
                n_cols = args[-1]
            if name + ".rows" in SIZES:
                counts[name + ".rows"] += n_rows
            counts["gf2.max_rows"] = max(counts["gf2.max_rows"], n_rows)
            counts["gf2.max_cols"] = max(counts["gf2.max_cols"], n_cols)

        return after

    def _after(self, name: str):
        if name.startswith("gf2."):
            return self._gf2_sizes(name)
        if name == "algebra.monomial_basis":
            counts = self.counts

            def after(_args, result):
                counts["algebra.monomial_basis.monos"] += len(result)

            return after
        return None

    def install(self) -> None:
        """Wrap every target in the loaded looplab modules."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "looplab" and m]
        for name, module_name, path, kind in TARGETS:
            home = sys.modules.get(f"looplab.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            if kind == "span":
                wrapped = self._span(name, fn, self._after(name))
            else:
                wrapped = self._counter(name, fn)
            if owner_name:
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        cache = None
        pipeline = getattr(sys.modules.get("looplab.homology"), "_pipeline", None)
        if hasattr(pipeline, "cache_info"):
            info = pipeline.cache_info()
            cache = [info.hits, info.misses]
        for key, calls in self.counters.items():
            self.counts[key] = next(calls)
        header = {
            "names": self.names,
            "spans": len(self.ids),
            "counts": self.counts,
            "cache": cache,
            "missing": self.missing,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.ids, self.parents, self.starts, self.ends):
                column.tofile(handle)


def load(path) -> dict:
    """Read a trace written by Tracer.dump; spans become four columns."""
    with open(path, "rb") as handle:
        trace = json.loads(handle.readline())
        n = trace["spans"]
        columns = []
        for code in "iidd":
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    trace["ids"], trace["parents"], trace["starts"], trace["ends"] = columns
    return trace
