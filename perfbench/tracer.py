"""Span tracer installed from outside the program.

`Tracer.install()` wraps the public functions of each qmcnet layer module and
rebinds every `qmcnet.*` module attribute (and module-level dict value) that
refers to one of them, because `cli`, `norms` and `walsh` import these names
directly.  Each wrapped call records a span: name, job, parent span, start
and end.  Leaf functions called once per point get a call counter instead of
a span, since a span there would cost more than the call.  Spans stay in
memory; `write_jsonl` writes them out at the end of a run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "families", "nets", "cs", "field", "haar", "walsh", "norms")
METHODS = (("nets", "PointSet", "fractions"), ("cs", "CodeSpace", "words"))
COUNTED = {
    "haar.indicator_coeff",
    "haar.volume_coeff",
    "walsh.walsh_eval_1d",
    "walsh.fine_price_coeff",
    "walsh.terminating_digits",
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _path_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


class Tracer:
    """Spans and work counters of one process, grouped by job."""

    def __init__(self):
        self.spans: list[list] = []  # [name, job, parent, start, end]
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._levels: dict[str, set] = defaultdict(set)
        self._pinned: list = []  # keeps point sets alive so their ids stay unique

    # --- work counters computed from a call's arguments and result ----------

    def _work(self, name, args, kwargs, result) -> None:
        add = self.counters
        job = self.job
        if name == "haar.level_aggregate":
            p = _arg(args, kwargs, 0, "p")
            self._pinned.append(p)
            self._levels[job].add((id(p), result.j))
            add[job, name + ".occupied_boxes"] += result.occupied
            add[job, name + ".l_combos"] += len(result.l_combos)
        elif name == "haar.discrepancy_coeff":
            add[job, name + ".points"] += _arg(args, kwargs, 0, "p").size
        elif name == "norms.coeff_bound_audit":
            add[job, name + ".levels"] += (result.cap + 2) ** result.d  # computed
        elif name == "norms.warnock_l2":
            add[job, name + ".pairs"] += _arg(args, kwargs, 0, "p").size ** 2
        elif name == "nets.generate_points":
            add[job, name + ".points"] += result.size
            add[job, name + ".digit_bytes"] += result.size * result.n * 8  # computed
        elif name in ("nets.save_pointset", "nets.load_pointset"):
            add[job, name + ".bytes"] += _path_bytes(_arg(args, kwargs, -1, "path"))
        elif name == "nets.is_net":
            p = _arg(args, kwargs, 0, "p")
            add[job, name + ".shapes"] += math.comb(p.n + p.d - 1, p.d - 1)  # computed
        elif name == "nets.dual_set":
            add[job, name + ".elements"] += len(result)
        elif name == "cs.verify_dual_properties":
            add[job, name + ".words"] += result.words_checked
        elif name == "walsh.theta":
            dual = kwargs.get("dual", args[3] if len(args) > 3 else None)
            if dual is not None:
                add[job, name + ".dual_terms"] += len(dual)
        elif name == "field.enumerate_span":
            add[job, name + ".words"] += len(result)

    # --- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.job, self._stack[-1] if self._stack else None, 0.0, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                self._stack.pop()
            try:
                self._work(name, args, kwargs, result)
            except Exception:  # a changed signature must not fail the traced job
                self.counters[self.job, "trace.counter_errors"] += 1
            return result

        return wrapper

    def _count(self, name, fn):
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[self.job, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind all references."""
        swap = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"qmcnet.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{layer}.{attr}"
                make = self._count if name in COUNTED else self._span
                swap[id(obj)] = make(name, obj)
        for layer, cls, meth in METHODS:
            klass = getattr(importlib.import_module(f"qmcnet.{layer}"), cls)
            setattr(klass, meth, self._span(f"{layer}.{cls}.{meth}", getattr(klass, meth)))
        for modname, mod in list(sys.modules.items()):
            if modname != "qmcnet" and not modname.startswith("qmcnet."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in swap:
                            obj[key] = swap[id(val)]

    # --- results -------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per job: {<name>.calls, <name>.s, <name>.self_s, counters, ...}.

        `.s` sums only the outermost span of a name, so recursion is not
        counted twice; self time is a span's duration minus its children's.
        """
        child_time = [0.0] * len(self.spans)
        for name, job, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for k, (name, job, parent, start, end) in enumerate(self.spans):
            row = out[job]
            dur = end - start
            row[name + ".calls"] += 1
            row[name + ".self_s"] += dur - child_time[k]
            anc = parent
            while anc is not None and self.spans[anc][0] != name:
                anc = self.spans[anc][2]
            if anc is None:
                row[name + ".s"] += dur
        for (job, key), val in self.counters.items():
            out[job][key] += val
        for job, levels in self._levels.items():
            out[job]["haar.level_aggregate.distinct"] = len(levels)
        return {job: dict(row) for job, row in out.items()}

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for k, (name, job, parent, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": k, "name": name, "job": job, "parent": parent,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
