"""Outside-in tracing of valmono for the per-layer metrics.

``Tracer.install`` wraps every public function of the traced modules and
a few methods, and rebinds each wrapper in every ``valmono`` module
namespace that holds the original object (names imported with ``from .x
import y`` are copies of the reference).  Functions that import from a
sibling module inside their body see the wrapper because the sibling's
own attribute is replaced.  The program is not edited.

A span is ``[name, start, end, parent, problem]``; spans stay in memory
and are written out once by the caller.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("values", "polyalg", "_linalg", "framing", "game", "keypoly", "unifseq", "trace", "cli")

# method -> span name; MultiPoly.__sub__ is ``self + (-other)``, so the
# __add__ span covers both operators
METHODS = {
    ("polyalg", "MultiPoly", "__mul__"): "polyalg.MultiPoly.mul",
    ("polyalg", "MultiPoly", "__add__"): "polyalg.MultiPoly.add",
    ("polyalg", "FieldTower", "inv"): "polyalg.FieldTower.inv",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._problem = [-1]
        self._seen: dict[str, set] = defaultdict(set)

    def start_problem(self, index: int) -> None:
        self._problem[0] = index
        self._seen.clear()

    # -- statistics computed at a boundary, outside the span's interval ----

    def _repeat(self, name: str, key) -> None:
        self.counts[name + ".repeat_total"] += 1
        seen = self._seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    def _stat(self, name: str, args, result) -> None:
        c = self.counts
        if name == "values.compare":
            a, b = args[0].coords, args[1].coords
            if any(x != y for x, y in zip(a[1:], b[1:])):
                c["values.compare.refine"] += 1
        elif name == "polyalg.MultiPoly.mul":
            c[name + ".term_pairs"] += len(args[0].terms) * len(args[1].terms)
        elif name == "polyalg.euclid_divide":
            q = result[0]
            xi = q.var_index(args[2])
            c[name + ".steps"] += len({e[xi] for e in q.terms})
        elif name == "polyalg.q_adic_expansion":
            c[name + ".digits"] += len(result)
        elif name == "polyalg.apply_monomial_map":
            c[name + ".terms"] += len(args[0].terms)
        elif name == "framing.push_polynomial_through_step":
            self._repeat(name, (args[0], args[2]))
        elif name == "keypoly.standard_expansion":
            self._repeat(name, (args[0], args[1], args[2]))

    _STATS = {
        "values.compare", "polyalg.MultiPoly.mul", "polyalg.euclid_divide",
        "polyalg.q_adic_expansion", "polyalg.apply_monomial_map",
        "framing.push_polynomial_through_step", "keypoly.standard_expansion",
    }

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, problem = self.spans, self._stack, self._problem
        clock = time.perf_counter
        stat = self._stat if name in self._STATS else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1], problem[0]]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if stat is not None:
                stat(name, args, result)
            return result

        return wrapper

    def _count_tower_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def mul(tower, a, b):
            if tower.extensions:
                counts["polyalg.FieldTower.mul.tower_calls"] += 1
            return fn(tower, a, b)

        return mul

    def install(self) -> None:
        """Wrap the package in place; call once, before any traced work."""
        mods = {m: importlib.import_module(f"valmono.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._span(f"{short}.{attr}", obj)
        for mod in [m for n, m in sys.modules.items() if n == "valmono" or n.startswith("valmono.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    setattr(mod, attr, wrapped[id(obj)])
        for (short, cls_name, meth), name in METHODS.items():
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self._span(name, getattr(cls, meth)))
        tower = mods["polyalg"].FieldTower
        tower.mul = self._count_tower_mul(tower.mul)

    # -- reduction ---------------------------------------------------------

    def by_name(self) -> tuple[Counter, dict]:
        """Per span name: number of calls and summed self time."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[k]
        return calls, self_s
