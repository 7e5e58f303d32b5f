"""In-memory span tracer installed around harmradius' module boundaries.

The benchmark does not edit the package.  ``Tracer.install`` replaces,
from outside, the references each harmradius module holds to functions of
its sibling modules (``radii.weighted_sum``, ``cli.radius_by_bisection``,
the package's re-exports, ...) plus a few methods called across modules
(``HarmonicMap.__call__/wirtinger/jacobian/from_series``,
``JacobianProfile.__call__``), the scipy pair search in ``membership``
and its ``argsort``.  Each wrapper records one span: name, start, end,
parent and a quantity (points evaluated, pairs found).  ``uninstall``
puts every original back.

The layer of a span is the first component of its name: ``import``,
``cli``, ``coefficients``, ``maps``, ``extremals``, ``membership``,
``radii``, ``bloch``; spans named ``op.*`` are the benchmark's own
operations.  A layer's self time is its spans' durations minus the part
covered by their child spans, so the self times under an operation add
up to the operation's span; ``SpanTable.nesting`` checks that every
child span lies inside its parent, so that no self time is negative.
"""

import functools
import time
import types
from array import array

MODULES = ("cli", "coefficients", "maps", "extremals", "membership", "radii", "bloch")
MAP_METHODS = ("__call__", "wirtinger", "jacobian")


def _weighted_sum_variant(args, kwargs):
    x = args[0]
    if type(x).__name__ == "BoundFamily":
        return "family", 0.0
    return ("tailed" if x.tail is not None else "seq"), 0.0


def _map_variant(args, kwargs):
    f, z = args[0], args[1]
    backing = "series" if f.is_series else "closed"
    size = getattr(z, "size", 1) if getattr(z, "ndim", 0) else 1
    return f"{backing},{'array' if getattr(z, 'ndim', 0) else 'scalar'}", float(size)


def _injectivity_variant(args, kwargs):
    res = args[2] if len(args) > 2 else kwargs.get("resolution", 256)
    return f"res{int(res)}", 0.0


# Per-call variants, appended to the span name as "[...]".
VARIANTS = {
    "coefficients.weighted_sum": _weighted_sum_variant,
    "membership.injectivity_oracle": _injectivity_variant,
}


class Tracer:
    """Spans kept in flat arrays; index order is opening order, so a
    parent always has a smaller index than its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.qty = array("d")
        self._stack = [-1]
        self._undo = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str, qty: float = 0.0) -> int:
        i = len(self.nid)
        self.nid.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.qty.append(qty)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @property
    def current(self) -> int:
        return self._stack[-1]

    def wrap(self, fn, name: str, variant=None):
        """fn wrapped in a span named name (or name[variant] per call)."""
        nids, parents, starts, ends, qtys = (self.nid, self.parent, self.start,
                                             self.end, self.qty)
        stack, clock = self._stack, time.perf_counter
        base = self.name_id(name)
        variant_ids: dict[str, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if variant is None:
                nid, qty = base, 0.0
            else:
                sub, qty = variant(args, kwargs)
                nid = variant_ids.get(sub)
                if nid is None:
                    nid = variant_ids[sub] = self.name_id(f"{name}[{sub}]")
            i = len(nids)
            nids.append(nid)
            parents.append(stack[-1])
            qtys.append(qty)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    # -- installing wrappers into harmradius --------------------------------

    def _patch(self, obj, attr, new) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def install(self, hr) -> None:
        """Wrap every cross-module call path of the package hr."""
        import importlib

        mods = {m: importlib.import_module(f"harmradius.{m}") for m in MODULES}
        for ns in [hr, *mods.values()]:
            for attr, obj in list(vars(ns).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.split(".")
                if (len(owner) == 2 and owner[0] == "harmradius"
                        and owner[1] in MODULES and obj.__module__ != ns.__name__):
                    name = f"{owner[1]}.{obj.__name__}"
                    self._patch(ns, attr, self.wrap(obj, name, VARIANTS.get(name)))

        hm = mods["maps"].HarmonicMap
        for meth in MAP_METHODS:
            self._patch(hm, meth, self.wrap(vars(hm)[meth],
                                            f"maps.HarmonicMap.{meth}", _map_variant))
        self._patch(hm, "from_series", classmethod(
            self.wrap(vars(hm)["from_series"].__func__, "maps.HarmonicMap.from_series")))
        jp = mods["extremals"].JacobianProfile
        self._patch(jp, "__call__", self.wrap(vars(jp)["__call__"],
                                               "extremals.JacobianProfile.__call__"))

        mem = mods["membership"]
        self._patch(mem, "cKDTree", _traced_tree(self, mem.cKDTree))
        self._patch(mem, "np", _NumpyWithTracedSort(
            mem.np, self.wrap(mem.np.argsort, "membership.sort")))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)

    # -- spans from a traced child process ----------------------------------

    def export(self) -> dict:
        return {"names": self.names, "nid": list(self.nid), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end), "qty": list(self.qty)}

    def merge(self, doc: dict, parent: int) -> None:
        """Append a child process's exported spans under span parent.

        perf_counter reads CLOCK_MONOTONIC, so the child's times are on
        this process's time axis."""
        ids = [self.name_id(n) for n in doc["names"]]
        offset = len(self.nid)
        self.nid.extend(ids[k] for k in doc["nid"])
        self.parent.extend(p + offset if p >= 0 else parent for p in doc["parent"])
        self.start.extend(doc["start"])
        self.end.extend(doc["end"])
        self.qty.extend(doc["qty"])


def _traced_tree(tracer: Tracer, real):
    """A cKDTree stand-in: build and query_pairs are membership.pair_search
    spans; the number of candidate pairs is the query span's quantity."""

    class TracedTree:
        def __init__(self, *args, **kwargs):
            i = tracer.open("membership.pair_search[build]")
            try:
                self._tree = real(*args, **kwargs)
            finally:
                tracer.close(i)

        def query_pairs(self, *args, **kwargs):
            i = tracer.open("membership.pair_search[query]")
            try:
                out = self._tree.query_pairs(*args, **kwargs)
                tracer.qty[i] = float(len(out))
                return out
            finally:
                tracer.close(i)

    return TracedTree


class _NumpyWithTracedSort:
    """numpy as seen by membership, with argsort recorded as a span."""

    def __init__(self, np_module, argsort):
        self._np = np_module
        self.argsort = argsort

    def __getattr__(self, name):
        return getattr(self._np, name)


# -- analysis ----------------------------------------------------------------

class SpanTable:
    """numpy view of a Tracer's spans with self times and ancestry."""

    def __init__(self, tracer: Tracer):
        import numpy as np

        self.np = np
        self.names = tracer.names
        self.nid = np.frombuffer(tracer.nid, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.dur = np.frombuffer(tracer.end, dtype=np.float64) - self.start
        self.qty = np.frombuffer(tracer.qty, dtype=np.float64).copy()
        n = len(self.nid)
        has = self.parent >= 0
        covered = np.bincount(self.parent[has], weights=self.dur[has], minlength=n)
        self.self_time = self.dur - covered
        # root[i]: the outermost span above i (pointer jumping; parent < child)
        root = np.where(has, self.parent, np.arange(n))
        while n and not np.array_equal(root, root[root]):
            root = root[root]
        self.root = root
        self.layer_of = np.array([nm.split(".", 1)[0] for nm in self.names] or [""])

    def mask(self, *prefixes: str):
        """Spans whose full name (with variant) starts with one of prefixes."""
        np = self.np
        hit = [i for i, nm in enumerate(self.names) if nm.startswith(prefixes)]
        return np.isin(self.nid, hit)

    def layer_mask(self, layer: str):
        np = self.np
        return np.isin(self.nid, np.flatnonzero(self.layer_of == layer))

    def owner(self, owner_mask):
        """Index of the nearest enclosing span in owner_mask (or -1)."""
        np = self.np
        own = np.where(owner_mask, np.arange(len(self.nid)), -1)
        has = self.parent >= 0
        while True:
            inherit = (own < 0) & has
            nxt = own.copy()
            nxt[inherit] = own[self.parent[inherit]]
            if np.array_equal(nxt, own):
                return own
            own = nxt

    def nesting(self) -> tuple[float, float]:
        """(largest overhang of a span beyond its parent's [start, end],
        smallest self time), in seconds.  A well-nested trace has no
        overhang (<= 0) and no negative self time."""
        np = self.np
        has = self.parent >= 0
        if not has.any():
            return 0.0, float(np.min(self.self_time, initial=0.0))
        p = self.parent[has]
        end = self.start + self.dur
        overhang = np.maximum(self.start[p] - self.start[has], end[has] - end[p])
        return float(np.max(overhang)), float(np.min(self.self_time))

    def selftime_gap(self) -> float:
        """Largest |sum of self times under an op - the op's duration| (s);
        zero by construction, printed as a report line."""
        np = self.np
        if not len(self.nid):
            return 0.0
        total = np.bincount(self.root, weights=self.self_time, minlength=len(self.nid))
        roots = self.parent < 0
        return float(np.max(np.abs(total[roots] - self.dur[roots])))
