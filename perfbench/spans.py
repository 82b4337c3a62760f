"""Spans around the calls into each extremap layer, recorded from outside.

``Tracer.install`` wraps every public function of the layer modules,
and the public methods of ``IntervalUnion`` and ``FullBranchMap``, and
rebinds each wrapper wherever an extremap module holds the original
(``cli`` and ``montecarlo`` import names with ``from ... import``).
The private ``montecarlo._map_tasks`` is wrapped too, so each Monte
Carlo kernel batch is one span named by kernel kind and family; at
workers > 1 that span includes process-pool start-up and transfer.

Spans (name, start, end, parent) are kept in memory as flat int64
arrays and written out by ``save``.  A span's self time is its duration
minus that of its direct children, which nest on the one thread;
``inclusive_s`` gives the time inside a set of spans, children included.
"""

from __future__ import annotations

import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("intervals", "maps", "events", "brackets", "montecarlo", "cli")
TRACED_CLASSES = (("intervals", "IntervalUnion"), ("maps", "FullBranchMap"))


def _len(args, kwargs, result):
    return len(result)


def _union_len(args, kwargs, result):
    return len(result) if hasattr(result, "components") else 0


def _cells(args, kwargs, result):
    return result.size


def _bytes(args, kwargs, result):
    return sum(p.stat().st_size for p in result)


def _return_steps(args, kwargs, result):
    horizon = args[2] if len(args) > 2 else kwargs.get("horizon", 4096)
    return horizon if result is None else result


def _dprime_terms(args, kwargs, result):
    n, q, k = args[2:5]
    if kwargs.get("variant", "theorem") == "theorem":
        return max(n // k - 1 - q, 0)
    return n // k


def _evl_candidates(args, kwargs, result):
    # k = 1 .. n-1 are scanned, each probing a handful of t values
    return args[0] - 1


def _hts_candidates(args, kwargs, result):
    return max(math.ceil(1.0 / args[0]) - 1, 0)


# span name -> (quantity, counter); counts are added when the call returns
COUNTERS = {
    "events.survivor_set": ("components_out", _len),
    "maps.FullBranchMap.preimage": ("components_out", _len),
    "maps.FullBranchMap.image": ("components_out", _len),
    "maps.periodic_points": ("points_out", _len),
    "maps.ulam_matrix": ("cells", _cells),
    "cli.write_outputs": ("bytes", _bytes),
    "events.first_return_time": ("steps", _return_steps),
    "events.dprime_sum": ("terms", _dprime_terms),
    "brackets.optimize_kt_evl": ("candidates", _evl_candidates),
    "brackets.optimize_kt_hts": ("candidates", _hts_candidates),
}


def kernel_family(map_) -> str:
    if map_.is_uniform:
        return "uniform2" if map_.d == 2 else "uniformd"
    return "horner"


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans = array("q")  # name id, start ns, end ns, parent index
        self.counts: dict = defaultdict(int)
        self._stack: list = []
        self._patches: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, name_id: int) -> int:
        spans = self.spans
        idx = len(spans) >> 2
        spans.extend((name_id, 0, 0, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int, t0: int, t1: int):
        self._stack.pop()
        self.spans[4 * idx + 1] = t0
        self.spans[4 * idx + 2] = t1

    def wrap(self, name: str, fn):
        name_id = self._id(name)
        counter = COUNTERS.get(name)
        if counter is None and name.startswith("intervals."):
            counter = ("components_out", _union_len)
        key = f"{name}.{counter[0]}" if counter else None
        enter, exit_, counts = self._enter, self._exit, self.counts

        def traced(*args, **kwargs):
            idx = enter(name_id)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(idx, t0, perf_counter_ns())
            if counter is not None:
                counts[key] += counter[1](args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attr, getattr(fn, attr, None))
        return traced

    def _map_tasks(self, original):
        """Name each kernel batch by kind and family; count nominal steps."""
        ids = {}

        def traced(fn, args_list, workers):
            kind = "evl" if fn.__name__.startswith("_evl") else "entry"
            name = f"montecarlo.{kind}.{kernel_family(args_list[0][0])}"
            if name not in ids:
                ids[name] = self._id(name)
            if kind == "evl":  # (map, centre, checkpoints, index, count, seed)
                steps = sum(a[4] * a[2][-1][0] for a in args_list)
            else:  # (map, centre, radius, horizon, index, count, seed)
                steps = sum(a[5] * a[3] for a in args_list)
            idx = self._enter(ids[name])
            t0 = perf_counter_ns()
            try:
                return original(fn, args_list, workers)
            finally:
                self._exit(idx, t0, perf_counter_ns())
                self.counts[f"{name}.steps"] += steps

        return traced

    def install(self):
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"extremap.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[obj] = self.wrap(f"{layer}.{name}", obj)
        mc = sys.modules["extremap.montecarlo"]
        replace[mc._map_tasks] = self._map_tasks(mc._map_tasks)
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules[f"extremap.{layer}"], cls_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                label = f"{layer}.{cls_name}.{name}"
                if isinstance(attr, (classmethod, staticmethod)):
                    new = type(attr)(self.wrap(label, attr.__func__))
                elif inspect.isfunction(attr):
                    new = self.wrap(label, attr)
                else:
                    continue
                self._patches.append((cls, name, attr))
                setattr(cls, name, new)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "extremap" and not mod_name.startswith("extremap."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, replace[obj])

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def arrays(self):
        a = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)
        return a[:, 0], a[:, 1], a[:, 2], a[:, 3]

    def self_times(self) -> dict:
        """name -> (calls, self seconds) over all recorded spans."""
        names, start, end, parent = self.arrays()
        if names.size == 0:
            return {}
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_ns = np.bincount(names, weights=dur - child,
                              minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_ns[i]) / 1e9)
                for i, n in enumerate(self.names)}

    def inclusive_s(self, members) -> float:
        """Seconds inside spans named in ``members``, children included;
        a span nested in another member span is not counted again."""
        names, start, end, parent = self.arrays()
        ids = {self._ids[n] for n in members if n in self._ids}
        inside = [False] * names.size  # the span or an ancestor is a member
        total = 0
        for i, (name_id, p) in enumerate(zip(names.tolist(), parent.tolist())):
            outer = p >= 0 and inside[p]
            if name_id in ids and not outer:
                total += int(end[i] - start[i])
            inside[i] = outer or name_id in ids
        return total / 1e9

    def save(self, path):
        names, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=names,
                            start_ns=start, end_ns=end, parent=parent)
