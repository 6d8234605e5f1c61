"""In-memory span tracer that wraps tworound functions from the outside.

The package itself carries no instrumentation.  :class:`Tracer` replaces a
function with a timing wrapper under every name a ``tworound`` module looks it
up by (``tworound.engine.myerson_payment``, ``tworound.cli.find_deviation``,
...), and restores the originals on :meth:`Tracer.uninstall`.  A target that
no longer exists is skipped, so the benchmark keeps running after a refactor
removes a function; its metrics then read 0.

Each span is (name, start, end, parent, op id, weight).  ``weight`` is an
optional work count taken from the call's arguments (for example the number of
subsets a call enumerates).  Spans live in flat ``array`` columns and are
written out once, at the end of the run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

SETUP_OP = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.weight_col = array("d")
        self.op = SETUP_OP
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _wrapper(self, label: str, fn, weight=None):
        if label not in self.names:
            self.names.append(label)
        nid = self.names.index(label)
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, ops, weights, stack = self.parent_col, self.op_col, self.weight_col, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op)
            weights.append(weight(*args, **kwargs) if weight is not None else 0.0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced

    def wrap_function(self, module_name: str, attr: str, label: str, weight=None) -> bool:
        """Wrap ``module.attr`` under every tworound name bound to it."""
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None) if module is not None else None
        if fn is None:
            return False
        wrapper = self._wrapper(label, fn, weight)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "tworound" or name.startswith("tworound.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapper)
        return True

    def wrap_method(self, owner, attr: str, label: str, weight=None) -> bool:
        fn = owner.__dict__.get(attr)
        if fn is None:
            return False
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrapper(label, fn, weight))
        return True

    def uninstall(self) -> None:
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)

    # -- read-out -------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start_col, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end_col, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_col, dtype=np.int32).copy(),
            "weight": np.frombuffer(self.weight_col, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.columns())


class SpanTable:
    """Per-name aggregates over a selection of spans (by op id)."""

    def __init__(self, tracer: Tracer, ops: set[int]) -> None:
        cols = tracer.columns()
        self.names = tracer.names
        keep = np.isin(cols["op"], sorted(ops))
        self.cols = {k: v[keep] for k, v in cols.items()}
        index = np.flatnonzero(keep)
        # Re-map parent indices into the kept selection (-1 when outside it).
        remap = np.full(len(keep) + 1, -1, dtype=np.int64)
        remap[index] = np.arange(len(index))
        parents = self.cols["parent"]
        self.parent = np.where(parents >= 0, remap[parents], -1)
        self.dur = self.cols["end"] - self.cols["start"]
        child = np.bincount(
            self.parent[self.parent >= 0],
            weights=self.dur[self.parent >= 0],
            minlength=len(self.dur),
        )
        self.self_time = self.dur - child[: len(self.dur)]

    def mask(self, label: str) -> np.ndarray:
        if label not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        return self.cols["name"] == self.names.index(label)

    def calls(self, label: str) -> int:
        return int(self.mask(label).sum())

    def busy(self, label: str) -> float:
        return float(self.dur[self.mask(label)].sum())

    def self_s(self, label: str) -> float:
        return float(self.self_time[self.mask(label)].sum())

    def _ancestor_hits(self, member: np.ndarray, same_name: bool) -> np.ndarray:
        """True where some ancestor span is a member (and, optionally, has the same name)."""
        names = self.cols["name"]
        hit = np.zeros(len(names), dtype=bool)
        anc = self.parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            a = anc[live]
            found = member[a]
            if same_name:
                found &= names[a] == names[live]
            hit[np.flatnonzero(live)[found]] = True
            anc[live] = self.parent[a]
        return hit

    def top_level(self, labels: list[str]) -> np.ndarray:
        """Spans of ``labels`` with no ancestor among ``labels``."""
        ids = [self.names.index(l) for l in labels if l in self.names]
        member = np.isin(self.cols["name"], ids)
        return member & ~self._ancestor_hits(member, same_name=False)

    def counts(self) -> dict[str, list]:
        """Exact per-name call counts and weights, for run-to-run comparison."""
        out = {}
        for nid, label in enumerate(self.names):
            m = self.cols["name"] == nid
            out[label] = [int(m.sum()), float(self.cols["weight"][m].sum())]
        return out

    def nested_same_name(self) -> int:
        """Spans with an ancestor of the same name (these would double-count busy time)."""
        every = np.ones(len(self.dur), dtype=bool)
        return int(self._ancestor_hits(every, same_name=True).sum())
