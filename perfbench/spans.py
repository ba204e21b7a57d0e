"""In-memory call spans around the public functions of each effectalg module.

The wrappers live here, in the benchmark, not in the library.  install()
rebinds every wrapped name in each effectalg module that holds it (modules
that did `from .maps import is_subunital` keep their own reference, so each
one is rebound), wraps Operation.__init__ and Operation.product_table on the
class, and uninstall() puts the originals back.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends; write_csv() then writes them out.  Generator functions get one span
for the call and one "<name>/next" span per item pulled from the returned
iterator, so consuming the iterator is timed too.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("algebra", "maps", "operations", "search", "verify", "cli")

# (module, function, is_generator)
FUNCTIONS = (
    ("algebra", "algebra_from_json", False),
    ("algebra", "validate_table_algebra", False),
    ("algebra", "make_simplicial", False),
    ("maps", "enumerate_subunital", True),
    ("maps", "is_subunital", False),
    ("maps", "additive_maps_bruteforce", False),
    ("operations", "op_from_json", False),
    ("operations", "check_axioms", False),
    ("operations", "replay_witness", False),
    ("search", "enumerate_s1sk", False),
    ("search", "exists_s1s4", False),
    ("search", "enumerate_s1s2", True),
    ("search", "full_bruteforce_ops", False),
    ("verify", "run_suite", False),
    ("cli", "main", False),
)
# (module, class, method, span name)
METHODS = (
    ("operations", "Operation", "__init__", "operations.Operation"),
    ("operations", "Operation", "product_table", "operations.product_table"),
)

SEARCH_SPANS = ("search.enumerate_s1sk", "search.exists_s1s4")
AXIOMS = ("s1", "s2", "s3", "s4", "s5")


def _observe_check_axioms(counts: Counter, report) -> None:
    failed = [name for name in AXIOMS[: report.upto] if report.results[name] is not None]
    key = f"first_fail_{failed[0]}" if failed else "all_pass"
    counts["operations.check_axioms." + key] += 1


def _observe_replay(counts: Counter, reproduced) -> None:
    if reproduced:
        counts["operations.replay_witness.reproduced"] += 1


def _observe_suite(counts: Counter, report) -> None:
    tally = report.tally()
    counts["verify.rows_pass"] += tally["passed"]
    counts["verify.rows_undecided"] += tally["undecided"]


OBSERVERS = {
    "operations.check_axioms": _observe_check_axioms,
    "operations.replay_witness": _observe_replay,
    "verify.run_suite": _observe_suite,
}


class _TimedIterator:
    """Iterator proxy: each next() is a span, each item counts as yielded."""

    def __init__(self, tracer: "Tracer", nid: int, name: str, inner):
        self._tracer, self._nid, self._name, self._inner = tracer, nid, name, inner

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer._open(self._nid)
        try:
            item = next(self._inner)
        finally:
            self._tracer._close(i)
        self._tracer.counts[self._name + ".yielded"] += 1
        return item


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, generator: bool):
        nid = self._id(name)
        next_id = self._id(name + "/next")
        observe = OBSERVERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(counts, out)
            if generator:
                return _TimedIterator(self, next_id, name, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every effectalg module that binds it."""
        import effectalg
        mods = [effectalg] + [sys.modules[f"effectalg.{m}"] for m in MODULES]
        for module, attr, generator in FUNCTIONS:
            original = getattr(sys.modules[f"effectalg.{module}"], attr)
            wrapper = self._wrap(f"{module}.{attr}", original, generator)
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"effectalg.{module}"], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, False))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Where the next pass starts: a span index and a copy of the counters."""
        return len(self.name_id), Counter(self.counts)

    def summarize(self, since: tuple[int, Counter]) -> dict:
        """Per-layer figures for the spans and counts recorded after `since`.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because one thread runs them.
        """
        first, counts_before = since
        last = len(self.name_id)
        names, nid, parent, start, end = self.names, self.name_id, self.parent, self.start, self.end
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = parent[i]
            if p >= first:
                child[p - first] += end[i] - start[i]
        out: Counter = Counter()
        search_ids = {self._ids[n] for n in SEARCH_SPANS if n in self._ids}
        op_id = self._ids.get("operations.Operation")
        search_time = 0.0
        self_total = 0.0
        for i in range(first, last):
            name = names[nid[i]]
            own = end[i] - start[i] - child[i - first]
            self_total += own
            base, _, tail = name.partition("/")
            out[base + ".self_s"] += own
            if not tail:
                out[base + ".calls"] += 1
            if nid[i] in search_ids and not self._under(i, search_ids, first):
                search_time += end[i] - start[i]
            if nid[i] == op_id and self._under(i, search_ids, first):
                out["search.s3_survivors"] += 1
        out.update(self.counts - counts_before)
        out["search.survivors_per_s"] = (out["search.s3_survivors"] / search_time
                                         if search_time else 0.0)
        out["trace.self_total_s"] = self_total
        out["trace.spans"] = last - first
        return dict(out)

    def _under(self, i: int, ids: set, first: int) -> bool:
        p = self.parent[i]
        while p >= first:
            if self.name_id[p] in ids:
                return True
            p = self.parent[p]
        return False

    def write_csv(self, path, count: int) -> None:
        """Write the first `count` spans, times in seconds from the first span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent\n")
            names, t0 = self.names, (self.start[0] if self.start else 0.0)
            for i in range(count):
                fh.write(f"{i},{names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]}\n")
