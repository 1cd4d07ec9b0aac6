"""Spans at pass-step boundaries and aggregated counters for hot calls.

A span records name, start, end and the id of the span that was open
when it started. Hot entry points (``CoverageIndex.cov`` is called ~50K
times per traversal) do not get spans: their wrapper adds calls, ``True``
results and seconds to one counter, and every span snapshots the
counters when it opens and closes, so per-span deltas come for free.

``instrument`` patches the package's public entry points for the length
of a ``with`` block; untraced passes run the same code with only the
step spans, which cost a few microseconds per pass.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """Spans kept in memory, plus ``counters[key] = [calls, hits, seconds]``."""

    def __init__(self, sc=None):
        self.sc = sc  # SparkContext when Spark job groups are recorded
        self.spans: List[dict] = []
        self.counters: Dict[str, list] = {}
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, *, spark: bool = False):
        """Open a span; with ``spark`` and a context, give it a job group."""
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "c0": {k: tuple(v) for k, v in self.counters.items()},
        }
        group = None
        if spark and self.sc is not None:
            group = f"perfbench-{sid}"
            self.sc.setJobGroup(group, name)
        self.spans.append(rec)
        self._open.append(sid)
        rec["start"] = _clock()
        try:
            yield rec
        finally:
            rec["end"] = _clock()
            self._open.pop()
            if group is not None:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                rec["group"] = group
            c0 = rec.pop("c0")
            rec["counts"] = {
                k: [a - b for a, b in zip(v, c0.get(k, (0, 0, 0.0)))]
                for k, v in self.counters.items()
                if tuple(v) != c0.get(k)
            }

    def counted(self, key: str, fn):
        """Wrap a hot callable: count calls, ``True`` results and seconds."""
        c = self.counters.setdefault(key, [0, 0, 0.0])

        def wrapper(*args, **kwargs):
            t = _clock()
            r = fn(*args, **kwargs)
            c[2] += _clock() - t
            c[0] += 1
            if r is True:
                c[1] += 1
            return r

        return wrapper

    def spanned(self, name: str, fn, *, size=None):
        """Wrap a coarse callable in a span; ``size(result)`` is recorded."""

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                r = fn(*args, **kwargs)
                if size is not None:
                    rec["size"] = size(r)
                return r

        return wrapper

    # -- reading spans back -------------------------------------------

    def children(self, rec: dict) -> List[dict]:
        return [s for s in self.spans if s["parent"] == rec["id"]]

    @staticmethod
    def seconds(rec: Optional[dict]) -> float:
        return 0.0 if rec is None else rec["end"] - rec["start"]

    def self_seconds(self, rec: dict) -> float:
        """Span duration minus the part its child spans cover."""
        return self.seconds(rec) - sum(self.seconds(c) for c in self.children(rec))

    @staticmethod
    def count(rec: Optional[dict], key: str, field: int = 0):
        """Calls (0), hits (1) or seconds (2) of ``key`` inside ``rec``."""
        if rec is None or key not in rec["counts"]:
            return 0.0 if field == 2 else 0
        return rec["counts"][key][field]

    def spark_jobs(self, recs) -> tuple:
        """(jobs, stages) run under the job groups of ``recs``."""
        if self.sc is None:
            return 0, 0
        st = self.sc.statusTracker()
        jobs = stages = 0
        for rec in recs:
            if rec is None or "group" not in rec:
                continue
            for j in st.getJobIdsForGroup(rec["group"]):
                jobs += 1
                info = st.getJobInfo(j)
                stages += len(info.stageIds) if info is not None else 0
        return jobs, stages

    def dump(self) -> List[dict]:
        """Spans with durations and self times, for the trace file."""
        return [
            {
                "id": s["id"],
                "name": s["name"],
                "parent": s["parent"],
                "seconds": self.seconds(s),
                "self_seconds": self.self_seconds(s),
                **({"counts": s["counts"]} if s["counts"] else {}),
                **({"size": s["size"]} if "size" in s else {}),
            }
            for s in self.spans
        ]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public entry points for the ``with`` block.

    An entry point the package no longer has raises ``KeyError`` here,
    rather than leaving its counters silently at 0.
    """
    from repro.core import coverage, mup_index
    from repro.enhance import apply, hitting_set

    undo = []

    def patch(owner, name, make):
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, name, new)
        undo.append((owner, name, raw))

    # apply.py binds CoverageIndex at import; patch each distinct class once.
    classes = {id(c): c for c in (coverage.CoverageIndex, apply.CoverageIndex)}
    for cls in classes.values():
        patch(cls, "cov", lambda f: tracer.counted("coverage.cov", f))
        patch(cls, "from_spark",
              lambda f: tracer.spanned("from_spark", f, size=lambda idx: {"n": idx.n}))
    for name in ("dominated_by_any", "dominates_any", "add"):
        patch(mup_index.MupIndex, name, lambda f, k=name: tracer.counted(f"mup_index.{k}", f))
    for name in ("hit_count", "build_inverted_indices"):
        patch(hitting_set, name, lambda f, k=name: tracer.counted(f"hitting_set.{k}", f))
    patch(apply, "mups_deepdiver", lambda f: tracer.spanned("deepdiver", f))
    try:
        yield tracer
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)
