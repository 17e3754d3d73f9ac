"""Outside-in tracing: timing wrappers installed from the benchmark's files.

A traced run (``--trace 1``) patches the layers' public functions with
wrappers that record spans, then restores every patched name.  Nothing
under ``src/`` knows about this file.  End-to-end metrics are never taken
from a traced run; the difference between the two runs is reported as
``trace.overhead_frac``.

A span is ``(id, name, start, end, parent, op, thread)``; its layer is the
part of the name before the first dot.  Spans of one operation share
``op`` (trace index, round index, job id).  A span's parent is the span
open on the same thread when it started, or, on a thread with none open,
the tracer's *ambient* span (a cell round on a pool thread belongs to the
``run_rounds`` call that fanned it out).
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[object]
    thread: str
    #: Built from a duration the program reported (``last_phase_timings``),
    #: not from a wrapper's own clock; placed back to back in its parent.
    synthetic: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and tallies in memory; owns the installed patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: name -> [calls, total seconds]; for leaf calls too frequent to
        #: keep a span each (the count is the point, not the timeline).
        self.tallies: Dict[str, List[float]] = {}
        #: Names whose wrap target no longer exists: their metrics are null.
        self.missing: List[str] = []
        #: Operation id stamped on spans that do not name their own.
        self.op: Optional[object] = None
        self.ambient: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: Optional[object] = None) -> Iterator[Span]:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else self.ambient,
            op=self.op if op is None else op,
            thread=threading.current_thread().name,
        )
        stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def add_phases(self, parent: Span, phases_ms: Dict[str, float]) -> None:
        """Child spans from durations the program itself reported."""
        cursor = parent.start
        for name, millis in phases_ms.items():
            end = min(cursor + millis / 1000.0, parent.end)
            self.spans.append(
                Span(
                    id=next(self._ids),
                    name=name,
                    start=cursor,
                    end=end,
                    parent=parent.id,
                    op=parent.op,
                    thread=parent.thread,
                    synthetic=True,
                )
            )
            cursor = end

    # -- patching -------------------------------------------------------

    def _resolve(self, path: str) -> Optional[Tuple[object, str]]:
        """``"pkg.mod:Class.attr"`` -> (owner, attr), or None if it is gone."""
        module_name, _, attr_path = path.partition(":")
        try:
            owner: object = importlib.import_module(module_name)
        except ImportError:
            return None
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        return (owner, attr) if hasattr(owner, attr) else None

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`restore`."""
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        target: object,
        name: str,
        attr: Optional[str] = None,
        op_of: Optional[Callable[..., object]] = None,
        after: Optional[Callable[[Span, object, tuple], None]] = None,
        ambient: bool = False,
        tally: bool = False,
    ) -> bool:
        """Time every call of a function under ``name``.

        ``target`` is a ``"module:attr.path"`` string (every listed module
        binding of one function must be patched separately, since importers
        bind the name at import) or an object whose ``attr`` is patched on
        the instance.  A target that does not exist is recorded in
        :attr:`missing` and skipped.  ``op_of(*args, **kwargs)`` names the
        span's operation; ``after(span, result, args)`` runs once the call
        returned; ``ambient`` makes the span the parent of spans started on
        threads with none open; ``tally`` keeps a count and a total instead
        of a span per call.
        """
        if isinstance(target, str):
            resolved = self._resolve(target)
        else:
            resolved = (target, attr) if hasattr(target, attr or "") else None
        if resolved is None:
            if name not in self.missing:
                self.missing.append(name)
            return False
        owner, attr = resolved
        original = getattr(owner, attr)
        # A function found on a class is wrapped as a function (it still
        # binds); anything else is wrapped as the bound callable it is.
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        call = raw if callable(raw) else original

        if tally:
            cell = self.tallies.setdefault(name, [0, 0.0])

            def wrapper(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return call(*args, **kwargs)
                finally:
                    cell[0] += 1
                    cell[1] += time.perf_counter() - t0

        else:

            def wrapper(*args, **kwargs):
                op = op_of(*args, **kwargs) if op_of is not None else None
                with self.span(name, op) as span:
                    if ambient:
                        previous, self.ambient = self.ambient, span.id
                    try:
                        result = call(*args, **kwargs)
                    finally:
                        if ambient:
                            self.ambient = previous
                if after is not None:
                    after(span, result, args)
                return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        self.patch(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Put every patched name back exactly as it was."""
        while self._patches:
            owner, attr, previous, own = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)

    # -- reading --------------------------------------------------------

    def durations_ms(self, name: str) -> Optional[List[float]]:
        """Durations of every span called ``name``; None if its target is gone."""
        if name in self.missing:
            return None
        return [s.duration * 1000.0 for s in self.spans if s.name == name]

    def reduce(self, name: str, fn: Callable[[List[float]], float]) -> Optional[float]:
        """``fn`` over a name's durations in ms; None without a target or a call."""
        durations = self.durations_ms(name)
        return fn(durations) if durations else None

    def tally(self, name: str) -> Optional[Tuple[int, float]]:
        """(calls, total seconds) of a tallied name; None if its target is gone."""
        if name in self.missing:
            return None
        calls, total = self.tallies.get(name, (0, 0.0))
        return int(calls), float(total)

    def dump(self) -> Dict[str, object]:
        return {
            "spans": [asdict(span) for span in self.spans],
            "tallies": {k: {"calls": v[0], "total_s": v[1]} for k, v in self.tallies.items()},
            "missing": list(self.missing),
        }


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap (parallel cell rounds), so coverage is the union
    of their intervals clipped to the parent, and never negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, ()))
        for span in spans
    }


def span_table(spans: List[Span], roots: List[Span]) -> List[Dict[str, object]]:
    """Where the time under ``roots`` went, one row per span name.

    A row's ``self_s`` is the summed self time of the spans of that name
    that descend from a root (a root's own self time appears as
    ``<name>.self``); ``share`` is that over the summed self time of all
    rows, so shares sum to 1.  Without overlapping spans that total is the
    roots' wall; with cell rounds running side by side it is larger, and
    ``overlap`` (the same on every row) says by how much.  Rows are sorted
    by ``self_s``.
    """
    by_id = {span.id: span for span in spans}
    root_ids = {root.id for root in roots}
    selfs = self_times(spans)

    def under_root(span: Span) -> bool:
        seen = span
        while seen.parent is not None and seen.id not in root_ids:
            parent = by_id.get(seen.parent)
            if parent is None:
                return False
            seen = parent
        return seen.id in root_ids

    rows: Dict[str, Dict[str, object]] = {}
    for span in spans:
        if not under_root(span):
            continue
        name = f"{span.name}.self" if span.id in root_ids else span.name
        row = rows.setdefault(
            name, {"span": name, "layer": span.layer, "calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += selfs[span.id]
        row["total_s"] += span.duration
    table = sorted(rows.values(), key=lambda r: -r["self_s"])
    wall = sum(root.duration for root in roots)
    total_self = sum(row["self_s"] for row in table)
    for row in table:
        row["share"] = row["self_s"] / total_self if total_self > 0 else 0.0
        row["overlap"] = total_self / wall if wall > 0 else 1.0
    return table


def format_table(title: str, total_label: str, table: List[Dict[str, object]]) -> str:
    lines = [f"  {title} ({total_label})"]
    overlap = table[0].get("overlap", 1.0) if table else 1.0
    if overlap > 1.05:
        lines.append(f"    (spans overlap: self times add up to {overlap:.1f}x the wall)")
    for row in table:
        lines.append(
            f"    {row['share'] * 100:5.1f}%  {row['self_s'] * 1000:10.1f} ms self"
            f"  {row['calls']:7d} calls  {row['span']}"
        )
    return "\n".join(lines)
