"""In-memory spans recorded around calls into the program's public functions.

The benchmark never edits the program.  For a traced run it replaces a
public function or method with a wrapper that records one span per call
and then calls the original; :meth:`Recorder.restore` puts every
original back.  A span carries a name (``<layer>.<operation>``), start
and end on the ``time.perf_counter`` clock, the index of its parent
span, and an id shared by the spans of one window or request.  Spans
stay in memory and are written out once, at the end of the run.

Self time is a span's duration minus the part of it that its children
cover; over a properly nested tree the self times add up to the root
durations, which :func:`additivity` checks.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, ID, ATTRS = range(6)

Span = List[Any]  # [name, start, end, parent, id, attrs]


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1)
        self._trace_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_trace_id", default=None)
        self._restore: List[Callable[[], None]] = []

    # -- recording -----------------------------------------------------
    def set_id(self, span_id: Any) -> None:
        """Make *span_id* the id of later spans in this context."""
        self._trace_id.set(span_id)

    def _open(self, name: str, span_id: Any) -> Tuple[int, Any, Any]:
        idx = len(self.spans)
        if span_id is None:
            span_id = self._trace_id.get()
        self.spans.append([name, time.perf_counter(), None,
                           self._current.get(), span_id, {}])
        return idx, self._current.set(idx), span_id

    def _close(self, idx: int, token: Any) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._current.reset(token)

    # -- wrapping ------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             new_id: Optional[Callable[..., Any]] = None,
             attrs: Optional[Callable[..., Dict[str, Any]]] = None,
             after: Optional[Callable[..., None]] = None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *new_id(args, kwargs)* starts a new span id (a window or request)
        that children inherit; *attrs(args, kwargs, result)* adds span
        attributes; *after(span, args, kwargs, result)* runs on return.
        Class methods, static methods and coroutine functions keep their
        kind.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        rec = self

        def _start(args: tuple, kwargs: dict) -> Tuple[int, Any, Any]:
            span_id = new_id(args, kwargs) if new_id is not None else None
            idx, token, span_id = rec._open(name, span_id)
            id_token = (rec._trace_id.set(span_id) if new_id is not None
                        else None)
            return idx, token, id_token

        def _finish(idx: int, token: Any, id_token: Any, args: tuple,
                    kwargs: dict, result: Any) -> None:
            rec._close(idx, token)
            if id_token is not None:
                rec._trace_id.reset(id_token)
            if attrs is not None:
                rec.spans[idx][ATTRS] = attrs(args, kwargs, result)
            if after is not None:
                after(rec.spans[idx], args, kwargs, result)

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                idx, token, id_token = _start(args, kwargs)
                result = None
                try:
                    result = await func(*args, **kwargs)
                    return result
                finally:
                    _finish(idx, token, id_token, args, kwargs, result)
        else:
            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                idx, token, id_token = _start(args, kwargs)
                result = None
                try:
                    result = func(*args, **kwargs)
                    return result
                finally:
                    _finish(idx, token, id_token, args, kwargs, result)

        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
        self._restore.append(lambda: setattr(owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped original back (last wrapped first)."""
        while self._restore:
            self._restore.pop()()

    # -- output --------------------------------------------------------
    def write(self, path: Path, meta: Optional[Dict[str, Any]] = None
              ) -> None:
        write_spans(path, self.spans, meta)


def write_spans(path: Path, spans: Sequence[Span],
                meta: Optional[Dict[str, Any]] = None) -> None:
    """Write spans as one JSON document (times in seconds)."""
    doc = {
        "kind": "perfbench-spans",
        "meta": meta or {},
        "fields": ["name", "start_s", "end_s", "parent", "id", "attrs"],
        "spans": [list(s) for s in spans],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, separators=(",", ":")))


def read_spans(path: Path) -> List[Span]:
    return [list(s) for s in json.loads(path.read_text())["spans"]]


# ----------------------------------------------------------------------
def covered(interval: Tuple[float, float],
            parts: Sequence[Tuple[float, float]]) -> float:
    """Length of *interval* covered by the union of *parts*."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts
                     if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span: duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for idx, span in enumerate(spans):
        dur = span[END] - span[START]
        kids = children.get(idx)
        out.append(dur - covered((span[START], span[END]), kids)
                   if kids else dur)
    return out


def layer_of(name: str) -> str:
    """``core.quality.qualify`` -> ``core.quality`` (module of the span)."""
    return name.rsplit(".", 1)[0]


def additivity(spans: Sequence[Span], wall_s: float
               ) -> Dict[str, float]:
    """Compare the summed self time of all spans with *wall_s*.

    Over non-overlapping, properly nested spans the sum equals the
    root durations; overlapping siblings or children sticking out of
    their parent push it away from the measured wall time.
    """
    total = sum(self_times(spans))
    return {"self_sum_s": total, "wall_s": wall_s,
            "gap_share": abs(total - wall_s) / wall_s if wall_s else 0.0}


def layer_table(spans: Sequence[Span],
                extra: Optional[Dict[str, Dict[str, Any]]] = None
                ) -> Dict[str, Dict[str, Any]]:
    """Per-operation rows: count, total and per-call self time, wait.

    A span whose attrs carry ``wait_s`` contributes that to the wait
    column (time work waited for the layer rather than ran in it).
    *extra* merges workload-specific columns (failed or retried
    operations, useful/attempted) into rows by name.
    """
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, Any]] = {}
    for span, own in zip(spans, selfs):
        row = rows.setdefault(span[NAME], {"count": 0, "self_s": 0.0,
                                           "wait_s": 0.0})
        row["count"] += 1
        row["self_s"] += own
        row["wait_s"] += float(span[ATTRS].get("wait_s", 0.0))
    for name, cols in (extra or {}).items():
        rows.setdefault(name, {"count": 0, "self_s": 0.0, "wait_s": 0.0})
        rows[name].update(cols)
    return rows


def render_table(rows: Dict[str, Dict[str, Any]], wall_s: float) -> str:
    """Fixed-width text of :func:`layer_table` rows, by layer."""
    head = (f"{'span':<38} {'count':>8} {'self_s':>9} {'self%':>6} "
            f"{'us/call':>9} {'wait_s':>8} {'failed/retried':>14} "
            f"{'useful/att':>10}")
    lines = [head, "-" * len(head)]
    for name in sorted(rows, key=lambda n: (layer_of(n), n)):
        row = rows[name]
        count = row["count"]
        per_call = row["self_s"] / count * 1e6 if count else 0.0
        share = row["self_s"] / wall_s * 100 if wall_s else 0.0
        failed = row.get("failed_or_retried", "")
        useful = row.get("useful_over_attempted", "")
        if isinstance(useful, float):
            useful = f"{useful:.4f}"
        lines.append(
            f"{name:<38} {count:>8} {row['self_s']:>9.4f} {share:>6.1f} "
            f"{per_call:>9.2f} {row['wait_s']:>8.4f} {str(failed):>14} "
            f"{str(useful):>10}")
    return "\n".join(lines)
