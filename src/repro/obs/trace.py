"""Span-based request tracing for the service stack.

One request to the query service crosses half the repo — protocol
parsing, workload grounding, the compile pool, the two cache tiers,
the tape kernels — and an aggregate counter cannot say *which* of
those a slow request paid for.  This module is the per-request
answer:

* a **span** is one named stage with a monotonic-clock duration and a
  small tag dict; spans nest via a ``contextvars.ContextVar``, so the
  library layers (``tid.wmc``, ``booleans.tape``, ``booleans.store``,
  the compile pool) call :func:`span` without threading a tracer handle
  through every signature — when no trace is active the call returns
  the shared no-op span and costs one ContextVar read;
* a **trace** is the span tree of one request, rooted by
  :meth:`Tracer.root`; when the root finishes, the completed trace is
  serialized into a bounded ring buffer, every span feeds the
  per-``(op, stage)`` latency histogram, and a trace slower than the
  configured threshold is kept in the slow log (optionally appended
  to a JSONL file for offline triage);
* everything serialized is **hash-seed deterministic**: trace ids are
  counter-based, tags are emitted in sorted key order, and durations
  come from an injectable clock so tests can pin them exactly.

Every service stage runs on its request's thread — the compile pool's
leader compiles on its own thread — so spans nest through the
ContextVar alone.  A stage that starts on one thread and ends on
another can still use the manual :meth:`Span.begin` /
:meth:`Span.finish` pair.  The tracer's single lock guards the ring
buffer, the histograms, and the counters; spans themselves are written
by exactly one thread at a time and hand their finished record to the
tracer under that lock.
"""

from __future__ import annotations

import json
import threading
import time

from collections import deque
from contextvars import ContextVar
from pathlib import Path

#: Histogram bucket upper bounds, in seconds (+Inf is implicit).  The
#: ladder is fixed — never derived from observed data — so bucket
#: boundaries are identical across processes, hash seeds, and runs,
#: and CI can diff rendered histograms textually.
BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
           0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Exposition labels for the bucket bounds (``le`` values).
BUCKET_LABELS = tuple(repr(b) for b in BUCKETS) + ("+Inf",)

#: The stage name the root span's duration is recorded under in the
#: (op, stage) histograms — the whole-request latency series.
TOTAL_STAGE = "total"

#: File name of the slow-trace JSONL export inside ``trace_dir``.
SLOW_LOG_NAME = "TRACE_slow.jsonl"

_ACTIVE: ContextVar = ContextVar("repro_obs_active_span")


def _tag_value(value):
    """Tags must serialize deterministically: keep JSON scalars as-is,
    render everything else through ``str``."""
    if isinstance(value, (bool, int, str)):
        return value
    return str(value)


class _NullSpan:
    """The shared no-op span: every operation returns immediately.

    This is the entire disabled-tracing hot path — :func:`span`
    returns this singleton whenever no trace is active, so an
    instrumented library call costs one ContextVar read and zero
    allocations.
    """

    __slots__ = ()

    trace_id = None
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def begin(self):
        return self

    def finish(self):
        return None

    def tag(self, **tags):
        return self


NULL_SPAN = _NullSpan()


class _Trace:
    """One in-flight request trace: identity plus the finished-span
    list.  Mutated only through ``Tracer`` methods under the tracer's
    lock — the class itself carries no lock on purpose."""

    __slots__ = ("tracer", "trace_id", "op", "tenant", "clock",
                 "started", "records", "span_seq")

    def __init__(self, tracer: "Tracer", trace_id: str, op: str,
                 tenant: str | None):
        self.tracer = tracer
        self.trace_id = trace_id
        self.op = op
        self.tenant = tenant
        self.clock = tracer.clock
        self.started = None
        self.records: list = []
        self.span_seq = 0


class Span:
    """One stage of a trace.

    Use as a context manager for same-thread stages (activates itself
    as the parent of nested spans), or drive :meth:`begin` /
    :meth:`finish` manually for stages that start on one thread and
    end on another.  A span is
    recorded only when it finishes; abandoned spans simply never
    appear in the trace.
    """

    __slots__ = ("_trace", "span_id", "parent_id", "name", "tags",
                 "start", "duration", "_token", "_done")

    def __init__(self, trace: _Trace, parent_id: int | None,
                 name: str, tags: dict):
        self._trace = trace
        self.span_id = trace.tracer._next_span_id(trace)
        self.parent_id = parent_id
        self.name = name
        self.tags = {key: _tag_value(value)
                     for key, value in sorted(tags.items())}
        self.start = None
        self.duration = None
        self._token = None
        self._done = False

    @property
    def trace_id(self) -> str:
        return self._trace.trace_id

    def tag(self, **tags) -> "Span":
        """Attach or overwrite tags mid-span (e.g. a cache-hit flag
        known only after the lookup)."""
        for key, value in sorted(tags.items()):
            self.tags[key] = _tag_value(value)
        return self

    def begin(self) -> "Span":
        """Start the clock without activating the span as the current
        parent (the cross-thread idiom; pair with :meth:`finish`)."""
        if self.start is None:
            self.start = self._trace.clock()
            if self.parent_id is None:
                self._trace.started = self.start
        return self

    def finish(self) -> None:
        """Stop the clock and hand the record to the tracer.  A root
        span's finish seals the whole trace."""
        if self._done or self.start is None:
            return
        self._done = True
        self.duration = self._trace.clock() - self.start
        self._trace.tracer._record(self._trace, self)
        if self.parent_id is None:
            self._trace.tracer._complete(self._trace, self)

    def __enter__(self) -> "Span":
        self.begin()
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _ACTIVE.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.tags["error"] = exc_type.__name__
        self.finish()
        return False


def current_span():
    """The active span of the calling context, or ``None``."""
    return _ACTIVE.get(None)


def current_trace_id() -> str | None:
    """The active trace id, or ``None`` — the hook the compile pool
    uses to stamp leader attribution onto shared jobs."""
    active = _ACTIVE.get(None)
    return None if active is None else active.trace_id


def span(name: str, **tags):
    """A child span of the calling context's active span, or the
    shared no-op span when no trace is active.  This is the only
    entry point the instrumented library layers use."""
    parent = _ACTIVE.get(None)
    if parent is None:
        return NULL_SPAN
    return Span(parent._trace, parent.span_id, name, tags)


class Tracer:
    """Per-service trace collector: root spans, ring buffer,
    histograms, slow log.

    ``clock`` must be monotonic (it is only ever differenced); inject
    a fake for deterministic tests.  ``slow_threshold`` is in seconds
    (``None`` disables the slow log); ``trace_dir`` additionally
    appends each slow trace as one JSON line to
    ``<trace_dir>/TRACE_slow.jsonl``.
    """

    def __init__(self, enabled: bool = True, buffer_size: int = 256,
                 slow_threshold: float | None = None,
                 trace_dir=None, slow_keep: int = 64,
                 clock=time.monotonic):
        if buffer_size < 1:
            raise ValueError("buffer_size must be positive")
        if slow_keep < 1:
            raise ValueError("slow_keep must be positive")
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError("slow_threshold must be non-negative")
        self.enabled = enabled
        self.buffer_size = buffer_size
        self.slow_threshold = slow_threshold
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.clock = clock
        if self.trace_dir is not None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=buffer_size)
        self._slow: deque = deque(maxlen=slow_keep)
        #: ``(op, stage) -> [per-bucket counts, duration sum, count]``.
        self._hist: dict = {}
        self._trace_seq = 0
        self._completed = 0
        self._slow_total = 0
        self._dropped = 0
        self._export_errors = 0

    # ------------------------------------------------------------------
    # Producing traces
    # ------------------------------------------------------------------
    def root(self, op: str, trace_id: str | None = None,
             tenant: str | None = None, **tags):
        """Open the root span of a new trace (the server calls this
        once per request).  ``trace_id`` propagates a client-supplied
        id; otherwise a counter-based id is minted — deterministic
        across hash seeds by construction.  Returns the no-op span
        when tracing is disabled."""
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            self._trace_seq += 1
            seq = self._trace_seq
        tid = trace_id if trace_id else f"t{seq:08d}"
        trace = _Trace(self, tid, op, tenant)
        if tenant is not None:
            tags.setdefault("tenant", tenant)
        return Span(trace, None, op, tags)

    def _next_span_id(self, trace: _Trace) -> int:
        with self._lock:
            trace.span_seq += 1
            return trace.span_seq

    def _record(self, trace: _Trace, finished: Span) -> None:
        with self._lock:
            trace.records.append(finished)

    def _complete(self, trace: _Trace, root: Span) -> None:
        threshold = self.slow_threshold
        slow = threshold is not None and root.duration >= threshold
        with self._lock:
            payload = self._trace_payload(trace, root, slow)
            for finished in trace.records:
                stage = (TOTAL_STAGE if finished.parent_id is None
                         else finished.name)
                self._observe(trace.op, stage, finished.duration)
            if len(self._traces) == self._traces.maxlen:
                self._dropped += 1
            self._traces.append(payload)
            self._completed += 1
            if slow:
                self._slow.append(payload)
                self._slow_total += 1
        if slow and self.trace_dir is not None:
            self._export_slow(payload)

    @staticmethod
    def _trace_payload(trace: _Trace, root: Span, slow: bool) -> dict:
        """Caller holds ``self._lock`` (the records list is shared).
        Spans are ordered by start offset (span id breaks ties), so
        the JSON reads as a timeline regardless of finish order."""
        started = trace.started
        spans = sorted(trace.records,
                       key=lambda s: (s.start - started, s.span_id))
        return {
            "trace": trace.trace_id,
            "op": trace.op,
            "tenant": trace.tenant or "",
            "duration_ms": round(root.duration * 1000.0, 3),
            "slow": slow,
            "spans": [{
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "start_ms": round((s.start - started) * 1000.0, 3),
                "duration_ms": round(s.duration * 1000.0, 3),
                "tags": s.tags,
            } for s in spans],
        }

    def _observe(self, op: str, stage: str, duration: float) -> None:
        """Caller holds ``self._lock``."""
        entry = self._hist.get((op, stage))
        if entry is None:
            entry = [[0] * (len(BUCKETS) + 1), 0.0, 0]
            self._hist[(op, stage)] = entry
        counts, _, _ = entry
        for i, bound in enumerate(BUCKETS):
            if duration <= bound:
                counts[i] += 1
                break
        else:
            counts[len(BUCKETS)] += 1
        entry[1] += duration
        entry[2] += 1

    def _export_slow(self, payload: dict) -> None:
        line = json.dumps(payload, separators=(",", ":"),
                          sort_keys=True) + "\n"
        try:
            with open(self.trace_dir / SLOW_LOG_NAME, "a",
                      encoding="utf-8") as fh:
                fh.write(line)
        except OSError:
            with self._lock:
                self._export_errors += 1

    # ------------------------------------------------------------------
    # Reading traces back
    # ------------------------------------------------------------------
    @staticmethod
    def _visible(payload: dict, tenant: str | None) -> bool:
        return tenant is None or payload.get("tenant") == tenant

    def recent(self, limit: int = 16, tenant: str | None = None,
               slow: bool = False) -> list[dict]:
        """The newest completed (or slow) traces, newest first,
        optionally scoped to one tenant."""
        with self._lock:
            source = list(self._slow if slow else self._traces)
        out = [p for p in reversed(source) if self._visible(p, tenant)]
        return out[:limit]

    def find(self, trace_id: str,
             tenant: str | None = None) -> dict | None:
        """One buffered trace by id (ring buffer first, then the slow
        log), or ``None``."""
        with self._lock:
            buffered = list(self._traces) + list(self._slow)
        for payload in reversed(buffered):
            if payload.get("trace") == trace_id \
                    and self._visible(payload, tenant):
                return payload
        return None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def histograms(self) -> dict:
        """``{op: {stage: {"count", "sum_ms", "buckets"}}}`` with
        *cumulative* bucket counts keyed by their ``le`` label — the
        exact shape ``render_metrics`` and ``repro ctl top`` consume.
        Everything is emitted in sorted order."""
        with self._lock:
            items = sorted((key, list(entry[0]), entry[1], entry[2])
                           for key, entry in self._hist.items())
        out: dict = {}
        for (op, stage), counts, total, count in items:
            cumulative, running = {}, 0
            for label, bucket in zip(BUCKET_LABELS, counts):
                running += bucket
                cumulative[label] = running
            out.setdefault(op, {})[stage] = {
                "count": count,
                "sum_ms": round(total * 1000.0, 3),
                "buckets": cumulative,
            }
        return out

    def stats(self) -> dict:
        """Scalar tracer state for the service ``stats`` payload."""
        threshold = self.slow_threshold
        with self._lock:
            return {
                "enabled": self.enabled,
                "buffer_size": self.buffer_size,
                "buffered": len(self._traces),
                "completed": self._completed,
                "slow": self._slow_total,
                "slow_threshold_ms": (None if threshold is None
                                      else round(threshold * 1000.0,
                                                 3)),
                "dropped": self._dropped,
                "export_errors": self._export_errors,
            }
