"""``repro.obs`` — end-to-end request observability.

Span-based tracing with contextvar propagation, per-``(op, stage)``
latency histograms, a bounded ring buffer of completed request
traces, and a slow-request log.  The service server owns a
:class:`Tracer`; the library layers (``tid.wmc``, ``booleans.tape``,
``booleans.store``, the compile pool) only ever call :func:`span`,
which is a no-op costing one ContextVar read when no trace is active.

This package is deliberately stdlib-only and imports nothing from the
rest of ``repro`` so every layer may instrument itself without import
cycles.
"""

from repro.obs.trace import (
    BUCKET_LABELS,
    BUCKETS,
    NULL_SPAN,
    SLOW_LOG_NAME,
    TOTAL_STAGE,
    Span,
    Tracer,
    current_span,
    current_trace_id,
    span,
)

__all__ = [
    "BUCKETS",
    "BUCKET_LABELS",
    "NULL_SPAN",
    "SLOW_LOG_NAME",
    "TOTAL_STAGE",
    "Span",
    "Tracer",
    "current_span",
    "current_trace_id",
    "span",
]
