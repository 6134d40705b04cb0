"""Prometheus-style plaintext rendering of the service stats payload.

The ``stats`` op answers JSON for humans and scripts; fleet
monitoring wants the same counters in the Prometheus text exposition
format (``text/plain; version=0.0.4``) so a scraper — or ``curl`` —
can graph the perf trajectory of a running service.  The ``metrics``
op returns the rendering produced here; it is a *projection* of the
``stats`` payload, never a second set of counters, so the two can
not drift.

Layout: a curated block of stable, well-typed series (requests by
op, per-tenant usage, cache and tape counters) plus a generic
sweep that exports every remaining numeric scalar in the ``cache``
and ``service`` sections as a gauge — a counter added to ``stats``
shows up in ``metrics`` automatically, just untyped until curated.

Everything is emitted in sorted order and floats go through
``repr``, so the text is deterministic across hash seeds (the smoke
test and the determinism probes rely on that).

When the stats payload carries a ``tracing`` section (the request
tracer is on), its per-``(op, stage)`` latency histograms render as
native Prometheus histogram families —
``repro_op_stage_seconds_bucket{op=...,stage=...,le=...}`` plus the
matching ``_sum``/``_count`` — and its scalar counters (completed
traces, slow-log hits, ring-buffer drops) as ``tracing_info``
gauges.
"""

from __future__ import annotations

#: The exposition-format content type the ``metrics`` op reports.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_PREFIX = "repro"

#: ``stats`` keys rendered by the curated blocks (everything else in
#: their sections falls through to the generic gauge sweep).
_CURATED_SERVICE = ("requests", "errors", "ops", "uptime_seconds",
                    "started_at")
_CURATED_CACHE = ("hits", "compiles", "store_hits", "store_misses",
                  "budget_aborts", "tape_hits", "tape_flattens")


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample(name: str, labels: dict, value) -> str:
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(labels[key])}"'
            for key in sorted(labels))
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


class _Writer:
    """Accumulates one metric family at a time (HELP/TYPE + samples)."""

    def __init__(self):
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str,
               samples) -> None:
        """``samples`` is an iterable of ``(labels_dict, value)``;
        an empty iterable suppresses the family entirely."""
        samples = list(samples)
        if not samples:
            return
        full = f"{_PREFIX}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} {kind}")
        for labels, value in samples:
            self.lines.append(_sample(full, labels, value))

    def histogram_family(self, name: str, help_text: str,
                         series) -> None:
        """A native histogram family.  ``series`` is an iterable of
        ``(labels_dict, buckets_dict, sum_value, count)`` where
        ``buckets_dict`` maps ``le`` label strings (already including
        ``"+Inf"``) to cumulative counts in ladder order."""
        series = list(series)
        if not series:
            return
        full = f"{_PREFIX}_{name}"
        self.lines.append(f"# HELP {full} {help_text}")
        self.lines.append(f"# TYPE {full} histogram")
        for labels, buckets, sum_value, count in series:
            for le, cumulative in buckets.items():
                self.lines.append(_sample(
                    f"{full}_bucket", {**labels, "le": le},
                    cumulative))
            self.lines.append(_sample(f"{full}_sum", labels,
                                      float(sum_value)))
            self.lines.append(_sample(f"{full}_count", labels, count))

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def _numeric_items(section: dict, skip=()) -> list:
    return [(key, value) for key, value in sorted(section.items())
            if key not in skip
            and isinstance(value, (int, float))
            and not isinstance(value, bool)]


def render_metrics(stats: dict) -> str:
    """The ``stats`` payload (``{"cache": ..., "service": ...,
    "tenants": ...}``) as Prometheus exposition text."""
    cache = stats.get("cache") or {}
    service = stats.get("service") or {}
    tenants = stats.get("tenants") or {}
    tracing = stats.get("tracing") or {}
    w = _Writer()

    uptime = service.get("uptime_seconds")
    w.family("uptime_seconds", "gauge",
             "Seconds since the service started (monotonic clock).",
             [({}, uptime)] if uptime is not None else [])
    w.family("started_at_seconds", "gauge",
             "Unix timestamp of service start.",
             [({}, service["started_at"])]
             if "started_at" in service else [])
    w.family("requests_total", "counter",
             "Requests accepted for dispatch (all ops).",
             [({}, service["requests"])] if "requests" in service
             else [])
    w.family("errors_total", "counter",
             "Requests answered with a structured error.",
             [({}, service["errors"])] if "errors" in service else [])
    w.family("op_requests_total", "counter",
             "Requests by operation.",
             [({"op": op}, count)
              for op, count in sorted((service.get("ops") or {})
                                      .items())])

    w.family("cache_hits_total", "counter",
             "Tier-1 memory circuit-cache hits.",
             [({}, cache["hits"])] if "hits" in cache else [])
    w.family("cache_compiles_total", "counter",
             "Circuit compilations performed.",
             [({}, cache["compiles"])] if "compiles" in cache else [])
    w.family("store_hits_total", "counter",
             "Tier-2 disk-store hits.",
             [({}, cache["store_hits"])]
             if "store_hits" in cache else [])
    w.family("store_misses_total", "counter",
             "Tier-2 disk-store misses.",
             [({}, cache["store_misses"])]
             if "store_misses" in cache else [])
    w.family("budget_aborts_total", "counter",
             "Compilations aborted by the node budget.",
             [({}, cache["budget_aborts"])]
             if "budget_aborts" in cache else [])
    w.family("tape_hits_total", "counter",
             "Instruction-tape cache hits.",
             [({}, cache["tape_hits"])] if "tape_hits" in cache
             else [])
    w.family("tape_flattens_total", "counter",
             "Circuits flattened to instruction tapes.",
             [({}, cache["tape_flattens"])]
             if "tape_flattens" in cache else [])

    # Per-tenant usage (the multi-tenant hardening story).
    w.family("tenant_requests_total", "counter",
             "Requests per tenant (including refused ones).",
             [({"tenant": name}, usage.get("requests", 0))
              for name, usage in sorted(tenants.items())])
    w.family("tenant_rate_limited_total", "counter",
             "Requests refused by the tenant's rate window.",
             [({"tenant": name}, usage.get("rate_limited", 0))
              for name, usage in sorted(tenants.items())])
    w.family("tenant_compiles_total", "counter",
             "Fresh compilations charged to the tenant.",
             [({"tenant": name}, usage.get("compiles", 0))
              for name, usage in sorted(tenants.items())])
    w.family("tenant_compile_nodes_total", "counter",
             "Cumulative interned nodes charged to the tenant.",
             [({"tenant": name}, usage.get("nodes_spent", 0))
              for name, usage in sorted(tenants.items())])

    # Request-tracing projection: per-(op, stage) latency histograms
    # plus the tracer's own scalar counters.  ``sum_ms`` converts to
    # seconds here so the exposition speaks base units throughout.
    histograms = tracing.get("histograms") or {}
    w.histogram_family(
        "op_stage_seconds",
        "Stage latency by operation ('total' is the whole request).",
        [({"op": op, "stage": stage}, h["buckets"],
          h["sum_ms"] / 1000.0, h["count"])
         for op, stages in sorted(histograms.items())
         for stage, h in sorted(stages.items())])
    w.family("tracing_info", "gauge",
             "Numeric request-tracer stats, by key.",
             [({"key": key}, value)
              for key, value in _numeric_items(
                  tracing, skip=("histograms",))])

    # Everything else numeric in the two sections: generic gauges, so
    # new stats counters surface without touching this module.
    w.family("service_info", "gauge",
             "Remaining numeric service-section stats, by key.",
             [({"key": key}, value)
              for key, value in _numeric_items(
                  service, skip=_CURATED_SERVICE)])
    w.family("cache_info", "gauge",
             "Remaining numeric cache-section stats, by key.",
             [({"key": key}, value)
              for key, value in _numeric_items(
                  cache, skip=_CURATED_CACHE)])
    return w.text()
