"""The long-lived query service: a TCP server over the warm caches.

Every ``repro`` CLI invocation pays interpreter start-up plus a cold
compilation cache; the economics of the circuit IR — compile once,
evaluate many — want the opposite: one resident process whose tier-1
LRU and tier-2 ``CircuitStore`` stay warm across requests and clients.
``ReproServer`` is that process:

* stdlib-only transport: a ``socketserver.ThreadingTCPServer`` (one
  thread per connection) speaking the line-delimited JSON protocol of
  ``repro.service.protocol``;
* all probability work routed through the ``auto`` policy
  (``cnf_probability_auto`` / ``probability_batch_auto``) with
  per-request ``budget_nodes``/``epsilon``/``delta``/``seed``
  overrides, so a blown compilation budget degrades a single request
  to the Monte-Carlo estimator — and every response records which
  engine answered, mirroring ``AutoProbability``;
* a warm circuit is read on the request thread (``wmc.cached``);
  only a miss reaches the ``CompilePool``, which bounds concurrent
  compilations and dedupes in-flight ones, so N concurrent cold
  requests for one ``cnf_fingerprint`` pay for one compilation; each
  request then runs its own linear pass (a sweep is one
  ``Circuit.probability_batch`` over its grid);
* the ``stats`` endpoint exposes ``wmc.cache_info()`` (hits, compiles,
  store hits/misses, budget aborts) plus the compile pool's counters
  (jobs, joins) and per-op request counts, so warm-cache behaviour is
  observable from any client.

Workloads are the same shape the CLI serves: a query in the miniature
clause syntax grounded over the ``B_p(u, v)`` path block.  The
server process is the unit of cache sharing — clients are free to
connect, query, and disconnect per request and still reuse every
compilation any other client paid for.

``ReproServer`` adds the compute ops to ``ServiceFrontEnd``, the
request front end it shares with the multi-process dispatcher
(``repro.service.dispatch``).
"""

from __future__ import annotations

import selectors
import socket
import socketserver
import threading
import time

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple
from types import MappingProxyType as _freeze

from repro.booleans.adaptive import (
    ENGINE_LABELS,
    ESTIMATORS,
    WEIGHT_CAPS,
    BudgetPlanner,
    estimate_with,
    max_draws,
    resolve_estimator,
)
from repro.booleans.approximate import (
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
    check_accuracy,
    hoeffding_sample_count,
)
from repro.booleans.circuit import CompilationBudgetExceeded
from repro.booleans.cnf import CNF
from repro.booleans.store import CircuitStore, cnf_fingerprint
from repro.core.queries import Query, parse_query
from repro.core.safety import is_safe
from repro.evaluation import (
    ESTIMATE_METHODS, METHODS, endpoint_weight_grid, evaluate,
)
from repro.reduction.blocks import path_block
from repro.obs import NULL_SPAN, Tracer, span
from repro.service.protocol import (
    MAX_REQUEST_BYTES,
    OP_PARAMS,
    ProtocolError,
    check_fields,
    dump_line,
    encode_world,
    error_response,
    ok_response,
    parse_request,
    take_bool,
    take_fraction,
    take_int,
    take_int_list,
    take_str,
)
from repro.service.metrics import CONTENT_TYPE, render_metrics
from repro.service.scheduler import CompilePool
from repro.service.tenants import ANONYMOUS, TenantQuota, TenantRegistry
from repro.tid import wmc
from repro.tid.database import TID, r_tuple, t_tuple
from repro.tid.lifted import UnsafeQueryError
from repro.tid.lineage import lineage
from repro.tid.plans import safe_plan

#: Evaluation methods a client may force: exactly the library's —
#: "brute"/"cross-check" are expensive but legitimate validation
#: requests, and a method added to the evaluator is automatically
#: servable.
EVAL_METHODS = METHODS

#: The most worlds one estimate may draw: ``_estimator_knobs``
#: refuses an (epsilon, delta) whose sampler could draw more, since
#: the draws run on the request thread (an estimate of 1,045,814 draws
#: on path 1 at p=4 took 3.2-3.6 s on a 2-vCPU host).
MAX_ESTIMATE_DRAWS = 1 << 20

#: The most worlds one request may draw over all its estimates: a
#: past-budget ``sweep`` runs one estimate per lane (``grid`` up to
#: 100,000) and ``evaluate_batch`` one per entry of ``ps`` (up to 256),
#: so a request that samples is refused before it could draw past this.
MAX_REQUEST_DRAWS = 1 << 22

#: How long ``close()`` waits for the replies in flight and the serve thread.
CLOSE_WAIT_SECONDS = 5


class _Knobs(NamedTuple):
    """A request's sampler knobs, and the most worlds one of its
    estimates may draw (``adaptive.max_draws``)."""

    budget: int | None
    epsilon: Fraction
    delta: Fraction
    seed: int
    estimator: str
    relative: Fraction | None
    draws: int


def _check_request_draws(estimates: int, draws: int) -> None:
    """Refuse a request whose ``estimates`` estimates of up to ``draws``
    worlds each could draw more than ``MAX_REQUEST_DRAWS`` in all."""
    if estimates * draws > MAX_REQUEST_DRAWS:
        raise ProtocolError(
            "bad-request",
            f"{estimates} estimates of up to {draws} worlds each could "
            f"draw {estimates * draws} worlds for this request, over "
            f"the cap of {MAX_REQUEST_DRAWS} per request")


@dataclass(frozen=True)
class Workload:
    """A resolved request target: query grounded over its path block."""

    text: str
    p: int
    query: Query = field(compare=False)
    tid: TID = field(compare=False)
    formula: CNF = field(compare=False)
    fingerprint: str = field(compare=False)
    safe: bool = field(compare=False)
    #: Whether the safe plan answers the query, so ``auto`` compiles
    #: nothing (false for a safe full clause that shares a symbol).
    lifted: bool = field(compare=False)


class _ServiceTCPServer(socketserver.ThreadingTCPServer):
    """The listener plus a wake-up socketpair registered beside it:
    ``shutdown`` writes one byte there, so the serve loop returns at
    once instead of at ``socketserver``'s next 0.5 s poll."""

    allow_reuse_address = True
    daemon_threads = True
    service = None  # installed by ServiceFrontEnd

    def __init__(self, address, handler):
        # Made before the listener binds: a failed bind calls
        # server_close, which closes the pair too.
        self._wake, self._waker = socket.socketpair()
        self._stopped = threading.Event()
        super().__init__(address, handler)

    def serve_forever(self) -> None:
        self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake, selectors.EVENT_READ)
                while True:
                    ready = {key.fileobj for key, _ in selector.select()}
                    if self._wake in ready:
                        self._wake.recv(64)
                        return
                    self._handle_request_noblock()
        finally:
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the loop and wait until it has returned."""
        try:
            self._waker.send(b"\0")
        except OSError:
            pass  # closed: the loop has returned already
        self._stopped.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake.close()
        self._waker.close()


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        service = self.server.service
        while True:
            line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
            if not line:
                return
            # Counted from the moment a line is read until its reply is
            # written, so close() drains it; an idle connection blocked
            # in readline is not counted.
            service._reply_due()
            try:
                if len(line) > MAX_REQUEST_BYTES:
                    response = error_response(
                        None, "bad-request",
                        f"request line exceeds {MAX_REQUEST_BYTES} "
                        f"bytes")
                    # The connection's framing is now unrecoverable
                    # (the oversized line was truncated mid-stream):
                    # answer and hang up.
                    self._reply(response)
                    return
                if not line.strip():
                    continue
                if not self._reply(service.handle_line(line)):
                    return
            finally:
                service._reply_done()

    def _reply(self, response: dict) -> bool:
        try:
            self.wfile.write(dump_line(response))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False


class WorkloadResolver:
    """A bounded LRU of resolved request targets: query text + block
    length -> grounded lineage plus its ``cnf_fingerprint``.

    Owned by ``ServiceFrontEnd``, so both deployments have one — the
    dispatcher needs the fingerprint *before* any worker is chosen
    (consistent-hash routing), and grounding is pure parsing, safe to
    do twice on a cold cache.  Resolution runs inside a ``dispatch``
    span so the stage shows up in every request's trace either way.
    """

    #: Resolved targets kept, least recently used evicted first.
    CACHE_SIZE = 128

    def __init__(self):
        self._lock = threading.Lock()
        self._cache: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def resolve(self, params: dict) -> Workload:
        """Parse, ground, and cache the request target, inside a
        ``dispatch`` span tagged with whether it was a cache hit."""
        with span("dispatch") as sp:
            text = take_str(params, "query")
            p = take_int(params, "p", default=4, minimum=1, maximum=64)
            key = (text, p)
            with self._lock:
                hit = self._cache.get(key)
                if hit is not None:
                    self._cache.move_to_end(key)
                    sp.tag(cached=True)
                    return hit
            sp.tag(cached=False)
            try:
                query = parse_query(text)
            except ValueError as error:
                raise ProtocolError("bad-query", str(error)) from None
            try:
                tid = path_block(query, p)
                formula = lineage(query, tid)
            except (ValueError, KeyError, TypeError) as error:
                raise ProtocolError(
                    "bad-query",
                    f"cannot ground {text!r} over B_{p}(u, v): "
                    f"{error}") from None
            safe = is_safe(query)
            workload = Workload(text, p, query, tid, formula,
                                cnf_fingerprint(formula), safe,
                                safe and _has_plan(query))
            with self._lock:
                self._cache[key] = workload
                while len(self._cache) > self.CACHE_SIZE:
                    self._cache.popitem(last=False)
            return workload


def _has_plan(query: Query) -> bool:
    """Whether ``lifted_probability`` answers the safe ``query``."""
    if query.is_constant():
        return True
    try:
        safe_plan(query)
    except UnsafeQueryError:
        return False
    return True


class ServiceFrontEnd:
    """The request front end both deployments share: the listener
    and its lifecycle, tenancy, tracing, the param check against
    ``OP_PARAMS``, the workload resolver, the request counters, and
    the ``ping``/``shutdown``/``stats``/``metrics``/``trace`` ops.
    ``ReproServer`` adds the compute ops; ``ReproDispatcher``
    (``repro.service.dispatch``) adds routing, proxying and the worker
    lifecycle.

    A subclass sets up its own state, then calls this constructor
    with its op handlers as ``ops`` (the listener is bound last, so a
    failed subclass set-up leaks no socket).  It hooks in through
    ``_run_op``, ``_extend_stats``, ``_expand_trace`` and
    ``_release``.
    """

    def __init__(self, host: str, port: int, ops: dict, *,
                 budget_nodes, auth_tokens, quota, tenant_quotas,
                 store_max_bytes, tracing, slow_ms, trace_buffer,
                 trace_dir, clock):
        if budget_nodes is not None and budget_nodes < 2:
            raise ValueError("budget_nodes must be at least 2 (or None "
                             "for no budget)")
        if store_max_bytes is not None and store_max_bytes < 0:
            raise ValueError("store_max_bytes must be non-negative")
        if slow_ms is not None and slow_ms < 0:
            raise ValueError("slow_ms must be non-negative")
        self.default_budget = budget_nodes
        #: Size cap for the tier-2 store: after every fresh
        #: compilation the store is pruned back under this many bytes
        #: (oldest access time first) through ``CircuitStore.prune``.
        self.store_max_bytes = store_max_bytes
        #: Request tracing: the tracer mints (or propagates) one trace
        #: per request, keeps the last ``trace_buffer`` span trees,
        #: feeds the (op, stage) latency histograms, and logs requests
        #: slower than ``slow_ms`` (optionally to
        #: ``trace_dir/TRACE_slow.jsonl``).
        self.tracer = Tracer(
            enabled=tracing, buffer_size=trace_buffer,
            slow_threshold=(None if slow_ms is None
                            else slow_ms / 1000.0),
            trace_dir=trace_dir)
        #: Multi-tenant hardening: token auth plus per-tenant quotas
        #: (``auth_tokens`` maps token -> tenant; ``quota`` is the
        #: default limits record, ``tenant_quotas`` per-tenant
        #: overrides).  With no tokens the service stays open and all
        #: requests run as the anonymous tenant.
        self.tenants = TenantRegistry(auth_tokens, quota,
                                      tenant_quotas)
        self.workloads = WorkloadResolver()
        self._tenant_local = threading.local()
        self._counter_lock = threading.Lock()
        #: Request lines read whose replies are not written yet;
        #: ``_replied`` is notified when it drops to 0 after ``close()``.
        self._unreplied = 0
        self._replied = threading.Condition(self._counter_lock)
        self._requests = 0
        self._errors = 0
        self._op_counts: dict[str, int] = {}
        #: Uptime runs on an injectable monotonic clock (dashboards
        #: rate-convert counters against it); ``started_at`` is the
        #: one wall-clock reading, taken exactly once at start-up.
        self._clock = clock
        self._started = clock()
        self._started_at = time.time()
        self._lifecycle_lock = threading.Lock()
        self._serving = False
        self._closed = False
        self._serve_thread = None
        # Immutable after construction, so the request path reads it
        # without a lock.
        self._ops = _freeze({
            "ping": self._op_ping,
            "shutdown": self._op_shutdown,
            "stats": self._op_stats,
            "metrics": self._op_metrics,
            "trace": self._op_trace,
            **ops,
        })
        self._tcp = _ServiceTCPServer((host, port), _Handler)
        self._tcp.service = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        """Serve on the calling thread until ``shutdown`` (the op or
        ``close``) or KeyboardInterrupt; returns at once after
        ``close``."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._serving = True
        try:
            self._tcp.serve_forever()
        finally:
            with self._lifecycle_lock:
                self._serving = False

    def start(self) -> tuple[str, int]:
        """Serve on a background daemon thread; returns the address
        (tests and benchmarks embed the service this way)."""
        self._serve_thread = threading.Thread(
            target=self.serve_forever, daemon=True,
            name="repro-service")
        self._serve_thread.start()
        return self.address

    def close(self) -> None:
        """Stop serving, close the listener, wait until every request
        line already read has its reply written (at most
        ``CLOSE_WAIT_SECONDS``), and release the subclass's resources.
        Safe in any state — never started, serving, or already closed
        — and idempotent."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        self._stop_serving()
        self._tcp.server_close()
        self._drain_replies()
        self._release()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=CLOSE_WAIT_SECONDS)
            self._serve_thread = None

    def _stop_serving(self) -> None:
        """Make ``serve_forever`` return.  Only a running loop is
        asked: ``socketserver`` waits forever for a loop that never
        started."""
        with self._lifecycle_lock:
            serving = self._serving
        if serving:
            self._tcp.shutdown()

    def _reply_due(self) -> None:
        """A request line was read: unreplied until ``_reply_done``."""
        with self._counter_lock:
            self._unreplied += 1

    def _reply_done(self) -> None:
        with self._counter_lock:
            self._unreplied -= 1
            if self._closed and not self._unreplied:
                self._replied.notify_all()

    def _drain_replies(self) -> None:
        """Wait, at most ``CLOSE_WAIT_SECONDS``, until no request line
        read is left without its reply: a process that exits after
        ``close()`` (``serve_until_closed``) must not cut off the reply
        to the ``shutdown`` op that stopped it."""
        with self._counter_lock:
            self._replied.wait_for(lambda: not self._unreplied,
                                   CLOSE_WAIT_SECONDS)

    def _release(self) -> None:
        """Hook: release what the subclass holds, after the listener
        closed and the replies in flight were written."""

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------
    def handle_line(self, line: bytes | str) -> dict:
        """One request line to one response object (never raises).

        Every dispatched request runs inside a root span; the trace id
        (client-supplied via the top-level ``trace`` request field, or
        minted by the tracer) is echoed back as a top-level ``trace``
        response field, success or error, so clients can fetch the
        span tree afterwards through the ``trace`` op.  Its params are
        checked against the op's ``OP_PARAMS`` row here, once for
        both deployments.
        """
        request_id = None
        try:
            request_id, op, params, auth, trace_id = parse_request(line)
        except ProtocolError as error:
            self._count(None, error=True)
            return error_response(error.request_id, error.code,
                                  error.message)
        root = NULL_SPAN
        try:
            # Authentication and the rate window come before any work:
            # an unauthorized or over-quota request costs one dict
            # lookup, not a compilation.  The resolved tenant rides on
            # a thread-local so the compile path (reached through the
            # compile pool) can attribute fresh work without threading a
            # tenant argument through every handler.
            tenant = self.tenants.resolve(auth)
            self._tenant_local.tenant = tenant
            self.tenants.charge_request(tenant)
            self._count(op)
            root = self.tracer.root(op, trace_id=trace_id,
                                    tenant=tenant)
            with root:
                check_fields(params, OP_PARAMS[op])
                result = self._run_op(op, params)
            response = ok_response(request_id, op, result)
        except ProtocolError as error:
            self._count(None, error=True)
            response = error_response(request_id, error.code,
                                      error.message)
        except Exception as error:  # never kill the connection loop
            self._count(None, error=True)
            response = error_response(
                request_id, "internal",
                f"{type(error).__name__}: {error}")
        echo = root.trace_id if root.trace_id is not None else trace_id
        if echo is not None:
            response["trace"] = echo
        return response

    def _run_op(self, op: str, params: dict) -> dict:
        """Hook: one request's op, its params checked, inside its
        root span."""
        return self._ops[op](params)

    def _count(self, op: str | None, error: bool = False) -> None:
        with self._counter_lock:
            if op is not None:
                self._requests += 1
                self._op_counts[op] = self._op_counts.get(op, 0) + 1
            if error:
                self._errors += 1

    # ------------------------------------------------------------------
    # Request knobs
    # ------------------------------------------------------------------
    def _estimator_knobs(self, params: dict,
                         method: str | None = None) -> _Knobs:
        budget = take_int(params, "budget_nodes",
                          default=self.default_budget, minimum=2)
        epsilon = take_fraction(params, "epsilon",
                                default=DEFAULT_EPSILON)
        delta = take_fraction(params, "delta", default=DEFAULT_DELTA)
        try:
            check_accuracy(epsilon, delta)
        except ValueError as error:
            raise ProtocolError("bad-request", f"param {error}") from None
        seed = take_int(params, "seed", default=0)
        estimator = take_str(params, "estimator", default="hoeffding",
                             choices=ESTIMATORS)
        relative = take_fraction(params, "relative_error", default=None)
        try:
            estimator = resolve_estimator(estimator, relative)
        except ValueError:
            raise ProtocolError(
                "bad-request",
                "param 'relative_error' must be positive") from None
        # The sampler an evaluate method forces, else the knob's.
        sampler = method if method in ("adaptive", "importance") \
            else estimator
        draws = max_draws(epsilon, delta, WEIGHT_CAPS[sampler])
        if draws > MAX_ESTIMATE_DRAWS:
            raise ProtocolError(
                "bad-request",
                f"epsilon {epsilon} and delta {delta} let the "
                f"{sampler} sampler draw up to {draws} worlds per "
                f"estimate, over the cap of {MAX_ESTIMATE_DRAWS}")
        return _Knobs(budget, epsilon, delta, seed, estimator, relative,
                      draws)

    def _batch_knobs(self, params: dict) -> tuple[list, str, _Knobs]:
        """``evaluate_batch``'s ``ps``, ``method`` and knobs, parsed as
        both deployments parse them."""
        ps = take_int_list(params, "ps", minimum=1, max_items=256)
        method = take_str(params, "method", default="auto",
                          choices=EVAL_METHODS)
        return ps, method, self._estimator_knobs(params, method)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _op_ping(self, params: dict) -> dict:
        return {"pong": True}

    def _op_shutdown(self, params: dict) -> dict:
        # Stopping blocks until serve_forever returns, so it must run
        # off-thread.  close() (serve_until_closed's finally) waits
        # until this reply and every other one in flight is written,
        # then releases the rest.
        threading.Thread(target=self._stop_serving, daemon=True).start()
        return {"stopping": True}

    def _op_stats(self, params: dict) -> dict:
        uptime = self._clock() - self._started
        with self._counter_lock:
            service = {
                "uptime_seconds": round(uptime, 6),
                "started_at": round(self._started_at, 3),
                "requests": self._requests,
                "errors": self._errors,
                "ops": dict(sorted(self._op_counts.items())),
                "default_budget_nodes": self.default_budget,
                "workloads_cached": len(self.workloads),
                "auth_enabled": self.tenants.auth_enabled,
                "store_max_bytes": self.store_max_bytes,
            }
        tracing = self.tracer.stats()
        tracing["histograms"] = self.tracer.histograms()
        stats = {"service": service, "tenants": self.tenants.usage(),
                 "tracing": tracing}
        self._extend_stats(stats)
        return stats

    def _extend_stats(self, stats: dict) -> None:
        """Hook: add the subclass's ``cache`` section and its entries
        of the ``service`` section."""

    def _op_metrics(self, params: dict) -> dict:
        """The ``stats`` payload rendered in the Prometheus text
        exposition format — a projection, never separate counters, so
        the two surfaces cannot drift."""
        return {"content_type": CONTENT_TYPE,
                "text": render_metrics(self._op_stats({}))}

    def _op_trace(self, params: dict) -> dict:
        """Completed request traces from the tracer's ring buffer:
        the newest ``limit`` (or the slow log with ``slow``), or one
        trace by ``id``.  Under auth, a tenant only ever sees its own
        traces — trace ids are not capabilities."""
        trace_id = take_str(params, "id", default=None)
        limit = take_int(params, "limit", default=16, minimum=1,
                         maximum=256)
        slow = take_bool(params, "slow", default=False)
        tenant = getattr(self._tenant_local, "tenant", ANONYMOUS)
        scope = tenant if self.tenants.auth_enabled else None
        if trace_id is not None:
            found = self.tracer.find(trace_id, tenant=scope)
            traces = [] if found is None else [self._expand_trace(found)]
        else:
            traces = self.tracer.recent(limit, tenant=scope, slow=slow)
        return {"enabled": self.tracer.enabled,
                "count": len(traces), "traces": traces}

    def _expand_trace(self, payload: dict) -> dict:
        """Hook: a trace found by id, before it is returned."""
        return payload


class ReproServer(ServiceFrontEnd):
    """The resident query service (see the module docstring).

    ``port=0`` binds an ephemeral port — read the chosen one back from
    ``address``.  ``store`` installs a tier-2 ``CircuitStore`` (path or
    instance) before serving; ``workers`` bounds concurrent
    compilations; ``budget_nodes`` is the default ``auto``-policy
    budget for requests that do not override it.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 store=None, workers: int = 4,
                 budget_nodes: int | None = wmc.DEFAULT_BUDGET_NODES,
                 auth_tokens: dict[str, str] | None = None,
                 quota: TenantQuota | None = None,
                 tenant_quotas: dict[str, TenantQuota] | None = None,
                 store_max_bytes: int | None = None,
                 tracing: bool = True,
                 slow_ms: float | None = None,
                 trace_buffer: int = 256,
                 trace_dir=None,
                 clock=time.monotonic,
                 worker_mode: bool = False):
        if store is not None and not hasattr(store, "get"):
            store = CircuitStore(store)
        self.pool = CompilePool(workers)
        #: Worker mode (set by ``repro.service.worker`` when this
        #: server is one process of a dispatcher's pool): every
        #: response whose request led a fresh compilation carries a
        #: ``charge`` record with the interned-node count, so the
        #: dispatcher — the single owner of tenant quota state — can
        #: apply the spend centrally.  Off by default; the field never
        #: appears in single-process responses.
        self.worker_mode = worker_mode
        #: Service-wide compilation-growth observations: every fresh
        #: leader compile feeds (clauses, circuit nodes) into one
        #: ``BudgetPlanner`` whose fit and trajectory are surfaced in
        #: ``stats`` (the dispatcher merges each worker's records into
        #: one aggregated planner via ``growth_records``).
        self.planner = BudgetPlanner()
        #: Adaptive-tier observability: requests answered by a
        #: sequential sampler, individual estimates that stopped
        #: before the fixed-n Hoeffding count, and the samples that
        #: early stopping saved (sum + estimate count -> mean).
        self._adaptive_requests = 0
        self._early_stops = 0
        self._adaptive_estimates = 0
        self._samples_saved = 0
        #: Automatic store eviction: prune passes that evicted
        #: something, entries evicted, bytes reclaimed.
        self._auto_prunes = 0
        self._auto_evicted = 0
        self._auto_reclaimed_bytes = 0
        super().__init__(
            host, port, {
                "compile": self._op_compile,
                "evaluate": self._op_evaluate,
                "evaluate_batch": self._op_evaluate_batch,
                "sweep": self._op_sweep,
                "estimate": self._op_estimate,
                "sample": self._op_sample,
                "top_k": self._op_top_k,
                "store_gc": self._op_store_gc,
            },
            budget_nodes=budget_nodes,
            auth_tokens=auth_tokens, quota=quota,
            tenant_quotas=tenant_quotas, store_max_bytes=store_max_bytes,
            tracing=tracing, slow_ms=slow_ms, trace_buffer=trace_buffer,
            trace_dir=trace_dir, clock=clock)
        # The process-wide store switches only once nothing above can
        # raise: a failed construction leaves it as it was.
        if store is not None:
            wmc.set_circuit_store(store)

    def _run_op(self, op: str, params: dict) -> dict:
        # Fresh-compile spend accumulates on the request thread, where
        # _compiled's leader/charge logic runs.
        self._tenant_local.charged_nodes = 0
        result = super()._run_op(op, params)
        charged = self._tenant_local.charged_nodes
        if self.worker_mode and charged:
            result = {**result, "charge": {"nodes": charged}}
        return result

    # ------------------------------------------------------------------
    # Compilation (quota attribution, store eviction)
    # ------------------------------------------------------------------
    def _compiled(self, workload: Workload, budget_nodes: int | None):
        """The workload's circuit and the tier ``wmc.compiled_from``
        names for it, or ``"in-flight join"`` for a rider.

        A warm circuit is read on the request thread and is free.  A
        miss goes through the deduping compile pool, and its leader's
        tenant pays for what the job did not find in memory (its
        interned-node count) — joiners ride free, matching the "one
        compilation for N requests" economics.  A tenant whose
        cumulative compile budget is spent is refused *before* the
        work is scheduled; the request that crosses the cap is charged
        and refused after it (the circuit stays cached for everyone).
        """
        circuit = wmc.cached(workload.formula)
        if circuit is not None:
            return circuit, "memory cache"
        tenant = getattr(self._tenant_local, "tenant", ANONYMOUS)
        self.tenants.check_compile(tenant)
        (circuit, source), leader = self.pool.run_attributed(
            (workload.fingerprint, budget_nodes),
            lambda: wmc.compiled_from(workload.formula, budget_nodes))
        if not leader:
            return circuit, "in-flight join"
        if source != "memory cache":
            self._autoprune_store()
            if len(workload.formula) >= 1 and circuit.size >= 1:
                with self._counter_lock:
                    self.planner.observe(len(workload.formula),
                                         circuit.size)
            self._tenant_local.charged_nodes += circuit.size
            self.tenants.charge_compile(tenant, circuit.size)
        return circuit, source

    def _autoprune_store(self) -> None:
        """Size-capped automatic eviction: after a fresh compilation
        lands in the tier-2 store, prune it back under
        ``store_max_bytes`` (oldest access time first) so a long-lived
        service cannot grow its disk footprint without bound."""
        cap = self.store_max_bytes
        if cap is None:
            return
        store = wmc.get_circuit_store()
        if store is None:
            return
        try:
            report = store.prune(max_bytes=cap)
        except OSError:
            return  # a sick disk must not fail the compile request
        reclaimed = (report.get("bytes_before", 0)
                     - report.get("bytes_after", 0))
        with self._counter_lock:
            self._auto_prunes += 1
            self._auto_evicted += report.get("removed", 0)
            self._auto_reclaimed_bytes += max(reclaimed, 0)

    def _prewarm(self, workload: Workload,
                 budget_nodes: int | None) -> bool:
        """Route the compilation a downstream exact/auto evaluation
        will need through the deduping pool.  Returns whether the
        budget blew: the auto policy then degrades to its sampler."""
        try:
            self._compiled(workload, budget_nodes)
        except CompilationBudgetExceeded:
            return True
        return False

    def _prewarm_for(self, workload: Workload, method: str,
                     budget: int | None) -> bool:
        """``_prewarm`` the compile that evaluating ``workload`` by
        ``method`` will need, and return whether that evaluation draws
        worlds: an estimate method always does, and ``auto`` does when
        no safe plan answers the query and its compile blows
        ``budget``."""
        if workload.query.is_false():
            return False
        if method in ESTIMATE_METHODS:
            return True
        if method == "auto" and not workload.lifted:
            return self._prewarm(workload, budget)
        if method in ("wmc", "cross-check") and not workload.safe:
            self._prewarm(workload, None)
        return False

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _extend_stats(self, stats: dict) -> None:
        service = stats["service"]
        with self._counter_lock:
            service.update(
                auto_prunes=self._auto_prunes,
                auto_evicted=self._auto_evicted,
                auto_reclaimed_bytes=self._auto_reclaimed_bytes,
                adaptive_requests=self._adaptive_requests,
                early_stops=self._early_stops,
                mean_samples_saved=(
                    round(self._samples_saved
                          / self._adaptive_estimates, 2)
                    if self._adaptive_estimates else 0.0))
            planner_info = dict(self.planner.stats())
            planner_info["growth"] = self.planner.growth_records()
        service["planner"] = planner_info
        service.update(self.pool.stats())
        stats["cache"] = wmc.cache_info()

    def _op_store_gc(self, params: dict) -> dict:
        """Size-capped eviction on the attached tier-2 store
        (``CircuitStore.prune``): delete entries, oldest access time
        first, until the store fits in ``max_bytes``.  ``max_bytes``
        is required — there is no safe default for a destructive op."""
        max_bytes = take_int(params, "max_bytes", minimum=0)
        store = wmc.get_circuit_store()
        if store is None:
            raise ProtocolError(
                "bad-request",
                "no circuit store attached to this service "
                "(start it with --store or REPRO_CIRCUIT_STORE)")
        report = store.prune(max_bytes=max_bytes)
        report["store"] = str(store.root)
        return report

    def _note_estimates(self, estimates, epsilon, delta) -> None:
        """Update the adaptive-tier counters after a request answered
        with sequential-sampler estimates.  Savings are measured
        against one fixed baseline — the unit-range Hoeffding count at
        the request's (epsilon, delta), i.e. what the default engine
        would have drawn — and clamped at zero: the importance
        sampler's own worst case is ``DEFAULT_WEIGHT_CAP^2`` times
        larger, so its runs can legitimately exceed the baseline
        without being early-stop failures."""
        sequential = [e for e in estimates
                      if e is not None and e.method != "hoeffding"
                      and e.samples > 0]
        if not sequential:
            return
        worst = hoeffding_sample_count(epsilon, delta)
        with self._counter_lock:
            self._adaptive_requests += 1
            for estimate in sequential:
                self._adaptive_estimates += 1
                saved = worst - estimate.samples
                if saved > 0:
                    self._early_stops += 1
                    self._samples_saved += saved

    def _op_compile(self, params: dict) -> dict:
        budget = take_int(params, "budget_nodes", default=None, minimum=2)
        workload = self.workloads.resolve(params)
        try:
            circuit, source = self._compiled(workload, budget)
        except CompilationBudgetExceeded:
            raise ProtocolError(
                "budget-exceeded",
                f"compilation of {workload.fingerprint[:12]} exceeded "
                f"{budget} nodes; raise budget_nodes or use "
                f"evaluate/sweep, which degrade to the estimator"
            ) from None
        return {
            "fingerprint": workload.fingerprint,
            "engine": "exact",
            "source": source,
            "clauses": len(workload.formula),
            "variables": len(workload.formula.variables()),
            "circuit": circuit.stats(),
        }

    def _evaluate_one(self, workload: Workload, method: str,
                      knobs: _Knobs) -> dict:
        with span("evaluate", method=method):
            try:
                result = evaluate(workload.query, workload.tid, method,
                                  budget_nodes=knobs.budget,
                                  epsilon=knobs.epsilon,
                                  delta=knobs.delta, rng=knobs.seed,
                                  estimator=knobs.estimator,
                                  relative_error=knobs.relative,
                                  formula=workload.formula,
                                  safe=workload.safe)
            except UnsafeQueryError as error:  # method="lifted"
                raise ProtocolError("bad-request", str(error)) from None
        self._note_estimates([result.estimate], knobs.epsilon,
                             knobs.delta)
        payload = result.as_dict()
        payload["p"] = workload.p
        payload["fingerprint"] = workload.fingerprint
        return payload

    def _op_evaluate(self, params: dict) -> dict:
        method = take_str(params, "method", default="auto",
                          choices=EVAL_METHODS)
        knobs = self._estimator_knobs(params, method)
        workload = self.workloads.resolve(params)
        # One estimate stays within MAX_ESTIMATE_DRAWS: no count here.
        self._prewarm_for(workload, method, knobs.budget)
        return self._evaluate_one(workload, method, knobs)

    def _op_evaluate_batch(self, params: dict) -> dict:
        ps, method, knobs = self._batch_knobs(params)
        text = take_str(params, "query")
        workloads = [self.workloads.resolve({"query": text, "p": p})
                     for p in ps]
        # Every compile first, so the draws are counted before any.
        estimates = sum(self._prewarm_for(workload, method, knobs.budget)
                        for workload in workloads)
        _check_request_draws(estimates, knobs.draws)
        results = [self._evaluate_one(workload, method, knobs)
                   for workload in workloads]
        return {"results": results, "count": len(results)}

    def _op_sweep(self, params: dict) -> dict:
        k = take_int(params, "grid", default=8, minimum=1,
                     maximum=100_000)
        numeric = take_str(params, "numeric", default="exact",
                           choices=("exact", "float"))
        knobs = self._estimator_knobs(params)
        workload = self.workloads.resolve(params)
        r_u, t_v = r_tuple("u"), t_tuple("v")
        if not {r_u, t_v} & workload.formula.variables():
            raise ProtocolError(
                "bad-query",
                f"the lineage of {workload.text!r} contains neither "
                f"endpoint tuple R(u) nor T(v); an endpoint sweep "
                f"would evaluate the same weights at every grid point")
        weight_maps = endpoint_weight_grid(workload.formula,
                                           workload.tid, k)
        # A cold compile goes through the deduping pool (N concurrent
        # sweeps pay for one); a blown budget's negative cache then
        # makes the pass's own compile abort at once, every lane is an
        # estimate, and the request's seed alone drives them.
        if self._prewarm(workload, knobs.budget):
            _check_request_draws(len(weight_maps), knobs.draws)
        with span("evaluate", lanes=len(weight_maps), numeric=numeric):
            sweep = wmc.probability_batch_auto(
                workload.formula, weight_maps, budget_nodes=knobs.budget,
                epsilon=knobs.epsilon, delta=knobs.delta, rng=knobs.seed,
                numeric=numeric, estimator=knobs.estimator,
                relative_error=knobs.relative)
        self._note_estimates(sweep.estimates or [], knobs.epsilon,
                             knobs.delta)
        result = {
            "fingerprint": workload.fingerprint,
            "engine": sweep.engine,
            "numeric": numeric,
            "count": len(sweep.values),
            "grid": [[str(w.pinned[r_u]), str(w.pinned[t_v])]
                     for w in weight_maps],
            "values": [v if numeric == "float" else str(v)
                       for v in sweep.values],
        }
        if sweep.estimates is not None:
            result["estimates"] = [e.as_dict() for e in sweep.estimates]
        return result

    def _op_estimate(self, params: dict) -> dict:
        # Same knob parsing as evaluate/sweep; the budget slot is
        # inert here (the front end already refused budget_nodes).
        knobs = self._estimator_knobs(params)
        workload = self.workloads.resolve(params)
        with span("evaluate", method=knobs.estimator):
            estimate = estimate_with(
                knobs.estimator, workload.formula,
                workload.tid.probability, knobs.epsilon, knobs.delta,
                knobs.seed, relative_error=knobs.relative)
        self._note_estimates([estimate], knobs.epsilon, knobs.delta)
        return {
            "fingerprint": workload.fingerprint,
            "engine": ENGINE_LABELS[knobs.estimator],
            "estimate": estimate.as_dict(),
        }

    def _sampling_circuit(self, params: dict):
        budget = take_int(params, "budget_nodes", default=None,
                          minimum=2)
        workload = self.workloads.resolve(params)
        try:
            circuit, _ = self._compiled(workload, budget)
        except CompilationBudgetExceeded:
            raise ProtocolError(
                "budget-exceeded",
                f"sampling needs the compiled circuit and compilation "
                f"of {workload.fingerprint[:12]} exceeded {budget} "
                f"nodes") from None
        return workload, circuit

    def _op_sample(self, params: dict) -> dict:
        k = take_int(params, "k", default=1, minimum=0, maximum=10_000)
        seed = take_int(params, "seed", default=0)
        workload, circuit = self._sampling_circuit(params)
        # As for evaluate: a warm store's .tape sidecar spares a flatten.
        wmc.ensure_tape(workload.formula, circuit)
        try:
            with span("evaluate", method="sample", k=k):
                worlds = circuit.sample(workload.tid.probability, k,
                                        rng=seed)
        except ValueError as error:
            raise ProtocolError("bad-request", str(error)) from None
        return {
            "fingerprint": workload.fingerprint,
            "engine": "exact",
            "seed": seed,
            "worlds": [encode_world(world) for world in worlds],
        }

    def _op_top_k(self, params: dict) -> dict:
        k = take_int(params, "k", default=1, minimum=1, maximum=10_000)
        workload, circuit = self._sampling_circuit(params)
        with span("evaluate", method="top_k", k=k):
            pairs = circuit.top_k_worlds(workload.tid.probability, k)
        return {
            "fingerprint": workload.fingerprint,
            "engine": "exact",
            "worlds": [{"probability": str(prob),
                        "float": float(prob),
                        "world": encode_world(world)}
                       for prob, world in pairs],
        }


def serve_until_closed(server: ServiceFrontEnd, banner: str) -> int:
    """Announce ``"<banner> <host>:<port>"`` on stdout, serve on the
    calling thread until shutdown or KeyboardInterrupt, then close —
    the main loop of ``repro serve`` and of each worker process."""
    try:
        host, port = server.address
        print(f"{banner} {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0
