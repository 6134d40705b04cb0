"""Multi-process front end: one dispatcher, N worker processes.

Exact ``Fraction`` evaluation is pure Python, so a hot sweep on the
single ``ThreadingTCPServer`` holds the GIL and starves every other
client.  ``ReproDispatcher`` scales the service past that limit
without changing its contract: it is the same request front end as
``ReproServer`` (``repro.service.server.ServiceFrontEnd``: same
listener, ops, error codes, tenancy and tracing) and proxies compute
requests to a pool of worker **processes** (``repro.service.worker``),
each a full ``ReproServer`` with its own interpreter, compile pool,
and memory LRU, all sharing one content-addressed ``CircuitStore``.

Design points:

* **Consistent-hash routing** — requests route by the workload's
  ``cnf_fingerprint`` over a virtual-node hash ring, so one formula
  always lands on the same worker: memory LRUs stay warm and
  *non-duplicated*, and concurrent cold requests for one formula
  share one compilation in that worker's compile pool.
  ``evaluate_batch`` is split per ``p`` (each block length is a
  different formula) and routed independently.
* **Trace propagation** — every proxied hop runs under a ``proxy``
  span tagged with the worker index and a derived child trace id the
  worker adopts; ``trace`` lookups by id graft the worker-side span
  tree under its proxy span, so one request's tree covers
  dispatch -> worker compile -> evaluate across the process boundary.
* **Centralized tenancy** — auth tokens, rate windows, and compile
  budgets live only here.  Workers run open and report fresh-compile
  spend in a ``charge`` response field the dispatcher strips and
  applies to its own ``TenantRegistry``, preserving the
  single-process semantics (fail-fast on an exhausted budget, the
  crossing request charged-but-refused, warm circuits free).
* **Crash recovery** — a torn worker connection is detected, the
  worker respawned (same ring slot, fresh memory, warm shared store),
  and the request re-dispatched once; a second failure surfaces as a
  structured ``internal`` error, never a raw socket error.

``stats``/``metrics`` aggregate across the pool: worker cache
counters are summed, each worker's ``BudgetPlanner`` growth records
are merged into one service-wide planner, and per-worker liveness
rides in a ``workers`` section.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time

from bisect import bisect_left
from pathlib import Path

from repro.booleans.adaptive import BudgetPlanner
from repro.evaluation import ESTIMATE_METHODS
from repro.obs import Tracer, current_trace_id, span
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    ERROR_CODES,
    ProtocolError,
    check_fields,
)
from repro.service.server import (
    _ESTIMATOR_FIELDS, MAX_REQUEST_DRAWS, ServiceFrontEnd,
)
from repro.service.tenants import ANONYMOUS, TenantQuota
from repro.service.worker import BANNER
from repro.tid import wmc

#: Virtual ring points per worker: enough that the keyspace split is
#: within a few percent of even for small pools, cheap to build.
VNODES = 64

#: Worker cache counters that are meaningful to sum across the pool
#: (limits and booleans are per-process configuration, not load).
_SUMMABLE_CACHE = ("entries", "nodes", "hits", "store_hits",
                   "store_misses", "compiles", "budget_aborts",
                   "tape_hits", "tape_flattens", "tape_bytes",
                   "tape_kernels")


def _ring_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class _HashRing:
    """Consistent ``fingerprint -> worker index`` routing.

    The ring is built once over worker *indices* (not addresses), so a
    respawned worker keeps its slot and inherits exactly the keyspace
    its predecessor warmed into the shared store.
    """

    def __init__(self, workers: int, vnodes: int = VNODES):
        points = sorted(
            (_ring_hash(f"worker-{index}:{vnode}"), index)
            for index in range(workers)
            for vnode in range(vnodes))
        self._points = points
        self._keys = [key for key, _ in points]

    def route(self, fingerprint: str) -> int:
        position = bisect_left(self._keys, _ring_hash(fingerprint))
        if position == len(self._keys):
            position = 0
        return self._points[position][1]


def _close_quietly(conn: ServiceClient) -> None:
    try:
        conn.close()
    except OSError:
        pass


def _close_pipes(process: subprocess.Popen) -> None:
    """Close this side of a worker's stdin and stdout pipes."""
    process.stdin.close()
    process.stdout.close()


class _WorkerHandle:
    """One worker subprocess: liveness, address, generation, and a
    small pool of idle connections (a ``ServiceClient`` serializes its
    own calls, so concurrent dispatcher threads each borrow one)."""

    MAX_IDLE = 8

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.Lock()
        self.process = None
        self.address = None
        #: Bumped on every (re)spawn; pooled connections remember the
        #: generation they were dialed against and are discarded when
        #: it moved on.
        self.generation = 0
        self.respawns = 0
        #: Fingerprints this worker is believed to hold resident
        #: (cleared on respawn): the dispatcher's stand-in for the
        #: worker's cache probe when deciding whether an exhausted
        #: compile budget should fail fast — warm circuits stay free.
        self.resident: set[str] = set()
        self._idle: list[tuple[int, ServiceClient]] = []

    def acquire(self, timeout) -> tuple[int, ServiceClient]:
        with self.lock:
            generation = self.generation
            address = self.address
            while self._idle:
                pooled_generation, conn = self._idle.pop()
                if pooled_generation == generation:
                    return generation, conn
                _close_quietly(conn)
        conn = ServiceClient(address[0], address[1], timeout=timeout,
                             connect_retries=0)
        return generation, conn

    def release(self, generation: int, conn: ServiceClient) -> None:
        with self.lock:
            if (generation == self.generation
                    and len(self._idle) < self.MAX_IDLE):
                self._idle.append((generation, conn))
                return
        _close_quietly(conn)

    def drain_locked(self) -> None:
        """Caller holds ``lock``."""
        idle, self._idle = self._idle, []
        for _, conn in idle:
            _close_quietly(conn)


class ReproDispatcher(ServiceFrontEnd):
    """The multi-process query service front end.

    Constructor surface mirrors ``ReproServer`` (the CLI treats the
    two uniformly) plus ``workers`` — the worker *process* count —
    and ``compile_threads``, each worker's compile-pool size.
    ``worker_timeout`` optionally bounds each proxied exchange;
    ``None`` (the default) matches the single-process behaviour of
    waiting as long as the work takes, with crash detection riding on
    the torn connection instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 workers: int = 2, store=None,
                 budget_nodes: int | None = wmc.DEFAULT_BUDGET_NODES,
                 workload_cache_size: int = 128,
                 auth_tokens: dict[str, str] | None = None,
                 quota: TenantQuota | None = None,
                 tenant_quotas: dict[str, TenantQuota] | None = None,
                 store_max_bytes: int | None = None,
                 tracing: bool = True,
                 slow_ms: float | None = None,
                 trace_buffer: int = 256,
                 trace_dir=None,
                 tracer: Tracer | None = None,
                 clock=time.monotonic,
                 compile_threads: int = 4,
                 worker_timeout: float | None = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if compile_threads < 1:
            raise ValueError("compile_threads must be at least 1")
        self.worker_count = workers
        self.compile_threads = compile_threads
        self.worker_timeout = worker_timeout
        self.store_path = (None if store is None
                           else str(getattr(store, "root", store)))
        self.tracing = tracing
        self._ring = _HashRing(workers)
        self._proxied = 0
        self._redispatches = 0
        self._child_seq = 0
        # Immutable after construction (handles mutate behind their
        # own locks), so reads need no dispatcher-level lock.
        self._workers = tuple(_WorkerHandle(index)
                              for index in range(workers))
        super().__init__(
            host, port, {
                "evaluate_batch": self._op_evaluate_batch,
                "store_gc": self._op_store_gc,
            },
            budget_nodes=budget_nodes,
            workload_cache_size=workload_cache_size,
            auth_tokens=auth_tokens, quota=quota,
            tenant_quotas=tenant_quotas, store_max_bytes=store_max_bytes,
            tracing=tracing, slow_ms=slow_ms, trace_buffer=trace_buffer,
            trace_dir=trace_dir, tracer=tracer, clock=clock)
        try:
            for handle in self._workers:
                self._spawn(handle)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, handle: _WorkerHandle) -> None:
        """Boot (or reboot) one worker subprocess and block on its
        banner for the bound port.  Caller holds ``handle.lock``
        except during construction, when nothing races."""
        command = [sys.executable, "-m", "repro.service.worker",
                   "--host", "127.0.0.1", "--port", "0",
                   "--compile-threads", str(self.compile_threads),
                   "--budget", str(self.default_budget
                                   if self.default_budget is not None
                                   else 0)]
        if self.store_path:
            command += ["--store", self.store_path]
        if self.store_max_bytes is not None:
            command += ["--store-max-bytes",
                        str(self.store_max_bytes)]
        if not self.tracing:
            command += ["--no-tracing"]
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        if not existing:
            env["PYTHONPATH"] = package_root
        elif package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = package_root + os.pathsep + existing
        # The worker exits when its stdin pipe reads EOF, which the
        # kernel delivers when this process closes it or dies, so a
        # killed dispatcher leaves no worker behind.
        process = subprocess.Popen(command, stdin=subprocess.PIPE,
                                   stdout=subprocess.PIPE, text=True,
                                   env=env)
        banner = (process.stdout.readline() or "").strip()
        if not banner.startswith(BANNER):
            process.kill()
            process.wait(timeout=10)
            _close_pipes(process)
            raise RuntimeError(
                f"worker {handle.index} failed to start "
                f"(banner: {banner!r})")
        worker_host, _, worker_port = banner.rsplit(
            " ", 1)[1].rpartition(":")
        handle.process = process
        handle.address = (worker_host, int(worker_port))
        handle.generation += 1
        handle.resident.clear()

    def _respawn_if_dead(self, handle: _WorkerHandle,
                         generation: int | None) -> None:
        """After a transport failure against ``handle``: respawn the
        worker if its process is gone.  A stale ``generation`` means
        another thread already respawned it; an alive process means
        the failure was the connection's, not the worker's."""
        if self._closed:
            raise ProtocolError("internal",
                                "service is shutting down")
        with handle.lock:
            if (generation is not None
                    and generation != handle.generation):
                return
            process = handle.process
            if process is not None and process.poll() is None:
                # A dying worker refuses connections before its exit
                # is reapable; give it a moment so a crash observed
                # through the socket is not misread as a healthy
                # worker with one bad connection (which would send
                # the re-dispatch to the same dead port).
                try:
                    process.wait(timeout=0.5)
                except subprocess.TimeoutExpired:
                    return
            if process is not None:
                _close_pipes(process)
            handle.drain_locked()
            handle.respawns += 1
            self._spawn(handle)

    def _shutdown_workers(self) -> None:
        for handle in self._workers:
            with handle.lock:
                handle.drain_locked()
            process = handle.process
            if process is not None and process.poll() is None:
                process.terminate()
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            _close_pipes(process)

    def _release(self) -> None:
        self._shutdown_workers()

    # ------------------------------------------------------------------
    # Proxying
    # ------------------------------------------------------------------
    def _run_op(self, op: str, params: dict) -> dict:
        handler = self._ops.get(op)
        if handler is None:
            # A compute op: route it to its worker.
            return self._proxy(op, params)
        return handler(params)

    def _reject_reserved(self, params: dict) -> None:
        # `timeout` and `trace` are protocol-level client/transport
        # concerns; forwarding them as op params would let a request
        # smuggle values into the worker hop.
        for reserved in ("timeout", "trace"):
            if reserved in params:
                raise ProtocolError(
                    "bad-request",
                    f"unexpected params: {reserved}")

    def _child_trace_id(self, handle: _WorkerHandle) -> str | None:
        """A derived trace id for the worker hop, unique per proxied
        call so a re-dispatch never collides with the crashed
        attempt's partial trace."""
        base = current_trace_id()
        if base is None:
            return None
        with self._counter_lock:
            self._child_seq += 1
            sequence = self._child_seq
        return f"{base[:96]}.w{handle.index}.{sequence}"

    def _proxy(self, op: str, params: dict, route: dict | None = None
               ) -> dict:
        """One compute request, routed to the worker that owns its
        fingerprint (that of ``route``'s query and p, if given)."""
        self._reject_reserved(params)
        fingerprint = self.workloads.resolve(route or params).fingerprint
        handle = self._workers[self._ring.route(fingerprint)]
        tenant = getattr(self._tenant_local, "tenant", ANONYMOUS)
        if fingerprint not in handle.resident and op != "estimate":
            # Single-process fail-fast, approximated from this side of
            # the hop: an exhausted compile budget refuses requests
            # that plausibly need fresh work, while fingerprints known
            # resident on the worker stay accessible (warm circuits
            # cost nobody anything).
            self.tenants.check_compile(tenant)
        child_trace = self._child_trace_id(handle)
        tags = {"worker": handle.index}
        if child_trace is not None:
            tags["child_trace"] = child_trace
        with span("proxy", **tags):
            result = self._call_worker(handle, op, params, child_trace)
        charge = result.pop("charge", None) \
            if isinstance(result, dict) else None
        with handle.lock:
            handle.resident.add(fingerprint)
        if charge:
            nodes = charge.get("nodes", 0)
            if isinstance(nodes, int) and nodes > 0:
                # May raise quota-exceeded: the request that crosses
                # the cap is charged but refused, exactly the
                # single-process crossing semantics.
                self.tenants.charge_compile(tenant, nodes)
        return result

    def _call_worker(self, handle: _WorkerHandle, op: str,
                     params: dict, child_trace: str | None) -> dict:
        """One request to one worker, with crash recovery: a torn
        connection triggers a respawn check and one re-dispatch; a
        second failure surfaces as a structured error."""
        attempts = 0
        while True:
            attempts += 1
            generation = conn = None
            try:
                generation, conn = handle.acquire(self.worker_timeout)
                result = conn.call(op, trace=child_trace, **params)
            except ServiceError as error:
                if conn is not None and error.code in ERROR_CODES:
                    # A structured refusal over a healthy connection:
                    # proxy it transparently (same code, same message).
                    handle.release(generation, conn)
                    raise ProtocolError(error.code,
                                        error.message) from None
                if conn is not None:
                    _close_quietly(conn)
                failure = error
            except OSError as error:
                # acquire() could not even dial: the worker is gone.
                failure = error
            else:
                handle.release(generation, conn)
                with self._counter_lock:
                    self._proxied += 1
                return result
            self._respawn_if_dead(handle, generation)
            if attempts >= 2:
                raise ProtocolError(
                    "internal",
                    f"worker {handle.index} failed while serving "
                    f"{op!r} and the re-dispatched attempt failed "
                    f"too: {failure}") from None
            with self._counter_lock:
                self._redispatches += 1

    def _call_any_worker(self, op: str, params: dict) -> dict:
        """``op`` against whichever worker answers first (for ops that
        are worker-agnostic, like ``store_gc`` over the shared
        store)."""
        last_error: ProtocolError | None = None
        for handle in self._workers:
            try:
                return self._call_worker(handle, op, params, None)
            except ProtocolError as error:
                if error.code != "internal":
                    raise
                last_error = error
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _op_evaluate_batch(self, params: dict) -> dict:
        """A batch is one formula *per block length*: split it and
        route every ``p`` by its own fingerprint so the batch spreads
        over the pool instead of serializing on one worker.  A batch
        by a method that can sample, whose estimates could draw more
        than ``MAX_REQUEST_DRAWS``, goes whole to one worker instead:
        which p samples shows only after its compile, and that worker
        counts the draws before any."""
        self._reject_reserved(params)
        if "p" in params:
            raise ProtocolError(
                "bad-request",
                "unexpected params: p (evaluate_batch takes 'ps')")
        check_fields(params, ("query", "ps", "method")
                     + _ESTIMATOR_FIELDS)
        ps, method, knobs = self._batch_knobs(params)
        samples = method == "auto" or method in ESTIMATE_METHODS
        if samples and len(ps) * knobs.draws > MAX_REQUEST_DRAWS:
            return self._proxy("evaluate_batch", params,
                               route={**params, "p": ps[0]})
        shared = {key: value for key, value in params.items()
                  if key != "ps"}
        results = [self._proxy("evaluate", {**shared, "p": p})
                   for p in ps]
        return {"results": results, "count": len(results)}

    def _op_store_gc(self, params: dict) -> dict:
        # The pool shares one store directory; one prune pass through
        # any worker covers it, and a worker without a store refuses
        # the request itself.
        check_fields(params, ("max_bytes",))
        return self._call_any_worker("store_gc", params)

    def _extend_stats(self, stats: dict) -> None:
        service = stats["service"]
        with self._counter_lock:
            service.update(workers=self.worker_count,
                           compile_threads=self.compile_threads,
                           proxied_requests=self._proxied,
                           redispatches=self._redispatches)
        cache: dict = {key: 0 for key in _SUMMABLE_CACHE}
        cache["store_attached"] = bool(
            self.store_path or os.environ.get("REPRO_CIRCUIT_STORE"))
        growth: list[dict] = []
        worker_rows: list[dict] = []
        for handle in self._workers:
            row = {"worker": handle.index,
                   "respawns": handle.respawns,
                   "resident_fingerprints": len(handle.resident)}
            try:
                worker_stats = self._call_worker(handle, "stats",
                                                 {}, None)
            except ProtocolError:
                row["alive"] = False
                worker_rows.append(row)
                continue
            row["alive"] = True
            row["port"] = handle.address[1]
            worker_cache = worker_stats.get("cache") or {}
            for key in _SUMMABLE_CACHE:
                value = worker_cache.get(key, 0)
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    cache[key] += value
            worker_service = worker_stats.get("service") or {}
            planner = worker_service.get("planner") or {}
            growth.extend(planner.get("growth") or [])
            row["requests"] = worker_service.get("requests", 0)
            row["compile_jobs"] = worker_service.get(
                "compile_jobs", 0)
            worker_rows.append(row)
        service["worker_respawns"] = sum(
            handle.respawns for handle in self._workers)
        merged = BudgetPlanner.from_growth_records(growth)
        planner_info = dict(merged.stats())
        planner_info["growth"] = merged.growth_records()
        service["planner"] = planner_info
        stats["cache"] = cache
        stats["workers"] = worker_rows

    def _expand_trace(self, payload: dict) -> dict:
        """Graft each proxied hop's worker-side span tree under its
        ``proxy`` span, producing one tree that spans both
        processes."""
        merged = dict(payload)
        spans = [dict(entry) for entry in payload.get("spans") or []]
        next_id = max((entry["id"] for entry in spans), default=0)
        grafted: list[dict] = []
        for entry in spans:
            tags = entry.get("tags") or {}
            child_trace = tags.get("child_trace")
            worker_index = tags.get("worker")
            if (not isinstance(child_trace, str)
                    or not isinstance(worker_index, int)
                    or not 0 <= worker_index < len(self._workers)):
                continue
            handle = self._workers[worker_index]
            try:
                fetched = self._call_worker(
                    handle, "trace", {"id": child_trace}, None)
            except ProtocolError:
                continue  # the worker (and its buffer) may be gone
            offset = entry.get("start_ms", 0.0)
            for child_payload in fetched.get("traces") or []:
                child_spans = child_payload.get("spans") or []
                id_map = {}
                for child_span in child_spans:
                    next_id += 1
                    id_map[child_span["id"]] = next_id
                for child_span in child_spans:
                    parent = child_span.get("parent")
                    grafted.append({
                        "id": id_map[child_span["id"]],
                        "parent": (entry["id"] if parent is None
                                   else id_map.get(parent)),
                        "name": child_span["name"],
                        "start_ms": round(
                            child_span.get("start_ms", 0.0) + offset,
                            3),
                        "duration_ms": child_span.get(
                            "duration_ms", 0.0),
                        "tags": {
                            **(child_span.get("tags") or {}),
                            "process": f"worker-{worker_index}",
                        },
                    })
        if grafted:
            spans = sorted(
                spans + grafted,
                key=lambda entry: (entry["start_ms"], entry["id"]))
        merged["spans"] = spans
        return merged
