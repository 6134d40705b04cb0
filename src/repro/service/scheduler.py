"""Request scheduling for the query service.

``CompilePool`` makes the warm circuit store pay off under
concurrency: a bound on concurrent compilations, with in-flight
dedupe.  While one thread compiles a fingerprint, every other request
for the same ``(fingerprint, budget)`` blocks on that job and shares
its result (or its ``CompilationBudgetExceeded``) instead of launching
a duplicate exponential search.  This is the layer that turns "N
concurrent requests" into "exactly one compilation" — the ``wmc``
cache alone only dedupes *completed* compilations.  The leader runs
the job on its own thread once it holds one of ``workers`` slots, so
the compile stage's spans land in the leader's trace with no handoff.
Only cache misses reach the pool: the server reads a warm circuit on
the request thread (``wmc.cached``), and the linear step after it (a
sweep's batched pass, an evaluation) runs per request there too.

The pool is transport-agnostic (no sockets, no protocol) and usable
by any embedding — the TCP server is just one caller.

It records ``repro.obs`` spans when the calling request carries an
active trace: the leader gets a ``queue`` span covering its wait for a
slot, riders get a ``queue`` span covering their wait on the shared
job, tagged with the leader's trace id.  With no active trace every
span call returns the shared no-op span.
"""

from __future__ import annotations

import threading

from repro import obs


class _Job:
    """One in-flight compilation: a completion event plus its outcome.
    ``trace_id`` is the leader's trace id (or None), so riders can
    attribute their wait to the trace doing the actual work."""

    __slots__ = ("done", "result", "error", "trace_id")

    def __init__(self):
        self.done = threading.Event()
        self.result = None
        self.error = None
        self.trace_id = None


class CompilePool:
    """At most ``workers`` concurrent compilations, with same-key
    in-flight dedupe."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._slots = threading.BoundedSemaphore(workers)
        self._lock = threading.Lock()
        self._inflight: dict = {}
        #: Jobs actually launched vs. requests that piggybacked on an
        #: in-flight job for the same key.
        self.launched = 0
        self.joined = 0

    def run_attributed(self, key, fn):
        """``fn()`` deduped by ``key``, as ``(result, leader)``.

        The first caller for a key is the leader: it waits for a slot,
        then runs ``fn`` on its own thread.  Concurrent callers with the
        same key block on that job and receive the identical result —
        including a raised exception, which is re-raised in every
        waiter.  ``leader`` says whether *this* caller ran the job; the
        quota layer uses it to charge a fresh compilation to exactly
        one tenant, the one whose request caused the work, instead of
        every waiter that happened to join it.
        """
        with self._lock:
            job = self._inflight.get(key)
            leader = job is None
            if leader:
                job = _Job()
                job.trace_id = obs.current_trace_id()
                self._inflight[key] = job
                self.launched += 1
            else:
                self.joined += 1
        if leader:
            try:
                with obs.span("queue", role="leader"):
                    self._slots.acquire()
                try:
                    job.result = fn()
                finally:
                    self._slots.release()
            except BaseException as error:
                job.error = error
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                job.done.set()
        else:
            with obs.span("queue", role="rider",
                          leader=job.trace_id or ""):
                job.done.wait()
        if job.error is not None:
            raise job.error
        return job.result, leader

    def stats(self) -> dict:
        with self._lock:
            return {"workers": self.workers,
                    "compile_jobs": self.launched,
                    "compile_joins": self.joined,
                    "compiles_inflight": len(self._inflight)}
