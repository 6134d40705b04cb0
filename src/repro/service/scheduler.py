"""Request scheduling for the query service.

``CompilePool`` makes the warm circuit store pay off under
concurrency: a bounded worker pool for the exponential step, with
in-flight dedupe.  While one thread compiles a fingerprint, every
other request for the same ``(fingerprint, budget)`` blocks on that
job and shares its result (or its ``CompilationBudgetExceeded``)
instead of launching a duplicate exponential search.  This is the
layer that turns "N concurrent requests" into "exactly one
compilation" — the ``wmc`` cache alone only dedupes *completed*
compilations.  The linear step after it (a sweep's batched pass, an
evaluation) runs per request on the request's own thread.

The pool is transport-agnostic (no sockets, no protocol) and usable
by any embedding — the TCP server is just one caller.

It records ``repro.obs`` spans when the calling request carries an
active trace: the leader of a deduped compile gets a ``queue`` span
covering the wait for an executor slot (the submitted job runs inside
a copy of the leader's context, so compile-stage spans land in the
leader's trace), riders get a ``queue`` span covering their wait on
the shared job, tagged with the leader's trace id.  With no active
trace every span call returns the shared no-op span.
"""

from __future__ import annotations

import contextvars
import threading

from concurrent.futures import ThreadPoolExecutor

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
    """A bounded compile executor with same-key in-flight dedupe."""

    def __init__(self, workers: int = 4):
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-compile")
        self._lock = threading.Lock()
        self._inflight: dict = {}
        #: Jobs actually launched vs. requests that piggybacked on an
        #: in-flight job for the same key.
        self.launched = 0
        self.joined = 0

    def run(self, key, fn):
        """``fn()`` on a pool worker, deduped by ``key``.

        The first caller for a key launches the job and blocks for its
        result; concurrent callers with the same key block on the same
        job and receive the identical result — including a raised
        exception, which is re-raised in every waiter.
        """
        return self.run_attributed(key, fn)[0]

    def run_attributed(self, key, fn):
        """``run``, but returns ``(result, leader)`` where ``leader``
        says whether *this* caller launched the job rather than
        piggybacking on an in-flight one.  The quota layer uses the
        flag to charge a fresh compilation to exactly one tenant —
        the one whose request caused the work — instead of every
        waiter that happened to join it.
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
            # The job runs on an executor worker, where contextvars do
            # not propagate by themselves: carry the leader's context
            # across so compile-stage spans attach to the leader's
            # trace.  The ``queue`` span measures the wait for a free
            # worker — it starts here and is closed by the task itself
            # the moment it begins executing.
            queue_span = obs.span("queue", role="leader").begin()
            ctx = contextvars.copy_context()

            def task():
                queue_span.finish()
                return ctx.run(fn)

            try:
                job.result = self._executor.submit(task).result()
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

    def shutdown(self) -> None:
        self._executor.shutdown(wait=False)

    def stats(self) -> dict:
        with self._lock:
            return {"workers": self.workers,
                    "compile_jobs": self.launched,
                    "compile_joins": self.joined,
                    "compiles_inflight": len(self._inflight)}
