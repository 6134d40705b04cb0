"""Client library for the repro query service.

``ServiceClient`` owns one TCP connection and speaks the versioned
line protocol; each ``call`` writes one request line and blocks for
its response line, raising ``ServiceError`` (carrying the structured
``code``) when the server answers with an error.  The convenience
methods mirror the server's operations one-to-one, so the whole
surface reads like the in-process API:

    with ServiceClient(port=7411) as client:
        client.compile("(R|S1)(S1|T)", p=6)
        result = client.sweep("(R|S1)(S1|T)", p=6, grid=32)
        print(result["engine"], client.stats()["cache"]["compiles"])

The client is thread-safe (an internal lock serializes request/response
pairs on the single connection); for genuinely concurrent traffic open
one client per thread — concurrent cold requests for one formula share
one compilation on the server across connections either way.

Transport knobs: the constructor retries a refused connection a
bounded number of times with exponential backoff (service start-up
races), and ``call`` accepts a per-call ``timeout=`` that bounds the
wait for *this* response — expiry raises ``ServiceError`` with code
``timeout`` and closes the connection, because a response that
arrives after its deadline would desynchronize the line framing for
every later call.  ``call`` also accepts ``trace=`` to pin the
request's trace id; the id the server echoes (supplied or minted) is
kept in ``last_trace`` for correlation with the ``trace`` op.
``send`` sends a params dict as given, ``null``s included.

A ``call`` on a connection that an earlier timeout (or ``close()``)
already tore down raises ``ServiceError("connection-closed", ...)``
rather than a raw ``OSError``; constructing the client with
``reconnect=True`` makes that call redial through the same bounded
connect-retry path instead — the mode for clients that must survive
a server or worker-process restart.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from fractions import Fraction

from repro.service.protocol import (
    PROTOCOL_VERSION,
    dump_line,
    encode_request,
)

DEFAULT_PORT = 7411


class ServiceError(Exception):
    """An error response (or transport failure), with its code."""

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")


def _wire_value(value):
    """JSON-encodable rendering of one parameter value (exact
    ``Fraction``s travel as their ``"num/den"`` string)."""
    if isinstance(value, Fraction):
        return str(value)
    return value


class ServiceClient:
    """One connection to a running ``ReproServer``."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, timeout: float = 60.0,
                 auth: str | None = None, connect_retries: int = 2,
                 retry_backoff: float = 0.05, reconnect: bool = False):
        if connect_retries < 0:
            raise ValueError("connect_retries must be non-negative")
        if retry_backoff < 0:
            raise ValueError("retry_backoff must be non-negative")
        self.host, self.port = host, port
        #: With ``reconnect=True`` a ``call`` on a connection that an
        #: earlier timeout (or ``close()``) tore down redials through
        #: the same bounded connect-retry path instead of failing —
        #: the mode for clients that must survive a server or worker
        #: restart.  Default off: a silent redial would hide the lost
        #: connection from callers that need to know.
        self.reconnect = reconnect
        #: Tenant auth token sent on every request (``None`` for an
        #: open server).  A wrong or missing token surfaces as a
        #: ``ServiceError`` with code ``unauthorized``; a tripped
        #: tenant quota as code ``quota-exceeded``.
        self.auth = auth
        #: Trace id echoed by the most recent response (the id the
        #: caller supplied, or the one the server minted) — feed it to
        #: the ``trace`` op to fetch that request's span tree.
        self.last_trace: str | None = None
        self._timeout = timeout
        self._connect_retries = connect_retries
        self._retry_backoff = retry_backoff
        self._sock = self._connect(host, port, timeout,
                                   connect_retries, retry_backoff)
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False

    @staticmethod
    def _connect(host, port, timeout, retries, backoff):
        """``socket.create_connection`` with bounded retry: a refused
        or unreachable server is retried ``retries`` times with
        exponential backoff (start-up races between ``repro serve``
        and its first client); the final failure propagates."""
        attempt = 0
        while True:
            try:
                return socket.create_connection((host, port),
                                                timeout=timeout)
            except OSError:
                if attempt >= retries:
                    raise
                time.sleep(backoff * (2 ** attempt))
                attempt += 1

    # ------------------------------------------------------------------
    def call(self, op: str, *, timeout: float | None = None,
             trace: str | None = None, **params) -> dict:
        """``send`` these params, omitting ``None`` values (the
        server applies its defaults); ``Fraction``s travel as
        ``"num/den"`` strings."""
        return self.send(op, {key: _wire_value(value)
                              for key, value in params.items()
                              if value is not None},
                         timeout=timeout, trace=trace)

    def send(self, op: str, payload: dict, *,
             timeout: float | None = None,
             trace: str | None = None) -> dict:
        """Send one request with ``payload`` as its params, as given
        (the dispatcher forwards requests so); return its ``result``
        or raise ``ServiceError``.

        ``timeout`` bounds the wait for this one response; expiry
        raises ``ServiceError("timeout", ...)`` and closes the
        connection (a late response would desynchronize the framing).
        ``trace`` pins the request's trace id instead of letting the
        server mint one.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        with self._lock:
            if self._closed:
                # A previous timeout/close tore the connection down;
                # without this guard the write below surfaces as a raw
                # ValueError/OSError from the dead file object.
                if not self.reconnect:
                    raise ServiceError(
                        "connection-closed",
                        "connection was closed by an earlier timeout "
                        "or close(); construct the client with "
                        "reconnect=True to redial automatically")
                try:
                    self._sock = self._connect(
                        self.host, self.port, self._timeout,
                        self._connect_retries, self._retry_backoff)
                except OSError as error:
                    raise ServiceError(
                        "connection-closed",
                        f"reconnect to {self.host}:{self.port} "
                        f"failed: {error}") from None
                self._file = self._sock.makefile("rwb")
                self._closed = False
            self._next_id += 1
            request_id = self._next_id
            line = dump_line(encode_request(op, payload, request_id,
                                            auth=self.auth,
                                            trace=trace))
            restore = self._sock.gettimeout()
            if timeout is not None:
                self._sock.settimeout(timeout)
            try:
                self._file.write(line)
                self._file.flush()
                raw = self._file.readline()
            except TimeoutError:
                self.close()
                raise ServiceError(
                    "timeout",
                    f"no response to {op!r} within {timeout}s; "
                    f"connection closed") from None
            except (OSError, ValueError) as error:
                # The peer died mid-exchange (worker crash, server
                # restart).  Close and surface the structured code so
                # callers can retry — with reconnect=True the next
                # call redials.
                self.close()
                raise ServiceError(
                    "connection-closed",
                    f"connection lost during {op!r}: "
                    f"{error}") from None
            finally:
                if timeout is not None:
                    try:
                        self._sock.settimeout(restore)
                    except OSError:
                        pass  # already closed by the timeout path
        if not raw:
            self.close()
            raise ServiceError("connection-closed",
                               "server closed the connection")
        try:
            response = json.loads(raw)
        except ValueError as error:
            raise ServiceError(
                "parse-error",
                f"unreadable response: {error}") from None
        if response.get("v") != PROTOCOL_VERSION:
            raise ServiceError(
                "unsupported-version",
                f"server speaks protocol {response.get('v')!r}, "
                f"client speaks {PROTOCOL_VERSION}")
        echoed = response.get("trace")
        if isinstance(echoed, str):
            self.last_trace = echoed
        if not response.get("ok"):
            # Surface the server's structured error before id
            # bookkeeping — an unparseable request cannot echo an id.
            error = response.get("error") or {}
            raise ServiceError(error.get("code", "internal"),
                               error.get("message", "unknown error"))
        if response.get("id") != request_id:
            raise ServiceError(
                "bad-response",
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}")
        result = response.get("result")
        if not isinstance(result, dict):
            raise ServiceError("bad-response",
                               "response carries no result object")
        return result

    # ------------------------------------------------------------------
    # One convenience method per operation
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.call("ping")

    def stats(self) -> dict:
        return self.call("stats")

    def metrics(self) -> dict:
        """The Prometheus-style rendering of ``stats``: a dict with
        ``text`` (the exposition body) and ``content_type``."""
        return self.call("metrics")

    def trace(self, id: str | None = None, limit: int | None = None,
              slow: bool | None = None) -> dict:
        """Recent request traces — or one trace by id (``id=`` accepts
        the ``last_trace`` echoed by any earlier call), or only the
        slow-log entries (``slow=True``)."""
        return self.call("trace", id=id, limit=limit, slow=slow)

    def store_gc(self, max_bytes: int) -> dict:
        """Prune the service's tier-2 store down to ``max_bytes``
        (oldest access time first); errors when no store is attached."""
        return self.call("store_gc", max_bytes=max_bytes)

    def compile(self, query: str, p: int = 4,
                budget_nodes: int | None = None) -> dict:
        return self.call("compile", query=query, p=p,
                         budget_nodes=budget_nodes)

    def evaluate(self, query: str, p: int = 4, method: str | None = None,
                 budget_nodes: int | None = None, epsilon=None,
                 delta=None, seed: int | None = None,
                 estimator: str | None = None,
                 relative_error=None) -> dict:
        return self.call("evaluate", query=query, p=p, method=method,
                         budget_nodes=budget_nodes, epsilon=epsilon,
                         delta=delta, seed=seed, estimator=estimator,
                         relative_error=relative_error)

    def evaluate_batch(self, query: str, ps, method: str | None = None,
                       budget_nodes: int | None = None, epsilon=None,
                       delta=None, seed: int | None = None,
                       estimator: str | None = None,
                       relative_error=None) -> dict:
        return self.call("evaluate_batch", query=query, ps=list(ps),
                         method=method, budget_nodes=budget_nodes,
                         epsilon=epsilon, delta=delta, seed=seed,
                         estimator=estimator,
                         relative_error=relative_error)

    def sweep(self, query: str, p: int = 4, grid: int = 8,
              numeric: str | None = None,
              budget_nodes: int | None = None, epsilon=None,
              delta=None, seed: int | None = None,
              estimator: str | None = None,
              relative_error=None) -> dict:
        return self.call("sweep", query=query, p=p, grid=grid,
                         numeric=numeric, budget_nodes=budget_nodes,
                         epsilon=epsilon, delta=delta, seed=seed,
                         estimator=estimator,
                         relative_error=relative_error)

    def estimate(self, query: str, p: int = 4, epsilon=None,
                 delta=None, seed: int | None = None,
                 estimator: str | None = None,
                 relative_error=None) -> dict:
        return self.call("estimate", query=query, p=p, epsilon=epsilon,
                         delta=delta, seed=seed, estimator=estimator,
                         relative_error=relative_error)

    def sample(self, query: str, p: int = 4, k: int = 1,
               seed: int | None = None,
               budget_nodes: int | None = None) -> dict:
        return self.call("sample", query=query, p=p, k=k, seed=seed,
                         budget_nodes=budget_nodes)

    def top_k(self, query: str, p: int = 4, k: int = 1,
              budget_nodes: int | None = None) -> dict:
        return self.call("top_k", query=query, p=p, k=k,
                         budget_nodes=budget_nodes)

    def shutdown(self) -> dict:
        """Ask the server to stop.  Tolerates the connection closing
        before (or instead of) the acknowledgement — by then the
        shutdown has clearly been taken."""
        try:
            return self.call("shutdown")
        except (ServiceError, OSError):
            return {"stopping": True}

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._closed = True
        try:
            self._file.close()
        except OSError:
            pass
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
