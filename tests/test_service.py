"""The query service end to end: a real server on an ephemeral port,
real sockets, the client library and the CLI verbs against it."""

import json
import os
import re
import socket
import subprocess
import sys
import threading
import time

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.adaptive import ESTIMATORS
from repro.cli import main, parse_query
from repro.evaluation import evaluate, probability_sweep
from repro.reduction.blocks import path_block
from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatch import ReproDispatcher
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    decode_world,
    dump_line,
)
from repro.service.scheduler import CompilePool
from repro.service import server as server_module
from repro.service.server import (
    EVAL_METHODS,
    ReproServer,
    serve_until_closed,
)
from repro.tid import wmc
from repro.tid.lineage import lineage

F = Fraction
QUERY = "(R|S1)(S1|T)"


def workload(text=QUERY, p=4):
    query = parse_query(text)
    tid = path_block(query, p)
    return query, tid, lineage(query, tid)


def closed_port() -> int:
    """A port that is definitely closed."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


@pytest.fixture(autouse=True)
def isolated_cache():
    wmc.clear_circuit_cache()
    wmc.set_circuit_store(None)
    yield
    wmc.set_circuit_store(None)
    wmc.clear_circuit_cache()


@pytest.fixture()
def server():
    with ReproServer(port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_evaluate_matches_library(self, client):
        query, tid, _ = workload()
        expected = evaluate(query, tid)
        result = client.evaluate(QUERY, p=4)
        assert result["value"] == str(expected.value)
        assert result["method"] == expected.method
        assert result["engine"] == "exact"
        assert result["safe"] == expected.safe
        assert result["float"] == pytest.approx(float(expected.value))

    def test_evaluate_safe_query_goes_lifted(self, client):
        result = client.evaluate("(R|S1)", p=3)
        assert result["method"] == "lifted"
        assert result["engine"] == "exact"
        assert result["safe"] is True

    def test_forced_methods(self, client):
        exact = client.evaluate(QUERY, p=3, method="shannon")
        assert exact["method"] == "shannon"
        est = client.evaluate(QUERY, p=3, method="estimate", seed=7)
        assert est["method"] == "estimate"
        assert est["estimate"]["samples"] > 0
        # The estimator's interval must contain the exact value.
        low, high = F(est["estimate"]["low"]), F(est["estimate"]["high"])
        assert low <= F(exact["value"]) <= high

    def test_per_request_budget_degrades_gracefully(self, client):
        degraded = client.evaluate(QUERY, p=6, budget_nodes=2, seed=1)
        assert degraded["engine"] == "estimate"
        assert degraded["method"] == "estimate"
        assert degraded["estimate"]["samples"] > 0
        # The degradation is per-request: the same query still answers
        # exactly once the budget allows it.
        exact = client.evaluate(QUERY, p=6)
        assert exact["engine"] == "exact"

    def test_compile_then_memory_cache(self, client):
        first = client.compile(QUERY, p=4)
        assert first["source"] == "compiled"
        assert first["circuit"]["size"] > 0
        assert len(first["fingerprint"]) == 64
        again = client.compile(QUERY, p=4)
        assert again["source"] == "memory cache"
        assert again["circuit"] == first["circuit"]

    def test_compile_budget_exceeded_is_structured(self, client):
        with pytest.raises(ServiceError) as info:
            client.compile(QUERY, p=6, budget_nodes=2)
        assert info.value.code == "budget-exceeded"

    def test_sweep_matches_library(self, client):
        from repro.evaluation import endpoint_weight_grid

        _, tid, formula = workload()
        expected = probability_sweep(
            formula, endpoint_weight_grid(formula, tid, 5))
        result = client.sweep(QUERY, p=4, grid=5)
        assert result["engine"] == "exact"
        assert result["values"] == [str(v) for v in expected]
        assert len(result["grid"]) == 5

    def test_sweep_float_numeric(self, client):
        result = client.sweep(QUERY, p=4, grid=4, numeric="float")
        assert result["engine"] == "exact"
        assert all(isinstance(v, float) for v in result["values"])

    def test_sweep_budget_degrades_with_estimates(self, client):
        result = client.sweep(QUERY, p=6, grid=3, budget_nodes=2,
                              seed=3)
        assert result["engine"] == "estimate"
        assert len(result["estimates"]) == 3
        assert all(e["samples"] > 0 for e in result["estimates"])

    def test_evaluate_batch(self, client):
        result = client.evaluate_batch(QUERY, ps=[2, 3, 4])
        assert result["count"] == 3
        for p, entry in zip([2, 3, 4], result["results"]):
            query, tid, _ = workload(p=p)
            assert entry["value"] == str(evaluate(query, tid).value)
            assert entry["p"] == p

    def test_estimate(self, client):
        result = client.estimate(QUERY, p=4, epsilon="1/10", seed=2)
        assert result["engine"] == "estimate"
        assert result["estimate"]["epsilon"] == "1/10"
        query, tid, _ = workload()
        exact = evaluate(query, tid).value
        assert (F(result["estimate"]["low"]) <= exact
                <= F(result["estimate"]["high"]))

    def test_sample_worlds_satisfy_the_lineage(self, client):
        result = client.sample(QUERY, p=4, k=5, seed=11)
        _, _, formula = workload()
        assert len(result["worlds"]) == 5
        for encoded in result["worlds"]:
            world = decode_world(encoded)
            assert set(world) == formula.variables()
            true_vars = {var for var, val in world.items() if val}
            assert formula.evaluate(true_vars)

    def test_sample_is_seed_deterministic(self, client):
        a = client.sample(QUERY, p=4, k=3, seed=9)
        b = client.sample(QUERY, p=4, k=3, seed=9)
        assert a["worlds"] == b["worlds"]

    def test_top_k_matches_circuit(self, client):
        _, tid, formula = workload()
        expected = wmc.compiled(formula).top_k_worlds(
            tid.probability, 4)
        result = client.top_k(QUERY, p=4, k=4)
        assert [w["probability"] for w in result["worlds"]] == \
            [str(prob) for prob, _ in expected]
        assert [decode_world(w["world"]) for w in result["worlds"]] == \
            [world for _, world in expected]

    def test_stats_shape(self, client):
        client.evaluate(QUERY, p=4)
        stats = client.stats()
        for key in ("hits", "compiles", "store_misses",
                    "budget_aborts", "store_attached"):
            assert key in stats["cache"]
        for key in ("requests", "errors", "ops", "compile_jobs",
                    "compile_joins", "workers", "uptime_seconds"):
            assert key in stats["service"]
        assert stats["service"]["ops"]["evaluate"] == 1


class TestWarmEvaluate:
    def test_warm_requests_use_the_cached_lineage(self, client,
                                                  monkeypatch):
        """The resolver grounds each (query, p) once: warm
        ``evaluate`` and ``evaluate_batch`` requests ground nothing
        more, and their values equal the library's."""
        import repro.evaluation
        import repro.service.server

        client.evaluate_batch(QUERY, ps=[3, 4])  # resolve and compile
        calls = []

        def counting_lineage(query, tid):
            calls.append((query, tid))
            return lineage(query, tid)

        for module in (repro.evaluation, repro.service.server, wmc):
            monkeypatch.setattr(module, "lineage", counting_lineage)
        warm = [client.evaluate(QUERY, p=4),
                client.evaluate(QUERY, p=3, method="wmc"),
                *client.evaluate_batch(QUERY, ps=[3, 4])["results"]]
        monkeypatch.undo()
        assert calls == []
        for result, p in zip(warm, (4, 3, 3, 4)):
            query, tid, _ = workload(p=p)
            assert result["value"] == str(evaluate(query, tid).value)


class TestErrors:
    def test_bad_query_text(self, client):
        with pytest.raises(ServiceError) as info:
            client.evaluate("no parens here")
        assert info.value.code == "bad-query"
        assert "no clauses found" in info.value.message

    def test_resolving_a_query_does_not_load_the_cli(self):
        """Query parsing lives in ``repro.core.queries``: a server or
        worker resolving requests never imports ``repro.cli``."""
        code = ("import sys\n"
                "from repro.service.server import WorkloadResolver\n"
                "WorkloadResolver().resolve({'query': '(R|S1)(S1|T)', "
                "'p': 3})\n"
                "print('repro.cli' in sys.modules)\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True,
                               timeout=120, check=True)
        assert probe.stdout.strip() == "False"

    def test_stray_param_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.call("evaluate", query=QUERY, tpyo=1)
        assert info.value.code == "bad-request"
        assert "tpyo" in info.value.message

    def test_bad_method_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.evaluate(QUERY, method="magic")
        assert info.value.code == "bad-request"
        # The circuit engine has one name, "wmc"; the error lists the
        # methods there are.
        with pytest.raises(ServiceError) as info:
            client.evaluate(QUERY, method="compiled")
        assert info.value.code == "bad-request"
        assert "auto, lifted, wmc, shannon" in info.value.message

    def test_lifted_on_unsafe_query_is_a_bad_request(self, client):
        """Forcing the safe-plan evaluator on an unsafe query is the
        client's error, not an ``internal`` one, in ``evaluate`` and
        ``evaluate_batch`` alike."""
        with pytest.raises(ServiceError) as info:
            client.evaluate(QUERY, p=2, method="lifted")
        assert info.value.code == "bad-request"
        assert "no safe plan exists" in info.value.message
        with pytest.raises(ServiceError) as info:
            client.evaluate_batch(QUERY, ps=[2, 3], method="lifted")
        assert info.value.code == "bad-request"
        assert client.evaluate("(R|S1)", p=2,
                               method="lifted")["method"] == "lifted"

    def test_sweep_without_endpoints_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.sweep("(S1|S2)", p=3)
        assert info.value.code == "bad-query"

    def test_connection_survives_malformed_lines(self, server):
        with socket.create_connection(server.address,
                                      timeout=30) as sock:
            handle = sock.makefile("rwb")
            for garbage in (b"{not json\n", b"[1,2]\n",
                            b'{"v":99,"op":"ping"}\n',
                            b'{"v":%d,"op":"nope"}\n'
                            % PROTOCOL_VERSION):
                handle.write(garbage)
                handle.flush()
                response = json.loads(handle.readline())
                assert response["ok"] is False
                assert response["error"]["code"] in (
                    "parse-error", "bad-request",
                    "unsupported-version", "unknown-op")
            # After four rejected requests the connection still works.
            handle.write(dump_line(
                {"v": PROTOCOL_VERSION, "id": 1, "op": "ping"}))
            handle.flush()
            response = json.loads(handle.readline())
            assert response["ok"] is True
            assert response["result"] == {"pong": True}

    def test_internal_errors_do_not_kill_the_connection(self, client):
        # Probability-zero sampling is a domain error, reported
        # structurally, and the session continues.
        with pytest.raises(ServiceError) as info:
            client.call("sample", query=QUERY, p=4, k="three")
        assert info.value.code == "bad-request"
        assert client.ping() == {"pong": True}


#: Every op's params, each with the values the server accepts.  Sizes
#: stay small (p <= 3, grid <= 16, k <= 16, coarse accuracy) and the
#: expensive validation methods are left out, so every example answers
#: in milliseconds.
_ACCURACY = st.sampled_from(("1/4", "1/2", "3/4", 0.25, 0.5))
_ESTIMATOR = {
    "budget_nodes": st.integers(2, 10 ** 6),
    "epsilon": _ACCURACY,
    "delta": _ACCURACY,
    "seed": st.integers(-(2 ** 70), 2 ** 70),
    "estimator": st.sampled_from(ESTIMATORS),
    "relative_error": st.sampled_from(("1/2", "1", 2)),
}
_COMMON = {
    "query": st.sampled_from(("(R|S1)(S1|T)", "(R|S1)(S1|S2)(S2|T)",
                              "(R|S1|S2)(S2|S3)", "(R|S1)", "(S1|S2)")),
    "p": st.integers(1, 3),
}
_METHOD = st.sampled_from(tuple(
    m for m in EVAL_METHODS if m not in ("brute", "cross-check")))
FUZZ_FIELDS = {
    "ping": {}, "shutdown": {}, "stats": {}, "metrics": {},
    "trace": {"id": st.text(max_size=8), "limit": st.integers(1, 256),
              "slow": st.booleans()},
    "compile": {**_COMMON,
                "budget_nodes": _ESTIMATOR["budget_nodes"]},
    "evaluate": {**_COMMON, "method": _METHOD, **_ESTIMATOR},
    "evaluate_batch": {"query": _COMMON["query"],
                       "ps": st.lists(_COMMON["p"], min_size=1,
                                      max_size=3),
                       "method": _METHOD, **_ESTIMATOR},
    "sweep": {**_COMMON, "grid": st.integers(1, 16),
              "numeric": st.sampled_from(("exact", "float")),
              **_ESTIMATOR},
    "estimate": {**_COMMON,
                 **{name: _ESTIMATOR[name] for name in (
                     "epsilon", "delta", "seed", "estimator",
                     "relative_error")}},
    "sample": {**_COMMON, "k": st.integers(0, 16),
               "seed": _ESTIMATOR["seed"],
               "budget_nodes": _ESTIMATOR["budget_nodes"]},
    "top_k": {**_COMMON, "k": st.integers(1, 16),
              "budget_nodes": _ESTIMATOR["budget_nodes"]},
    "store_gc": {"max_bytes": st.integers(0, 10)},
}
#: Values of the right type just outside what a field accepts.
_OFF_ACCURACY = st.sampled_from(("0", "1", "-1/2", "2", "1/0", "abc",
                                 "nan", "inf", 0.0, 1.5, 1))
_OFF = {
    "query": st.sampled_from(("", "(", "(R|S1", "R|S1)", "(R|)(|T)",
                              "((R|S1))", "(R|S1)(S1|T)x",
                              "(R|S1)&(S1|T)", "no parens here")),
    "p": st.sampled_from((0, -1, 65)),
    "ps": st.sampled_from(([], [0], [1, 65])),
    "grid": st.sampled_from((0, -1, 100_001)),
    "k": st.sampled_from((0, -1, 10_001)),
    "budget_nodes": st.integers(-1, 1),
    "epsilon": _OFF_ACCURACY,
    "delta": _OFF_ACCURACY,
    "estimator": st.sampled_from(("bogus", "")),
    "relative_error": st.sampled_from(("0", "-1", "x")),
    "method": st.sampled_from(("bogus", "compiled")),
    "numeric": st.just("decimal"),
    "limit": st.sampled_from((0, 257)),
    "max_bytes": st.just(-5),
}
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                     st.floats(), st.text(max_size=6))
#: Any JSON value: a scalar, a list or an object.
_JUNK = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def malformed_requests(draw):
    """A deck-style request whose params are each kept, dropped, set
    just out of range or replaced by any JSON value, sometimes with a
    stray param; or, now and then, a request whose envelope itself is
    wrong."""
    op = draw(st.sampled_from(OPS))
    params = {}
    for name, valid in FUZZ_FIELDS[op].items():
        roll = draw(st.integers(0, 15))
        if roll < (13 if name in ("query", "p") else 10):
            params[name] = draw(valid)
        elif roll == 14:
            params[name] = draw(_OFF.get(name, _JUNK))
        elif roll == 15:
            params[name] = draw(_JUNK)
    if draw(st.integers(0, 7)) == 0:
        params[draw(st.text(max_size=6))] = draw(_JUNK)
    request = {"v": PROTOCOL_VERSION, "id": 1, "op": op,
               "params": params}
    envelope = draw(st.integers(0, 9))
    if envelope == 0:
        return draw(_JUNK)
    if envelope == 1:
        request[draw(st.sampled_from(("v", "id", "op", "params",
                                      "auth", "trace")))] = draw(_JUNK)
    return request


@pytest.fixture(scope="class")
def fuzz_server():
    server = ReproServer(port=0)
    yield server
    server.close()


class TestMalformedRequests:
    @given(request=malformed_requests())
    @settings(derandomize=True, max_examples=600, deadline=None)
    def test_malformed_requests_never_answer_internal(self, fuzz_server,
                                                      request):
        """Whatever a request gets wrong, the answer is a structured
        client error (or a result), never ``internal``."""
        response = fuzz_server.handle_line(json.dumps(request))
        if not response["ok"]:
            assert response["error"]["code"] != "internal", (
                request, response["error"])


class TestClientConnectionClosed:
    """Regression: a ``call`` after the connection was torn down (a
    per-call timeout, an explicit ``close``, a dead server) surfaced
    as a raw ``OSError``/``ValueError`` from the dead file object
    instead of a structured ``ServiceError``."""

    def test_call_after_close_is_structured(self, server):
        client = ServiceClient(*server.address)
        assert client.ping() == {"pong": True}
        client.close()
        with pytest.raises(ServiceError) as info:
            client.ping()
        assert info.value.code == "connection-closed"
        assert "reconnect=True" in info.value.message

    def test_call_after_timeout_is_structured(self):
        # A listener that accepts but never answers forces the
        # per-call deadline deterministically.
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            client = ServiceClient("127.0.0.1",
                                   silent.getsockname()[1])
            with pytest.raises(ServiceError) as info:
                client.call("ping", timeout=0.05)
            assert info.value.code == "timeout"
            with pytest.raises(ServiceError) as info:
                client.ping()
            assert info.value.code == "connection-closed"
            client.close()
        finally:
            silent.close()

    def test_reconnect_redials_after_close(self, server):
        with ServiceClient(*server.address, reconnect=True) as client:
            assert client.ping() == {"pong": True}
            client.close()
            # The redial runs the same bounded connect-retry path the
            # constructor uses; the session then continues as if
            # nothing happened.
            assert client.ping() == {"pong": True}
            assert client.evaluate(QUERY, p=3)["engine"] == "exact"

    def test_reconnect_failure_is_structured(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.listen(1)
        client = ServiceClient("127.0.0.1", port, reconnect=True,
                               connect_retries=0)
        client.close()
        probe.close()  # nobody listens on that port any more
        with pytest.raises(ServiceError) as info:
            client.ping()
        assert info.value.code == "connection-closed"
        assert "reconnect" in info.value.message

    def test_peer_death_mid_session_is_structured(self):
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        try:
            client = ServiceClient("127.0.0.1",
                                   silent.getsockname()[1])
            conn, _ = silent.accept()
            conn.close()  # the peer dies mid-session
            # The next exchange must not surface a raw socket error.
            with pytest.raises(ServiceError) as info:
                client.ping()
            assert info.value.code == "connection-closed"
            client.close()
        finally:
            silent.close()


class RunningPeak:
    """A context manager that counts the threads inside it, and the
    most it has seen at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self.running = self.peak = 0

    def __enter__(self):
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)

    def __exit__(self, *exc_info):
        with self._lock:
            self.running -= 1


def close_within(service, seconds=30):
    """``service.close()`` on a helper thread joined with a timeout, so
    a hang fails the test instead of the suite."""
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    closer.join(timeout=seconds)
    assert not closer.is_alive(), "close() did not return"


def assert_port_released(address):
    with socket.socket() as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind(address)  # EADDRINUSE while anything listens there


class TestCloseInAnyState:
    """``close()`` returns promptly and releases the port whether the
    service never started, is serving, or was closed already; the
    dispatcher also reaps its worker processes."""

    @pytest.mark.parametrize("state", ["never started", "serving",
                                       "closed twice"])
    @pytest.mark.parametrize("factory", [
        lambda: ReproServer(port=0),
        lambda: ReproDispatcher(port=0, workers=1),
    ], ids=["server", "dispatcher"])
    def test_close(self, factory, state):
        service = factory()
        address = service.address
        if state != "never started":
            service.start()
            with ServiceClient(*address) as c:
                assert c.ping() == {"pong": True}
        close_within(service)
        if state == "closed twice":
            close_within(service)
        assert_port_released(address)
        for handle in getattr(service, "_workers", ()):
            assert handle.process.poll() is not None

    @pytest.mark.parametrize("state", ["never started", "serving",
                                       "closed twice", "idle connection"])
    @pytest.mark.parametrize("factory", [
        lambda: ReproServer(port=0),
        lambda: ReproDispatcher(port=0, workers=1),
    ], ids=["server", "dispatcher"])
    def test_close_returns_promptly(self, factory, state):
        """``close()`` wakes the serve loop instead of waiting for
        ``socketserver``'s 0.5 s poll, and waits for no idle
        keep-alive connection: every close returns within 0.25 s."""
        service = factory()
        idle = None
        if state != "never started":
            service.start()
            with ServiceClient(*service.address) as c:
                assert c.ping() == {"pong": True}
        if state == "idle connection":
            idle = ServiceClient(*service.address)
            assert idle.ping() == {"pong": True}
        for _ in range(2 if state == "closed twice" else 1):
            started = time.perf_counter()
            close_within(service)
            assert time.perf_counter() - started < 0.25
        if idle is not None:
            idle.close()

    def test_unreplied_count_survives_concurrent_connections(self):
        """Eight connections (more than the cores) ping at once with a
        short switch interval: a lost update of the unreplied count
        would leave it above 0 after close() drained (which then waits
        out its bound for nothing)."""
        service = ReproServer(port=0)
        service.start()
        replies = []

        def client():
            with ServiceClient(*service.address) as c:
                replies.extend(c.ping() for _ in range(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 400
        close_within(service)
        with service._counter_lock:
            assert service._unreplied == 0

    def test_reply_in_flight_is_written_before_release(self, monkeypatch):
        """A served process exits as soon as ``serve_until_closed``'s
        ``close()`` returns, so ``close()`` must not release anything
        while a request line it has read still waits for its reply,
        such as the reply to the ``shutdown`` op that stopped it."""
        log = []
        draining = threading.Event()
        reply = server_module._Handler._reply

        def held_reply(handler, response):
            # Hold the reply until close() has started to drain.
            draining.wait(timeout=10)
            written = reply(handler, response)
            log.append("replied")
            return written

        service = ReproServer(port=0)
        drain, release = service._drain_replies, service._release

        def signalled_drain():
            draining.set()
            drain()

        def logged_release():
            log.append("released")
            release()

        monkeypatch.setattr(server_module._Handler, "_reply", held_reply)
        monkeypatch.setattr(service, "_drain_replies", signalled_drain)
        monkeypatch.setattr(service, "_release", logged_release)
        runner = threading.Thread(target=serve_until_closed,
                                  args=(service, "test"), daemon=True)
        runner.start()
        with ServiceClient(*service.address) as client:
            assert client.call("shutdown") == {"stopping": True}
        runner.join(timeout=10)
        assert not runner.is_alive()
        assert log == ["replied", "released"]


class TestCoalescing:
    def test_concurrent_sweeps_one_compile_one_pass(self):
        """N concurrent same-fingerprint cold sweeps trigger exactly
        one compilation (the compile pool's dedupe, observable via the
        stats endpoint) and all get the same values."""
        n = 5
        with ReproServer(port=0) as server:
            results = [None] * n
            barrier = threading.Barrier(n)

            def worker(i):
                with ServiceClient(*server.address) as c:
                    barrier.wait()
                    results[i] = c.sweep(QUERY, p=6, grid=8)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(*server.address) as c:
                stats = c.stats()

        assert all(r is not None for r in results)
        assert all(r["engine"] == "exact" for r in results)
        # Every client got the same (correct) values...
        from repro.evaluation import endpoint_weight_grid

        _, tid, formula = workload(p=6)
        expected = [str(v) for v in probability_sweep(
            formula, endpoint_weight_grid(formula, tid, 8))]
        assert all(r["values"] == expected for r in results)
        # ...from exactly one compilation.
        assert stats["cache"]["compiles"] == 1

    def test_budget_blocked_concurrent_sweeps_stay_seed_reproducible(
            self):
        """Estimator-path sweeps never share an rng stream: a
        request's seeded estimates are identical whether it ran alone
        or raced N identical requests."""
        n = 3
        kwargs = dict(p=6, grid=3, budget_nodes=2, seed=5)
        with ReproServer(port=0) as server:
            results = [None] * n
            barrier = threading.Barrier(n)

            def worker(i):
                with ServiceClient(*server.address) as c:
                    barrier.wait()
                    results[i] = c.sweep(QUERY, **kwargs)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(*server.address) as c:
                solo = c.sweep(QUERY, **kwargs)
        assert all(r["engine"] == "estimate" for r in results)
        assert all(r["values"] == solo["values"] for r in results)
        assert all(r["estimates"] == solo["estimates"]
                   for r in results)

    def test_compile_pool_dedupes_inflight(self):
        calls = []
        pool = CompilePool(workers=2)
        gate = threading.Event()

        def build():
            calls.append(1)
            gate.wait(timeout=10)
            return "circuit"

        outcomes = []
        threads = [threading.Thread(
            target=lambda: outcomes.append(
                pool.run_attributed("key", build)))
            for _ in range(4)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert sorted(outcomes) == [("circuit", False)] * 3 + [
            ("circuit", True)]
        assert len(calls) == 1
        assert pool.stats()["compile_joins"] == 3

    def test_compile_pool_propagates_errors_to_joiners(self):
        pool = CompilePool(workers=1)

        def boom():
            raise RuntimeError("nope")

        for _ in range(2):
            with pytest.raises(RuntimeError):
                pool.run_attributed("key", boom)

    def test_compile_pool_bounds_concurrent_leaders(self):
        """With distinct keys every caller leads its own job, on its
        own thread, and at most ``workers`` jobs run at once: each job
        waits at a two-party barrier, so a third concurrent job would
        break the peak and a bound of one would break the barrier."""
        pool = CompilePool(workers=2)
        inside, pair = RunningPeak(), threading.Barrier(2, timeout=30)
        outcomes, callers, ran_on = {}, {}, {}

        def job(key):
            def fn():
                ran_on[key] = threading.get_ident()
                with inside:
                    pair.wait()
                return key
            return fn

        def call(key):
            callers[key] = threading.get_ident()
            outcomes[key] = pool.run_attributed(key, job(key))

        threads = [threading.Thread(target=call, args=(key,))
                   for key in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert outcomes == {key: (key, True) for key in range(4)}
        assert ran_on == callers
        assert inside.peak == 2
        assert pool.stats()["compile_jobs"] == 4

    def test_compile_pool_under_contention(self):
        """More threads than cores on three keys, with a short switch
        interval: every call is counted once, as a job or a join, every
        caller gets its own key's result, and no more than ``workers``
        jobs ever run at once."""
        pool = CompilePool(workers=2)
        inside, results = RunningPeak(), []

        def job(key):
            def fn():
                with inside:
                    sum(range(2000))
                return key
            return fn

        def calls(first):
            for i in range(25):
                key = (first + i) % 3
                results.append(
                    (key, pool.run_attributed(key, job(key))[0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls, args=(first,))
                       for first in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 12 * 25
        assert all(key == value for key, value in results)
        stats = pool.stats()
        assert stats["compile_jobs"] + stats["compile_joins"] == 12 * 25
        assert stats["compiles_inflight"] == 0
        assert inside.peak <= 2


class TestWarmReads:
    def test_warm_requests_skip_the_compile_pool(self, client):
        """A warm circuit is read on the request thread: a warm
        ``evaluate`` and ``sweep`` launch no pool job and open no
        ``queue`` span; only the cold sweep that compiled it did."""
        client.call("sweep", query=QUERY, p=4, grid=4, trace="cold")
        client.call("evaluate", query=QUERY, p=4, trace="warm-evaluate")
        client.call("sweep", query=QUERY, p=4, grid=4, trace="warm-sweep")
        stats = client.stats()
        stages = {
            trace: {s["name"] for s in client.trace(id=trace)[
                "traces"][0]["spans"]}
            for trace in ("cold", "warm-evaluate", "warm-sweep")}
        assert "queue" in stages["cold"]
        assert "queue" not in stages["warm-evaluate"]
        assert "queue" not in stages["warm-sweep"]
        assert stats["service"]["compile_jobs"] == 1
        assert stats["service"]["compile_joins"] == 0
        assert stats["cache"]["compiles"] == 1

    def test_evaluate_routes_on_the_resolved_classification(
            self, client, monkeypatch):
        """``evaluate`` takes ``safe`` from the resolver's workload
        instead of classifying the query again on every request."""
        from repro import evaluation

        calls = []
        monkeypatch.setattr(evaluation, "is_safe",
                            lambda query: calls.append(query))
        for method in ("auto", "wmc", "estimate"):
            client.call("evaluate", query=QUERY, p=4, method=method)
        client.call("evaluate_batch", query=QUERY, ps=[3, 4])
        assert calls == []


class TestStoreIntegration:
    def test_disk_store_serves_cold_memory(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                first = c.compile(QUERY, p=4)
                assert first["source"] == "compiled"
                assert c.stats()["cache"]["store_attached"] is True
                # A cold tier-1 cache (fresh process in real life)
                # hits the disk store instead of recompiling.
                wmc.clear_circuit_cache()
                again = c.compile(QUERY, p=4)
                assert again["source"] == "disk store"
                assert c.stats()["cache"]["compiles"] == 0


class TestTapeService:
    def test_stats_expose_tape_counters(self, client):
        stats = client.stats()
        for key in ("tape_hits", "tape_flattens", "tape_bytes"):
            assert key in stats["cache"]

    def test_float_sweep_flattens_once(self, client):
        client.sweep(QUERY, p=4, grid=6, numeric="float")
        first = client.stats()["cache"]
        assert first["tape_flattens"] == 1
        assert first["tape_bytes"] > 0
        client.sweep(QUERY, p=4, grid=6, numeric="float")
        second = client.stats()["cache"]
        assert second["tape_flattens"] == 1  # no re-flatten
        assert second["tape_hits"] > first["tape_hits"]

    def test_exact_sweep_does_not_flatten(self, client):
        """Exact sweeps run on the tape's integer lanes: the first one
        flattens the circuit, a repeat does not flatten again."""
        client.sweep(QUERY, p=4, grid=4)
        first = client.stats()["cache"]
        assert first["tape_flattens"] == 1
        client.sweep(QUERY, p=4, grid=4)
        second = client.stats()["cache"]
        assert second["tape_flattens"] == 1  # no re-flatten
        assert second["tape_hits"] > first["tape_hits"]

    def test_warm_store_sweep_never_reflattens(self, tmp_path):
        """The acceptance contract: a float sweep against a warm
        store (cold memory cache — a restarted process in real life)
        adopts the persisted tape, proving zero re-flattens through
        the live stats counters."""
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                first = c.sweep(QUERY, p=4, grid=6, numeric="float")
                assert c.stats()["cache"]["tape_flattens"] == 1

                wmc.clear_circuit_cache()  # simulate a restart
                again = c.sweep(QUERY, p=4, grid=6, numeric="float")
                stats = c.stats()["cache"]
                assert stats["compiles"] == 0
                assert stats["tape_flattens"] == 0
                assert stats["tape_bytes"] > 0
                assert again["values"] == first["values"]

    def test_warm_store_sample_never_reflattens(self, tmp_path):
        """``sample`` walks the tape's registers and reads the tape as
        ``evaluate`` and ``sweep`` do: against a warm store it adopts
        the persisted tape instead of flattening again."""
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                first = c.sample(QUERY, p=4, k=3, seed=5)
                assert c.stats()["cache"]["tape_flattens"] == 1

                wmc.clear_circuit_cache()  # simulate a restart
                again = c.sample(QUERY, p=4, k=3, seed=5)
                stats = c.stats()["cache"]
                assert stats["compiles"] == 0
                assert stats["tape_flattens"] == 0
                assert again["worlds"] == first["worlds"]


class TestStoreGC:
    def test_store_gc_prunes_to_budget(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                c.compile(QUERY, p=4)
                c.sweep(QUERY, p=4, grid=4, numeric="float")
                report = c.store_gc(max_bytes=0)
                assert report["bytes_after"] == 0
                assert report["removed"] >= 2  # circuit + tape
                assert report["store"] == str(tmp_path)
                # The store is empty but the service keeps working.
                assert c.compile(QUERY, p=4)["source"] in (
                    "compiled", "memory cache")

    def test_store_gc_without_store_is_bad_request(self, client):
        with pytest.raises(ServiceError) as info:
            client.store_gc(max_bytes=0)
        assert info.value.code == "bad-request"
        assert "store" in info.value.message

    def test_store_gc_validates_max_bytes(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                with pytest.raises(ServiceError) as info:
                    c.call("store_gc")  # missing required param
                assert info.value.code == "bad-request"
                with pytest.raises(ServiceError) as info:
                    c.store_gc(max_bytes=-5)
                assert info.value.code == "bad-request"


class TestCLI:
    def test_query_verb_against_live_server(self, server, capsys):
        host, port = server.address
        code = main(["query", "evaluate", QUERY, "--p", "4",
                     "--host", host, "--port", str(port)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["engine"] == "exact"
        query, tid, _ = workload()
        assert result["value"] == str(evaluate(query, tid).value)

    def test_query_verb_stats(self, server, capsys):
        host, port = server.address
        assert main(["query", "stats", "--host", host,
                     "--port", str(port)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "cache" in stats and "service" in stats

    def test_query_verb_needs_query_text(self, server):
        host, port = server.address
        with pytest.raises(SystemExit, match="needs a query"):
            main(["query", "evaluate", "--host", host,
                  "--port", str(port)])

    def test_query_verb_connection_refused_is_friendly(self):
        with pytest.raises(SystemExit, match="cannot connect"):
            main(["query", "stats", "--port", str(closed_port())])

    @pytest.mark.parametrize("verb", [
        ["ctl", "store-gc", "--max-bytes", "0"],
        ["ctl", "metrics"],
        ["ctl", "trace"],
        ["ctl", "top"],
    ], ids=lambda verb: verb[1])
    def test_ctl_verbs_connection_refused_is_friendly(self, verb):
        with pytest.raises(SystemExit, match="cannot connect") as info:
            main(verb + ["--port", str(closed_port())])
        if "store-gc" in verb:
            assert "or pass --store DIR" in str(info.value)

    def test_ctl_store_gc_local(self, tmp_path, capsys):
        wmc.set_circuit_store(str(tmp_path))
        _, _, formula = workload()
        circuit = wmc.compiled(formula)
        wmc.ensure_tape(formula, circuit)
        assert main(["ctl", "store-gc", "--max-bytes", "0",
                     "--store", str(tmp_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bytes_after"] == 0
        assert report["removed"] >= 2
        assert report["store"] == str(tmp_path)

    def test_ctl_store_gc_remote(self, tmp_path, capsys):
        with ReproServer(port=0, store=str(tmp_path)) as server:
            host, port = server.address
            with ServiceClient(host, port) as c:
                c.compile(QUERY, p=4)
            assert main(["ctl", "store-gc", "--max-bytes", "0",
                         "--host", host, "--port", str(port)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["bytes_after"] == 0
            assert report["removed"] >= 1

    def test_query_verb_refuses_store_gc(self, server):
        host, port = server.address
        with pytest.raises(SystemExit, match="ctl store-gc"):
            main(["query", "store_gc", "--host", host,
                  "--port", str(port)])

    def test_serve_flag_validation(self, capsys):
        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--workers", "-1"])
        with pytest.raises(SystemExit, match="--compile-threads"):
            main(["serve", "--compile-threads", "0"])
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--window", "0"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --window" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_serve_rejects_a_budget_below_two(self, budget):
        for workers in ("0", "1"):
            with pytest.raises(SystemExit, match="--budget"):
                main(["serve", "--budget", budget, "--workers", workers])

    @pytest.mark.parametrize("deployment", [ReproServer, ReproDispatcher])
    def test_constructors_reject_a_budget_below_two(self, deployment):
        """Before any listener or worker starts."""
        with pytest.raises(ValueError, match="budget_nodes"):
            deployment(port=0, budget_nodes=1)

    @pytest.mark.parametrize("bad", [
        {"budget_nodes": 1}, {"slow_ms": -1}, {"store_max_bytes": -5},
        {"port": "taken"},
    ], ids=["budget_nodes", "slow_ms", "store_max_bytes", "port in use"])
    def test_failed_construction_leaves_the_store_alone(self, tmp_path,
                                                        bad):
        """The process-wide circuit store switches only when the
        server is built."""
        before = wmc.get_circuit_store()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            kwargs = {"port": 0, **bad}
            if kwargs["port"] == "taken":
                kwargs["port"] = taken.getsockname()[1]
            with pytest.raises((ValueError, OSError)):
                ReproServer(store=str(tmp_path), **kwargs)
        assert wmc.get_circuit_store() is before

    def test_serve_verb_in_process(self, capsys):
        """The serve verb end to end without a subprocess: banner,
        live queries, shutdown-over-the-wire unblocking
        serve_forever."""
        import time as _time

        outcome = {}

        def run():
            outcome["code"] = main(["serve", "--port", "0",
                                    "--budget", "100000"])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        banner = ""
        deadline = _time.monotonic() + 10
        while "listening on" not in banner:
            assert _time.monotonic() < deadline, "no listen banner"
            banner += capsys.readouterr().out
            _time.sleep(0.02)
        port = int(banner.strip().rsplit(":", 1)[1])
        with ServiceClient(port=port) as c:
            assert c.ping() == {"pong": True}
            assert c.evaluate(QUERY, p=3)["engine"] == "exact"
            c.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert outcome["code"] == 0

    def test_serve_closes_the_server_when_stdout_is_broken(
            self, monkeypatch):
        from repro import cli
        from repro.service import server as server_module

        built = []

        class RecordedServer(ReproServer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        class BrokenStdout:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(server_module, "ReproServer", RecordedServer)
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        args = cli.build_parser().parse_args(
            ["serve", "--port", "0"])
        with pytest.raises(BrokenPipeError):
            args.fn(args)
        [server] = built
        assert_port_released(server.address)

    def test_serve_subprocess_banner_and_shutdown(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            banner = proc.stdout.readline().strip()
            assert banner.startswith("repro service listening on")
            port = int(banner.rsplit(":", 1)[1])
            with ServiceClient(port=port, timeout=60) as c:
                assert c.ping() == {"pong": True}
                c.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


class TestAdaptiveService:
    """The adaptive estimation tier over live sockets: per-request
    estimator overrides, recorded engines, the new stats counters, and
    independence from concurrent peers."""

    def test_estimator_override_honored_and_recorded(self, client):
        result = client.evaluate(QUERY, p=6, budget_nodes=2, seed=1,
                                 estimator="adaptive")
        assert result["engine"] == "adaptive"
        assert result["method"] == "adaptive"
        assert result["estimate"]["method"] == "bernstein"
        assert result["estimate"]["samples_used"] == \
            result["estimate"]["samples"] > 0
        # The same request without the override still answers with the
        # fixed-n estimator — the override is strictly per-request.
        plain = client.evaluate(QUERY, p=6, budget_nodes=2, seed=1)
        assert plain["engine"] == "estimate"
        assert plain["estimate"]["method"] == "hoeffding"

    def test_forced_adaptive_method_no_budget_needed(self, client):
        exact = client.evaluate(QUERY, p=3, method="shannon")
        result = client.evaluate(QUERY, p=3, method="adaptive", seed=7)
        assert result["engine"] == "adaptive"
        low, high = (F(result["estimate"]["low"]),
                     F(result["estimate"]["high"]))
        assert low <= F(exact["value"]) <= high

    def test_relative_error_implies_sequential_sampler(self, client):
        result = client.estimate(QUERY, p=3, epsilon="1/100",
                                 relative_error="1/2", seed=2)
        assert result["engine"] == "adaptive"
        assert result["estimate"]["relative_error"] is not None
        assert F(result["estimate"]["relative_error"]) <= F(1, 2)

    def test_adaptive_stats_counters_increment(self, client):
        before = client.stats()["service"]
        # Forced-adaptive at a tight epsilon on a low-variance lineage
        # (Pr(B_7) ~ 0.0025, so p(1-p) is tiny) stops well before the
        # fixed-n worst case -> an early stop with samples saved.
        result = client.evaluate(QUERY, p=7, method="adaptive",
                                 epsilon="1/100", seed=3)
        worst = 18445  # hoeffding_sample_count(1/100, 1/20)
        assert result["estimate"]["samples"] < worst
        after = client.stats()["service"]
        assert after["adaptive_requests"] == \
            before["adaptive_requests"] + 1
        assert after["early_stops"] == before["early_stops"] + 1
        assert after["mean_samples_saved"] > 0
        # The fixed-n estimator never moves the adaptive counters.
        client.evaluate(QUERY, p=2, method="estimate", seed=3)
        final = client.stats()["service"]
        assert final["adaptive_requests"] == after["adaptive_requests"]

    def test_sweep_estimator_override_with_estimates(self, client):
        result = client.sweep(QUERY, p=6, grid=3, budget_nodes=2,
                              seed=3, estimator="adaptive")
        assert result["engine"] == "adaptive"
        assert len(result["estimates"]) == 3
        assert all(e["method"] == "bernstein"
                   for e in result["estimates"])
        assert all(e["samples_used"] == e["samples"] > 0
                   for e in result["estimates"])

    def test_adaptive_sweeps_independent_of_coalescing_peers(self):
        """Adaptive results never depend on which concurrent requests
        they raced: a seeded adaptive sweep is identical whether it
        raced N copies of itself or ran alone on a quiet server."""
        n = 3
        kwargs = dict(p=6, grid=3, budget_nodes=2, seed=5,
                      estimator="adaptive")
        results = []
        with ReproServer(port=0) as server:
            barrier = threading.Barrier(n)

            def hit():
                with ServiceClient(*server.address) as c:
                    barrier.wait()
                    results.append(c.sweep(QUERY, **kwargs))

            threads = [threading.Thread(target=hit) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(*server.address) as c:
                solo = c.sweep(QUERY, **kwargs)
        assert len(results) == n
        assert all(r["engine"] == "adaptive" for r in results)
        assert all(r["values"] == solo["values"] for r in results)
        assert all(r["estimates"] == solo["estimates"]
                   for r in results)

    def test_estimate_round_trips_through_the_codec(self, client):
        """What the server sends is exactly what a decoded estimate
        re-serializes to — exact Fractions preserved for the new
        fields (the PR 4 codec had no decoder at all)."""
        from repro.service.protocol import decode_estimate

        result = client.evaluate(QUERY, p=6, budget_nodes=2, seed=1,
                                 estimator="importance")
        wire = result["estimate"]
        decoded = decode_estimate(wire)
        assert decoded.as_dict() == wire
        assert type(decoded.estimate) is F
        assert decoded.center is None or type(decoded.center) is F

    @pytest.mark.parametrize("name,value", [("epsilon", "0"),
                                            ("delta", "-1/2")])
    def test_out_of_range_accuracy_is_a_bad_request(self, client, name,
                                                    value):
        """Every op that takes the sampler knobs refuses a value
        outside (0, 1) before any work, under budget or past it."""
        calls = [("estimate", {}), ("evaluate", {}),
                 ("evaluate", {"method": "estimate"}),
                 ("evaluate", {"budget_nodes": 2}),
                 ("evaluate_batch", {"ps": [3, 4]}),
                 ("sweep", {}), ("sweep", {"budget_nodes": 2})]
        for op, extra in calls:
            where = {} if op == "evaluate_batch" else {"p": 4}
            with pytest.raises(ServiceError) as excinfo:
                client.call(op, query=QUERY, **where, **extra,
                            **{name: value})
            assert excinfo.value.code == "bad-request", (op, extra)
            assert f"{name} must be in (0, 1)" in str(excinfo.value)
        assert client.stats()["cache"]["compiles"] == 0

    @pytest.mark.parametrize("factory", [
        lambda: ReproServer(port=0),
        lambda: ReproDispatcher(port=0, workers=1),
    ], ids=["server", "dispatcher"])
    def test_epsilon_past_the_draw_cap_is_a_bad_request(self, factory):
        """epsilon 1/10^6 would let a sampler draw ~1.8e12 worlds on
        the request thread: every op that takes the sampler knobs
        refuses it before any work, naming the count and the cap."""
        calls = [("estimate", {}), ("estimate", {"estimator": "adaptive"}),
                 ("evaluate", {}), ("evaluate", {"budget_nodes": 2}),
                 ("evaluate_batch", {"ps": [3, 4]}),
                 ("sweep", {}), ("sweep", {"budget_nodes": 2})]
        with factory() as service:
            with ServiceClient(*service.address) as c:
                for op, extra in calls:
                    where = {} if op == "evaluate_batch" else {"p": 4}
                    with pytest.raises(ServiceError) as excinfo:
                        c.call(op, query=QUERY, **where, **extra,
                               epsilon="1/1000000", timeout=10)
                    assert excinfo.value.code == "bad-request", \
                        (op, extra)
                    message = str(excinfo.value)
                    assert f"cap of {1 << 20}" in message
                    draws = re.search(r"draw up to (\d+) worlds", message)
                    assert int(draws.group(1)) > 10 ** 12
                assert c.stats()["cache"]["compiles"] == 0

    def test_draw_cap_boundary(self, client):
        """The largest Hoeffding count under the cap is served, the
        next epsilon is refused (an exact evaluate draws nothing, so
        the accepted side returns at once)."""
        from repro.booleans.approximate import hoeffding_sample_count

        m = 753
        assert hoeffding_sample_count(F(1, m), F(1, 20)) <= 1 << 20 \
            < hoeffding_sample_count(F(1, m + 1), F(1, 20))
        assert client.evaluate(QUERY, p=4, epsilon=f"1/{m}")["engine"] \
            == "exact"
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(QUERY, p=4, epsilon=f"1/{m + 1}")
        assert excinfo.value.code == "bad-request"
        # Knobs beyond the float range are counted, not an internal
        # error: a tiny delta costs few draws, a tiny epsilon too many.
        assert client.evaluate(QUERY, p=4, delta="1e-400")["engine"] \
            == "exact"
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(QUERY, p=4, epsilon="1e-200")
        assert excinfo.value.code == "bad-request"

    @pytest.mark.parametrize("factory", [
        lambda: ReproServer(port=0),
        lambda: ReproDispatcher(port=0, workers=1),
    ], ids=["server", "dispatcher"])
    def test_a_request_past_the_draw_cap_is_a_bad_request(self, factory):
        """Each estimate at epsilon 1/753 is under the per-estimate cap,
        but five of them could draw more than ``MAX_REQUEST_DRAWS``: a
        past-budget sweep and an evaluate_batch that samples are refused
        before any draw, naming the count and the cap.  The same sweep
        under budget draws nothing and is served."""
        from repro.booleans.adaptive import max_draws

        draws = max_draws(F(1, 753), F(1, 20))
        assert draws <= server_module.MAX_ESTIMATE_DRAWS
        calls = [("sweep", {"p": 4, "grid": 5, "budget_nodes": 2}),
                 ("evaluate_batch", {"ps": [1, 2, 3, 4, 5],
                                     "method": "estimate"}),
                 ("evaluate_batch", {"ps": [3, 4, 5, 6, 7],
                                     "budget_nodes": 2})]
        with factory() as service:
            with ServiceClient(*service.address) as c:
                for op, extra in calls:
                    with pytest.raises(ServiceError) as excinfo:
                        c.call(op, query=QUERY, **extra, epsilon="1/753",
                               timeout=30)
                    assert excinfo.value.code == "bad-request", \
                        (op, extra)
                    message = str(excinfo.value)
                    assert f"draw {5 * draws} worlds" in message
                    assert f"cap of {1 << 22} per request" in message
                result = c.call("sweep", query=QUERY, p=4, grid=5,
                                epsilon="1/753", timeout=30)
                assert result["engine"] == "exact"
                batch = c.call("evaluate_batch", query=QUERY,
                               ps=[1, 2, 3, 4, 5], epsilon="1/753",
                               timeout=30)
                assert [r["engine"] for r in batch["results"]] == \
                    ["exact"] * 5
                assert [r["value"] for r in batch["results"]] == [
                    str(evaluate(parse_query(QUERY),
                                 path_block(parse_query(QUERY), p),
                                 "wmc").value)
                    for p in (1, 2, 3, 4, 5)]

    def test_request_draw_cap_boundary(self, client, monkeypatch):
        """A request whose estimates could draw up to exactly the most
        lanes x draws under ``MAX_REQUEST_DRAWS`` samples; one estimate
        more is refused before any draw.  The samplers are replaced by
        recorders, so nothing is drawn either way.  A safe query that
        no safe plan answers (R(x) v T(y) sharing R; ``parse_query``
        has no syntax for it, so the resolver is handed the ``Query``)
        compiles and samples under ``auto`` like an unsafe one, and is
        counted like one."""
        import repro.evaluation
        from repro.booleans.adaptive import max_draws
        from repro.booleans.approximate import ProbabilityEstimate
        from repro.core.queries import Clause, Query
        from repro.core.safety import is_safe

        full = Query([Clause("full", {"R", "T"}, []),
                      Clause.left_type1("S1")])
        assert is_safe(full)
        parse = server_module.parse_query
        monkeypatch.setattr(
            server_module, "parse_query",
            lambda text: full if text == "(R|T)(R|S1)" else parse(text))
        draws = max_draws(F(1, 753), F(1, 20))
        lanes = server_module.MAX_REQUEST_DRAWS // draws
        assert lanes * draws <= server_module.MAX_REQUEST_DRAWS \
            < (lanes + 1) * draws
        sampled = []

        def recorded(epsilon, delta):
            sampled.append(1)
            return ProbabilityEstimate(F(1, 2), F(epsilon), F(delta),
                                       1, 1)

        monkeypatch.setattr(
            wmc, "estimate_batch_with",
            lambda estimator, formula, specs, epsilon, delta, *rest:
                [recorded(epsilon, delta) for _ in specs])
        for module in (wmc, repro.evaluation):
            monkeypatch.setattr(
                module, "estimate_with",
                lambda estimator, formula, weights, epsilon, delta, *rest,
                **kw: recorded(epsilon, delta))
        knobs = {"epsilon": "1/753", "budget_nodes": 2}
        requests = [
            ("sweep", lambda n: {"query": QUERY, "p": 4, "grid": n}),
            ("evaluate_batch",
             lambda n: {"query": QUERY, "ps": list(range(3, 3 + n)),
                        "method": "auto"}),
            ("evaluate_batch",
             lambda n: {"query": QUERY, "ps": list(range(3, 3 + n)),
                        "method": "estimate"}),
            ("evaluate_batch",
             lambda n: {"query": "(R|T)(R|S1)", "ps": [4] * n}),
        ]
        for op, where in requests:
            sampled.clear()
            client.call(op, **where(lanes), **knobs)
            assert len(sampled) == lanes, where(lanes)
            sampled.clear()
            with pytest.raises(ServiceError) as excinfo:
                client.call(op, **where(lanes + 1), **knobs)
            assert excinfo.value.code == "bad-request"
            assert sampled == []

    def test_an_exact_batch_past_the_draw_cap_still_splits(self):
        """Only a batch that can sample goes whole to one worker: an
        exact method draws no world whatever its epsilon, so its batch
        is still split per p, while the same batch under ``auto`` is
        sent whole."""
        ps = [1, 2, 3, 4, 5]  # 5 x 1,045,814 draws > MAX_REQUEST_DRAWS
        with ReproDispatcher(port=0, workers=1) as service:
            proxied = []
            proxy = service._proxy

            def recorded(op, params, route=None):
                proxied.append(op)
                return proxy(op, params, route)

            service._proxy = recorded
            with ServiceClient(*service.address) as c:
                exact = c.call("evaluate_batch", query=QUERY, ps=ps,
                               method="wmc", epsilon="1/753", timeout=30)
                assert proxied == ["evaluate"] * len(ps)
                proxied.clear()
                auto = c.call("evaluate_batch", query=QUERY, ps=ps,
                              epsilon="1/753", timeout=30)
                assert proxied == ["evaluate_batch"]
        assert [r["value"] for r in exact["results"]] == \
            [r["value"] for r in auto["results"]]

    def test_a_forced_sampler_is_capped_by_its_own_draws(self, client):
        """``method`` adaptive/importance draws with that sampler, not
        the ``estimator`` knob's, so the per-estimate cap counts that
        sampler's worst case: at epsilon 1/753 Hoeffding (1,045,814
        draws) is under the cap and both sequential samplers are not."""
        from repro.booleans.adaptive import WEIGHT_CAPS, max_draws

        assert client.evaluate(QUERY, p=4, epsilon="1/753")["engine"] \
            == "exact"
        for method in ("adaptive", "importance"):
            draws = max_draws(F(1, 753), F(1, 20), WEIGHT_CAPS[method])
            assert draws > server_module.MAX_ESTIMATE_DRAWS
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate(QUERY, p=4, method=method,
                                epsilon="1/753")
            assert excinfo.value.code == "bad-request"
            assert f"the {method} sampler draw up to {draws} worlds" \
                in str(excinfo.value)

    def test_bad_estimator_rejected(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.evaluate(QUERY, p=4, estimator="magic")
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(QUERY, p=4, relative_error="0")
        assert excinfo.value.code == "bad-request"


class TestAuthE2E:
    """Token authentication over a real socket: refused before any
    work, attributed per tenant when it passes."""

    TOKENS = {"tok-alice": "alice", "tok-bob": "bob"}

    @pytest.fixture()
    def auth_server(self):
        with ReproServer(port=0,
                         auth_tokens=dict(self.TOKENS)) as srv:
            yield srv

    def test_missing_token_is_unauthorized(self, auth_server):
        with ServiceClient(*auth_server.address) as c:
            with pytest.raises(ServiceError) as excinfo:
                c.ping()
        assert excinfo.value.code == "unauthorized"

    def test_unknown_token_is_unauthorized(self, auth_server):
        with ServiceClient(*auth_server.address,
                           auth="tok-wrong") as c:
            with pytest.raises(ServiceError) as excinfo:
                c.evaluate(QUERY, p=4)
        assert excinfo.value.code == "unauthorized"
        # Near-miss secrets must not be echoed back.
        assert "tok-wrong" not in str(excinfo.value)

    def test_good_token_is_served_and_attributed(self, auth_server):
        with ServiceClient(*auth_server.address,
                           auth="tok-alice") as c:
            result = c.evaluate(QUERY, p=4)
            assert result["engine"] == "exact"
            stats = c.stats()
        assert stats["service"]["auth_enabled"] is True
        alice = stats["tenants"]["alice"]
        assert alice["requests"] >= 2
        assert alice["compiles"] == 1
        assert alice["nodes_spent"] > 0

    def test_tenants_are_accounted_separately(self, auth_server):
        with ServiceClient(*auth_server.address,
                           auth="tok-alice") as alice:
            alice.evaluate(QUERY, p=4)
        with ServiceClient(*auth_server.address,
                           auth="tok-bob") as bob:
            # Bob rides Alice's warm circuit: no compile charged.
            bob.evaluate(QUERY, p=4)
            stats = bob.stats()
        assert stats["tenants"]["alice"]["compiles"] == 1
        assert stats["tenants"]["bob"]["compiles"] == 0
        assert stats["tenants"]["bob"]["requests"] >= 1

    def test_refused_requests_still_count(self, auth_server):
        with ServiceClient(*auth_server.address) as nobody:
            with pytest.raises(ServiceError):
                nobody.ping()
        with ServiceClient(*auth_server.address,
                           auth="tok-alice") as c:
            stats = c.stats()
        # The refusal happened before tenant resolution, so it shows
        # up in the error counter, not under any tenant.
        assert stats["service"]["errors"] >= 1

    def test_metrics_text_labels_the_tenant(self, auth_server):
        with ServiceClient(*auth_server.address,
                           auth="tok-alice") as c:
            c.ping()
            metrics = c.metrics()
        assert metrics["content_type"].startswith("text/plain")
        assert 'repro_tenant_requests_total{tenant="alice"}' \
            in metrics["text"]


class TestQuotaE2E:
    """Quota refusals over a real socket, with the structured
    ``quota-exceeded`` code."""

    def test_rate_window_trips(self):
        from repro.service.tenants import TenantQuota

        quota = TenantQuota(rate=5, window=3600.0)
        with ReproServer(port=0, auth_tokens={"t": "alice"},
                         quota=quota) as server:
            with ServiceClient(*server.address, auth="t") as c:
                for _ in range(5):
                    c.ping()
                with pytest.raises(ServiceError) as excinfo:
                    c.ping()
                assert excinfo.value.code == "quota-exceeded"
                assert "retry" in str(excinfo.value)

    def test_compile_budget_exhausts_mid_batch(self):
        """p=4 compiles under the budget; the p=5 circuit crosses it
        mid-``evaluate_batch`` — the request is refused but the paid
        circuits stay cached for everyone."""
        from repro.service.tenants import TenantQuota

        _, _, formula = workload(p=4)
        p4_nodes = wmc.compiled(formula).size
        wmc.clear_circuit_cache()
        quota = TenantQuota(compile_nodes=p4_nodes + 1)
        with ReproServer(port=0, auth_tokens={"t": "alice"},
                         quota=quota) as server:
            with ServiceClient(*server.address, auth="t") as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.evaluate_batch(QUERY, ps=[4, 5])
                assert excinfo.value.code == "quota-exceeded"
                # The tenant is exhausted, but the p=4 circuit they
                # paid for is warm — and warm circuits are free.
                result = c.evaluate(QUERY, p=4)
                assert result["engine"] == "exact"
                # Fresh compilation is refused fast...
                with pytest.raises(ServiceError) as excinfo:
                    c.evaluate(QUERY, p=6)
                assert excinfo.value.code == "quota-exceeded"
                # ...while the estimate-only path stays available.
                estimate = c.estimate(QUERY, p=6, epsilon="1/4",
                                      delta="1/4", seed=7)
                assert estimate["estimate"]["samples"] > 0
                stats = c.stats()
        spent = stats["tenants"]["alice"]["nodes_spent"]
        assert spent > p4_nodes + 1  # the crossing compile was paid

    def test_spent_and_fresh_tenants_sweep_one_cold_circuit(
            self, monkeypatch):
        """Quota refusals are per tenant: while a fresh tenant's sweep
        compiles a cold circuit, a spent tenant sweeping the same
        circuit gets ``quota-exceeded``, and the fresh tenant gets the
        exact values from one compilation."""
        from repro.evaluation import endpoint_weight_grid
        from repro.service.tenants import TenantQuota

        _, tid, formula = workload(p=5)
        compiling, release = threading.Event(), threading.Event()
        real_compiled = wmc.compiled_from

        def held_compiled(cnf, *args, **kwargs):
            # The first p=5 compile stays open until released.
            if cnf == formula and not compiling.is_set():
                compiling.set()
                assert release.wait(timeout=30)
            return real_compiled(cnf, *args, **kwargs)

        outcomes = {}

        def sweep_as(token):
            with ServiceClient(*server.address, auth=token) as c:
                try:
                    outcomes[token] = c.sweep(QUERY, p=5, grid=4)
                except ServiceError as error:
                    outcomes[token] = error

        with ReproServer(port=0,
                         auth_tokens={"s": "spent", "f": "fresh"},
                         tenant_quotas={
                             "spent": TenantQuota(compile_nodes=1)},
                         ) as server:
            with ServiceClient(*server.address, auth="s") as c:
                # The first fresh compile crosses the one-node budget.
                with pytest.raises(ServiceError) as excinfo:
                    c.compile(QUERY, p=2)
                assert excinfo.value.code == "quota-exceeded"
            monkeypatch.setattr(wmc, "compiled_from", held_compiled)
            fresh = threading.Thread(target=sweep_as, args=("f",))
            fresh.start()
            try:
                assert compiling.wait(timeout=30)
                sweep_as("s")
            finally:
                release.set()
                fresh.join(timeout=60)
            assert not fresh.is_alive()
            with ServiceClient(*server.address, auth="f") as c:
                stats = c.stats()

        expected = [str(v) for v in probability_sweep(
            formula, endpoint_weight_grid(formula, tid, 4))]
        assert isinstance(outcomes["s"], ServiceError)
        assert outcomes["s"].code == "quota-exceeded"
        assert outcomes["f"]["engine"] == "exact"
        assert outcomes["f"]["values"] == expected
        assert stats["tenants"]["fresh"]["compiles"] == 1
        assert stats["cache"]["compiles"] == 2  # p=2, then p=5 once

    @pytest.mark.parametrize("op, params", [
        ("evaluate", {"method": "wmc"}),
        ("sweep", {"grid": 4}),
    ], ids=["evaluate", "sweep"])
    def test_a_circuit_cached_while_waiting_is_not_charged(self, op,
                                                          params):
        """Tenant B misses the memory cache, then is held (in its
        compile-quota check, which runs between the miss and the pool
        call) until tenant A's request has compiled the circuit and
        returned.  B's job then finds the circuit in memory: B pays
        nothing, and A pays for the one compilation."""
        with ReproServer(port=0, auth_tokens={"a": "alice",
                                              "b": "bob"}) as server:
            missed, alice_done = threading.Event(), threading.Event()
            real_check = server.tenants.check_compile

            def held_check(tenant):
                if tenant == "bob":
                    missed.set()
                    assert alice_done.wait(timeout=30)
                return real_check(tenant)

            server.tenants.check_compile = held_check
            answers = {}

            def call_as(token):
                with ServiceClient(*server.address, auth=token) as c:
                    answers[token] = c.call(op, query=QUERY, p=4,
                                            **params)

            bob = threading.Thread(target=call_as, args=("b",))
            bob.start()
            try:
                assert missed.wait(timeout=30)
                call_as("a")
            finally:
                alice_done.set()
                bob.join(timeout=60)
            assert not bob.is_alive()
            with ServiceClient(*server.address, auth="a") as c:
                stats = c.stats()
        assert answers["b"] == answers["a"]
        assert stats["tenants"]["bob"]["compiles"] == 0
        assert stats["tenants"]["bob"]["nodes_spent"] == 0
        assert stats["tenants"]["alice"]["compiles"] == 1
        assert stats["cache"]["compiles"] == 1

    def test_anonymous_tenant_is_quota_bound_too(self):
        from repro.service.tenants import TenantQuota

        quota = TenantQuota(rate=3, window=3600.0)
        with ReproServer(port=0, quota=quota) as server:
            with ServiceClient(*server.address) as c:
                for _ in range(3):
                    c.ping()
                with pytest.raises(ServiceError) as excinfo:
                    c.ping()
                assert excinfo.value.code == "quota-exceeded"


class TestMetricsOp:
    def test_metrics_projects_the_stats_payload(self, client):
        client.evaluate(QUERY, p=4)
        metrics = client.metrics()
        assert metrics["content_type"] == (
            "text/plain; version=0.0.4; charset=utf-8")
        text = metrics["text"]
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_op_requests_total{op="evaluate"} 1' in text
        assert "repro_cache_compiles_total 1" in text
        assert 'repro_tenant_requests_total{tenant="anonymous"}' \
            in text

    def test_metrics_rejects_params(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("metrics", verbose=True)
        assert excinfo.value.code == "bad-request"

    def test_ctl_metrics_cli(self, server, capsys):
        host, port = server.address
        assert main(["ctl", "metrics", "--host", host,
                     "--port", str(port)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_requests_total counter" in out
        assert out.endswith("\n")


class TestAutoEviction:
    def test_fresh_compiles_prune_the_store_to_the_cap(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path),
                         store_max_bytes=0) as server:
            with ServiceClient(*server.address) as c:
                c.compile(QUERY, p=4)
                stats = c.stats()
        service = stats["service"]
        assert service["store_max_bytes"] == 0
        assert service["auto_prunes"] >= 1
        assert service["auto_evicted"] >= 1
        assert service["auto_reclaimed_bytes"] > 0

    def test_uncapped_server_never_auto_prunes(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path)) as server:
            with ServiceClient(*server.address) as c:
                c.compile(QUERY, p=4)
                stats = c.stats()
        assert stats["service"]["store_max_bytes"] is None
        assert stats["service"]["auto_prunes"] == 0

    def test_generous_cap_keeps_the_hot_circuit(self, tmp_path):
        with ReproServer(port=0, store=str(tmp_path),
                         store_max_bytes=10_000_000) as server:
            with ServiceClient(*server.address) as c:
                c.compile(QUERY, p=4)
                stats = c.stats()
        # The prune ran but evicted nothing: the store fits the cap.
        assert stats["service"]["auto_prunes"] >= 1
        assert stats["service"]["auto_evicted"] == 0

    def test_serve_flag_validates_store_max_bytes(self):
        with pytest.raises(SystemExit, match="store-max-bytes"):
            main(["serve", "--store-max-bytes", "-1"])


class TestServeHardeningFlags:
    """The `repro serve` hardening flags fail friendly, not with a
    traceback — nothing here boots a server."""

    def test_auth_tokens_malformed_piece(self):
        with pytest.raises(SystemExit, match="TENANT=TOKEN"):
            main(["serve", "--auth-tokens", "alice"])

    def test_auth_tokens_duplicate_token(self):
        with pytest.raises(SystemExit, match="unique"):
            main(["serve", "--auth-tokens", "alice=T1,bob=T1"])

    def test_auth_tokens_empty(self):
        with pytest.raises(SystemExit, match="no tenants"):
            main(["serve", "--auth-tokens", ", ,"])

    def test_quota_spec_rejected_with_flag_named(self):
        with pytest.raises(SystemExit, match="--quota.*bogus"):
            main(["serve", "--quota", "bogus=1"])
        with pytest.raises(SystemExit, match="--quota.*rate"):
            main(["serve", "--quota", "rate=abc"])

    def test_tenant_quota_needs_tenant_prefix(self):
        with pytest.raises(SystemExit, match="TENANT:rate"):
            main(["serve", "--tenant-quota", "rate=5"])

    def test_tenant_quota_spec_errors_name_the_flag(self):
        with pytest.raises(SystemExit, match="--tenant-quota"):
            main(["serve", "--tenant-quota", "alice:rate=0"])

    def test_store_max_bytes_needs_a_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUIT_STORE", raising=False)
        with pytest.raises(SystemExit, match="needs a store"):
            main(["serve", "--store-max-bytes", "1000"])
