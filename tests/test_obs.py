"""Request tracing end to end: the span/histogram/slow-log core with
a fake clock, the live service stack over real sockets, the client
transport knobs, and the hash-seed determinism of serialized traces."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.obs import (
    BUCKET_LABELS,
    NULL_SPAN,
    SLOW_LOG_NAME,
    Tracer,
    current_span,
    current_trace_id,
    span,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.metrics import render_metrics
from repro.service.server import ReproServer
from repro.tid import wmc

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
QUERY = "(R|S1)(S1|T)"


class FakeClock:
    """A hand-cranked monotonic clock for exact durations."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture(autouse=True)
def isolated_cache():
    wmc.clear_circuit_cache()
    wmc.set_circuit_store(None)
    yield
    wmc.set_circuit_store(None)
    wmc.clear_circuit_cache()


# ----------------------------------------------------------------------
# The tracer core, pinned by a fake clock
# ----------------------------------------------------------------------
class TestTracerCore:
    def build_trace(self, tracer, clock):
        root = tracer.root("evaluate", tenant="acme", safe=False)
        with root:
            clock.advance(0.001)
            with span("dispatch", cached=False):
                clock.advance(0.002)
            with span("evaluate", method="auto") as ev:
                clock.advance(0.004)
                with span("kernel", lanes=3):
                    clock.advance(0.001)
                ev.tag(engine="exact")
            clock.advance(0.001)
        return root

    def test_span_tree_shape_and_durations(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        self.build_trace(tracer, clock)
        payload = tracer.recent()[0]
        assert payload["trace"] == "t00000001"
        assert payload["op"] == "evaluate"
        assert payload["tenant"] == "acme"
        assert payload["duration_ms"] == 9.0
        spans = payload["spans"]
        by_name = {s["name"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["tags"] == {
            "safe": False, "tenant": "acme"}
        assert by_name["dispatch"]["parent"] == roots[0]["id"]
        assert by_name["dispatch"]["start_ms"] == 1.0
        assert by_name["dispatch"]["duration_ms"] == 2.0
        # The kernel span nests under the evaluate *stage*, not root.
        stage = [s for s in spans
                 if s["name"] == "evaluate" and s["parent"] is not None]
        assert len(stage) == 1 and stage[0]["duration_ms"] == 5.0
        assert stage[0]["tags"] == {"engine": "exact", "method": "auto"}
        assert by_name["kernel"]["parent"] == stage[0]["id"]
        assert roots[0]["duration_ms"] == 9.0
        # Spans are ordered as a timeline.
        starts = [s["start_ms"] for s in spans]
        assert starts == sorted(starts)

    def test_histograms_cumulative_and_sorted(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        self.build_trace(tracer, clock)
        hist = tracer.histograms()
        assert set(hist) == {"evaluate"}
        stages = hist["evaluate"]
        assert list(stages) == sorted(stages)
        assert set(stages) == {"total", "dispatch", "evaluate",
                               "kernel"}
        total = stages["total"]
        assert total["count"] == 1
        assert total["sum_ms"] == 9.0
        assert list(total["buckets"]) == list(BUCKET_LABELS)
        # 9 ms lands in the 0.01 s bucket; cumulative counts only
        # ever grow along the ladder.
        assert total["buckets"]["0.005"] == 0
        assert total["buckets"]["0.01"] == 1
        assert total["buckets"]["+Inf"] == 1

    def test_slow_log_threshold_and_jsonl_export(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock=clock, slow_threshold=0.005,
                        trace_dir=tmp_path)
        with tracer.root("ping"):
            clock.advance(0.001)  # fast: not logged
        self.build_trace(tracer, clock)  # 9 ms: logged
        slow = tracer.recent(slow=True)
        assert [p["op"] for p in slow] == ["evaluate"]
        assert slow[0]["slow"] is True
        lines = (tmp_path / SLOW_LOG_NAME).read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == slow[0]
        stats = tracer.stats()
        assert stats["completed"] == 2
        assert stats["slow"] == 1
        assert stats["slow_threshold_ms"] == 5.0

    def test_ring_buffer_drops_oldest(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock, buffer_size=2)
        for op in ("a", "b", "c"):
            with tracer.root(op):
                clock.advance(0.001)
        assert [p["op"] for p in tracer.recent()] == ["c", "b"]
        assert tracer.find("t00000001") is None
        assert tracer.find("t00000003")["op"] == "c"
        assert tracer.stats()["dropped"] == 1

    def test_tenant_scoping(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.root("ping", tenant="acme"):
            clock.advance(0.001)
        with tracer.root("ping", tenant="zeta"):
            clock.advance(0.001)
        assert len(tracer.recent()) == 2
        assert [p["tenant"] for p in tracer.recent(tenant="acme")] \
            == ["acme"]
        assert tracer.find("t00000002", tenant="acme") is None
        assert tracer.find("t00000002", tenant="zeta") is not None

    def test_client_supplied_trace_id_wins(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.root("ping", trace_id="client-id"):
            clock.advance(0.001)
        assert tracer.find("client-id") is not None

    def test_error_tagging(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(ValueError):
            with tracer.root("evaluate"):
                clock.advance(0.001)
                raise ValueError("boom")
        payload = tracer.recent()[0]
        assert payload["spans"][0]["tags"]["error"] == "ValueError"

    def test_cross_thread_begin_finish(self):
        """A stage that begins on one thread and finishes on another,
        run inside a context copied where it began."""
        import contextvars

        clock = FakeClock()
        tracer = Tracer(clock=clock)
        root = tracer.root("compile")
        with root:
            clock.advance(0.001)
            queue = span("queue", role="leader").begin()
            ctx = contextvars.copy_context()

            def task():
                clock.advance(0.002)
                queue.finish()
                with span("compile"):
                    clock.advance(0.004)

            worker = threading.Thread(target=lambda: ctx.run(task))
            worker.start()
            worker.join()
        payload = tracer.recent()[0]
        by_name = {s["name"]: s for s in payload["spans"]
                   if s["parent"] is not None}
        assert by_name["queue"]["duration_ms"] == 2.0
        assert by_name["compile"]["duration_ms"] == 4.0
        assert by_name["compile"]["parent"] == 1  # child of root

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)
        with pytest.raises(ValueError):
            Tracer(slow_keep=0)
        with pytest.raises(ValueError):
            Tracer(slow_threshold=-1.0)


class TestDisabledTracing:
    def test_disabled_root_is_the_null_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.root("evaluate") is NULL_SPAN
        with tracer.root("evaluate"):
            # Library spans inside a disabled trace are no-ops too.
            assert span("dispatch") is NULL_SPAN
        assert tracer.recent() == []
        assert tracer.histograms() == {}

    def test_span_without_active_trace_is_the_null_span(self):
        assert current_span() is None
        assert current_trace_id() is None
        assert span("anything", key="value") is NULL_SPAN
        # And the null span is inert under every operation.
        with NULL_SPAN.tag(x=1) as s:
            assert s.begin().finish() is None


# ----------------------------------------------------------------------
# The live service stack
# ----------------------------------------------------------------------
@pytest.fixture()
def traced_server(tmp_path):
    with ReproServer(port=0, slow_ms=0.0, trace_dir=tmp_path) as srv:
        yield srv


class TestServiceTracing:
    def test_trace_id_round_trips(self, traced_server):
        with ServiceClient(*traced_server.address) as client:
            client.call("ping", trace="my-trace-1")
            assert client.last_trace == "my-trace-1"
            fetched = client.trace(id="my-trace-1")
        assert fetched["enabled"] is True
        assert fetched["count"] == 1
        assert fetched["traces"][0]["trace"] == "my-trace-1"
        assert fetched["traces"][0]["op"] == "ping"

    def test_minted_trace_id_is_echoed(self, traced_server):
        with ServiceClient(*traced_server.address) as client:
            client.ping()
            minted = client.last_trace
            assert minted is not None
            fetched = client.trace(id=minted)
        assert fetched["count"] == 1

    def test_sweep_trace_covers_the_stack(self, traced_server):
        """The acceptance criterion: one cold sweep produces a span
        tree with dispatch, queue, compile, and evaluate stages, all
        direct children of the root, whose summed durations do not
        exceed the root's."""
        with ServiceClient(*traced_server.address) as client:
            client.call("sweep", query=QUERY, p=5, grid=4,
                        trace="cold-sweep")
            payload = client.trace(id="cold-sweep")["traces"][0]
        spans = payload["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "sweep"
        children = [s for s in spans if s["parent"] == roots[0]["id"]]
        stages = {s["name"] for s in children}
        assert {"dispatch", "queue", "compile", "evaluate"} <= stages
        summed = sum(s["duration_ms"] for s in children)
        assert summed <= payload["duration_ms"] + 0.1
        # The leader's compile span landed in this trace, tagged with
        # the circuit size.
        compile_span = next(s for s in children
                            if s["name"] == "compile")
        assert compile_span["tags"]["nodes"] > 0

    def test_exact_evaluate_runs_integer_lanes(self, traced_server):
        """A live traced exact ``evaluate`` shows the tape's integer
        lanes on its kernel span, with the root numerator's bit
        length."""
        with ServiceClient(*traced_server.address) as client:
            result = client.call("evaluate", query=QUERY, p=4,
                                 method="wmc", trace="exact-evaluate")
            spans = client.trace(id="exact-evaluate")["traces"][0][
                "spans"]
        assert result["engine"] == "exact"
        kernels = [s["tags"] for s in spans if s["name"] == "kernel"]
        assert kernels
        for tags in kernels:
            assert tags["numeric"] == "exact"
            assert tags["arith"] == "int"
            assert tags["bits"] > 0

    def test_compile_pool_rider_attributes_leader(self, monkeypatch):
        """Concurrent cold sweeps share one compile job: the leader's
        trace holds the compile span, and each rider's trace holds a
        ``queue`` rider span naming the leader's trace.  The job stays
        open until both riders have joined it."""
        from repro.service import scheduler

        n = 3
        joined = threading.Semaphore(0)

        class CountedEvent(threading.Event):
            def wait(self, timeout=None):
                joined.release()  # only riders wait on a job's event
                return super().wait(timeout)

        class HeldJob(scheduler._Job):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                self.done = CountedEvent()

        real_compiled = wmc.compiled_from
        held = []

        def compiled_after_riders(*args, **kwargs):
            if not held:  # the leader's compile, the first call
                held.append(True)
                for _ in range(n - 1):
                    assert joined.acquire(timeout=30)
            return real_compiled(*args, **kwargs)

        monkeypatch.setattr(scheduler, "_Job", HeldJob)
        monkeypatch.setattr(wmc, "compiled_from", compiled_after_riders)
        with ReproServer(port=0) as server:
            def worker(i):
                with ServiceClient(*server.address) as c:
                    c.call("sweep", query=QUERY, p=6, grid=4,
                           trace=f"co-{i}")

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServiceClient(*server.address) as c:
                traces = c.trace(limit=10)["traces"]
        by_id = {p["trace"]: p for p in traces
                 if p["trace"].startswith("co-")}
        assert len(by_id) == n

        def rider_tags(payload):
            return [s["tags"] for s in payload["spans"]
                    if s["tags"].get("role") == "rider"]

        def has_compile(payload):
            return any(s["name"] == "compile"
                       for s in payload["spans"])

        leaders = [p for p in by_id.values() if has_compile(p)]
        riders = [p for p in by_id.values() if not has_compile(p)]
        assert len(leaders) == 1
        assert len(riders) == n - 1
        for payload in riders:
            tags = rider_tags(payload)
            assert tags, "rider trace carries no rider span"
            leaders_seen = {t["leader"] for t in tags if "leader" in t}
            assert leaders_seen == {leaders[0]["trace"]}

    def test_slow_request_lands_in_slow_log(self, traced_server,
                                            tmp_path):
        """slow_ms=0 marks every request slow: the trace shows up in
        the slow view and in the JSONL export."""
        with ServiceClient(*traced_server.address) as client:
            client.call("ping", trace="slow-ping")
            slow = client.trace(slow=True)
        assert any(p["trace"] == "slow-ping" and p["slow"]
                   for p in slow["traces"])
        lines = (tmp_path / SLOW_LOG_NAME).read_text().splitlines()
        exported = [json.loads(line) for line in lines]
        assert any(p["trace"] == "slow-ping" for p in exported)

    def test_trace_op_is_tenant_scoped(self, tmp_path):
        with ReproServer(port=0, auth_tokens={"tok-a": "acme",
                                              "tok-z": "zeta"}) as srv:
            with ServiceClient(*srv.address, auth="tok-a") as a:
                a.call("ping", trace="acme-ping")
            with ServiceClient(*srv.address, auth="tok-z") as z:
                z.call("ping", trace="zeta-ping")
                listing = z.trace(limit=10)
        ids = {p["trace"] for p in listing["traces"]}
        assert "zeta-ping" in ids
        assert "acme-ping" not in ids

    def test_disabled_tracing_answers_empty(self):
        with ReproServer(port=0, tracing=False) as srv:
            with ServiceClient(*srv.address) as client:
                client.call("ping", trace="ghost")
                # The client-supplied id is still echoed for
                # correlation even though nothing is recorded.
                assert client.last_trace == "ghost"
                listing = client.trace()
                stats = client.stats()
        assert listing == {"enabled": False, "count": 0, "traces": []}
        assert stats["tracing"]["enabled"] is False

    def test_stats_uptime_and_metrics_histograms(self, traced_server):
        with ServiceClient(*traced_server.address) as client:
            client.sweep(QUERY, p=4, grid=4)
            stats = client.stats()
            metrics = client.metrics()["text"]
        service = stats["service"]
        assert service["uptime_seconds"] >= 0.0
        assert service["started_at"] > 1.6e9  # a sane unix timestamp
        tracing = stats["tracing"]
        assert tracing["enabled"] is True
        assert tracing["completed"] >= 1
        assert "sweep" in tracing["histograms"]
        assert "total" in tracing["histograms"]["sweep"]
        assert "repro_op_stage_seconds_bucket{" in metrics
        assert 'op="sweep"' in metrics
        assert 'stage="total"' in metrics
        assert 'le="+Inf"' in metrics
        assert "repro_op_stage_seconds_count" in metrics
        assert "repro_uptime_seconds" in metrics
        assert "repro_started_at_seconds" in metrics
        # The projection is a pure function of stats: same input,
        # same text.
        assert render_metrics(stats) == render_metrics(stats)

    def test_bad_trace_field_is_refused(self, traced_server):
        host, port = traced_server.address
        with socket.create_connection((host, port)) as sock:
            fh = sock.makefile("rwb")
            fh.write(json.dumps({"v": 1, "op": "ping", "id": 1,
                                 "trace": 7}).encode() + b"\n")
            fh.flush()
            response = json.loads(fh.readline())
        assert response["ok"] is False
        assert response["error"]["code"] == "bad-request"


class TestCtlVerbs:
    def test_ctl_trace_and_top(self, traced_server, capsys):
        host, port = traced_server.address
        with ServiceClient(host, port) as client:
            client.sweep(QUERY, p=4, grid=4)
        assert main(["ctl", "trace", "--host", host,
                     "--port", str(port), "--limit", "5"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["count"] >= 1
        assert main(["ctl", "top", "--host", host,
                     "--port", str(port)]) == 0
        table = capsys.readouterr().out
        lines = table.splitlines()
        assert lines[0].split() == ["op", "stage", "count",
                                    "total_ms", "p50_ms", "p99_ms"]
        assert any("sweep" in line and "total" in line
                   for line in lines[1:])

    def test_ctl_trace_by_id(self, traced_server, capsys):
        host, port = traced_server.address
        with ServiceClient(host, port) as client:
            client.call("ping", trace="ctl-ping")
        assert main(["ctl", "trace", "--host", host,
                     "--port", str(port), "--id", "ctl-ping"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["count"] == 1
        assert listing["traces"][0]["trace"] == "ctl-ping"

    def test_ctl_top_without_traffic(self, capsys):
        with ReproServer(port=0, tracing=False) as srv:
            host, port = srv.address
            assert main(["ctl", "top", "--host", host,
                         "--port", str(port)]) == 0
        assert "no traced requests" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Client transport knobs
# ----------------------------------------------------------------------
class TestClientTransport:
    def test_per_call_timeout_raises_service_error(self):
        """A server that accepts but never answers must surface a
        structured timeout, not hang the caller."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        accepted = []

        def accept():
            conn, _ = listener.accept()
            accepted.append(conn)  # hold it open, answer nothing

        thread = threading.Thread(target=accept)
        thread.start()
        try:
            client = ServiceClient(host, port)
            with pytest.raises(ServiceError) as err:
                client.call("ping", timeout=0.2)
            assert err.value.code == "timeout"
        finally:
            thread.join()
            for conn in accepted:
                conn.close()
            listener.close()

    def test_timeout_must_be_positive(self, traced_server):
        with ServiceClient(*traced_server.address) as client:
            with pytest.raises(ValueError):
                client.call("ping", timeout=0)

    def test_connect_retry_waits_for_late_listener(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        listener = socket.socket()

        def open_late():
            time.sleep(0.2)
            listener.setsockopt(socket.SOL_SOCKET,
                                socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            listener.listen(1)

        thread = threading.Thread(target=open_late)
        thread.start()
        try:
            client = ServiceClient(host, port, connect_retries=10,
                                   retry_backoff=0.05)
            client.close()
        finally:
            thread.join()
            listener.close()

    def test_exhausted_retries_propagate(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            ServiceClient(host, port, connect_retries=1,
                          retry_backoff=0.01)

    def test_retry_validation(self):
        with pytest.raises(ValueError):
            ServiceClient(connect_retries=-1)
        with pytest.raises(ValueError):
            ServiceClient(retry_backoff=-0.1)


# ----------------------------------------------------------------------
# Hash-seed determinism of everything serialized
# ----------------------------------------------------------------------
_TRACE_PROBE = r"""
import json
from repro.obs import Tracer, span
from repro.service.metrics import render_metrics


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


tracer = Tracer(clock=Clock(), slow_threshold=0.0)
for op in ("evaluate", "sweep"):
    with tracer.root(op, tenant="acme", zeta=1, alpha="two",
                     mid=True):
        with span("dispatch", cached=False):
            pass
        with span(op, lanes=4, numeric="exact"):
            with span("kernel"):
                pass
traces = tracer.recent(limit=10)
hist = tracer.histograms()
stats = {"service": {"uptime_seconds": 1.5, "started_at": 2.0},
         "tracing": dict(tracer.stats(), histograms=hist)}
print(json.dumps({
    "traces": traces,
    "histograms": hist,
    "stats": tracer.stats(),
    "metrics": render_metrics(stats),
}, sort_keys=True))
"""


def _probe(hashseed):
    env = dict(os.environ,
               PYTHONHASHSEED=hashseed,
               PYTHONPATH=SRC + os.pathsep + os.environ.get(
                   "PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", _TRACE_PROBE], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestTraceDeterminism:
    def test_serialized_traces_identical_under_two_seeds(self):
        """Trace ids, span order, tag order, histogram buckets, and
        the Prometheus rendering agree between PYTHONHASHSEED=0 and
        =12345."""
        assert _probe("0") == _probe("12345")
