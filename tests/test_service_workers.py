"""The multi-process service: dispatcher routing, protocol parity,
worker-crash recovery, centralized quotas, and cross-process traces."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatch import ReproDispatcher, _HashRing
from repro.service.protocol import ERROR_CODES
from repro.service.server import ReproServer
from repro.service.tenants import TenantQuota
from repro.tid import wmc

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
QUERY = "(R|S1)(S1|T)"
#: P(QUERY) over B_4(u, v) with all weights 1/2 — the exact value the
#: single-process smoke pins; the dispatcher must agree bit for bit.
EXACT_P4 = "4181/131072"


@pytest.fixture(autouse=True)
def isolated_cache():
    wmc.clear_circuit_cache()
    wmc.set_circuit_store(None)
    yield
    wmc.set_circuit_store(None)
    wmc.clear_circuit_cache()


@pytest.fixture(scope="module")
def dispatcher():
    """One shared two-worker pool for the read-mostly parity tests
    (worker boot costs a Python start-up each; respawn tests build
    their own)."""
    with ReproDispatcher(port=0, workers=2, window=0.0) as disp:
        yield disp


@pytest.fixture()
def client(dispatcher):
    with ServiceClient(*dispatcher.address) as c:
        yield c


class TestHashRing:
    def test_route_is_deterministic(self):
        ring = _HashRing(4)
        keys = [f"fingerprint-{i:04d}" for i in range(200)]
        assert [ring.route(k) for k in keys] \
            == [_HashRing(4).route(k) for k in keys]

    def test_every_worker_gets_traffic(self):
        ring = _HashRing(4)
        owners = {ring.route(f"fp-{i}") for i in range(500)}
        assert owners == {0, 1, 2, 3}

    def test_consistency_under_pool_growth(self):
        # Adding a worker must move only a minority of the keyspace —
        # the property that keeps per-worker LRUs warm across resizes.
        keys = [f"fp-{i}" for i in range(1000)]
        small, large = _HashRing(3), _HashRing(4)
        moved = sum(small.route(k) != large.route(k) for k in keys)
        assert 0 < moved < len(keys) / 2


class TestDispatcherParity:
    def test_ping(self, client):
        assert client.ping() == {"pong": True}

    def test_exact_evaluate_matches_single_process(self, client):
        result = client.evaluate(QUERY, p=4)
        assert result["engine"] == "exact"
        assert result["value"] == EXACT_P4

    def test_batch_splits_per_p_and_matches_evaluates(self, client):
        batch = client.evaluate_batch(QUERY, ps=[2, 3, 4])
        assert batch["count"] == 3
        singles = [client.evaluate(QUERY, p=p) for p in (2, 3, 4)]
        assert [r["value"] for r in batch["results"]] \
            == [r["value"] for r in singles]
        assert [r["p"] for r in batch["results"]] == [2, 3, 4]

    def test_batch_rejects_p_param(self, client):
        with pytest.raises(ServiceError) as info:
            client.call("evaluate_batch", query=QUERY, ps=[2], p=3)
        assert info.value.code == "bad-request"

    def test_sweep_through_the_pool(self, client):
        result = client.sweep(QUERY, p=3, grid=4)
        assert result["engine"] == "exact"
        assert result["count"] == 4

    def test_same_fingerprint_routes_to_one_worker(
            self, dispatcher, client):
        fingerprint = client.evaluate(QUERY, p=4)["fingerprint"]
        index = dispatcher._ring.route(fingerprint)
        for _ in range(3):
            client.evaluate(QUERY, p=4)
        assert fingerprint in dispatcher._workers[index].resident
        other = dispatcher._workers[1 - index]
        assert fingerprint not in other.resident

    def test_error_codes_proxy_transparently(self, client):
        cases = [
            (dict(op="evaluate", query="no parens"), "bad-query"),
            (dict(op="evaluate", query=QUERY, tpyo=1), "bad-request"),
            (dict(op="sweep", query="(S1|S2)", p=3), "bad-query"),
            # A formula no other test warms: the tiny budget must
            # abort a *fresh* compile to surface the structured code.
            (dict(op="compile", query="(R|S1)(S1|S2)(S2|T)", p=6,
                  budget_nodes=2), "budget-exceeded"),
        ]
        for params, expected in cases:
            op = params.pop("op")
            with pytest.raises(ServiceError) as info:
                client.call(op, **params)
            assert info.value.code == expected, op
            assert info.value.code in ERROR_CODES

    def test_store_gc_without_store_is_bad_request(
            self, client, monkeypatch):
        monkeypatch.delenv("REPRO_CIRCUIT_STORE", raising=False)
        with pytest.raises(ServiceError) as info:
            client.store_gc(max_bytes=0)
        assert info.value.code == "bad-request"

    def test_stats_aggregate_across_workers(self, client):
        for p in (2, 3, 4, 5):
            client.evaluate(QUERY, p=p)
        stats = client.stats()
        service = stats["service"]
        assert service["workers"] == 2
        assert service["proxied_requests"] >= 4
        assert stats["cache"]["compiles"] >= 4
        # Each fresh compile feeds the merged service-wide planner.
        assert service["planner"]["observations"] >= 4
        assert len(service["planner"]["growth"]) \
            == service["planner"]["observations"]
        rows = {row["worker"]: row for row in stats["workers"]}
        assert set(rows) == {0, 1}
        assert all(row["alive"] for row in rows.values())

    def test_metrics_render_the_aggregate(self, client):
        client.evaluate(QUERY, p=4)
        text = client.metrics()["text"]
        assert 'repro_service_info{key="workers"} 2' in text
        assert "repro_cache_compiles_total" in text
        assert "repro_requests_total" in text

    def test_trace_spans_both_processes(self, client):
        client.call("evaluate", query=QUERY, p=4,
                    trace="xproc-parity")
        payload = client.trace(id="xproc-parity")["traces"][0]
        spans = payload["spans"]
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1  # one merged tree, not two forests
        names = {s["name"] for s in spans}
        assert {"proxy", "dispatch", "evaluate"} <= names
        worker_spans = [s for s in spans
                        if str(s.get("tags", {}).get("process", ""))
                        .startswith("worker-")]
        assert worker_spans, "no worker-side spans grafted"
        by_id = {s["id"]: s for s in spans}
        for entry in worker_spans:
            assert entry["parent"] in by_id  # grafted, not floating
        proxy = next(s for s in spans if s["name"] == "proxy")
        assert "child_trace" in proxy["tags"]
        assert isinstance(proxy["tags"]["worker"], int)


class TestCrashRecovery:
    def _kill_owner(self, dispatcher, fingerprint):
        handle = dispatcher._workers[
            dispatcher._ring.route(fingerprint)]
        pid = handle.process.pid
        handle.process.kill()
        handle.process.wait(timeout=10)
        return handle, pid

    def test_dead_worker_is_respawned_and_request_retried(self):
        with ReproDispatcher(port=0, workers=2, window=0.0) as disp:
            with ServiceClient(*disp.address) as client:
                first = client.evaluate(QUERY, p=4)
                handle, old_pid = self._kill_owner(
                    disp, first["fingerprint"])
                again = client.evaluate(QUERY, p=4)
                assert again["value"] == first["value"]
                assert handle.process.pid != old_pid
                assert handle.respawns == 1
                stats = client.stats()["service"]
                assert stats["worker_respawns"] == 1
                assert stats["redispatches"] >= 1

    def test_kill_mid_request_structured_error_or_retried_success(
            self):
        with ReproDispatcher(port=0, workers=2, window=0.0) as disp:
            with ServiceClient(*disp.address, timeout=600) as client:
                fingerprint = client.evaluate(QUERY,
                                              p=4)["fingerprint"]
                handle = disp._workers[disp._ring.route(fingerprint)]
                outcome = {}

                def slow_request():
                    try:
                        # A large exact sweep takes long enough to
                        # still be in flight when the worker dies.
                        outcome["result"] = client.sweep(
                            QUERY, p=4, grid=20_000)
                    except ServiceError as error:
                        outcome["error"] = error

                thread = threading.Thread(target=slow_request)
                thread.start()
                time.sleep(0.3)
                handle.process.kill()
                thread.join(timeout=120)
                assert not thread.is_alive()
                if "error" in outcome:
                    # A structured failure, never a raw socket error.
                    assert outcome["error"].code == "internal"
                else:
                    assert outcome["result"]["count"] == 20_000
                if handle.respawns == 0:
                    # The sweep won the race and finished before the
                    # kill landed; the next request routed to the dead
                    # worker must take the detect-and-respawn path.
                    assert client.evaluate(QUERY,
                                           p=4)["value"] == EXACT_P4
                assert handle.respawns >= 1
                # The pool keeps serving after the crash.
                assert client.ping() == {"pong": True}

    def test_warm_store_state_survives_respawn(self, tmp_path):
        store_dir = str(tmp_path / "store")
        with ReproDispatcher(port=0, workers=2, window=0.0,
                             store=store_dir) as disp:
            with ServiceClient(*disp.address) as client:
                compiled = client.compile(QUERY, p=4)
                assert compiled["source"] == "compiled"
                handle, _ = self._kill_owner(
                    disp, compiled["fingerprint"])
                # The respawned worker's memory is cold but the
                # shared store is not: the circuit comes back from
                # disk, not a recompile.
                warm = client.compile(QUERY, p=4)
                assert warm["fingerprint"] == compiled["fingerprint"]
                assert warm["source"] == "disk store"
                assert handle.respawns == 1
                assert client.stats()["cache"]["store_hits"] >= 1


def spawn_worker(stdin):
    """A standalone worker process with ``stdin`` on its standard
    input, and its bound address read from the banner."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_CIRCUIT_STORE", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service.worker", "--port", "0"],
        stdin=stdin, stdout=subprocess.PIPE, text=True, env=env)
    banner = process.stdout.readline().strip()
    host, _, port = banner.rsplit(" ", 1)[1].rpartition(":")
    return process, (host, int(port))


def reap(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)
    for pipe in (process.stdin, process.stdout):
        if pipe is not None:
            pipe.close()


class TestWorkerLifetime:
    """A worker exits when the dispatcher's end of its stdin pipe goes
    away — the dispatcher exited or was killed — and a worker started
    without a stdin pipe ignores stdin."""

    def test_worker_exits_when_its_stdin_pipe_closes(self):
        process, address = spawn_worker(subprocess.PIPE)
        try:
            with ServiceClient(*address) as client:
                assert client.ping() == {"pong": True}
            process.stdin.close()
            assert process.wait(timeout=10) == 0
        finally:
            reap(process)
        with socket.socket() as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(address)  # EADDRINUSE while the worker listens

    def test_worker_without_a_stdin_pipe_keeps_serving(self):
        process, address = spawn_worker(subprocess.DEVNULL)
        try:
            with ServiceClient(*address) as client:
                assert client.ping() == {"pong": True}
                client.call("shutdown")
            assert process.wait(timeout=10) == 0
        finally:
            reap(process)


class TestCentralizedQuotas:
    def test_rate_limit_enforced_at_the_dispatcher(self):
        with ReproDispatcher(
                port=0, workers=1, window=0.0,
                auth_tokens={"tok": "alice"},
                quota=TenantQuota(rate=3, window=3600)) as disp:
            with ServiceClient(*disp.address, auth="tok") as client:
                for _ in range(3):
                    client.ping()
                with pytest.raises(ServiceError) as info:
                    client.ping()
                assert info.value.code == "quota-exceeded"

    def test_compile_budget_charged_centrally(self):
        with ReproDispatcher(
                port=0, workers=2, window=0.0,
                auth_tokens={"tok": "alice"},
                quota=TenantQuota(compile_nodes=1)) as disp:
            with ServiceClient(*disp.address, auth="tok") as client:
                # The crossing request pays and is refused — exactly
                # the single-process semantics — with the spend
                # recorded in the dispatcher's registry even though
                # the compile happened a process away.
                with pytest.raises(ServiceError) as info:
                    client.evaluate(QUERY, p=4)
                assert info.value.code == "quota-exceeded"
                usage = client.stats()["tenants"]["alice"]
                assert usage["nodes_spent"] > 1
                # A different formula needs fresh work: refused
                # before any worker is bothered.
                with pytest.raises(ServiceError) as info:
                    client.evaluate(QUERY, p=5)
                assert info.value.code == "quota-exceeded"
                # The warm fingerprint stays accessible.
                assert client.evaluate(QUERY, p=4)["engine"] \
                    == "exact"

    def test_workers_run_open_and_strip_charge_field(self):
        with ReproDispatcher(port=0, workers=1,
                             window=0.0) as disp:
            with ServiceClient(*disp.address) as client:
                result = client.evaluate(QUERY, p=4)
                assert "charge" not in result
                # Directly probe the worker: it reports the charge
                # field (worker mode) but requires no auth.
                address = disp._workers[0].address
                with ServiceClient(*address) as direct:
                    fresh = direct.evaluate(QUERY, p=5)
                    assert fresh["charge"]["nodes"] > 0
                    warm = direct.evaluate(QUERY, p=5)
                    assert "charge" not in warm


class TestWorkersZeroParity:
    def test_workers_zero_is_the_in_process_server(self):
        # `repro serve --workers 0` must construct today's
        # single-process ReproServer, byte-identical behaviour.
        with ReproServer(port=0, window=0.0) as server:
            with ServiceClient(*server.address) as client:
                result = client.evaluate(QUERY, p=4)
                assert result["value"] == EXACT_P4
                assert "charge" not in result
                stats = client.stats()["service"]
                assert "proxied_requests" not in stats
                assert stats["planner"]["observations"] >= 1


PROBE_SCRIPT = r"""
import json, sys
from repro.service.client import ServiceClient
from repro.service.dispatch import ReproDispatcher

QUERY = "(R|S1)(S1|T)"
with ReproDispatcher(port=0, workers=2, window=0.0) as disp:
    with ServiceClient(*disp.address) as client:
        values = [client.evaluate(QUERY, p=p)["value"]
                  for p in (3, 4)]
        client.call("evaluate", query=QUERY, p=4, trace="probe")
        payload = client.trace(id="probe")["traces"][0]
        shape = sorted(
            (s["name"],
             next((x["name"] for x in payload["spans"]
                   if x["id"] == s["parent"]), "") or "",
             str(s.get("tags", {}).get("process", "")))
            for s in payload["spans"])
        fingerprint = client.evaluate(QUERY, p=4)["fingerprint"]
        route = disp._ring.route(fingerprint)
print(json.dumps({"values": values, "shape": shape,
                  "fingerprint": fingerprint, "route": route}))
"""


class TestHashSeedIndependence:
    def test_cross_process_trace_tree_is_seed_independent(self):
        """Two-hashseed subprocess probe: routing, exact values, and
        the merged dispatcher->worker span tree must not depend on
        PYTHONHASHSEED in either process."""
        outputs = []
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("REPRO_CIRCUIT_STORE", None)
            src = os.path.join(os.path.dirname(__file__),
                               os.pardir, "src")
            env["PYTHONPATH"] = os.path.abspath(src)
            proc = subprocess.run(
                [sys.executable, "-c", PROBE_SCRIPT],
                capture_output=True, text=True, timeout=300,
                env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(json.loads(proc.stdout.strip()))
        assert outputs[0] == outputs[1]
        assert any(process.startswith("worker-")
                   for _, _, process in outputs[0]["shape"])
