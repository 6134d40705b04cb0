"""End-to-end service smoke check: ``python -m repro.service.smoke``.

Boots a real ``repro serve`` subprocess on an ephemeral port, drives it
through both the client library and the ``repro query`` CLI, and
asserts the observable contract CI cares about:

* exact answers report ``engine: exact`` and the right method;
* a starved per-request budget degrades that request to the estimator
  (``engine: estimate`` with a populated Hoeffding interval) without
  affecting later exact requests;
* the ``stats`` endpoint shows warm-cache behaviour — one compilation,
  growing memory hits — after repeated queries, and a warm repeat
  launches no compile job and charges its tenant nothing (in both
  deployments);
* the ``metrics`` op renders those counters as Prometheus exposition
  text, through the client and through ``repro ctl metrics``;
* request tracing works over the wire: a client-supplied trace id is
  echoed and fetchable through the ``trace`` op, a cold sweep's span
  tree covers the dispatch/queue/compile/evaluate stages,
  the ``--slow-ms 0`` threshold lands every request in the slow log
  (including the JSONL export), the latency histograms render as
  Prometheus ``_bucket`` families, and ``repro ctl top`` prints the
  per-stage breakdown;
* shutdown-over-the-wire stops the server process;
* a second, auth-enabled server refuses missing/bad tokens with the
  ``unauthorized`` code, serves a good token, and attributes the
  tenant's usage in ``stats``/``metrics``.

Exit status 0 on success; any failed expectation raises and exits
non-zero, so this file is directly usable as a CI job step.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

QUERY = "(R|S1)(S1|T)"


def _require(condition: bool, label: str, context) -> None:
    if not condition:
        raise SystemExit(f"service smoke FAILED: {label}: {context!r}")


def _spend(client, tenant: str) -> tuple:
    """Compile jobs launched (summed over a dispatcher's workers) and
    ``tenant``'s nodes spent: a warm repeat must move neither."""
    stats = client.stats()
    rows = stats.get("workers") or [stats["service"]]
    return (sum(row["compile_jobs"] for row in rows),
            stats["tenants"][tenant]["nodes_spent"])


def _cli_query(port: int, *argv: str) -> dict:
    """One ``repro query`` CLI invocation, parsed from its JSON."""
    command = [sys.executable, "-m", "repro", "query",
               "--port", str(port), *argv]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=120)
    _require(proc.returncode == 0, "CLI query exited non-zero",
             (command, proc.stdout, proc.stderr))
    return json.loads(proc.stdout)


def _cli_ctl(port: int, *argv: str) -> str:
    """One ``repro ctl`` CLI invocation, raw stdout."""
    command = [sys.executable, "-m", "repro", "ctl", *argv,
               "--port", str(port)]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=120)
    _require(proc.returncode == 0, f"ctl {argv[0]} exited non-zero",
             (command, proc.stdout, proc.stderr))
    return proc.stdout


def _cli_metrics(port: int) -> str:
    """``repro ctl metrics`` — raw Prometheus exposition text."""
    return _cli_ctl(port, "metrics")


def main() -> int:
    env = dict(os.environ)
    trace_dir = tempfile.mkdtemp(prefix="repro-smoke-traces-")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--slow-ms", "0", "--trace-dir", trace_dir],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        banner = server.stdout.readline().strip()
        _require(banner.startswith("repro service listening on"),
                 "missing listen banner", banner)
        port = int(banner.rsplit(":", 1)[1])
        print(f"smoke: server up on port {port}")

        from repro.service.client import ServiceClient

        with ServiceClient(port=port, timeout=120) as client:
            stats = client.stats()
            _require(stats["cache"]["compiles"] == 0,
                     "cold server already compiled", stats["cache"])

            # The sweep goes first so its trace shows the whole cold
            # path (compile pool, compilation, evaluation); the
            # evaluate afterwards demonstrates the warm cache.
            sweep = client.sweep(QUERY, p=4, grid=6)
            _require(sweep["engine"] == "exact"
                     and sweep["count"] == 6,
                     "exact sweep provenance", sweep)

            result = client.evaluate(QUERY, p=4)
            _require(result["engine"] == "exact"
                     and result["method"] == "wmc",
                     "exact evaluate provenance", result)
            _require(result["value"] == "4181/131072",
                     "exact evaluate value", result)
            spent = _spend(client, "anonymous")
            client.evaluate(QUERY, p=4)
            client.sweep(QUERY, p=4, grid=6)
            _require(_spend(client, "anonymous") == spent,
                     "warm repeat is free", spent)

            stats = client.stats()
            _require(stats["cache"]["compiles"] == 1,
                     "one compilation serves evaluate + sweep",
                     stats["cache"])
            _require(stats["cache"]["hits"] >= 1,
                     "warm memory hits recorded", stats["cache"])
            _require(all(key in stats["cache"] for key in
                         ("tape_hits", "tape_flattens", "tape_bytes",
                          "tape_kernels")),
                     "tape counters exposed in stats", stats["cache"])

            degraded = client.evaluate(QUERY, p=6, budget_nodes=2)
            _require(degraded["engine"] == "estimate"
                     and degraded["method"] == "estimate"
                     and degraded["estimate"]["samples"] > 0,
                     "budget-starved request degrades to estimator",
                     degraded)

            stats = client.stats()
            _require(stats["cache"]["budget_aborts"] >= 1,
                     "budget abort counted", stats["cache"])

            metrics = client.metrics()
            _require(metrics["content_type"].startswith("text/plain"),
                     "metrics content type", metrics["content_type"])
            _require("# TYPE repro_requests_total counter"
                     in metrics["text"]
                     and 'repro_op_requests_total{op="evaluate"}'
                     in metrics["text"]
                     and "# TYPE repro_budget_aborts_total counter"
                     in metrics["text"],
                     "metrics exposition families", metrics["text"])

            # Request tracing over the wire: supplied ids echo back,
            # span trees cover the stack, slow log catches everything
            # under --slow-ms 0, histograms render as _bucket series.
            client.call("ping", trace="smoke-trace")
            _require(client.last_trace == "smoke-trace",
                     "client trace id echoed", client.last_trace)
            fetched = client.trace(id="smoke-trace")
            _require(fetched["count"] == 1
                     and fetched["traces"][0]["op"] == "ping",
                     "trace fetchable by id", fetched)
            listing = client.trace(limit=50)
            sweeps = [p for p in listing["traces"]
                      if p["op"] == "sweep"]
            _require(bool(sweeps), "sweep trace buffered", listing)
            # recent() is newest-first: the last entry is the cold
            # sweep that paid for the whole stack.
            stages = {s["name"] for s in sweeps[-1]["spans"]}
            _require({"dispatch", "queue", "compile",
                      "evaluate"} <= stages,
                     "sweep span tree covers the stack", stages)
            slow = client.trace(slow=True, limit=50)
            _require(slow["count"] >= 1
                     and all(p["slow"] for p in slow["traces"]),
                     "slow log populated at --slow-ms 0", slow)
            slow_file = os.path.join(trace_dir, "TRACE_slow.jsonl")
            _require(os.path.exists(slow_file)
                     and os.path.getsize(slow_file) > 0,
                     "slow traces exported as JSONL", trace_dir)
            _require("repro_op_stage_seconds_bucket{"
                     in client.metrics()["text"],
                     "latency histograms in metrics",
                     client.metrics()["text"][:2000])

        # The same contract through the CLI client.
        result = _cli_query(port, "evaluate", QUERY, "--p", "4")
        _require(result["engine"] == "exact"
                 and result["value"] == "4181/131072",
                 "CLI evaluate", result)
        stats = _cli_query(port, "stats")
        _require(stats["cache"]["compiles"] == 1,
                 "CLI evaluate reused the warm circuit",
                 stats["cache"])
        _require(stats["service"]["requests"] >= 7,
                 "request counter advanced", stats["service"])

        exposition = _cli_metrics(port)
        _require("# TYPE repro_cache_compiles_total counter"
                 in exposition
                 and "repro_cache_compiles_total 1" in exposition,
                 "repro ctl metrics exposition", exposition)

        top = _cli_ctl(port, "top")
        _require(top.splitlines()[0].split()[:3]
                 == ["op", "stage", "count"]
                 and any("total" in line
                         for line in top.splitlines()[1:]),
                 "repro ctl top breakdown", top)
        traces_out = json.loads(_cli_ctl(port, "trace",
                                         "--id", "smoke-trace"))
        _require(traces_out["count"] == 1,
                 "repro ctl trace by id", traces_out)

        _cli_query(port, "shutdown")
        server.wait(timeout=30)
        print("service smoke: OK "
              f"(1 compilation, {stats['cache']['hits']} memory hits, "
              f"{stats['service']['requests']} requests)")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


def main_authenticated() -> int:
    """The same server hardened with ``--auth-tokens``: bad tokens are
    refused before any work, good tokens are served and attributed."""
    token = "smoke-secret-token"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--auth-tokens", f"smoke={token}",
         "--quota", "rate=1000,window=60"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ))
    try:
        banner = server.stdout.readline().strip()
        _require(banner.startswith("repro service listening on"),
                 "missing listen banner (auth)", banner)
        port = int(banner.rsplit(":", 1)[1])
        print(f"smoke: auth-enabled server up on port {port}")

        from repro.service.client import ServiceClient, ServiceError

        with ServiceClient(port=port, timeout=120) as anonymous:
            try:
                anonymous.ping()
            except ServiceError as error:
                _require(error.code == "unauthorized",
                         "missing token error code", error.code)
            else:
                raise SystemExit(
                    "service smoke FAILED: tokenless request served")

        with ServiceClient(port=port, timeout=120,
                           auth="wrong-token") as impostor:
            try:
                impostor.evaluate(QUERY, p=4)
            except ServiceError as error:
                _require(error.code == "unauthorized",
                         "bad token error code", error.code)
                _require("wrong-token" not in str(error),
                         "error must not echo the token", str(error))
            else:
                raise SystemExit(
                    "service smoke FAILED: bad token served")

        with ServiceClient(port=port, timeout=120,
                           auth=token) as client:
            result = client.evaluate(QUERY, p=4)
            _require(result["value"] == "4181/131072",
                     "authenticated evaluate", result)
            stats = client.stats()
            _require(stats["service"]["auth_enabled"] is True,
                     "auth flag surfaced in stats", stats["service"])
            usage = stats["tenants"].get("smoke")
            _require(usage is not None and usage["requests"] >= 2
                     and usage["compiles"] == 1
                     and usage["nodes_spent"] > 0,
                     "per-tenant usage attributed", stats["tenants"])
            metrics = client.metrics()
            _require('repro_tenant_requests_total{tenant="smoke"}'
                     in metrics["text"],
                     "tenant labelled in metrics", metrics["text"])
            client.shutdown()
        server.wait(timeout=30)
        print("service smoke: auth OK "
              f"(tenant 'smoke': {usage['requests']} requests, "
              f"{usage['nodes_spent']} nodes)")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


def main_workers() -> int:
    """The multi-process deployment: ``repro serve --workers 2``
    boots a dispatcher plus two worker processes; the protocol,
    exact answers, aggregated stats, and the cross-process trace
    tree must all hold through the extra hop."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ))
    try:
        banner = server.stdout.readline().strip()
        _require(banner.startswith("repro service listening on"),
                 "missing listen banner (workers)", banner)
        port = int(banner.rsplit(":", 1)[1])
        print(f"smoke: 2-worker dispatcher up on port {port}")

        from repro.service.client import ServiceClient

        with ServiceClient(port=port, timeout=120) as client:
            result = client.evaluate(QUERY, p=4)
            _require(result["engine"] == "exact"
                     and result["value"] == "4181/131072",
                     "exact evaluate through the pool", result)
            _require("charge" not in result,
                     "worker charge field stripped", result)

            spent = _spend(client, "anonymous")
            client.evaluate(QUERY, p=4)
            _require(_spend(client, "anonymous") == spent,
                     "warm repeat is free (workers)", spent)

            batch = client.evaluate_batch(QUERY, ps=[2, 3, 4])
            _require(batch["count"] == 3
                     and batch["results"][2]["value"]
                     == "4181/131072",
                     "batch split across the pool", batch)

            stats = client.stats()
            _require(stats["service"]["workers"] == 2,
                     "worker count surfaced", stats["service"])
            _require(stats["cache"]["compiles"] >= 3,
                     "aggregated worker cache counters",
                     stats["cache"])
            _require(stats["service"]["planner"]["observations"]
                     >= 3,
                     "merged service-wide planner", stats["service"])
            rows = stats.get("workers") or []
            _require(len(rows) == 2
                     and all(row["alive"] for row in rows),
                     "per-worker liveness rows", rows)

            client.call("evaluate", query=QUERY, p=4,
                        trace="smoke-xproc")
            fetched = client.trace(id="smoke-xproc")
            _require(fetched["count"] == 1, "trace fetched by id",
                     fetched)
            spans = fetched["traces"][0]["spans"]
            names = {s["name"] for s in spans}
            _require({"dispatch", "proxy", "evaluate"} <= names,
                     "dispatcher-side stages present", names)
            _require(any(str(s.get("tags", {}).get("process", ""))
                         .startswith("worker-") for s in spans),
                     "one span tree covers both processes", spans)

            metrics = client.metrics()
            _require('repro_service_info{key="workers"} 2'
                     in metrics["text"],
                     "workers gauge in metrics",
                     metrics["text"][:2000])
            client.shutdown()
        server.wait(timeout=30)
        print("service smoke: workers OK "
              f"({stats['cache']['compiles']} compiles across "
              f"{len(rows)} workers)")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    if "--workers" in sys.argv[1:]:
        sys.exit(main_workers())
    sys.exit(main() or main_authenticated() or main_workers())
