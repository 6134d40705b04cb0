"""Warm resident service vs cold per-invocation CLI.

The service exists to amortize two costs every cold ``repro``
invocation pays on *each* query: interpreter + import start-up, and
the exponential compilation (absent a disk store).  This benchmark
measures both deployment shapes on the same repeated-sweep workload:

* **cold** — one ``python -m repro sweep ...`` subprocess per request,
  the pre-service deployment model;
* **warm** — one resident ``ReproServer`` answering the same requests
  over its socket, circuits compiled once and shared.

The acceptance bar is a >=5x per-request latency win for the warm
service on repeated sweeps, plus the compile-dedupe invariant: N
concurrent same-fingerprint cold sweep requests trigger exactly one
compilation and get identical values (asserted via the ``stats``
endpoint).

Request tracing rides every warm request, so this benchmark also
guards its zero-cost-when-disabled claim: the same workload against
a ``tracing=False`` server (where every ``span()`` call returns the
shared no-op span), run beside the traced one with their requests
alternating, must be at least as fast as the traced run, up to
scheduler jitter — if the disabled path ever shows real overhead,
the instrumentation has grown an allocation it must not have.

Run ``python benchmarks/bench_service.py [--quick]``; CI uses
``--quick`` and uploads the emitted ``BENCH_service.json``.
"""

import os
import statistics
import subprocess
import sys
import threading
import time

import _bench_io

from repro.service.client import ServiceClient
from repro.service.server import ReproServer
from repro.tid import wmc

QUERY = "(R|S1)(S1|T)"


def _cli_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    env.pop("REPRO_CIRCUIT_STORE", None)  # cold means no disk store
    return env


def time_cold_cli(p, grid, requests) -> list[float]:
    """Per-request latency of the pre-service deployment: a fresh
    interpreter, a cold cache, a full compilation — every time."""
    env = _cli_env()
    command = [sys.executable, "-m", "repro", "sweep", QUERY,
               "--p", str(p), "--grid", str(grid)]
    timings = []
    for _ in range(requests):
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, env=env)
        timings.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(
                f"cold CLI run failed: {proc.stderr.decode()!r}")
    return timings


def time_warm_services(servers, p, grid, requests) -> list[list[float]]:
    """Per-request latency against each resident server, after one
    warm-up request per server.  The servers take turns request by
    request, so a stall on the host lands on both sides alike."""
    clients = [ServiceClient(*server.address, timeout=300)
               for server in servers]
    try:
        for client in clients:
            client.sweep(QUERY, p=p, grid=grid)  # warm the circuit
        timings = [[] for _ in servers]
        for _ in range(requests):
            for client, series in zip(clients, timings):
                start = time.perf_counter()
                result = client.sweep(QUERY, p=p, grid=grid)
                series.append(time.perf_counter() - start)
                assert result["engine"] == "exact"
    finally:
        for client in clients:
            client.close()
    return timings


def check_compile_dedupe(server, p, grid, clients) -> tuple[bool, dict]:
    """N concurrent same-fingerprint cold sweeps -> exactly one
    compile, read back from the stats endpoint, and identical
    values."""
    wmc.clear_circuit_cache()
    results = [None] * clients
    barrier = threading.Barrier(clients)

    def worker(i):
        with ServiceClient(*server.address, timeout=300) as client:
            barrier.wait()
            results[i] = client.sweep(QUERY, p=p, grid=grid)

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    with ServiceClient(*server.address, timeout=300) as client:
        stats = client.stats()
    record = {
        "clients": clients,
        "compiles": stats["cache"]["compiles"],
        "all_equal": all(r is not None
                         and r["values"] == results[0]["values"]
                         for r in results),
    }
    # The hard invariants: one compilation (the pool dedupes in-flight
    # work, and a late arrival finds the circuit cached, regardless of
    # timing) serving identical values.
    ok = record["compiles"] == 1 and record["all_equal"]
    if not ok:
        print(f"compile dedupe broke: {record}", file=sys.stderr)
    return ok, record


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    quick = "--quick" in args
    p, grid = (6, 16) if quick else (8, 32)
    cold_requests = 3 if quick else 5
    warm_requests = 20 if quick else 50
    clients = 4 if quick else 8

    cold = time_cold_cli(p, grid, cold_requests)
    cold_ms = statistics.median(cold) * 1e3

    # The zero-cost-when-disabled claim: the identical warm workload
    # with tracing off must not be slower than the traced run (up to
    # jitter) — the no-op span path is one ContextVar read.  Both
    # servers run together and alternate requests, so they are timed
    # under the same conditions.
    wmc.clear_circuit_cache()
    wmc.set_circuit_store(None)
    with ReproServer(port=0) as server, \
            ReproServer(port=0, tracing=False) as untraced:
        warm, bare = time_warm_services((server, untraced), p, grid,
                                        warm_requests)
        warm_ms = statistics.median(warm) * 1e3
        bare_ms = statistics.median(bare) * 1e3
        dedupe_ok, dedupe = check_compile_dedupe(server, p, grid,
                                                 clients)
    overhead_pct = (warm_ms - bare_ms) / bare_ms * 100.0
    # Millisecond-scale medians on shared runners jitter; the slack
    # keeps the gate about real overhead, not scheduler noise.
    tracing_ok = bare_ms <= warm_ms * 1.05 + 0.25

    speedup = cold_ms / warm_ms
    target = 5.0
    print(f"repeated {grid}-vector sweep over B_{p}(u, v):")
    print(f"  cold CLI     {cold_ms:8.2f}ms/request "
          f"(median of {cold_requests}; interpreter + compile each "
          f"time)")
    print(f"  warm service {warm_ms:8.2f}ms/request "
          f"(median of {warm_requests}; one shared compilation)")
    print(f"  speedup      {speedup:8.1f}x (target >= {target}x)")
    print(f"  dedupe       {dedupe['clients']} concurrent cold sweeps "
          f"-> {dedupe['compiles']} compilation, "
          f"{'identical' if dedupe['all_equal'] else 'DIFFERING'} "
          f"values")
    print(f"  tracing      {warm_ms:8.3f}ms traced vs "
          f"{bare_ms:8.3f}ms untraced "
          f"({overhead_pct:+.1f}% overhead)")

    ok = speedup >= target and dedupe_ok and tracing_ok
    _bench_io.emit("service", {
        "quick": quick,
        "p": p, "grid": grid,
        "cold_requests": cold_requests,
        "warm_requests": warm_requests,
        "cold_median_ms": round(cold_ms, 2),
        "warm_median_ms": round(warm_ms, 3),
        "untraced_median_ms": round(bare_ms, 3),
        "tracing_overhead_pct": round(overhead_pct, 1),
        "speedup": round(speedup, 1),
        "speedup_target": target,
        "compile_dedupe": dedupe,
        "ok": bool(ok),
    })
    if not ok:
        print("perf regression: warm service must beat the cold CLI "
              f">={target}x, compile concurrent cold sweeps once, and "
              f"keep disabled tracing free",
              file=sys.stderr)
        return 1
    print("ok: the warm service amortizes start-up and compilation "
          "across requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
