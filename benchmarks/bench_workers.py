"""Multi-process scale-out benchmark: dispatcher + worker pool vs
the single-process server.

Exact evaluation is Fraction arithmetic on the compiled circuit —
pure Python, GIL-bound CPU.  ``bench_load.py`` showed the in-process
server's thread pool amortizes *compiles*, but once every circuit is
warm the GIL serializes the evaluations themselves: N closed-loop
clients against one process still get roughly one core of exact
throughput.  ``repro serve --workers N`` exists to break exactly that
ceiling, so this benchmark replays an exact-heavy mixed workload
(warm ``evaluate`` across many distinct formulas and probabilities,
plus ``evaluate_batch`` splits) against

* **solo** — today's in-process ``ReproServer`` (``--workers 0``), and
* **pool** — a ``ReproDispatcher`` routing the same formulas across
  worker processes by ``cnf_fingerprint``,

and reports the aggregate-throughput ratio.  Alongside the numbers it
asserts the things a faster wrong answer would hide:

* **parity** — every (query, p) pair returns the identical exact
  Fraction through both deployments;
* **one span tree across processes** — a traced request through the
  dispatcher must come back as a single merged trace whose spans
  carry ``process="worker-N"`` tags under the dispatcher's ``proxy``
  span (the cross-process hop is observable, not a blind spot).

Gating: parallel speedup needs parallel hardware.  When the runner
grants at least as many CPUs as workers, the ratio is gated at
**>= 2.5x**.  On core-starved runners (CI containers pinned to 1-2
CPUs) the GIL-bound baseline and the worker pool share the same
silicon and the honest expectation is ~1x, so the speedup gate is
waived — recorded as such in the artifact — and only the parity,
trace, and a no-pathological-slowdown floor are enforced.

Run ``python benchmarks/bench_workers.py [--quick]``; CI uses
``--quick`` and uploads the emitted ``BENCH_workers.json``.
"""

import os
import sys
import threading
import time

import _bench_io

from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatch import ReproDispatcher
from repro.service.server import ReproServer
from repro.tid import wmc

POOL_WORKERS = 4
RATIO_FLOOR = 2.5
#: Waived-gate sanity floor: even on one contended core the proxy hop
#: must not collapse throughput (catches accidental serialization in
#: the dispatcher itself, e.g. one lock across all workers).
SANITY_FLOOR = 0.30


def _chain(prefix: str, length: int) -> str:
    """A path query R -> ... -> T with per-prefix internal variables,
    so each prefix/length pair is a distinct ``cnf_fingerprint`` and
    the consistent-hash ring has real routing work to do."""
    names = ["R"] + [f"{prefix}{i}" for i in range(1, length)] + ["T"]
    return "".join(f"({a}|{b})"
                   for a, b in zip(names, names[1:]))


def build_mix(quick: bool):
    """(op, kwargs) entries, exact-heavy: warm single evaluations
    dominate, with batch splits riding along.  Every shape is warmed
    before the clock starts."""
    if quick:
        queries = [_chain(prefix, 8) for prefix in "ABCD"]
        ps = (5, 7)
    else:
        queries = [_chain(prefix, length)
                   for prefix in "ABC" for length in (8, 12)]
        ps = (5, 6, 7)
    mix = []
    for query in queries:
        for p in ps:
            mix.append(("evaluate", {"query": query, "p": p}))
            mix.append(("evaluate", {"query": query, "p": p}))
        mix.append(("evaluate_batch", {"query": query,
                                       "ps": list(ps)}))
    return mix


def warm_up(address, mix) -> dict:
    """Pay every compilation before timing; returns the exact values
    so the two deployments can be checked for parity."""
    values = {}
    with ServiceClient(*address, timeout=300) as client:
        for op, kwargs in mix:
            if op != "evaluate":
                continue
            key = (kwargs["query"], kwargs["p"])
            if key not in values:
                result = client.evaluate(**kwargs)
                values[key] = (result["engine"], result["value"])
        # Batches reuse the warmed circuits; run one to prime the
        # dispatcher's split path too.
        op, kwargs = next(entry for entry in mix
                          if entry[0] == "evaluate_batch")
        client.evaluate_batch(**kwargs)
    return values


def run_client(address, index, requests, mix, records, errors):
    """One closed-loop client: request, await, repeat."""
    import random

    rng = random.Random(0xF1EE7 + index)
    timings = []
    try:
        with ServiceClient(*address, timeout=300) as client:
            for _ in range(requests):
                op, kwargs = mix[rng.randrange(len(mix))]
                start = time.perf_counter()
                getattr(client, op)(**kwargs)
                timings.append((op, time.perf_counter() - start))
    except ServiceError as error:
        errors[index] = f"{error.code}: {error}"
    records[index] = timings


def measure(address, clients, per_client, mix):
    """Aggregate closed-loop throughput and latency over the fleet."""
    records = [None] * clients
    errors = [None] * clients
    threads = [
        threading.Thread(
            target=run_client,
            args=(address, i, per_client, mix, records, errors))
        for i in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    duration = time.perf_counter() - start
    failures = [e for e in errors if e]
    if failures:
        raise SystemExit(f"bench client failed: {failures}")
    timings = [t for worker in records for t in worker]
    return {
        "duration_s": duration,
        "requests": len(timings),
        "throughput_rps": len(timings) / duration,
        "latencies": [t for _, t in timings],
    }


def quantile_ms(timings, fraction) -> float:
    ordered = sorted(timings)
    index = min(len(ordered) - 1,
                max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index] * 1e3


def check_cross_process_trace(address, mix) -> dict:
    """One traced request through the dispatcher must merge into a
    single span tree covering both processes."""
    _, kwargs = next(entry for entry in mix if entry[0] == "evaluate")
    with ServiceClient(*address, timeout=300) as client:
        client.call("evaluate", trace="bench-workers-xproc", **kwargs)
        fetched = client.trace(id="bench-workers-xproc")
    if fetched["count"] != 1:
        return {"ok": False, "reason": "trace not fetchable by id"}
    spans = fetched["traces"][0]["spans"]
    names = {s["name"] for s in spans}
    worker_spans = [
        s for s in spans
        if str(s.get("tags", {}).get("process", ""))
        .startswith("worker-")]
    ids = {s["id"] for s in spans}
    grafted = all(s["parent"] in ids for s in worker_spans)
    ok = ({"dispatch", "proxy", "evaluate"} <= names
          and bool(worker_spans) and grafted)
    return {
        "ok": ok,
        "spans": len(spans),
        "worker_spans": len(worker_spans),
        "stages": sorted(names),
    }


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    quick = "--quick" in args
    clients = 4 if quick else 8
    per_client = 15 if quick else 50

    # A disk store would let both deployments trade CPU for I/O and
    # muddy the comparison; both run memory-only.
    os.environ.pop("REPRO_CIRCUIT_STORE", None)
    wmc.set_circuit_store(None)
    wmc.clear_circuit_cache()

    mix = build_mix(quick)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    gated = cpus >= POOL_WORKERS
    gate_reason = (
        f"{cpus} cpus >= {POOL_WORKERS} workers: ratio gated at "
        f">= {RATIO_FLOOR}x" if gated else
        f"only {cpus} cpu(s) for {POOL_WORKERS} workers: speedup "
        f"gate waived (GIL-bound baseline and pool share the same "
        f"cores), sanity floor {SANITY_FLOOR}x applies")

    print(f"workers bench: {len(mix)} mix entries, {clients} clients "
          f"x {per_client} requests, {cpus} cpu(s)")

    with ReproServer(port=0) as solo_server:
        solo_values = warm_up(solo_server.address, mix)
        solo = measure(solo_server.address, clients, per_client, mix)

    with ReproDispatcher(port=0, workers=POOL_WORKERS) as pool_server:
        pool_values = warm_up(pool_server.address, mix)
        pool = measure(pool_server.address, clients, per_client, mix)
        trace_check = check_cross_process_trace(
            pool_server.address, mix)
        with ServiceClient(*pool_server.address,
                           timeout=300) as client:
            stats = client.stats()

    parity_ok = solo_values == pool_values and all(
        engine == "exact" for engine, _ in solo_values.values())
    ratio = pool["throughput_rps"] / solo["throughput_rps"]
    resident = [row["resident_fingerprints"]
                for row in stats.get("workers", [])]

    print(f"  solo  {solo['requests']:5d} requests in "
          f"{solo['duration_s']:6.2f}s  "
          f"{solo['throughput_rps']:7.1f} req/s   "
          f"p50 {quantile_ms(solo['latencies'], 0.5):7.2f}ms   "
          f"p99 {quantile_ms(solo['latencies'], 0.99):7.2f}ms")
    print(f"  pool  {pool['requests']:5d} requests in "
          f"{pool['duration_s']:6.2f}s  "
          f"{pool['throughput_rps']:7.1f} req/s   "
          f"p50 {quantile_ms(pool['latencies'], 0.5):7.2f}ms   "
          f"p99 {quantile_ms(pool['latencies'], 0.99):7.2f}ms")
    print(f"  ratio {ratio:5.2f}x aggregate throughput "
          f"({POOL_WORKERS} workers)")
    print(f"  gate  {gate_reason}")
    print(f"  parity {'ok' if parity_ok else 'FAILED'} over "
          f"{len(solo_values)} (query, p) pairs, all exact")
    print(f"  trace {'ok' if trace_check['ok'] else 'FAILED'}: "
          f"{trace_check.get('worker_spans', 0)} worker-process "
          f"spans merged into one tree of "
          f"{trace_check.get('spans', 0)}")
    print(f"  routing resident fingerprints per worker: {resident}")

    floor = RATIO_FLOOR if gated else SANITY_FLOOR
    ok = (parity_ok and trace_check["ok"] and ratio >= floor)
    _bench_io.emit("workers", {
        "quick": quick,
        "cpus": cpus,
        "pool_workers": POOL_WORKERS,
        "clients": clients,
        "requests_per_client": per_client,
        "mix_entries": len(mix),
        "distinct_pairs": len(solo_values),
        "solo_rps": round(solo["throughput_rps"], 1),
        "pool_rps": round(pool["throughput_rps"], 1),
        "ratio": round(ratio, 3),
        "ratio_floor": floor,
        "speedup_gated": gated,
        "gate_reason": gate_reason,
        "solo_p50_ms": round(quantile_ms(solo["latencies"], 0.5), 3),
        "solo_p99_ms": round(quantile_ms(solo["latencies"], 0.99), 3),
        "pool_p50_ms": round(quantile_ms(pool["latencies"], 0.5), 3),
        "pool_p99_ms": round(quantile_ms(pool["latencies"], 0.99), 3),
        "parity_ok": bool(parity_ok),
        "cross_process_trace": trace_check,
        "resident_per_worker": resident,
        "ok": bool(ok),
    })
    if not ok:
        print("workers gate failed: ratio under floor, parity "
              "mismatch, or no merged cross-process trace",
              file=sys.stderr)
        return 1
    print("ok: worker pool parity, merged cross-process tracing, "
          "and throughput hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
