"""The ``serve`` workload: a warm ``repro serve`` under one closed-loop
client.

The server runs as deployed by default (``--workers 0``) in its own
process, a child of the pinned benchmark process, with tracing off for
the timed runs.  One client on one connection sends a seeded mix over
the line-JSON socket and waits for each reply before the next request:
``evaluate`` on unsafe path queries of length 1-3 at p in {4, 8, 12}
and on a safe query (answered by the lifted evaluator),
``evaluate_batch``, exact (grid 8) and float (grid 64) ``sweep``, and a
seeded ``estimate``.  Every request shape is sent once during set-up,
so all compiles and tape flattens land in ``setup_s``; the timed phase
is protocol, tenant checks, the resolver, the warm-evaluate regrounding
and the kernels.
"""

from __future__ import annotations

import itertools
import subprocess
import sys

from dataclasses import dataclass, field, replace
from fractions import Fraction

from common import (
    end_to_end,
    child_env,
    deck_sequence,
    metric,
    ms,
    reference_factor,
    run_timed,
    summarize,
    timed_setups,
)
from oracles import EndpointOracle, exact_probability, floats_match
from refspeed import REFERENCE
from repro.service.client import ServiceClient

PATH_LENGTHS = (1, 2, 3)
EVALUATE_PS = (4, 8, 12)
SAFE_QUERY = "(R|S1|S2)(S2|S3)"
SWEEP_P = 8
EXACT_GRID = 8
FLOAT_GRID = 64
ESTIMATE_P = 4
#: Hoeffding's bound puts the exact value outside the interval with
#: probability at most 1e-9, so the interval check never fails by chance.
ESTIMATE_KNOBS = {"epsilon": "1/4", "delta": "1/1000000000"}

#: Seconds a request may take before it counts as timed out (failed).
OP_TIMEOUT = 60.0

#: Traced runs keep this many span trees on the server, far more than
#: the client lets pile up between two ``trace`` fetches.
TRACE_BUFFER = 4096
TRACE_FETCH_EVERY = 128

#: Server span name -> the layer its self time is charged to.  The root
#: span's self time is ``service.front``; any other name (a span added
#: or renamed later) is charged to ``trace.unattributed``.
SPAN_LAYERS = {"dispatch": "service.resolve", "queue": "service.queue",
               "evaluate": "evaluation.evaluate", "kernel": "tape.kernel"}


def path_text(k: int) -> str:
    """The path query of length k in the service's clause syntax."""
    links = "".join(f"(S{i}|S{i + 1})" for i in range(1, k))
    return f"(R|S1){links}(S{k}|T)"


@dataclass(frozen=True)
class Request:
    op: str
    params: dict = field(hash=False)

    def __str__(self):
        return f"{self.op} {self.params}"


def deck() -> list[Request]:
    """One of each request of the mix (22 requests)."""
    out = [Request("evaluate", {"query": path_text(k), "p": p})
           for k in PATH_LENGTHS for p in EVALUATE_PS]
    out += [Request("evaluate", {"query": SAFE_QUERY, "p": p})
            for p in EVALUATE_PS]
    out += [Request("evaluate_batch", {"query": path_text(k),
                                       "ps": list(EVALUATE_PS)})
            for k in (1, 2)]
    out += [Request("sweep", {"query": path_text(k), "p": SWEEP_P,
                              "grid": EXACT_GRID})
            for k in PATH_LENGTHS]
    out += [Request("sweep", {"query": path_text(k), "p": SWEEP_P,
                              "grid": FLOAT_GRID, "numeric": "float"})
            for k in PATH_LENGTHS]
    out += [Request("estimate", {"query": path_text(k), "p": ESTIMATE_P,
                                 "seed": 0, **ESTIMATE_KNOBS})
            for k in (1, 2)]
    return out


def request_sequence(seed: int):
    """The run's op sequence: shuffled copies of the deck, each
    ``estimate`` with its own sampling seed drawn from ``seed``."""
    for i, request in enumerate(deck_sequence(deck(), seed)):
        if request.op == "estimate":
            request = replace(request, params={**request.params,
                                               "seed": seed * 100_003 + i})
        yield request


class Server:
    """One ``repro serve`` child process and a client connection to it."""

    def __init__(self, tracing: bool):
        flags = (["--trace-buffer", str(TRACE_BUFFER)] if tracing
                 else ["--no-tracing"])
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
            env=child_env(), stdout=subprocess.PIPE, text=True)
        self.client = None
        try:
            banner = self.process.stdout.readline().split()
            if banner[:3] != ["repro", "service", "listening"]:
                raise RuntimeError(f"repro serve did not start: {banner}")
            host, port = banner[-1].rsplit(":", 1)
            self.client = ServiceClient(host, int(port), timeout=OP_TIMEOUT,
                                        connect_retries=5, reconnect=True)
        except BaseException:
            self.close()
            raise

    def call(self, request: Request, trace: str | None = None) -> dict:
        return self.client.call(request.op, timeout=OP_TIMEOUT, trace=trace,
                                **request.params)

    def warm(self) -> None:
        """Send every request shape once: grounds, compiles and
        flattens the whole working set."""
        for request in deck():
            self.call(request)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def compiles(self) -> int:
        return self.client.stats()["cache"]["compiles"]

    def close(self) -> None:
        """Ask the server to stop; kill it if it does not."""
        try:
            if self.client is not None:
                self.client.shutdown()
                self.client.close()
                self.process.wait(timeout=10)
        except Exception:  # a server that will not stop is killed below
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdout.close()


def server_launch(tracing: bool):
    """A ``launch`` for ``timed_setups``: start a server and warm it."""
    def launch():
        server = Server(tracing)
        try:
            server.warm()
        except BaseException:
            server.close()
            raise
        return server, server.close

    return launch


class Expected:
    """Oracle values for every request shape of the deck."""

    def __init__(self):
        from repro.core.catalog import path_query
        from repro.core.clauses import Clause
        from repro.core.queries import Query
        from repro.reduction.blocks import path_block
        from repro.tid.lineage import lineage

        queries = {path_text(k): path_query(k) for k in PATH_LENGTHS}
        queries[SAFE_QUERY] = Query([Clause.left_type1("S1", "S2"),
                                     Clause.middle("S2", "S3")])
        self.exact, self.grids = {}, {}
        for request in deck():
            text = request.params["query"]
            query = queries[text]
            ps = request.params.get("ps", [request.params.get("p")])
            for p in ps:
                tid = path_block(query, p)
                formula = lineage(query, tid)
                if (text, p) not in self.exact:
                    self.exact[text, p] = exact_probability(formula, tid)
                if request.op == "sweep" and (text, p) not in self.grids:
                    oracle = EndpointOracle(formula, tid)
                    self.grids[text, p] = {
                        EXACT_GRID: oracle.grid(EXACT_GRID),
                        FLOAT_GRID: oracle.grid(FLOAT_GRID)}

    def check(self, request: Request, result: dict) -> bool:
        text, params = request.params["query"], request.params
        if request.op == "evaluate":
            return Fraction(result["value"]) == self.exact[text, params["p"]]
        if request.op == "evaluate_batch":
            values = [Fraction(r["value"]) for r in result["results"]]
            return values == [self.exact[text, p] for p in params["ps"]]
        if request.op == "sweep":
            want = self.grids[text, params["p"]][params["grid"]]
            if params.get("numeric") == "float":
                return floats_match(result["values"], want)
            return [Fraction(v) for v in result["values"]] == want
        if request.op == "estimate":
            interval = result["estimate"]
            return (Fraction(interval["low"]) <= self.exact[text, params["p"]]
                    <= Fraction(interval["high"]))
        return False


def timed(seed: int, seconds: float):
    setup, server, _ = timed_setups(server_launch(tracing=False))
    try:
        expected = Expected()
        run = run_timed(request_sequence(seed), server.call,
                        expected.check, seconds)
        peak = server.peak_rss_mb()
    finally:
        server.close()
    summary = summarize(run.samples)
    metrics = end_to_end(setup, summary, peak)
    return run, metrics, {**summary, **setup}


def covered_ms(start: float, end: float, intervals) -> float:
    """How much of [start, end] the intervals cover (overlaps once)."""
    total, cursor = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def attribute(trace: dict) -> dict:
    """Split one request's server time into layers by span self time
    (a span's duration minus the part its children cover), so the parts
    add up to the root span and none is negative."""
    spans = trace["spans"]
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_ms"], s["start_ms"] + s["duration_ms"]))
    parts: dict = {}
    for s in spans:
        start, end = s["start_ms"], s["start_ms"] + s["duration_ms"]
        own = s["duration_ms"] - covered_ms(start, end,
                                            children.get(s["id"], ()))
        layer = ("service.front" if s["parent"] is None
                 else SPAN_LAYERS.get(s["name"], "trace.unattributed"))
        parts[layer] = parts.get(layer, 0.0) + max(own, 0.0)
    return parts


def root_ms(trace: dict) -> float:
    return next(s["duration_ms"] for s in trace["spans"]
                if s["parent"] is None)


def fetch_traces(server: Server, wanted: set) -> dict:
    """The buffered span trees whose ids are in ``wanted``."""
    found = {}
    for trace in server.client.trace(limit=256)["traces"]:
        if trace["trace"] in wanted:
            found[trace["trace"]] = trace
    return found


def set_up_layers(traces, factor: float) -> dict:
    """Grounding, compile and flatten time (and compiled nodes) over the
    set-up requests' traces, normalized by the set-up's factor."""
    totals = {"lineage.ground": 0.0, "circuit.compile": 0.0,
              "tape.flatten": 0.0, "circuit.nodes": 0}
    for trace in traces:
        for s in trace["spans"]:
            if s["name"] == "dispatch" and not s["tags"].get("cached"):
                totals["lineage.ground"] += s["duration_ms"] * factor
            elif s["name"] == "compile":
                totals["circuit.compile"] += s["duration_ms"] * factor
                totals["circuit.nodes"] += int(s["tags"].get("nodes", 0))
            elif s["name"] == "flatten":
                totals["tape.flatten"] += s["duration_ms"] * factor
    return totals


def traced(seed: int, seconds: float):
    """Interleave blocks of the op sequence between an untraced server
    and a traced one; per-layer times come from the traced server's span
    trees, the tracing overhead from the two servers' throughput."""
    plain_launch, traced_launch = (server_launch(False),
                                   server_launch(True))
    plain, _ = plain_launch()
    servers = [plain]
    try:
        before = REFERENCE.seconds()
        tracer, _ = traced_launch()
        servers.append(tracer)
        factor = reference_factor(before, REFERENCE.seconds())
        set_up = set_up_layers(tracer.client.trace(limit=256)["traces"],
                               factor)
        expected = Expected()
        compiles = plain.compiles() + tracer.compiles()
        return _traced_ops(seed, seconds, plain, tracer, expected, set_up,
                           compiles)
    finally:
        for server in servers:
            server.close()


def _traced_ops(seed, seconds, plain, tracer, expected, set_up, compiles):
    block = len(deck())

    def items():
        requests = request_sequence(seed)
        for number in itertools.count():
            chunk = [next(requests) for _ in range(block)]
            order = (plain, tracer) if number % 2 == 0 else (tracer, plain)
            for server in order:
                for request in chunk:
                    yield server, request

    pending: dict = {}
    samples = {"plain": [], "traced": []}
    per_op: dict = {}
    dispatch = {"spans": 0, "cached": 0}
    counter = [0]
    accounted = [0]

    def op(item):
        server, request = item
        if server is plain:
            return server.call(request)
        counter[0] += 1
        return server.call(request, trace=f"b{counter[0]}")

    def account(trace, sample):
        accounted[0] += 1
        factor = sample.norm_s / sample.raw_s
        parts = attribute(trace)
        parts["service.transport"] = max(
            ms(sample.raw_s) - root_ms(trace), 0.0)
        for layer, value in parts.items():
            per_op[layer] = per_op.get(layer, 0.0) + value * factor
        for s in trace["spans"]:
            if s["name"] == "dispatch":
                dispatch["spans"] += 1
                dispatch["cached"] += bool(s["tags"].get("cached"))

    def drain():
        found = fetch_traces(tracer, set(pending))
        for trace_id, sample in pending.items():
            if trace_id in found:
                account(found[trace_id], sample)
        pending.clear()

    def on_op(item, sample, result):
        server, _ = item
        if sample is None:
            return
        if server is plain:
            samples["plain"].append(sample)
            return
        samples["traced"].append(sample)
        pending[f"b{counter[0]}"] = sample
        if len(pending) >= TRACE_FETCH_EVERY:
            drain()

    run = run_timed(items(), op, lambda item, result:
                    expected.check(item[1], result), seconds, on_op)
    drain()
    compiles = plain.compiles() + tracer.compiles() - compiles
    traced_ops = max(accounted[0], 1)

    def per_op_ms(layer):
        return metric(per_op.get(layer, 0.0) / traced_ops, "ms")

    throughput = {name: summarize(group)["throughput_ops"]
                  for name, group in samples.items() if group}
    overhead = (100.0 * (throughput["plain"] / throughput["traced"] - 1)
                if len(throughput) == 2 else 0.0)
    metrics = {
        "service.transport_ms": per_op_ms("service.transport"),
        "service.front_ms": per_op_ms("service.front"),
        "service.resolve_ms": per_op_ms("service.resolve"),
        "service.resolve_hit_ratio": metric(
            dispatch["cached"] / dispatch["spans"] if dispatch["spans"]
            else 0.0, "ratio"),
        "service.queue_ms": per_op_ms("service.queue"),
        "evaluation.evaluate_ms": per_op_ms("evaluation.evaluate"),
        "tape.kernel_ms": per_op_ms("tape.kernel"),
        "trace.unattributed_ms": per_op_ms("trace.unattributed"),
        "wmc.compiles": metric(compiles, "count"),
        "obs.overhead_pct": metric(overhead, "%"),
        "lineage.ground_ms": metric(set_up["lineage.ground"], "ms"),
        "circuit.compile_ms": metric(set_up["circuit.compile"], "ms"),
        "circuit.nodes": metric(set_up["circuit.nodes"], "count"),
        "tape.flatten_ms": metric(set_up["tape.flatten"], "ms"),
    }
    detail = {"plain": summarize(samples["plain"]),
              "traced": summarize(samples["traced"]),
              "traced_ops_attributed": accounted[0]}
    return run, metrics, detail
