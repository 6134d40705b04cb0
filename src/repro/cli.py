"""Command-line interface: classify, evaluate, and reduce.

Usage (after installation):

    python -m repro classify "(R|S1)(S1|S2)(S2|T)"
    python -m repro census
    python -m repro reduce --edges "0-1,1-2" --vars 3
    python -m repro h0 --left 2 --right 2 --edges "0-0,1-1"
    python -m repro compile "(R|S1)(S1|S2)(S2|T)" --p 4
    python -m repro estimate "(R|S1)(S1|T)" --p 6 --epsilon 0.05

Queries are written in the miniature clause syntax of
``repro.core.queries.parse_query``, e.g. "(R|S1)(S1|T)".
"""

from __future__ import annotations

import argparse
import os
import sys

from fractions import Fraction
from pathlib import Path

from repro.core import queries
from repro.core.catalog import CENSUS
from repro.core.final import find_final, is_final
from repro.core.queries import Query
from repro.core.safety import is_safe, query_length, query_type
from repro.counting.p2cnf import P2CNF
from repro.counting.pp2cnf import PP2CNF


def _or_exit(build, *args):
    """``build(*args)``, with a ``ValueError`` (bad user input) turned
    into a one-line ``repro: ...`` exit instead of a traceback."""
    try:
        return build(*args)
    except ValueError as error:
        raise SystemExit(f"repro: {error}") from None


def parse_query(text: str) -> Query:
    """``repro.core.queries.parse_query`` as the CLI's front door."""
    return _or_exit(queries.parse_query, text)


def parse_edges(text: str) -> list[tuple[int, int]]:
    """Parse an edge list like ``"0-1,1-2"``; friendly errors on
    malformed parts (``"0-"``, ``"3"``, ``"a-b"``)."""
    edges = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split("-")
        if len(pieces) != 2 or not pieces[0].strip() or \
                not pieces[1].strip():
            raise SystemExit(
                f"repro: bad edge {part!r} — each comma-separated part "
                f"must be two integers joined by '-', e.g. \"0-1,1-2\"")
        try:
            edges.append((int(pieces[0]), int(pieces[1])))
        except ValueError:
            raise SystemExit(
                f"repro: bad edge {part!r} — endpoints must be "
                f"integers, e.g. \"0-1,1-2\"") from None
    return edges


def cmd_classify(args) -> int:
    query = parse_query(args.query)
    print("query:  ", query)
    print("safe:   ", is_safe(query))
    qtype = query_type(query)
    print("type:   ", "-".join(qtype) if qtype else "H0-like/none")
    print("length: ", query_length(query))
    if not is_safe(query) and not query.full_clauses:
        print("final:  ", is_final(query))
        if not is_final(query):
            final, trace = find_final(query)
            print("final form after", len(trace), "rewrites:", final)
    return 0


def cmd_census(_args) -> int:
    print(f"{'query':24s} {'verdict':8s} {'type':8s} {'length':>6s}")
    for name, ctor, _ in CENSUS:
        q = ctor()
        qtype = query_type(q)
        print(f"{name:24s} "
              f"{'safe' if is_safe(q) else 'unsafe':8s} "
              f"{'-'.join(qtype) if qtype else 'H0':8s} "
              f"{str(query_length(q)):>6s}")
    return 0


def cmd_reduce(args) -> int:
    from repro.core.catalog import path_query
    from repro.reduction.type1 import Type1Reduction

    phi = _or_exit(P2CNF, args.vars, tuple(parse_edges(args.edges)))
    query = _or_exit(path_query, args.length)
    reduction = _or_exit(Type1Reduction, query)
    result = reduction.run(phi)
    print(f"query: {query}")
    print(f"phi: n={phi.n}, m={phi.m}, edges={phi.edges}")
    print(f"oracle calls: {result.oracle_calls}")
    for signature, count in sorted(result.signature_counts.items()):
        print(f"   #{signature} = {count}")
    print(f"#Phi = {result.model_count}")
    if args.check:
        brute = phi.count_satisfying_brute()
        print(f"brute force: {brute} "
              f"({'match' if brute == result.model_count else 'MISMATCH'})")
    return 0


def cmd_h0(args) -> int:
    from repro.reduction.h0 import count_pp2cnf_via_h0

    phi = _or_exit(PP2CNF, args.left, args.right,
                   tuple(parse_edges(args.edges)))
    count = count_pp2cnf_via_h0(phi)
    print(f"#PP2CNF = {count}")
    if args.check:
        print(f"brute force: {phi.count_satisfying_brute()}")
    return 0


def _block_workload(args):
    """The (tid, formula) pair of a query's path-block lineage, with
    the optional tier-2 store installed first."""
    from repro.reduction.blocks import path_block
    from repro.tid import wmc
    from repro.tid.lineage import lineage

    if getattr(args, "store", None):
        wmc.set_circuit_store(args.store)
    query = parse_query(args.query)
    tid = path_block(query, args.p)
    return query, tid, lineage(query, tid)


def _load_circuit(path: str, formula):
    """Deserialize a saved circuit and adopt it as ``formula``'s
    compilation (exiting with a friendly message on mismatch)."""
    from repro.booleans.circuit import Circuit
    from repro.tid import wmc

    try:
        circuit = Circuit.from_bytes(Path(path).read_bytes())
    except OSError as error:
        raise SystemExit(f"repro: cannot read {path}: {error}") from None
    except ValueError as error:
        raise SystemExit(f"repro: {path}: {error}") from None
    # A compiled circuit mentions exactly its formula's variables, so
    # anything short of set equality means a different lineage — a
    # subset match (e.g. a two-symbol query's lineage inside a
    # three-symbol one) would silently compute the wrong query.
    if circuit.variables() != formula.variables():
        extra = circuit.variables() - formula.variables()
        missing = formula.variables() - circuit.variables()
        detail = []
        if extra:
            detail.append(f"{len(extra)} unknown tuple variables "
                          f"(e.g. {sorted(extra, key=repr)[0]!r})")
        if missing:
            detail.append(f"{len(missing)} expected tuple variables "
                          f"absent (e.g. "
                          f"{sorted(missing, key=repr)[0]!r})")
        raise SystemExit(
            f"repro: {path} was compiled from a different lineage: "
            + "; ".join(detail))
    wmc.adopt(formula, circuit)
    return circuit


def _resolve_engine(args) -> str:
    """The sampler the estimator flags name (a relative target implies
    the sequential one, as ``resolve_estimator`` rules)."""
    from repro.booleans.adaptive import resolve_estimator

    try:
        return resolve_estimator(args.engine, args.relative_error)
    except ValueError:
        raise SystemExit(
            f"repro: --relative-error must be positive, "
            f"got {args.relative_error}") from None


def _print_estimate(query, args, formula, tid, reason: str):
    """Run and report the Monte-Carlo estimator (the degraded path of
    ``repro compile --budget`` and the whole of ``repro estimate``)."""
    from repro.booleans.adaptive import ENGINE_LABELS, estimate_with
    from repro.booleans.approximate import hoeffding_sample_count

    engine = _resolve_engine(args)
    estimate = estimate_with(
        engine, formula, tid.probability,
        epsilon=args.epsilon, delta=args.delta, rng=args.seed,
        relative_error=args.relative_error)
    print(f"query:      {query}")
    print(f"block:      B_{args.p}(u, v)")
    print(f"lineage:    {len(formula)} clauses over "
          f"{len(formula.variables())} tuple variables")
    print(f"engine:     {ENGINE_LABELS[engine]} ({reason})")
    print(f"Pr(Q) ~=    {estimate.estimate} "
          f"({float(estimate.estimate):.6f})")
    print(f"interval:   [{estimate.low}, {estimate.high}] "
          f"(+/- {float(estimate.epsilon):.6g}, "
          f"confidence {1 - Fraction(estimate.delta)})")
    if estimate.relative_error is not None:
        print(f"relative:   +/- {float(estimate.relative_error):.6g} "
              f"of the interval's lower end")
    samples_line = (f"samples:    {estimate.samples} "
                    f"({estimate.successes} satisfying)")
    if engine != "hoeffding":
        worst = hoeffding_sample_count(args.epsilon, args.delta)
        if estimate.samples < worst:
            samples_line += (f" — early stop saved "
                             f"{worst - estimate.samples} of the "
                             f"{worst} worst-case draws")
    print(samples_line)
    return estimate


def cmd_estimate(args) -> int:
    from repro.tid.wmc import compiled

    query, tid, formula = _block_workload(args)
    estimate = _print_estimate(query, args, formula, tid,
                               f"seed {args.seed}")
    if args.check:
        exact = compiled(formula).probability(tid.probability)
        inside = estimate.contains(exact)
        print(f"exact:      {exact} ({float(exact):.6f}) — "
              f"{'inside' if inside else 'OUTSIDE'} the interval")
        if not inside:
            return 1
    return 0


def cmd_compile(args) -> int:
    from repro.booleans.circuit import CompilationBudgetExceeded
    from repro.tid.wmc import cache_info, compiled

    _resolve_engine(args)  # refuse bad estimator flags up front
    query, tid, formula = _block_workload(args)
    if args.load:
        circuit = _load_circuit(args.load, formula)
        source = f"loaded from {args.load}"
    else:
        before = cache_info()
        try:
            circuit = compiled(formula, args.budget)
        except CompilationBudgetExceeded:
            _print_estimate(
                query, args, formula, tid,
                f"compilation exceeded {args.budget} nodes")
            if args.save:
                # The caller asked for an artifact that was never
                # produced — fail loudly so scripts can tell.
                print(f"repro: --save {args.save} skipped: no circuit "
                      f"was compiled (budget exceeded); raise --budget "
                      f"or drop --save", file=sys.stderr)
                return 1
            return 0
        after = cache_info()
        if after["compiles"] > before["compiles"]:
            source = "compiled"
        elif after["store_hits"] > before["store_hits"]:
            source = "disk store"
        else:
            source = "memory cache"
    stats = circuit.stats()
    print(f"query:          {query}")
    print(f"block:          B_{args.p}(u, v)")
    print(f"lineage:        {len(formula)} clauses over "
          f"{len(formula.variables())} tuple variables")
    print(f"circuit:        {source}")
    print(f"circuit size:   {stats['size']} nodes, "
          f"{stats['edges']} edges, depth {stats['depth']}")
    print(f"node breakdown: {stats['decision_nodes']} decision, "
          f"{stats['product_nodes']} product, "
          f"{stats['leaf_nodes']} leaf")
    value = circuit.probability(tid.probability)
    print(f"Pr(Q) at block weights: {value}")
    print(f"lineage model count:    "
          f"{circuit.model_count(formula.variables())}")
    if args.save:
        from repro.booleans.store import atomic_write_bytes
        atomic_write_bytes(args.save, circuit.to_bytes())
        print(f"saved:          {args.save}")
    return 0


def cmd_sweep(args) -> int:
    from repro.evaluation import endpoint_weight_grid
    from repro.tid.database import r_tuple, t_tuple
    from repro.tid.wmc import cache_info, probability_batch_auto

    query, tid, formula = _block_workload(args)
    if args.load:
        _load_circuit(args.load, formula)
    k = args.grid
    if k < 1:
        raise SystemExit("repro: --grid must be at least 1")
    r_u, t_v = r_tuple("u"), t_tuple("v")
    if not {r_u, t_v} & formula.variables():
        raise SystemExit(
            f"repro: the lineage of {args.query!r} contains neither "
            f"endpoint tuple R(u) nor T(v) — an endpoint sweep would "
            f"evaluate the same weights at every grid point (queries "
            f"without R/T atoms have nothing to sweep here)")
    weight_maps = endpoint_weight_grid(formula, tid, k)
    sweep = probability_batch_auto(
        formula, weight_maps, budget_nodes=args.budget,
        epsilon=args.epsilon, delta=args.delta, rng=args.seed,
        numeric="float" if args.float else "exact",
        estimator=_resolve_engine(args),
        relative_error=args.relative_error, cross_check=2)
    engine, estimates = sweep.engine, sweep.estimates
    # --float only applies to the exact engine: estimates print as the
    # rationals they are, and the block line claims no float pass.
    values = sweep.values if estimates is None else \
        [estimate.estimate for estimate in estimates]
    print(f"query:   {query}")
    print(f"block:   B_{args.p}(u, v), {k}-vector endpoint sweep"
          f"{' (float fast path)' if args.float and engine == 'exact' else ''}")
    if estimates:
        samples = [estimate.samples for estimate in estimates]
        per_vector = (f"{samples[0]} samples per vector"
                      if len(set(samples)) == 1 else
                      f"{min(samples)}-{max(samples)} samples per "
                      f"vector (variance-adaptive early stopping)")
        print(f"engine:  {engine} (compilation exceeded "
              f"{args.budget} nodes; "
              f"+/- {float(max(e.epsilon for e in estimates)):.6g} "
              f"at confidence {1 - Fraction(estimates[0].delta)}, "
              f"{per_vector})")
    else:
        print(f"engine:  {engine}")
    print(f"{'w(R(u))':>10s} {'w(T(v))':>10s}  Pr(Q)")
    for weights, value in zip(weight_maps, values):
        pinned = weights.pinned
        print(f"{str(pinned[r_u]):>10s} {str(pinned[t_v]):>10s}  "
              f"{value}")
    info = cache_info()
    print(f"compilations: {info['compiles']} "
          f"(memory hits: {info['hits']}, "
          f"disk hits: {info['store_hits']}, "
          f"disk misses: {info['store_misses']}, "
          f"budget aborts: {info['budget_aborts']})")
    return 0


def _parse_auth_tokens(text: str) -> dict:
    """``"alice=TOKEN1,bob=TOKEN2"`` -> ``{token: tenant}`` for the
    service's tenant registry."""
    tokens: dict = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        tenant, sep, token = piece.partition("=")
        tenant, token = tenant.strip(), token.strip()
        if not sep or not tenant or not token:
            raise SystemExit(
                f"repro: bad --auth-tokens piece {piece!r} — write "
                f"TENANT=TOKEN[,TENANT=TOKEN...]")
        if token in tokens:
            raise SystemExit(
                f"repro: --auth-tokens token for {tenant!r} collides "
                f"with tenant {tokens[token]!r} (tokens must be "
                f"unique)")
        tokens[token] = tenant
    if not tokens:
        raise SystemExit("repro: --auth-tokens named no tenants")
    return tokens


def _parse_quota(spec: str, flag: str):
    from repro.service.tenants import TenantQuota

    try:
        return TenantQuota.parse(spec)
    except ValueError as error:
        raise SystemExit(f"repro: bad {flag} {spec!r}: {error}") \
            from None


def cmd_serve(args) -> int:
    from repro.service.server import ReproServer, serve_until_closed
    from repro.tid.wmc import DEFAULT_BUDGET_NODES

    if args.workers < 0:
        raise SystemExit("repro: --workers must be non-negative")
    if args.compile_threads < 1:
        raise SystemExit("repro: --compile-threads must be at least 1")
    if args.window < 0:
        raise SystemExit("repro: --window must be non-negative")
    if args.budget is not None and args.budget < 2:
        raise SystemExit("repro: --budget must be at least 2")
    if args.store_max_bytes is not None and args.store_max_bytes < 0:
        raise SystemExit("repro: --store-max-bytes must be "
                         "non-negative")
    if args.store_max_bytes is not None and not (
            args.store or os.environ.get("REPRO_CIRCUIT_STORE")):
        raise SystemExit("repro: --store-max-bytes needs a store "
                         "(--store DIR or $REPRO_CIRCUIT_STORE)")
    auth_tokens = (_parse_auth_tokens(args.auth_tokens)
                   if args.auth_tokens else None)
    quota = (_parse_quota(args.quota, "--quota")
             if args.quota else None)
    tenant_quotas = {}
    for spec in args.tenant_quota or ():
        tenant, sep, body = spec.partition(":")
        if not sep or not tenant.strip():
            raise SystemExit(
                f"repro: bad --tenant-quota {spec!r} — write "
                f"TENANT:rate=...,window=...,nodes=...")
        tenant_quotas[tenant.strip()] = _parse_quota(
            body, "--tenant-quota")
    if args.slow_ms is not None and args.slow_ms < 0:
        raise SystemExit("repro: --slow-ms must be non-negative")
    if args.trace_buffer < 1:
        raise SystemExit("repro: --trace-buffer must be at least 1")
    budget = args.budget if args.budget is not None \
        else DEFAULT_BUDGET_NODES
    common = dict(
        store=args.store, window=args.window, budget_nodes=budget,
        auth_tokens=auth_tokens, quota=quota,
        tenant_quotas=tenant_quotas or None,
        store_max_bytes=args.store_max_bytes,
        tracing=not args.no_tracing, slow_ms=args.slow_ms,
        trace_buffer=args.trace_buffer, trace_dir=args.trace_dir)
    if args.workers:
        # Multi-process mode: a dispatcher front end plus
        # --workers worker processes sharing the circuit store.
        from repro.service.dispatch import ReproDispatcher
        server = ReproDispatcher(
            args.host, args.port, workers=args.workers,
            compile_threads=args.compile_threads, **common)
    else:
        # --workers 0: today's single-process server, exactly.
        server = ReproServer(
            args.host, args.port, workers=args.compile_threads,
            **common)
    # Scripts (CI smoke, benchmarks) parse this line to find an
    # ephemeral --port 0 binding; keep its shape stable.
    return serve_until_closed(server, "repro service listening on")


def cmd_query(args) -> int:
    import json

    from repro.service.protocol import OPS

    if args.op == "store_gc":
        # The op needs --max-bytes, which lives on the dedicated verb.
        raise SystemExit(
            "repro: use `repro ctl store-gc --max-bytes N` "
            "(store_gc is not addressable through `repro query`)")
    needs_query = args.op not in ("stats", "metrics", "trace", "ping",
                                  "shutdown")
    if needs_query and not args.query:
        raise SystemExit(
            f"repro: op {args.op!r} needs a query argument, e.g. "
            f"repro query {args.op} \"(R|S1)(S1|T)\"")
    params: dict = {}
    if needs_query:
        params["query"] = args.query
    if args.op == "evaluate_batch":
        if not args.ps:
            raise SystemExit(
                "repro: evaluate_batch needs --ps, e.g. --ps 2,3,4")
        try:
            ps = [int(piece) for piece in args.ps.split(",")
                  if piece.strip()]
        except ValueError:
            raise SystemExit(
                f"repro: bad --ps {args.ps!r} — comma-separated "
                f"integers, e.g. --ps 2,3,4") from None
        if not ps:
            raise SystemExit(
                f"repro: bad --ps {args.ps!r} — no block lengths")
        params["ps"] = ps
    elif needs_query:
        params["p"] = args.p
    if args.op == "sweep":
        params["grid"] = args.grid
        if args.float:
            params["numeric"] = "float"
    if args.op in ("sample", "top_k"):
        params["k"] = args.k
    if args.op in ("evaluate", "evaluate_batch") and args.method:
        params["method"] = args.method
    if args.op in ("compile", "evaluate", "evaluate_batch", "sweep",
                   "sample", "top_k") and args.budget is not None:
        params["budget_nodes"] = args.budget
    if args.op in ("evaluate", "evaluate_batch", "sweep", "estimate"):
        params["epsilon"] = str(args.epsilon)
        params["delta"] = str(args.delta)
        if args.engine != "hoeffding":
            params["estimator"] = args.engine
        if args.relative_error is not None:
            params["relative_error"] = str(args.relative_error)
    if args.op in ("evaluate", "evaluate_batch", "sweep", "estimate",
                   "sample"):
        params["seed"] = args.seed
    assert args.op in OPS
    if args.op == "shutdown":
        # Tolerates the connection closing before the acknowledgement.
        result = _call_service(args, lambda client: client.shutdown())
    else:
        result = _call_service(
            args, lambda client: client.call(args.op, **params))
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _call_service(args, call, hint: str = ""):
    """``call(client)`` against the running service named by
    ``--host``/``--port``/``--timeout``/``--auth``; a refused
    connection or an error response exits with a friendly message."""
    from repro.service.client import ServiceClient, ServiceError

    try:
        client = ServiceClient(args.host, args.port,
                               timeout=args.timeout, auth=args.auth)
    except OSError as error:
        raise SystemExit(
            f"repro: cannot connect to {args.host}:{args.port}: "
            f"{error} (is `repro serve` running?{hint})") from None
    with client:
        try:
            return call(client)
        except ServiceError as error:
            raise SystemExit(f"repro: service error: {error}") from None


def _hist_quantile_ms(buckets: dict, count: int, q: float):
    """Upper-bound estimate of the ``q`` quantile in milliseconds
    from cumulative histogram buckets (ladder order, ``le`` label
    strings as keys).  ``None`` when the mass sits past the ladder
    (+Inf) or the series is empty."""
    if count <= 0:
        return None
    target = q * count
    for le, cumulative in buckets.items():
        if cumulative >= target and le != "+Inf":
            return float(le) * 1000.0
    return None


def cmd_ctl_trace(args) -> int:
    import json

    result = _call_service(args, lambda client: client.trace(
        id=args.id, limit=args.limit, slow=args.slow or None))
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_ctl_top(args) -> int:
    stats = _call_service(args, lambda client: client.stats())
    tracing = stats.get("tracing") or {}
    histograms = tracing.get("histograms") or {}
    rows = []
    for op, stages in sorted(histograms.items()):
        for stage, hist in sorted(stages.items()):
            count = hist.get("count", 0)
            buckets = hist.get("buckets") or {}
            rows.append((op, stage, count,
                         hist.get("sum_ms", 0.0),
                         _hist_quantile_ms(buckets, count, 0.50),
                         _hist_quantile_ms(buckets, count, 0.99)))
    if not rows:
        print("no traced requests yet — is the service running "
              "with tracing enabled?")
        return 0
    # "top": heaviest (op, stage) series first, by total time.
    rows.sort(key=lambda row: (-row[3], row[0], row[1]))
    fmt = "{:<16} {:<12} {:>8} {:>12} {:>9} {:>9}"
    print(fmt.format("op", "stage", "count", "total_ms",
                     "p50_ms", "p99_ms"))
    for op, stage, count, sum_ms, p50, p99 in rows:
        render = ["-" if q is None else f"{q:g}" for q in (p50, p99)]
        print(fmt.format(op, stage, count, f"{sum_ms:.3f}",
                         render[0], render[1]))
    return 0


def cmd_ctl_store_gc(args) -> int:
    import json

    if args.max_bytes < 0:
        raise SystemExit("repro: --max-bytes must be non-negative")
    if args.store:
        # Local mode: prune the named store directory in-process.
        from repro.booleans.store import CircuitStore

        report = CircuitStore(args.store).prune(max_bytes=args.max_bytes)
        report["store"] = args.store
    else:
        # Remote mode: ask a running service to prune its store.
        report = _call_service(
            args, lambda client: client.store_gc(args.max_bytes),
            hint=" or pass --store DIR to prune locally")
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_ctl_metrics(args) -> int:
    # Fetch the Prometheus-style rendering from a running service and
    # print the exposition text verbatim (pipe it to a file for
    # node_exporter's textfile collector, or just read it).
    result = _call_service(args, lambda client: client.metrics())
    print(result["text"], end="")
    return 0


def cmd_ctl_analyze(args) -> int:
    # Repo-invariant static analyzer.  Bad operands (outside the repo,
    # not Python) exit with a one-line `repro: ...` message via the
    # engine's own friendly-SystemExit convention.
    from repro.analysis import run as analysis_run

    return analysis_run(
        args.paths or None, root=args.root,
        json_output=args.json_output,
        update_baseline=args.baseline,
        baseline_file=args.baseline_file)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Dichotomy tools for generalized model counting "
                    "(Kenig & Suciu, PODS 2021)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="safety/type/length/finality of a query")
    p_classify.add_argument("query")
    p_classify.set_defaults(fn=cmd_classify)

    p_census = sub.add_parser("census", help="classify the catalog")
    p_census.set_defaults(fn=cmd_census)

    p_reduce = sub.add_parser(
        "reduce", help="#P2CNF via the Type-I reduction")
    p_reduce.add_argument("--edges", required=True,
                          help='e.g. "0-1,1-2"')
    p_reduce.add_argument("--vars", type=int, required=True)
    p_reduce.add_argument("--length", type=int, default=1,
                          help="path-query length (default 1: RST)")
    p_reduce.add_argument("--check", action="store_true")
    p_reduce.set_defaults(fn=cmd_reduce)

    p_h0 = sub.add_parser("h0", help="#PP2CNF via one GFOMC(H0) call")
    p_h0.add_argument("--left", type=int, required=True)
    p_h0.add_argument("--right", type=int, required=True)
    p_h0.add_argument("--edges", required=True)
    p_h0.add_argument("--check", action="store_true")
    p_h0.set_defaults(fn=cmd_h0)

    from repro.booleans.approximate import DEFAULT_DELTA, DEFAULT_EPSILON

    def estimator_flags(p, with_budget=True):
        """The shared budget/estimator knobs (``Fraction`` parses
        both "0.05" and "1/20" exactly)."""
        if with_budget:
            p.add_argument("--budget", type=int, metavar="NODES",
                           default=None,
                           help="abort exact compilation past NODES "
                                "interned nodes and answer with the "
                                "Monte-Carlo estimator instead")
        p.add_argument("--epsilon", type=Fraction,
                       default=DEFAULT_EPSILON,
                       help="additive error bound of the estimator "
                            f"(default {DEFAULT_EPSILON})")
        p.add_argument("--delta", type=Fraction,
                       default=DEFAULT_DELTA,
                       help="failure probability of the estimator's "
                            f"confidence interval "
                            f"(default {DEFAULT_DELTA})")
        p.add_argument("--seed", type=int, default=0,
                       help="random seed of the estimator (default 0)")
        p.add_argument("--engine",
                       choices=("hoeffding", "adaptive", "importance"),
                       default="hoeffding",
                       help="sampler: hoeffding (fixed-n), adaptive "
                            "(empirical-Bernstein early stopping), or "
                            "importance (self-normalized tilted "
                            "sampling for small probabilities)")
        p.add_argument("--relative-error", type=Fraction, default=None,
                       metavar="REL", dest="relative_error",
                       help="target a relative (not additive) "
                            "half-width; implies --engine adaptive "
                            "unless one is named")

    p_compile = sub.add_parser(
        "compile",
        help="compile a query's path-block lineage to a d-DNNF "
             "circuit and print its statistics")
    p_compile.add_argument("query")
    p_compile.add_argument("--p", type=int, default=4,
                           help="path-block length (default 4)")
    p_compile.add_argument("--save", metavar="PATH",
                           help="serialize the circuit to PATH")
    p_compile.add_argument("--load", metavar="PATH",
                           help="load a previously --save'd circuit "
                                "instead of compiling")
    p_compile.add_argument("--store", metavar="DIR",
                           help="content-addressed circuit store "
                                "directory (two-tier cache; also "
                                "honours $REPRO_CIRCUIT_STORE)")
    estimator_flags(p_compile)
    p_compile.set_defaults(fn=cmd_compile)

    p_sweep = sub.add_parser(
        "sweep",
        help="batched endpoint-weight sweep over a query's path-block "
             "lineage (compile once, evaluate many)")
    p_sweep.add_argument("query")
    p_sweep.add_argument("--p", type=int, default=4,
                         help="path-block length (default 4)")
    p_sweep.add_argument("--grid", type=int, default=8,
                         help="number of weight vectors (default 8)")
    p_sweep.add_argument("--float", action="store_true",
                         help="float fast path (cross-checked against "
                              "exact Fractions on sampled vectors)")
    p_sweep.add_argument("--load", metavar="PATH",
                         help="load a --save'd circuit instead of "
                              "compiling")
    p_sweep.add_argument("--store", metavar="DIR",
                         help="content-addressed circuit store "
                              "directory")
    estimator_flags(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_estimate = sub.add_parser(
        "estimate",
        help="Monte-Carlo Pr(Q) over a query's path-block lineage "
             "with a Hoeffding confidence interval (no compilation)")
    p_estimate.add_argument("query")
    p_estimate.add_argument("--p", type=int, default=4,
                            help="path-block length (default 4)")
    p_estimate.add_argument("--check", action="store_true",
                            help="also compile exactly and verify the "
                                 "interval contains the true value "
                                 "(exits 1 when it does not)")
    p_estimate.add_argument("--store", metavar="DIR",
                            help="content-addressed circuit store "
                                 "directory (used by --check)")
    estimator_flags(p_estimate, with_budget=False)
    p_estimate.set_defaults(fn=cmd_estimate)

    from repro.service.client import DEFAULT_PORT
    from repro.service.protocol import OPS

    def service_flags(p):
        """Where the running service is and how to talk to it."""
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=DEFAULT_PORT)
        p.add_argument("--timeout", type=float, default=60.0,
                       help="socket timeout in seconds (default 60)")
        p.add_argument("--auth", metavar="TOKEN", default=None,
                       help="tenant auth token (required when the "
                            "server runs with --auth-tokens; scopes "
                            "the traces you can see)")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived query service (line-delimited JSON "
             "over TCP; warm two-tier circuit cache shared by all "
             "clients)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"TCP port (default {DEFAULT_PORT}; "
                              f"0 picks an ephemeral port, announced "
                              f"on stdout)")
    p_serve.add_argument("--store", metavar="DIR",
                         help="content-addressed circuit store "
                              "directory (tier-2 cache; also honours "
                              "$REPRO_CIRCUIT_STORE)")
    p_serve.add_argument("--workers", type=int, default=0,
                         help="worker processes behind a dispatcher "
                              "front end (requests route by formula "
                              "fingerprint; the pool shares the "
                              "circuit store); 0 serves in-process "
                              "(default 0)")
    p_serve.add_argument("--compile-threads", type=int, default=4,
                         dest="compile_threads",
                         help="max concurrent compilations per "
                              "process (default 4)")
    p_serve.add_argument("--window", type=float, default=0.01,
                         help="sweep-coalescing window in seconds "
                              "(default 0.01)")
    p_serve.add_argument("--budget", type=int, metavar="NODES",
                         default=None,
                         help="default auto-policy compilation budget "
                              "for requests that do not override it "
                              "(default: the library default)")
    p_serve.add_argument("--auth-tokens", metavar="TENANT=TOKEN,...",
                         dest="auth_tokens", default=None,
                         help="require per-client auth: comma-"
                              "separated TENANT=TOKEN pairs; requests "
                              "must carry a known token or are "
                              "refused with code 'unauthorized'")
    p_serve.add_argument("--quota", metavar="SPEC", default=None,
                         help="default per-tenant quota, e.g. "
                              "'rate=120,window=60,nodes=500000' "
                              "(requests per window seconds + "
                              "cumulative compile-budget in interned "
                              "nodes; omitted keys are unlimited)")
    p_serve.add_argument("--tenant-quota", metavar="TENANT:SPEC",
                         dest="tenant_quota", action="append",
                         help="override the default quota for one "
                              "tenant (repeatable)")
    p_serve.add_argument("--store-max-bytes", type=int,
                         metavar="BYTES", dest="store_max_bytes",
                         default=None,
                         help="size-cap the tier-2 store: after each "
                              "fresh compilation, evict oldest-"
                              "accessed entries until the store fits "
                              "(needs --store or "
                              "$REPRO_CIRCUIT_STORE)")
    p_serve.add_argument("--slow-ms", type=float, dest="slow_ms",
                         metavar="MS", default=None,
                         help="slow-request threshold: requests whose "
                              "root span lasts at least MS "
                              "milliseconds are kept in the slow log "
                              "(and exported when --trace-dir is set)")
    p_serve.add_argument("--trace-buffer", type=int,
                         dest="trace_buffer", metavar="N", default=256,
                         help="completed request traces kept in the "
                              "in-memory ring buffer (default 256)")
    p_serve.add_argument("--trace-dir", dest="trace_dir",
                         metavar="DIR", default=None,
                         help="append slow-request traces to "
                              "DIR/TRACE_slow.jsonl (one JSON span "
                              "tree per line; needs --slow-ms)")
    p_serve.add_argument("--no-tracing", action="store_true",
                         dest="no_tracing",
                         help="disable request tracing entirely "
                              "(spans become no-ops; the trace op "
                              "answers empty)")
    p_serve.set_defaults(fn=cmd_serve)

    p_query = sub.add_parser(
        "query",
        help="send one request to a running repro service and print "
             "the JSON result")
    p_query.add_argument("op", choices=list(OPS),
                         help="operation to invoke")
    p_query.add_argument("query", nargs="?",
                         help="query text (omit for stats/ping/"
                              "shutdown)")
    service_flags(p_query)
    p_query.add_argument("--p", type=int, default=4,
                         help="path-block length (default 4)")
    p_query.add_argument("--ps", metavar="P1,P2,...",
                         help="comma-separated block lengths "
                              "(evaluate_batch)")
    p_query.add_argument("--grid", type=int, default=8,
                         help="sweep grid size (default 8)")
    p_query.add_argument("--float", action="store_true",
                         help="float fast path for sweep")
    p_query.add_argument("--k", type=int, default=1,
                         help="world count for sample/top_k "
                              "(default 1)")
    p_query.add_argument("--method", default=None,
                         help="force an evaluation method "
                              "(default: auto)")
    estimator_flags(p_query)
    p_query.set_defaults(fn=cmd_query)

    p_ctl = sub.add_parser(
        "ctl",
        help="operational verbs for stores and running services")
    ctl_sub = p_ctl.add_subparsers(dest="verb", required=True)
    p_gc = ctl_sub.add_parser(
        "store-gc",
        help="size-capped eviction on a circuit store: delete "
             "entries, oldest access time first, until the store "
             "fits in --max-bytes")
    p_gc.add_argument("--max-bytes", type=int, required=True,
                      dest="max_bytes", metavar="BYTES",
                      help="target store size in bytes (0 empties it)")
    p_gc.add_argument("--store", metavar="DIR",
                      help="prune this store directory locally "
                           "(default: ask the running service)")
    service_flags(p_gc)
    p_gc.set_defaults(fn=cmd_ctl_store_gc)

    p_metrics = ctl_sub.add_parser(
        "metrics",
        help="print a running service's Prometheus-style metrics "
             "text (the `metrics` op) verbatim")
    service_flags(p_metrics)
    p_metrics.set_defaults(fn=cmd_ctl_metrics)

    p_trace = ctl_sub.add_parser(
        "trace",
        help="fetch request traces (span trees) from a running "
             "service: recent ones, one by --id, or only slow-log "
             "entries")
    p_trace.add_argument("--id", default=None, metavar="TRACE_ID",
                         help="fetch exactly this trace (the id "
                              "echoed in every response)")
    p_trace.add_argument("--limit", type=int, default=None,
                         metavar="N",
                         help="max traces to return (default 16)")
    p_trace.add_argument("--slow", action="store_true",
                         help="only traces that crossed the server's "
                              "--slow-ms threshold")
    service_flags(p_trace)
    p_trace.set_defaults(fn=cmd_ctl_trace)

    p_top = ctl_sub.add_parser(
        "top",
        help="per-(op, stage) latency breakdown of a running service "
             "from its tracing histograms: count, total, p50, p99")
    service_flags(p_top)
    p_top.set_defaults(fn=cmd_ctl_top)

    p_analyze = ctl_sub.add_parser(
        "analyze",
        help="repo-invariant static analyzer: determinism lint, "
             "lock discipline, exact/float numeric boundary, "
             "protocol drift (exit 1 on non-baselined findings)")
    p_analyze.add_argument("paths", nargs="*",
                           help="files or directories to analyze "
                                "(default: the src/ tree)")
    p_analyze.add_argument("--json", action="store_true",
                           dest="json_output",
                           help="emit the machine-readable report")
    p_analyze.add_argument("--baseline", action="store_true",
                           help="rewrite ANALYSIS_BASELINE.json to "
                                "accept all current findings")
    p_analyze.add_argument("--baseline-file", default=None,
                           help="override the baseline path")
    p_analyze.add_argument("--root", default=None,
                           help="repository root "
                                "(default: auto-detected)")
    p_analyze.set_defaults(fn=cmd_ctl_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `... | head`): exit
        # quietly like a well-behaved unix tool.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
