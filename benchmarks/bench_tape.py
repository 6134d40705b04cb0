"""Flat-tape lanes: float lanes vs a per-node float loop, integer lanes
vs the tape's Fraction lanes, and the tape's world sampling and
marginals vs the node walk they replaced.

Shape expectations: on the block-matrix theta-screening family (k
weight lanes over one path-block lineage, each lane pinning a couple
of tuple marginals on a shared base — the ``y_probability_sweep`` /
``link_matrix_sweep`` grid shape) the tape's float lanes must beat a
per-node float loop (``node_float_batch``, the node-graph evaluator
the tape replaced, kept here as the baseline) by **>= 10x** when numpy
is importable: the node loop pays a Python-level lookup, conversion,
and dispatch per node per lane, while the tape pays one base column
plus the overrides and one vector operation per instruction.  The
exact default, the tape's integer lanes, must return *exactly* the
Fraction lanes' values on the same family (both rates are reported in
lanes/s); a wide-denominator shape must select the Fraction lanes
(timed, not gated); and the tape's serialized bytes must not depend
on ``PYTHONHASHSEED``.  On ``path_query(3)`` at p=12, ``Circuit.sample``
(k=1) and ``Circuit.marginals``, which walk the registers of one exact
tape pass, must return exactly what the ``Fraction`` walk of the node
table returns (``node_sample``/``node_marginals``, kept here as the
baseline) and be **>= 3x** faster.  On the same lineage a tape's
compiled kernel (the hot tier, ``Tape._kernel``) must return exactly
what its interpreter returns on one exact lane, the 16-lane exact
endpoint grid and the 256-lane float grid, and its one-lane exact pass
must be **>= 3x** the interpreter's; the compile cost per instruction,
the pass speedups and the bytes the kernel keeps are recorded.

Runable two ways:

* ``pytest benchmarks/bench_tape.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_tape.py [--quick]`` — a self-contained
  smoke run (CI uses ``--quick``) that exits non-zero if the float
  lanes lose their margin, the exact lanes drift or pick the wrong
  arithmetic, the tape's sample or marginals drift from the node walk
  or lose their margin, the compiled kernel drifts from the interpreter
  or loses its margin, or the tape serializes differently under two
  hash seeds.
"""

import gc
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import _bench_io

from repro import obs
from repro.booleans.circuit import (
    ITE, LEAF, TRUE, AND, WeightOverlay, as_rng, compile_cnf,
    draw_threshold, make_lookup,
)
from repro.evaluation import endpoint_weight_grid
from repro.booleans import tape as tape_module
from repro.core import catalog
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

F = Fraction
SRC = str(Path(__file__).resolve().parent.parent / "src")

#: The acceptance floor for tape-float over node-float (numpy rows;
#: the float lanes on list rows only have to *win*, not rout).
SPEEDUP_GATE = 10.0

#: The acceptance floor for the tape's sample (k=1) and marginals over
#: the node walk on path_query(3) at p=12.
WALK_GATE = 3.0

#: The acceptance floor for a compiled one-lane exact pass over the
#: interpreter's on path_query(3) at p=12.
KERNEL_GATE = 3.0


def theta_workload(p=8, k=256):
    """The block-matrix theta-screening family: k weight lanes over
    one path-block lineage, lane j pinning two tuple marginals to
    lane-specific values on the shared block base — the sweep shape
    ``TypeIIStructure.y_probability_sweep`` and ``link_matrix_sweep``
    feed to ``probability_batch``.

    Returns the compiled circuit plus the same lanes in two spellings:
    closures over ``(pinned, base)``, the input of the per-node float
    baseline, and ``WeightOverlay`` specs, the shape the sweeps pass.
    """
    query = catalog.rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    circuit = compile_cnf(formula)
    variables = sorted(circuit.variables(), key=repr)
    n = len(variables)
    base = tid.probability
    overlays = [
        {variables[(2 * j + t) % n]: F(1 + (j + t) % 97, 101)
         for t in range(2)}
        for j in range(k)]
    closure_specs = [
        (lambda tok, pinned=dict(o): pinned.get(tok, base(tok)))
        for o in overlays]
    overlay_specs = [WeightOverlay(base, o) for o in overlays]
    return circuit, closure_specs, overlay_specs


def node_float_batch(circuit, specs):
    """The float baseline: one walk of the circuit's node table with a
    row of k floats per node, kept scalar while a node's value is the
    same in every lane — the node-graph evaluator the tape replaced."""
    lookups = [make_lookup(spec) for spec in specs]
    k = len(lookups)
    rows: list = [None] * len(circuit.nodes)
    for i, node in enumerate(circuit.nodes):
        kind = node[0]
        if kind is ITE or kind is LEAF:
            ps = [float(lookup(node[1])) for lookup in lookups]
            if not all(map(math.isfinite, ps)):
                raise ValueError(f"non-finite weight for {node[1]!r}")
            uniform = ps.count(ps[0]) == k
            if kind is LEAF:
                rows[i] = ps[0] if uniform else ps
                continue
            hi, lo = rows[node[2]], rows[node[3]]
            if uniform and not isinstance(hi, list) \
                    and not isinstance(lo, list):
                rows[i] = ps[0] * hi + (1.0 - ps[0]) * lo
            else:
                his = hi if isinstance(hi, list) else (hi,) * k
                los = lo if isinstance(lo, list) else (lo,) * k
                rows[i] = [ps[j] * his[j] + (1.0 - ps[j]) * los[j]
                           for j in range(k)]
        elif kind is AND:
            scalar, row = 1.0, None
            for child in node[1]:
                crow = rows[child]
                if isinstance(crow, list):
                    row = crow if row is None else [
                        a * b for a, b in zip(row, crow)]
                else:
                    scalar *= crow
                    if not scalar:
                        break
            rows[i] = scalar if row is None or not scalar else [
                scalar * x for x in row]
        else:
            rows[i] = 1.0 if kind is TRUE else 0.0
    root = rows[circuit.root]
    return list(root) if isinstance(root, list) else [root] * k


def run_tape_float(circuit, specs):
    return circuit.probability_batch(specs, numeric="float")


def run_integer_lanes(circuit, specs):
    return circuit.probability_batch(specs)


def run_fraction_lanes(circuit, specs):
    """The tape's Fraction lanes on ``specs``, whatever the selection
    rule would pick."""
    tape = tape_module.tape_for_circuit(circuit)
    rows = tape._lane_rows(specs, None)
    return tape._exact_lanes(rows, len(specs), None, obs.NULL_SPAN)


def kernel_arith(run, *args):
    """``run(*args)``'s result and the ``arith`` tag of the ``kernel``
    span it opened under a live trace."""
    tracer = obs.Tracer()
    with tracer.root("bench"):
        result = run(*args)
    spans = tracer.recent(1)[0]["spans"]
    tags = next(s["tags"] for s in spans if s["name"] == "kernel")
    return result, tags["arith"]


def wide_lanes(circuit, k):
    """k lanes over a base giving each variable its own ~30-bit
    denominator: the integers over D**e would dwarf the reduced
    fractions, so the Fraction lanes must run."""
    variables = sorted(circuit.variables(), key=repr)
    base = {v: F(j + 1, 2 ** 30 + 2 * j + 1)
            for j, v in enumerate(variables)}
    return [WeightOverlay(base, {variables[j % len(variables)]:
                                 F(1, 3 + j)})
            for j in range(k)]


def node_values(circuit, lookup):
    """Every node's exact probability by one ``Fraction`` walk of the
    node table: the evaluator behind ``sample`` and ``marginals``
    before they walked the tape's registers."""
    values = [F(0)] * len(circuit.nodes)
    for i, node in enumerate(circuit.nodes):
        if node[0] is ITE:
            p = F(lookup(node[1]))
            values[i] = p * values[node[2]] + (1 - p) * values[node[3]]
        elif node[0] is AND:
            values[i] = math.prod((values[c] for c in node[1]),
                                  start=F(1))
        elif node[0] is LEAF:
            values[i] = F(lookup(node[1]))
        elif node[0] is TRUE:
            values[i] = F(1)
    return values


def node_sample(circuit, weights, k, rng):
    """The node-walk ``Circuit.sample``: decisions draw against the
    exact posterior of their true branch, then the unset variables
    against their priors in sorted-repr order."""
    lookup = make_lookup(weights)
    values = node_values(circuit, lookup)
    rng = as_rng(rng)
    thresholds = {}
    for i, node in enumerate(circuit.nodes):
        if node[0] is ITE:
            p = F(lookup(node[1]))
            hi = p * values[node[2]]
            mass = hi + (1 - p) * values[node[3]]
            if mass:
                thresholds[i] = draw_threshold(hi / mass)
    priors = [(var, draw_threshold(F(lookup(var))))
              for var in sorted(circuit.variables(), key=repr)]
    worlds = []
    for _ in range(k):
        world = {}
        stack = [circuit.root]
        while stack:
            i = stack.pop()
            node = circuit.nodes[i]
            if node[0] is ITE:
                bit = world[node[1]] = rng.random() < thresholds[i]
                stack.append(node[2] if bit else node[3])
            elif node[0] is AND:
                stack.extend(node[1])
            elif node[0] is LEAF:
                world[node[1]] = True
        for var, prior in priors:
            if var not in world:
                world[var] = rng.random() < prior
        worlds.append(world)
    return worlds


def node_marginals(circuit, weights):
    """The node-walk ``Circuit.marginals``: a backward pass of
    ``Fraction`` derivatives with prefix/suffix products."""
    lookup = make_lookup(weights)
    values = node_values(circuit, lookup)
    derivs = [F(0)] * len(circuit.nodes)
    derivs[circuit.root] = F(1)
    grads = {var: F(0) for var in circuit.variables()}
    for i in range(len(circuit.nodes) - 1, -1, -1):
        d, node = derivs[i], circuit.nodes[i]
        if not d:
            continue
        if node[0] is ITE:
            p = F(lookup(node[1]))
            derivs[node[2]] += p * d
            derivs[node[3]] += (1 - p) * d
            grads[node[1]] += (values[node[2]] - values[node[3]]) * d
        elif node[0] is AND:
            children = node[1]
            prefix = [F(1)]
            for child in children[:-1]:
                prefix.append(prefix[-1] * values[child])
            suffix = F(1)
            for j in range(len(children) - 1, -1, -1):
                derivs[children[j]] += d * prefix[j] * suffix
                suffix *= values[children[j]]
        elif node[0] is LEAF:
            grads[node[1]] += d
    return grads


def walk_workload(length=3, p=12):
    """path_query(length) over B_p(u, v), compiled, with its tuple
    marginals: the shape of the service's ``sample`` op."""
    query = catalog.path_query(length)
    tid = path_block(query, p)
    return compile_cnf(lineage(query, tid)), tid.probability


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def test_node_float_baseline(benchmark):
    circuit, closure_specs, _ = theta_workload(p=8, k=32)
    values = benchmark(node_float_batch, circuit, closure_specs)
    assert all(0 < v < 1 for v in values)


def test_tape_float(benchmark):
    circuit, closure_specs, overlay_specs = theta_workload(p=8, k=32)
    values = benchmark(run_tape_float, circuit, overlay_specs)
    exact = circuit.probability_batch(closure_specs)
    assert all(abs(a - float(t)) < 1e-9 for a, t in zip(values, exact))


def test_integer_lanes(benchmark):
    circuit, _, overlay_specs = theta_workload(p=8, k=32)
    values = benchmark(run_integer_lanes, circuit, overlay_specs)
    assert values == run_fraction_lanes(circuit, overlay_specs)


def test_fraction_lanes(benchmark):
    circuit, _, overlay_specs = theta_workload(p=8, k=32)
    values = benchmark(run_fraction_lanes, circuit, overlay_specs)
    assert values == circuit.probability_batch(overlay_specs)


def test_tape_sample(benchmark):
    circuit, weights = walk_workload(p=8)
    worlds = benchmark(circuit.sample, weights, 1, 0)
    assert worlds == node_sample(circuit, weights, 1, 0)


def test_tape_marginals(benchmark):
    circuit, weights = walk_workload(p=8)
    grads = benchmark(circuit.marginals, weights)
    assert grads == node_marginals(circuit, weights)


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def _best_of(fn, *args, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def check_tape_beats_node(p, k) -> tuple[bool, dict]:
    """tape-float must beat node-float by ``SPEEDUP_GATE`` on the
    theta family (numpy rows; list rows without numpy must just win),
    while agreeing with the exact values to 1e-9."""
    circuit, closure_specs, overlay_specs = theta_workload(p=p, k=k)
    start = time.perf_counter()
    tape = tape_module.flatten_circuit(circuit)
    flatten_ms = (time.perf_counter() - start) * 1e3
    t_node, node_floats = _best_of(node_float_batch, circuit,
                                   closure_specs)
    t_tape, tape_floats = _best_of(run_tape_float, circuit,
                                   overlay_specs)
    speedup = t_node / t_tape
    have_numpy = tape_module._np is not None
    record = {
        "p": p, "k": k,
        "instructions": tape.n_instructions,
        "flatten_ms": round(flatten_ms, 2),
        "node_float_ms": round(t_node * 1e3, 2),
        "tape_float_ms": round(t_tape * 1e3, 2),
        "speedup": round(speedup, 2),
        "numpy": have_numpy,
        "gate": SPEEDUP_GATE if have_numpy else 1.0,
    }
    exact = circuit.probability_batch(overlay_specs)
    for label, floats in (("node", node_floats), ("tape", tape_floats)):
        if any(abs(a - float(t)) > 1e-9 for a, t in zip(floats, exact)):
            print(f"FLOAT DRIFT beyond 1e-9 in the {label} engine at "
                  f"p={p} k={k}", file=sys.stderr)
            return False, record
    gate = SPEEDUP_GATE if have_numpy else 1.0
    kernel = "numpy" if have_numpy else "stdlib-fallback"
    verdict = "" if speedup >= gate else f"  <-- below {gate}x gate"
    print(f"p={p:2d} k={k:4d} node-float {t_node * 1e3:8.2f}ms  "
          f"tape-float {t_tape * 1e3:7.2f}ms ({speedup:5.1f}x, "
          f"{kernel}, flatten {flatten_ms:.2f}ms){verdict}")
    return speedup >= gate, record


def check_integer_lanes(p, k) -> tuple[bool, dict]:
    """The exact default must run on integer lanes and equal the
    tape's Fraction lanes *exactly* (the same Fractions, not
    approximations) on the theta family."""
    circuit, _, overlay_specs = theta_workload(p=p, k=k)
    _, arith = kernel_arith(run_integer_lanes, circuit, overlay_specs)
    t_int, values = _best_of(run_integer_lanes, circuit, overlay_specs)
    t_frac, fractions = _best_of(run_fraction_lanes, circuit,
                                 overlay_specs)
    record = {
        "p": p, "k": k, "arith": arith,
        "integer_ms": round(t_int * 1e3, 2),
        "fraction_ms": round(t_frac * 1e3, 2),
        "integer_lanes_per_s": round(k / t_int, 1),
        "fraction_lanes_per_s": round(k / t_frac, 1),
        "identical": values == fractions,
    }
    if arith != "int" or values != fractions:
        print(f"EXACT LANES: arith={arith!r}, equal to the Fraction "
              f"lanes: {values == fractions} at p={p} k={k}",
              file=sys.stderr)
        return False, record
    print(f"exact: {k} integer lanes equal the Fraction lanes "
          f"(integer {k / t_int:,.0f} lanes/s, Fraction "
          f"{k / t_frac:,.0f} lanes/s, {t_frac / t_int:.1f}x)")
    return True, record


def check_wide_denominators(p, k) -> tuple[bool, dict]:
    """Distinct ~30-bit denominators per variable must select the
    Fraction lanes; their values must equal the circuit's per-lane
    ``probability``.  Timed, not gated."""
    circuit, _, _ = theta_workload(p=p, k=1)
    specs = wide_lanes(circuit, k)
    _, arith = kernel_arith(run_integer_lanes, circuit, specs)
    t_wide, values = _best_of(run_integer_lanes, circuit, specs)
    equal = values == [circuit.probability(spec) for spec in specs]
    record = {"p": p, "k": k, "arith": arith,
              "fraction_ms": round(t_wide * 1e3, 2),
              "lanes_per_s": round(k / t_wide, 1), "identical": equal}
    if arith != "fraction" or not equal:
        print(f"WIDE DENOMINATORS: arith={arith!r} (want 'fraction'), "
              f"equal to per-lane probability: {equal}",
              file=sys.stderr)
        return False, record
    print(f"wide: {k} lanes of ~30-bit denominators took the Fraction "
          f"lanes ({t_wide * 1e3:.2f}ms, {k / t_wide:,.0f} lanes/s)")
    return True, record


def check_tape_walks(length=3, p=12, repeats=7) -> tuple[bool, dict]:
    """``sample`` (k=1, seeds 0..repeats-1) and ``marginals`` on the
    tape must equal the node walk exactly and beat it by
    ``WALK_GATE``."""
    circuit, weights = walk_workload(length, p)
    circuit.probability(weights)  # flatten the tape outside the timing
    record = {"query": f"path_query({length})", "p": p,
              "gate": WALK_GATE}
    ok = True
    for name, tape_run, node_run in (
            ("sample", lambda seed: circuit.sample(weights, 1, seed),
             lambda seed: node_sample(circuit, weights, 1, seed)),
            ("marginals", lambda seed: circuit.marginals(weights),
             lambda seed: node_marginals(circuit, weights))):
        t_tape = t_node = math.inf
        identical = True
        for seed in range(repeats):
            start = time.perf_counter()
            got = tape_run(seed)
            t_tape = min(t_tape, time.perf_counter() - start)
            start = time.perf_counter()
            want = node_run(seed)
            t_node = min(t_node, time.perf_counter() - start)
            identical &= got == want
        speedup = t_node / t_tape
        record[name] = {"tape_ms": round(t_tape * 1e3, 3),
                        "node_ms": round(t_node * 1e3, 3),
                        "speedup": round(speedup, 2),
                        "identical": identical}
        verdict = "" if speedup >= WALK_GATE \
            else f"  <-- below {WALK_GATE}x gate"
        print(f"{name}: tape {t_tape * 1e3:.2f}ms, node walk "
              f"{t_node * 1e3:.2f}ms ({speedup:.1f}x) on "
              f"path_query({length}) p={p}, identical: "
              f"{identical}{verdict}")
        if not identical:
            print(f"TAPE WALK DRIFT: {name} differs from the node walk",
                  file=sys.stderr)
        ok &= identical and speedup >= WALK_GATE
    return ok, record


def check_compiled_kernel(length=3, p=12, repeats=7) -> tuple[bool, dict]:
    """A compiled tape (the hot tier) against one on the interpreter:
    identical values on one exact lane, the 16-lane exact endpoint grid
    and the 256-lane float grid, and a one-lane exact pass (``_lanes``
    on integer lanes, set-up excluded) at least ``KERNEL_GATE`` times
    the interpreter's.  The interpreter's tape stays below
    ``KERNEL_PASSES``, so it never compiles."""
    query = catalog.path_query(length)
    tid = path_block(query, p)
    formula = lineage(query, tid)
    circuit = compile_cnf(formula)
    cold = tape_module.flatten_circuit(circuit)
    hot = tape_module.flatten_circuit(circuit)
    kept = tape_module.flatten_circuit(circuit)
    for tape in (cold, hot, kept):
        tape._exponent_table()
    start = time.perf_counter()
    hot._kernel()
    compile_s = time.perf_counter() - start
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept._kernel()
        gc.collect()
        kernel_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    weights = tid.probability
    exact_grid = endpoint_weight_grid(formula, tid, 16)
    float_grid = endpoint_weight_grid(formula, tid, 256)
    passes = {
        "one_lane": lambda tape: tape.probability(weights, None),
        "exact_16": lambda tape: tape.evaluate(exact_grid),
        "float_256": lambda tape: tape.evaluate(float_grid,
                                                numeric="float"),
    }
    n = cold.n_instructions
    record = {"query": f"path_query({length})", "p": p,
              "instructions": n, "gate": KERNEL_GATE,
              "compile_us_per_instruction": round(compile_s * 1e6 / n, 2),
              "kernel_bytes": kernel_bytes,
              "kernel_bytes_per_instruction": round(kernel_bytes / n, 1)}
    identical = True
    for name, run in passes.items():
        t_cold, want = _best_of(run, cold, repeats=repeats)
        t_hot, got = _best_of(run, hot, repeats=repeats)
        identical &= got == want
        record[name] = {"interpreter_ms": round(t_cold * 1e3, 3),
                        "kernel_ms": round(t_hot * 1e3, 3),
                        "speedup": round(t_cold / t_hot, 2),
                        "identical": got == want}
    lookup = make_lookup(weights)
    rows = [F(lookup(var)) for var in cold.slots]
    common = cold._lane_denominator(rows)
    pows = [1]
    for _ in range(cold._exponent_table()[1]):
        pows.append(pows[-1] * common)
    scaled = [w.numerator * (common // w.denominator) for w in rows]
    t_cold, want = _best_of(cold._interpret, scaled, pows,
                            tape_module._Row, repeats=repeats)
    t_hot, got = _best_of(hot._lanes, scaled, pows, repeats=repeats)
    identical &= got == want
    speedup = t_cold / t_hot
    record["bare_pass"] = {"interpreter_ms": round(t_cold * 1e3, 3),
                           "kernel_ms": round(t_hot * 1e3, 3),
                           "speedup": round(speedup, 2),
                           "identical": got == want}
    record["identical"] = identical
    if cold._compiled is not None:
        print("KERNEL: the interpreter's tape compiled during the check",
              file=sys.stderr)
        return False, record
    if not identical:
        print("KERNEL DRIFT: the compiled kernel differs from the "
              "interpreter", file=sys.stderr)
    verdict = "" if speedup >= KERNEL_GATE \
        else f"  <-- below {KERNEL_GATE}x gate"
    shares = ", ".join(f"{name} {record[name]['speedup']:.1f}x"
                       for name in passes)
    print(f"kernel: one-lane exact pass {t_cold * 1e3:.3f}ms -> "
          f"{t_hot * 1e3:.3f}ms ({speedup:.1f}x; {shares}) on "
          f"path_query({length}) p={p}, compile "
          f"{compile_s * 1e6 / n:.1f}us/instruction, "
          f"{kernel_bytes / 1024:.0f} KiB kept, identical: "
          f"{identical}{verdict}")
    return identical and speedup >= KERNEL_GATE, record


_HASHSEED_PROBE = """
import hashlib, json
from fractions import Fraction
from repro.booleans.circuit import WeightOverlay, compile_cnf
from repro.booleans.tape import flatten_circuit
from repro.core import catalog
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

query = catalog.rst_query()
tid = path_block(query, 6)
circuit = compile_cnf(lineage(query, tid))
tape = flatten_circuit(circuit)
variables = sorted(circuit.variables(), key=repr)
specs = [WeightOverlay(tid.probability,
                       {variables[j % len(variables)]:
                        Fraction(j + 1, 19)})
         for j in range(8)]
values = tape.evaluate(specs, numeric="exact")
print(json.dumps({
    "tape_sha256": hashlib.sha256(tape.to_bytes()).hexdigest(),
    "values": [str(v) for v in values],
}))
"""


def _probe(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _HASHSEED_PROBE], env=env,
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def check_hashseed_determinism() -> tuple[bool, dict]:
    """Tape bytes and exact values must be identical across
    ``PYTHONHASHSEED`` values (the store's warm-start contract)."""
    a, b = _probe("0"), _probe("12345")
    record = {"seeds": ["0", "12345"],
              "tape_sha256": a["tape_sha256"],
              "identical": a == b}
    if a != b:
        print("HASHSEED DRIFT: tape bytes or exact values differ "
              "between PYTHONHASHSEED=0 and 12345", file=sys.stderr)
        return False, record
    print(f"hashseed: tape bytes + exact values identical across "
          f"seeds (sha256 {a['tape_sha256'][:16]}...)")
    return True, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    shapes = [(8, 512)] if quick else [(8, 512), (8, 1024), (10, 1024)]
    ok = True
    records = []
    for p, k in shapes:
        shape_ok, record = check_tape_beats_node(p, k)
        ok &= shape_ok
        records.append(record)
    exact_p, exact_k = (8, 16) if quick else (10, 32)
    exact_ok, exact = check_integer_lanes(exact_p, exact_k)
    ok &= exact_ok
    wide_ok, wide = check_wide_denominators(exact_p, exact_k)
    ok &= wide_ok
    walks_ok, walks = check_tape_walks()
    ok &= walks_ok
    kernel_ok, kernel = check_compiled_kernel()
    ok &= kernel_ok
    seed_ok, seeds = check_hashseed_determinism()
    ok &= seed_ok
    _bench_io.emit("tape", {
        "quick": quick,
        "gate": SPEEDUP_GATE,
        "shapes": records,
        "exact": exact,
        "wide": wide,
        "walks": walks,
        "kernel": kernel,
        "hashseed": seeds,
        "ok": bool(ok),
    })
    if not ok:
        print("perf regression: the tape lost its float margin, the "
              "exact lanes drifted or picked the wrong arithmetic, the "
              "tape's sample or marginals drifted from the node walk "
              "or lost their margin, the compiled kernel drifted from "
              "the interpreter or lost its margin, or serialization "
              "broke determinism", file=sys.stderr)
        return 1
    print("ok: tape-float clears the gate, integer lanes equal the "
          "Fraction lanes, wide denominators take the Fraction lanes, "
          "sample and marginals equal and beat the node walk, "
          "the compiled kernel equals and beats the interpreter, "
          "serialization is hashseed-stable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
