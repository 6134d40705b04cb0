"""E13 — the dichotomy census: PTIME lifted evaluation vs exponential
exact WMC.

Shape expectations: on safe queries the lifted evaluator scales
polynomially with the domain while exact WMC on the same instances
blows up; both agree exactly wherever both run.  Unsafe queries are
classified with their type and length.

The safe plan walks its outer domain in doubling chunks, one exact
batch per local formula and chunk.  Script mode gates it against the
per-constant evaluation it replaced (``per_constant_probability``, one
closure-probed batch per outer constant and local formula, kept here as
the baseline, as ``bench_tape`` keeps ``node_float_batch``) on the
``serve`` deck's safe query ``(R|S1|S2)(S2|S3)`` over ``path_block`` at
p = 4, 12 and 24, on ``random_tid``'s {0, 1/2, 1} shape at n = 4 and 16
for that query and ``catalog.safe_left_only()``, and on a TID drawing
from 40 distinct 200-bit-denominator values at n = 4 and 12.  Every
shape must return the baseline's ``Fraction``, the p = 12 block must
run **>= 2x** faster than the baseline, and no shape may take more than
1.25x the baseline's time (a margin for noise on shared runners).

Runable two ways:

* ``pytest benchmarks/bench_dichotomy.py`` — pytest-benchmark timings;
* ``python benchmarks/bench_dichotomy.py [--quick]`` — the gate above
  (CI uses ``--quick``), best of 9 runs per shape (25 without
  ``--quick``, which also adds p = 8 and 16); it exits non-zero if a
  value differs or a gate fails and writes ``BENCH_dichotomy.json``
  through ``_bench_io.emit``.
"""

import random
import sys
import time
from fractions import Fraction
from math import prod

import pytest

import _bench_io

from repro.booleans.cnf import CNF
from repro.core import catalog
from repro.core.queries import parse_query
from repro.core.safety import is_safe, query_length, query_type
from repro.core.symbols import LEFT_UNARY
from repro.reduction.blocks import path_block
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lifted import lifted_probability
from repro.tid.plans import (
    DomainProduct, InclusionExclusion, PairProduct, Shannon, safe_plan,
)
from repro.tid.wmc import compiled, probability

F = Fraction
ONE = F(1)
ZERO = F(0)

#: The serve deck's safe query (``perfbench/serve_workload.py``).
SERVE_QUERY = "(R|S1|S2)(S2|S3)"
#: The plan over the baseline on the p = 12 block.
SPEEDUP_GATE = 2.0
#: The most any shape may take over the baseline.
SLOWDOWN_GATE = 1.25


def _tid(query, n, rng, values):
    U = [f"u{i}" for i in range(n)]
    V = [f"v{j}" for j in range(n)]
    probs = {}
    for u in U:
        probs[r_tuple(u)] = rng.choice(values)
    for v in V:
        probs[t_tuple(v)] = rng.choice(values)
    for s in sorted(query.binary_symbols):
        for u in U:
            for v in V:
                probs[s_tuple(s, u, v)] = rng.choice(values)
    return TID(U, V, probs)


def random_tid(query, n, seed=0):
    return _tid(query, n, random.Random(seed), [F(0), F(1, 2), F(1)])


def wide_tid(query, n, seed=0, count=40, bits=200):
    """``random_tid``'s shape over ``count`` distinct values, each over
    its own ``bits``-bit denominator."""
    rng = random.Random(seed)
    values = []
    for _ in range(count):
        denominator = rng.getrandbits(bits) | (1 << (bits - 1))
        values.append(F(rng.randrange(1, denominator), denominator))
    return _tid(query, n, rng, values)


# ----------------------------------------------------------------------
# The baseline: the per-constant evaluation the chunked walk replaced
# ----------------------------------------------------------------------
def _local(formula, tid, pairs) -> Fraction:
    cnf = CNF(frozenset(j) for j in formula.subclauses)
    return prod(compiled(cnf).probability_batch([
        (lambda symbol, u=u, v=v: tid.probability(
            s_tuple(symbol, u, v)))
        for u, v in pairs]), start=ONE)


def _factor(factor, tid, w) -> Fraction:
    if isinstance(factor, Shannon):
        token = r_tuple(w) if factor.unary == LEFT_UNARY else t_tuple(w)
        return sum((weight * _factor(branch, tid, w)
                    for weight, branch
                    in factor.branches(tid.probability(token))), ZERO)
    if isinstance(factor, InclusionExclusion):
        return sum((sign * _factor(term, tid, w)
                    for sign, term in factor.terms), ZERO)
    if factor.left_side:
        pairs = [(w, v) for v in tid.right_domain]
    else:
        pairs = [(u, w) for u in tid.left_domain]
    return _local(factor.formula, tid, pairs)


def per_constant_probability(query, tid) -> Fraction:
    """Pr(Q) by the safe plan's per-constant evaluation: one batch per
    outer constant and local formula, stopping at the first zero."""
    total = ONE
    for component in safe_plan(query).components:
        if isinstance(component, DomainProduct):
            outer = tid.left_domain if component.left_side \
                else tid.right_domain
            value = ONE
            for w in outer:
                value *= _factor(component.factor, tid, w)
                if value == 0:
                    break
        elif isinstance(component, PairProduct):
            value = _local(component.formula, tid, [
                (u, v) for u in tid.left_domain
                for v in tid.right_domain])
        else:
            value = component.evaluate(tid)
        total *= value
        if total == 0:
            return ZERO
    return total


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_e13_lifted_scaling(benchmark, n):
    """The PTIME side: domain grows, lifted evaluation stays fast."""
    query = catalog.safe_left_only()
    tid = random_tid(query, n, seed=n)
    value = benchmark(lifted_probability, query, tid)
    assert 0 <= value <= 1
    benchmark.extra_info["domain"] = n


@pytest.mark.parametrize("n", [2, 3, 4])
def test_e13_wmc_same_instances(benchmark, n):
    """Exact WMC on the same instances: correct but exponential — the
    crossover against the lifted numbers is the dichotomy's shape."""
    query = catalog.safe_left_only()
    tid = random_tid(query, n, seed=n)
    value = benchmark(probability, query, tid)
    assert value == lifted_probability(query, tid)
    benchmark.extra_info["domain"] = n


def test_e13_census(benchmark):
    """Static analysis of the full catalog is instantaneous."""

    def classify():
        table = []
        for name, ctor, _ in catalog.CENSUS:
            q = ctor()
            table.append((name, is_safe(q), query_type(q),
                          query_length(q)))
        return table

    table = benchmark(classify)
    assert len(table) == len(catalog.CENSUS)
    unsafe_count = sum(1 for _, safe, _, _ in table if not safe)
    benchmark.extra_info["unsafe"] = unsafe_count
    benchmark.extra_info["safe"] = len(table) - unsafe_count


# ----------------------------------------------------------------------
# Script / CI smoke mode
# ----------------------------------------------------------------------
def shapes(quick: bool) -> list:
    """``(name, query, tid)`` per gated shape."""
    serve = parse_query(SERVE_QUERY)
    left = catalog.safe_left_only()
    found = [(f"serve path_block p={p}", serve, path_block(serve, p))
             for p in ((4, 12, 24) if quick else (4, 8, 12, 16, 24))]
    for n in (4, 16):
        found.append((f"serve half n={n}", serve,
                      random_tid(serve, n, seed=n)))
        found.append((f"safe_left_only half n={n}", left,
                      random_tid(left, n, seed=n)))
    for n in (4, 12):
        found.append((f"serve wide n={n}", serve,
                      wide_tid(serve, n, seed=n)))
    return found


def check_shape(name, query, tid, repeats) -> tuple[bool, dict]:
    """Best of ``repeats`` runs of the plan and of the baseline, taking
    turns; the values must be equal."""
    want = per_constant_probability(query, tid)
    got = lifted_probability(query, tid)
    t_plan = t_base = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        lifted_probability(query, tid)
        t_plan = min(t_plan, time.perf_counter() - start)
        start = time.perf_counter()
        per_constant_probability(query, tid)
        t_base = min(t_base, time.perf_counter() - start)
    speedup = t_base / t_plan
    record = {"shape": name, "left": len(tid.left_domain),
              "right": len(tid.right_domain),
              "plan_ms": round(t_plan * 1e3, 4),
              "baseline_ms": round(t_base * 1e3, 4),
              "speedup": round(speedup, 2), "identical": got == want}
    verdict = ""
    if got != want:
        verdict = "  <-- VALUE DIFFERS"
    elif t_plan > SLOWDOWN_GATE * t_base:
        verdict = f"  <-- over {SLOWDOWN_GATE}x the baseline"
    print(f"{name:28s} plan {t_plan * 1e3:8.3f}ms  baseline "
          f"{t_base * 1e3:8.3f}ms  ({speedup:4.1f}x){verdict}")
    return not verdict, record


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    repeats = 9 if quick else 25
    ok = True
    records = []
    for name, query, tid in shapes(quick):
        shape_ok, record = check_shape(name, query, tid, repeats)
        ok &= shape_ok
        records.append(record)
    gated = next(r for r in records
                 if r["shape"] == "serve path_block p=12")
    if gated["speedup"] < SPEEDUP_GATE:
        print(f"p=12: {gated['speedup']}x, under the {SPEEDUP_GATE}x "
              f"gate", file=sys.stderr)
        ok = False
    _bench_io.emit("dichotomy", {
        "quick": quick,
        "repeats": repeats,
        "gate": SPEEDUP_GATE,
        "slowdown_gate": SLOWDOWN_GATE,
        "p12_speedup": gated["speedup"],
        "min_speedup": min(r["speedup"] for r in records),
        "shapes": records,
        "ok": bool(ok),
    })
    if not ok:
        print("lifted regression: the safe plan differs from the "
              "per-constant baseline, is under "
              f"{SPEEDUP_GATE}x faster at p=12, or takes over "
              f"{SLOWDOWN_GATE}x the baseline on a shape",
              file=sys.stderr)
        return 1
    print(f"ok: the safe plan equals the per-constant baseline on every "
          f"shape, clears {SPEEDUP_GATE}x at p=12 and stays within "
          f"{SLOWDOWN_GATE}x everywhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
