"""Exact weighted model counting over monotone CNF lineages.

This is the "#P oracle" of the reductions: given independent Boolean
variables with rational marginals, compute Pr(F) exactly.  Since PR 1
the default engine is *knowledge compilation*: the formula is compiled
once into a d-DNNF circuit (``repro.booleans.circuit``) whose trace
mirrors the classic search — unit-clause conditioning,
independent-component factorization, Shannon expansion on a most-shared
variable — and every evaluation is then a single linear pass over the
circuit.  A *two-tier* cache makes the repeated-evaluation workloads of
the reductions (block-matrix grids, Type-II sweeps, Vandermonde
interpolation) pay the exponential search at most once per formula:

* tier 1 is an in-process LRU keyed on the canonical CNF, bounded both
  by entry count and by cumulative circuit *size* (node count), so a
  handful of giant circuits cannot pin gigabytes the way a pure entry
  cap would;
* tier 2 is an optional content-addressed disk store
  (``repro.booleans.store``) shared across processes — install one via
  ``set_circuit_store`` or the ``REPRO_CIRCUIT_STORE`` environment
  variable and repeated CLI/service invocations skip recompilation
  entirely.

The pre-compilation recursive engine survives as
``shannon_probability``; it restarts its search on every call and is
kept as an independent validation oracle and as the benchmark baseline
(``benchmarks/bench_compile.py``).
"""

from __future__ import annotations

import os
import threading

from collections import OrderedDict
from fractions import Fraction
from typing import Mapping

from repro.booleans.adaptive import (
    ENGINE_LABELS,
    estimate_batch_with,
    estimate_with,
)
from repro.booleans.approximate import (
    AutoProbability,
    AutoSweep,
    DEFAULT_DELTA,
    DEFAULT_EPSILON,
)
from repro.booleans.circuit import (
    Circuit,
    CompilationBudgetExceeded,
    branch_variable,
    compile_cnf,
    make_lookup,
)
from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components
from repro import obs
from repro.booleans.tape import (
    Tape,
    adopt_tape,
    peek_tape,
    reset_tape_stats,
    tape_for_circuit,
    tape_stats,
)
from repro.core.queries import Query
from repro.tid.database import TID
from repro.tid.lineage import lineage

ONE = Fraction(1)

#: Guards every piece of module-level cache state below — the LRU
#: mapping and its node counter, the stats counters, the budget-failure
#: memo, and the store handle — so concurrent callers (the service's
#: worker pool, multi-threaded library users) can never corrupt the LRU
#: ordering or lose counter increments.  The *exponential* work
#: (``compile_cnf``) deliberately runs outside the lock: two threads
#: racing on the same formula at worst compile it twice (the second
#: result wins benignly in ``_remember``); callers that must not pay a
#: duplicate compilation dedupe in-flight work above this layer
#: (``repro.service.scheduler.CompilePool``).
_LOCK = threading.RLock()

#: Tier-1 compilation cache: canonical CNF -> compiled circuit, LRU.
_CIRCUIT_CACHE: OrderedDict[CNF, Circuit] = OrderedDict()
#: Secondary bound: maximum number of cached circuits.
_CACHE_ENTRY_LIMIT = 1024
#: Primary bound: maximum *cumulative* ``Circuit.size`` (node count)
#: across all cached circuits — the actual memory proxy.
_CACHE_NODE_LIMIT = 4_000_000
_cache_nodes = 0

#: Default exact-compilation budget of the ``auto`` policy: generous
#: enough that every workload in the test-suite and benchmarks compiles
#: exactly, small enough to abort genuinely adversarial lineages well
#: before they exhaust memory.
DEFAULT_BUDGET_NODES = 250_000

#: Counters for observability and the warm-start acceptance tests.
#: ``store_hits``/``store_misses`` cover the tier-2 disk store (misses
#: are only counted when a store is attached), so CI logs show whether
#: a warm start actually warm-started; ``budget_aborts`` counts
#: compilations abandoned by the ``auto`` policy's node budget.
_stats = {"hits": 0, "store_hits": 0, "store_misses": 0,
          "compiles": 0, "budget_aborts": 0}

#: Negative cache for the auto policy: formula -> the largest budget
#: known to be insufficient.  A blown budget means any request at or
#: below it fails too, so repeat auto calls on the same adversarial
#: lineage (e.g. ``evaluate_batch`` over many databases sharing one
#: lineage) skip straight to the estimator instead of redoing the
#: aborted exponential search.  Bounded FIFO; success (or ``adopt``)
#: clears the entry.
_BUDGET_FAILURES: OrderedDict[CNF, int] = OrderedDict()
_BUDGET_FAILURE_LIMIT = 128

#: Tier-2 disk store (``repro.booleans.store.CircuitStore``), or None.
#: ``False`` means "not yet initialized from the environment".
_STORE_ENV = "REPRO_CIRCUIT_STORE"
_circuit_store = False


def set_circuit_store(store) -> None:
    """Install the tier-2 disk store.

    ``store`` may be a ``CircuitStore``, a directory path (a store is
    created there), or None to disable persistence.  When never called,
    the ``REPRO_CIRCUIT_STORE`` environment variable (a directory path)
    is consulted on first use.
    """
    global _circuit_store
    if store is None or hasattr(store, "get"):
        with _LOCK:
            _circuit_store = store
    else:
        from repro.booleans.store import CircuitStore
        with _LOCK:
            _circuit_store = CircuitStore(store)


def get_circuit_store():
    """The active tier-2 store (resolving ``REPRO_CIRCUIT_STORE`` on
    first call), or None."""
    with _LOCK:
        if _circuit_store is False:
            path = os.environ.get(_STORE_ENV)
            set_circuit_store(path if path else None)
        return _circuit_store


def set_cache_limits(max_nodes: int | None = None,
                     max_entries: int | None = None) -> None:
    """Tune the tier-1 bounds (None keeps the current value)."""
    global _CACHE_NODE_LIMIT, _CACHE_ENTRY_LIMIT
    if max_nodes is not None and max_nodes <= 0:
        raise ValueError("max_nodes must be positive")
    if max_entries is not None and max_entries <= 0:
        raise ValueError("max_entries must be positive")
    with _LOCK:
        if max_nodes is not None:
            _CACHE_NODE_LIMIT = max_nodes
        if max_entries is not None:
            _CACHE_ENTRY_LIMIT = max_entries
        _evict()


def cache_info() -> dict:
    """Both cache tiers at a glance: tier-1 occupancy and limits, the
    lifetime counters (memory hits, disk-store hits *and* misses,
    compilations, budget aborts), and whether a tier-2 store is
    attached — enough to read warm-start behaviour off a CI log."""
    store = get_circuit_store()
    with _LOCK:
        info = {
            "entries": len(_CIRCUIT_CACHE),
            "nodes": _cache_nodes,
            "entry_limit": _CACHE_ENTRY_LIMIT,
            "node_limit": _CACHE_NODE_LIMIT,
            "store_attached": store is not None,
            **_stats,
        }
    # Tape counters (tape_hits / tape_flattens / tape_bytes) live in
    # the tape module — flattened tapes ride on circuit objects, so the
    # counters are process-global like ours.  Merged here so the
    # service ``stats`` op and warm-start assertions see one dict.
    info.update(tape_stats())
    return info


def _evict() -> None:
    """Drop LRU entries until both bounds hold (the most recent entry
    always survives, even when it alone exceeds the node limit).
    Caller holds ``_LOCK``."""
    global _cache_nodes
    while len(_CIRCUIT_CACHE) > 1 and (
            len(_CIRCUIT_CACHE) > _CACHE_ENTRY_LIMIT
            or _cache_nodes > _CACHE_NODE_LIMIT):
        _, evicted = _CIRCUIT_CACHE.popitem(last=False)
        _cache_nodes -= evicted.size


def _remember(formula: CNF, circuit: Circuit) -> None:
    """Caller holds ``_LOCK``."""
    global _cache_nodes
    replaced = _CIRCUIT_CACHE.pop(formula, None)
    if replaced is not None:
        _cache_nodes -= replaced.size
    _CIRCUIT_CACHE[formula] = circuit
    _cache_nodes += circuit.size
    _evict()


def compiled(formula: CNF,
             budget_nodes: int | None = None) -> Circuit:
    """The d-DNNF circuit of ``formula``, compiled at most once.

    Equal CNFs (structural equality is logical equivalence for
    minimized monotone CNFs) share one circuit across the whole
    process.  Lookup order: tier-1 memory LRU, then the disk store
    (hits are promoted into memory), then compilation (the result is
    written through to both tiers).

    ``budget_nodes`` bounds a *fresh* compilation
    (``CompilationBudgetExceeded`` propagates to the caller); circuits
    already sitting in either cache tier are returned regardless of
    their size — the exponential work is sunk, so answering exactly is
    strictly better than estimating.  Budget failures are negatively
    cached: once a formula has blown a budget, later calls at or below
    that budget raise immediately instead of redoing the aborted
    search (the disk store is still consulted first, in case another
    process finished the compilation).
    """
    with _LOCK:
        circuit = _CIRCUIT_CACHE.get(formula)
        if circuit is not None:
            _CIRCUIT_CACHE.move_to_end(formula)
            _stats["hits"] += 1
            return circuit
    store = get_circuit_store()
    if store is not None:
        # Disk I/O runs unlocked; re-check the memory tier afterwards
        # in case a concurrent thread finished the same lookup first.
        circuit = store.get(formula)
        with _LOCK:
            if circuit is not None:
                _stats["store_hits"] += 1
                _remember(formula, circuit)
                return circuit
            _stats["store_misses"] += 1
            raced = _CIRCUIT_CACHE.get(formula)
            if raced is not None:
                _CIRCUIT_CACHE.move_to_end(formula)
                _stats["hits"] += 1
                return raced
    if budget_nodes is not None:
        with _LOCK:
            known_insufficient = _BUDGET_FAILURES.get(formula)
            if known_insufficient is not None and \
                    budget_nodes <= known_insufficient:
                _stats["budget_aborts"] += 1
                raise CompilationBudgetExceeded(budget_nodes)
    try:
        # The exponential search runs outside the lock so one hard
        # compilation cannot stall unrelated cache traffic.  The span
        # covers only a *fresh* compilation — cache hits above return
        # without touching the tracer, keeping the warm path free of
        # instrumentation cost and the stage durations disjoint.
        with obs.span("compile", budget=budget_nodes or 0) as sp:
            circuit = compile_cnf(formula, budget_nodes)
            sp.tag(nodes=circuit.size)
    except CompilationBudgetExceeded:
        with _LOCK:
            _stats["budget_aborts"] += 1
            _BUDGET_FAILURES[formula] = max(
                _BUDGET_FAILURES.get(formula, 0), budget_nodes)
            _BUDGET_FAILURES.move_to_end(formula)
            while len(_BUDGET_FAILURES) > _BUDGET_FAILURE_LIMIT:
                _BUDGET_FAILURES.popitem(last=False)
        raise
    with _LOCK:
        _BUDGET_FAILURES.pop(formula, None)
        _stats["compiles"] += 1
        _remember(formula, circuit)
    if store is not None:
        # Write-through is best-effort, mirroring the read side (which
        # treats unreadable entries as misses): a read-only or full
        # store directory must not fail a query whose compilation
        # already succeeded.
        try:
            store.put(formula, circuit)
        except OSError:
            pass
    return circuit


def is_cached(formula: CNF) -> bool:
    """Whether ``formula``'s circuit sits in the tier-1 memory cache
    right now — a pure probe: no counters move, no LRU reordering.
    The service uses this to decide whether a sweep should pay the
    coalescing window (cold compile ahead: batch up) or answer
    immediately (circuit already hot: the pass is linear anyway)."""
    with _LOCK:
        return formula in _CIRCUIT_CACHE


def adopt(formula: CNF, circuit: Circuit) -> None:
    """Install a pre-built circuit (e.g. deserialized from a file) as
    ``formula``'s compilation, so subsequent ``compiled``/sweep calls
    skip the exponential search entirely."""
    with _LOCK:
        _BUDGET_FAILURES.pop(formula, None)
        _remember(formula, circuit)


def ensure_tape(formula: CNF, circuit: Circuit) -> Tape:
    """The instruction tape for an already-compiled ``circuit``,
    without flattening twice across warm processes.

    Lookup order mirrors ``compiled``: the tape already attached to
    the circuit (tier 1 — tapes share the circuit's LRU lifetime),
    then the disk store's ``.tape`` sidecar (adopted only when it
    matches this circuit's node table), then a fresh flattening whose
    result is written through to the store best-effort.  A warm
    service therefore performs *zero* re-flattens on repeats — the
    ``tape_flattens`` counter in ``cache_info`` proves it.

    An attached tape is returned without counting a ``tape_hits``:
    the kernel call that follows counts the reuse, once.
    """
    tape = peek_tape(circuit)
    if tape is not None:
        return tape
    store = get_circuit_store()
    if store is not None and hasattr(store, "get_tape"):
        stored = store.get_tape(formula)
        if stored is not None:
            adopt_tape(circuit, stored)
            tape = peek_tape(circuit)
            if tape is not None:
                return tape
    tape = tape_for_circuit(circuit)
    if store is not None and hasattr(store, "put_tape"):
        try:
            store.put_tape(formula, tape)
        except OSError:
            pass
    return tape


def clear_circuit_cache() -> None:
    """Drop all tier-1 circuits, the budget-failure memo, and the
    counters (mainly for tests and benchmarks; the disk store is
    untouched)."""
    global _cache_nodes
    with _LOCK:
        _CIRCUIT_CACHE.clear()
        _BUDGET_FAILURES.clear()
        _cache_nodes = 0
        for key in _stats:
            _stats[key] = 0
    reset_tape_stats()


def probability(query: Query, tid: TID) -> Fraction:
    """Pr(Q) over the TID: ground to lineage, then compile + evaluate."""
    if query.is_false():
        return Fraction(0)
    formula = lineage(query, tid)
    return cnf_probability(formula, tid.probability)


def cnf_probability(formula: CNF, prob: Mapping | None = None,
                    default: Fraction | None = None) -> Fraction:
    """Exact Pr(F) for a monotone CNF with independent variables.

    ``prob`` maps variables to marginals; it may be a dict or a callable.
    Missing variables use ``default`` (or 1/2 when unspecified).  The
    first call for a given formula compiles it (cost comparable to one
    run of ``shannon_probability``); subsequent calls with any weight
    vector are linear in the circuit size.
    """
    circuit = compiled(formula)
    ensure_tape(formula, circuit)
    return circuit.probability(prob, default)


# ----------------------------------------------------------------------
# The budgeted "auto" policy: exact under budget, else estimate
# ----------------------------------------------------------------------
def _planned_budget(formula: CNF, budget_nodes, planner):
    """Resolve the effective budget, via the planner when one is
    given (``repro.booleans.adaptive.BudgetPlanner``)."""
    if planner is None:
        return budget_nodes
    return planner.budget_for(formula, budget_nodes)


def _observe(planner, formula: CNF, circuit: Circuit) -> None:
    """Report a successful compilation back to the budget planner so
    its circuit-size trajectory keeps learning online."""
    if planner is not None and len(formula):
        planner.observe(len(formula), circuit.size)


def cnf_probability_auto(formula: CNF, prob: Mapping | None = None,
                         default: Fraction | None = None, *,
                         budget_nodes: int | None = DEFAULT_BUDGET_NODES,
                         epsilon=DEFAULT_EPSILON,
                         delta=DEFAULT_DELTA,
                         rng=None,
                         estimator: str = "hoeffding",
                         relative_error=None,
                         planner=None) -> AutoProbability:
    """Pr(F) by the ``auto`` policy: exact compilation while it stays
    under ``budget_nodes`` interned nodes, Monte-Carlo estimation with
    an (epsilon, delta) guarantee once it blows past.

    ``estimator`` picks the past-budget sampler: ``"hoeffding"`` (the
    fixed-n PR 3 estimator), ``"adaptive"`` (sequential
    empirical-Bernstein, stops early on low-variance lineages), or
    ``"importance"`` (self-normalized tilted sampling for small
    probabilities); ``relative_error`` switches the sequential
    samplers to a relative-width target.  ``planner`` — a
    ``repro.booleans.adaptive.BudgetPlanner`` — overrides
    ``budget_nodes`` with a per-formula plan from the observed
    circuit-size trajectory, and successful compilations feed the
    trajectory back.

    The returned ``AutoProbability`` records which engine answered
    (``engine`` is ``"exact"``, ``"estimate"``, ``"adaptive"``, or
    ``"importance"``) and, on the sampled paths, the full
    ``ProbabilityEstimate`` with its interval.  A budget of None never
    degrades (plain ``cnf_probability`` semantics).
    """
    budget_nodes = _planned_budget(formula, budget_nodes, planner)
    try:
        circuit = compiled(formula, budget_nodes)
    except CompilationBudgetExceeded:
        estimate = estimate_with(estimator, formula, prob, epsilon,
                                 delta, rng, default, relative_error)
        return AutoProbability(estimate.estimate,
                               ENGINE_LABELS[estimator], estimate)
    _observe(planner, formula, circuit)
    ensure_tape(formula, circuit)
    return AutoProbability(circuit.probability(prob, default), "exact")


def probability_batch_auto(formula: CNF, weight_specs,
                           default: Fraction | None = None, *,
                           budget_nodes: int | None =
                           DEFAULT_BUDGET_NODES,
                           epsilon=DEFAULT_EPSILON,
                           delta=DEFAULT_DELTA,
                           rng=None,
                           numeric: str = "exact",
                           estimator: str = "hoeffding",
                           relative_error=None,
                           planner=None,
                           cross_check: int = 0) -> AutoSweep:
    """Many-weight-vector ``auto``: one budgeted compilation backing a
    batched circuit pass, or — past budget — one estimate per weight
    vector via the chosen ``estimator`` (each vector re-samples; a
    single shared ``rng`` keeps the whole sweep reproducible, and the
    sequential samplers stop each vector as early as its variance
    allows).  ``planner`` plans the budget per formula as in
    ``cnf_probability_auto``; a ``budget_nodes`` of None (and no
    planner) never degrades.

    This is the one sweep path: the reduction sweeps
    (``block_matrix.z_matrix_direct``,
    ``type2_spectral.link_matrix_sweep``,
    ``TypeIIStructure.y_probability_sweep``),
    ``repro.evaluation.probability_sweep``, ``repro sweep`` and the
    service's ``sweep`` op all run through it.  ``numeric="float"``
    yields float values from either engine (the ``estimates`` list
    keeps the exact rationals); a ``numeric`` other than ``"exact"``
    or ``"float"`` raises ``ValueError`` before any work.  On the
    exact engine, a float sweep re-evaluates up to ``cross_check``
    evenly-spaced vectors exactly, in one batch, and raises
    ``ArithmeticError`` naming the first vector whose float value
    drifts beyond 1e-9 relative tolerance.
    """
    if numeric not in ("exact", "float"):
        raise ValueError(
            f"numeric must be 'exact' or 'float', got {numeric!r}")
    weight_specs = list(weight_specs)
    budget_nodes = _planned_budget(formula, budget_nodes, planner)
    try:
        circuit = compiled(formula, budget_nodes)
    except CompilationBudgetExceeded:
        estimates = estimate_batch_with(
            estimator, formula, weight_specs, epsilon, delta, rng,
            default, relative_error)
        values = [e.estimate for e in estimates]
        if numeric == "float":
            values = [float(v) for v in values]
        return AutoSweep(values, ENGINE_LABELS[estimator], estimates)
    _observe(planner, formula, circuit)
    # Resolving the tape here lets a store's sidecar satisfy the
    # flattening, so warm services never re-flatten.
    ensure_tape(formula, circuit)
    values = circuit.probability_batch(weight_specs, default, numeric)
    if numeric == "float" and cross_check and weight_specs:
        step = max(1, len(weight_specs) // cross_check)
        picked = list(range(0, len(weight_specs), step))[:cross_check]
        exacts = circuit.probability_batch(
            [weight_specs[i] for i in picked], default)
        for i, exact in zip(picked, map(float, exacts)):
            if abs(values[i] - exact) > 1e-9 * max(1.0, abs(exact)):
                raise ArithmeticError(
                    f"float sweep drifted at vector {i}: "
                    f"float={values[i]!r} exact={exact!r}")
    return AutoSweep(values, "exact")


# ----------------------------------------------------------------------
# The legacy recursive engine (validation oracle / benchmark baseline)
# ----------------------------------------------------------------------
def shannon_probability(formula: CNF, prob: Mapping | None = None,
                        default: Fraction | None = None) -> Fraction:
    """Pr(F) by the pre-compilation recursive engine.

    Recomputes from scratch on every call (the memo cache is per-call),
    exactly as ``cnf_probability`` behaved before the circuit backend;
    kept as an independent implementation for cross-checks and as the
    recompute-every-call baseline in ``benchmarks/bench_compile.py``.
    """
    lookup = make_lookup(prob, default)
    cache: dict[CNF, Fraction] = {}
    return _probability(formula, lookup, cache)


def _probability(formula: CNF, prob, cache) -> Fraction:
    if formula.is_true():
        return ONE
    if formula.is_false():
        return Fraction(0)
    hit = cache.get(formula)
    if hit is not None:
        return hit

    result = _probability_uncached(formula, prob, cache)
    cache[formula] = result
    return result


def _probability_uncached(formula: CNF, prob, cache) -> Fraction:
    # Unit clauses force their variable true.  Like the compiler
    # (circuit.py), pick the min-by-repr unit rather than the first in
    # frozenset iteration order, which varies with PYTHONHASHSEED —
    # the result is the same either way, but the recursion trace (and
    # hence timing and cache shape) stays run-to-run deterministic.
    units = [clause for clause in formula.clauses if len(clause) == 1]
    if units:
        var = min((next(iter(c)) for c in units), key=repr)
        p = Fraction(prob(var))
        if p == 0:
            return Fraction(0)
        return p * _probability(formula.condition(var, True),
                                prob, cache)

    groups = clause_components(formula)
    if len(groups) > 1:
        result = ONE
        for group in groups:
            result *= _probability(CNF._from_minimized(group), prob, cache)
            if result == 0:
                return result
        return result

    var = branch_variable(formula)
    p = Fraction(prob(var))
    high = _probability(formula.condition(var, True), prob, cache)
    if p == ONE:
        return high
    low = _probability(formula.condition(var, False), prob, cache)
    return p * high + (ONE - p) * low
