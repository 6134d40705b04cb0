"""Brute-force possible-worlds evaluation (the validation oracles).

Enumerates all 2^n assignments to the uncertain tuples.  Exponential by
construction — used only to cross-validate the WMC engine, the lifted
evaluator, and the block-product formulas on small instances.  The
recursive Shannon-expansion counter ``shannon_probability`` (the WMC
engine before circuit compilation) lives here too, as the second
independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from typing import Mapping

from repro.booleans.circuit import branch_variable, make_lookup
from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components
from repro.core.queries import Query
from repro.tid.database import TID
from repro.tid.lineage import lineage

ONE = Fraction(1)


def cnf_probability_brute(formula: CNF,
                          prob: Mapping | None = None,
                          default: Fraction = Fraction(1, 2)) -> Fraction:
    """Pr(F) by summing over all assignments of F's variables."""
    lookup = make_lookup(prob, default)
    variables = sorted(formula.variables(), key=repr)
    total = Fraction(0)
    for bits in iter_product((False, True), repeat=len(variables)):
        weight = ONE
        true_vars = []
        for var, bit in zip(variables, bits):
            p = Fraction(lookup(var))
            weight *= p if bit else ONE - p
            if bit:
                true_vars.append(var)
        if weight and formula.evaluate(true_vars):
            total += weight
    return total


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


def probability_brute(query: Query, tid: TID) -> Fraction:
    """Pr(Q) over the TID by brute-force world enumeration."""
    if query.is_false():
        return Fraction(0)
    formula = lineage(query, tid)
    return cnf_probability_brute(formula, tid.probability)


def count_models(formula: CNF, variables=None) -> int:
    """The number of satisfying assignments over ``variables``
    (default: the formula's variables)."""
    variables = sorted(variables if variables is not None
                       else formula.variables(), key=repr)
    count = 0
    for bits in iter_product((False, True), repeat=len(variables)):
        true_vars = [v for v, bit in zip(variables, bits) if bit]
        if formula.evaluate(true_vars):
            count += 1
    return count
