"""Polynomial-time evaluation of *safe* bipartite queries.

This is the easy side of the dichotomy (Theorem 2.1).  The paper's two
observations before Definition 2.4 drive the algorithm:

1. a query with no right clauses factorizes over the left domain,
   Pr(Q) = prod_u Pr(Q[u/x]), and each factor is computable in
   polynomial time by inclusion-exclusion over the (query-sized) set of
   subclause choices;
2. a safe query splits into symbol-disjoint components, each having no
   right clauses or no left clauses, and probabilities multiply.

The per-u factor expands every Type-II disjunction
OR_l forall y S_{J_l}(u, y) by inclusion-exclusion:
indicator(OR_l E_l) = sum over non-empty A of (-1)^{|A|+1}
indicator(AND_{l in A} E_l), and each signed conjunction is a per-v
independent product of constant-size CNF probabilities.  The run time is
O(|U| * |V|) per component for a fixed query — genuinely PTIME in the
database.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iter_product
from math import prod

from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.safety import connected_components, is_unsafe
from repro.core.symbols import LEFT_UNARY, RIGHT_UNARY
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.wmc import compiled, ensure_tape

ONE = Fraction(1)
ZERO = Fraction(0)


class UnsafeQueryError(ValueError):
    """Raised when the lifted evaluator is handed an unsafe query."""


def lifted_probability(query: Query, tid: TID) -> Fraction:
    """Pr(Q) for a safe bipartite query, in polynomial time."""
    if query.is_false():
        return ZERO
    if query.is_true():
        return ONE
    if is_unsafe(query):
        raise UnsafeQueryError(f"query is unsafe: {query!r}")
    result = ONE
    for component in connected_components(query):
        result *= _component_probability(component, tid)
        if result == 0:
            return ZERO
    return result


def _component_probability(component: Query, tid: TID) -> Fraction:
    full = [c for c in component.clauses if c.side == "full"]
    if full:
        # Safe full clauses have no binary atoms: R(x) v T(y) is the
        # independent disjunction (forall x R) v (forall y T).
        if len(component.clauses) > 1 or full[0].binary_symbols:
            raise UnsafeQueryError(
                "full clauses mixing with other clauses are outside the "
                "paper's bipartite fragment")
        pr_r = ONE
        for u in tid.left_domain:
            pr_r *= tid.probability(r_tuple(u))
        pr_t = ONE
        for v in tid.right_domain:
            pr_t *= tid.probability(t_tuple(v))
        return pr_r + pr_t - pr_r * pr_t
    has_left = any(c.side == "left" for c in component.clauses)
    has_right = any(c.side == "right" for c in component.clauses)
    if has_left and has_right:  # pragma: no cover - excluded by safety
        raise UnsafeQueryError("component has both left and right clauses")
    if has_right:
        return _one_sided_probability(component, tid, left_side=False)
    if has_left:
        return _one_sided_probability(component, tid, left_side=True)
    return _middle_only_probability(component, tid)


def _middle_only_probability(component: Query, tid: TID) -> Fraction:
    subclauses = [j for c in component.clauses for j in c.subclauses]
    return prod(_local_probabilities(
        tid, subclauses, [(u, v) for u in tid.left_domain
                          for v in tid.right_domain]), start=ONE)


def _one_sided_probability(component: Query, tid: TID,
                           left_side: bool) -> Fraction:
    """prod over the shared-variable domain of the per-constant factor."""
    outer = tid.left_domain if left_side else tid.right_domain
    result = ONE
    for w in outer:
        result *= _factor_at(component, tid, w, left_side)
        if result == 0:
            return ZERO
    return result


def _factor_at(component: Query, tid: TID, w, left_side: bool) -> Fraction:
    """Pr(Q[w/x]) (or Q[w/y]) via inclusion-exclusion over subclause
    choices; middle clauses join every term as mandatory conjuncts."""
    side = "left" if left_side else "right"
    unary_symbol = LEFT_UNARY if left_side else RIGHT_UNARY
    unary_token = r_tuple(w) if left_side else t_tuple(w)
    inner = tid.right_domain if left_side else tid.left_domain

    side_clauses = [c for c in component.clauses if c.side == side]
    middles = [j for c in component.clauses if c.side == "middle"
               for j in c.subclauses]

    def conjunction_probability(chosen: list[frozenset[str]]) -> Fraction:
        """Pr(AND of chosen subclauses and middles), independent per
        inner constant."""
        return prod(_local_probabilities(
            tid, chosen + middles,
            [(w, z) if left_side else (z, w) for z in inner]), start=ONE)

    p_unary = tid.probability(unary_token)
    result = ZERO
    cases: list[tuple[Fraction, bool]] = []
    if any(unary_symbol in c.unaries for c in side_clauses):
        cases = [(ONE - p_unary, False), (p_unary, True)]
    else:
        cases = [(ONE, False)]
    for weight, unary_true in cases:
        if weight == 0:
            continue
        active = [c for c in side_clauses
                  if not (unary_true and unary_symbol in c.unaries)]
        if any(not c.subclauses for c in active):
            continue  # a falsified unary-only clause: contributes 0
        result += weight * _inclusion_exclusion(
            active, conjunction_probability)
    return result


def _inclusion_exclusion(active, conjunction_probability) -> Fraction:
    """sum over per-clause non-empty subclause subsets of the signed
    conjunction probabilities."""
    if not active:
        return conjunction_probability([])
    subset_lists = []
    for clause in active:
        subsets = []
        subs = clause.subclauses
        for size in range(1, len(subs) + 1):
            for combo in combinations(range(len(subs)), size):
                sign = -1 if size % 2 == 0 else 1
                subsets.append((sign, [subs[i] for i in combo]))
        subset_lists.append(subsets)
    total = ZERO
    for picks in iter_product(*subset_lists):
        sign = 1
        chosen: list[frozenset[str]] = []
        for s, subclauses in picks:
            sign *= s
            chosen.extend(subclauses)
        total += sign * conjunction_probability(chosen)
    return total


def _local_probabilities(tid: TID, subclauses, pairs) -> list[Fraction]:
    """Pr of the constant-size CNF AND_J (OR_{j in J} S_j(u,v)) for
    each ``(u, v)`` of ``pairs``: one batch over the CNF's circuit."""
    formula = CNF(frozenset(j) for j in subclauses)
    circuit = compiled(formula)
    ensure_tape(formula, circuit)
    return circuit.probability_batch([
        (lambda symbol, u=u, v=v: tid.probability(s_tuple(symbol, u, v)))
        for u, v in pairs])
