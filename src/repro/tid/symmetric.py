"""Symmetric tuple-independent databases: the tractable restriction of
Section 1.1.

The introduction contrasts the paper's negative result (restricting
*probability values* to {0, 1/2, 1} does not help) with known positive
results: Van den Broeck et al. prove that *symmetric* databases — every
tuple of a relation carries the same probability — make FO2 evaluation
polynomial-time, even for unsafe queries.  This module reproduces that
phenomenon on our bipartite fragment:

* For *pointwise* queries (every clause grounds per pair (u, v):
  left/right Type I, middle, and full clauses — including the hard
  H0!), conditioning on the number k of true R-tuples and l of true
  T-tuples makes all pairs independent:

      Pr(Q) = sum_{k,l} C(n,k) C(m,l) p_R^k (1-p_R)^{n-k}
              p_T^l (1-p_T)^{m-l} *
              q_11^{kl} q_10^{k(m-l)} q_01^{(n-k)l} q_00^{(n-k)(m-l)},

  an O(n * m) sum — versus #P-hardness on general databases.
* With clauses of several subclauses (Type II, or a unary atom OR'd
  with several subclauses) on one side, conditioning on the opposite
  unary count still works: per-constant factors depend only on the
  count and multiply.  The factor is the safe plan's
  (``repro.tid.plans.compile_component``: the Shannon step on the
  unary atom, inclusion-exclusion over subclause choices), with each
  signed term evaluated by counts.
* Such clauses on *both* sides are rejected (outside this
  restriction's easy fragment).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Mapping

from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.symbols import LEFT_UNARY, RIGHT_UNARY
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.plans import Shannon, compile_component
from repro.tid.wmc import cnf_probability

ONE = Fraction(1)
ZERO = Fraction(0)


@dataclass(frozen=True)
class SymmetricTID:
    """A bipartite TID where every relation is symmetric: all R-tuples
    share probability ``p_left``, all T-tuples ``p_right``, and every
    binary symbol S has a single probability ``p_binary[S]``."""

    n_left: int
    n_right: int
    p_left: Fraction
    p_right: Fraction
    p_binary: Mapping[str, Fraction]

    def materialize(self) -> TID:
        """The explicit TID (for cross-validation against exact WMC)."""
        U = [f"u{i}" for i in range(self.n_left)]
        V = [f"v{j}" for j in range(self.n_right)]
        probs = {}
        for u in U:
            probs[r_tuple(u)] = Fraction(self.p_left)
        for v in V:
            probs[t_tuple(v)] = Fraction(self.p_right)
        for symbol, p in self.p_binary.items():
            for u in U:
                for v in V:
                    probs[s_tuple(symbol, u, v)] = Fraction(p)
        return TID(U, V, probs)


def symmetric_probability(query: Query, stid: SymmetricTID) -> Fraction:
    """Pr(Q) over a symmetric TID, in polynomial time in the domain."""
    if query.is_false():
        return ZERO
    if query.is_true():
        return ONE
    # A side clause with several subclauses does not ground per pair
    # (u, v), with or without its unary atom.
    left_wide = any(c.side == "left" and len(c.subclauses) > 1
                    for c in query.clauses)
    right_wide = any(c.side == "right" and len(c.subclauses) > 1
                     for c in query.clauses)
    if left_wide and right_wide:
        raise ValueError(
            "clauses with several subclauses on both sides are outside "
            "the symmetric fast path; use the exact engine")
    if right_wide:
        return symmetric_probability(_mirror(query), _mirror_tid(stid))
    if left_wide:
        return _one_sided(query, stid)
    return _pointwise(query, stid)


# ----------------------------------------------------------------------
# Pointwise queries (left/right Type I, middle, full): (k, l) double sum
# ----------------------------------------------------------------------
def _pair_probability(query: Query, stid: SymmetricTID,
                      r_value: bool, t_value: bool) -> Fraction:
    """Pr that one pair (u, v) satisfies all pointwise constraints,
    given the unary values."""
    clauses = []
    for clause in query.clauses:
        if LEFT_UNARY in clause.unaries and r_value:
            continue
        if RIGHT_UNARY in clause.unaries and t_value:
            continue
        subs = clause.subclauses
        if not subs:
            return ZERO  # an unsatisfied unary-only clause
        (j,) = subs
        clauses.append(j)
    formula = CNF(clauses)
    return cnf_probability(
        formula, lambda symbol: Fraction(stid.p_binary.get(symbol, ONE)))


def _pointwise(query: Query, stid: SymmetricTID) -> Fraction:
    n, m = stid.n_left, stid.n_right
    p_r, p_t = Fraction(stid.p_left), Fraction(stid.p_right)
    q = {(a, b): _pair_probability(query, stid, bool(a), bool(b))
         for a in (0, 1) for b in (0, 1)}
    total = ZERO
    for k in range(n + 1):
        weight_k = comb(n, k) * p_r ** k * (1 - p_r) ** (n - k)
        if weight_k == 0:
            continue
        for length in range(m + 1):
            weight_l = comb(m, length) * p_t ** length \
                * (1 - p_t) ** (m - length)
            if weight_l == 0:
                continue
            term = (q[(1, 1)] ** (k * length)
                    * q[(1, 0)] ** (k * (m - length))
                    * q[(0, 1)] ** ((n - k) * length)
                    * q[(0, 0)] ** ((n - k) * (m - length)))
            total += weight_k * weight_l * term
    return total


# ----------------------------------------------------------------------
# One side of several-subclause clauses: condition on the T-count
# ----------------------------------------------------------------------
def _one_sided(query: Query, stid: SymmetricTID) -> Fraction:
    """Given l true T-tuples, the per-u factors are independent and
    equal, so Pr(Q) = sum_l C(m,l) p_T^l (1-p_T)^(m-l) factor(l)^n.
    The factor is the safe plan's, compiled from the left and middle
    clauses; each signed term, a local formula J, contributes
    q1^l * q0^(m-l) with q1 = Pr(J) and q0 = Pr(J and the right
    clauses' subclauses), which must hold where T(v) is false."""
    if query.full_clauses:
        raise ValueError(
            "full clauses cannot mix with clauses of several subclauses")
    n, m = stid.n_left, stid.n_right
    p_r, p_t = Fraction(stid.p_left), Fraction(stid.p_right)
    factor = compile_component(
        Query(query.left_clauses + query.middle_clauses)).factor
    branches = (factor.branches(p_r) if isinstance(factor, Shannon)
                else [(ONE, factor)])
    right = query.right_clauses
    right_subs = tuple(j for c in right for j in c.subclauses)
    # A unary-only right clause, forall y T(y), fails wherever T(v) does.
    falsified = any(not c.subclauses for c in right)

    def local(subclauses) -> Fraction:
        return cnf_probability(
            CNF(subclauses),
            lambda symbol: Fraction(stid.p_binary.get(symbol, ONE)))

    terms = [(weight * sign, local(term.formula.subclauses),
              ZERO if falsified
              else local(term.formula.subclauses + right_subs))
             for weight, choices in branches
             for sign, term in choices.terms]
    total = ZERO
    for length in range(m + 1):
        weight = comb(m, length) * p_t ** length \
            * (1 - p_t) ** (m - length)
        if weight == 0:
            continue
        per_u = sum((c * q1 ** length * q0 ** (m - length)
                     for c, q1, q0 in terms), ZERO)
        total += weight * per_u ** n
    return total


# ----------------------------------------------------------------------
# Mirroring (swap the roles of the two domains)
# ----------------------------------------------------------------------
def _mirror(query: Query) -> Query:
    from repro.core.clauses import Clause
    swapped = []
    for clause in query.clauses:
        if clause.side == "middle":
            swapped.append(clause)
            continue
        side = {"left": "right", "right": "left",
                "full": "full"}[clause.side]
        unaries = set()
        if LEFT_UNARY in clause.unaries:
            unaries.add(RIGHT_UNARY)
        if RIGHT_UNARY in clause.unaries:
            unaries.add(LEFT_UNARY)
        swapped.append(Clause(side, unaries, clause.subclauses))
    return Query(swapped)


def _mirror_tid(stid: SymmetricTID) -> SymmetricTID:
    return SymmetricTID(stid.n_right, stid.n_left, stid.p_right,
                        stid.p_left, stid.p_binary)
