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
* With Type-II clauses on one side, conditioning on the opposite unary
  count still works: per-constant factors depend only on the count and
  multiply (inclusion-exclusion over subclause choices, as in the
  safe plan: ``repro.tid.plans.subclause_choices``).
* Type-II clauses on *both* sides are rejected (outside this
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
from repro.tid.plans import subclause_choices
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
    has_left_t2 = any(c.side == "left" and c.is_type2
                      for c in query.clauses)
    has_right_t2 = any(c.side == "right" and c.is_type2
                       for c in query.clauses)
    if has_left_t2 and has_right_t2:
        raise ValueError(
            "Type-II clauses on both sides are outside the symmetric "
            "fast path; use the exact engine")
    if has_right_t2:
        return symmetric_probability(_mirror(query), _mirror_tid(stid))
    if has_left_t2:
        return _one_sided_type2(query, stid)
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
# One-sided Type II: condition on the T-count, per-u factors multiply
# ----------------------------------------------------------------------
def _one_sided_type2(query: Query, stid: SymmetricTID) -> Fraction:
    if query.full_clauses:
        raise ValueError("full clauses cannot mix with Type-II clauses")
    n, m = stid.n_left, stid.n_right
    p_r, p_t = Fraction(stid.p_left), Fraction(stid.p_right)
    lookup = lambda s: Fraction(stid.p_binary.get(s, ONE))  # noqa: E731

    left_clauses = list(query.left_clauses)
    middles = [j for c in query.middle_clauses for j in c.subclauses]
    # Right Type-I clauses: satisfied at T(v) = 1, otherwise their
    # subclause joins the per-(u, v) constraints.
    right_subs = [j for c in query.right_clauses for j in c.subclauses]

    def local(subclauses) -> Fraction:
        return cnf_probability(CNF(subclauses), lookup)

    def factor(t_true: int) -> Fraction:
        """Pr of the per-u event given l true T-tuples."""
        total = ZERO
        has_unary = any(LEFT_UNARY in c.unaries for c in left_clauses)
        cases = [(1 - p_r, False), (p_r, True)] if has_unary \
            else [(ONE, False)]
        for weight, r_true in cases:
            if weight == 0:
                continue
            active = [c for c in left_clauses
                      if not (r_true and LEFT_UNARY in c.unaries)]
            if any(not c.subclauses for c in active):
                continue
            total += weight * _choice_sum(
                active, middles, right_subs, t_true, m, local)
        return total

    total = ZERO
    for length in range(m + 1):
        weight = comb(m, length) * p_t ** length \
            * (1 - p_t) ** (m - length)
        if weight == 0:
            continue
        total += weight * factor(length) ** n
    return total


def _choice_sum(active, middles, right_subs, t_true, m, local) -> Fraction:
    """Inclusion-exclusion over Type-II subclause choices; each signed
    term is q1^l * q0^(m-l) with q depending on the T-value."""
    total = ZERO
    for sign, picked in subclause_choices(active):
        chosen = middles + picked
        q1 = local(chosen)
        q0 = local(chosen + right_subs)
        total += sign * q1 ** t_true * q0 ** (m - t_true)
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
