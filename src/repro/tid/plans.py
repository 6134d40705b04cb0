"""Safe plans: the polynomial-time evaluator for safe queries.

This is the easy side of the dichotomy (Theorem 2.1), implemented once:
``safe_plan`` compiles a safe query into an explicit *plan tree* (the
classical "safe plan" artifact of probabilistic databases), and
``repro.tid.lifted.lifted_probability`` evaluates it.  The paper's two
observations before Definition 2.4 drive the compilation: a safe query
splits into symbol-disjoint components whose probabilities multiply,
and a component with no right clauses factorizes over the left domain,
Pr(Q) = prod_u Pr(Q[u/x]) (mirror-wise with no left clauses).  Each
factor expands its Type-II disjunctions OR_l forall y S_{J_l}(u, y) by
inclusion-exclusion over the (query-sized) set of subclause choices,
and each signed conjunction is a product over the opposite domain of a
constant-size CNF.  A plan evaluates any TID in time O(|U| * |V|) per
component for a fixed query, and pretty-prints why the query is
tractable: which independence it exploits, where the unary atom is
Shannon-expanded and where inclusion-exclusion runs.

Batching.  A ``DomainProduct`` walks its outer domain in doubling
chunks of 1, 2, 4, ... constants, and the factor below it returns one
value per constant of a chunk.  Each local formula runs as one exact
batch per chunk (``Tape.run_products`` over the formula's tape,
resolved once per evaluation): a lane per (outer, inner) pair, each
slot's lane row read straight from ``tid.probs``, and one product per
outer constant.  The walk stops at the first chunk whose product is 0,
so a zero factor costs at most twice the work up to it.  A
``PairProduct`` is one chunk: the whole left domain in one batch.

Plan node algebra:

    IndependentJoin [components multiply]
      IndependentOr [a full clause R(x) v T(y)]
      PairProduct [middle clauses only: one batch over U x V]
      DomainProduct(side) [factors over u in U or v in V, by chunks]
        Shannon(unary) [condition on R(u) / T(v), if it occurs]
          InclusionExclusion [over Type-II subclause choices]
            LocalProduct [one batch per chunk, over the opposite domain]
              LocalFormula [constant-size CNF of binary atoms]
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product
from math import prod
from typing import Iterator, Sequence

from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.core.safety import connected_components, is_unsafe
from repro.core.symbols import LEFT_UNARY, RIGHT_UNARY
from repro.tid.database import TID, r_tuple, t_tuple
from repro.tid.wmc import compiled, ensure_tape

ONE = Fraction(1)
ZERO = Fraction(0)


class UnsafeQueryError(ValueError):
    """Raised when a query has no safe plan."""


@dataclass(frozen=True)
class LocalFormula:
    """A constant-size CNF over the binary atoms at one (u, v)."""

    subclauses: tuple[frozenset[str], ...]

    def products(self, tid: TID, chunk: Sequence, left_side: bool,
                 tapes: dict) -> list[Fraction]:
        """For each constant w of ``chunk`` (on the left when
        ``left_side``), prod over the opposite domain of the formula's
        probability at the pair of w and the inner constant: one exact
        batch (``Tape.run_products``) over the formula's tape, with
        each slot's lane row read straight from ``tid.probs``.
        ``tapes`` holds the tapes one evaluation has resolved."""
        tape = tapes.get(self)
        if tape is None:
            formula = CNF(frozenset(j) for j in self.subclauses)
            tape = tapes[self] = ensure_tape(formula, compiled(formula))
        get, default = tid.probs.get, tid.default
        if left_side:
            inner = tid.right_domain
            rows = [[get((symbol, w, v), default)
                     for w in chunk for v in inner]
                    for symbol in tape.slots]
        else:
            inner = tid.left_domain
            rows = [[get((symbol, u, w), default)
                     for w in chunk for u in inner]
                    for symbol in tape.slots]
        return tape.run_products(rows, len(chunk), len(inner))

    def describe(self) -> str:
        inner = " & ".join(
            "(" + "|".join(sorted(j)) + ")" for j in self.subclauses)
        return f"local {inner or 'TRUE'}"


@dataclass(frozen=True)
class LocalProduct:
    """prod over the opposite domain of a local formula (independence
    across the inner constants)."""

    formula: LocalFormula
    left_side: bool  # the *outer* variable is on the left

    def values(self, tid: TID, chunk: Sequence, tapes: dict
               ) -> list[Fraction]:
        """One product per constant of ``chunk``, in one batch."""
        return self.formula.products(tid, chunk, self.left_side, tapes)

    def describe(self) -> str:
        domain = "v in V" if self.left_side else "u in U"
        return f"prod_{{{domain}}} {self.formula.describe()}"


@dataclass(frozen=True)
class InclusionExclusion:
    """Signed sum over subclause choices of Type-II disjunctions."""

    terms: tuple[tuple[int, LocalProduct], ...]

    def values(self, tid: TID, chunk: Sequence, tapes: dict
               ) -> list[Fraction]:
        """One signed sum per constant of ``chunk``: one batch per
        term."""
        totals = None
        for sign, term in self.terms:
            values = term.values(tid, chunk, tapes)
            if sign < 0:
                values = [-v for v in values]
            totals = values if totals is None \
                else [t + v for t, v in zip(totals, values)]
        return totals

    def describe(self) -> str:
        if len(self.terms) == 1 and self.terms[0][0] == 1:
            return self.terms[0][1].describe()
        parts = [f"{'+' if sign > 0 else '-'} {term.describe()}"
                 for sign, term in self.terms]
        return "incl-excl[ " + " ".join(parts) + " ]"


@dataclass(frozen=True)
class Shannon:
    """Condition on the unary atom of the outer constant.  A branch
    whose weight is 0 is skipped, and ``when_false`` is None when a
    falsified unary-only clause zeroes it."""

    unary: str
    when_false: InclusionExclusion | None
    when_true: InclusionExclusion

    def branches(self, p) -> list[tuple[Fraction, InclusionExclusion]]:
        """The expansion when the unary atom has probability ``p``:
        one ``(weight, factor)`` pair per branch that contributes."""
        branches = []
        if p != 1 and self.when_false is not None:
            branches.append((ONE - p, self.when_false))
        if p != 0:
            branches.append((p, self.when_true))
        return branches

    def values(self, tid: TID, chunk: Sequence, tapes: dict
               ) -> list[Fraction]:
        """One expansion per constant of ``chunk``: each branch runs
        once, over the constants that take it."""
        token = r_tuple if self.unary == LEFT_UNARY else t_tuple
        expansions = [self.branches(tid.probability(token(w)))
                      for w in chunk]
        totals = [ZERO] * len(chunk)
        for factor in (self.when_false, self.when_true):
            taken = [(i, weight) for i, expansion in enumerate(expansions)
                     for weight, branch in expansion if branch is factor]
            if not taken:
                continue
            values = factor.values(tid, [chunk[i] for i, _ in taken], tapes)
            for (i, weight), value in zip(taken, values):
                totals[i] += weight * value
        return totals

    def describe(self) -> str:
        false_part = "0" if self.when_false is None \
            else self.when_false.describe()
        return (f"shannon({self.unary}): [0 -> {false_part}] "
                f"[1 -> {self.when_true.describe()}]")


@dataclass(frozen=True)
class DomainProduct:
    """prod over the shared-variable domain of the per-constant factor
    (the first observation before Definition 2.4); the factor is
    Shannon-expanded when the side's clauses carry the unary atom.  The
    walk takes the domain in doubling chunks and stops at the first
    chunk whose product is 0 (see the module docstring)."""

    left_side: bool
    factor: Shannon | InclusionExclusion

    def evaluate(self, tid: TID) -> Fraction:
        outer = tid.left_domain if self.left_side else tid.right_domain
        tapes: dict = {}
        total = ONE
        start, size = 0, 1
        while start < len(outer):
            # The chunk's product first: small factors meet before they
            # meet the wide running total.
            total *= prod(self.factor.values(
                tid, outer[start:start + size], tapes), start=ONE)
            if total == 0:
                return ZERO
            start += size
            size *= 2
        return total

    def describe(self, indent: str = "") -> str:
        domain = "u in U" if self.left_side else "v in V"
        return (f"{indent}prod_{{{domain}}}\n"
                f"{indent}  {self.factor.describe()}")


@dataclass(frozen=True)
class PairProduct:
    """prod over every (u, v) of a local formula: a component of middle
    clauses only, whose ground atoms are independent pair by pair, in
    one chunk of the left domain."""

    formula: LocalFormula

    def evaluate(self, tid: TID) -> Fraction:
        return prod(self.formula.products(tid, tid.left_domain, True, {}),
                    start=ONE)

    def describe(self, indent: str = "") -> str:
        return f"{indent}prod_{{u in U, v in V}} {self.formula.describe()}"


@dataclass(frozen=True)
class IndependentOr:
    """A full clause R(x) v T(y) with no binary atoms: the independent
    disjunction (forall x R) v (forall y T)."""

    def evaluate(self, tid: TID) -> Fraction:
        pr_r = prod((tid.probability(r_tuple(u))
                     for u in tid.left_domain), start=ONE)
        pr_t = prod((tid.probability(t_tuple(v))
                     for v in tid.right_domain), start=ONE)
        return pr_r + pr_t - pr_r * pr_t

    def describe(self, indent: str = "") -> str:
        return (f"{indent}independent-or[ prod_{{u in U}} {LEFT_UNARY} "
                f"| prod_{{v in V}} {RIGHT_UNARY} ]")


@dataclass(frozen=True)
class IndependentJoin:
    """Symbol-disjoint components multiply (the second observation)."""

    components: tuple[DomainProduct | PairProduct | IndependentOr, ...]

    def evaluate(self, tid: TID) -> Fraction:
        total = ONE
        for component in self.components:
            total *= component.evaluate(tid)
            if total == 0:
                return ZERO
        return total

    def describe(self) -> str:
        lines = ["independent-join"]
        for component in self.components:
            lines.append(component.describe(indent="  "))
        return "\n".join(lines)


def safe_plan(query: Query) -> IndependentJoin:
    """Compile a safe bipartite query into a plan tree.

    Raises :class:`UnsafeQueryError` on unsafe input — there is no safe
    plan for those (that is the dichotomy) — and on a safe full clause
    sharing a symbol with another clause, which falls outside the
    paper's bipartite fragment.
    """
    if query.is_constant():
        raise ValueError("constant queries need no plan")
    if is_unsafe(query):
        raise UnsafeQueryError(f"no safe plan exists for {query!r}")
    components = []
    for component in connected_components(query):
        components.append(compile_component(component))
    return IndependentJoin(tuple(components))


def compile_component(component: Query):
    """The plan of one symbol-connected component of a safe query (or
    of any clause set with no clauses on one side): an
    ``IndependentOr`` for a lone full clause, a ``PairProduct`` for
    middle clauses alone, else a ``DomainProduct`` over the side's
    per-constant factor."""
    if component.full_clauses:
        # Safety leaves full clauses without binary atoms: R(x) v T(y).
        if len(component.clauses) > 1:
            raise UnsafeQueryError(
                "full clauses mixing with other clauses are outside the "
                "paper's bipartite fragment")
        return IndependentOr()
    middles = tuple(j for c in component.clauses if c.side == "middle"
                    for j in c.subclauses)
    # Safety puts left and right clauses in different components.
    left_side = any(c.side == "left" for c in component.clauses)
    side = "left" if left_side else "right"
    side_clauses = [c for c in component.clauses if c.side == side]
    if not side_clauses:
        return PairProduct(_local_formula(middles))
    unary_symbol = LEFT_UNARY if left_side else RIGHT_UNARY
    when_false = _compile_choices(side_clauses, middles, left_side)
    if not any(unary_symbol in c.unaries for c in side_clauses):
        return DomainProduct(left_side, when_false)
    when_true = _compile_choices(side_clauses, middles, left_side,
                                 satisfied=unary_symbol)
    return DomainProduct(left_side,
                         Shannon(unary_symbol, when_false, when_true))


def _local_formula(subclauses) -> LocalFormula:
    return LocalFormula(tuple(
        sorted(set(map(frozenset, subclauses)),
               key=lambda j: (len(j), sorted(j)))))


def _compile_choices(side_clauses, middles: Sequence[frozenset],
                     left_side: bool, satisfied: str | None = None
                     ) -> InclusionExclusion | None:
    """The factor's inclusion-exclusion once the clauses holding the
    unary atom ``satisfied`` (conditioned true, if any) drop out."""
    active = [c for c in side_clauses if satisfied not in c.unaries]
    if any(not c.subclauses for c in active):
        return None  # a falsified unary-only clause: contributes 0
    terms = []
    for sign, chosen in subclause_choices(active):
        local = _local_formula(list(middles) + chosen)
        terms.append((sign, LocalProduct(local, left_side)))
    return InclusionExclusion(tuple(terms))


def subclause_choices(clauses) -> Iterator[tuple[int, list[frozenset]]]:
    """Inclusion-exclusion over the Type-II disjunctions ``clauses``:
    one ``(sign, chosen)`` per pick of a non-empty subclause subset A_c
    from each clause c, where sign = prod_c (-1)^{|A_c|+1} and
    ``chosen`` lists the picked subclauses."""
    subset_lists = []
    for clause in clauses:
        options = []
        subs = clause.subclauses
        for size in range(1, len(subs) + 1):
            for combo in combinations(range(len(subs)), size):
                sign = -1 if size % 2 == 0 else 1
                options.append((sign, [subs[i] for i in combo]))
        subset_lists.append(options)
    for picks in iter_product(*subset_lists):
        sign = 1
        chosen: list[frozenset] = []
        for s, subclauses in picks:
            sign *= s
            chosen.extend(subclauses)
        yield sign, chosen
