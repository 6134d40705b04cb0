"""Bipartite forall-CNF queries (duals of UCQs).

A :class:`Query` is a conjunction of clauses, kept minimized: clauses are
individually minimized (subclause absorption, done by :class:`Clause`)
and redundant clauses — those into which another clause maps
homomorphically — are removed, as the paper assumes throughout.

Queries are immutable values; rewriting ``Q[S := 0]`` / ``Q[S := 1]``
(Lemma 2.7) returns new queries.  The constant queries ``Query.TRUE``
(empty conjunction) and ``Query.FALSE`` (some clause became
unsatisfiable) are first-class so rewritings always compose.
"""

from __future__ import annotations

import re

from typing import Iterable

from repro.core.clauses import Clause
from repro.core.homomorphism import minimize_clause_set


class Query:
    """An immutable, minimized bipartite forall-CNF query."""

    __slots__ = ("clauses", "_false", "_hash")

    def __init__(self, clauses: Iterable[Clause] = (), *,
                 _false: bool = False):
        self._false = _false
        self.clauses: tuple[Clause, ...] = (
            () if _false else minimize_clause_set(clauses))
        self._hash: int | None = None

    # ------------------------------------------------------------------
    TRUE: "Query"
    FALSE: "Query"

    def is_true(self) -> bool:
        return not self._false and not self.clauses

    def is_false(self) -> bool:
        return self._false

    def is_constant(self) -> bool:
        return self.is_true() or self.is_false()

    # ------------------------------------------------------------------
    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(s for c in self.clauses for s in c.symbols)

    @property
    def binary_symbols(self) -> frozenset[str]:
        return frozenset(s for c in self.clauses for s in c.binary_symbols)

    @property
    def left_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.side == "left")

    @property
    def middle_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.side == "middle")

    @property
    def right_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.side == "right")

    @property
    def full_clauses(self) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.side == "full")

    def conjoin(self, other: "Query") -> "Query":
        if self.is_false() or other.is_false():
            return Query.FALSE
        return Query(self.clauses + other.clauses)

    def __and__(self, other: "Query") -> "Query":
        return self.conjoin(other)

    # ------------------------------------------------------------------
    # Rewriting (Lemma 2.7)
    # ------------------------------------------------------------------
    def set_symbol(self, symbol: str, value: bool) -> "Query":
        """Q[symbol := value], minimized (Lemma 2.7)."""
        if self.is_constant():
            return self
        new_clauses: list[Clause] = []
        for clause in self.clauses:
            result = clause.set_symbol(symbol, value)
            if result is False:
                return Query.FALSE
            if result is True:
                continue
            new_clauses.append(result)
        return Query(new_clauses)

    def set_symbols(self, assignment: dict[str, bool]) -> "Query":
        query = self
        for symbol, value in assignment.items():
            query = query.set_symbol(symbol, value)
        return query

    def rename_binary(self, mapping: dict[str, str]) -> "Query":
        """Rename binary symbols (used by the zig-zag construction)."""
        if self.is_constant():
            return self
        clauses = []
        for clause in self.clauses:
            subclauses = [frozenset(mapping.get(s, s) for s in j)
                          for j in clause.subclauses]
            clauses.append(Clause(clause.side, clause.unaries, subclauses))
        return Query(clauses)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Query):
            return NotImplemented
        return (self._false == other._false
                and set(self.clauses) == set(other.clauses))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._false, frozenset(self.clauses)))
        return self._hash

    def __repr__(self) -> str:
        if self.is_false():
            return "Query(FALSE)"
        if self.is_true():
            return "Query(TRUE)"
        return "Query[" + " & ".join(
            repr(c) for c in sorted(self.clauses,
                                    key=lambda c: c.sort_key())) + "]"


Query.TRUE = Query()
Query.FALSE = Query(_false=True)


def query(*clauses: Clause) -> Query:
    """Convenience constructor: ``query(c1, c2, ...)``."""
    return Query(clauses)


CLAUSE_RE = re.compile(r"\(([^()]*)\)")


def parse_query(text: str) -> Query:
    """Parse the miniature clause syntax of the CLI and the service:
    parenthesized clauses, each a ``|``-separated list of symbols
    (``R``/``T`` unary, anything else binary); Type-II clauses use
    ``;`` between subclauses with an ``L:``/``R:`` prefix, e.g.
    ``"(L: S1 ; S2)"`` for forall x (forall y S1 v forall y S2).
    Malformed input raises ``ValueError``."""
    clauses = []
    bodies = CLAUSE_RE.findall(text)
    if not bodies:
        raise ValueError(
            f"no clauses found in {text!r} — write a query as "
            f"parenthesized |-separated clauses, e.g. \"(R|S1)(S1|T)\"")
    for body in bodies:
        body = body.strip()
        try:
            if body.startswith(("L:", "R:")):
                side = "left" if body[0] == "L" else "right"
                subs = [
                    [s.strip() for s in part.split("|") if s.strip()]
                    for part in body[2:].split(";")]
                clauses.append(Clause(side, (), subs))
                continue
            atoms = [a.strip() for a in body.split("|") if a.strip()]
            unaries = {a for a in atoms if a in ("R", "T")}
            binaries = [a for a in atoms if a not in ("R", "T")]
            if unaries == {"R", "T"}:
                clauses.append(Clause("full", unaries, [binaries]))
            elif unaries == {"R"}:
                clauses.append(Clause("left", unaries, [binaries]))
            elif unaries == {"T"}:
                clauses.append(Clause("right", unaries, [binaries]))
            else:
                clauses.append(Clause.middle(*binaries))
        except (ValueError, TypeError) as error:
            raise ValueError(
                f"bad clause \"({body})\": {error}") from None
    return Query(clauses)
