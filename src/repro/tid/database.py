"""Bipartite tuple-independent probabilistic databases (Section 2).

A TID is a pair (Dom, p): a bipartite domain Dom = U  union  V plus a
probability for every ground tuple.  Ground tuples over the restricted
vocabulary are

* ``("R", u)``     — the left unary atom, u in U;
* ``("T", v)``     — the right unary atom, v in V;
* ``(S, u, v)``    — a binary atom, S a binary symbol name.

Only tuples with probability != default are stored; the *default*
probability is configurable (the paper's block constructions default
unmentioned tuples to 1).  All probabilities are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.core.symbols import LEFT_UNARY, RIGHT_UNARY

Tuple = tuple

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


def r_tuple(u) -> Tuple:
    return (LEFT_UNARY, u)


def t_tuple(v) -> Tuple:
    return (RIGHT_UNARY, v)


def s_tuple(symbol: str, u, v) -> Tuple:
    return (symbol, u, v)


def _fraction(value) -> Fraction:
    """``value`` as a ``Fraction``, the same object when it is one: a
    value shared across tuples stays one object, so weight memos keyed
    by ``id`` convert it once."""
    return value if type(value) is Fraction else Fraction(value)


class TID:
    """An immutable bipartite tuple-independent database."""

    __slots__ = ("left_domain", "right_domain", "probs", "default", "_hash")

    def __init__(self, left_domain: Iterable, right_domain: Iterable,
                 probs: Mapping[Tuple, Fraction] | None = None,
                 default: Fraction = ONE):
        self.left_domain = tuple(dict.fromkeys(left_domain))
        self.right_domain = tuple(dict.fromkeys(right_domain))
        if set(self.left_domain) & set(self.right_domain):
            raise ValueError("left and right domains must be disjoint")
        self.default = _fraction(default)
        cleaned: dict[Tuple, Fraction] = {}
        left = set(self.left_domain)
        right = set(self.right_domain)
        for token, value in (probs or {}).items():
            value = _fraction(value)
            if not 0 <= value <= 1:
                raise ValueError(f"probability out of range: {token}={value}")
            self._check_token(token, left, right)
            if value != self.default:
                cleaned[token] = value
        self.probs = cleaned
        self._hash: int | None = None

    @staticmethod
    def _check_token(token: Tuple, left: set, right: set) -> None:
        if len(token) == 2 and token[0] == LEFT_UNARY:
            if token[1] not in left:
                raise ValueError(f"R-tuple over non-left constant: {token}")
        elif len(token) == 2 and token[0] == RIGHT_UNARY:
            if token[1] not in right:
                raise ValueError(f"T-tuple over non-right constant: {token}")
        elif len(token) == 3:
            if token[0] in (LEFT_UNARY, RIGHT_UNARY):
                raise ValueError(f"binary tuple with unary symbol: {token}")
            if token[1] not in left or token[2] not in right:
                raise ValueError(f"binary tuple off-domain: {token}")
        else:
            raise ValueError(f"malformed tuple: {token}")

    # ------------------------------------------------------------------
    def probability(self, token: Tuple) -> Fraction:
        return self.probs.get(token, self.default)

    def with_probability(self, token: Tuple, value) -> "TID":
        probs = dict(self.probs)
        probs[token] = Fraction(value)
        return TID(self.left_domain, self.right_domain, probs, self.default)

    def uncertain_tuples(self) -> list[Tuple]:
        """Tuples with probability strictly between 0 and 1."""
        return sorted(
            (t for t, p in self.probs.items() if 0 < p < 1),
            key=repr)

    def probability_values(self) -> frozenset[Fraction]:
        """The set of probability values in use (including the default)."""
        return frozenset(self.probs.values()) | {self.default}

    def restrict_check(self, allowed: Iterable[Fraction]) -> bool:
        """Do all probabilities lie in ``allowed``?  (GFOMC restricts to
        {0, 1/2, 1}; FOMC for forall-CNF to {1/2, 1}.)"""
        allowed = {Fraction(a) for a in allowed}
        return self.probability_values() <= allowed

    # ------------------------------------------------------------------
    def union(self, other: "TID") -> "TID":
        """Union of two TIDs; overlapping tuples must agree."""
        if self.default != other.default:
            raise ValueError("defaults differ")
        probs = dict(self.probs)
        for token, value in other.probs.items():
            if probs.get(token, value) != value:
                raise ValueError(f"conflicting probability for {token}")
            probs[token] = value
        return TID(self.left_domain + other.left_domain,
                   self.right_domain + other.right_domain,
                   probs, self.default)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TID):
            return NotImplemented
        return (set(self.left_domain) == set(other.left_domain)
                and set(self.right_domain) == set(other.right_domain)
                and self.probs == other.probs
                and self.default == other.default)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((frozenset(self.left_domain),
                               frozenset(self.right_domain),
                               frozenset(self.probs.items()), self.default))
        return self._hash

    def __repr__(self) -> str:
        return (f"TID(U={list(self.left_domain)}, V={list(self.right_domain)}, "
                f"{len(self.probs)} non-default tuples, "
                f"default={self.default})")
