"""The end-to-end Cook reduction #P2CNF -> FOMC_bi(Q) (Theorem 3.1).

Given a final Type-I query Q and a P2CNF instance Phi with m clauses
over n variables, the reduction:

1. builds, for parameter pairs p = (p1, p2), the disjoint-block database
   Delta(p) whose probabilities all lie in {1/2, 1} (Section 3.3) — one
   parallel block per 2CNF clause, path lengths p1 and p2;
2. obtains Pr_{Delta(p)}(Q) from the FOMC oracle;
3. assembles the linear system of Eq. (10): one unknown per undirected
   signature k' = (k00, k01_10, k11) with k00 + k01_10 + k11 = m,
   coefficient y00^{k00} * y10^{k01,10} * y11^{k11} where
   y_ab(p) = z_ab(p1) z_ab(p2) (Eq. 25) and z_ab(p) comes from the
   block-matrix power A(p) = A(1)^p / 2^{p-1} (Lemma 3.19);
4. solves it exactly with the fraction-free basis that selected the
   rows (``IncrementalBasis.solve``), recovering every signature count
   #k', and returns #Phi = sum of #k' over signatures with k00 = 0.
   The kept rows and their basis are kept per (Q, m) for the life of
   the process, so a later run with the same query and clause count
   is its oracle calls plus one replayed solve.

Row selection.  Since y_ab is symmetric in (p1, p2), rows indexed by the
full grid {1..m+1}^2 repeat; we therefore enumerate parameter
*multisets* p1 <= p2 in increasing order and keep exactly those rows
that increase the rank, stopping at full rank (``select_rows``, shared
with the Type-II reduction).  The rank test is one
``IncrementalBasis.add`` per candidate row, exactly over Q, and that
basis then solves the system, so the kept rows are eliminated once.
Theorem 3.6 (via conditions (22)-(24), which hold for final queries by
Theorem 3.14) guarantees the row space reaches full rank; the oracle is
consulted only for kept rows, so the reduction stays polynomial.

What is kept.  The coefficients y_ab(p) come from A(1) = A(1, Q) alone,
so the matrix of Eq. (10) depends on Q and m and never on Phi, which
enters only through the oracle answers on the right-hand side.  Two
bounded LRU caches under one lock therefore hold, per (Q, m), the kept
parameter pairs and the full-rank basis that selected them, and per Q,
A(1) (``base_matrix``) and the z-values by p.  Only a full-rank system
is kept: a selection that falls short raises on every run.  Selection
runs outside the lock, so two racing cold runs may both select, and
the first to finish is kept (they compute the same system).  The kept
basis is only read: ``IncrementalBasis.solve`` replays its steps in
locals.  Every run still asks the oracle once per kept parameter.

Integer arithmetic.  Every tuple probability lies in {1/2, 1}, so each
y_ab is dyadic.  The coefficient rows (``monomial_row``) and the product
oracle put the three y values over their common denominator d and
multiply integer numerators: every monomial and every block-product
term has total degree m, so each result is one ``Fraction(N, d**m)``.

Two built-in oracles:

* ``"wmc"`` — the honest oracle: materialize Delta(p) and run the exact
  weighted model counter on the full lineage;
* ``"product"`` — the block-product fast path of Theorem 3.4
  (Pr = 2^-n * sum_theta prod_edges y_{theta(u), theta(v)}), itself
  validated against "wmc" in the test suite.

The recovered counts are integers, non-negative and sum to 2^n — all
asserted.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable

from repro.algebra.matrices import (
    IncrementalBasis, Matrix, common_denominator, monomial_row, select_rows,
)
from repro.core.final import is_final
from repro.core.queries import Query
from repro.core.safety import query_type
from repro.counting.p2cnf import P2CNF, Signature
from repro.reduction.block_matrix import z_matrix_direct, z_matrix_power
from repro.reduction.blocks import reduction_tid
from repro.tid.database import TID
from repro.tid.lineage import lineage
from repro.tid.wmc import compiled

Oracle = Callable[[TID], Fraction]

#: Guards both caches below (see "What is kept" above).
_LOCK = threading.Lock()
#: (Q, m) -> (kept parameter pairs, the full-rank basis that kept them).
_SYSTEMS: OrderedDict[tuple[Query, int],
                      tuple[tuple, IncrementalBasis]] = OrderedDict()
_SYSTEM_LIMIT = 32
#: Q -> (A(1), z-values by p); the z dict is read and written under
#: ``_LOCK`` too.
_QUERIES: OrderedDict[Query, tuple[Matrix, dict]] = OrderedDict()
_QUERY_LIMIT = 16


@dataclass(frozen=True)
class ReductionResult:
    """Output of the Type-I reduction."""

    signature_counts: dict[Signature, int]
    model_count: int
    oracle_calls: int
    system_size: int
    parameters_used: tuple[tuple[int, int], ...]


def valid_signatures(m: int) -> list[Signature]:
    """All undirected signatures (k00, k01_10, k11) with sum m."""
    return [(m - k1 - k2, k1, k2)
            for k1 in range(m + 1) for k2 in range(m + 1 - k1)]


class Type1Reduction:
    """#P2CNF <=^P FOMC_bi(Q) for a final Type-I query Q (Theorem 3.1)."""

    def __init__(self, query, *, check_final: bool = True):
        qtype = query_type(query)
        if qtype is None or qtype != ("I", "I"):
            raise ValueError(f"Type-I reduction needs a type I-I query, "
                             f"got {qtype}")
        if check_final and not is_final(query):
            raise ValueError(
                "the query must be final (Definition 2.8) for the "
                "reduction's non-singularity argument; pass "
                "check_final=False to override")
        self.query = query
        with _LOCK:
            known = _lookup(_QUERIES, query)
        if known is None:
            # The one-link block matrix A(1), by exact WMC.
            known = (z_matrix_direct(query, 1), {})
            with _LOCK:
                known = _remember(_QUERIES, query, known, _QUERY_LIMIT)
        self.base_matrix, self._z_cache = known

    # ------------------------------------------------------------------
    def z_values(self, p: int) -> dict[str, Fraction]:
        """z_ab(p) for ab in {00, 10, 11} via Lemma 3.19."""
        with _LOCK:
            cached = self._z_cache.get(p)
        if cached is not None:
            return cached
        a_p = z_matrix_power(self.query, p, self.base_matrix)
        if a_p[0, 1] != a_p[1, 0]:
            raise AssertionError("block is not symmetric (Prop. 3.20)")
        values = {"00": a_p[0, 0], "10": a_p[1, 0], "11": a_p[1, 1]}
        with _LOCK:
            return self._z_cache.setdefault(p, values)

    def y_values(self, params: tuple[int, int]) -> dict[str, Fraction]:
        """y_ab(p1, p2) = z_ab(p1) * z_ab(p2) (Eq. 25)."""
        z1 = self.z_values(params[0])
        z2 = self.z_values(params[1])
        return {key: z1[key] * z2[key] for key in z1}

    def coefficient_row(self, m: int,
                        params: tuple[int, int]) -> list[Fraction]:
        """The Eq. (10) coefficients of the unknowns #k' for one
        parameter pair."""
        y = self.y_values(params)
        return monomial_row((y["00"], y["10"], y["11"]),
                            valid_signatures(m))

    # ------------------------------------------------------------------
    def product_oracle_value(self, phi: P2CNF,
                             params: tuple[int, int]) -> Fraction:
        """2^n * Pr_Delta(Q) by the block-product formula (Theorem 3.4 /
        Eq. 8): sum over theta of the per-edge conditioned lineage
        probabilities."""
        y = self.y_values(params)
        (y00, y10, y11), d = common_denominator((y["00"], y["10"], y["11"]))
        lookup = {(0, 0): y00, (0, 1): y10, (1, 0): y10, (1, 1): y11}
        total = 0
        for bits in iter_product((0, 1), repeat=phi.n):
            term = 1
            for i, j in phi.edges:
                term *= lookup[(bits[i], bits[j])]
                if term == 0:
                    break
            total += term
        return Fraction(total, d ** len(phi.edges))

    def reduction_database(self, phi: P2CNF,
                           params: tuple[int, int]) -> TID:
        """Delta(params): the disjoint-block FOMC database for Phi."""
        nodes = [f"x{i}" for i in range(phi.n)]
        edges = [(f"x{i}", f"x{j}") for i, j in phi.edges]
        return reduction_tid(self.query, nodes, edges, list(params))

    def wmc_oracle_value(self, phi: P2CNF,
                         params: tuple[int, int]) -> Fraction:
        """2^n * Pr_Delta(Q) by materializing Delta, compiling its
        lineage to a d-DNNF circuit (cached across repeated calls with
        the same parameters), and evaluating one linear pass."""
        tid = self.reduction_database(phi, params)
        circuit = compiled(lineage(self.query, tid))
        return circuit.probability(tid.probability) * Fraction(2) ** phi.n

    # ------------------------------------------------------------------
    def run(self, phi: P2CNF,
            oracle: str | Oracle = "product") -> ReductionResult:
        """Execute the reduction and recover #Phi."""
        m = phi.m
        if m == 0:
            count = 2 ** phi.n
            return ReductionResult({(0, 0, 0): count}, count, 0, 0, ())
        signatures = valid_signatures(m)
        params_used, basis = self._system(m, len(signatures))

        rhs = []
        for params in params_used:
            if oracle == "product":
                value = self.product_oracle_value(phi, params)
            elif oracle == "wmc":
                value = self.wmc_oracle_value(phi, params)
            else:
                tid = self.reduction_database(phi, params)
                value = oracle(tid) * Fraction(2) ** phi.n
            rhs.append(value)

        solution = basis.solve(rhs)

        counts: dict[Signature, int] = {}
        total = 0
        for signature, value in zip(signatures, solution):
            if value.denominator != 1 or value < 0:
                raise AssertionError(
                    f"non-integral or negative count: {value}")
            count = int(value)
            if count:
                counts[signature] = count
            total += count
        if total != 2 ** phi.n:
            raise AssertionError(
                f"counts sum to {total}, expected {2 ** phi.n}")
        model_count = sum(c for (k00, _, _), c in counts.items()
                          if k00 == 0)
        return ReductionResult(counts, model_count, len(params_used),
                               len(signatures), params_used)

    def _system(self, m: int, width: int) -> tuple:
        """The kept parameter pairs of Eq. (10) for m clauses and the
        full-rank basis that selected them, kept per (Q, m)."""
        key = (self.query, m)
        with _LOCK:
            system = _lookup(_SYSTEMS, key)
        if system is not None:
            return system
        kept, basis = select_rows(
            lambda params: self.coefficient_row(m, params), width, 2, 64)
        if basis.rank < width:
            raise AssertionError(
                "could not reach full rank; Theorem 3.6's conditions "
                "appear violated (is the query final?)")
        with _LOCK:
            return _remember(_SYSTEMS, key, (tuple(kept), basis),
                             _SYSTEM_LIMIT)


def _lookup(cache: OrderedDict, key):
    """The entry for ``key``, marked most recently used, or None.
    Caller holds ``_LOCK``."""
    entry = cache.get(key)
    if entry is not None:
        cache.move_to_end(key)
    return entry


def _remember(cache: OrderedDict, key, entry, limit: int):
    """Keep ``entry`` unless a racing run kept one first, evict the
    least recently used past ``limit``, and return the kept entry.
    Caller holds ``_LOCK``."""
    entry = cache.setdefault(key, entry)
    cache.move_to_end(key)
    while len(cache) > limit:
        cache.popitem(last=False)
    return entry


def count_p2cnf(query, phi: P2CNF, oracle: str | Oracle = "product") -> int:
    """Convenience wrapper: #Phi via the Type-I reduction through Q."""
    return Type1Reduction(query).run(phi, oracle=oracle).model_count
