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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable

from repro.algebra.matrices import (
    common_denominator, monomial_row, select_rows,
)
from repro.core.final import is_final
from repro.core.safety import query_type
from repro.counting.p2cnf import P2CNF, Signature
from repro.reduction.block_matrix import z_matrix_direct, z_matrix_power
from repro.reduction.blocks import reduction_tid
from repro.tid.database import TID
from repro.tid.lineage import lineage
from repro.tid.wmc import compiled

Oracle = Callable[[TID], Fraction]


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
        # The one-link block matrix A(1), computed once by exact WMC.
        self.base_matrix = z_matrix_direct(query, 1)
        self._z_cache: dict[int, dict[str, Fraction]] = {}

    # ------------------------------------------------------------------
    def z_values(self, p: int) -> dict[str, Fraction]:
        """z_ab(p) for ab in {00, 10, 11} via Lemma 3.19."""
        cached = self._z_cache.get(p)
        if cached is not None:
            return cached
        a_p = z_matrix_power(self.query, p, self.base_matrix)
        if a_p[0, 1] != a_p[1, 0]:
            raise AssertionError("block is not symmetric (Prop. 3.20)")
        values = {"00": a_p[0, 0], "10": a_p[1, 0], "11": a_p[1, 1]}
        self._z_cache[p] = values
        return values

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
        kept, basis = select_rows(
            lambda params: self.coefficient_row(m, params),
            len(signatures), 2, 64)
        if basis.rank < len(signatures):
            raise AssertionError(
                "could not reach full rank; Theorem 3.6's conditions "
                "appear violated (is the query final?)")
        params_used = tuple(kept)

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


def count_p2cnf(query, phi: P2CNF, oracle: str | Oracle = "product") -> int:
    """Convenience wrapper: #Phi via the Type-I reduction through Q."""
    return Type1Reduction(query).run(phi, oracle=oracle).model_count
