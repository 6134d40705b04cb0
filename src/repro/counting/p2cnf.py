"""Positive 2CNF formulas, #P2CNF, and signature counts (Section 3).

A P2CNF is Phi = AND_{(i,j) in E} (X_i v X_j) over n variables, with E a
set of directed edges containing at most one of (i, j), (j, i).  The
counting problem #P2CNF is #P-hard; the reduction of Theorem 3.1
recovers #Phi from the *undirected signature counts*

    #k' = #{assignments theta with signature k'(theta)}
    k'(theta) = (k00, k01+k10, k11)

where k_ab counts edges whose endpoints theta maps to (a, b).  This
module provides exact computation of #Phi (via the d-DNNF model
counter, with a brute-force validation oracle alongside) and of all
signature counts, which the reduction's output is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

Signature = tuple[int, int, int]  # (k00, k01_10, k11)


@dataclass(frozen=True)
class P2CNF:
    """Phi = AND_{(i,j) in E} (X_i v X_j) over variables 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"negative variable count: {self.n}")
        seen = set()
        for (i, j) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge off-range: {(i, j)}")
            if i == j:
                raise ValueError("self-loop")
            if (i, j) in seen or (j, i) in seen:
                raise ValueError(f"duplicate edge: {(i, j)}")
            seen.add((i, j))

    @property
    def m(self) -> int:
        return len(self.edges)

    # ------------------------------------------------------------------
    def satisfied(self, assignment) -> bool:
        return all(assignment[i] or assignment[j] for i, j in self.edges)

    def signature(self, assignment) -> Signature:
        """The undirected signature k'(theta) = (k00, k01+k10, k11)."""
        k00 = k01_10 = k11 = 0
        for i, j in self.edges:
            a, b = assignment[i], assignment[j]
            if a and b:
                k11 += 1
            elif a or b:
                k01_10 += 1
            else:
                k00 += 1
        return (k00, k01_10, k11)

    def to_cnf(self):
        """Phi as a monotone CNF over variables ("x", 0..n-1)."""
        from repro.booleans.cnf import CNF
        return CNF([[("x", i), ("x", j)] for i, j in self.edges])

    def count_satisfying(self) -> int:
        """#Phi via the d-DNNF model counter (Phi is a monotone CNF);
        polynomial on tree-like clause graphs, exponential at worst."""
        from repro.tid.wmc import compiled
        return compiled(self.to_cnf()).model_count(
            ("x", i) for i in range(self.n))

    def count_satisfying_brute(self) -> int:
        """#Phi by brute force over all 2^n assignments (the
        independent validation oracle for ``count_satisfying``)."""
        return sum(
            1 for bits in iter_product((0, 1), repeat=self.n)
            if self.satisfied(bits))

    def signature_counts(self) -> dict[Signature, int]:
        """#k' for every undirected signature (Eq. 3), brute force."""
        counts: dict[Signature, int] = {}
        for bits in iter_product((0, 1), repeat=self.n):
            sig = self.signature(bits)
            counts[sig] = counts.get(sig, 0) + 1
        return counts

    # ------------------------------------------------------------------
    @staticmethod
    def path(n: int) -> "P2CNF":
        """(X0 v X1) & (X1 v X2) & ... — a path of n variables."""
        return P2CNF(n, tuple((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "P2CNF":
        return P2CNF(n, tuple((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def star(n: int) -> "P2CNF":
        """Center variable 0 paired with each of 1..n-1."""
        return P2CNF(n, tuple((0, i) for i in range(1, n)))

    @staticmethod
    def complete(n: int) -> "P2CNF":
        return P2CNF(n, tuple(
            (i, j) for i in range(n) for j in range(i + 1, n)))
