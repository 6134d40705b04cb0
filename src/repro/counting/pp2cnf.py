"""Positive partitioned 2CNF (#PP2CNF), Provan & Ball's hard problem.

Phi = AND_{(i,j) in E} (X_i v Y_j) with E a bipartite edge relation
between X-variables and Y-variables.  #PP2CNF is #P-hard even though the
clause graph is bipartite; the Type-II reduction (Appendix C) reduces
from it via the coloring count problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product


@dataclass(frozen=True)
class PP2CNF:
    """Phi = AND_{(i,j) in E} (X_i v Y_j), i < n_left, j < n_right."""

    n_left: int
    n_right: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError(f"negative side size: n_left={self.n_left}, "
                             f"n_right={self.n_right}")
        seen = set()
        for (i, j) in self.edges:
            if not (0 <= i < self.n_left and 0 <= j < self.n_right):
                raise ValueError(f"edge off-range: {(i, j)}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge: {(i, j)}")
            seen.add((i, j))

    @property
    def m(self) -> int:
        return len(self.edges)

    def satisfied(self, x_bits, y_bits) -> bool:
        return all(x_bits[i] or y_bits[j] for i, j in self.edges)

    def to_cnf(self):
        """Phi as a monotone CNF over ("x", i) and ("y", j) variables."""
        from repro.booleans.cnf import CNF
        return CNF([[("x", i), ("y", j)] for i, j in self.edges])

    def count_satisfying(self) -> int:
        """#Phi via the d-DNNF model counter (Phi is a monotone CNF);
        exact, and far cheaper than enumeration on sparse instances."""
        from repro.tid.wmc import compiled
        scope = [("x", i) for i in range(self.n_left)]
        scope += [("y", j) for j in range(self.n_right)]
        return compiled(self.to_cnf()).model_count(scope)

    def count_satisfying_brute(self) -> int:
        """#Phi by brute force over all assignments (the independent
        validation oracle for ``count_satisfying``)."""
        total = 0
        for x_bits in iter_product((0, 1), repeat=self.n_left):
            for y_bits in iter_product((0, 1), repeat=self.n_right):
                if self.satisfied(x_bits, y_bits):
                    total += 1
        return total

    # ------------------------------------------------------------------
    @staticmethod
    def complete(n_left: int, n_right: int) -> "PP2CNF":
        return PP2CNF(n_left, n_right, tuple(
            (i, j) for i in range(n_left) for j in range(n_right)))

    @staticmethod
    def matching(n: int) -> "PP2CNF":
        return PP2CNF(n, n, tuple((i, i) for i in range(n)))
