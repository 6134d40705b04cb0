"""The Type-II counting pipeline: CCP(m, n) <=^P GFOMC (Theorem C.4).

This module implements the *linear-algebra core* of the Type-II
reduction.  Appendix C splits the proof into two halves:

1. an existence half (Sections C.5-C.11): blocks B^(p)(u, v) can be
   designed, with probabilities in {0, 1/2, 1}, so that the conditioned
   lineage probabilities take the exponential form

       y_i(p) = prod_j (a_i * lambda1^{p_j} + b_i * lambda2^{p_j})

   with conditions (68)-(70) — the block construction itself lives in
   ``repro.reduction.type2_blocks``, its connectivity and invertibility
   prerequisites in ``type2_lattice`` / the test-suite lemmas;

2. a counting half (Sections C.1-C.4): *given* such y-values, a
   polynomial number of oracle answers determines every coloring count
   #k, hence #PP2CNF (Theorem C.3).

``Type2Reduction`` implements the counting half in full generality: it
enumerates the consistent coloring signatures, assembles the Eq. (66)
system by greedy full-rank selection over p-vector multisets (a row is
symmetric in its p-vector; ``select_rows``, as in the Type-I
reduction), solves it with the selecting basis, and extracts #PP2CNF.
The oracle values are computed through the Moebius block-product
expansion of Corollary C.20 — the same formula a real GFOMC oracle call
factors through.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Callable, Mapping, Sequence

from repro.algebra.matrices import monomial_row, select_rows
from repro.counting.ccp import TOP_COLOR
from repro.counting.pp2cnf import PP2CNF
from repro.reduction.big_matrix import conditions_11_13

Pair = tuple  # (alpha, beta); TOP_COLOR plays the paper's "1^".


def compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def exponential_y_provider(coeffs: Mapping[Pair, tuple[Fraction, Fraction]],
                           lambda1: Fraction, lambda2: Fraction
                           ) -> Callable[[Pair, int], Fraction]:
    """y-values of the paper's form (67): y_pair(p) = a * l1^p + b * l2^p."""
    def y_single(pair: Pair, p: int) -> Fraction:
        a, b = coeffs[pair]
        return a * lambda1 ** p + b * lambda2 ** p
    return y_single


def conditions_68_70(coeffs: Mapping[Pair, tuple[Fraction, Fraction]],
                     lambda1: Fraction, lambda2: Fraction) -> bool:
    """Check conditions (68)-(70) on the coefficient family: Type-I's
    conditions (11)-(13) on the pairs' (a, b) coefficients."""
    return conditions_11_13(lambda1, lambda2, list(coeffs.values()))


@dataclass
class Type2Reduction:
    """CCP(m, n) <=^P GFOMC: recover coloring counts from oracle values.

    ``left_colors`` / ``right_colors`` play L0(G) / L0(H);
    ``mu_left`` / ``mu_right`` their (non-zero) Moebius values;
    ``y_single(pair, p)`` the single-branch block probability for the
    pair (alpha, beta), with TOP_COLOR standing for 1^.
    """

    left_colors: Sequence
    right_colors: Sequence
    mu_left: Mapping
    mu_right: Mapping
    y_single: Callable[[Pair, int], Fraction]

    # ------------------------------------------------------------------
    @property
    def pairs(self) -> list[Pair]:
        """(alpha, beta) combinations excluding (1^, 1^) — the exponent
        coordinates of Eq. (66)."""
        out = [(alpha, beta) for alpha in self.left_colors
               for beta in self.right_colors]
        out += [(alpha, TOP_COLOR) for alpha in self.left_colors]
        out += [(TOP_COLOR, beta) for beta in self.right_colors]
        return out

    def y_value(self, pair: Pair, p_vector: Sequence[int]) -> Fraction:
        value = Fraction(1)
        for p in p_vector:
            value *= Fraction(self.y_single(pair, p))
        return value

    # ------------------------------------------------------------------
    def valid_signatures(self, n_edges: int, n_left: int,
                         n_right: int) -> list[tuple[int, ...]]:
        """Signatures consistent with the graph cardinalities: edge
        pairs sum to |E|, left node counts to |U|, right to |V|."""
        edge_pairs = len(self.left_colors) * len(self.right_colors)
        signatures = []
        for edge_part in compositions(n_edges, edge_pairs):
            for left_part in compositions(n_left, len(self.left_colors)):
                for right_part in compositions(n_right,
                                               len(self.right_colors)):
                    signatures.append(edge_part + left_part + right_part)
        return signatures

    def coefficient_row(self, signatures, p_vector) -> list[Fraction]:
        """The Eq. (66) coefficients of the unknowns for one p-vector."""
        return monomial_row([self.y_value(pair, p_vector)
                             for pair in self.pairs], signatures)

    # ------------------------------------------------------------------
    def oracle_value(self, phi: PP2CNF, p_vector) -> Fraction:
        """The Corollary C.20 expansion of Pr(Q) on the block database
        for ``phi`` — the value a GFOMC oracle call would return."""
        y = {pair: self.y_value(pair, p_vector) for pair in self.pairs}
        total = Fraction(0)
        for sigma in iter_product(self.left_colors, repeat=phi.n_left):
            mu_s = Fraction(1)
            for alpha in sigma:
                mu_s *= self.mu_left[alpha]
            for tau in iter_product(self.right_colors,
                                    repeat=phi.n_right):
                term = mu_s
                for beta in tau:
                    term *= self.mu_right[beta]
                for i, j in phi.edges:
                    term *= y[(sigma[i], tau[j])]
                for alpha in sigma:
                    term *= y[(alpha, TOP_COLOR)]
                for beta in tau:
                    term *= y[(TOP_COLOR, beta)]
                total += term
        return total

    # ------------------------------------------------------------------
    def run(self, phi: PP2CNF) -> dict[tuple[int, ...], int]:
        """Recover every coloring count #k of phi's graph (Eq. 66)."""
        signatures = self.valid_signatures(phi.m, phi.n_left, phi.n_right)
        kept, basis = select_rows(
            lambda p_vector: self.coefficient_row(signatures, p_vector),
            len(signatures), len(self.pairs), 8)
        if basis.rank < len(signatures):
            raise AssertionError(
                "cannot reach full rank; conditions (68)-(70) "
                "appear violated")
        solution = basis.solve([self.oracle_value(phi, p_vector)
                                for p_vector in kept])

        counts: dict[tuple[int, ...], int] = {}
        pair_list = self.pairs
        for signature, x in zip(signatures, solution):
            # x_k = #k * prod mu(alpha)^{k_{alpha,1^}} * prod mu(beta)^...
            mu_factor = Fraction(1)
            for pair, k in zip(pair_list, signature):
                alpha, beta = pair
                if beta == TOP_COLOR:
                    mu_factor *= Fraction(self.mu_left[alpha]) ** k
                elif alpha == TOP_COLOR:
                    mu_factor *= Fraction(self.mu_right[beta]) ** k
            value = x / mu_factor
            if value.denominator != 1 or value < 0:
                raise AssertionError(f"bad count: {value}")
            if value:
                counts[signature] = int(value)
        return counts

    # ------------------------------------------------------------------
    def count_pp2cnf(self, phi: PP2CNF, false_left, true_left,
                     false_right, true_right) -> int:
        """#Phi via the recovered coloring counts (Theorem C.3): sum the
        counts of colorings that use only the designated truth-value
        colors and have no (false, false) edge."""
        counts = self.run(phi)
        pair_list = self.pairs
        total = 0
        allowed_left = {false_left, true_left}
        allowed_right = {false_right, true_right}
        for signature, count in counts.items():
            valid = True
            for pair, k in zip(pair_list, signature):
                if k == 0:
                    continue
                alpha, beta = pair
                if alpha not in allowed_left | {TOP_COLOR}:
                    valid = False
                    break
                if beta not in allowed_right | {TOP_COLOR}:
                    valid = False
                    break
                if alpha == false_left and beta == false_right:
                    valid = False
                    break
            if valid:
                total += count
        return total
