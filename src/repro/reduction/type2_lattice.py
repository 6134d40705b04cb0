"""The Type-II lattice structure (Section C.2).

A Type II-II query is rewritten (Eq. 46-49) as

    Q = forall x (OR_i forall y G_i(x,y))  &  forall x forall y C(x,y)
        &  forall y (OR_j forall x H_j(x,y)),

where each G_i / H_j is a CNF over the binary symbols, obtained by
distributing the conjunction of Type-II left (right) clauses over their
subclause disjunctions (Example C.5).  The Moebius lattices L^(G), L^(H)
are generated by the formula sets {G_i & C} and {C & H_j}
(Definition C.8), and the queries Q_alpha_beta (Eq. 53-55) drive the
inclusion-exclusion over blocks.

CNFs here live over *symbol names* (the variables x, y are implicit
since every atom is S(x, y)); grounding at a block maps symbol-CNFs to
tuple-CNFs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product

from repro.algebra.lattice import TOP, Lattice
from repro.booleans.adaptive import resolve_sweep_method
from repro.booleans.approximate import DEFAULT_DELTA, DEFAULT_EPSILON
from repro.booleans.circuit import WeightOverlay
from repro.booleans.cnf import CNF
from repro.core.queries import Query
from repro.tid.database import TID, s_tuple
from repro.tid.lineage import lineage
from repro.tid.wmc import (
    DEFAULT_BUDGET_NODES,
    cnf_probability,
    probability_batch_auto,
)


def _distribute(clauses) -> list[CNF]:
    """All CNFs obtainable by choosing one subclause per clause, with
    duplicates (after absorption) merged — the G_i of Eq. (47)."""
    if not clauses:
        return []
    choices = [list(c.subclauses) for c in clauses]
    seen: list[CNF] = []
    for pick in iter_product(*choices):
        candidate = CNF(frozenset(j) for j in pick)
        if not any(candidate == other for other in seen):
            seen.append(candidate)
    seen.sort(key=lambda f: sorted(
        (len(c), sorted(c)) for c in f.clauses))
    return seen


class TypeIIStructure:
    """The G/H decomposition and lattices of a Type II-II query."""

    def __init__(self, query: Query):
        if query.is_constant():
            raise ValueError("constant query")
        if any(c.side == "full" or c.unaries for c in query.clauses):
            raise ValueError("Type-II structure needs a query with no "
                             "unary symbols (type II-II)")
        self.query = query
        self.G: list[CNF] = _distribute(query.left_clauses)
        self.H: list[CNF] = _distribute(query.right_clauses)
        if not self.G or not self.H:
            raise ValueError("query needs both left and right clauses")
        self.C: CNF = CNF(
            j for c in query.middle_clauses for j in c.subclauses)
        self.left_lattice = Lattice(
            len(self.G), self._closure_factory(self.G))
        self.right_lattice = Lattice(
            len(self.H), self._closure_factory(self.H))
        # The Moebius sweeps evaluate Y_alpha_beta for many (alpha,
        # beta) pairs over the *same* block; cache its base lineage.
        self._block_lineages: dict[TID, CNF] = {}

    def _closure_factory(self, formulas):
        middle = self.C

        def closure(alpha: frozenset[int]) -> frozenset[int]:
            conj = CNF.conjunction(
                [formulas[i] for i in sorted(alpha)] + [middle])
            return frozenset(
                i for i, f in enumerate(formulas) if conj.implies(f))
        return closure

    # ------------------------------------------------------------------
    @property
    def m_bar(self) -> int:
        """|L0(G)| (Definition C.8)."""
        return len(self.left_lattice.strict_support)

    @property
    def n_bar(self) -> int:
        """|L0(H)|."""
        return len(self.right_lattice.strict_support)

    def g_alpha(self, alpha: frozenset[int]) -> CNF:
        """G_alpha = AND_{i in alpha} G_i; for the top element, the
        disjunction G_1 v ... v G_m (Definition C.6)."""
        if alpha == TOP:
            return CNF.disjunction(self.G)
        return CNF.conjunction(self.G[i] for i in sorted(alpha))

    def h_beta(self, beta: frozenset[int]) -> CNF:
        if beta == TOP:
            return CNF.disjunction(self.H)
        return CNF.conjunction(self.H[i] for i in sorted(beta))

    # ------------------------------------------------------------------
    def ground_left(self, formula: CNF, tid: TID, u) -> CNF:
        """forall y formula(u, y) grounded over the block's right
        domain, respecting certain/absent tuples.

        The per-v groundings mention only tuples S(u, v) for that v, so
        they are pairwise variable-disjoint and the conjunction skips
        the absorption pass.
        """
        return CNF.conjunction_disjoint(
            self._ground_at(formula, tid, u, v)
            for v in tid.right_domain)

    def ground_right(self, formula: CNF, tid: TID, v) -> CNF:
        return CNF.conjunction_disjoint(
            self._ground_at(formula, tid, u, v)
            for u in tid.left_domain)

    @staticmethod
    def _ground_at(formula: CNF, tid: TID, u, v) -> CNF:
        clauses = []
        for symbol_clause in formula.clauses:
            ground = []
            satisfied = False
            for symbol in sorted(symbol_clause):
                p = tid.probability(s_tuple(symbol, u, v))
                if p == 1:
                    satisfied = True
                    break
                if p != 0:
                    ground.append(s_tuple(symbol, u, v))
            if satisfied:
                continue
            if not ground:
                return CNF.FALSE
            clauses.append(ground)
        return CNF(clauses)

    # ------------------------------------------------------------------
    def lineage_y(self, block: TID, u, v, alpha: frozenset[int],
                  beta: frozenset[int]) -> CNF:
        """Y_alpha_beta(u, v) = Phi_B(G_alpha(u) & Q & H_beta(v))
        (Eq. 56 / Corollary C.20); alpha or beta may be TOP, dropping
        the corresponding factor (Eq. 55)."""
        parts = [self._block_lineage(block)]
        if alpha != TOP:
            parts.append(self.ground_left(self.g_alpha(alpha), block, u))
        if beta != TOP:
            parts.append(self.ground_right(self.h_beta(beta), block, v))
        return CNF.conjunction(parts)

    def _block_lineage(self, block: TID) -> CNF:
        hit = self._block_lineages.get(block)
        if hit is None:
            hit = self._block_lineages[block] = lineage(self.query, block)
        return hit

    def y_probability(self, block: TID, u, v, alpha, beta) -> Fraction:
        """Pr(Y_alpha_beta) via the compiled-circuit WMC oracle; the
        (alpha, beta) sweeps of the Moebius pipeline hit the shared
        compilation cache, so each distinct lineage compiles once."""
        return cnf_probability(self.lineage_y(block, u, v, alpha, beta),
                               block.probability)

    def y_probability_sweep(self, block: TID, u, v, alpha, beta,
                            overlays, *,
                            method: str = "exact",
                            numeric: str = "exact",
                            budget_nodes: int | None =
                            DEFAULT_BUDGET_NODES,
                            epsilon=DEFAULT_EPSILON,
                            delta=DEFAULT_DELTA,
                            rng=None, estimator: str = "hoeffding",
                            relative_error=None,
                            planner=None) -> list[Fraction]:
        """Pr(Y_alpha_beta) under many tuple-weight overlays — the
        theta-sweep primitive of Sections C.7-C.10.

        Each overlay maps block tuples to replacement marginals
        (a consistent assignment theta); the fixed lineage compiles
        once and every overlay is one lane of a single batched circuit
        pass.  Pinning a marginal to 0/1 equals conditioning the
        (multilinear) lineage structurally, so the values are
        bit-identical to ``y_probability`` on
        ``block.with_probability``-modified blocks — without
        re-grounding or recompiling per theta.

        ``method="auto"`` compiles under ``budget_nodes`` and degrades
        each overlay to an (epsilon, delta) estimate from the chosen
        ``estimator`` when the lineage blows up; ``method="adaptive"``
        is ``auto`` with the sequential empirical-Bernstein sampler,
        and a ``planner`` picks the budget from the observed
        circuit-size trajectory.  The default stays unconditionally
        exact.

        ``numeric="float"`` runs the batched pass in hardware floats
        on the flat instruction tape — for screening wide
        theta-grids; the Moebius alternating sums downstream need the
        exact rationals, so they keep the default.
        """
        budget_nodes, estimator, planner = resolve_sweep_method(
            method, estimator, budget_nodes, planner)
        formula = self.lineage_y(block, u, v, alpha, beta)
        base = block.probability
        # WeightOverlay (not a closure) so the tape lanes can
        # fill their weight matrix from the shared base plus the pins.
        specs = [WeightOverlay(base, overlay) for overlay in overlays]
        return probability_batch_auto(
            formula, specs, budget_nodes=budget_nodes, epsilon=epsilon,
            delta=delta, rng=rng, estimator=estimator,
            relative_error=relative_error, numeric=numeric,
            planner=planner).values
