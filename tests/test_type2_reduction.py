"""The Type-II counting pipeline: CCP recovery from oracle values
(Theorem C.4's counting half; experiment E12) and Lemma C.35."""

from fractions import Fraction
from itertools import product

import pytest

from repro.algebra.matrices import IncrementalBasis, Matrix
from repro.counting.ccp import TOP_COLOR, coloring_counts
from repro.counting.pp2cnf import PP2CNF
from repro.reduction.type2 import (
    Type2Reduction,
    compositions,
    conditions_68_70,
    exponential_y_provider,
)

F = Fraction


def make_reduction(m=2, n=2):
    left = [f"a{i}" for i in range(1, m + 1)]
    right = [f"b{j}" for j in range(1, n + 1)]
    mu_l = {c: (-1) ** (i + 1) for i, c in enumerate(left)}
    mu_r = {c: (-1) ** (j + 1) * (j + 1) for j, c in enumerate(right)}
    pairs = ([(a, b) for a in left for b in right]
             + [(a, TOP_COLOR) for a in left]
             + [(TOP_COLOR, b) for b in right])
    coeffs = {pair: (F(i + 1), F(1, i + 2))
              for i, pair in enumerate(pairs)}
    l1, l2 = F(1, 2), F(1, 3)
    assert conditions_68_70(coeffs, l1, l2)
    return Type2Reduction(left, right, mu_l, mu_r,
                          exponential_y_provider(coeffs, l1, l2))


def brute_counts_as_signatures(reduction, phi):
    """Brute-force coloring counts keyed the reduction's way."""
    left_nodes = [f"x{i}" for i in range(phi.n_left)]
    right_nodes = [f"y{j}" for j in range(phi.n_right)]
    edges = [(f"x{i}", f"y{j}") for i, j in phi.edges]
    m, n = len(reduction.left_colors), len(reduction.right_colors)
    brute = coloring_counts(left_nodes, right_nodes, edges, m, n)
    out = {}
    for sig, count in brute.items():
        d = dict(sig)
        key = []
        for alpha, beta in reduction.pairs:
            a = (reduction.left_colors.index(alpha)
                 if alpha != TOP_COLOR else TOP_COLOR)
            b = (reduction.right_colors.index(beta)
                 if beta != TOP_COLOR else TOP_COLOR)
            key.append(d.get((a, b), 0))
        key = tuple(key)
        out[key] = out.get(key, 0) + count
    return {k: v for k, v in out.items() if v}


class TestCompositions:
    def test_counts(self):
        assert len(list(compositions(2, 3))) == 6
        assert list(compositions(0, 2)) == [(0, 0)]
        assert list(compositions(1, 0)) == []
        assert list(compositions(0, 0)) == [()]


class TestConditions:
    def test_all_checks(self):
        coeffs = {("a", "b"): (F(1), F(1)), ("c", "d"): (F(2), F(1, 3))}
        assert conditions_68_70(coeffs, F(1, 2), F(1, 3))
        assert not conditions_68_70(coeffs, F(1, 2), F(1, 2))
        assert not conditions_68_70(coeffs, F(1, 2), F(-1, 2))
        assert not conditions_68_70(
            {("a", "b"): (F(1), F(0))}, F(1, 2), F(1, 3))
        assert not conditions_68_70(
            {("a", "b"): (F(1), F(1)), ("c", "d"): (F(2), F(2))},
            F(1, 2), F(1, 3))


class TestRecovery:
    def test_single_edge(self):
        red = make_reduction()
        phi = PP2CNF(1, 1, ((0, 0),))
        counts = red.run(phi)
        assert counts == brute_counts_as_signatures(red, phi)

    def test_pp2cnf_extraction(self):
        red = make_reduction()
        phi = PP2CNF(1, 1, ((0, 0),))
        assert red.count_pp2cnf(phi, "a1", "a2", "b1", "b2") == \
            phi.count_satisfying() == 3

    def test_no_edges(self):
        red = make_reduction()
        phi = PP2CNF(1, 1, ())
        counts = red.run(phi)
        assert counts == brute_counts_as_signatures(red, phi)
        assert red.count_pp2cnf(phi, "a1", "a2", "b1", "b2") == 4


#: The suite's two instances and the rows their multiset walk builds
#: (a walk over every permutation of each p-vector built 1,212 and 38).
INSTANCES = [(PP2CNF(1, 1, ((0, 0),)), 16), (PP2CNF(1, 1, ()), 4)]


def permutation_walk(reduction, phi):
    """The p-vectors a greedy walk over *all* tuples keeps: widths 2, 3,
    ... of {1..width}^h in (max, sum, tuple) order, stopping at full
    rank (the enumeration the multiset walk replaced)."""
    signatures = reduction.valid_signatures(phi.m, phi.n_left, phi.n_right)
    basis, kept = IncrementalBasis(len(signatures)), []
    seen = set()
    for width in range(2, 9):
        for p_vector in sorted(
                product(range(1, width + 1), repeat=len(reduction.pairs)),
                key=lambda p: (max(p), sum(p), p)):
            if basis.rank == len(signatures):
                return kept
            if p_vector in seen:
                continue
            seen.add(p_vector)
            if basis.add(reduction.coefficient_row(signatures, p_vector)):
                kept.append(p_vector)
    raise AssertionError("no full rank")


class TestMultisetWalk:
    @pytest.mark.parametrize("phi,rows", INSTANCES,
                             ids=["single-edge", "no-edges"])
    def test_keeps_the_permutation_walks_p_vectors(self, monkeypatch, phi,
                                                   rows):
        red = make_reduction()
        expected = permutation_walk(red, phi)
        built, asked = [], []
        row, oracle = red.coefficient_row, red.oracle_value

        def counting_row(signatures, p_vector):
            built.append(p_vector)
            return row(signatures, p_vector)

        def recording_oracle(phi_, p_vector):
            asked.append(p_vector)
            return oracle(phi_, p_vector)

        monkeypatch.setattr(red, "coefficient_row", counting_row)
        monkeypatch.setattr(red, "oracle_value", recording_oracle)
        assert red.run(phi) == brute_counts_as_signatures(red, phi)
        assert asked == expected
        assert len(built) == rows

    def test_run_never_calls_matrix_solve(self, monkeypatch):
        def refuse(self, rhs):
            raise AssertionError("Matrix.solve called")

        monkeypatch.setattr(Matrix, "solve", refuse)
        red = make_reduction()
        for phi, _ in INSTANCES:
            assert red.run(phi) == brute_counts_as_signatures(red, phi)
        assert red.count_pp2cnf(INSTANCES[0][0], "a1", "a2", "b1",
                                "b2") == 3


class TestLemmaC35:
    """det D(p) = (lambda1 lambda2)^p (lambda2 - lambda1)(a1 b2 - a2 b1)."""

    def test_determinant_identity(self):
        l1, l2 = F(1, 2), F(1, 5)
        a1, b1 = F(2), F(3)
        a2, b2 = F(1), F(7)

        def y(a, b, p):
            return a * l1 ** p + b * l2 ** p

        for p in range(4):
            det = (y(a1, b1, p) * y(a2, b2, p + 1)
                   - y(a2, b2, p) * y(a1, b1, p + 1))
            expected = (l1 ** p * l2 ** p * (l2 - l1) * (a1 * b2 - a2 * b1))
            assert det == expected

    def test_zero_iff_proportional(self):
        l1, l2 = F(1, 2), F(1, 5)

        def det_at(a1, b1, a2, b2, p):
            def y(a, b, q):
                return a * l1 ** q + b * l2 ** q
            return (y(a1, b1, p) * y(a2, b2, p + 1)
                    - y(a2, b2, p) * y(a1, b1, p + 1))

        assert det_at(F(2), F(4), F(1), F(2), 3) == 0  # proportional
        assert det_at(F(2), F(4), F(1), F(3), 3) != 0
