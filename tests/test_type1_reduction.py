"""The end-to-end Cook reduction #P2CNF -> FOMC_bi(Q), Theorem 3.1
(experiments E8, E9)."""

import pytest

from repro.core import catalog
from repro.counting.p2cnf import P2CNF
from repro.counting.problems import FOMC_VALUES
from repro.reduction.type1 import Type1Reduction, count_p2cnf

FORMULAS = [
    P2CNF(2, ((0, 1),)),
    P2CNF.path(3),
    P2CNF.path(4),
    P2CNF.star(4),
    P2CNF.cycle(4),
    P2CNF(3, ((0, 1), (0, 2))),
]


class TestEndToEnd:
    @pytest.mark.parametrize("phi", FORMULAS, ids=lambda p: f"n{p.n}m{p.m}")
    def test_rst_recovers_counts(self, phi):
        red = Type1Reduction(catalog.rst_query())
        result = red.run(phi)
        assert result.model_count == phi.count_satisfying()
        expected = {k: v for k, v in phi.signature_counts().items() if v}
        assert result.signature_counts == expected

    def test_path2_query(self):
        phi = P2CNF.path(3)
        assert count_p2cnf(catalog.path_query(2), phi) == \
            phi.count_satisfying()

    def test_wide_query(self):
        phi = P2CNF.star(3)
        assert count_p2cnf(catalog.wide_final_query(), phi) == \
            phi.count_satisfying()

    def test_empty_formula(self):
        phi = P2CNF(3, ())
        result = Type1Reduction(catalog.rst_query()).run(phi)
        assert result.model_count == 8

    def test_oracle_call_count_polynomial(self):
        """Cook reduction budget: at most one oracle call per unknown."""
        phi = P2CNF.path(4)
        result = Type1Reduction(catalog.rst_query()).run(phi)
        unknowns = (phi.m + 1) * (phi.m + 2) // 2
        assert result.oracle_calls == unknowns


#: The parameter multisets row selection keeps for m clauses, as the
#: Fraction Gauss-Jordan selection chose them; the fraction-free basis
#: must choose the same ones, in the same order.
PARAMETERS_USED = {
    1: ((1, 1), (1, 2), (2, 2)),
    2: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)),
    3: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4),
        (3, 4), (4, 4)),
    4: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4),
        (3, 4), (4, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5)),
    5: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4),
        (3, 4), (4, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (1, 6),
        (2, 6), (3, 6), (4, 6), (5, 6), (6, 6)),
    6: ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3), (1, 4), (2, 4),
        (3, 4), (4, 4), (1, 5), (2, 5), (3, 5), (4, 5), (5, 5), (1, 6),
        (2, 6), (3, 6), (4, 6), (5, 6), (6, 6), (1, 7), (2, 7), (3, 7),
        (4, 7), (5, 7), (6, 7), (7, 7)),
}


class TestRowSelection:
    @pytest.mark.parametrize("name,ctor", [
        ("rst", catalog.rst_query),
        ("path1", lambda: catalog.path_query(1)),
    ])
    def test_parameters_used_are_pinned(self, name, ctor):
        red = Type1Reduction(ctor())
        for m, expected in PARAMETERS_USED.items():
            result = red.run(P2CNF.path(m + 1))
            assert result.parameters_used == expected
            assert result.oracle_calls == len(expected)


class TestOneElimination:
    def test_run_never_calls_matrix_solve(self, monkeypatch):
        """The basis that selects the rows also solves the system: the
        kept rows are not eliminated a second time."""
        from repro.algebra.matrices import Matrix

        def refuse(self, rhs):
            raise AssertionError("Matrix.solve called")

        monkeypatch.setattr(Matrix, "solve", refuse)
        red = Type1Reduction(catalog.rst_query())
        for phi in FORMULAS:
            result = red.run(phi)
            assert result.model_count == phi.count_satisfying_brute()
            assert result.signature_counts == \
                {k: v for k, v in phi.signature_counts().items() if v}


class TestHonestOracle:
    """The 'wmc' oracle grounds the actual database; it must agree with
    the block-product fast path (Theorem 3.4, experiment E8)."""

    def test_single_clause(self):
        phi = P2CNF(2, ((0, 1),))
        red = Type1Reduction(catalog.rst_query())
        result = red.run(phi, oracle="wmc")
        assert result.model_count == 3

    def test_two_clauses(self):
        phi = P2CNF.path(3)
        red = Type1Reduction(catalog.rst_query())
        assert red.run(phi, oracle="wmc").model_count == 5

    def test_oracle_values_agree(self):
        phi = P2CNF.path(3)
        red = Type1Reduction(catalog.rst_query())
        for params in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            assert red.product_oracle_value(phi, params) == \
                red.wmc_oracle_value(phi, params)

    def test_callable_oracle(self):
        from repro.tid.wmc import probability
        phi = P2CNF(2, ((0, 1),))
        red = Type1Reduction(catalog.rst_query())
        calls = []

        def oracle(tid):
            calls.append(tid)
            return probability(catalog.rst_query(), tid)

        result = red.run(phi, oracle=oracle)
        assert result.model_count == 3
        assert len(calls) == result.oracle_calls


class TestDatabaseLegality:
    def test_reduction_database_is_fomc(self):
        """Every database handed to the oracle uses only probabilities
        in {1/2, 1} — Theorem 2.9 (1) is about *model counting*."""
        phi = P2CNF.path(3)
        red = Type1Reduction(catalog.rst_query())
        for params in [(1, 1), (2, 3)]:
            tid = red.reduction_database(phi, params)
            assert tid.restrict_check(FOMC_VALUES)


class TestValidation:
    def test_rejects_type2(self):
        with pytest.raises(ValueError):
            Type1Reduction(catalog.example_c9())

    def test_rejects_non_final(self):
        with pytest.raises(ValueError):
            Type1Reduction(catalog.intro_example())

    def test_check_final_override(self):
        red = Type1Reduction(catalog.intro_example(), check_final=False)
        phi = P2CNF(2, ((0, 1),))
        # The intro example is unsafe but not final; its small matrix
        # still happens to be non-singular at 1/2, so the reduction
        # works — the override exists exactly for such experiments.
        assert red.run(phi).model_count == 3

    def test_rejects_h0(self):
        with pytest.raises(ValueError):
            Type1Reduction(catalog.h0())
