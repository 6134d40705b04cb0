"""The end-to-end Cook reduction #P2CNF -> FOMC_bi(Q), Theorem 3.1
(experiments E8, E9)."""

import random
import sys
import threading
from collections import OrderedDict

import pytest

from repro.core import catalog
from repro.counting.p2cnf import P2CNF
from repro.counting.problems import FOMC_VALUES
from repro.reduction import type1
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


# ----------------------------------------------------------------------
# The system kept per (query, m)
# ----------------------------------------------------------------------
KEPT_QUERIES = [
    ("rst", catalog.rst_query),
    ("path1", lambda: catalog.path_query(1)),
    ("path2", lambda: catalog.path_query(2)),
    ("path3", lambda: catalog.path_query(3)),
    ("wide", catalog.wide_final_query),
]


def random_p2cnf(rng: random.Random, n: int, m: int) -> P2CNF:
    """m distinct clauses over n variables, each randomly oriented."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return P2CNF(n, tuple((i, j) if rng.random() < 0.5 else (j, i)
                          for i, j in rng.sample(pairs, m)))


def empty_caches() -> None:
    type1._SYSTEMS.clear()
    type1._QUERIES.clear()


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty reduction caches for the test; the process's own caches
    come back afterwards."""
    monkeypatch.setattr(type1, "_SYSTEMS", OrderedDict())
    monkeypatch.setattr(type1, "_QUERIES", OrderedDict())


class Spy:
    """Counts the calls of the named ``Type1Reduction`` methods and
    records their arguments."""

    def __init__(self, monkeypatch, *names):
        self.calls = {name: [] for name in names}
        for name in names:
            original = getattr(Type1Reduction, name)

            def spy(self_, *args, _original=original, _name=name):
                self.calls[_name].append(args)
                return _original(self_, *args)

            monkeypatch.setattr(Type1Reduction, name, spy)

    def count(self, name) -> int:
        return len(self.calls[name])

    def reset(self) -> None:
        for calls in self.calls.values():
            calls.clear()


@pytest.mark.usefixtures("fresh_caches")
class TestKeptSystem:
    @pytest.mark.parametrize("name,ctor", KEPT_QUERIES,
                             ids=[name for name, _ in KEPT_QUERIES])
    def test_cold_and_warm_runs_agree(self, name, ctor):
        """A run on empty caches and a warm run give equal results,
        both the brute-force count, for every m in 1..6 and for a
        second instance that only ever runs warm after another one."""
        query = ctor()
        rng = random.Random(31)
        for m in range(1, 7):
            first, second = (random_p2cnf(rng, 5, m) for _ in range(2))
            empty_caches()
            cold = Type1Reduction(query).run(first)
            warm = Type1Reduction(query).run(first)
            assert cold == warm
            assert cold.model_count == first.count_satisfying_brute()
            warm_other = Type1Reduction(query).run(second)
            empty_caches()
            assert Type1Reduction(query).run(second) == warm_other
            assert warm_other.model_count == \
                second.count_satisfying_brute()
            assert warm_other.parameters_used == PARAMETERS_USED[m]

    def test_a_warm_run_is_its_oracle_calls(self, monkeypatch):
        query = catalog.path_query(1)
        rng = random.Random(5)
        spy = Spy(monkeypatch, "coefficient_row", "product_oracle_value")
        cold = Type1Reduction(query).run(random_p2cnf(rng, 6, 5))
        assert spy.count("coefficient_row") >= cold.oracle_calls
        assert spy.count("product_oracle_value") == cold.oracle_calls
        for _ in range(3):
            spy.reset()
            phi = random_p2cnf(rng, 6, 5)
            warm = Type1Reduction(query).run(phi)
            assert spy.count("coefficient_row") == 0
            assert spy.count("product_oracle_value") == warm.oracle_calls
            assert [params for _, params in
                    spy.calls["product_oracle_value"]] == \
                list(warm.parameters_used)
            assert warm.model_count == phi.count_satisfying_brute()

    def test_filling_past_the_bound_evicts_the_least_recently_used(
            self, monkeypatch):
        monkeypatch.setattr(type1, "_SYSTEM_LIMIT", 2)
        query = catalog.rst_query()
        spy = Spy(monkeypatch, "coefficient_row")
        for m in (1, 2, 1, 3):
            Type1Reduction(query).run(P2CNF.path(m + 1))
        assert list(type1._SYSTEMS) == [(query, 1), (query, 3)]
        for m, recomputed in ((1, False), (2, True)):
            spy.reset()
            Type1Reduction(query).run(P2CNF.path(m + 1))
            assert (spy.count("coefficient_row") > 0) is recomputed
        assert list(type1._SYSTEMS) == [(query, 1), (query, 2)]

    def test_query_bound_keeps_the_most_recent_query(self, monkeypatch):
        monkeypatch.setattr(type1, "_QUERY_LIMIT", 1)
        first = Type1Reduction(catalog.rst_query())
        second = Type1Reduction(catalog.path_query(2))
        assert list(type1._QUERIES) == [catalog.path_query(2)]
        # An evicted query's reduction keeps its own A(1) and z-values.
        phi = P2CNF.path(3)
        assert first.run(phi).model_count == phi.count_satisfying_brute()
        assert second.run(phi).model_count == \
            phi.count_satisfying_brute()

    def test_the_key_is_the_query_value(self, monkeypatch):
        """An equal query built anew finds the kept system; another
        query with the same m selects its own."""
        spy = Spy(monkeypatch, "coefficient_row")
        Type1Reduction(catalog.path_query(2)).run(P2CNF.path(4))
        spy.reset()
        phi = P2CNF.star(4)
        result = Type1Reduction(catalog.path_query(2)).run(phi)
        assert spy.count("coefficient_row") == 0
        assert result.model_count == phi.count_satisfying_brute()
        result = Type1Reduction(catalog.rst_query()).run(phi)
        assert spy.count("coefficient_row") > 0
        assert result.model_count == phi.count_satisfying_brute()

    def test_a_failed_full_rank_check_is_not_kept(self, monkeypatch):
        reduction = Type1Reduction(catalog.safe_left_only(),
                                   check_final=False)
        spy = Spy(monkeypatch, "coefficient_row")
        for _ in range(2):
            spy.reset()
            with pytest.raises(AssertionError, match="full rank"):
                reduction.run(P2CNF.path(3))
            assert spy.count("coefficient_row") > 0
        assert not type1._SYSTEMS

    @pytest.mark.parametrize("oracle", ["wmc", "callable"])
    def test_oracles_see_the_same_parameters_warm_as_cold(
            self, monkeypatch, oracle):
        from repro.tid.wmc import probability

        query = catalog.rst_query()
        if oracle == "callable":
            def oracle(tid):
                return probability(query, tid)
        spy = Spy(monkeypatch, "reduction_database")
        phi = P2CNF.path(4)
        results = []
        for _ in range(2):
            spy.reset()
            results.append(Type1Reduction(query).run(phi, oracle=oracle))
            assert [params for _, params in
                    spy.calls["reduction_database"]] == \
                list(results[-1].parameters_used)
        cold, warm = results
        assert cold == warm
        assert cold.parameters_used == PARAMETERS_USED[phi.m]
        assert cold.model_count == phi.count_satisfying_brute()

    def test_threads_on_one_cold_system_agree(self):
        query = catalog.path_query(2)
        phi = random_p2cnf(random.Random(8), 6, 5)
        barrier = threading.Barrier(8)
        results: list = [None] * 8
        errors: list = []

        def work(i):
            try:
                barrier.wait()
                results[i] = Type1Reduction(query).run(phi)
            except BaseException as error:  # surfaced by the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(result == results[0] for result in results)
        assert results[0].model_count == phi.count_satisfying_brute()
        assert list(type1._SYSTEMS) == [(query, phi.m)]
