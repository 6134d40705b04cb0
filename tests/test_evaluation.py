"""The dichotomy-aware evaluation router — repro.evaluation."""

from fractions import Fraction

import pytest

from repro.core.catalog import rst_query, safe_left_only
from repro.core.clauses import Clause
from repro.core.queries import Query
from repro.core.safety import is_safe
from repro.evaluation import EvaluationResult, evaluate
from repro.tid.brute import probability_brute
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple
from repro.tid.lifted import UnsafeQueryError

F = Fraction


def small_tid(query):
    probs = {r_tuple("u"): F(1, 2), t_tuple("v"): F(1, 2)}
    for s in sorted(query.binary_symbols):
        probs[s_tuple(s, "u", "v")] = F(1, 2)
    return TID(["u"], ["v"], probs)


class TestRouting:
    def test_safe_routes_to_lifted(self):
        q = safe_left_only()
        result = evaluate(q, small_tid(q))
        assert result.method == "lifted"
        assert result.safe

    def test_unsafe_routes_to_wmc(self):
        q = rst_query()
        result = evaluate(q, small_tid(q))
        assert result.method == "wmc"
        assert not result.safe

    def test_safe_query_without_a_plan_answers_exactly(self):
        """R(x) v T(y) sharing R with another clause is safe but has no
        safe plan: auto answers on the WMC path and still records the
        query as safe, and cross-check skips the lifted comparison."""
        q = Query([Clause("full", {"R", "T"}, []),
                   Clause.left_type1("S1")])
        assert is_safe(q)
        tid = TID(["u1", "u2"], ["v1"], {
            r_tuple("u1"): F(1, 2), r_tuple("u2"): F(1, 3),
            t_tuple("v1"): F(1, 4), s_tuple("S1", "u1", "v1"): F(1, 2),
            s_tuple("S1", "u2", "v1"): F(2, 3)})
        exact = probability_brute(q, tid)
        assert exact == F(13, 48)
        assert evaluate(q, tid) == EvaluationResult(exact, "wmc", True)
        assert evaluate(q, tid, method="cross-check") \
            == EvaluationResult(exact, "cross-check", True)
        with pytest.raises(UnsafeQueryError, match="full clauses"):
            evaluate(q, tid, method="lifted")

    def test_forced_methods_agree(self):
        q = safe_left_only()
        tid = small_tid(q)
        values = {m: evaluate(q, tid, method=m).value
                  for m in ("lifted", "wmc", "brute")}
        assert len(set(values.values())) == 1

    def test_cross_check(self):
        q = rst_query()
        result = evaluate(q, small_tid(q), method="cross-check")
        assert result.method == "cross-check"

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            evaluate(rst_query(), small_tid(rst_query()), method="magic")

    def test_a_given_classification_is_not_recomputed(self, monkeypatch):
        """``safe=`` carries a classification the caller already holds
        (the service's resolver does); ``evaluate`` then routes on it
        without calling ``is_safe``, and ``evaluate_batch`` classifies
        once for all its databases."""
        from repro import evaluation

        calls = []

        def counting_is_safe(query):
            calls.append(query)
            return is_safe(query)

        monkeypatch.setattr(evaluation, "is_safe", counting_is_safe)
        for q in (safe_left_only(), rst_query()):
            tid = small_tid(q)
            assert evaluate(q, tid, safe=is_safe(q)) == evaluate(q, tid)
        assert len(calls) == 2
        q = rst_query()
        results = evaluation.evaluate_batch(q, [small_tid(q)] * 3)
        assert len(calls) == 3
        assert results == [evaluate(q, small_tid(q), safe=False)] * 3

    def test_result_compares_to_fraction(self):
        q = rst_query()
        result = evaluate(q, small_tid(q))
        assert result == result.value
        assert (result == EvaluationResult(result.value, "wmc", False))


class TestResultEquality:
    """EvaluationResult.__eq__ must delegate unknown types so the
    reflected comparison runs (returning NotImplemented, not False)."""

    def test_foreign_type_gets_notimplemented(self):
        result = EvaluationResult(F(1, 2), "wmc", False)
        assert result.__eq__("1/2") is NotImplemented
        assert result.__eq__(object()) is NotImplemented

    def test_reflected_comparison_wins(self):
        class Half:
            """A type whose reflected __eq__ recognizes results."""

            def __eq__(self, other):
                return isinstance(other, EvaluationResult) and \
                    other.value == F(1, 2)

        result = EvaluationResult(F(1, 2), "wmc", False)
        # result.__eq__(Half()) is NotImplemented, so Python falls back
        # to Half().__eq__(result); before the fix this was plain False.
        assert result == Half()
        assert Half() == result

    def test_numeric_comparisons_still_work(self):
        result = EvaluationResult(F(1, 2), "wmc", False)
        assert result == F(1, 2)
        assert result == 0.5
        assert result != F(1, 3)
        assert EvaluationResult(F(1), "wmc", False) == 1

    def test_hash_consistent_with_fraction(self):
        result = EvaluationResult(F(1, 2), "wmc", False)
        assert hash(result) == hash(F(1, 2))
