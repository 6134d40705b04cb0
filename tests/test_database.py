"""Bipartite TIDs — repro.tid.database."""

from fractions import Fraction

import pytest

from repro.core.queries import parse_query
from repro.counting.problems import FOMC_VALUES, GFOMC_VALUES
from repro.reduction.blocks import path_block
from repro.tid.database import TID, r_tuple, s_tuple, t_tuple

F = Fraction


class TestConstruction:
    def test_basic(self):
        tid = TID(["u"], ["v"], {s_tuple("S", "u", "v"): F(1, 2)})
        assert tid.probability(s_tuple("S", "u", "v")) == F(1, 2)
        assert tid.probability(s_tuple("S2", "u", "v")) == 1

    def test_default(self):
        tid = TID(["u"], ["v"], {}, default=F(0))
        assert tid.probability(r_tuple("u")) == 0

    def test_default_value_not_stored(self):
        tid = TID(["u"], ["v"], {r_tuple("u"): F(1)})
        assert not tid.probs

    def test_overlapping_domains_raise(self):
        with pytest.raises(ValueError):
            TID(["a"], ["a"])

    def test_off_domain_tuple_raises(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {s_tuple("S", "u", "w"): F(1, 2)})

    def test_r_on_right_raises(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {r_tuple("v"): F(1, 2)})

    def test_t_on_left_raises(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {t_tuple("u"): F(1, 2)})

    def test_binary_with_unary_symbol_raises(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {("R", "u", "v"): F(1, 2)})

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {r_tuple("u"): F(3, 2)})

    def test_malformed_tuple(self):
        with pytest.raises(ValueError):
            TID(["u"], ["v"], {("S",): F(1, 2)})

    def test_shared_fractions_stay_one_object(self):
        """A ``Fraction`` is kept as given, so weight memos keyed by
        ``id`` convert a shared value once: the p=12 path block's 97
        tuples all hold its one 1/2."""
        tid = path_block(parse_query("(R|S1|S2)(S2|S3)"), 12)
        assert len(tid.probs) == 97
        assert len({id(value) for value in tid.probs.values()}) == 1
        half, default = F(1, 2), F(1)
        kept = TID(["u"], ["v"], {r_tuple("u"): half,
                                  t_tuple("v"): half}, default=default)
        assert kept.probability(r_tuple("u")) is half
        assert kept.probability(t_tuple("v")) is half
        assert kept.default is default

    def test_other_numbers_become_equal_fractions(self):
        tid = TID(["u"], ["v"], {r_tuple("u"): 0.5, t_tuple("v"): 0},
                  default=1)
        assert type(tid.probability(r_tuple("u"))) is Fraction
        assert type(tid.default) is Fraction
        assert tid == TID(["u"], ["v"], {r_tuple("u"): F(1, 2),
                                         t_tuple("v"): F(0)})
        assert hash(tid) == hash(TID(["u"], ["v"], {
            r_tuple("u"): F(1, 2), t_tuple("v"): F(0)}))


class TestOperations:
    def test_with_probability(self):
        tid = TID(["u"], ["v"])
        tid2 = tid.with_probability(r_tuple("u"), F(1, 2))
        assert tid.probability(r_tuple("u")) == 1
        assert tid2.probability(r_tuple("u")) == F(1, 2)

    def test_union_disjoint(self):
        a = TID(["u"], ["v"], {s_tuple("S", "u", "v"): F(1, 2)})
        b = TID(["w"], ["z"], {s_tuple("S", "w", "z"): F(0)})
        u = a.union(b)
        assert set(u.left_domain) == {"u", "w"}
        assert u.probability(s_tuple("S", "u", "v")) == F(1, 2)
        assert u.probability(s_tuple("S", "w", "z")) == 0

    def test_union_shared_endpoint(self):
        a = TID(["u"], ["v1"], {r_tuple("u"): F(1, 2)})
        b = TID(["u"], ["v2"], {r_tuple("u"): F(1, 2)})
        u = a.union(b)
        assert u.left_domain == ("u",)

    def test_union_conflict_raises(self):
        a = TID(["u"], ["v"], {r_tuple("u"): F(1, 2)})
        b = TID(["u"], ["v"], {r_tuple("u"): F(1, 3)})
        with pytest.raises(ValueError):
            a.union(b)

    def test_uncertain_tuples(self):
        tid = TID(["u"], ["v"], {r_tuple("u"): F(1, 2),
                                 t_tuple("v"): F(0),
                                 s_tuple("S", "u", "v"): F(1)})
        assert tid.uncertain_tuples() == [r_tuple("u")]

    def test_restrict_checks(self):
        gfomc = TID(["u"], ["v"], {r_tuple("u"): F(1, 2),
                                   t_tuple("v"): F(0)})
        assert gfomc.restrict_check(GFOMC_VALUES)
        assert not gfomc.restrict_check(FOMC_VALUES)
        fomc = TID(["u"], ["v"], {r_tuple("u"): F(1, 2)})
        assert fomc.restrict_check(FOMC_VALUES)

    def test_equality_and_hash(self):
        a = TID(["u"], ["v"], {r_tuple("u"): F(1, 2)})
        b = TID(["u"], ["v"], {r_tuple("u"): F(1, 2)})
        assert a == b
        assert hash(a) == hash(b)
