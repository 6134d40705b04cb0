"""The service wire protocol: framing, validation, codecs."""

import json

from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.booleans.adaptive import BOUND_LABELS
from repro.booleans.approximate import ProbabilityEstimate
from repro.service.protocol import (
    ERROR_CODES,
    MAX_REQUEST_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    check_fields,
    decode_estimate,
    decode_fraction,
    decode_world,
    dump_line,
    encode_fraction,
    encode_request,
    encode_world,
    error_response,
    ok_response,
    parse_request,
    take_fraction,
    take_int,
    take_int_list,
    take_str,
)

F = Fraction


def round_trip(obj: dict) -> dict:
    """Through the actual framing: dump to a wire line, parse back."""
    line = dump_line(obj)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    return json.loads(line)


class TestParseRequest:
    def test_minimal(self):
        rid, op, params, auth, trace = parse_request(
            dump_line({"v": PROTOCOL_VERSION, "op": "ping"}))
        assert rid is None and op == "ping" and params == {}
        assert auth is None and trace is None

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_round_trips(self, op):
        request = encode_request(op, {"query": "(R|S1)(S1|T)"},
                                 request_id=17)
        rid, parsed_op, params, auth, trace = parse_request(
            dump_line(request))
        assert (rid, parsed_op) == (17, op)
        assert params == {"query": "(R|S1)(S1|T)"}
        assert auth is None and trace is None

    def test_auth_token_round_trips(self):
        request = encode_request("ping", request_id=3, auth="s3cret")
        rid, op, params, auth, trace = parse_request(
            dump_line(request))
        assert (rid, op, params, auth) == (3, "ping", {}, "s3cret")
        assert trace is None

    def test_trace_id_round_trips(self):
        request = encode_request("ping", request_id=4,
                                 trace="client-trace-1")
        rid, op, params, auth, trace = parse_request(
            dump_line(request))
        assert (rid, op, trace) == (4, "ping", "client-trace-1")

    @pytest.mark.parametrize("bad", [7, "", "x" * 129, True])
    def test_bad_trace_id_rejected(self, bad):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "ping", "trace": bad}))
        assert info.value.code == "bad-request"
        assert "trace" in info.value.message

    def test_auth_must_be_a_string(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "ping", "auth": 99}))
        assert info.value.code == "bad-request"
        assert "auth" in info.value.message

    def test_string_ids_supported(self):
        request = encode_request("ping", request_id="req-abc")
        assert parse_request(dump_line(request))[0] == "req-abc"

    def test_not_json(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"{nope")
        assert info.value.code == "parse-error"

    def test_not_utf8(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"\xff\xfe{}")
        assert info.value.code == "parse-error"

    def test_not_an_object(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(b"[1, 2]")
        assert info.value.code == "bad-request"

    def test_wrong_version(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line({"v": 99, "op": "ping", "id": 3}))
        assert info.value.code == "unsupported-version"
        # The id was readable, so the error can still be correlated.
        assert info.value.request_id == 3

    def test_missing_version(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line({"op": "ping"}))
        assert info.value.code == "unsupported-version"

    def test_missing_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line({"v": PROTOCOL_VERSION}))
        assert info.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "drop-tables"}))
        assert info.value.code == "unknown-op"

    def test_params_must_be_object(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "ping", "params": [1]}))
        assert info.value.code == "bad-request"

    def test_bool_id_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "ping", "id": True}))
        assert info.value.code == "bad-request"

    def test_stray_top_level_fields_rejected(self):
        with pytest.raises(ProtocolError) as info:
            parse_request(dump_line(
                {"v": PROTOCOL_VERSION, "op": "ping", "extra": 1}))
        assert info.value.code == "bad-request"
        assert "extra" in info.value.message


class TestResponses:
    def test_ok_shape(self):
        response = round_trip(ok_response(5, "stats", {"cache": {}}))
        assert response == {"v": PROTOCOL_VERSION, "id": 5, "ok": True,
                            "op": "stats", "result": {"cache": {}}}

    def test_error_shape(self):
        response = round_trip(
            error_response(None, "bad-query", "no clauses"))
        assert response["ok"] is False
        assert response["error"] == {"code": "bad-query",
                                     "message": "no clauses"}

    def test_error_codes_are_closed(self):
        with pytest.raises(ValueError):
            ProtocolError("made-up-code", "boom")
        for code in ERROR_CODES:
            assert ProtocolError(code, "x").code == code


class TestFractionCodec:
    @pytest.mark.parametrize("value", [
        F(0), F(1), F(1, 3), F(-7, 2), F(4181, 131072)])
    def test_round_trip(self, value):
        assert decode_fraction(encode_fraction(value)) == value

    def test_int_accepted(self):
        assert decode_fraction(3) == F(3)

    def test_float_means_its_decimal(self):
        # The JSON number 0.05 means 1/20 — what the human typed — not
        # the nearest binary double.
        assert decode_fraction(0.05) == F(1, 20)

    def test_huge_decimal_exponent_is_refused_at_once(self):
        """``Fraction("1e-10000000")`` alone takes seconds; the codec
        refuses such an exponent before building the power."""
        for bad in ("1e-10000000", "3E+1001", "1.5e-99999999999"):
            with pytest.raises(ProtocolError) as info:
                decode_fraction(bad, "epsilon")
            assert info.value.code == "bad-request"
            assert "exponent" in info.value.message
        assert decode_fraction("1e-1000") == F(1, 10 ** 1000)
        assert decode_fraction(5e-324) == F("5e-324")

    @pytest.mark.parametrize("bad", [True, [1], {"n": 1}, "abc", "1/0"])
    def test_rejects(self, bad):
        with pytest.raises(ProtocolError) as info:
            decode_fraction(bad, "epsilon")
        assert info.value.code == "bad-request"
        assert "epsilon" in info.value.message


class TestWorldCodec:
    def test_round_trip_tuple_tokens(self):
        world = {("R", "u"): True, ("S1", "u", "v"): False,
                 ("T", "v"): True}
        decoded = decode_world(json.loads(
            json.dumps(encode_world(world))))
        assert decoded == world
        # Tuple tokens come back as tuples, never list lookalikes.
        assert all(isinstance(var, tuple) for var in decoded)

    def test_deterministic_order(self):
        world = {("S1", "u", "v"): True, ("R", "u"): False}
        assert encode_world(world) == encode_world(dict(
            reversed(list(world.items()))))

    def test_decode_rejects_non_list(self):
        with pytest.raises(ProtocolError):
            decode_world({"not": "a list"})

    @pytest.mark.parametrize("bad", [
        [1], [[1]], [[1, 2, 3]], [["x", True]], [[["s", "x"], 1]],
        [[["i", "7"], True]], [[["b", 1], True]], [[["t", "ab"], True]],
        [[["z", None], True]], [[[], True]], [[[["s"]], True]]])
    def test_malformed_worlds_are_bad_requests(self, bad):
        with pytest.raises(ProtocolError) as info:
            decode_world(bad)
        assert info.value.code == "bad-request"


class TestValidators:
    def test_take_str_required_missing(self):
        with pytest.raises(ProtocolError) as info:
            take_str({}, "query")
        assert info.value.code == "bad-request"
        assert "query" in info.value.message

    def test_take_str_choices(self):
        assert take_str({"m": "auto"}, "m", choices=("auto",)) == "auto"
        with pytest.raises(ProtocolError):
            take_str({"m": "nope"}, "m", choices=("auto",))

    def test_take_str_type(self):
        with pytest.raises(ProtocolError):
            take_str({"query": 7}, "query")

    def test_take_int_defaults_and_bounds(self):
        assert take_int({}, "p", default=4) == 4
        assert take_int({"p": 6}, "p", default=4, minimum=1,
                        maximum=64) == 6
        with pytest.raises(ProtocolError):
            take_int({"p": 0}, "p", default=4, minimum=1)
        with pytest.raises(ProtocolError):
            take_int({"p": 65}, "p", default=4, maximum=64)

    def test_take_int_rejects_bool_and_float(self):
        with pytest.raises(ProtocolError):
            take_int({"p": True}, "p", default=4)
        with pytest.raises(ProtocolError):
            take_int({"p": 4.0}, "p", default=4)

    def test_take_fraction_default(self):
        assert take_fraction({}, "epsilon", default=F(1, 20)) == F(1, 20)
        assert take_fraction({"epsilon": "1/8"}, "epsilon",
                             default=F(1, 20)) == F(1, 8)

    def test_take_int_list(self):
        assert take_int_list({"ps": [2, 3, 4]}, "ps",
                             minimum=1) == [2, 3, 4]
        for bad in ([], "2,3", [2, "3"], [0], [True]):
            with pytest.raises(ProtocolError):
                take_int_list({"ps": bad}, "ps", minimum=1)

    def test_take_int_list_cap(self):
        with pytest.raises(ProtocolError):
            take_int_list({"ps": list(range(1, 12))}, "ps",
                          max_items=10)

    def test_check_fields(self):
        check_fields({"query": "q", "p": 4}, ("query", "p", "grid"))
        with pytest.raises(ProtocolError) as info:
            check_fields({"query": "q", "tpyo": 1}, ("query", "p"))
        assert "tpyo" in info.value.message

    def test_request_size_cap_is_sane(self):
        assert MAX_REQUEST_BYTES >= 65536


class TestEstimateCodec:
    """``ProbabilityEstimate.as_dict`` -> ``decode_estimate`` must be
    the identity on the wire shape, with the adaptive tier's new
    fields (``relative_error``/``samples_used``/``center``) preserved
    as exact Fractions — the PR 4 codec only type-tagged the original
    fields and had no decoder at all."""

    def examples(self):
        from repro.booleans.approximate import ProbabilityEstimate

        hoeffding = ProbabilityEstimate(
            F(369, 738), F(1, 20), F(1, 20), 738, 369)
        bernstein = ProbabilityEstimate(
            F(4093, 4096), F(133, 19166), F(1, 20), 4096, 4093,
            method="bernstein", relative_error=F(133, 19033),
            samples_used=4096)
        importance = ProbabilityEstimate(
            F(1, 64), F(7, 1536), F(1, 10), 2048, 31,
            method="importance", relative_error=F(7, 17),
            samples_used=2048, center=F(33, 2048))
        return hoeffding, bernstein, importance

    def test_round_trip_is_identity_on_the_wire(self):
        from repro.service.protocol import decode_estimate

        for estimate in self.examples():
            wire = json.loads(dump_line(estimate.as_dict()))
            decoded = decode_estimate(wire)
            assert decoded == estimate
            assert decoded.as_dict() == estimate.as_dict()

    def test_new_fields_stay_exact_fractions(self):
        from repro.service.protocol import decode_estimate

        _, bernstein, importance = self.examples()
        decoded = decode_estimate(bernstein.as_dict())
        assert type(decoded.relative_error) is F
        assert decoded.relative_error == F(133, 19033)
        assert decoded.samples_used == 4096
        decoded = decode_estimate(importance.as_dict())
        assert type(decoded.center) is F
        assert decoded.center == F(33, 2048)
        # low/high derive from the *center* for self-normalized
        # estimates; the decode must reproduce that too.
        assert decoded.low == importance.low
        assert decoded.high == importance.high

    def test_legacy_wire_shape_still_decodes(self):
        """A PR 3/4-era estimate dict (no method/relative_error/
        samples_used keys) decodes with the defaults."""
        from repro.service.protocol import decode_estimate

        wire = {"estimate": "1/2", "epsilon": "1/20", "delta": "1/20",
                "samples": 738, "successes": 369}
        decoded = decode_estimate(wire)
        assert decoded.method == "hoeffding"
        assert decoded.relative_error is None
        assert decoded.samples_used is None
        assert decoded.center is None

    def test_malformed_estimates_rejected(self):
        from repro.service.protocol import decode_estimate

        with pytest.raises(ProtocolError, match="object"):
            decode_estimate([1, 2, 3])
        with pytest.raises(ProtocolError, match="missing"):
            decode_estimate({"estimate": "1/2"})
        good = self.examples()[0].as_dict()
        for field in ("samples", "successes", "samples_used"):
            bad = dict(good)
            bad[field] = True
            with pytest.raises(ProtocolError, match="integer"):
                decode_estimate(bad)
        # Only samples_used is optional; null for the required counts
        # must be rejected, not smuggled into arithmetic downstream.
        for field in ("samples", "successes"):
            bad = dict(good)
            bad[field] = None
            with pytest.raises(ProtocolError, match="integer"):
                decode_estimate(bad)
        bad = dict(good)
        bad["relative_error"] = "not-a-fraction"
        with pytest.raises(ProtocolError, match="relative_error"):
            decode_estimate(bad)


# ----------------------------------------------------------------------
# Codec fuzz: any JSON value decodes or is a bad request
# ----------------------------------------------------------------------
#: Any JSON value Python's ``json`` reads (NaN and infinities included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10)

#: Well-formed variable tokens, as ``encode_token`` writes them.
TOKENS = st.recursive(
    st.just(["z"])
    | st.tuples(st.just("b"), st.booleans()).map(list)
    | st.tuples(st.just("i"), st.integers()).map(list)
    | st.tuples(st.just("s"), st.text(max_size=4)).map(list),
    lambda inner: st.lists(inner, max_size=3).map(
        lambda parts: ["t", parts]),
    max_leaves=6)

#: Worlds whose entries are mostly well formed, with junk mixed in.
WORLDS = st.lists(
    st.tuples(TOKENS | JSON_VALUES, st.booleans() | JSON_VALUES).map(list)
    | JSON_VALUES, max_size=5)

UNIT = st.fractions(0, 1, max_denominator=10 ** 9)
POSITIVE = st.fractions(0, 3, max_denominator=10 ** 9)
COUNTS = st.integers(0, 10 ** 6)

#: Estimates of the shapes the samplers return.
ESTIMATES = st.builds(
    ProbabilityEstimate, estimate=UNIT, epsilon=POSITIVE, delta=UNIT,
    samples=COUNTS, successes=COUNTS,
    method=st.sampled_from(sorted(set(BOUND_LABELS.values()))),
    relative_error=st.none() | POSITIVE,
    samples_used=st.none() | COUNTS, center=st.none() | UNIT)


@st.composite
def mutated_estimates(draw) -> dict:
    """An estimate's wire object with one field dropped or replaced by
    any JSON value."""
    wire = draw(ESTIMATES).as_dict()
    field = draw(st.sampled_from(sorted(wire) + ["extra"]))
    if draw(st.booleans()):
        wire.pop(field, None)
    else:
        wire[field] = draw(JSON_VALUES)
    return wire


class TestCodecFuzz:
    """Whatever a peer sends, ``decode_world`` and ``decode_estimate``
    decode it or raise ``ProtocolError("bad-request")``, and whatever
    decodes re-encodes to itself."""

    @given(obj=WORLDS | JSON_VALUES)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_any_world_decodes_or_is_a_bad_request(self, obj):
        try:
            world = decode_world(obj)
        except ProtocolError as error:
            assert error.code == "bad-request"
            return
        wire = json.loads(json.dumps(encode_world(world)))
        assert decode_world(wire) == world

    @given(obj=mutated_estimates() | JSON_VALUES)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_any_estimate_decodes_or_is_a_bad_request(self, obj):
        try:
            estimate = decode_estimate(obj)
        except ProtocolError as error:
            assert error.code == "bad-request"
            return
        assert decode_estimate(estimate.as_dict()) == estimate

    @given(estimate=ESTIMATES)
    @settings(derandomize=True, max_examples=100, deadline=None)
    def test_generated_estimates_round_trip(self, estimate):
        wire = json.loads(dump_line(estimate.as_dict()))
        assert decode_estimate(wire).as_dict() == estimate.as_dict()
        assert decode_estimate(wire) == estimate

    def test_unknown_method_is_a_bad_request(self):
        wire = ProbabilityEstimate(F(1, 2), F(1, 20), F(1, 20), 8,
                                   4).as_dict()
        for method in (5, None, "bogus", ["hoeffding"]):
            with pytest.raises(ProtocolError, match="method"):
                decode_estimate({**wire, "method": method})
