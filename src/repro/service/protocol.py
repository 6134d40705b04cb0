"""The service wire protocol: versioned, line-delimited JSON.

A connection carries a sequence of requests, one JSON object per
``\\n``-terminated line, each answered in order by one JSON response
line (so a client may pipeline).  Every request names the protocol
version explicitly — a server never guesses what an unknown client
meant:

    {"v": 1, "id": 7, "op": "sweep",
     "params": {"query": "(R|S1)(S1|T)", "p": 4, "grid": 8}}

A hardened server additionally wants a top-level ``auth`` token
(``"auth": "s3cret"``) naming the calling tenant; it travels outside
``params`` so per-op validation stays authentication-blind.  A
top-level ``trace`` string likewise rides outside ``params``: it
names the request's trace id for the server's span tracer (minted by
the server when absent) and is echoed back as a top-level ``trace``
field on the response, so a client can correlate its own requests
with the server-side span trees the ``trace`` op returns.

Responses echo the id and either carry a result or a *structured*
error (machine-readable ``code`` + human-readable ``message``):

    {"v": 1, "id": 7, "ok": true, "op": "sweep", "result": {...}}
    {"v": 1, "id": 7, "ok": false,
     "error": {"code": "bad-query", "message": "..."}}

Exact rationals travel as ``"num/den"`` strings (JSON numbers cannot
represent them); variable tokens and worlds reuse the type-tagged
circuit codec (``repro.booleans.circuit.encode_token``), so a sampled
world round-trips to *equal* tuple tokens, never list lookalikes.

This module is deliberately transport-free: it validates and
(de)serializes, the server and client own their sockets.  Malformed
input of any shape maps to a ``ProtocolError`` whose ``code`` is one
of ``ERROR_CODES`` — the server turns that into an error response
instead of dropping the connection, so one bad request never kills a
pipelined session.
"""

from __future__ import annotations

import json

from fractions import Fraction

from repro.booleans.circuit import decode_token, encode_token

#: Bump on any incompatible change to the request/response shapes.
PROTOCOL_VERSION = 1

#: Upper bound on one request line; a line longer than this is
#: rejected (and the connection dropped — its framing is unrecoverable
#: once a line has been truncated).
MAX_REQUEST_BYTES = 1_048_576

#: The sampler knobs of the ops that may estimate.
_SAMPLER_PARAMS = ("budget_nodes", "epsilon", "delta", "seed",
                   "estimator", "relative_error")

#: Every operation the server understands and the params it accepts,
#: checked by the front end of both deployments.  No row may name
#: ``trace`` or ``timeout``, the keywords ``ServiceClient.call`` takes
#: beside the params.
OP_PARAMS = {
    "compile": ("query", "p", "budget_nodes"),
    "evaluate": ("query", "p", "method") + _SAMPLER_PARAMS,
    "evaluate_batch": ("query", "ps", "method") + _SAMPLER_PARAMS,
    "sweep": ("query", "p", "grid", "numeric") + _SAMPLER_PARAMS,
    "estimate": ("query", "p", "epsilon", "delta", "seed", "estimator",
                 "relative_error"),
    "sample": ("query", "p", "k", "seed", "budget_nodes"),
    "top_k": ("query", "p", "k", "budget_nodes"),
    "stats": (),
    "metrics": (),
    "trace": ("id", "limit", "slow"),
    "store_gc": ("max_bytes",),
    "ping": (),
    "shutdown": (),
}

OPS = tuple(OP_PARAMS)

#: Upper bound on a client-supplied trace id.
MAX_TRACE_ID_CHARS = 128

#: Largest decimal exponent a rational string may carry.  A float's
#: repr stays within 324, while ``Fraction("1e-10000000")`` alone
#: computes a ten-million-digit power of ten (about 12 s).
MAX_DECIMAL_EXPONENT = 1000

#: Machine-readable error codes a response may carry.
#: ``unauthorized``/``quota-exceeded`` are the multi-tenant refusals:
#: a missing/unknown auth token, and a tripped per-tenant rate window
#: or cumulative compile budget.
ERROR_CODES = ("parse-error", "unsupported-version", "unknown-op",
               "bad-request", "bad-query", "budget-exceeded",
               "unauthorized", "quota-exceeded", "internal")


class ProtocolError(Exception):
    """A request the server refuses, with a structured error code.

    ``request_id`` is filled in by ``parse_request`` when the failing
    request carried a readable id, so the error response can still be
    correlated by a pipelining client.
    """

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        self.code = code
        self.message = message
        self.request_id = None
        super().__init__(f"{code}: {message}")


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def dump_line(obj: dict) -> bytes:
    """One wire line: compact JSON + newline, UTF-8."""
    return (json.dumps(obj, separators=(",", ":"), sort_keys=True)
            + "\n").encode("utf-8")


def parse_request(line: bytes | str):
    """Validate one request line into
    ``(request_id, op, params, auth, trace)``.

    ``auth`` is the optional top-level token string identifying the
    caller (``None`` when absent) — it rides outside ``params`` so
    per-op validation never has to know about authentication.
    ``trace`` is the optional client-supplied trace id for the
    server's span tracer, likewise top-level so instrumentation never
    leaks into per-op validation.  Anything short of a well-formed,
    version-matched request raises ``ProtocolError`` with the most
    specific code available.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("parse-error",
                                f"request is not UTF-8: {error}") from None
    try:
        obj = json.loads(line)
    except ValueError as error:
        raise ProtocolError("parse-error",
                            f"request is not JSON: {error}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-request",
            f"request must be a JSON object, got {type(obj).__name__}")
    request_id = obj.get("id")
    if request_id is not None and (
            isinstance(request_id, bool)
            or not isinstance(request_id, (str, int))):
        raise ProtocolError("bad-request",
                            "request id must be a string or integer")

    def refuse(code: str, message: str):
        # The id was readable, so later failures can still echo it.
        error = ProtocolError(code, message)
        error.request_id = request_id
        raise error

    version = obj.get("v")
    if version != PROTOCOL_VERSION:
        refuse("unsupported-version",
               f"protocol version {version!r} not supported "
               f"(this server speaks v{PROTOCOL_VERSION})")
    op = obj.get("op")
    if not isinstance(op, str):
        refuse("bad-request", "request needs an 'op' string")
    if op not in OPS:
        refuse("unknown-op",
               f"unknown op {op!r}; supported: {', '.join(OPS)}")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        refuse("bad-request", "'params' must be an object")
    auth = obj.get("auth")
    if auth is not None and not isinstance(auth, str):
        refuse("bad-request", "'auth' must be a token string")
    trace = obj.get("trace")
    if trace is not None and (
            not isinstance(trace, str) or not trace
            or len(trace) > MAX_TRACE_ID_CHARS):
        refuse("bad-request",
               f"'trace' must be a non-empty string of at most "
               f"{MAX_TRACE_ID_CHARS} characters")
    stray = set(obj) - {"v", "id", "op", "params", "auth", "trace"}
    if stray:
        refuse("bad-request",
               f"unexpected request fields: {', '.join(sorted(stray))}")
    return request_id, op, params, auth, trace


def encode_request(op: str, params: dict | None = None,
                   request_id=None, auth: str | None = None,
                   trace: str | None = None) -> dict:
    """The client-side request object (call ``dump_line`` to frame)."""
    obj = {"v": PROTOCOL_VERSION, "op": op, "params": params or {}}
    if request_id is not None:
        obj["id"] = request_id
    if auth is not None:
        obj["auth"] = auth
    if trace is not None:
        obj["trace"] = trace
    return obj


def ok_response(request_id, op: str, result: dict) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True,
            "op": op, "result": result}


def error_response(request_id, code: str, message: str) -> dict:
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": False,
            "error": {"code": code, "message": message}}


# ----------------------------------------------------------------------
# Value codecs
# ----------------------------------------------------------------------
def encode_fraction(value) -> str:
    """Exact rationals as ``"num/den"`` strings (``"1/3"``, ``"0"``)."""
    return str(Fraction(value))


def decode_fraction(obj, field: str = "value") -> Fraction:
    """Accept ``"num/den"``/decimal strings, ints, and floats.

    Floats go through their shortest-repr string, so a client sending
    the JSON number ``0.05`` means exactly ``1/20`` — not the nearest
    binary double — matching what a human typed.
    """
    if isinstance(obj, bool):
        raise ProtocolError("bad-request",
                            f"field {field!r} must be a number or "
                            f"rational string, not a boolean")
    if isinstance(obj, float):
        obj = repr(obj)
    if isinstance(obj, (int, str)):
        try:
            if isinstance(obj, str):
                _, marker, exponent = obj.lower().partition("e")
                if marker and abs(int(exponent)) > MAX_DECIMAL_EXPONENT:
                    raise ValueError(
                        f"decimal exponent beyond "
                        f"{MAX_DECIMAL_EXPONENT}")
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as error:
            raise ProtocolError(
                "bad-request",
                f"field {field!r}: not a rational: {error}") from None
    raise ProtocolError(
        "bad-request",
        f"field {field!r} must be a number or rational string, "
        f"got {type(obj).__name__}")


def decode_estimate(obj) -> "ProbabilityEstimate":
    """The inverse of ``ProbabilityEstimate.as_dict``: reconstruct the
    estimate with every rational *exact*.

    The PR 4 codec only type-tagged the original fields; the adaptive
    estimators added ``method``, ``relative_error``, ``samples_used``,
    and (for the self-normalized importance sampler) ``center``, and a
    client that re-serializes a decoded estimate must get the same
    wire object back — ``decode_estimate(d).as_dict() == d`` — with
    ``relative_error``/``center`` as exact Fractions, never floats.
    Derived fields (``low``/``high``/``float``) are recomputed, which
    doubles as a consistency check on the sender.  Anything that is not
    such an object (a wrong type, a count below 0, a rational outside
    its range, an unknown ``method``) raises
    ``ProtocolError("bad-request")``, so whatever decodes re-encodes.
    """
    from repro.booleans.adaptive import BOUND_LABELS
    from repro.booleans.approximate import ProbabilityEstimate

    if not isinstance(obj, dict):
        raise ProtocolError(
            "bad-request",
            f"estimate must be an object, got {type(obj).__name__}")
    method = obj.get("method", "hoeffding")
    if method not in BOUND_LABELS.values():
        raise ProtocolError(
            "bad-request",
            f"estimate field 'method' must be one of "
            f"{sorted(set(BOUND_LABELS.values()))}")
    try:
        counts = {}
        for field, required in (("samples", True), ("successes", True),
                                ("samples_used", False)):
            value = obj[field] if required else obj.get(field)
            if (required or value is not None) and (
                    isinstance(value, bool) or not isinstance(value, int)
                    or value < 0):
                raise ProtocolError(
                    "bad-request",
                    f"estimate field {field!r} must be a non-negative "
                    f"integer")
            counts[field] = value
        # (field, required, upper bound) of each rational; all are >= 0.
        rationals = {}
        for field, required, high in (("estimate", True, 1),
                                      ("epsilon", True, None),
                                      ("delta", True, 1),
                                      ("relative_error", False, None),
                                      ("center", False, 1)):
            value = obj[field] if required else obj.get(field)
            if required or value is not None:
                value = decode_fraction(value, field)
                if value < 0 or (high is not None and value > high):
                    raise ProtocolError(
                        "bad-request",
                        f"estimate field {field!r} is out of range")
            rationals[field] = value
    except KeyError as error:
        raise ProtocolError(
            "bad-request",
            f"estimate is missing field {error}") from None
    return ProbabilityEstimate(method=method, **counts, **rationals)


def encode_world(world: dict) -> list:
    """A ``{var: bool}`` world as ``[[token, bool], ...]``, sorted by
    token repr so the wire form is deterministic across hash seeds."""
    return [[encode_token(var), bool(world[var])]
            for var in sorted(world, key=repr)]


def decode_world(obj) -> dict:
    """The inverse of ``encode_world``: a list of ``[token, bool]``
    pairs.  Anything else raises ``ProtocolError("bad-request")``."""
    if not isinstance(obj, list):
        raise ProtocolError("bad-request", "world must be a list")
    world = {}
    for entry in obj:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[1], bool)):
            raise ProtocolError(
                "bad-request",
                f"world entry {entry!r} is not a [token, bool] pair")
        try:
            world[decode_token(entry[0])] = entry[1]
        except (ValueError, RecursionError) as error:
            raise ProtocolError("bad-request", str(error)) from None
    return world


# ----------------------------------------------------------------------
# Typed parameter extraction (the per-op validation vocabulary)
# ----------------------------------------------------------------------
_MISSING = object()


def check_fields(params: dict, allowed) -> None:
    """Reject stray parameters by name — typos fail loudly instead of
    silently running with defaults."""
    stray = set(params) - set(allowed)
    if stray:
        raise ProtocolError(
            "bad-request",
            f"unexpected params: {', '.join(sorted(stray))} "
            f"(allowed: {', '.join(sorted(allowed))})")


def take_str(params: dict, field: str, default=_MISSING,
             choices=None) -> str:
    value = params.get(field, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError("bad-request",
                                f"missing required param {field!r}")
        return default
    if not isinstance(value, str):
        raise ProtocolError(
            "bad-request",
            f"param {field!r} must be a string, "
            f"got {type(value).__name__}")
    if choices is not None and value not in choices:
        raise ProtocolError(
            "bad-request",
            f"param {field!r} must be one of {', '.join(choices)}; "
            f"got {value!r}")
    return value


def take_int(params: dict, field: str, default=_MISSING,
             minimum: int | None = None,
             maximum: int | None = None):
    value = params.get(field, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError("bad-request",
                                f"missing required param {field!r}")
        return default
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(
            "bad-request",
            f"param {field!r} must be an integer, "
            f"got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ProtocolError("bad-request",
                            f"param {field!r} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ProtocolError("bad-request",
                            f"param {field!r} must be <= {maximum}")
    return value


def take_bool(params: dict, field: str, default=_MISSING) -> bool:
    value = params.get(field, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError("bad-request",
                                f"missing required param {field!r}")
        return default
    if not isinstance(value, bool):
        raise ProtocolError(
            "bad-request",
            f"param {field!r} must be a boolean, "
            f"got {type(value).__name__}")
    return value


def take_fraction(params: dict, field: str, default=_MISSING):
    value = params.get(field, _MISSING)
    if value is _MISSING:
        if default is _MISSING:
            raise ProtocolError("bad-request",
                                f"missing required param {field!r}")
        return default
    return decode_fraction(value, field)


def take_int_list(params: dict, field: str, minimum: int | None = None,
                  max_items: int = 1024) -> list[int]:
    value = params.get(field)
    if not isinstance(value, list) or not value:
        raise ProtocolError(
            "bad-request",
            f"param {field!r} must be a non-empty list of integers")
    if len(value) > max_items:
        raise ProtocolError("bad-request",
                            f"param {field!r} has {len(value)} items; "
                            f"the limit is {max_items}")
    out = []
    for i, item in enumerate(value):
        if not isinstance(item, int) or isinstance(item, bool):
            raise ProtocolError(
                "bad-request",
                f"param {field!r}[{i}] must be an integer, "
                f"got {type(item).__name__}")
        if minimum is not None and item < minimum:
            raise ProtocolError("bad-request",
                                f"param {field!r}[{i}] must be "
                                f">= {minimum}")
        out.append(item)
    return out
