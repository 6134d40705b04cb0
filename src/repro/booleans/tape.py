"""Flat instruction tapes: the evaluation engine.

A compiled :class:`~repro.booleans.circuit.Circuit` is lowered *once*
into a :class:`Tape` — parallel arrays of opcodes, operand index
ranges, and a literal→slot table — so k weight vectors cost one pass
over flat arrays, not a Python-level dispatch per node per vector.
Every ``Circuit.probability``/``probability_batch`` call runs here, in
one lane loop (``Tape._lanes``); ``sample`` and ``marginals`` walk the
registers of one exact pass of it.  A register holds one scalar while it
is the same in every lane and widens to a row of k only where lanes
diverge: sweeps vary a handful of variables (an Eq. 20 endpoint grid
pins two), so most of the tape runs once whatever k is.  Three kinds
of lanes share the loop:

* **float lanes**: Python floats, with numpy float64 rows for the
  divergent registers when numpy is importable (list rows otherwise).
  AND and OR fold their operands in operand order, so every lane
  rounds exactly as a full-width pass over k lanes would;
* **integer lanes**, the exact default: the batch's weights go over
  their least common denominator D and register ``i`` holds an integer
  over ``D**e[i]``, with ``e`` fixed by the instructions alone (LIT 1,
  NEG its source's, AND the sum of its operands', OR their maximum,
  constants 0).  OR operands are aligned by a power of D, so the pass
  runs on plain ints (no gcd, no ``Fraction``) and each lane divides
  once at the root.  Probabilities in {0, 1/2, 1} plus a few small
  grid denominators keep D tiny;
* **Fraction lanes** run over ``Fraction``s when the denominators are
  too wide and varied for integers (``INT_LANE_RATIO``).

Both exact lanes return the same ``Fraction``s whatever the association
order (an ``("ite", v, hi, lo)`` node lowers to ``p*hi + (1-p)*lo``
spelled as ``OR(AND(LIT, hi), AND(NEG, lo))``).  Lanes given as
``WeightOverlay(base, pinned)`` fill in O(slots x bases + pins): one
converted column per distinct base, and a row only where a lane pins.
``Tape.run_products`` runs the safe plan's batches from rows of raw
weights and returns one exact product per run of consecutive lanes.

Lowering rules (one pass over the topologically ordered node table):

* ``("true",)`` / ``("false",)``  →  ``CONST1`` / ``CONST0``;
* ``("leaf", v)``                 →  ``LIT slot(v)``;
* ``("and", children)``           →  n-ary ``AND`` over child registers;
* ``("ite", v, hi, lo)``          →  ``OR(AND(LIT slot(v), hi),
  AND(NEG slot(v), lo))`` — the OR is *disjoint* (the two products are
  mutually exclusive on ``v``), so addition is the correct semantics.
  Constant branches peephole away: ``lo = false`` yields just
  ``AND(LIT, hi)``, ``hi = true`` yields ``OR(LIT, AND(NEG, lo))``.

``LIT``/``NEG`` registers are hash-consed per slot and the slot table
is assigned in first-use order over the (deterministic) node table, so
the tape — and its ``to_bytes`` serialization — is byte-identical
across runs and ``PYTHONHASHSEED`` values, the same contract the
circuit serialization already honours.

``tape_for_circuit`` memoizes the flattened tape on the circuit object
itself (circuits are immutable, so the tape lives exactly as long as
its circuit does — in particular alongside it in the ``tid.wmc``
memory LRU) and maintains module-level counters (``tape_hits``,
``tape_flattens``, ``tape_bytes``) surfaced through
``repro.tid.wmc.cache_info`` and the service ``stats`` op, so warm
paths can *prove* they never re-flatten.
"""

from __future__ import annotations

import json
import math
import operator
import threading

from array import array
from fractions import Fraction
from typing import Sequence

from repro.booleans.circuit import (
    AND, FALSE, HALF, ITE, LEAF, TRUE, Circuit, UnsupportedVersionError,
    WeightOverlay, as_rng, decode_token, draw_threshold, encode_token,
    make_lookup, ratio_threshold,
)
from repro import obs

try:  # optional accelerator only: without it, float lane rows are lists
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatching
    _np = None

#: Opcodes.  ``arg0``/``arg1`` meaning per op:
#: CONST0/CONST1: unused; LIT: slot index; NEG: source register;
#: AND/OR: [arg0, arg1) operand-register range into ``operands``.
OP_CONST0 = 0
OP_CONST1 = 1
OP_LIT = 2
OP_NEG = 3
OP_AND = 4
OP_OR = 5

#: Serialization format name / version (``Tape.to_bytes``).
TAPE_FORMAT_NAME = "repro-tape"
TAPE_FORMAT_VERSION = 1

#: Integer lanes run while their root's ``e_root * D.bit_length()``
#: bits stay within ``INT_LANE_RATIO`` times the slots' summed widest
#: denominator bits (what bounds the Fraction lanes), or below
#: ``INT_LANE_FLOOR_BITS``: on a 129-slot lineage with 16 lanes they
#: lost past roughly 20k root bits, at 6-25x the Fraction width.
INT_LANE_FLOOR_BITS = 16384
INT_LANE_RATIO = 4
#: ``Tape.run_products`` keeps the integer lanes while D has at most
#: ``INT_LANE_RATIO`` times the widest single denominator's bits, or
#: this many: on the safe plan's constant-size formulas, a wider D made
#: every lane pay for the other lanes' denominators (2x slower with
#: distinct 200-bit denominators), and a D of small primes' product
#: ran 2x faster on integer lanes than on Fraction lanes.
RUN_FLOOR_BITS = 256

ONE = Fraction(1)

_LOCK = threading.Lock()
_STATS = {"tape_hits": 0, "tape_flattens": 0, "tape_bytes": 0}


def tape_stats() -> dict:
    """A snapshot of the flattening counters (merged into
    ``repro.tid.wmc.cache_info``)."""
    with _LOCK:
        return dict(_STATS)


def reset_tape_stats() -> None:
    with _LOCK:
        for key in _STATS:
            _STATS[key] = 0


def _float_weight(value, var, lane) -> float:
    if type(value) is Fraction:  # finite; int / int rounds as float()
        return value.numerator / value.denominator
    weight = float(value)
    if not math.isfinite(weight):
        raise ValueError(
            f"non-finite weight {weight!r} for variable {var!r} in "
            f"float lane {lane}; float sweeps require finite weights "
            f"(use numeric='exact' for symbolic inputs)")
    return weight


def _exact_weight(value, var, lane) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _probe(spec):
    """``probe(var, fallback)`` for one weight spec: a mapping's
    ``get``, or a callable called with the variable."""
    if callable(spec):
        return lambda var, _fallback: spec(var)
    return (spec if type(spec) is dict else dict(spec or {})).get


def _row_mul(a, b):
    """Lane-wise ``a * b`` of list rows; either may be a scalar."""
    if type(a) is not list:
        return [a * y for y in b]
    if type(b) is not list:
        return [x * b for x in a]
    return [x * y for x, y in zip(a, b)]


def _row_add(a, b):
    """Lane-wise ``a + b`` of list rows; either may be a scalar."""
    if type(a) is not list:
        return [a + y for y in b]
    if type(b) is not list:
        return [x + b for x in a]
    return [x + y for x, y in zip(a, b)]


def _row_sub(top, row):
    """Lane-wise ``top - row`` of a scalar and a list row."""
    return [top - x for x in row]


class Tape:
    """A flattened circuit: parallel instruction arrays plus the
    literal→slot table.  Instruction ``i`` writes register ``i``; the
    arrays are topologically ordered (operands strictly before users),
    mirroring the source circuit's node table."""

    __slots__ = ("ops", "arg0", "arg1", "operands", "slots", "root",
                 "circuit_nodes", "circuit_root", "_slot_index",
                 "_exponents", "_decoded")

    def __init__(self, ops: array, arg0: array, arg1: array,
                 operands: array, slots: tuple, root: int,
                 circuit_nodes: int, circuit_root: int):
        self.ops = ops
        self.arg0 = arg0
        self.arg1 = arg1
        self.operands = operands
        self.slots = slots
        self.root = root
        self.circuit_nodes = circuit_nodes
        self.circuit_root = circuit_root
        self._slot_index = None
        self._exponents = None
        self._decoded = None

    # ------------------------------------------------------------------
    @property
    def n_instructions(self) -> int:
        return len(self.ops)

    @property
    def byte_size(self) -> int:
        """In-memory footprint of the instruction arrays (the unit the
        ``tape_bytes`` counter accumulates)."""
        return (len(self.ops) * self.ops.itemsize
                + len(self.arg0) * self.arg0.itemsize
                + len(self.arg1) * self.arg1.itemsize
                + len(self.operands) * self.operands.itemsize)

    def matches(self, circuit: Circuit) -> bool:
        """Whether this tape was flattened from ``circuit``'s node
        table (the store attaches deserialized tapes only on a match,
        so a stale tape can never answer for a different circuit)."""
        return (self.circuit_nodes == circuit.size
                and self.circuit_root == circuit.root)

    def validate(self) -> None:
        """Check every structural invariant the kernels rely on.

        Raises ``ValueError`` on the first violation: opcode out of
        range, operand-index out of bounds, operands not strictly
        before their users (topological order), n-ary ops with fewer
        than two operands, a root register out of range, duplicate
        entries in the literal-slot table, or a slot table that is not
        in first-use order (the flattener assigns slot ``j`` only
        after slots ``0..j-1`` have appeared, which is what makes the
        serialization byte-identical across hash seeds).

        ``from_bytes`` runs this on every deserialized tape so a
        corrupt-but-parseable ``.tape`` sidecar fails closed (the
        store maps that to a cache miss + unlink) instead of
        producing wrong numbers.  Flattened tapes satisfy it by
        construction.
        """
        ops, arg0, arg1 = self.ops, self.arg0, self.arg1
        operands, slots = self.operands, self.slots
        n = len(ops)
        if not (len(arg0) == len(arg1) == n):
            raise ValueError("corrupt tape: instruction arrays "
                             "disagree in length")
        if not isinstance(self.root, int) or \
                not 0 <= self.root < n:
            raise ValueError(
                f"root register {self.root!r} out of range")
        n_slots = len(slots)
        if len(set(map(_slot_key, slots))) != n_slots:
            raise ValueError("corrupt tape: duplicate variables in "
                             "the literal-slot table")
        next_slot = 0  # first-use discipline: LITs reveal 0,1,2,...
        for i in range(n):
            op = ops[i]
            if op == OP_LIT:
                slot = arg0[i]
                if not 0 <= slot < n_slots:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"slot out of range")
                if slot > next_slot:
                    raise ValueError(
                        f"corrupt tape: instruction {i} uses slot "
                        f"{slot} before slots 0..{slot - 1} (slot "
                        f"table not in first-use order)")
                if slot == next_slot:
                    next_slot += 1
            elif op == OP_NEG:
                if not 0 <= arg0[i] < i:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"out of topological order")
            elif op in (OP_AND, OP_OR):
                start, stop = arg0[i], arg1[i]
                if not (0 <= start <= stop <= len(operands)):
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"operand range out of bounds")
                if stop - start < 2:
                    raise ValueError(f"corrupt tape: instruction {i} "
                                     f"has fewer than two operands")
                for j in range(start, stop):
                    if not 0 <= operands[j] < i:
                        raise ValueError(
                            f"corrupt tape: instruction {i} out of "
                            f"topological order")
            elif op not in (OP_CONST0, OP_CONST1):
                raise ValueError(f"unknown opcode {op!r} at "
                                 f"instruction {i}")
        if next_slot != n_slots:
            raise ValueError(
                f"corrupt tape: {n_slots - next_slot} slot table "
                f"entr{'y' if n_slots - next_slot == 1 else 'ies'} "
                f"never referenced by a LIT instruction")

    def stats(self) -> dict:
        counts = [0] * 6
        for op in self.ops:
            counts[op] += 1
        return {
            "instructions": self.n_instructions,
            "slots": len(self.slots),
            "operand_refs": len(self.operands),
            "lit_ops": counts[OP_LIT],
            "neg_ops": counts[OP_NEG],
            "and_ops": counts[OP_AND],
            "or_ops": counts[OP_OR],
            "bytes": self.byte_size,
        }

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, weight_specs: Sequence,
                 numeric: str = "exact",
                 default: Fraction | None = None) -> list:
        """``[Pr(F; w) for w in weight_specs]`` in one pass.

        ``weight_specs`` are raw weight specifications, as in
        ``Circuit.probability_batch``.  ``numeric="exact"`` runs the
        integer lanes, or the Fraction lanes when the batch's
        denominators are too wide (``INT_LANE_RATIO``);
        ``numeric="float"`` runs the float lanes (numpy rows where
        lanes diverge, when numpy is importable) and rejects non-finite
        weights with a ``ValueError`` naming the lane.  The ``kernel``
        span records the ``arith`` that ran (``"int"``, ``"fraction"``,
        ``"float"``) and, for exact batches, the widest root
        numerator's ``bits``: number size drives exact cost.
        """
        with obs.span("kernel", numeric=numeric,
                      lanes=len(weight_specs)) as sp:
            if numeric not in ("exact", "float"):
                raise ValueError(
                    f"numeric must be 'exact' or 'float', got {numeric!r}")
            k = len(weight_specs)
            if not k:
                return []
            if numeric == "exact":
                rows = self._lane_rows(weight_specs, default)
                return self._exact_lanes(rows, k,
                                         self._lane_denominator(rows), sp)
            sp.tag(arith="float")
            rows = self._lane_rows(weight_specs, default, _float_weight)
            vector = list
            if _np is not None:
                vector = _np.ndarray
                rows = [_np.array(row) if type(row) is list else row
                        for row in rows]
            root = self._lanes(rows, None, (1,), vector)[self.root]
            return list(map(float, root)) if type(root) is vector \
                else [float(root)] * k

    def probability(self, weights, default) -> Fraction:
        """One exact lane for ``Circuit.probability``: integer lanes, or
        Fraction lanes when the denominators are too wide for them
        (``_lane_denominator``)."""
        _, regs, exps, pows, _ = self._exact_pass(weights, default)
        return Fraction(regs[self.root], pows[exps[self.root]])

    def sample(self, weights, k, rng, default) -> list[dict]:
        """``Circuit.sample`` on the registers of one exact pass.  Each
        OR is a lowered decision and draws once against the exact share
        of its first operand, the true branch; so the walk draws where,
        and in the order, the node table's walk drew, as long as no
        decision has a ``FALSE`` branch (``compile_cnf`` emits none)."""
        if k < 0:
            raise ValueError("k must be non-negative")
        rows, regs, exps, pows, _ = self._exact_pass(weights, default)
        if not regs[self.root]:
            raise ValueError(
                "cannot sample: the formula has probability 0 under "
                "these weights")
        rng = as_rng(rng)
        program, slots = self._program(), self.slots
        # Zero-mass decisions are never reached, so get no threshold.
        thresholds: list = [None] * len(program)
        for i, (op, arg) in enumerate(program):
            if op == OP_OR and regs[i]:
                first = regs[arg[0]] * pows[exps[i] - exps[arg[0]]]
                thresholds[i] = ratio_threshold(
                    first.numerator * regs[i].denominator,
                    first.denominator * regs[i].numerator)
        priors = [(slots[s], draw_threshold(rows[s]))
                  for s in sorted(range(len(slots)),
                                  key=lambda s: repr(slots[s]))]
        worlds = []
        for _ in range(k):
            world: dict = {}
            stack = [self.root]
            while stack:
                i = stack.pop()
                op, arg = program[i]
                if op == OP_OR:
                    stack.append(arg[0] if rng.random() < thresholds[i]
                                 else arg[1])
                elif op == OP_AND:
                    stack.extend(arg)
                elif op == OP_LIT:
                    world[slots[arg]] = True
                elif op == OP_NEG:
                    world[slots[program[arg][1]]] = False
            for var, prior in priors:
                if var not in world:
                    world[var] = rng.random() < prior
            worlds.append(world)
        return worlds

    def marginals(self, weights, default) -> dict:
        """``Circuit.marginals`` by a reverse pass of adjoints over one
        exact pass.  Register i is regs[i] / D**e[i] and its adjoint
        d Pr / d value(i) is adj[i] / D**(E - e[i]), E the root's e, so
        an AND passes adjoint x prefix x suffix to its operands, an OR
        scales it by D**(e[OR] - e[operand]), a NEG negates it, and a
        LIT's gives its variable's derivative adj * D / D**E."""
        _, regs, exps, pows, common = self._exact_pass(weights, default)
        program = self._program()
        adjoints = [0] * len(program)
        adjoints[self.root] = 1
        for i in range(len(program) - 1, -1, -1):
            adjoint = adjoints[i]
            op, arg = program[i]
            if not adjoint:
                continue
            if op == OP_AND:
                # Prefix/suffix products keep the pass linear even when
                # several operands are zero.
                prefix = [adjoint]
                for src in arg[:-1]:
                    prefix.append(prefix[-1] * regs[src])
                suffix = 1
                for j in range(len(arg) - 1, -1, -1):
                    adjoints[arg[j]] += prefix[j] * suffix
                    suffix *= regs[arg[j]]
            elif op == OP_OR:
                for src in arg:
                    adjoints[src] += adjoint * pows[exps[i] - exps[src]]
            elif op == OP_NEG:
                adjoints[arg] -= adjoint
        grads: dict = {}
        scale = pows[exps[self.root]]
        for i, (op, arg) in enumerate(program):
            if op == OP_LIT:  # hash-equal slots add up, as one key
                var = self.slots[arg]
                grads[var] = grads.get(var, 0) + Fraction(
                    adjoints[i] * common, scale)
        return grads

    def _exact_pass(self, weights, default) -> tuple:
        """``(rows, registers, e, pows, D)`` of one exact lane, which
        ``probability``, ``sample`` and ``marginals`` share, in a
        ``kernel`` span; on Fraction lanes every e is 0 and D is 1."""
        with obs.span("kernel", numeric="exact", lanes=1) as sp:
            lookup = make_lookup(weights, default)
            rows = [_exact_weight(lookup(var), var, 0)
                    for var in self.slots]
            common = self._lane_denominator(rows)
            regs, exps, pows = self._exact_registers(rows, common)
            sp.tag(arith="fraction" if common is None else "int",
                   bits=regs[self.root].numerator.bit_length())
        return rows, regs, exps, pows, common or 1

    def _lane_rows(self, weight_specs, default,
                   convert=_exact_weight) -> list:
        """Per-slot lane weights for ``_lanes``: one value where every
        lane agrees, else the list of k lane weights.  Each weight
        object passes through ``convert(value, var, lane)`` once: sweep
        lanes repeat weight objects heavily, so conversions are
        memoized by ``id`` (the memo keeps each object alive, so no id
        is recycled mid-pass).  Mappings are probed through
        ``dict.get``, callables are called with the variable, and an
        all-``WeightOverlay`` batch takes ``_overlay_rows``.
        """
        if weight_specs and all(type(spec) is WeightOverlay
                                for spec in weight_specs):
            return self._overlay_rows(weight_specs, convert)
        k = len(weight_specs)
        fallback = HALF if default is None else Fraction(default)
        probes = [_probe(spec) for spec in weight_specs]
        memo: dict = {}
        rows = []
        for var in self.slots:
            row: list = []
            ap = row.append
            for probe in probes:
                value = probe(var, fallback)
                hit = memo.get(id(value))
                if hit is None:
                    hit = memo[id(value)] = (
                        value, convert(value, var, len(row)))
                ap(hit[1])
            rows.append(row[0] if row.count(row[0]) == k else row)
        return rows

    def _overlay_rows(self, specs, convert) -> list:
        """``_lane_rows`` of an all-``WeightOverlay`` batch in
        O(slots x bases + pins) weight probes instead of
        O(slots x lanes): each distinct base object's column is
        converted once, a slot keeps one value where every base agrees
        and no lane pins it, and gets a list of k lane weights
        otherwise.  Base-map misses take 1/2, as calling the overlay
        does: a batch ``default`` does not reach inside a
        ``WeightOverlay``."""
        k = len(specs)
        slots = self.slots
        memo: dict = {}
        columns: dict = {}
        lane_columns = []
        for lane, spec in enumerate(specs):
            column = columns.get(id(spec.base))
            if column is None:
                probe = _probe(spec.base)
                column = columns[id(spec.base)] = []
                for var in slots:
                    value = probe(var, HALF)
                    hit = memo.get(id(value))
                    if hit is None:
                        hit = memo[id(value)] = (
                            value, convert(value, var, lane))
                    column.append(hit[1])
            lane_columns.append(column)
        first, *others = columns.values()
        rows = first if not others else [
            first[s] if all(other[s] == first[s] for other in others)
            else [column[s] for column in lane_columns]
            for s in range(len(slots))]
        index = self._slot_index
        if index is None:
            # A pin reaches every slot whose token equals its key, as
            # calling the overlay does (True and 1 are distinct slots).
            index = {}
            for s, var in enumerate(slots):
                index.setdefault(var, []).append(s)
            self._slot_index = index
        for lane, spec in enumerate(specs):
            for var, value in spec.pinned.items():
                pinned = index.get(var)
                if pinned is None:  # variable absent from the circuit
                    continue
                hit = memo.get(id(value))
                if hit is None:
                    hit = memo[id(value)] = (value,
                                             convert(value, var, lane))
                for s in pinned:
                    row = rows[s]
                    if type(row) is not list:
                        row = rows[s] = [row] * k
                    row[lane] = hit[1]
        return rows

    def _program(self) -> list:
        """The instructions decoded for ``_lanes``, one ``(op, arg)``
        per register: ``arg`` is a LIT's slot, a NEG's source register,
        or the tuple of an AND's or OR's operand registers.  Built once
        per tape and cached, never serialized."""
        program = self._decoded
        if program is None:
            operands = self.operands
            program = self._decoded = [
                (op, tuple(operands[a:b]) if op in (OP_AND, OP_OR) else a)
                for op, a, b in zip(self.ops, self.arg0, self.arg1)]
        return program

    def _exponent_table(self) -> tuple:
        """``(e, max(e))``: each register's power of D on the integer
        lanes (see the module docstring) and the largest.  Computed
        once per tape and cached, never serialized: a tape loaded from
        a sidecar computes it on first use."""
        table = self._exponents
        if table is None:
            program = self._program()
            exps = [0] * len(program)
            for i, (op, arg) in enumerate(program):
                if op == OP_LIT:
                    exps[i] = 1
                elif op == OP_NEG:
                    exps[i] = exps[arg]
                elif op == OP_AND:
                    exps[i] = sum(exps[r] for r in arg)
                elif op == OP_OR:
                    exps[i] = max(exps[r] for r in arg)
            table = self._exponents = (exps, max(exps, default=0))
        return table

    def _lane_denominator(self, rows):
        """D, the least common denominator of the batch's weights, when
        the integer lanes should run (``INT_LANE_RATIO``); None when it
        is too wide for them."""
        denominators, width = set(), 0
        for row in rows:
            seen = {w.denominator for w in row} if type(row) is list \
                else (row.denominator,)
            denominators.update(seen)
            width += max(seen).bit_length()
        common = math.lcm(*denominators)
        root_bits = self._exponent_table()[0][self.root] \
            * common.bit_length()
        if root_bits <= max(INT_LANE_RATIO * width, INT_LANE_FLOOR_BITS):
            return common
        return None

    def _exact_registers(self, rows, common, scaled=None) -> tuple:
        """``(registers, e, pows)`` of one exact pass over ``rows``
        (``_lane_rows``): integer lanes over ``common`` = D, register
        ``i`` standing for ``registers[i] / D**e[i]`` and ``pows[j]``
        for D**j, or Fraction lanes when ``common`` is None (every e 0,
        ``pows`` (1,)).  ``scaled`` maps ``id(w)`` to w's numerator
        over D when the caller has them per weight object; each lane
        scales its own weight otherwise."""
        if common is None:
            regs = self._lanes(rows, None, (1,))
            return regs, bytes(len(regs)), (1,)
        exps, top = self._exponent_table()
        pows = [1]
        for _ in range(top):
            pows.append(pows[-1] * common)
        if scaled is None:
            rows = [
                [w.numerator * (common // w.denominator) for w in row]
                if type(row) is list
                else row.numerator * (common // row.denominator)
                for row in rows]
        else:
            rows = [[scaled[id(w)] for w in row] if type(row) is list
                    else scaled[id(row)] for row in rows]
        return self._lanes(rows, exps, pows), exps, pows

    def _exact_lanes(self, rows, k, common, span) -> list:
        """Exact values of ``rows`` (``_lane_rows``): one
        ``_exact_registers`` pass, one division per lane at the root."""
        regs, exps, pows = self._exact_registers(rows, common)
        root = regs[self.root]
        roots = root if type(root) is list else (root,)
        denominator = pows[exps[self.root]]
        values = [Fraction(x, denominator) for x in roots]
        span.tag(arith="fraction" if common is None else "int",
                 bits=max(x.numerator.bit_length() for x in roots))
        return values if type(root) is list else values * k

    def run_products(self, rows, runs: int, run: int) -> list[Fraction]:
        """``runs`` exact products in one batch: ``rows`` holds each
        slot's raw weights over ``runs * run`` lanes, one run of ``run``
        consecutive lanes per product, and entry ``r`` is the product of
        the formula's values over run ``r``'s lanes.

        Each distinct weight object of a row is converted once, and a
        row whose lanes all hold one object stays one value.  The
        integer lanes run while ``_lane_denominator`` allows them and D
        has at most ``INT_LANE_RATIO`` times the bits of the widest
        single denominator, or ``RUN_FLOOR_BITS``; past that every lane
        would pay for the other lanes' denominators, and the Fraction
        lanes run.  On integer lanes a run's root integers multiply and
        divide once by D**(e*run), or each lane divides when that
        product would be wider than ``INT_LANE_FLOOR_BITS``.  The
        ``kernel`` span is tagged as ``evaluate`` tags it.
        """
        if not runs * run:  # no lanes: every product is empty
            return [ONE] * runs
        with obs.span("kernel", numeric="exact", lanes=runs * run) as sp:
            lanes, distinct = [], []
            for var, row in zip(self.slots, rows):
                objects = {id(w): w for w in row}
                values = [_exact_weight(w, var, 0)
                          for w in objects.values()]
                if len(values) == 1:
                    row = values[0]
                elif any(v is not w
                         for v, w in zip(values, objects.values())):
                    converted = dict(zip(objects, values))
                    row = [converted[id(w)] for w in row]
                lanes.append(row)
                distinct.append(values)
            common = self._lane_denominator(distinct)
            widest = max((w.denominator for values in distinct
                          for w in values), default=1)
            if common is not None and common.bit_length() > max(
                    INT_LANE_RATIO * widest.bit_length(), RUN_FLOOR_BITS):
                common = None
            scaled = None if common is None else {
                id(w): w.numerator * (common // w.denominator)
                for values in distinct for w in values}
            regs, exps, pows = self._exact_registers(lanes, common, scaled)
            root = regs[self.root]
            roots = root if type(root) is list else (root,)
            sp.tag(arith="fraction" if common is None else "int",
                   bits=max(roots).bit_length() if common is not None
                   else max(x.numerator for x in roots).bit_length())
            denominator = pows[exps[self.root]]
            if type(root) is not list:
                return [Fraction(root, denominator) ** run] * runs
            scale = None
            if common is not None:
                if run * denominator.bit_length() <= INT_LANE_FLOOR_BITS:
                    scale = denominator ** run
                else:
                    root = [Fraction(x, denominator) for x in root]
            products = []
            for start in range(0, runs * run, run):
                product = 1
                for x in root[start:start + run]:
                    product *= x
                products.append(product if scale is None
                                else Fraction(product, scale))
            return products

    def _lanes(self, weights, exps, pows, vector=list):
        """The lane loop of the integer, Fraction and float lanes;
        returns every register.

        A register keeps one scalar while it is the same in every lane
        and widens to a ``vector`` of k only where lanes diverge: a
        list, or on float lanes a numpy row when numpy is importable.
        Sweeps vary a handful of variables, so most of the tape runs
        once.  AND and OR fold their operands in operand order, a
        scalar standing for k equal lanes, so every float lane rounds
        as a full-width pass over k lanes would; a scalar zero operand
        makes an AND zero, as it makes every finite lane.  On integer
        lanes an OR operand is scaled by ``pows[gap]``, D to the gap
        between its exponent and the OR's, and NEG subtracts from
        ``pows[e]``; ``exps=None`` sets every exponent to 0.  Stored
        rows are never mutated, so registers may share them.
        """
        program = self._program()
        if exps is None:
            exps = bytes(len(program))
        if vector is list:
            mul, add, sub = _row_mul, _row_add, _row_sub
        else:  # numpy broadcasts a scalar operand itself
            mul, add, sub = operator.mul, operator.add, operator.sub
        regs: list = [None] * len(program)
        for i, (op, arg) in enumerate(program):
            if op == OP_AND:
                acc = None
                for src in arg:
                    row = regs[src]
                    if type(row) is vector:
                        acc = row if acc is None else mul(acc, row)
                    elif not row:
                        acc = row
                        break
                    elif acc is None:
                        acc = row
                    elif type(acc) is vector:
                        acc = mul(acc, row)
                    else:
                        acc = acc * row
                regs[i] = acc
            elif op == OP_OR:
                top = exps[i]
                acc = None
                for src in arg:
                    row = regs[src]
                    gap = top - exps[src]
                    if type(row) is vector:
                        if gap:
                            row = mul(row, pows[gap])
                        acc = row if acc is None else add(acc, row)
                    else:
                        if gap:
                            row = pows[gap] * row
                        if acc is None:
                            acc = row
                        elif type(acc) is vector:
                            acc = add(acc, row)
                        else:
                            acc = acc + row
                regs[i] = acc
            elif op == OP_LIT:
                regs[i] = weights[arg]
            elif op == OP_NEG:
                top = pows[exps[arg]]
                row = regs[arg]
                regs[i] = sub(top, row) if type(row) is vector \
                    else top - row
            elif op == OP_CONST1:
                regs[i] = 1
            else:
                regs[i] = 0
        return regs

    # ------------------------------------------------------------------
    # Serialization (versioned, exact round trip)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """A versioned JSON-lines serialization: header, then one line
        per parallel array.  Byte-identical across hash seeds because
        the flattening order follows the (deterministic) node table."""
        header = {
            "format": TAPE_FORMAT_NAME,
            "version": TAPE_FORMAT_VERSION,
            "root": self.root,
            "instructions": len(self.ops),
            "operand_refs": len(self.operands),
            "circuit_nodes": self.circuit_nodes,
            "circuit_root": self.circuit_root,
            "slots": [encode_token(var) for var in self.slots],
        }
        lines = [json.dumps(header, separators=(",", ":"),
                            sort_keys=True)]
        for arr in (self.ops, self.arg0, self.arg1, self.operands):
            lines.append(json.dumps(list(arr), separators=(",", ":")))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Tape":
        """Reconstruct a tape serialized by ``to_bytes``.

        Raises ``ValueError`` on any malformed payload (the disk store
        treats that as a cache miss) and ``UnsupportedVersionError``
        on version skew, mirroring ``Circuit.from_bytes``.
        """
        try:
            lines = data.decode("utf-8").splitlines()
            header = json.loads(lines[0])
        except (UnicodeDecodeError, json.JSONDecodeError,
                IndexError) as e:
            raise ValueError(f"not a serialized tape: {e}") from None
        if not isinstance(header, dict) or \
                header.get("format") != TAPE_FORMAT_NAME:
            raise ValueError("not a serialized tape: bad header")
        if header.get("version") != TAPE_FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"unsupported tape format version "
                f"{header.get('version')!r} (this build reads "
                f"{TAPE_FORMAT_VERSION})")
        if len(lines) != 5:
            raise ValueError(
                f"truncated tape: expected 5 lines, found {len(lines)}")
        try:
            slots = tuple(decode_token(obj)
                          for obj in header["slots"])
            ops = array("B", json.loads(lines[1]))
            arg0 = array("q", json.loads(lines[2]))
            arg1 = array("q", json.loads(lines[3]))
            operands = array("q", json.loads(lines[4]))
            root = header["root"]
            count = header["instructions"]
            circuit_nodes = header["circuit_nodes"]
            circuit_root = header["circuit_root"]
        except (KeyError, IndexError, TypeError, ValueError,
                OverflowError, json.JSONDecodeError) as e:
            raise ValueError(f"corrupt tape payload: {e}") from None
        if not (len(ops) == len(arg0) == len(arg1) == count):
            raise ValueError("corrupt tape: array lengths disagree "
                             "with the header")
        if len(operands) != header.get("operand_refs"):
            raise ValueError("corrupt tape: operand table length "
                             "disagrees with the header")
        if not isinstance(circuit_nodes, int) or \
                not isinstance(circuit_root, int):
            raise ValueError("corrupt tape: bad circuit binding")
        tape = cls(ops, arg0, arg1, operands, slots, root,
                   circuit_nodes, circuit_root)
        # Fail closed: a corrupt-but-parseable sidecar must raise here
        # (the store turns that into a cache miss + unlink), never
        # produce wrong numbers.
        tape.validate()
        return tape


# ----------------------------------------------------------------------
# Flattening
# ----------------------------------------------------------------------
def _slot_key(var):
    """A dict key that keeps hash-equal tokens of different types
    apart (``True`` and ``1``, also nested inside tuples), as the
    circuit serialization's interning does: each is its own slot."""
    if type(var) is tuple:
        return tuple(map(_slot_key, var))
    return type(var), var


class _Flattener:
    """One-pass lowering of a circuit's node table into a tape."""

    def __init__(self):
        self.ops = array("B")
        self.arg0 = array("q")
        self.arg1 = array("q")
        self.operands = array("q")
        self.slot_ids: dict = {}
        self.slots: list = []
        self._by_id: dict = {}
        self._lit_regs: dict = {}
        self._neg_regs: dict = {}
        self._pair_regs: dict = {}
        self._const0: int | None = None
        self._const1: int | None = None

    def _emit(self, op: int, a0: int = 0, a1: int = 0) -> int:
        reg = len(self.ops)
        self.ops.append(op)
        self.arg0.append(a0)
        self.arg1.append(a1)
        return reg

    def const0(self) -> int:
        if self._const0 is None:
            self._const0 = self._emit(OP_CONST0)
        return self._const0

    def const1(self) -> int:
        if self._const1 is None:
            self._const1 = self._emit(OP_CONST1)
        return self._const1

    def _slot(self, var) -> int:
        """The slot of ``var``, interned on ``_slot_key``, with a memo
        by object identity (the circuit's node table keeps every token
        alive for the pass, so no id is reused)."""
        sid = self._by_id.get(id(var))
        if sid is None:
            sid = self.slot_ids.setdefault(_slot_key(var), len(self.slots))
            if sid == len(self.slots):
                self.slots.append(var)
            self._by_id[id(var)] = sid
        return sid

    def lit(self, var) -> int:
        sid = self._slot(var)
        reg = self._lit_regs.get(sid)
        if reg is None:
            reg = self._lit_regs[sid] = self._emit(OP_LIT, sid)
        return reg

    def neg(self, var) -> int:
        sid = self._slot(var)
        reg = self._neg_regs.get(sid)
        if reg is None:
            reg = self._neg_regs[sid] = self._emit(OP_NEG,
                                                   self.lit(var))
        return reg

    def _nary(self, op: int, regs: Sequence[int]) -> int:
        start = len(self.operands)
        self.operands.extend(regs)
        return self._emit(op, start, len(self.operands))

    def product(self, regs: Sequence[int]) -> int:
        if len(regs) == 1:
            return regs[0]
        if len(regs) == 2:
            # Hash-cons the 2-ary products: distinct ITE nodes over the
            # same variable routinely share a (literal, branch) term.
            key = (regs[0], regs[1])
            reg = self._pair_regs.get(key)
            if reg is None:
                reg = self._pair_regs[key] = self._nary(OP_AND, regs)
            return reg
        return self._nary(OP_AND, regs)

    def disjoint_sum(self, regs: Sequence[int]) -> int:
        if len(regs) == 1:
            return regs[0]
        return self._nary(OP_OR, regs)


def flatten_circuit(circuit: Circuit) -> Tape:
    """Lower ``circuit`` into a fresh :class:`Tape` (pure function; use
    :func:`tape_for_circuit` for the cached entry point)."""
    fl = _Flattener()
    nodes = circuit.nodes
    node_reg = [0] * len(nodes)
    for i, node in enumerate(nodes):
        kind = node[0]
        if kind is ITE:
            var = node[1]
            hi, lo = node[2], node[3]
            hi_kind, lo_kind = nodes[hi][0], nodes[lo][0]
            terms = []
            if hi_kind is TRUE:
                terms.append(fl.lit(var))
            elif hi_kind is not FALSE:
                terms.append(fl.product([fl.lit(var), node_reg[hi]]))
            if lo_kind is TRUE:
                terms.append(fl.neg(var))
            elif lo_kind is not FALSE:
                terms.append(fl.product([fl.neg(var), node_reg[lo]]))
            node_reg[i] = fl.disjoint_sum(terms) if terms \
                else fl.const0()
        elif kind is AND:
            regs = []
            short_circuit = False
            for child in node[1]:
                child_kind = nodes[child][0]
                if child_kind is FALSE:
                    short_circuit = True
                    break
                if child_kind is not TRUE:
                    regs.append(node_reg[child])
            if short_circuit:
                node_reg[i] = fl.const0()
            elif regs:
                node_reg[i] = fl.product(regs)
            else:
                node_reg[i] = fl.const1()
        elif kind is LEAF:
            node_reg[i] = fl.lit(node[1])
        elif kind is TRUE:
            node_reg[i] = fl.const1()
        else:
            node_reg[i] = fl.const0()
    return Tape(fl.ops, fl.arg0, fl.arg1, fl.operands,
                tuple(fl.slots), node_reg[circuit.root],
                len(nodes), circuit.root)


# ----------------------------------------------------------------------
# Per-circuit memoization + counters
# ----------------------------------------------------------------------
def peek_tape(circuit: Circuit) -> Tape | None:
    """The tape already attached to ``circuit``, if any (no counter
    side effects)."""
    return circuit._tape


def adopt_tape(circuit: Circuit, tape: Tape) -> bool:
    """Attach a deserialized ``tape`` to ``circuit`` (the warm-store
    path: a matching tape loaded from disk means the service never
    re-flattens).  Returns False — and leaves the circuit untouched —
    if the tape does not match or a tape is already attached."""
    if not tape.matches(circuit):
        return False
    with _LOCK:
        if circuit._tape is not None:
            return False
        circuit._tape = tape
        _STATS["tape_bytes"] += tape.byte_size
    return True


def tape_for_circuit(circuit: Circuit) -> Tape:
    """The memoized tape for ``circuit``: flatten once, reuse forever.

    The tape is stored on the circuit object itself, so the ``tid.wmc``
    memory LRU keeps circuit and tape together and evicts them
    together.  Counters: ``tape_hits`` counts reuses, ``tape_flattens``
    counts actual lowerings, ``tape_bytes`` accumulates the footprint
    of attached tapes.
    """
    with _LOCK:
        tape = circuit._tape
        if tape is not None:
            _STATS["tape_hits"] += 1
            return tape
    with obs.span("flatten"):
        tape = flatten_circuit(circuit)
    with _LOCK:
        if circuit._tape is None:
            circuit._tape = tape
            _STATS["tape_flattens"] += 1
            _STATS["tape_bytes"] += tape.byte_size
        else:
            # Lost a flattening race; count the reuse, drop our copy.
            _STATS["tape_hits"] += 1
        return circuit._tape
