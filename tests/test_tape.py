"""The flat instruction-tape engine: kernels, serialization, caching.

Contracts pinned here: the tape's integer lanes, its Fraction lanes and
the recursive ``shannon_probability`` oracle return *equal* Fractions
on arbitrary formulas and weight batches (not approximations), and the
selection rule sends wide denominators to the Fraction lanes; the float
lanes (numpy rows and the stdlib list rows) equal, float for float, the
full-width numpy loop they replaced (``full_width_float_lanes``), agree
with the exact values to float tolerance and reject non-finite weights
loudly;
``to_bytes``/``from_bytes`` round trips exactly and is byte-identical
across ``PYTHONHASHSEED`` values; ``tape_for_circuit`` flattens once
per circuit and the counters prove it.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.booleans import tape as tape_module
from repro.booleans.circuit import (
    UnsupportedVersionError,
    WeightOverlay,
    compile_cnf,
    make_lookup,
)
from repro.booleans.cnf import CNF
from repro.booleans.tape import (
    Tape,
    adopt_tape,
    flatten_circuit,
    peek_tape,
    reset_tape_stats,
    tape_for_circuit,
    tape_stats,
)
from repro.core.generate import random_query
from repro.tid.brute import shannon_probability
from repro.tid.lineage import lineage

from test_property_evaluation import SMALL, build_tid

F = Fraction

SRC = str(Path(__file__).resolve().parent.parent / "src")


def rst_formula():
    """A small block lineage with shared structure (ITE + AND nodes)."""
    from repro.core.catalog import rst_query
    from repro.reduction.blocks import path_block

    query = rst_query()
    tid = path_block(query, 4)
    return lineage(query, tid), tid


def random_formula_and_weights(query_seed, tid_seed, k=3):
    query = random_query(query_seed, SMALL)
    tid = build_tid(query, tid_seed)
    formula = lineage(query, tid)
    rng = random.Random(query_seed * 31 + tid_seed)
    variables = sorted(formula.variables(), key=repr)
    specs = []
    for _ in range(k):
        specs.append({var: F(rng.randrange(0, 8), 7)
                      for var in variables
                      if rng.random() < 0.8})  # some fall to default
    return formula, specs


def fraction_lanes(tape, specs, default=None):
    """The tape's Fraction lanes, whatever the selection rule says."""
    rows = tape._lane_rows(specs, default)
    return tape._exact_lanes(rows, len(specs), None, obs.NULL_SPAN)


def integer_lanes(tape, specs, default=None):
    """The tape's integer lanes over the batch's least common
    denominator, whatever the selection rule says."""
    rows = tape._lane_rows(specs, default)
    common = math.lcm(*(w.denominator for row in rows
                        for w in (row if isinstance(row, list)
                                  else [row])))
    return tape._exact_lanes(rows, len(specs), common, obs.NULL_SPAN)


def full_width_float_lanes(tape, specs, default=None):
    """The float kernel the lane loop replaced, kept as the reference:
    one (slots x k) weight matrix and one numpy operation per
    instruction over all k lanes, each AND and OR folded in operand
    order.  The float lanes must equal it float for float."""
    np = pytest.importorskip("numpy")
    k = len(specs)
    lookups = [make_lookup(spec, default) for spec in specs]
    w = np.array([[float(lookup(var)) for lookup in lookups]
                  for var in tape.slots],
                 dtype=np.float64).reshape(len(tape.slots), k)
    ops, arg0, arg1 = tape.ops, tape.arg0, tape.arg1
    operands = tape.operands
    regs = [None] * len(ops)
    for i in range(len(ops)):
        op = ops[i]
        if op == tape_module.OP_LIT:
            regs[i] = w[arg0[i]]
        elif op in (tape_module.OP_AND, tape_module.OP_OR):
            ufunc = np.multiply if op == tape_module.OP_AND else np.add
            j = arg0[i]
            acc = ufunc(regs[operands[j]], regs[operands[j + 1]])
            for j in range(j + 2, arg1[i]):
                ufunc(acc, regs[operands[j]], out=acc)
            regs[i] = acc
        elif op == tape_module.OP_NEG:
            regs[i] = 1.0 - regs[arg0[i]]
        elif op == tape_module.OP_CONST1:
            regs[i] = np.ones(k)
        else:
            regs[i] = np.zeros(k)
    return [float(x) for x in regs[tape.root]]


def float_lanes_without_numpy(tape, specs, default=None):
    """The float lanes on list rows, as without numpy."""
    saved = tape_module._np
    tape_module._np = None
    try:
        return tape.evaluate(specs, numeric="float", default=default)
    finally:
        tape_module._np = saved


def kernel_tags(run):
    """The tags of the ``kernel`` span ``run()`` opens under a live
    trace."""
    tracer = obs.Tracer()
    with tracer.root("test"):
        run()
    spans = tracer.recent(1)[0]["spans"]
    return next(s["tags"] for s in spans if s["name"] == "kernel")


class TestKernelAgreement:
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_exact_kernel_bit_identical_to_node(self, qs, ts):
        """The exact batch (integer lanes here) equals the tape's
        Fraction lanes and the recursive oracle, Fraction for
        Fraction."""
        formula, specs = random_formula_and_weights(qs, ts)
        circuit = compile_cnf(formula)
        values = circuit.probability_batch(specs)
        assert values == fraction_lanes(tape_for_circuit(circuit), specs)
        assert values == [shannon_probability(formula, spec)
                          for spec in specs]
        assert all(isinstance(v, Fraction) for v in values)

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_float_kernel_matches_exact(self, qs, ts):
        formula, specs = random_formula_and_weights(qs, ts)
        circuit = compile_cnf(formula)
        exact = circuit.probability_batch(specs)
        floats = circuit.probability_batch(specs, numeric="float")
        assert all(abs(f - float(e)) < 1e-9
                   for f, e in zip(floats, exact))

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fallback_kernel_matches_numpy(self, qs, ts):
        formula, specs = random_formula_and_weights(qs, ts)
        tape = flatten_circuit(compile_cnf(formula))
        with_numpy = tape.evaluate(specs, numeric="float")
        assert float_lanes_without_numpy(tape, specs) == with_numpy

    def test_empty_batch(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        assert tape.evaluate([], numeric="exact") == []
        assert tape.evaluate([], numeric="float") == []

    def test_rejects_unknown_numeric(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        with pytest.raises(ValueError, match="numeric"):
            tape.evaluate([{}], numeric="decimal")

    def test_constant_circuits(self):
        true_tape = flatten_circuit(compile_cnf(CNF.TRUE))
        false_tape = flatten_circuit(compile_cnf(CNF.FALSE))
        assert true_tape.evaluate([None, None]) == [F(1), F(1)]
        assert false_tape.evaluate([None], numeric="float") == [0.0]


VARS = [f"x{i}" for i in range(7)]
HALF = F(1, 2)
#: Pairwise nearly coprime denominators of ~1500 bits: any two differ
#: by less than 64, so their lcm is close to their product.
WIDE = 2 ** 1500


def weight_family(name):
    """Lane weights: the paper's {0, 1/2, 1}, small-denominator grids,
    or distinct wide denominators (plus 0, so lanes can pin a weight
    to 0 in every family)."""
    if name == "paper":
        return st.sampled_from([F(0), HALF, F(1)])
    if name == "grid":
        return st.sampled_from([F(a, b) for b in (2, 3, 6, 9, 18)
                                for a in range(b + 1)])
    return st.integers(0, 63).map(lambda j: F(j, WIDE + j))


def cnfs():
    clause = st.lists(st.sampled_from(VARS), min_size=1, max_size=3,
                      unique=True)
    return (st.just(CNF.TRUE) | st.just(CNF.FALSE)
            | st.lists(clause, min_size=1, max_size=6).map(CNF))


def weight_tables(weights, dense):
    """Variable -> weight maps; ``dense`` ones cover every variable."""
    return st.dictionaries(st.sampled_from(VARS), weights,
                           min_size=len(VARS) if dense else 0)


def weight_specs(weights, dense):
    """A mapping, a callable, None, or a ``WeightOverlay``."""
    table = weight_tables(weights, dense)
    return st.one_of(
        table,
        table.map(lambda t: (lambda var: t.get(var, HALF))),
        st.none(),
        st.builds(WeightOverlay, table,
                  st.dictionaries(st.sampled_from(VARS), weights,
                                  max_size=2)))


class TestIntegerLanes:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_lanes_agree_with_fraction_lanes_and_shannon(self, data):
        formula = data.draw(cnfs())
        family = data.draw(st.sampled_from(["paper", "grid", "wide"]))
        weights = weight_family(family)
        # Wide weights on every variable give the batch so many distinct
        # denominators that the selection rule picks the Fraction lanes.
        dense = family == "wide" and data.draw(st.booleans())
        default = data.draw(st.none() | weights)
        k = data.draw(st.integers(1, 4))
        if data.draw(st.booleans()):
            # One shared base: the O(slots + pins) overlay fill.
            base = data.draw(weight_tables(weights, dense))
            specs = [WeightOverlay(base, data.draw(st.dictionaries(
                st.sampled_from(VARS), weights, max_size=2)))
                for _ in range(k)]
        else:
            specs = [data.draw(weight_specs(weights, dense))
                     for _ in range(k)]
        circuit = compile_cnf(formula)
        tape = tape_for_circuit(circuit)
        want = [shannon_probability(formula, spec, default)
                for spec in specs]
        tags = kernel_tags(lambda: circuit.probability_batch(specs,
                                                             default))
        event(f"arith={tags['arith']}")
        assert circuit.probability_batch(specs, default) == want
        assert integer_lanes(tape, specs, default) == want
        assert fraction_lanes(tape, specs, default) == want
        assert [circuit.probability(spec, default)
                for spec in specs] == want

    def test_paper_and_grid_weights_take_integer_lanes(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        paper = [{v: F(j % 3, 2) for j, v in enumerate(tape.slots)},
                 None]
        grid = [{tape.slots[0]: F(i + 1, 18)} for i in range(16)]
        for specs in (paper, grid):
            tags = kernel_tags(lambda specs=specs: tape.evaluate(specs))
            assert tags["arith"] == "int"
            assert tags["bits"] > 0

    def test_wide_denominators_take_fraction_lanes(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        tape = tape_for_circuit(circuit)
        wide = {v: F(1, 2 ** 96 + j)
                for j, v in enumerate(tape.slots)}
        specs = [wide, {**wide, tape.slots[0]: F(1, 3)}]
        want = [shannon_probability(formula, spec) for spec in specs]
        tags = kernel_tags(lambda: tape.evaluate(specs))
        assert tags["arith"] == "fraction"
        assert tape.evaluate(specs) == want
        assert integer_lanes(tape, specs) == want
        # A single wide lane takes the Fraction lanes too.
        tags = kernel_tags(lambda: circuit.probability(wide))
        assert tags["arith"] == "fraction"
        assert circuit.probability(wide) == want[0]

    def test_float_batches_tag_float(self):
        formula, tid = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        tags = kernel_tags(
            lambda: tape.evaluate([tid.probability], numeric="float"))
        assert tags["arith"] == "float" and "bits" not in tags

    def test_exponents_are_cached_and_not_serialized(self):
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        data = tape.to_bytes()
        table = tape._exponent_table()
        assert tape._exponent_table() is table
        exps, top = table
        assert top == max(exps)
        assert exps[tape.root] == len(tape.slots)  # a block lineage
        for i, op in enumerate(tape.ops):
            if op in (tape_module.OP_LIT, tape_module.OP_NEG):
                assert exps[i] == 1
            elif op in (tape_module.OP_CONST0, tape_module.OP_CONST1):
                assert exps[i] == 0
        assert tape.to_bytes() == data
        assert Tape.from_bytes(data)._exponents is None


def float_weights():
    """Float-lane weights: the exact families, binary floats, and
    fractions whose float rounding depends on the operation order."""
    return st.one_of(
        weight_family("paper"), weight_family("grid"),
        st.floats(0, 1),
        st.builds(F, st.integers(0, 997), st.just(997)))


def lane_specs(data, weights, k):
    """k lanes: overlays on one shared base, overlays on a few bases,
    or any mix of mappings, callables, None and overlays."""
    shape = data.draw(st.sampled_from(["shared", "bases", "mixed"]))
    if shape == "mixed":
        return [data.draw(weight_specs(weights, False)) for _ in range(k)]
    bases = [data.draw(weight_tables(weights, data.draw(st.booleans())))
             for _ in range(1 if shape == "shared" else 2)]
    return [WeightOverlay(data.draw(st.sampled_from(bases)),
                          data.draw(st.dictionaries(
                              st.sampled_from(VARS), weights, max_size=2)))
            for _ in range(k)]


class TestFloatLanesBitIdentical:
    """One lane loop runs the float lanes: scalar registers where lanes
    agree, numpy (or list) rows where they diverge, operands folded in
    operand order.  Each lane must round exactly as the full-width
    loop did."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_float_lanes_equal_the_full_width_loop(self, data):
        formula = data.draw(cnfs())
        weights = float_weights()
        default = data.draw(st.none() | weights)
        k = data.draw(st.integers(1, 6))
        specs = lane_specs(data, weights, k)
        tape = flatten_circuit(compile_cnf(formula))
        want = full_width_float_lanes(tape, specs, default)
        assert tape.evaluate(specs, numeric="float",
                             default=default) == want
        assert float_lanes_without_numpy(tape, specs, default) == want

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_endpoint_grids_equal_the_full_width_loop(self, length):
        from repro.core.catalog import path_query
        from repro.evaluation import endpoint_weight_grid
        from repro.reduction.blocks import path_block

        query = path_query(length)
        tid = path_block(query, 5)
        formula = lineage(query, tid)
        tape = flatten_circuit(compile_cnf(formula))
        grid = endpoint_weight_grid(formula, tid, 40)
        want = full_width_float_lanes(tape, grid)
        assert tape.evaluate(grid, numeric="float") == want
        assert float_lanes_without_numpy(tape, grid) == want

    def test_operands_fold_in_operand_order(self):
        """AND(x0, x1, x2) with x1 the same in every lane: each lane is
        (x0 * x1) * x2, as the full-width pass rounds it, not
        x1 * (x0 * x2)."""
        tape = flatten_circuit(compile_cnf(CNF([["x0"], ["x1"], ["x2"]])))
        a, s, c = 0.2550690257394217, 0.49543508709194095, 0.4494910647887381
        specs = [{"x0": a, "x1": s, "x2": c}, {"x0": c, "x1": s, "x2": a}]
        want = [(a * s) * c, (c * s) * a]
        assert want != [s * (a * c), s * (c * a)]  # the order shows
        assert full_width_float_lanes(tape, specs) == want
        assert tape.evaluate(specs, numeric="float") == want
        assert float_lanes_without_numpy(tape, specs) == want


class TestWeightOverlay:
    def test_overlay_specs_match_dicts(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        base = tid.probability
        overlays = [{variables[j % len(variables)]: F(j + 1, 11)}
                    for j in range(6)]
        dict_specs = []
        for o in overlays:
            d = {v: tid.probability(v) for v in variables}
            d.update(o)
            dict_specs.append(d)
        overlay_specs = [WeightOverlay(base, o) for o in overlays]
        for numeric in ("exact", "float"):
            want = circuit.probability_batch(dict_specs,
                                             numeric=numeric)
            got = circuit.probability_batch(overlay_specs,
                                            numeric=numeric)
            assert got == want

    def test_overlay_is_callable_spec(self):
        overlay = WeightOverlay({"x": F(1, 3)}, {"y": F(1, 5)})
        assert overlay("y") == F(1, 5)
        assert overlay("x") == F(1, 3)
        assert overlay("z") == F(1, 2)  # base-map miss -> default 1/2

    def test_mixed_bases_match_per_lane_probability(self):
        """Lanes with *different* base objects evaluate as each lane
        alone does, on both arithmetics."""
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        base_a = {v: F(1, 3) for v in variables}
        base_b = {v: F(2, 5) for v in variables}
        specs = [WeightOverlay(base_a, {variables[0]: F(1, 7)}),
                 WeightOverlay(base_b, {variables[1]: F(6, 7)})]
        tape = flatten_circuit(circuit)
        exact = tape.evaluate(specs)
        floats = tape.evaluate(specs, numeric="float")
        want = [circuit.probability(spec) for spec in specs]
        assert exact == want
        assert floats == full_width_float_lanes(tape, specs)
        assert all(abs(f - float(e)) < 1e-9
                   for f, e in zip(floats, want))

    def test_mixed_bases_probe_each_base_once_per_slot(self):
        """A batch of several overlay bases (grids built by separate
        callers each bring their own base) fills one column per
        distinct base, not one per lane."""
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        probed = {"a": 0, "b": 0}

        def counting(name, weight):
            def base(var):
                probed[name] += 1
                return weight(var)
            return base

        base_a = counting("a", tid.probability)
        base_b = counting("b", lambda var: F(1, 3))
        specs = [WeightOverlay(base_a if j % 2 else base_b,
                               {variables[j % len(variables)]:
                                F(j + 1, 11)})
                 for j in range(8)]
        tape = flatten_circuit(circuit)
        for numeric in ("exact", "float"):
            probed.update(a=0, b=0)
            values = tape.evaluate(specs, numeric=numeric)
            assert probed == {"a": len(tape.slots), "b": len(tape.slots)}
            if numeric == "exact":
                assert values == [circuit.probability(spec)
                                  for spec in specs]
            else:
                assert values == full_width_float_lanes(tape, specs)

    def test_agreeing_bases_keep_unpinned_slots_scalar(self):
        """Distinct base objects that agree on a slot leave it one
        value, so merged grids over one lineage still run the
        unpinned part of the circuit once."""
        formula, tid = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        pinned = tape.slots[0]
        bases = [{var: tid.probability(var) for var in tape.slots}
                 for _ in range(3)]
        specs = [WeightOverlay(bases[j % 3], {pinned: F(j, 9)})
                 for j in range(9)]
        rows = tape._lane_rows(specs, None)
        assert rows[0] == [F(j, 9) for j in range(9)]
        assert not any(isinstance(row, list) for row in rows[1:])

    def test_exact_overlay_fill_probes_the_base_once_per_slot(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        probed = []

        def base(var):
            probed.append(var)
            return tid.probability(var)

        specs = [WeightOverlay(base, {variables[j % len(variables)]:
                                      F(j + 1, 11)})
                 for j in range(8)]
        tape = flatten_circuit(circuit)
        values = tape.evaluate(specs)
        assert len(probed) == len(tape.slots)
        assert values == [shannon_probability(formula, spec)
                          for spec in specs]

    def test_batch_default_does_not_reach_inside_overlays(self):
        """Calling an overlay gives base-map misses 1/2; the fast fill
        agrees on both kernels whatever the batch's ``default``."""
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        var = sorted(circuit.variables(), key=repr)[0]
        specs = [WeightOverlay({}, {var: F(1, 3)}), WeightOverlay({})]
        want = [shannon_probability(formula, spec, F(1, 5))
                for spec in specs]
        assert circuit.probability_batch(specs, F(1, 5)) == want
        floats = circuit.probability_batch(specs, F(1, 5),
                                           numeric="float")
        assert floats == full_width_float_lanes(
            tape_for_circuit(circuit), specs, F(1, 5))
        assert all(abs(f - float(w)) < 1e-12
                   for f, w in zip(floats, want))

    def test_pins_reach_hash_equal_slots_as_a_call_does(self):
        """``True`` and ``1`` are distinct slots, but a pin keyed 1 is
        what calling the overlay returns for both: the fill agrees."""
        from repro.booleans.circuit import AND, LEAF, Circuit

        circuit = Circuit(((LEAF, True), (LEAF, 1), (AND, (0, 1))), 2)
        tape = flatten_circuit(circuit)
        specs = [WeightOverlay(lambda var: F(1, 3), {1: F(1, 5)}),
                 WeightOverlay(lambda var: F(1, 3))]
        assert tape.evaluate(specs) == [F(1, 25), F(1, 9)] == [
            circuit.probability(spec) for spec in specs]
        assert tape.evaluate(specs, numeric="float") == \
            full_width_float_lanes(tape, specs)

    def test_overlay_of_unknown_variable_is_ignored(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        plain = WeightOverlay(tid.probability, {})
        stray = WeightOverlay(tid.probability,
                              {("not", "a", "circuit", "var"): F(1, 9)})
        tape = flatten_circuit(circuit)
        a, b = tape.evaluate([plain, stray], numeric="float")
        assert a == b


class TestNonFiniteGuards:
    def _poisoned(self, bad):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        variables = sorted(circuit.variables(), key=repr)
        good = {v: 0.5 for v in variables}
        poisoned = dict(good)
        poisoned[variables[1]] = bad
        return circuit, [good, poisoned]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_tape_numpy_kernel_names_lane(self, bad):
        circuit, specs = self._poisoned(bad)
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_tape_fallback_kernel_names_lane(self, monkeypatch):
        circuit, specs = self._poisoned(float("nan"))
        monkeypatch.setattr(tape_module, "_np", None)
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_overlay_fast_fill_names_lane(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        var = sorted(circuit.variables(), key=repr)[0]
        specs = [WeightOverlay(tid.probability, {}),
                 WeightOverlay(tid.probability, {var: float("inf")})]
        with pytest.raises(ValueError, match="float lane 1"):
            circuit.probability_batch(specs, numeric="float")

    def test_mixed_base_fill_names_the_first_lane_of_a_base(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        bad = {var: float("nan") for var in circuit.variables()}
        specs = [WeightOverlay(tid.probability, {}),
                 WeightOverlay(tid.probability, {}),
                 WeightOverlay(bad, {}), WeightOverlay(bad, {})]
        with pytest.raises(ValueError, match="float lane 2"):
            circuit.probability_batch(specs, numeric="float")

    def test_exact_path_accepts_what_float_rejects(self):
        """The guard is float-only: symbolic/extreme exact inputs keep
        working on the exact kernels."""
        circuit, specs = self._poisoned(float("inf"))
        specs[1][sorted(circuit.variables(), key=repr)[1]] = F(1, 2)
        formula, _ = rst_formula()
        values = circuit.probability_batch(specs)
        assert values == fraction_lanes(tape_for_circuit(circuit), specs)
        assert values == [shannon_probability(formula, spec)
                          for spec in specs]


class TestSerialization:
    def test_hash_equal_tokens_are_distinct_slots(self):
        """``True`` and ``1`` (also nested in tuples) are hash-equal
        but distinct variables: each gets its own slot, and the tape
        survives a serialization round trip and validation."""
        from repro.booleans.circuit import AND, LEAF, Circuit

        tokens = (True, 1, ("t", True), ("t", 1))
        circuit = Circuit(tuple((LEAF, t) for t in tokens)
                          + ((AND, (0, 1, 2, 3)),), 4)
        weights = dict(zip(map(repr, tokens),
                           (F(1, 3), F(1, 5), F(1, 7), F(1, 11))))

        def lookup(var):
            return weights[repr(var)]

        tape = flatten_circuit(circuit)
        assert len(tape.slots) == 4
        clone = Tape.from_bytes(tape.to_bytes())
        assert [repr(v) for v in clone.slots] == list(weights)
        want = F(1, 3 * 5 * 7 * 11)
        assert tape.evaluate([lookup]) == [want]
        assert clone.evaluate([lookup]) == [want]
        assert circuit.probability(lookup) == want

    def test_round_trip_is_byte_identical(self):
        formula, tid = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        data = tape.to_bytes()
        back = Tape.from_bytes(data)
        assert back.to_bytes() == data
        assert back.slots == tape.slots
        assert back.root == tape.root
        assert back.stats() == tape.stats()
        specs = [tid.probability, None]
        assert back.evaluate(specs) == tape.evaluate(specs)

    def test_round_trip_preserves_matching(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        back = Tape.from_bytes(flatten_circuit(circuit).to_bytes())
        assert back.matches(circuit)
        other = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        assert not back.matches(other)

    def test_version_skew_raises_unsupported(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        lines = data.decode("utf-8").splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        lines[0] = json.dumps(header)
        with pytest.raises(UnsupportedVersionError):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    @pytest.mark.parametrize("mangle", [
        lambda d: b"not a tape at all",
        lambda d: d[: len(d) // 2],
        lambda d: d.replace(b'"root":', b'"root":9999, "x":', 1),
    ])
    def test_corrupt_payloads_raise_value_error(self, mangle):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        with pytest.raises(ValueError):
            Tape.from_bytes(mangle(data))

    def test_operand_topology_is_validated(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        lines = data.decode("utf-8").splitlines()
        operands = json.loads(lines[4])
        operands[-1] = 10_000  # forward reference
        lines[4] = json.dumps(operands)
        with pytest.raises(ValueError, match="topological|range"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))


def _mangled_lines(data):
    lines = data.decode("utf-8").splitlines()
    return json.loads(lines[0]), lines


class TestValidate:
    """``Tape.validate`` — the structural gate ``from_bytes`` runs so
    corrupt-but-parseable sidecars fail closed."""

    def test_fresh_tapes_validate(self):
        formula, _ = rst_formula()
        flatten_circuit(compile_cnf(formula)).validate()  # no raise
        flatten_circuit(compile_cnf(CNF([]))).validate()  # constant

    def test_duplicate_slot_table_entry(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        header, lines = _mangled_lines(data)
        assert len(header["slots"]) >= 2
        header["slots"][1] = header["slots"][0]
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="duplicate"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_slot_table_first_use_order(self):
        # Pointing the first LIT at the last slot is a parseable tape
        # that would bind weights to the wrong variables — it must be
        # rejected, not evaluated.
        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        data = tape.to_bytes()
        header, lines = _mangled_lines(data)
        ops = json.loads(lines[1])
        arg0 = json.loads(lines[2])
        first_lit = ops.index(tape_module.OP_LIT)
        assert arg0[first_lit] == 0 and len(header["slots"]) > 1
        arg0[first_lit] = len(header["slots"]) - 1
        lines[2] = json.dumps(arg0)
        with pytest.raises(ValueError, match="first-use"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_unreferenced_slot_entry(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        header, lines = _mangled_lines(data)
        header["slots"].append(["s", "never-used-variable"])
        lines[0] = json.dumps(header)
        with pytest.raises(ValueError, match="never referenced"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_unknown_opcode(self):
        formula, _ = rst_formula()
        data = flatten_circuit(compile_cnf(formula)).to_bytes()
        _, lines = _mangled_lines(data)
        ops = json.loads(lines[1])
        ops[0] = 9
        lines[1] = json.dumps(ops)
        with pytest.raises(ValueError, match="opcode"):
            Tape.from_bytes("\n".join(lines).encode("utf-8"))

    def test_direct_validate_catches_bad_arity(self):
        from array import array

        tape = Tape(array("B", [tape_module.OP_CONST1,
                               tape_module.OP_AND]),
                    array("q", [0, 0]), array("q", [0, 1]),
                    array("q", [0]), (), 1, 2, 1)
        with pytest.raises(ValueError, match="fewer than two"):
            tape.validate()

    def test_invalid_sidecar_is_store_miss_and_removed(self, tmp_path):
        # Parseable-but-invalid .tape sidecars go through the same
        # corrupt→miss+unlink path as unparseable garbage.
        from repro.booleans.store import CircuitStore

        formula, _ = rst_formula()
        tape = flatten_circuit(compile_cnf(formula))
        store = CircuitStore(tmp_path)
        path = store.put_tape(formula, tape)
        header, lines = _mangled_lines(path.read_bytes())
        ops = json.loads(lines[1])
        arg0 = json.loads(lines[2])
        arg0[ops.index(tape_module.OP_LIT)] = len(header["slots"]) - 1
        lines[2] = json.dumps(arg0)
        path.write_bytes("\n".join(lines).encode("utf-8"))
        assert store.get_tape(formula) is None
        assert not path.exists()


_PROBE = """
import hashlib, json
from fractions import Fraction
from repro import obs
from repro.booleans.circuit import WeightOverlay, compile_cnf
from repro.booleans.tape import flatten_circuit
from repro.core.catalog import rst_query
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

query = rst_query()
tid = path_block(query, 3)
circuit = compile_cnf(lineage(query, tid))
tape = flatten_circuit(circuit)
grid = [WeightOverlay(tid.probability, {var: Fraction(j, 18)})
        for j, var in enumerate(tape.slots)]
tracer = obs.Tracer()
with tracer.root("probe"):
    lanes = tape.evaluate(grid)
kernel = next(s for s in tracer.recent(1)[0]["spans"]
              if s["name"] == "kernel")
print(json.dumps({
    "bytes": hashlib.sha256(tape.to_bytes()).hexdigest(),
    "stats": tape.stats(),
    "block_probability": str(tape.evaluate([tid.probability])[0]),
    "integer_lanes": [str(v) for v in lanes],
    "kernel_tags": kernel["tags"],
}))
"""


def _probe(hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


class TestDeterminism:
    def test_tape_bytes_identical_across_hash_seeds(self):
        first = _probe("0")
        assert first["kernel_tags"]["arith"] == "int"
        assert first == _probe("12345")


class TestCachingAndCounters:
    def test_flatten_once_then_hits(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        assert peek_tape(circuit) is None
        tape = tape_for_circuit(circuit)
        again = tape_for_circuit(circuit)
        assert again is tape
        stats = tape_stats()
        assert stats["tape_flattens"] == 1
        assert stats["tape_hits"] == 1
        assert stats["tape_bytes"] == tape.byte_size

    def test_probability_batch_reuses_attached_tape(self):
        formula, tid = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        grid = [{v: F(i + 1, 9) for v in circuit.variables()}
                for i in range(3)]
        circuit.probability_batch(grid, numeric="float")
        circuit.probability_batch(grid, numeric="float")
        stats = tape_stats()
        assert stats["tape_flattens"] == 1
        assert stats["tape_hits"] >= 1

    def test_warm_kernel_calls_count_one_hit_each(self):
        """Through ``repro.tid.wmc``, ``ensure_tape`` hands back an
        attached tape without counting; each kernel call counts once."""
        from repro.evaluation import probability_sweep
        from repro.tid import wmc

        formula, tid = rst_formula()
        wmc.cnf_probability(formula, tid.probability)  # cold: flatten
        before = wmc.cache_info()["tape_hits"]
        wmc.cnf_probability(formula, tid.probability)
        assert wmc.cache_info()["tape_hits"] == before + 1
        vectors = [None, {v: F(1, 3) for v in formula.variables()}]
        before = wmc.cache_info()["tape_hits"]
        probability_sweep(formula, vectors, numeric="float",
                          cross_check=2)
        # The float pass and the exact cross-check batch.
        assert wmc.cache_info()["tape_hits"] == before + 2

    def test_adopt_tape_rejects_mismatch(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        other = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        stray = flatten_circuit(other)
        assert not adopt_tape(circuit, stray)
        assert peek_tape(circuit) is None

    def test_adopt_tape_attaches_match_once(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        reset_tape_stats()
        loaded = Tape.from_bytes(flatten_circuit(circuit).to_bytes())
        assert adopt_tape(circuit, loaded)
        assert peek_tape(circuit) is loaded
        assert not adopt_tape(circuit, loaded)  # already attached
        stats = tape_stats()
        # flatten_circuit is pure and never counts; adoption only adds
        # the loaded tape's footprint.
        assert stats["tape_flattens"] == 0
        assert stats["tape_bytes"] >= loaded.byte_size
        # the attached tape now serves probability_batch
        assert tape_for_circuit(circuit) is loaded


class TestFlattening:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_tape_is_smaller_or_similar_per_node(self, qs):
        """Flattening is linear: instructions stay within a small
        constant of the circuit's node count."""
        query = random_query(qs, SMALL)
        tid = build_tid(query, qs)
        circuit = compile_cnf(lineage(query, tid))
        tape = flatten_circuit(circuit)
        assert tape.n_instructions <= 4 * circuit.size + 2
        assert 0 <= tape.root < tape.n_instructions

    def test_flatten_is_pure(self):
        formula, _ = rst_formula()
        circuit = compile_cnf(formula)
        a = flatten_circuit(circuit)
        b = flatten_circuit(circuit)
        assert a is not b
        assert a.to_bytes() == b.to_bytes()
        assert peek_tape(circuit) is None  # no attachment side effect
