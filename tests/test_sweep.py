"""The batched sweep engine and the pipelines rewired onto it."""

from fractions import Fraction

import pytest

from repro.booleans.circuit import Circuit, compile_cnf
from repro.booleans.cnf import CNF
from repro.core.catalog import example_c15, rst_query
from repro.evaluation import endpoint_weight_grid, probability_sweep
from repro.reduction.blocks import path_block
from repro.reduction.block_matrix import z_matrix_direct, z_matrix_power
from repro.reduction.type2_blocks import type2_block
from repro.reduction.type2_lattice import TypeIIStructure
from repro.reduction.type2_spectral import (
    link_matrix_sweep,
    link_matrix_type2,
)
from repro.tid import wmc
from repro.tid.database import r_tuple, s_tuple
from repro.tid.lineage import lineage

F = Fraction


def endpoint_grid(k=6, p=3):
    query = rst_query()
    tid = path_block(query, p)
    formula = lineage(query, tid)
    return formula, endpoint_weight_grid(formula, tid, k)


class TestProbabilityBatch:
    def test_matches_per_vector_probability(self):
        formula, maps = endpoint_grid()
        circuit = compile_cnf(formula)
        batched = circuit.probability_batch(maps)
        assert batched == [circuit.probability(w) for w in maps]

    def test_mixed_specs(self):
        """Mappings, callables, and None all batch together."""
        circuit = compile_cnf(CNF([["a", "b"], ["b", "c"]]))
        specs = [{"a": F(1, 3)}, (lambda v: F(1, 4)), None]
        assert circuit.probability_batch(specs) == \
            [circuit.probability(s) for s in specs]

    def test_empty_batch(self):
        circuit = compile_cnf(CNF([["a"]]))
        assert circuit.probability_batch([]) == []

    def test_pinning_equals_conditioning(self):
        """Weight-pinning a variable to 0/1 is bit-identical to
        structural conditioning (multilinearity)."""
        formula, _ = endpoint_grid(k=1)
        circuit = compile_cnf(formula)
        var = sorted(formula.variables(), key=repr)[0]
        for value in (F(0), F(1)):
            pinned = circuit.probability_batch(
                [{var: value}])[0]
            conditioned = compile_cnf(
                formula.condition(var, bool(value)))
            assert pinned == conditioned.probability(None)

    def test_float_fast_path_close(self):
        formula, maps = endpoint_grid()
        circuit = compile_cnf(formula)
        exact = circuit.probability_batch(maps)
        floats = circuit.probability_batch(maps, numeric="float")
        assert all(isinstance(v, float) for v in floats)
        for approx, truth in zip(floats, exact):
            assert abs(approx - float(truth)) < 1e-12

    def test_unknown_numeric_mode(self):
        circuit = compile_cnf(CNF([["a"]]))
        with pytest.raises(ValueError, match="numeric"):
            circuit.probability_batch([None], numeric="decimal")


class TestProbabilitySweep:
    def test_exact_matches_batch(self):
        formula, maps = endpoint_grid()
        wmc.clear_circuit_cache()
        values = probability_sweep(formula, maps)
        circuit = compile_cnf(formula)
        assert values == [circuit.probability(w) for w in maps]
        assert wmc.cache_info()["compiles"] == 1

    def test_float_mode_cross_checked(self):
        formula, maps = endpoint_grid()
        values = probability_sweep(formula, maps, numeric="float")
        exact = probability_sweep(formula, maps)
        for approx, truth in zip(values, exact):
            assert abs(approx - float(truth)) < 1e-9

    @pytest.mark.parametrize("sweep", [
        probability_sweep,
        lambda *args, **kwargs:
            wmc.probability_batch_auto(*args, **kwargs).values,
    ], ids=["probability_sweep", "probability_batch_auto"])
    def test_unknown_numeric_refused_past_a_blown_budget(self, sweep):
        """An unknown numeric mode is refused before any compilation,
        so the estimator path past a blown budget refuses it too."""
        formula, maps = endpoint_grid(k=2)
        wmc.clear_circuit_cache()
        with pytest.raises(ValueError, match="numeric"):
            sweep(formula, maps, numeric="decimal", budget_nodes=2)
        assert wmc.cache_info()["budget_aborts"] == 0

    def test_float_drift_names_the_vector(self, monkeypatch):
        formula, maps = endpoint_grid(k=4)
        batch = Circuit.probability_batch

        def drifting(circuit, specs, default=None, numeric="exact"):
            values = batch(circuit, specs, default, numeric)
            if numeric == "float":
                values[2] += 1e-6
            return values

        monkeypatch.setattr(Circuit, "probability_batch", drifting)
        with pytest.raises(ArithmeticError, match="vector 2"):
            probability_sweep(formula, maps, numeric="float",
                              cross_check=4)
        # The primitive cross-checks only when asked to.
        drifted = wmc.probability_batch_auto(formula, maps,
                                             numeric="float").values
        assert len(drifted) == 4
        # A positional fifth argument (the old ``processes``) is refused
        # rather than read as a cross-check count.
        with pytest.raises(TypeError):
            probability_sweep(formula, maps, None, "float", 2)


class TestBlockMatrixGrid:
    def test_endpoint_grid_matches_per_entry(self):
        """z_matrix_direct's batched grid is bit-identical to four
        separate conditioned evaluations."""
        query = rst_query()
        p = 3
        z = z_matrix_direct(query, p)
        tid = path_block(query, p)
        circuit = compile_cnf(lineage(query, tid))
        base = tid.probability
        r_u, r_v = r_tuple("u"), r_tuple("v")
        for a in (0, 1):
            for b in (0, 1):
                pinned = {r_u: F(a), r_v: F(b)}
                assert z[a, b] == circuit.probability(
                    lambda t, pinned=pinned: pinned.get(t, base(t)))

    def test_lemma_319_still_holds(self):
        query = rst_query()
        assert z_matrix_direct(query, 3) == z_matrix_power(query, 3)


class TestTypeIISweeps:
    def test_link_matrix_sweep_interior(self):
        q = example_c15()
        token = s_tuple("S1", "r1", "t0")
        thetas = [{}, {token: F(1, 3)}, {token: F(2, 3)}]
        swept = link_matrix_sweep(q, "U", thetas)
        for theta, z in zip(thetas, swept):
            assert z == link_matrix_type2(q, "U", assignment=theta)

    def test_link_matrix_sweep_01_fallback(self):
        q = example_c15()
        token = s_tuple("S1", "r1", "t0")
        thetas = [{token: F(1)}, {token: F(0)}]
        swept = link_matrix_sweep(q, "U", thetas)
        for theta, z in zip(thetas, swept):
            assert z == link_matrix_type2(q, "U", assignment=theta)

    def test_y_probability_sweep_matches_modified_blocks(self):
        q = example_c15()
        structure = TypeIIStructure(q)
        block = type2_block(q, p=1)
        token = s_tuple("S1", "r1", "t0")
        alpha, beta = frozenset({0}), frozenset({0})
        overlays = [{}, {token: F(1, 3)}, {token: F(1)}, {token: F(0)}]
        swept = structure.y_probability_sweep(
            block, "r0", "t1", alpha, beta, overlays)
        for overlay, value in zip(overlays, swept):
            modified = block
            for tok, val in overlay.items():
                modified = modified.with_probability(tok, val)
            assert value == structure.y_probability(
                modified, "r0", "t1", alpha, beta)
