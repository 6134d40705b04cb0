"""Run-to-run determinism of both WMC engines.

Frozenset iteration order varies with PYTHONHASHSEED, so anything that
iterates clause sets without a deterministic tie-break drifts between
runs.  These tests pin the contract: circuit statistics, serialized
bytes, probabilities, and the recursive engine's values are identical
across hash seeds and across variable insertion orders.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from repro.booleans.circuit import compile_cnf
from repro.booleans.cnf import CNF
from repro.tid.brute import shannon_probability

F = Fraction

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Executed in a fresh interpreter per hash seed: digest everything
#: that must be run-independent.
_PROBE = """
import hashlib, json
from fractions import Fraction
from repro.booleans.circuit import compile_cnf
from repro.booleans.store import cnf_fingerprint
from repro.core.catalog import rst_query
from repro.reduction.blocks import path_block
from repro.tid.brute import shannon_probability
from repro.tid.lineage import lineage

query = rst_query()
tid = path_block(query, 3)
formula = lineage(query, tid)
circuit = compile_cnf(formula)
weights = {var: Fraction(i + 1, 40)
           for i, var in enumerate(sorted(formula.variables(),
                                          key=repr))}
print(json.dumps({
    "stats": circuit.stats(),
    "bytes": hashlib.sha256(circuit.to_bytes()).hexdigest(),
    "fingerprint": cnf_fingerprint(formula),
    "probability": str(circuit.probability(weights)),
    "block_probability": str(circuit.probability(tid.probability)),
    "model_count": circuit.model_count(formula.variables()),
    "marginal_sample": str(sorted(
        circuit.marginals(weights).items(), key=repr)[0][1]),
    "shannon": str(shannon_probability(formula, weights)),
}, sort_keys=True))
"""

#: The sampling/estimation layer must be just as seed-independent: the
#: estimators iterate variables in sorted-repr order and the sampler
#: walks the (already deterministic) node table, so fixed rng seeds
#: give identical draws under any PYTHONHASHSEED.  The adaptive
#: estimator and importance sampler are held to the strongest form of
#: the contract: their *entire* serialized state (``as_dict`` — point
#: estimate, achieved interval, stopping checkpoint, weights drawn) is
#: byte-identical across hash seeds.
_PROBE_APPROX = """
import json
from fractions import Fraction
from repro.booleans.adaptive import (
    adaptive_estimate_probability,
    importance_estimate_probability,
)
from repro.booleans.approximate import estimate_probability
from repro.booleans.circuit import compile_cnf
from repro.core.catalog import rst_query
from repro.reduction.blocks import path_block
from repro.tid.lineage import lineage

query = rst_query()
tid = path_block(query, 3)
formula = lineage(query, tid)
circuit = compile_cnf(formula)
estimate = estimate_probability(
    formula, tid.probability, Fraction(1, 10), Fraction(1, 10), rng=7)
adaptive = adaptive_estimate_probability(
    formula, tid.probability, Fraction(1, 10), Fraction(1, 10), rng=7)
importance = importance_estimate_probability(
    formula, tid.probability, Fraction(1, 10), Fraction(1, 10), rng=7,
    relative_error=Fraction(1, 2))
worlds = circuit.sample(tid.probability, k=5, rng=7)
top = circuit.top_k_worlds(tid.probability, k=4)
print(json.dumps({
    "estimate": str(estimate.estimate),
    "successes": estimate.successes,
    "samples": estimate.samples,
    "adaptive": adaptive.as_dict(),
    "importance": importance.as_dict(),
    "worlds": [sorted((repr(v), bool(b)) for v, b in w.items())
               for w in worlds],
    "top": [[str(p), sorted((repr(v), bool(b))
                            for v, b in w.items())]
            for p, w in top],
}, sort_keys=True))
"""


def _probe(hashseed: str, script: str = _PROBE) -> dict:
    env = dict(os.environ,
               PYTHONHASHSEED=hashseed,
               PYTHONPATH=SRC + os.pathsep + os.environ.get(
                   "PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True)
    return json.loads(out.stdout)


class TestAcrossHashSeeds:
    def test_engines_identical_under_two_seeds(self):
        """Stats, serialized bytes, fingerprint, and every probability
        agree between PYTHONHASHSEED=0 and =12345."""
        a = _probe("0")
        b = _probe("12345")
        assert a == b

    def test_sampling_and_estimation_identical_under_two_seeds(self):
        """Monte-Carlo estimates, sampled worlds, and top-k lists are
        bit-identical across hash seeds for a fixed rng seed."""
        a = _probe("0", _PROBE_APPROX)
        b = _probe("12345", _PROBE_APPROX)
        assert a == b


class TestAcrossInsertionOrders:
    def build(self, clause_order, token_order):
        """The same 2x2 block-ish CNF assembled in a given order."""
        clauses = [[("S", "u1", "v1"), ("R", "u1")],
                   [("S", "u1", "v2"), ("R", "u1")],
                   [("S", "u2", "v1"), ("T", "v1")],
                   [("S", "u2", "v2"), ("T", "v2")],
                   [("R", "u2")]]
        return CNF([list(token_order(c)) for c in clause_order(clauses)])

    def test_same_circuit_any_order(self):
        forward = self.build(lambda cs: cs, lambda c: c)
        backward = self.build(reversed, lambda c: list(reversed(c)))
        assert forward == backward
        a, b = compile_cnf(forward), compile_cnf(backward)
        assert a.nodes == b.nodes
        assert a.root == b.root
        assert a.to_bytes() == b.to_bytes()
        assert a.stats() == b.stats()

    def test_shannon_values_any_order(self):
        forward = self.build(lambda cs: cs, lambda c: c)
        backward = self.build(reversed, lambda c: list(reversed(c)))
        weights = {var: F(1, 3) for var in forward.variables()}
        assert shannon_probability(forward, weights) == \
            shannon_probability(backward, weights)


class TestUnitClauseChoice:
    def test_shannon_picks_min_repr_unit(self):
        """The recursive engine must condition on the min-by-repr unit
        first, like the compiler, not on frozenset iteration order."""
        formula = CNF([["b"], ["a"], ["a", "c"], ["b", "d"], ["c", "d"]])
        queried = []

        def prob(var):
            queried.append(var)
            return F(1, 2)

        shannon_probability(formula, prob)
        assert queried[0] == "a"
        assert queried[1] == "b"

    def test_compiler_and_shannon_agree_with_units(self):
        formula = CNF([["z"], ["y"], ["x", "w"], ["w", "z"]])
        weights = {v: F(2, 5) for v in formula.variables()}
        assert compile_cnf(formula).probability(weights) == \
            shannon_probability(formula, weights)
