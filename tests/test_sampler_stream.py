"""The pinned RNG stream of every Monte-Carlo sampler.

Each draw compares ``rng.random()`` with ``draw_threshold`` of an
exact ``Fraction`` marginal, a float that decides every draw as the
``Fraction`` would, over variables in sorted-repr order, so a seeded
estimate is a pure function of its inputs.  This module pins that
function: the ``as_dict()`` of seeded runs of the three samplers on
random CNFs with 0 and 1 marginals (additive targets, and relative
ones for the two sequential samplers; fixed-n Hoeffding has no
relative mode), a past-budget sweep over three weight specs, the
service benchmark's two ``estimate`` requests, and the worlds
``Circuit.sample`` draws.  A change to the draw loop, the stopping rule
or the bound arithmetic that moves one draw, one checkpoint or one bit
of an interval fails here.

The expected values live in ``golden/sampler_stream.json``.  Regenerate
them with ``PYTHONPATH=src python tests/test_sampler_stream.py`` only
for a change that means to alter the stream.
"""

import json
import random
import sys

from fractions import Fraction
from pathlib import Path

import pytest

from repro.booleans.adaptive import (
    adaptive_estimate_probability,
    estimate_with,
    importance_estimate_probability,
)
from repro.booleans.approximate import estimate_probability
from repro.booleans.circuit import WeightOverlay, compile_cnf
from repro.booleans.cnf import CNF
from repro.core.catalog import path_query, rst_query
from repro.reduction.blocks import path_block
from repro.tid import wmc
from repro.tid.lineage import lineage

F = Fraction

GOLDEN = Path(__file__).resolve().parent / "golden" / "sampler_stream.json"

#: Marginals of the random CNFs; 0 and 1 pin a variable, and the
#: importance sampler must leave pinned variables untilted.
MARGINALS = (F(0), F(1, 10), F(1, 3), F(1, 2), F(3, 4), F(1))

#: Seeds of ``random_case`` whose weights hold both a 0 and a 1, two of
#: them with Pr(F) at most 1/15 (where the importance tilt matters).
SEEDS = (6, 13, 26, 27)


def random_case(seed: int) -> tuple:
    """A small random monotone CNF and a weight map over all but its
    last variable (that one takes the sampler's ``default``)."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(rng.randint(6, 9))]
    formula = CNF([rng.sample(names, rng.randint(2, 3))
                   for _ in range(rng.randint(4, 7))])
    scope = sorted(formula.variables(), key=repr)
    return formula, {var: rng.choice(MARGINALS) for var in scope[:-1]}


def _hoeffding():
    out = []
    for seed in SEEDS:
        formula, weights = random_case(seed)
        out.append(estimate_probability(
            formula, weights, F(1, 10), F(1, 20), rng=seed,
            default=F(1, 3)))
    return out


def _adaptive():
    out = []
    for seed in SEEDS:
        formula, weights = random_case(seed)
        out.append(adaptive_estimate_probability(
            formula, weights, F(1, 20), F(1, 20), rng=seed))
        out.append(adaptive_estimate_probability(
            formula, weights, F(1, 10), F(1, 20),
            rng=random.Random(seed), default=F(3, 4),
            relative_error=F(1, 2)))
    return out


def _importance():
    out = []
    for seed in SEEDS:
        formula, weights = random_case(seed)
        out.append(importance_estimate_probability(
            formula, weights, F(1, 10), F(1, 10), rng=seed))
        out.append(importance_estimate_probability(
            formula, weights, F(1, 5), F(1, 10),
            rng=random.Random(seed), default=F(1, 10),
            relative_error=F(1, 2)))
    return out


def _batch():
    formula, weights = random_case(38)
    specs = [weights, None, WeightOverlay(weights, {"x0": F(1)})]
    out = []
    for estimator in ("hoeffding", "adaptive", "importance"):
        wmc.clear_circuit_cache()
        sweep = wmc.probability_batch_auto(
            formula, specs, budget_nodes=2, epsilon=F(1, 10),
            delta=F(1, 10), rng=5, estimator=estimator)
        assert sweep.engine != "exact"
        out.extend(sweep.estimates)
    return out


def _serve_deck():
    out = []
    for k in (1, 2):
        query = path_query(k)
        tid = path_block(query, 4)
        formula = lineage(query, tid)
        for seed in (0, 7 * 100_003 + 21):
            out.append(estimate_with(
                "hoeffding", formula, tid.probability, F(1, 4),
                F(1, 10 ** 9), seed))
    return out


def _circuit_sample():
    formula, weights = random_case(24)
    query = rst_query()
    tid = path_block(query, 3)
    worlds = []
    for circuit, spec in ((compile_cnf(formula), weights),
                          (compile_cnf(lineage(query, tid)),
                           tid.probability)):
        worlds += circuit.sample(spec, k=5, rng=7)
    return [sorted([repr(var), bit] for var, bit in world.items())
            for world in worlds]


GROUPS = {"hoeffding": _hoeffding, "adaptive": _adaptive,
          "importance": _importance, "batch": _batch,
          "serve_deck": _serve_deck, "circuit_sample": _circuit_sample}


def observed(group: str) -> list:
    """The JSON rendering of one group's seeded runs."""
    runs = GROUPS[group]()
    if group != "circuit_sample":
        runs = [estimate.as_dict() for estimate in runs]
    return json.loads(json.dumps(runs))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_stream_matches_golden(group):
    expected = json.loads(GOLDEN.read_text())[group]
    assert observed(group) == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({group: observed(group)
                                  for group in sorted(GROUPS)},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
