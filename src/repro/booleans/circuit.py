"""Knowledge compilation: monotone CNFs as d-DNNF arithmetic circuits.

The reductions evaluate the *same* lineage CNF under *many* weight
vectors: the block-matrix entries of Eq. 20 sweep the endpoint
probabilities over {0, 1}^2, the Type-II pipelines sweep consistent
theta-assignments, and the Vandermonde interpolation sweeps a grid of
probability points — all over one fixed formula.  The weighted model
counter in ``repro.tid.wmc`` restarts its exponential search on every
call; this module instead records that search *once* as a circuit and
replays it in time linear in the circuit size per weight vector.

A circuit is a DAG of hash-consed nodes:

* ``("true",)`` / ``("false",)`` — constants;
* ``("leaf", var)``              — the positive literal ``var``;
* ``("and", children)``          — a *decomposable* conjunction: the
  children mention pairwise disjoint variable sets, so probabilities
  multiply;
* ``("ite", var, hi, lo)``       — a Shannon decision
  (var AND hi) OR (NOT var AND lo): *deterministic* because the two
  disjuncts are mutually exclusive on ``var``, so probabilities add.

Decomposability + determinism make the circuit a d-DNNF: weighted model
counts, unweighted model counts, and all first-order marginals fall out
of single forward/backward passes.  The compiler mirrors the trace of
the WMC engine — unit-clause conditioning, independent-component
factorization via ``clause_components``, Shannon expansion on a
most-shared variable — but keeps the trace instead of collapsing it to
one number.

Two runtime features round the IR out into a reusable artifact:

* ``Circuit.probability`` and ``Circuit.probability_batch`` run on the
  circuit's flat instruction tape (``repro.booleans.tape``): one pass
  evaluates *many* weight vectors (the grids of Eq. 20, theta-sweeps,
  interpolation points) on exact integer lanes, or on float lanes for
  approximate sweeps;
* ``Circuit.to_bytes`` / ``Circuit.from_bytes`` give a versioned,
  exactly round-tripping serialization, the unit of persistence for the
  content-addressed store in ``repro.booleans.store``.
"""

from __future__ import annotations

import heapq
import json
import random

from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.booleans.cnf import CNF
from repro.booleans.connectivity import clause_components

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

#: Node kind tags (index 0 of every node tuple).
TRUE, FALSE, LEAF, AND, ITE = "true", "false", "leaf", "and", "ite"

#: Serialization format name / version (``Circuit.to_bytes``).
FORMAT_NAME = "repro-ddnnf"
FORMAT_VERSION = 1


class UnsupportedVersionError(ValueError):
    """A well-formed circuit payload written by a different format
    version — distinguishable from corruption so shared stores are not
    destructively 'repaired' across version skew."""


class CompilationBudgetExceeded(RuntimeError):
    """``compile_cnf`` interned more nodes than its ``budget_nodes``.

    Exact d-DNNF compilation is worst-case exponential; callers that
    cannot afford an open-ended search set a budget and treat this
    exception as the signal to degrade to approximate counting
    (``repro.booleans.approximate.estimate_probability``)."""

    def __init__(self, budget_nodes: int):
        super().__init__(
            f"d-DNNF compilation exceeded the budget of "
            f"{budget_nodes} interned nodes")
        self.budget_nodes = budget_nodes

Weights = Mapping | Callable[[Hashable], Fraction] | None


def encode_token(token) -> list:
    """A JSON-safe, type-tagged encoding of a variable token.

    Tokens in this codebase are strings, ints, bools, None, or nested
    tuples thereof (ground-tuple tokens like ``('S1', 'u', 'v')``); the
    tags keep the round trip exact — ``decode_token(encode_token(t))``
    returns an *equal* token, never a list-for-tuple lookalike.
    """
    if token is None:
        return ["z"]
    if isinstance(token, bool):  # before int: bool is an int subclass
        return ["b", token]
    if isinstance(token, int):
        return ["i", token]
    if isinstance(token, str):
        return ["s", token]
    if isinstance(token, tuple):
        return ["t", [encode_token(part) for part in token]]
    raise TypeError(
        f"cannot serialize variable token {token!r} of type "
        f"{type(token).__name__}; supported: str, int, bool, None, "
        f"and tuples thereof")


def decode_token(obj):
    """Inverse of ``encode_token``."""
    tag = obj[0]
    if tag == "z":
        return None
    if tag == "b":
        return bool(obj[1])
    if tag == "i":
        return int(obj[1])
    if tag == "s":
        return str(obj[1])
    if tag == "t":
        return tuple(decode_token(part) for part in obj[1])
    raise ValueError(f"unknown token tag {tag!r}")


def make_lookup(weights: Weights = None,
                default: Fraction | None = None) -> Callable:
    """Normalize a weight specification into ``var -> Fraction``.

    ``weights`` may be a mapping, a callable, or None; variables missing
    from a mapping fall back to ``default`` (1/2 when unspecified) —
    the same convention as ``repro.tid.wmc.cnf_probability``.
    """
    if callable(weights):
        return weights
    table = dict(weights or {})
    fallback = HALF if default is None else Fraction(default)
    return lambda v: table.get(v, fallback)


class WeightOverlay:
    """A weight spec "shared base with a few per-variable replacements".

    Sweep lanes overwhelmingly have this shape — one base weighting
    (the block marginals) plus a handful of pinned variables per lane
    (theta-tuples, endpoints).  Spelling a lane this way keeps the
    semantics of an ordinary spec (``WeightOverlay`` is callable, so
    ``make_lookup`` treats it like any other lookup, and base-map
    misses take 1/2 whatever a batch's ``default``) while letting the
    tape fill its weight matrix from one base column plus the
    overrides — O(slots + overrides) weight probes per batch instead
    of O(slots x lanes).
    """

    __slots__ = ("base", "pinned", "_lookup")

    def __init__(self, base: Weights = None, pinned=None):
        self.base = base
        self.pinned = dict(pinned or {})
        self._lookup = None

    def __call__(self, var):
        inner = self._lookup
        if inner is None:
            inner = self._lookup = make_lookup(self.base)
        pinned = self.pinned
        return pinned[var] if var in pinned else inner(var)


#: ``branch_variable`` scores at most this many most-shared candidates
#: with the separator heuristic; the scan is linear in the formula per
#: candidate, so the cap bounds pivot selection at a small constant
#: multiple of the old most-shared rule.
_SEPARATOR_CANDIDATES = 6


def _separation(formula: CNF, var) -> int:
    """The number of connected components of the clause graph once
    ``var`` is deleted from every clause.

    Both Shannon cofactors on ``var`` erase it from the residual
    formula, so this lower-bounds how many independent factors
    ``clause_components`` finds in *each* branch: a separator variable
    (count > 1) lets the compiler recurse on strictly smaller pieces
    instead of one interleaved formula.
    """
    reduced = [clause - {var} for clause in formula.clauses]
    reduced = [clause for clause in reduced if clause]
    if len(reduced) <= 1:
        return len(reduced)
    incidence: dict[object, list[int]] = {}
    for i, clause in enumerate(reduced):
        for v in clause:
            incidence.setdefault(v, []).append(i)
    seen = [False] * len(reduced)
    components = 0
    for start in range(len(reduced)):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            i = stack.pop()
            for v in reduced[i]:
                for j in incidence[v]:
                    if not seen[j]:
                        seen[j] = True
                        stack.append(j)
    return components


def branch_variable(formula: CNF):
    """The Shannon-expansion pivot: a cutset/separator variable when
    one exists, else a most-shared variable.

    The top ``_SEPARATOR_CANDIDATES`` most-shared variables are scored
    by how many clause components remain after deleting the variable
    (``_separation``); conditioning on a separator factors both
    cofactors into independent pieces, which hash-consing then shares —
    smaller circuits before they are ever evaluated or taped.  All ties
    break deterministically on the token's repr, preserving the
    byte-identical-across-hash-seeds serialization contract.
    """
    counts: dict[object, int] = {}
    for clause in formula.clauses:
        for var in clause:
            counts[var] = counts.get(var, 0) + 1
    if len(counts) <= 2 or len(formula.clauses) < 3:
        return max(counts, key=lambda v: (counts[v], repr(v)))
    candidates = sorted(counts, key=lambda v: (-counts[v], repr(v)))
    candidates = candidates[:_SEPARATOR_CANDIDATES]
    return max(candidates,
               key=lambda v: (_separation(formula, v), counts[v],
                              repr(v)))


class Circuit:
    """An immutable d-DNNF arithmetic circuit.

    ``nodes`` is topologically ordered (children strictly before
    parents), so every query below is a single linear pass.
    """

    __slots__ = ("nodes", "root", "_variables", "_tape")

    def __init__(self, nodes: tuple, root: int):
        self.nodes = nodes
        self.root = root
        self._variables: frozenset | None = None
        # Lazily attached by repro.booleans.tape.tape_for_circuit so
        # the flattened form shares the circuit's cache lifetime.
        self._tape = None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        total = 0
        for node in self.nodes:
            if node[0] is AND:
                total += len(node[1])
            elif node[0] is ITE:
                total += 2
        return total

    def variables(self) -> frozenset:
        if self._variables is None:
            self._variables = frozenset(
                node[1] for node in self.nodes if node[0] in (LEAF, ITE))
        return self._variables

    def node_counts(self) -> dict[str, int]:
        counts = {TRUE: 0, FALSE: 0, LEAF: 0, AND: 0, ITE: 0}
        for node in self.nodes:
            counts[node[0]] += 1
        return counts

    def depth(self) -> int:
        """Longest root-to-leaf path (0 for a constant circuit)."""
        depths = [0] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node[0] is AND:
                depths[i] = 1 + max(depths[c] for c in node[1])
            elif node[0] is ITE:
                depths[i] = 1 + max(depths[node[2]], depths[node[3]])
        return depths[self.root]

    def stats(self) -> dict:
        """Summary statistics (the ``repro compile`` CLI report)."""
        counts = self.node_counts()
        return {
            "size": self.size,
            "edges": self.edge_count,
            "depth": self.depth(),
            "variables": len(self.variables()),
            "decision_nodes": counts[ITE],
            "product_nodes": counts[AND],
            "leaf_nodes": counts[LEAF],
        }

    # ------------------------------------------------------------------
    # Linear-time queries
    # ------------------------------------------------------------------
    def probability(self, weights: Weights = None,
                    default: Fraction | None = None) -> Fraction:
        """Pr(F) under independent variables — one pass over the
        circuit's flat tape (``repro.booleans.tape.Tape.probability``)."""
        from repro.booleans.tape import tape_for_circuit
        return tape_for_circuit(self).probability(weights, default,
                                                  self._forward)

    def _forward(self, lookup) -> list[Fraction]:
        """Every node's probability in ``Fraction``s, by one walk of
        the node table (``marginals`` and ``sample`` need them all)."""
        vals: list[Fraction] = [ZERO] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            kind = node[0]
            if kind is ITE:
                p = Fraction(lookup(node[1]))
                vals[i] = p * vals[node[2]] + (ONE - p) * vals[node[3]]
            elif kind is AND:
                acc = ONE
                for child in node[1]:
                    acc *= vals[child]
                    if not acc:
                        break
                vals[i] = acc
            elif kind is LEAF:
                vals[i] = Fraction(lookup(node[1]))
            elif kind is TRUE:
                vals[i] = ONE
        return vals

    def probability_batch(self, weight_specs: Sequence[Weights],
                          default: Fraction | None = None,
                          numeric: str = "exact") -> list:
        """``[Pr(F; w) for w in weight_specs]`` in one pass over the
        circuit's flat tape (``repro.booleans.tape``), flattened once
        and cached on the circuit.

        Each spec is a mapping, a callable, a ``WeightOverlay`` or None,
        as in ``probability``.  Sweeps (the Eq. 20 endpoint grids,
        theta-sweeps, interpolation points) vary a handful of variables,
        so a register keeps one shared value while it is the same in
        every lane, and the work scales with k only on the swept part.

        ``numeric="exact"`` (the default) returns ``Fraction``s equal to
        k ``probability`` calls, from integer lanes over the batch's
        common denominator (or ``Fraction`` lanes when it is too wide).
        ``numeric="float"`` runs the float lanes; cross-check a sample
        against the exact path (``repro.evaluation.probability_sweep``
        does).  Non-finite float weights raise ``ValueError`` naming
        the lane.
        """
        from repro.booleans.tape import tape_for_circuit
        return tape_for_circuit(self).evaluate(list(weight_specs),
                                               numeric, default)

    def model_count(self, scope: Iterable | None = None) -> int:
        """The number of satisfying assignments over ``scope``.

        ``scope`` must contain every circuit variable (default: exactly
        the circuit variables); variables in ``scope`` that the formula
        does not mention are free and double the count.
        """
        variables = self.variables()
        scope = variables if scope is None else frozenset(scope)
        if not variables <= scope:
            missing = sorted(variables - scope, key=repr)
            raise ValueError(f"scope is missing circuit variables: "
                             f"{missing[:5]}")
        # Pr at the uniform weighting 1/2 is (#models / 2^|scope|),
        # exactly, because every node value is an exact Fraction.
        count = self.probability(lambda v: HALF) * (1 << len(scope))
        if count.denominator != 1:  # pragma: no cover - d-DNNF invariant
            raise AssertionError(f"non-integral model count: {count}")
        return int(count)

    def marginals(self, weights: Weights = None,
                  default: Fraction | None = None) -> dict:
        """All partial derivatives d Pr(F) / d p(var) — one forward plus
        one backward pass (Darwiche's differential semantics).

        Since Pr is multilinear, the marginal of ``var`` also equals
        Pr(F[var:=1]) - Pr(F[var:=0]) at the remaining weights.
        """
        lookup = make_lookup(weights, default)
        vals = self._forward(lookup)
        derivs: list[Fraction] = [ZERO] * len(self.nodes)
        derivs[self.root] = ONE
        grads: dict = {v: ZERO for v in self.variables()}
        for i in range(len(self.nodes) - 1, -1, -1):
            d = derivs[i]
            if not d:
                continue
            node = self.nodes[i]
            kind = node[0]
            if kind is ITE:
                p = Fraction(lookup(node[1]))
                derivs[node[2]] += p * d
                derivs[node[3]] += (ONE - p) * d
                grads[node[1]] += (vals[node[2]] - vals[node[3]]) * d
            elif kind is AND:
                children = node[1]
                # Prefix/suffix products keep the pass linear even when
                # several child values are zero.
                n = len(children)
                prefix = [ONE] * (n + 1)
                for j, child in enumerate(children):
                    prefix[j + 1] = prefix[j] * vals[child]
                suffix = ONE
                for j in range(n - 1, -1, -1):
                    child = children[j]
                    derivs[child] += d * prefix[j] * suffix
                    suffix *= vals[child]
            elif kind is LEAF:
                grads[node[1]] += d
        return grads

    # ------------------------------------------------------------------
    # World sampling and top-k enumeration (top-down passes)
    # ------------------------------------------------------------------
    def sample(self, weights: Weights = None, k: int = 1,
               rng: random.Random | int | None = None,
               default: Fraction | None = None) -> list[dict]:
        """k exact samples from Pr(world | F) — the distribution of the
        independent variables conditioned on the formula being true.

        One forward pass computes every node's probability; each sample
        is then a top-down walk: at a decision node the true-branch is
        taken with its exact posterior odds (determinism makes the two
        branches disjoint events), a product node descends into all
        children (decomposability makes them independent), and
        variables the walk never constrains are drawn from their prior
        marginals.  Each returned world is a ``{var: bool}`` dict over
        all circuit variables and satisfies the formula.

        ``rng`` is a ``random.Random``, an int seed, or None (seed 0);
        results are reproducible across processes and hash seeds —
        the walk order is the node table's, and the free-variable
        fill-in iterates in sorted-repr order.
        """
        if k < 0:
            raise ValueError("k must be non-negative")
        lookup = make_lookup(weights, default)
        vals = self._forward(lookup)
        total = vals[self.root]
        if total == 0:
            raise ValueError(
                "cannot sample: the formula has probability 0 under "
                "these weights")
        if not isinstance(rng, random.Random):
            rng = random.Random(0 if rng is None else rng)
        # Posterior branch thresholds and prior marginals depend only
        # on the weights, not the sample — hoist the exact-Fraction
        # arithmetic out of the per-sample loop.
        thresholds: list = [None] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node[0] is ITE:
                p = Fraction(lookup(node[1]))
                hi_mass = p * vals[node[2]]
                mass = hi_mass + (ONE - p) * vals[node[3]]
                if mass:  # zero-mass nodes are never visited below
                    thresholds[i] = hi_mass / mass
        priors = [(var, Fraction(lookup(var)))
                  for var in sorted(self.variables(), key=repr)]
        worlds = []
        for _ in range(k):
            world: dict = {}
            stack = [self.root]
            while stack:
                i = stack.pop()
                node = self.nodes[i]
                kind = node[0]
                if kind is ITE:
                    # float < Fraction compares exactly in Python, and
                    # random() < 1 always holds, so a branch of
                    # posterior mass 0 (or 1) is never (always) taken.
                    if rng.random() < thresholds[i]:
                        world[node[1]] = True
                        stack.append(node[2])
                    else:
                        world[node[1]] = False
                        stack.append(node[3])
                elif kind is AND:
                    stack.extend(node[1])
                elif kind is LEAF:
                    world[node[1]] = True
            for var, prior in priors:
                if var not in world:
                    world[var] = rng.random() < prior
            worlds.append(world)
        return worlds

    def top_k_worlds(self, weights: Weights = None, k: int = 1,
                     default: Fraction | None = None) -> list[tuple]:
        """The k most probable satisfying worlds, as ``(probability,
        world)`` pairs sorted by descending probability.

        A bottom-up k-best pass: every node carries the k best partial
        worlds over its *mentioned* variables; product nodes combine
        children by a lazy best-first merge (their variable sets are
        disjoint), decision nodes smooth each branch over the variables
        only the other branch mentions before merging (determinism
        keeps the merged worlds distinct).  Worlds of probability 0 are
        excluded, so fewer than k pairs may return.  Ties are broken on
        the world's sorted repr, keeping the order reproducible across
        hash seeds.
        """
        if k <= 0:
            return []
        lookup = make_lookup(weights, default)
        scopes: list[frozenset] = [frozenset()] * len(self.nodes)
        best: list[list] = [[] for _ in self.nodes]
        for i, node in enumerate(self.nodes):
            kind = node[0]
            if kind is ITE:
                var, hi, lo = node[1], node[2], node[3]
                p = Fraction(lookup(var))
                scopes[i] = scopes[hi] | scopes[lo] | {var}
                hi_side = _kbest_scale(best[hi], p, var, True)
                hi_side = _kbest_smooth(
                    hi_side, scopes[lo] - scopes[hi], lookup, k)
                lo_side = _kbest_scale(best[lo], ONE - p, var, False)
                lo_side = _kbest_smooth(
                    lo_side, scopes[hi] - scopes[lo], lookup, k)
                best[i] = _kbest_top(hi_side + lo_side, k)
            elif kind is AND:
                scope = frozenset()
                acc = [(ONE, ())]
                for child in node[1]:
                    scope |= scopes[child]
                    acc = _kbest_product(acc, best[child], k)
                    if not acc:
                        break
                scopes[i] = scope
                best[i] = acc
            elif kind is LEAF:
                scopes[i] = frozenset((node[1],))
                w = Fraction(lookup(node[1]))
                best[i] = [(w, ((node[1], True),))] if w else []
            elif kind is TRUE:
                best[i] = [(ONE, ())]
        worlds = _kbest_smooth(
            best[self.root],
            self.variables() - scopes[self.root], lookup, k)
        return [(prob, dict(assignment))
                for prob, assignment in _kbest_top(worlds, k)]

    # ------------------------------------------------------------------
    # Serialization (versioned, exact round trip)
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """A compact, versioned JSON-lines serialization.

        Line 1 is a header (format name, version, root, node count, and
        the interned variable table); each subsequent line is one node
        in topological order.  ``from_bytes`` reconstructs a circuit
        whose node table is *identical*, so every query — probability,
        model count, marginals — returns bit-identical ``Fraction``s.
        """
        var_ids: dict = {}
        var_table: list = []
        entries: list = []
        for node in self.nodes:
            kind = node[0]
            if kind is ITE or kind is LEAF:
                var = node[1]
                # Intern on the *encoded* token, not the token itself:
                # hash-equal tokens of different types (True vs 1, also
                # nested inside tuples) would collapse in a plain dict
                # and defeat the type-tagged codec's exact round trip.
                encoded = encode_token(var)
                key = json.dumps(encoded, separators=(",", ":"))
                vid = var_ids.get(key)
                if vid is None:
                    vid = var_ids[key] = len(var_table)
                    var_table.append(encoded)
                if kind is ITE:
                    entries.append(["ite", vid, node[2], node[3]])
                else:
                    entries.append(["leaf", vid])
            elif kind is AND:
                entries.append(["and", list(node[1])])
            elif kind is TRUE:
                entries.append(["true"])
            else:
                entries.append(["false"])
        header = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "root": self.root,
            "nodes": len(entries),
            "variables": var_table,
        }
        lines = [json.dumps(header, separators=(",", ":"),
                            sort_keys=True)]
        lines.extend(
            json.dumps(entry, separators=(",", ":")) for entry in entries)
        return ("\n".join(lines) + "\n").encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Circuit":
        """Reconstruct a circuit serialized by ``to_bytes``.

        Validates the header, the topological order (children strictly
        before parents), and the root index; raises ``ValueError`` on
        any malformed payload so callers (the disk store) can treat
        corruption as a cache miss — wrong-version payloads raise the
        ``UnsupportedVersionError`` subclass so they can be told apart
        from corruption.
        """
        try:
            lines = data.decode("utf-8").splitlines()
            header = json.loads(lines[0])
        except (UnicodeDecodeError, json.JSONDecodeError, IndexError) as e:
            raise ValueError(f"not a serialized circuit: {e}") from None
        if not isinstance(header, dict) or \
                header.get("format") != FORMAT_NAME:
            raise ValueError("not a serialized circuit: bad header")
        if header.get("version") != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"unsupported circuit format version "
                f"{header.get('version')!r} (this build reads "
                f"{FORMAT_VERSION})")
        count = header.get("nodes")
        body = lines[1:]
        if count != len(body):
            raise ValueError(
                f"truncated circuit: header says {count} nodes, "
                f"found {len(body)}")
        try:
            variables = [decode_token(obj)
                         for obj in header["variables"]]
        except (KeyError, IndexError, TypeError, ValueError) as e:
            raise ValueError(f"corrupt variable table: {e}") from None
        nodes: list[tuple] = []
        for i, line in enumerate(body):
            # Any malformed line — bad JSON, wrong arity, out-of-range
            # variable ids — must surface as ValueError, never leak a
            # KeyError/IndexError/TypeError past the store's
            # corruption-as-miss handling.
            try:
                entry = json.loads(line)
                kind = entry[0]
                if kind == ITE:
                    _, vid, hi, lo = entry
                    if not (isinstance(hi, int) and
                            isinstance(lo, int) and
                            0 <= hi < i and 0 <= lo < i):
                        raise ValueError("children out of "
                                         "topological order")
                    if not isinstance(vid, int) or \
                            not 0 <= vid < len(variables):
                        raise ValueError(f"variable id {vid!r} "
                                         f"out of range")
                    nodes.append((ITE, variables[vid], hi, lo))
                elif kind == AND:
                    children = entry[1]
                    if not all(isinstance(c, int) and 0 <= c < i
                               for c in children):
                        raise ValueError("children out of "
                                         "topological order")
                    nodes.append((AND, tuple(children)))
                elif kind == LEAF:
                    vid = entry[1]
                    if not isinstance(vid, int) or \
                            not 0 <= vid < len(variables):
                        raise ValueError(f"variable id {vid!r} "
                                         f"out of range")
                    nodes.append((LEAF, variables[vid]))
                elif kind == TRUE:
                    nodes.append((TRUE,))
                elif kind == FALSE:
                    nodes.append((FALSE,))
                else:
                    raise ValueError(f"unknown kind {kind!r}")
            except (json.JSONDecodeError, KeyError, IndexError,
                    TypeError, ValueError) as e:
                raise ValueError(f"corrupt node line {i}: {e}") \
                    from None
        root = header.get("root")
        if not isinstance(root, int) or not 0 <= root < len(nodes):
            raise ValueError(f"root index {root!r} out of range")
        return cls(tuple(nodes), root)


# ----------------------------------------------------------------------
# k-best candidate lists (Circuit.top_k_worlds)
# ----------------------------------------------------------------------
# A candidate is ``(probability, assignment)`` with the assignment a
# tuple of (var, bool) pairs; lists are kept sorted by descending
# probability with ties broken on the world's sorted repr.

def _world_key(assignment) -> tuple:
    return tuple(sorted((repr(var), val) for var, val in assignment))


def _kbest_top(candidates: list, k: int) -> list:
    return sorted(
        candidates, key=lambda c: (-c[0], _world_key(c[1])))[:k]


def _kbest_scale(candidates: list, factor: Fraction, var, val) -> list:
    """Multiply each candidate by ``factor`` and bind ``var`` to
    ``val`` (order-preserving: ``factor`` is a constant)."""
    if not factor:
        return []
    return [(prob * factor, assignment + ((var, val),))
            for prob, assignment in candidates]


def _kbest_product(a: list, b: list, k: int) -> list:
    """Top-k pairwise products of two descending candidate lists over
    disjoint variable sets — a lazy best-first frontier walk, so only
    O(k) of the |a| x |b| grid is materialized."""
    if not a or not b:
        return []
    heap = [(-(a[0][0] * b[0][0]), 0, 0)]
    seen = {(0, 0)}
    out = []
    while heap and len(out) < k:
        _, i, j = heapq.heappop(heap)
        out.append((a[i][0] * b[j][0], a[i][1] + b[j][1]))
        for i2, j2 in ((i + 1, j), (i, j + 1)):
            if i2 < len(a) and j2 < len(b) and (i2, j2) not in seen:
                seen.add((i2, j2))
                heapq.heappush(heap, (-(a[i2][0] * b[j2][0]), i2, j2))
    return out


def _kbest_smooth(candidates: list, free_vars, lookup, k: int) -> list:
    """Extend candidates over variables they do not mention (each free
    variable contributes its two independent outcomes); worlds with a
    0-probability outcome are dropped."""
    for var in sorted(free_vars, key=repr):
        p = Fraction(lookup(var))
        options = []
        if p:
            options.append((p, ((var, True),)))
        if p != ONE:
            options.append((ONE - p, ((var, False),)))
        options = _kbest_top(options, 2)
        candidates = _kbest_product(candidates, options, k)
    return candidates


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class _Compiler:
    """Hash-consing compiler from minimized monotone CNFs to circuits."""

    def __init__(self, budget_nodes: int | None = None):
        if budget_nodes is not None and budget_nodes < 2:
            # The two constant nodes below always exist; a budget that
            # cannot even hold them is a caller error, not a blow-up.
            raise ValueError("budget_nodes must be at least 2")
        self.budget_nodes = budget_nodes
        self.nodes: list[tuple] = []
        self._intern_table: dict[tuple, int] = {}
        self.true_id = self._intern((TRUE,))
        self.false_id = self._intern((FALSE,))
        self._memo: dict[CNF, int] = {}

    def _intern(self, node: tuple) -> int:
        nid = self._intern_table.get(node)
        if nid is None:
            if self.budget_nodes is not None and \
                    len(self.nodes) >= self.budget_nodes:
                raise CompilationBudgetExceeded(self.budget_nodes)
            nid = len(self.nodes)
            self.nodes.append(node)
            self._intern_table[node] = nid
        return nid

    def leaf(self, var) -> int:
        return self._intern((LEAF, var))

    def conjoin(self, children: Iterable[int]) -> int:
        flat: set[int] = set()
        for child in children:
            if child == self.false_id:
                return self.false_id
            if child == self.true_id:
                continue
            node = self.nodes[child]
            if node[0] is AND:
                flat.update(node[1])
            else:
                flat.add(child)
        if not flat:
            return self.true_id
        if len(flat) == 1:
            # repro: allow[determinism] singleton set: order-free by construction
            return next(iter(flat))
        return self._intern((AND, tuple(sorted(flat))))

    def decide(self, var, hi: int, lo: int) -> int:
        if hi == lo:
            return hi
        return self._intern((ITE, var, hi, lo))

    # ------------------------------------------------------------------
    def compile(self, formula: CNF) -> int:
        if formula.is_true():
            return self.true_id
        if formula.is_false():
            return self.false_id
        hit = self._memo.get(formula)
        if hit is not None:
            return hit
        nid = self._compile_uncached(formula)
        self._memo[formula] = nid
        return nid

    def _compile_uncached(self, formula: CNF) -> int:
        # Unit clauses force their variable true: {X} & F == X & F[X:=1],
        # a decomposable product because conditioning removes X.  The
        # min-by-repr choice keeps compilation order-independent.
        units = [clause for clause in formula.clauses if len(clause) == 1]
        if units:
            var = min((next(iter(c)) for c in units), key=repr)
            return self.conjoin([
                self.leaf(var),
                self.compile(formula.condition(var, True))])

        groups = clause_components(formula)
        if len(groups) > 1:
            # Component order follows frozenset iteration, which varies
            # with PYTHONHASHSEED; sorting by each component's minimal
            # variable repr (components are variable-disjoint, so keys
            # are distinct) pins the traversal — and with it the node
            # numbering, making ``Circuit.to_bytes`` byte-identical
            # across runs and hash seeds.
            groups.sort(key=lambda g: min(repr(v) for c in g for v in c))
            return self.conjoin(
                self.compile(CNF._from_minimized(group))
                for group in groups)

        var = branch_variable(formula)
        hi = self.compile(formula.condition(var, True))
        lo = self.compile(formula.condition(var, False))
        return self.decide(var, hi, lo)


def compile_cnf(formula: CNF,
                budget_nodes: int | None = None) -> Circuit:
    """Compile a monotone CNF into a d-DNNF circuit.

    Compilation costs about one run of the recursive WMC engine; every
    subsequent ``Circuit.probability`` / ``model_count`` / ``marginals``
    call is linear in the circuit size.  Callers that expect to reuse
    circuits should go through ``repro.tid.wmc.compiled``, the
    module-level compilation cache.

    ``budget_nodes`` caps the interned-node count: once the compiler
    would intern one node past the budget it raises
    ``CompilationBudgetExceeded`` (abandoning the partial circuit), the
    signal for budgeted callers to degrade to approximate counting
    (``repro.booleans.approximate``).
    """
    compiler = _Compiler(budget_nodes)
    root = compiler.compile(formula)
    return Circuit(tuple(compiler.nodes), root)
