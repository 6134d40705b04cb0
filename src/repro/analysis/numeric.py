"""Numeric-boundary rule: exact kernels stay rational, float lanes
stay cheap.

The repo's exactness contract is that exact kernels never touch binary
floating point: a single ``0.5`` literal or ``math.log`` call inside
the tape's integer lanes (``Tape._exact_lanes``) would silently turn
"exact WMC" into "approximately exact WMC" with no test catching small
inputs.  The mirror-image bug is building ``Fraction`` objects inside
the per-lane loops of the float kernels, which erases the 10x+ speedup
the tape exists for.

One lane loop, ``Tape._lanes``, runs the integer, ``Fraction`` and
float lanes alike (``Tape.sample``/``marginals`` walk its registers).
It stays in the exact zone: it holds no float literal, and whatever
the float lanes need (their weights, the NEG constant 1, numpy's row
type) reaches it as arguments from ``Tape.evaluate``, not a zone.

Zones:

* **exact** — functions whose qualname contains ``exact``, plus the
  explicitly listed exact surfaces of ``booleans/circuit.py`` and
  ``booleans/tape.py`` (``Circuit.probability``/``model_count``/
  ``marginals``/``sample``/``top_k_worlds``, the ``_kbest_*`` helpers,
  ``_Compiler``, ``compile_cnf``, ``Tape.probability``/``sample``/
  ``marginals``, ``Tape.run_products`` (the safe plan's batches: one
  product per run of lanes), the lane loop ``Tape._lanes`` (shared
  with the float lanes), its decoded program and list-row helpers,
  ``_Flattener``/``flatten_circuit``), of the integer algebra in
  ``algebra/matrices.py`` (``IncrementalBasis``, ``Matrix.determinant``/
  ``rank``/``solve``/``inverse``, ``select_rows``, ``monomial_row``
  and their helpers), and of ``Type1Reduction``/``Type2Reduction``; a
  test checks that every entry names live code.  Flags float
  literals, ``float(...)``/``complex(...)`` casts, and any ``math.*``
  use other than the exact-integer helpers (``isqrt``/``gcd``/``lcm``/
  ``comb``/``perm``/``factorial``).
* **float** — functions whose qualname contains ``float``, ``numpy``,
  or ``lanes``.  Flags ``Fraction(...)`` constructed inside a loop or
  comprehension (hoisting to before the loop is always possible and is
  the idiom ``Tape._lane_rows`` uses).

``Circuit.probability_batch`` and ``Tape.evaluate`` are deliberately
*not* zones: they dispatch between the exact and float lanes.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import (
    Finding, Rule, SourceModule, iter_function_scopes, last_name,
    own_nodes, register,
)

_EXACT_NAME = re.compile(r"exact", re.IGNORECASE)
_FLOAT_NAME = re.compile(r"float|numpy|lanes", re.IGNORECASE)

#: Explicit exact surfaces, keyed by module rel-path suffix.  An entry
#: covers the scope itself and everything nested inside it.
_EXACT_ZONES = {
    "booleans/circuit.py": (
        "Circuit.probability", "Circuit.model_count",
        "Circuit.marginals", "Circuit.sample", "Circuit.top_k_worlds",
        "_kbest_top", "_kbest_scale", "_kbest_product", "_kbest_smooth",
        "_Compiler", "compile_cnf",
    ),
    "booleans/tape.py": ("Tape.probability", "Tape.sample",
                         "Tape.marginals", "Tape.run_products",
                         "Tape._lanes", "Tape._program",
                         "Tape._exponent_table", "Tape._lane_denominator",
                         "_row_mul", "_row_add", "_row_sub", "_Flattener",
                         "flatten_circuit"),
    "algebra/matrices.py": (
        "IncrementalBasis", "Matrix.determinant", "Matrix.rank",
        "Matrix.solve", "Matrix.inverse", "common_denominator",
        "_eliminate", "_permutation_sign", "select_rows", "monomial_row",
    ),
    "reduction/type1.py": ("Type1Reduction",),
    "reduction/type2.py": ("Type2Reduction",),
}

#: ``math.*`` members that stay in exact integer arithmetic.
_EXACT_MATH = {"isqrt", "gcd", "lcm", "comb", "perm", "factorial"}

_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _explicit_exact(rel: str, qualname: str) -> bool:
    for suffix, entries in _EXACT_ZONES.items():
        if rel.endswith(suffix):
            return any(qualname == e or qualname.startswith(e + ".")
                       for e in entries)
    return False


class NumericBoundaryRule(Rule):
    id = "numeric-boundary"
    summary = ("float contamination in exact kernels / Fraction "
               "construction in per-lane float loops")

    def check_module(self, module: SourceModule):
        for qualname, func in iter_function_scopes(module.tree):
            exact = (_explicit_exact(module.rel, qualname)
                     or bool(_EXACT_NAME.search(qualname)))
            if exact:
                yield from self._check_exact(module, qualname, func)
            elif _FLOAT_NAME.search(qualname):
                yield from self._check_float(module, qualname, func)

    # ------------------------------------------------------------------
    def _check_exact(self, module: SourceModule, qualname: str,
                     func: ast.AST):
        for node in own_nodes(func):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, float):
                yield Finding(
                    rule=self.id, path=module.rel, line=node.lineno,
                    context=qualname,
                    message=(f"float literal {node.value!r} in exact "
                             f"kernel; use Fraction"))
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("float", "complex"):
                yield Finding(
                    rule=self.id, path=module.rel, line=node.lineno,
                    context=qualname,
                    message=(f"{node.func.id}(...) cast in exact "
                             f"kernel; stay in Fraction"))
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id == "math" and \
                    node.attr not in _EXACT_MATH:
                yield Finding(
                    rule=self.id, path=module.rel, line=node.lineno,
                    context=qualname,
                    message=(f"math.{node.attr} in exact kernel "
                             f"returns binary floats"))

    # ------------------------------------------------------------------
    def _check_float(self, module: SourceModule, qualname: str,
                     func: ast.AST):
        def visit(node: ast.AST, in_loop: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, _SCOPES):
                    continue  # nested scopes are their own zones
                if (in_loop and isinstance(child, ast.Call)
                        and last_name(child.func) == "Fraction"):
                    yield Finding(
                        rule=self.id, path=module.rel,
                        line=child.lineno, context=qualname,
                        message=("Fraction(...) constructed inside a "
                                 "per-lane loop of a float kernel; "
                                 "hoist it out of the loop"))
                yield from visit(child,
                                 in_loop or isinstance(child, _LOOPS))
        yield from visit(func, False)


register(NumericBoundaryRule())
