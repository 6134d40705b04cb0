"""Protocol-drift rule: one op table, three projections, zero skew.

``protocol.OP_PARAMS`` is the service's one op table: each op and the
params it accepts (the front end refuses any other).  Three other
places restate part of it and only this rule keeps them aligned:
``server.py``'s op table and its ``_op_*`` handlers, ``client.py``'s
convenience methods (one ``self.call("<op>", ...)`` each), and the
README op table.  Adding an op to the table but not to a projection
is exactly the drift this rule exists to catch before a release does.
The op table of ``server.py`` is every ``"<op>": self._op_<name>``
entry of a dict display there, so the shared front end's read-only
table and the ops a subclass passes into it read alike.

Cross-checks (all repo-level, reported once per skew):

* ``OP_PARAMS`` is a dict literal whose rows are tuples of string
  constants (module-level tuple constants are resolved through ``+``
  concatenation);
* every op of the table has a dispatch entry, a client ``self.call``
  site, and a README table row — and vice versa;
* every dispatch entry names an ``_op_*`` handler ``server.py``
  defines, and every handler is reachable from the dispatch table;
* per op, the README's documented params equal the table's row;
* per op, every keyword the client method sends is in the row.

The README table is any markdown table whose header row contains
``op`` and ``params`` columns; params are the backticked names in the
cell (``—`` or empty means "none").
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import (
    Finding, Project, Rule, register,
)

_PARAM_RE = re.compile(r"`([A-Za-z_][A-Za-z0-9_]*)`")


def _tuple_value(node: ast.AST, consts: dict) -> tuple | None:
    """Evaluate a tuple expression made of string-constant tuples,
    module-level tuple names, and ``+`` concatenation."""
    if isinstance(node, ast.Tuple):
        out = []
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                return None
            out.append(elt.value)
        return tuple(out)
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = _tuple_value(node.left, consts)
        right = _tuple_value(node.right, consts)
        if left is not None and right is not None:
            return left + right
    return None


def _op_table(tree: ast.Module):
    """``(op -> params or None, line)`` from the module-level
    ``OP_PARAMS`` dict literal (``None`` for a row that is not a
    literal tuple), or ``None`` when there is no such literal."""
    consts: dict = {}
    for node in tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        if name != "OP_PARAMS":
            value = _tuple_value(node.value, consts)
            if value is not None:
                consts[name] = value
            continue
        if not isinstance(node.value, ast.Dict) or not all(
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                for key in node.value.keys):
            return None
        return ({key.value: _tuple_value(value, consts)
                 for key, value in zip(node.value.keys,
                                       node.value.values)},
                node.lineno)
    return None


def _parse_readme_table(text: str) -> dict[str, set] | None:
    """``op -> set(params)`` from the first markdown table whose
    header has ``op`` and ``params`` columns, else ``None``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if not line.lstrip().startswith("|"):
            continue
        cells = [c.strip().strip("`*").strip().lower()
                 for c in line.strip().strip("|").split("|")]
        if "op" not in cells or "params" not in cells:
            continue
        op_col = cells.index("op")
        params_col = cells.index("params")
        table: dict[str, set] = {}
        for row in lines[i + 2:]:
            if not row.lstrip().startswith("|"):
                break
            raw = [c.strip() for c in row.strip().strip("|").split("|")]
            if len(raw) <= max(op_col, params_col):
                continue
            op = raw[op_col].strip("`").strip()
            if not op or set(op) <= {"-", ":", " "}:
                continue
            table[op] = set(_PARAM_RE.findall(raw[params_col]))
        return table
    return None


class ProtocolDriftRule(Rule):
    id = "protocol-drift"
    summary = ("service op surface out of sync across protocol."
               "OP_PARAMS, server dispatch, client methods, and the "
               "README table")

    def check_repo(self, project: Project):
        proto = project.module("service/protocol.py")
        server = project.module("service/server.py")
        client = project.module("service/client.py")
        if proto is None or server is None or client is None:
            return  # subset run or unrelated tree: nothing to check

        def at(path, message, line=1, context="service"):
            return Finding(rule=self.id, path=path, line=line,
                           context=context, message=message)

        found = _op_table(proto.tree)
        if found is None:
            yield at(proto.rel, "no literal OP_PARAMS dict found in "
                                "protocol module", context="module")
            return
        params, table_line = found
        ops = tuple(params)
        dispatch, handlers = self._server_surface(server.tree)
        client_ops = self._client_surface(client.tree)

        for op in ops:
            if params[op] is None:
                yield at(proto.rel, f"op {op!r}: its OP_PARAMS row is "
                                    f"not a literal tuple of param names",
                         line=table_line, context="module")
            if op not in dispatch:
                yield at(server.rel, f"op {op!r} in protocol.OP_PARAMS "
                                     f"has no server dispatch entry")
            if op not in client_ops:
                yield at(client.rel, f"ServiceClient has no method "
                                     f"issuing op {op!r}")
        for op in sorted(set(dispatch) - set(ops)):
            yield at(server.rel, f"server dispatches op {op!r} missing "
                                 f"from protocol.OP_PARAMS",
                     line=dispatch[op][1])
        for op in sorted(set(client_ops) - set(ops)):
            yield at(client.rel, f"client issues op {op!r} missing from "
                                 f"protocol.OP_PARAMS",
                     line=client_ops[op][1])
        for name, line in sorted(handlers.items()):
            if name not in {m for m, _ in dispatch.values()}:
                yield at(server.rel, f"handler {name} is not reachable "
                                     f"from the dispatch table", line=line)
        for op, (method, line) in sorted(dispatch.items()):
            if method not in handlers:
                yield at(server.rel, f"op {op!r}: no {method} handler "
                                     f"in server.py", line=line)

        # Client keywords must be in the op's row.
        for op, (kwargs, line) in sorted(client_ops.items()):
            allowed = params.get(op)
            if allowed is None:
                continue
            for kw in sorted(set(kwargs) - set(allowed)):
                yield at(client.rel, f"op {op!r}: client sends param "
                                     f"{kw!r} the server rejects",
                         line=line)

        readme_text = project.text("README.md")
        if readme_text is None:
            yield at(server.rel, "README.md not found; the op table is "
                                 "part of the protocol surface")
            return
        table = _parse_readme_table(readme_text)
        if table is None:
            yield at("README.md", "README has no op/params markdown table")
            return
        for op in ops:
            if op not in table:
                yield at("README.md", f"op {op!r} undocumented in the "
                                      f"README op table")
        for op in sorted(set(table) - set(ops)):
            yield at("README.md", f"README documents unknown op {op!r}")
        for op in ops:
            documented = table.get(op)
            allowed = params[op]
            if documented is None or allowed is None:
                continue
            for p in sorted(set(allowed) - documented):
                yield at("README.md", f"op {op!r}: param {p!r} accepted "
                                      f"by the server but absent from "
                                      f"the README op table")
            for p in sorted(documented - set(allowed)):
                yield at("README.md", f"op {op!r}: README documents "
                                      f"param {p!r} the server rejects")

    # ------------------------------------------------------------------
    @staticmethod
    def _server_surface(tree: ast.Module):
        """``(dispatch op -> (method, line), _op_* handlers ->
        line)``."""
        dispatch: dict[str, tuple[str, int]] = {}
        handlers: dict[str, int] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                for key, value in zip(node.keys, node.values):
                    if isinstance(key, ast.Constant) \
                            and isinstance(key.value, str) \
                            and isinstance(value, ast.Attribute) \
                            and isinstance(value.value, ast.Name) \
                            and value.value.id == "self" \
                            and value.attr.startswith("_op_"):
                        dispatch[key.value] = (value.attr, key.lineno)
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)) \
                    and node.name.startswith("_op_"):
                handlers[node.name] = node.lineno
        return dispatch, handlers

    @staticmethod
    def _client_surface(tree: ast.Module) -> dict:
        """``op -> (sent keyword names, line)`` from every
        ``self.call("<op>", ...)`` site."""
        out: dict[str, tuple[list, int]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "call" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self" \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                kwargs = [kw.arg for kw in node.keywords
                          if kw.arg is not None]
                out[node.args[0].value] = (kwargs, node.lineno)
        return out


register(ProtocolDriftRule())
