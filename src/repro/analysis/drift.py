"""Protocol-drift rule: one op surface, four projections, zero skew.

The service protocol lives in four places that only convention keeps
aligned: ``protocol.OPS`` (the wire-validated op vocabulary),
``server.py``'s op table and ``_op_*`` handlers (with their
``check_fields`` allow-lists), ``client.py``'s convenience methods
(one ``self.call("<op>", ...)`` each), and the README op table.
Adding an op to three of the four is exactly the drift this rule
exists to catch before a release does.  The op table is every
``"<op>": self._op_<name>`` entry of a dict display in ``server.py``,
so the shared front end's read-only table and the ops a subclass
passes into it read alike.

Cross-checks (all repo-level, reported once per skew):

* every op in ``OPS`` has a dispatch entry, a client ``self.call``
  site, and a README table row — and vice versa;
* every ``_op_*`` handler is reachable from the dispatch table, and
  every dispatched op has a handler in ``server.py`` with a literal
  ``check_fields`` allow-list (otherwise its params go unchecked);
* per op, the README's documented params equal the server's
  ``check_fields`` allow-list (module-level tuple constants such as
  ``_ESTIMATOR_FIELDS`` are resolved through ``+`` concatenation);
* per op, every keyword the client method sends is accepted by the
  server's allow-list.

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


def _module_tuple_consts(tree: ast.Module) -> dict:
    consts: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            value = _tuple_value(node.value, consts)
            if value is not None:
                consts[node.targets[0].id] = value
    return consts


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
    summary = ("service op surface out of sync across protocol.OPS, "
               "server dispatch, client methods, and the README table")

    def check_repo(self, project: Project):
        proto = project.module("service/protocol.py")
        server = project.module("service/server.py")
        client = project.module("service/client.py")
        if proto is None or server is None or client is None:
            return  # subset run or unrelated tree: nothing to check

        ops = self._protocol_ops(proto.tree)
        if ops is None:
            yield Finding(
                rule=self.id, path=proto.rel, line=1, context="module",
                message="no literal OPS tuple found in protocol module")
            return
        dispatch, handlers, params = self._server_surface(server.tree)
        client_ops = self._client_surface(client.tree)

        def at(module, message, line=1, context="service"):
            return Finding(rule=self.id, path=module.rel, line=line,
                           context=context, message=message)

        for op in ops:
            if op not in dispatch:
                yield at(server, f"op {op!r} in protocol.OPS has no "
                                 f"server dispatch entry")
            if op not in client_ops:
                yield at(client, f"ServiceClient has no method issuing "
                                 f"op {op!r}")
        for op in sorted(set(dispatch) - set(ops)):
            yield at(server, f"server dispatches op {op!r} missing "
                             f"from protocol.OPS",
                     line=dispatch[op][1])
        for op in sorted(set(client_ops) - set(ops)):
            yield at(client, f"client issues op {op!r} missing from "
                             f"protocol.OPS", line=client_ops[op][1])
        for name, line in sorted(handlers.items()):
            if name not in {m for m, _ in dispatch.values()}:
                yield at(server, f"handler {name} is not reachable "
                                 f"from the dispatch table", line=line)
        for op, (method, line) in sorted(dispatch.items()):
            if op not in params:
                yield at(server, f"op {op!r}: no {method} handler with "
                                 f"a literal check_fields allow-list "
                                 f"in server.py, so its params go "
                                 f"unchecked", line=line)

        # Client keywords must be accepted by the server allow-list.
        for op, (kwargs, line) in sorted(client_ops.items()):
            allowed = params.get(op)
            if allowed is None:
                continue
            for kw in sorted(set(kwargs) - set(allowed)):
                yield at(client, f"op {op!r}: client sends param "
                                 f"{kw!r} the server rejects",
                         line=line)

        readme_text = project.text("README.md")
        if readme_text is None:
            yield at(server, "README.md not found; the op table is "
                             "part of the protocol surface")
            return
        table = _parse_readme_table(readme_text)
        if table is None:
            yield Finding(
                rule=self.id, path="README.md", line=1,
                context="service",
                message="README has no op/params markdown table")
            return
        for op in ops:
            if op not in table:
                yield Finding(
                    rule=self.id, path="README.md", line=1,
                    context="service",
                    message=f"op {op!r} undocumented in the README "
                            f"op table")
        for op in sorted(set(table) - set(ops)):
            yield Finding(
                rule=self.id, path="README.md", line=1,
                context="service",
                message=f"README documents unknown op {op!r}")
        for op in ops:
            documented = table.get(op)
            allowed = params.get(op)
            if documented is None or allowed is None:
                continue
            for p in sorted(set(allowed) - documented):
                yield Finding(
                    rule=self.id, path="README.md", line=1,
                    context="service",
                    message=(f"op {op!r}: param {p!r} accepted by the "
                             f"server but absent from the README op "
                             f"table"))
            for p in sorted(documented - set(allowed)):
                yield Finding(
                    rule=self.id, path="README.md", line=1,
                    context="service",
                    message=(f"op {op!r}: README documents param "
                             f"{p!r} the server rejects"))

    # ------------------------------------------------------------------
    @staticmethod
    def _protocol_ops(tree: ast.Module) -> tuple | None:
        for node in tree.body:
            if isinstance(node, ast.Assign) \
                    and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and node.targets[0].id == "OPS":
                return _tuple_value(node.value, {})
        return None

    @staticmethod
    def _server_surface(tree: ast.Module):
        """``(dispatch op -> (method, line), _op_* handlers ->
        line, op -> allowed params)``."""
        consts = _module_tuple_consts(tree)
        dispatch: dict[str, tuple[str, int]] = {}
        handlers: dict[str, int] = {}
        handler_params: dict[str, tuple] = {}
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
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) \
                            and isinstance(sub.func, ast.Name) \
                            and sub.func.id == "check_fields" \
                            and len(sub.args) >= 2:
                        allowed = _tuple_value(sub.args[1], consts)
                        if allowed is not None:
                            handler_params[node.name] = allowed
                        break
        params = {op: handler_params[m]
                  for op, (m, _) in dispatch.items()
                  if m in handler_params}
        return dispatch, handlers, params

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
