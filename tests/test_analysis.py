"""The repo-invariant static analyzer (``repro ctl analyze``).

Contracts pinned here: each of the four rule packs catches a seeded
violation in a fixture tree and stays quiet on the corrected twin
(that pair is what makes the CI lint step a real gate — a newly
introduced unsorted-dict-iteration or unguarded-global access exits
1); suppression comments need a rule id *and* a reason; the baseline
round-trips through ``--baseline``; bad operands die with a one-line
``repro:`` message, not a traceback; and the live tree itself is
analyzer-clean modulo the committed baseline.
"""

import io
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import analyze, run
from repro.analysis.engine import BASELINE_NAME, collect_files

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_repo(tmp_path, files):
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return tmp_path


def findings_of(root, rule=None, paths=None):
    report = analyze(Path(root), paths)
    found = report.findings
    if rule is not None:
        found = [f for f in found if f.rule == rule]
    return found


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
UNSORTED_DICT_ITERATION = """
    def to_bytes(weights):
        out = []
        for key in weights.keys():
            out.append(key)
        return out
"""


class TestDeterminismRule:
    def test_flags_set_iteration_in_serializer(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def fingerprint(clauses):
                seen = set(clauses)
                return [c for c in seen]
        """})
        found = findings_of(tmp_path, "determinism")
        assert len(found) == 1
        assert "sorted" in found[0].message
        assert found[0].context == "fingerprint"

    def test_flags_unsorted_dict_view(self, tmp_path):
        # The exact violation shape the CI lint job must fail on.
        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        found = findings_of(tmp_path, "determinism")
        assert len(found) == 1
        assert ".keys() dict view" in found[0].message
        assert run(root=tmp_path, stream=io.StringIO()) == 1

    def test_sorted_wrapper_is_clean(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def to_bytes(weights):
                out = []
                for key in sorted(weights.keys(), key=repr):
                    out.append(key)
                return tuple(sorted(set(out)))
        """})
        assert findings_of(tmp_path, "determinism") == []

    def test_order_insensitive_scope_is_clean(self, tmp_path):
        # Same body, but the function name is not order-sensitive.
        make_repo(tmp_path, {"src/mod.py": """
            def collect(weights):
                out = []
                for key in weights.keys():
                    out.append(key)
                return out
        """})
        assert findings_of(tmp_path, "determinism") == []

    def test_class_name_scopes_methods(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            class Compiler:
                def order(self):
                    return list({1, 2, 3})
        """})
        found = findings_of(tmp_path, "determinism")
        assert [f.context for f in found] == ["Compiler.order"]


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------
UNGUARDED_GLOBAL = """
    import threading

    _LOCK = threading.Lock()
    _CACHE = {}

    def remember(key, value):
        _CACHE[key] = value
"""


LOCKED_BASE = """
    import threading

    class Base:
        def __init__(self):
            self._lock = threading.Lock()
            self._requests = 0

        def count(self):
            with self._lock:
                self._requests += 1
"""


class TestLockDisciplineRule:
    def test_flags_unguarded_module_global(self, tmp_path):
        # The second violation shape the CI lint job must fail on.
        make_repo(tmp_path, {"src/mod.py": UNGUARDED_GLOBAL})
        found = findings_of(tmp_path, "lock-discipline")
        assert len(found) == 1
        assert "_CACHE" in found[0].message
        assert found[0].context == "remember"
        assert run(root=tmp_path, stream=io.StringIO()) == 1

    def test_locked_access_is_clean(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def remember(key, value):
                with _LOCK:
                    _CACHE[key] = value
        """})
        assert findings_of(tmp_path, "lock-discipline") == []

    def test_caller_holds_lock_docstring_exempts(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def _evict():
                \"\"\"Caller holds ``_LOCK``.\"\"\"
                _CACHE.clear()
        """})
        assert findings_of(tmp_path, "lock-discipline") == []

    def test_global_rebinding_is_guarded_state(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import threading

            _LOCK = threading.Lock()
            _limit = 100

            def set_limit(value):
                global _limit
                _limit = value
        """})
        found = findings_of(tmp_path, "lock-discipline")
        assert len(found) == 1
        assert "write of module global '_limit'" in found[0].message

    def test_flags_unguarded_instance_counter(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._jobs = {}
                    self.launched = 0

                def submit(self, key):
                    self.launched += 1
                    with self._lock:
                        self._jobs[key] = True
        """})
        found = findings_of(tmp_path, "lock-discipline")
        assert len(found) == 1
        assert "self.launched" in found[0].message
        assert found[0].context == "Pool.submit"

    def test_base_class_lock_covers_subclass_state(self, tmp_path):
        # The lock lives in a base class of another module: the
        # subclass's own counter and the inherited one stay checked.
        make_repo(tmp_path, {
            "src/pkg/base.py": LOCKED_BASE,
            "src/pkg/sub.py": """
                from pkg.base import Base

                class Sub(Base):
                    def __init__(self):
                        super().__init__()
                        self._hits = 0

                    def hit(self):
                        self._hits += 1

                    def peek(self):
                        return self._requests
            """})
        found = findings_of(tmp_path, "lock-discipline")
        assert [(f.context, f.message) for f in found] == [
            ("Sub.hit", "write of self._hits outside "
                        "`with self._lock:`"),
            ("Sub.peek", "read of self._requests outside "
                         "`with self._lock:`")]
        assert run(root=tmp_path, stream=io.StringIO()) == 1

    def test_subclass_under_the_base_class_lock_is_clean(self, tmp_path):
        make_repo(tmp_path, {
            "src/pkg/base.py": LOCKED_BASE,
            "src/pkg/sub.py": """
                from pkg.base import Base as FrontEnd

                class Sub(FrontEnd):
                    def hit(self):
                        with self._lock:
                            self._hits += 1
                            return self._requests
            """})
        assert findings_of(tmp_path, "lock-discipline") == []

    def test_same_module_base_class_lock_is_inherited(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": textwrap.dedent(LOCKED_BASE)
                             + textwrap.dedent("""
            class Sub(Base):
                def hit(self):
                    self._hits += 1
        """)})
        found = findings_of(tmp_path, "lock-discipline")
        assert [f.context for f in found] == ["Sub.hit"]

    def test_nested_def_does_not_inherit_lock(self, tmp_path):
        # A closure defined under the lock runs later, unlocked.
        make_repo(tmp_path, {"src/mod.py": """
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def schedule():
                with _LOCK:
                    def later():
                        _CACHE.clear()
                    return later
        """})
        found = findings_of(tmp_path, "lock-discipline")
        assert len(found) == 1


# ----------------------------------------------------------------------
# numeric-boundary
# ----------------------------------------------------------------------
class TestNumericBoundaryRule:
    def test_flags_float_contamination_in_exact_kernel(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import math

            def eval_exact(values):
                total = 0.5
                for v in values:
                    total += float(v) + math.log(v)
                return total
        """})
        messages = sorted(
            f.message for f in findings_of(tmp_path, "numeric-boundary"))
        assert len(messages) == 3
        assert "float literal 0.5" in messages[0]
        assert "float(...) cast" in messages[1]
        assert "math.log" in messages[2]

    def test_exact_integer_math_is_clean(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            import math
            from fractions import Fraction

            def eval_exact(values):
                total = Fraction(0)
                for v in values:
                    total += Fraction(math.isqrt(v), 2)
                return total
        """})
        assert findings_of(tmp_path, "numeric-boundary") == []

    def test_integer_algebra_is_an_exact_zone(self, tmp_path):
        make_repo(tmp_path, {"src/repro/algebra/matrices.py": """
            class IncrementalBasis:
                def add(self, row):
                    return [entry * 0.5 for entry in row]
        """})
        found = findings_of(tmp_path, "numeric-boundary")
        assert [(f.context, f.line) for f in found] == \
            [("IncrementalBasis.add", 4)]
        assert "float literal 0.5" in found[0].message

    def test_every_exact_zone_names_live_code(self):
        """An entry that matches no scope checks nothing, silently: each
        one must name a function or class of the module it is keyed
        by."""
        import ast

        from repro.analysis.engine import iter_scopes
        from repro.analysis.numeric import _EXACT_ZONES

        for suffix, entries in _EXACT_ZONES.items():
            path = REPO_ROOT / "src" / "repro" / suffix
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {qualname for qualname, _ in iter_scopes(tree)}
            missing = [entry for entry in entries if entry not in names]
            assert missing == [], f"{suffix}: {missing}"

    def test_flags_fraction_in_float_lane_loop(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            from fractions import Fraction

            def fill_float_lanes(rows):
                out = []
                for row in rows:
                    out.append(float(Fraction(row)))
                return out
        """})
        found = findings_of(tmp_path, "numeric-boundary")
        assert len(found) == 1
        assert "hoist" in found[0].message

    def test_hoisted_fraction_is_clean(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            from fractions import Fraction

            def fill_float_lanes(rows, default):
                fallback = float(Fraction(default))
                return [fallback for _ in rows]
        """})
        assert findings_of(tmp_path, "numeric-boundary") == []


# ----------------------------------------------------------------------
# protocol-drift
# ----------------------------------------------------------------------
#: The server's op table in its read-only form, split between a front
#: end that owns ``ping`` and a subclass that passes in ``{ops}``.
READ_ONLY_SERVER = """
    from types import MappingProxyType as _freeze

    class FrontEnd:
        def __init__(self, ops):
            self._ops = _freeze({{"ping": self._op_ping, **ops}})

        def _op_ping(self, params):
            return {{}}

    class Server(FrontEnd):
        def __init__(self):
            super().__init__({{{ops}}})

        def _op_eval(self, params):
            return {{}}
"""


def service_repo(tmp_path, *, dispatch_ops=("ping", "eval"),
                 client_ops=("ping", "eval"),
                 readme_eval_params="`x`, `y`",
                 client_eval_kwargs="x=x, y=y",
                 eval_row='("x",) + _EXTRA',
                 server_src=None):
    dispatch = ", ".join(
        f'"{op}": self._op_{op}' for op in dispatch_ops)
    calls = "\n".join(
        f'    def {op}(self, x=None, y=None):\n'
        f'        return self.call("{op}"'
        + (f', {client_eval_kwargs})' if op == "eval" else ')')
        for op in client_ops)
    client_src = ("class Client:\n"
                  "    def call(self, op, **params):\n"
                  "        return (op, params)\n\n"
                  + calls + "\n")
    return make_repo(tmp_path, {
        "src/service/protocol.py": f"""
            _EXTRA = ("y",)

            OP_PARAMS = {{"ping": (), "eval": {eval_row}}}

            OPS = tuple(OP_PARAMS)
        """,
        "src/service/server.py": server_src or f"""
            class Server:
                def __init__(self):
                    self._dispatch = {{{dispatch}}}

                def _op_ping(self, params):
                    return {{}}

                def _op_eval(self, params):
                    return {{}}
        """,
        "src/service/client.py": client_src,
        "README.md": f"""
            # fixture service

            | op | params | notes |
            |---|---|---|
            | `ping` | — | liveness |
            | `eval` | {readme_eval_params} | evaluate |
        """,
    })


class TestProtocolDriftRule:
    def test_synchronized_surface_is_clean(self, tmp_path):
        service_repo(tmp_path)
        report = analyze(tmp_path)
        assert [f for f in report.findings
                if f.rule == "parse-error"] == []
        assert [f for f in report.findings
                if f.rule == "protocol-drift"] == []

    def test_missing_dispatch_entry(self, tmp_path):
        service_repo(tmp_path, dispatch_ops=("ping",))
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert any("'eval' in protocol.OP_PARAMS has no server "
                   "dispatch" in m for m in messages)
        assert any("_op_eval is not reachable" in m for m in messages)

    def test_missing_client_method(self, tmp_path):
        service_repo(tmp_path, client_ops=("ping",))
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert any("no method issuing op 'eval'" in m
                   for m in messages)

    def test_undocumented_param(self, tmp_path):
        service_repo(tmp_path, readme_eval_params="`x`")
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert messages == ["op 'eval': param 'y' accepted by the "
                            "server but absent from the README op "
                            "table"]

    def test_documented_param_the_server_rejects(self, tmp_path):
        service_repo(tmp_path,
                     readme_eval_params="`x`, `y`, `ghost`")
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert messages == ["op 'eval': README documents param "
                            "'ghost' the server rejects"]

    def test_client_param_the_server_rejects(self, tmp_path):
        service_repo(tmp_path, client_eval_kwargs="x=x, zz=y")
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert any("client sends param 'zz'" in m for m in messages)

    def test_read_only_op_table_is_read(self, tmp_path):
        service_repo(tmp_path, server_src=READ_ONLY_SERVER.format(
            ops='"eval": self._op_eval'))
        assert findings_of(tmp_path, "protocol-drift") == []

    def test_read_only_op_table_missing_an_op(self, tmp_path):
        service_repo(tmp_path, server_src=READ_ONLY_SERVER.format(
            ops=""))
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert "op 'eval' in protocol.OP_PARAMS has no server " \
            "dispatch entry" in messages

    def test_dispatched_op_without_a_handler(self, tmp_path):
        service_repo(tmp_path, server_src=READ_ONLY_SERVER.format(
            ops='"eval": self._op_evaluate'))
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert sorted(messages) == [
            "handler _op_eval is not reachable from the dispatch table",
            "op 'eval': no _op_evaluate handler in server.py"]

    def test_op_table_row_that_is_not_a_literal_tuple(self, tmp_path):
        # The rule cannot read the row, so it says so instead of
        # skipping the README and client param checks in silence.
        service_repo(tmp_path, eval_row='tuple(["x", "y"])')
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert messages == ["op 'eval': its OP_PARAMS row is not a "
                            "literal tuple of param names"]

    def test_missing_op_table(self, tmp_path):
        service_repo(tmp_path)
        (tmp_path / "README.md").write_text("# no table here\n")
        messages = [f.message
                    for f in findings_of(tmp_path, "protocol-drift")]
        assert messages == ["README has no op/params markdown table"]

    def test_non_service_tree_is_skipped(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": "X = 1\n"})
        assert findings_of(tmp_path, "protocol-drift") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_allow_comment_with_reason_suppresses(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def to_bytes(weights):
                # repro: allow[determinism] proven singleton upstream
                return list(set(weights))
        """})
        report = analyze(tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0][1] == "proven singleton upstream"

    def test_same_line_comment_suppresses(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": (
            "def to_bytes(w):\n"
            "    return list(set(w))"
            "  # repro: allow[determinism] fixture\n")})
        report = analyze(tmp_path)
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_reasonless_allow_is_itself_a_finding(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def to_bytes(weights):
                # repro: allow[determinism]
                return list(set(weights))
        """})
        rules = {f.rule for f in analyze(tmp_path).findings}
        # the original finding survives AND the bare allow is reported
        assert rules == {"determinism", "suppression"}

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def to_bytes(weights):
                # repro: allow[numeric-boundary] not the right rule
                return list(set(weights))
        """})
        assert len(findings_of(tmp_path, "determinism")) == 1

    def test_star_suppresses_any_rule(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": """
            def to_bytes(weights):
                # repro: allow[*] fixture blanket
                return list(set(weights))
        """})
        assert analyze(tmp_path).findings == []


# ----------------------------------------------------------------------
# baseline round-trip + reporters
# ----------------------------------------------------------------------
class TestBaseline:
    def test_add_then_remove_round_trip(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        out = io.StringIO()
        assert run(root=tmp_path, stream=out) == 1

        # Accept the finding into the baseline: now clean.
        assert run(root=tmp_path, update_baseline=True,
                   stream=io.StringIO()) == 0
        baseline = json.loads(
            (tmp_path / BASELINE_NAME).read_text())
        assert len(baseline["findings"]) == 1
        assert "TODO" in baseline["findings"][0]["reason"]
        assert run(root=tmp_path, stream=io.StringIO()) == 0

        # Fix the violation: stale entry is reported, run stays green,
        # and a rewrite empties the baseline.
        (tmp_path / "src/mod.py").write_text(
            "def to_bytes(weights):\n"
            "    return sorted(weights.keys(), key=repr)\n")
        out = io.StringIO()
        assert run(root=tmp_path, stream=out) == 0
        assert "stale baseline entry" in out.getvalue()
        assert run(root=tmp_path, update_baseline=True,
                   stream=io.StringIO()) == 0
        baseline = json.loads(
            (tmp_path / BASELINE_NAME).read_text())
        assert baseline["findings"] == []

    def test_baseline_keys_survive_line_shifts(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        assert run(root=tmp_path, update_baseline=True,
                   stream=io.StringIO()) == 0
        # Prepend code: every line number changes, the key must not.
        mod = tmp_path / "src/mod.py"
        mod.write_text("import os\n\n\n" + mod.read_text())
        assert run(root=tmp_path, stream=io.StringIO()) == 0

    def test_baseline_rewrite_keeps_existing_reasons(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        assert run(root=tmp_path, update_baseline=True,
                   stream=io.StringIO()) == 0
        path = tmp_path / BASELINE_NAME
        baseline = json.loads(path.read_text())
        baseline["findings"][0]["reason"] = "handwritten justification"
        path.write_text(json.dumps(baseline))
        assert run(root=tmp_path, update_baseline=True,
                   stream=io.StringIO()) == 0
        rewritten = json.loads(path.read_text())
        assert rewritten["findings"][0]["reason"] == \
            "handwritten justification"

    def test_json_report_shape(self, tmp_path):
        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        out = io.StringIO()
        assert run(root=tmp_path, json_output=True, stream=out) == 1
        payload = json.loads(out.getvalue())
        assert payload["files"] == 1
        [finding] = payload["findings"]
        assert finding["rule"] == "determinism"
        assert finding["path"] == "src/mod.py"
        assert "::determinism::" in finding["key"]


# ----------------------------------------------------------------------
# operand validation (friendly SystemExit, no tracebacks)
# ----------------------------------------------------------------------
class TestOperandErrors:
    def test_path_outside_root(self, tmp_path):
        with pytest.raises(SystemExit, match="outside the analyzed"):
            collect_files(tmp_path, ["/etc/hosts"])

    def test_non_python_file(self, tmp_path):
        target = tmp_path / "notes.txt"
        target.write_text("hello")
        with pytest.raises(SystemExit,
                           match="not a Python source file"):
            collect_files(tmp_path, [str(target)])

    def test_missing_path(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            collect_files(tmp_path, [str(tmp_path / "nope.py")])

    def test_module_main_entry(self, tmp_path, capsys):
        from repro.analysis import main

        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        assert main(["--root", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["rule"] == "determinism"

    def test_discover_root_finds_baseline(self, tmp_path):
        from repro.analysis.engine import discover_root

        make_repo(tmp_path, {"src/mod.py": "X = 1\n"})
        (tmp_path / BASELINE_NAME).write_text(
            '{"version": 1, "findings": []}')
        nested = tmp_path / "src"
        assert discover_root(nested) == tmp_path

    def test_ctl_analyze_wires_through_cli(self, tmp_path, capsys):
        from repro.cli import main

        make_repo(tmp_path, {"src/mod.py": UNSORTED_DICT_ITERATION})
        assert main(["ctl", "analyze", "--root", str(tmp_path)]) == 1
        assert "[determinism]" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="repro: ctl analyze"):
            main(["ctl", "analyze", "--root", str(tmp_path),
                  "/etc/hosts"])


# ----------------------------------------------------------------------
# the live tree
# ----------------------------------------------------------------------
class TestLiveTree:
    def test_repository_is_clean_modulo_baseline(self):
        """The acceptance gate CI runs: zero non-baselined findings
        on the real source tree."""
        out = io.StringIO()
        assert run(root=REPO_ROOT, stream=out) == 0, out.getvalue()

    def test_committed_baseline_reasons_are_written(self):
        baseline = json.loads(
            (REPO_ROOT / BASELINE_NAME).read_text())
        assert baseline["version"] == 1
        for entry in baseline["findings"]:
            assert entry["reason"].strip()
            assert "TODO" not in entry["reason"]

    def test_all_four_rule_packs_are_registered(self):
        from repro.analysis import all_rules

        assert {r.id for r in all_rules()} >= {
            "determinism", "lock-discipline", "numeric-boundary",
            "protocol-drift"}
