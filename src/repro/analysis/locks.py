"""Lock-discipline rule: shared mutable state only under its lock.

The GIL does not make read-modify-write sequences atomic, and ROADMAP
item 1 (multi-process workers) will widen every window.  This rule is a
static race detector for the two locking idioms the repo actually uses:

**Module level** (``tid/wmc.py``, ``booleans/tape.py``): a module that
binds ``threading.Lock()``/``RLock()`` to a top-level name declares a
lock.  Guarded state is every top-level name bound to a mutable
container (dict/list/set display or ``dict``/``OrderedDict``/... call)
plus every name a function rebinds via ``global``.  Any read or write
of a guarded name inside a function body must sit inside ``with
<lock>:``.  Functions whose docstring says the caller holds the lock
(the existing ``"Caller holds ``_LOCK``."`` idiom) are exempt.

**Instance level** (``service/server.py``, ``service/scheduler.py``,
``service/client.py``): a class whose ``__init__`` binds
``threading.Lock()``/``RLock()`` to ``self.<name>`` declares instance
locks.  Guarded attributes are those ``__init__`` binds to mutable
containers plus any ``self.<attr>`` that is ever the target of an
augmented assignment (counters); a class inherits both from its base
classes (same module, or ``from <module> import <name>`` of a module
under analysis).  Methods other than ``__init__`` must touch guarded
attributes inside ``with self.<lock>:`` for *some* declared lock —
mapping attributes to a specific lock is left to code review; the
checker enforces "never bare".

Module top-level statements (import-time init) are exempt: nothing
else runs concurrently during first import of a module.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import (
    Finding, Project, Rule, SourceModule, last_name, register,
)

_LOCK_CTORS = {"Lock", "RLock"}
_MUTABLE_CTORS = {"dict", "list", "set", "OrderedDict", "defaultdict",
                  "deque", "Counter"}
_MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp,
                     ast.ListComp, ast.SetComp)
_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_lock_ctor(value: ast.AST) -> bool:
    return (isinstance(value, ast.Call)
            and last_name(value.func) in _LOCK_CTORS)


def _is_mutable_container(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_DISPLAYS):
        return True
    return (isinstance(value, ast.Call)
            and last_name(value.func) in _MUTABLE_CTORS)


def _holds_lock_docstring(func: ast.AST, lock_names) -> bool:
    doc = ast.get_docstring(func) or ""
    return "holds" in doc and any(name in doc for name in lock_names)


def _with_lock_names(node: ast.With | ast.AsyncWith,
                     module_locks, self_locks) -> bool:
    """Whether any with-item acquires a recognized lock (``with _LOCK:``
    or ``with self._lock:``)."""
    for item in node.items:
        ctx = item.context_expr
        if isinstance(ctx, ast.Name) and ctx.id in module_locks:
            return True
        if (isinstance(ctx, ast.Attribute)
                and isinstance(ctx.value, ast.Name)
                and ctx.value.id == "self"
                and ctx.attr in self_locks):
            return True
    return False


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    summary = ("module/instance mutable state accessed outside its "
               "`with <lock>:` region")

    def check_module(self, module: SourceModule):
        yield from self._check_module_level(module)

    def check_repo(self, project: Project):
        # Instance state is checked repo-wide: a class's locks may be
        # declared by a base class in another module.
        for module in project.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    yield from self._check_class(project, module, node)

    # ------------------------------------------------------------------
    # Module-level lock + globals
    # ------------------------------------------------------------------
    def _check_module_level(self, module: SourceModule):
        locks: set[str] = set()
        guarded: set[str] = set()
        for node in module.tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if not isinstance(target, ast.Name) or \
                    getattr(node, "value", None) is None:
                continue
            if _is_lock_ctor(node.value):
                locks.add(target.id)
            elif _is_mutable_container(node.value):
                guarded.add(target.id)
        for sub in ast.walk(module.tree):
            if isinstance(sub, ast.Global):
                guarded.update(sub.names)
        guarded -= locks
        if not locks or not guarded:
            return

        for qualname, func in _named_functions(module.tree):
            if _holds_lock_docstring(func, locks):
                continue
            yield from self._scan_body(
                module, qualname, func, locks, set(),
                is_guarded=lambda n: (isinstance(n, ast.Name)
                                      and n.id in guarded),
                describe=lambda n: f"module global {n.id!r}",
                lock_hint="/".join(sorted(locks)))

    # ------------------------------------------------------------------
    # Instance-level locks + attributes
    # ------------------------------------------------------------------
    def _check_class(self, project: Project, module: SourceModule,
                     cls: ast.ClassDef):
        locks, guarded = _declarations(project, module, cls, set())
        guarded -= locks
        if not locks or not guarded:
            return

        for method in cls.body:
            if not isinstance(method, _FUNC_NODES) or \
                    method.name == "__init__":
                continue
            if _holds_lock_docstring(method, locks):
                continue
            qualname = f"{cls.name}.{method.name}"

            def is_guarded(n, attrs=frozenset(guarded)):
                return (isinstance(n, ast.Attribute)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"
                        and n.attr in attrs)

            yield from self._scan_body(
                module, qualname, method, set(), locks,
                is_guarded=is_guarded,
                describe=lambda n: f"self.{n.attr}",
                lock_hint="self." + "/self.".join(sorted(locks)))

    # ------------------------------------------------------------------
    def _scan_body(self, module: SourceModule, qualname: str,
                   func: ast.AST, module_locks: set, self_locks: set,
                   *, is_guarded, describe, lock_hint: str):
        def visit(node: ast.AST, locked: bool):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    inner = locked or _with_lock_names(
                        child, module_locks, self_locks)
                    yield from visit(child, inner)
                elif isinstance(child, _FUNC_NODES + (ast.ClassDef,)):
                    # A nested def runs later, when the lock may no
                    # longer be held: treat its body as unlocked.
                    yield from visit(child, False)
                else:
                    if not locked and is_guarded(child):
                        kind = ("write"
                                if isinstance(getattr(child, "ctx",
                                                      None),
                                              (ast.Store, ast.Del))
                                else "read")
                        yield Finding(
                            rule=self.id, path=module.rel,
                            line=child.lineno, context=qualname,
                            message=(f"{kind} of {describe(child)} "
                                     f"outside `with {lock_hint}:`"))
                    yield from visit(child, locked)
        yield from visit(func, False)


def _own_declarations(cls: ast.ClassDef) -> tuple[set, set]:
    """``(locks, guarded attributes)`` one class declares itself: the
    locks and mutable containers its ``__init__`` binds to ``self``,
    plus every ``self.<attr>`` it augments anywhere."""
    locks: set[str] = set()
    guarded: set[str] = set()
    init = next((n for n in cls.body
                 if isinstance(n, _FUNC_NODES)
                 and n.name == "__init__"), None)
    init_nodes = ast.walk(init) if init is not None else ()
    for node in init_nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                and node.value is not None:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    if _is_lock_ctor(node.value):
                        locks.add(target.attr)
                    elif _is_mutable_container(node.value):
                        guarded.add(target.attr)
    for node in ast.walk(cls):
        if (isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and isinstance(node.target.value, ast.Name)
                and node.target.value.id == "self"):
            guarded.add(node.target.attr)
    return locks, guarded


def _declarations(project: Project, module: SourceModule,
                  cls: ast.ClassDef, seen: set) -> tuple[set, set]:
    """``_own_declarations`` plus everything the class inherits from
    base classes the analysis can see."""
    locks, guarded = _own_declarations(cls)
    seen = seen | {(module.rel, cls.name)}
    for base in cls.bases:
        found = _resolve_class(project, module, base)
        if found is None or (found[0].rel, found[1].name) in seen:
            continue
        base_locks, base_guarded = _declarations(project, *found, seen)
        locks |= base_locks
        guarded |= base_guarded
    return locks, guarded


def _resolve_class(project: Project, module: SourceModule,
                   expr: ast.AST):
    """The ``(module, ClassDef)`` a base-class name refers to: a class
    of the same module, or one imported with ``from <module> import
    <name> [as <alias>]`` from a module under analysis."""
    if not isinstance(expr, ast.Name):
        return None
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == expr.id:
            return module, node
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            for alias in node.names:
                if (alias.asname or alias.name) != expr.id:
                    continue
                source = project.module(
                    node.module.replace(".", "/") + ".py")
                if source is None:
                    return None
                cls = next((n for n in source.tree.body
                            if isinstance(n, ast.ClassDef)
                            and n.name == alias.name), None)
                return None if cls is None else (source, cls)
    return None


def _named_functions(tree: ast.Module):
    """Top-level and class-nested functions with dotted qualnames
    (module-level globals may be touched from methods too)."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNC_NODES):
                qual = f"{prefix}.{child.name}" if prefix \
                    else child.name
                yield qual, child
            elif isinstance(child, ast.ClassDef):
                qual = f"{prefix}.{child.name}" if prefix \
                    else child.name
                yield from walk(child, qual)
    yield from walk(tree, "")


register(LockDisciplineRule())
