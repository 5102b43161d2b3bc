"""Shared-state discipline: frozen configs stay frozen, guarded state stays locked.

Two rules:

* ``FRZ001`` — config objects are frozen dataclasses by contract (their
  JSON round-trip and content digests assume value semantics); any
  attribute assignment or ``object.__setattr__`` escape hatch outside the
  class's own ``__init__``/``__post_init__`` is a violation — use
  ``dataclasses.replace``.
* ``LCK001`` — a lightweight race detector.  For every class that owns a
  ``threading.Lock``/``RLock``/``Condition`` (and for module-global
  stores guarded by a module-level lock), the rule infers the guarded
  attribute set — everything written inside a ``with <lock>:`` block —
  and flags writes to those attributes outside a lock context.  The
  repo-wide convention that a ``*_locked`` function is only called with
  the lock already held is honoured.  The known shared hot spots
  (``WorkQueue``, the append-only index views and their registry) are
  *designated* explicitly, so the rule fires even when a store has no
  lock at all yet — exactly the failure mode inference alone cannot see.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules_registry import LintRule, register_rule

__all__ = ["FrozenConfigMutationRule", "LockDisciplineRule"]

_LOCK_TYPES = ("threading.Lock", "threading.RLock", "threading.Condition")

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

_CONSTRUCTOR_METHODS = ("__init__", "__post_init__", "__new__")

#: Classes whose shared attributes are guarded by contract even before
#: inference — the concurrency-critical state named in the architecture
#: docs.  A write outside a lock context in these classes is always a
#: violation.
DESIGNATED_CLASS_ATTRS: Dict[str, Set[str]] = {
    "WorkQueue": {"_items", "_pending", "_by_lease"},
    # The tail-read view behind DedupeCache and every PersistentFitnessCache
    # handle on one index (shared between threads and campaign runs).
    "IndexView": {"entries", "staged", "offset", "_identity", "_mtime_ns", "_last_line"},
}

#: Module-global stores guarded by contract (matched by rel-path suffix):
#: the process-wide registry of persistent fitness-cache index views and
#: the views holding staged values; the numpy engine's pool of free plane
#: slabs and its lock (stores of any thread, or the garbage collector,
#: return slabs to it).
DESIGNATED_MODULE_GLOBALS: Dict[str, Set[str]] = {
    "repro/backends/fitness_cache.py": {"_VIEWS", "_PENDING"},
    "repro/backends/numpy_engine.py": {"_FREE_SLABS", "_SLAB_LOCK"},
}


@register_rule
class FrozenConfigMutationRule(LintRule):
    id = "FRZ001"
    name = "frozen-config-mutation"
    summary = "no attribute assignment on frozen dataclass instances"
    contract = (
        "Configs are frozen dataclasses: their JSON round-trips, content "
        "digests and run signatures all assume value semantics.  Mutating "
        "one (directly, via setattr, or via the object.__setattr__ escape "
        "hatch outside the class's own __init__/__post_init__) silently "
        "invalidates every digest derived from it; use dataclasses.replace."
    )

    def check(self, module, context) -> Iterable[Finding]:
        frozen = context.frozen_classes
        if not frozen:
            return
        yield from self._walk(module, module.tree, frozen, class_name=None, func_name=None)

    # ------------------------------------------------------------------ #
    def _walk(self, module, node, frozen, class_name, func_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from self._walk(module, child, frozen, child.name, func_name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, child, frozen, class_name)
                yield from self._walk(module, child, frozen, class_name, child.name)
            else:
                yield from self._walk(module, child, frozen, class_name, func_name)

    def _check_function(self, module, func, frozen, class_name):
        frozen_names = self._frozen_locals(func, frozen)
        in_frozen_ctor = (
            class_name in frozen and func.name in _CONSTRUCTOR_METHODS
        )
        if class_name in frozen and not in_frozen_ctor:
            frozen_names = dict(frozen_names)
            frozen_names["self"] = class_name
        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not func:
                continue  # nested defs re-checked with their own annotations
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    name = _attr_base_name(target)
                    if name is not None and name in frozen_names:
                        yield self.finding(
                            module,
                            node,
                            f"assignment to attribute of frozen "
                            f"{frozen_names[name]} instance {name!r}; use "
                            "dataclasses.replace",
                            symbol=f"{frozen_names[name]}.{_attr_name(target)}",
                        )
            elif isinstance(node, ast.Call):
                yield from self._check_setattr(
                    module, node, frozen_names, in_frozen_ctor
                )

    def _check_setattr(self, module, call, frozen_names, in_frozen_ctor):
        func = call.func
        is_escape = (
            isinstance(func, ast.Attribute)
            and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"
        )
        is_setattr = isinstance(func, ast.Name) and func.id == "setattr"
        if not (is_escape or is_setattr) or not call.args:
            return
        target = call.args[0]
        if not isinstance(target, ast.Name) or target.id not in frozen_names:
            return
        if in_frozen_ctor and target.id == "self":
            return  # the blessed construction-time escape hatch
        yield self.finding(
            module,
            call,
            f"setattr on frozen {frozen_names[target.id]} instance "
            f"{target.id!r} outside __init__/__post_init__; use "
            "dataclasses.replace",
            symbol=f"{frozen_names[target.id]}.__setattr__",
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def _frozen_locals(func, frozen) -> Dict[str, str]:
        """Names in ``func`` statically known to hold frozen instances."""
        names: Dict[str, str] = {}
        args = list(func.args.posonlyargs) + list(func.args.args) + list(func.args.kwonlyargs)
        for arg in args:
            hit = _annotation_frozen_class(arg.annotation, frozen)
            if hit:
                names[arg.arg] = hit
        for node in ast.walk(func):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                hit = _annotation_frozen_class(node.annotation, frozen)
                if hit:
                    names[node.target.id] = hit
        return names


def _annotation_frozen_class(annotation, frozen) -> Optional[str]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in frozen:
            return node.id
        if isinstance(node, ast.Attribute) and node.attr in frozen:
            return node.attr
    return None


def _attr_base_name(target) -> Optional[str]:
    """``p`` for targets shaped ``p.attr`` / ``p.attr[k]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name):
        return target.value.id
    return None


def _attr_name(target) -> str:
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute):
        return target.attr
    return "?"


# ---------------------------------------------------------------------- #
# LCK001
# ---------------------------------------------------------------------- #
@dataclass
class _Write:
    """One write to a tracked entity, with its lexical context."""

    entity: Tuple[str, str]  # ("attr", name) within a class / ("global", name)
    owner: Optional[str]  # class name for attr writes
    node: ast.AST
    under_lock: bool
    func_name: Optional[str]
    top_level: bool


@register_rule
class LockDisciplineRule(LintRule):
    id = "LCK001"
    name = "lock-guarded-write"
    summary = "guarded shared state is only written inside its lock context"
    contract = (
        "For every class owning a threading lock (and for designated "
        "process-global stores), attributes written inside any `with "
        "<lock>:` block form the guarded set; writing one outside a lock "
        "context is a race.  Exemptions: __init__ (construction is "
        "single-owner), functions named *_locked (the documented "
        "convention: callers hold the lock), and `with _file_lock(...)` "
        "fcntl contexts for cross-process state."
    )

    def check(self, module, context) -> Iterable[Finding]:
        module_locks = self._module_locks(module)
        module_globals = self._module_global_names(module)
        designated_globals: Set[str] = set()
        for suffix, names in DESIGNATED_MODULE_GLOBALS.items():
            if module.rel.endswith(suffix):
                designated_globals |= names
        writes: List[_Write] = []
        class_locks: Dict[str, Set[str]] = {}
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                class_locks[node.name] = self._class_locks(module, node)
        self._collect(
            module,
            module.tree,
            writes,
            module_locks=module_locks,
            module_globals=module_globals,
            class_locks=class_locks,
            class_name=None,
            func_name=None,
            under_lock=False,
            top_level=True,
            global_decls=frozenset(),
        )

        # Guarded sets: designated entities plus everything observed
        # written under a lock outside construction.
        guarded: Set[Tuple[Optional[str], Tuple[str, str]]] = set()
        for owner, names in DESIGNATED_CLASS_ATTRS.items():
            if owner in class_locks or any(w.owner == owner for w in writes):
                for name in sorted(names):
                    guarded.add((owner, ("attr", name)))
        for name in sorted(designated_globals):
            guarded.add((None, ("global", name)))
        for write in writes:
            if write.under_lock and write.func_name not in _CONSTRUCTOR_METHODS:
                guarded.add((write.owner, write.entity))

        for write in writes:
            if (write.owner, write.entity) not in guarded:
                continue
            if write.under_lock or write.top_level:
                continue
            if write.func_name in _CONSTRUCTOR_METHODS:
                continue
            if write.func_name and write.func_name.endswith("_locked"):
                continue
            kind, name = write.entity
            where = f"{write.owner}.{name}" if write.owner else name
            yield self.finding(
                module,
                write.node,
                f"write to lock-guarded {'attribute' if kind == 'attr' else 'global'} "
                f"{where!r} outside a lock context; hold the lock or move the "
                "write into a *_locked helper",
                symbol=where,
            )

    # ------------------------------------------------------------------ #
    def _module_locks(self, module) -> Set[str]:
        locks: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                resolved = module.imports.resolve(node.value.func)
                if resolved in _LOCK_TYPES:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            locks.add(target.id)
        return locks

    @staticmethod
    def _module_global_names(module) -> Set[str]:
        names: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        return names

    def _class_locks(self, module, class_node) -> Set[str]:
        locks: Set[str] = set()
        for node in ast.walk(class_node):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            resolved = module.imports.resolve(node.value.func)
            if resolved not in _LOCK_TYPES:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    locks.add(target.attr)
        return locks

    # ------------------------------------------------------------------ #
    def _is_lock_context(self, module, item, class_name, class_locks, module_locks) -> bool:
        expr = item.context_expr
        if isinstance(expr, ast.Name) and expr.id in module_locks:
            return True
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and class_name is not None
            and expr.attr in class_locks.get(class_name, ())
        ):
            return True
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id.endswith("file_lock"):
                return True  # advisory fcntl context manager
            resolved = module.imports.resolve(func)
            if resolved and resolved.endswith("file_lock"):
                return True
        return False

    def _collect(
        self,
        module,
        node,
        writes,
        *,
        module_locks,
        module_globals,
        class_locks,
        class_name,
        func_name,
        under_lock,
        top_level,
        global_decls,
    ):
        for child in ast.iter_child_nodes(node):
            child_class = class_name
            child_func = func_name
            child_lock = under_lock
            child_top = top_level
            child_globals = global_decls
            if isinstance(child, ast.ClassDef):
                child_class, child_func, child_lock = child.name, None, False
                child_top = False
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_func, child_lock = child.name, False
                child_top = False
                child_globals = frozenset(
                    name
                    for stmt in ast.walk(child)
                    if isinstance(stmt, ast.Global)
                    for name in stmt.names
                )
            elif isinstance(child, ast.With):
                if any(
                    self._is_lock_context(module, item, class_name, class_locks, module_locks)
                    for item in child.items
                ):
                    child_lock = True
            self._record_writes(
                module,
                child,
                writes,
                module_globals=module_globals,
                class_name=child_class if not isinstance(child, ast.ClassDef) else class_name,
                func_name=child_func,
                under_lock=child_lock,
                top_level=child_top,
                global_decls=child_globals,
            )
            self._collect(
                module,
                child,
                writes,
                module_locks=module_locks,
                module_globals=module_globals,
                class_locks=class_locks,
                class_name=child_class,
                func_name=child_func,
                under_lock=child_lock,
                top_level=child_top,
                global_decls=child_globals,
            )

    def _record_writes(
        self,
        module,
        node,
        writes,
        *,
        module_globals,
        class_name,
        func_name,
        under_lock,
        top_level,
        global_decls,
    ):
        def add(entity, owner):
            writes.append(
                _Write(
                    entity=entity,
                    owner=owner,
                    node=node,
                    under_lock=under_lock,
                    func_name=func_name,
                    top_level=top_level,
                )
            )

        def classify_target(target):
            if isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    classify_target(element)
                return
            base = target
            if isinstance(base, ast.Subscript):
                base = base.value
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and class_name is not None
            ):
                add(("attr", base.attr), class_name)
            elif isinstance(base, ast.Name) and base.id in module_globals:
                # Plain name rebinding inside a function only touches the
                # global with a `global` declaration; subscript writes
                # always do.
                if isinstance(target, ast.Subscript) or top_level or base.id in global_decls:
                    add(("global", base.id), None)

        if isinstance(node, ast.Assign):
            for target in node.targets:
                classify_target(target)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            classify_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                classify_target(target)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
                receiver = func.value
                if (
                    isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id == "self"
                    and class_name is not None
                ):
                    add(("attr", receiver.attr), class_name)
                elif isinstance(receiver, ast.Name) and receiver.id in module_globals:
                    add(("global", receiver.id), None)
