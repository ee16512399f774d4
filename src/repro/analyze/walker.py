"""Parsed-module model and the small dataflow/scope toolkit rules share.

:class:`ModuleInfo` wraps one parsed source file with everything a rule
needs: parent links, enclosing-scope qualified names, the module's
*kind* (which model's code it is — see :func:`classify_path`), import
aliases of nondeterminism-bearing stdlib modules, a conservative
"definitely a set" expression classifier, and mutation-site detection.

The *intra-module* dataflow here is deliberately shallow — single-scope,
textual order — because the rules are *linters*, not verifiers: they
flag patterns that are hazards in this codebase's idiom, and the noqa /
baseline layer (see :mod:`repro.analyze.suppress`) absorbs the cases
where a human can argue order-insensitivity.  Cross-module and
cross-function reasoning lives one layer up: when a module is analyzed
as part of a project, :mod:`repro.analyze.callgraph` attaches a
:class:`~repro.analyze.callgraph.ProjectIndex` as ``module.project``,
and rules consult it (plus the summary engine in
:mod:`repro.analyze.taint`) for interprocedural facts.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

#: Module kinds, from most to least constrained.  ``sync``/``amp``/``shm``
#: are protocol/kernel code (one per model of the paper); ``infra`` is the
#: rest of ``repro`` (core, trace, harness, analyze); ``other`` is
#: everything outside the package (tests, examples, benchmarks).
MODULE_KINDS = ("sync", "amp", "shm", "infra", "other")

#: Kinds containing protocol/kernel code — where the model boundary and
#: determinism rules have teeth.
PROTOCOL_KINDS = ("sync", "amp", "shm")

#: stdlib modules whose direct use inside protocol code breaks
#: schedule-determinism (the injected per-process RNG / virtual time are
#: the only sanctioned sources).
NONDET_MODULES = ("random", "time", "datetime", "os", "uuid", "secrets")

#: Methods whose call mutates the receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "clear", "sort",
        "reverse", "add", "discard", "update", "setdefault", "popitem",
        "difference_update", "intersection_update",
        "symmetric_difference_update",
    }
)


def module_name_from_path(path: str) -> str:
    """Dotted module name of a source path.

    Anchored at the last ``repro`` path segment when present (so
    ``src/repro/amp/abd.py`` → ``repro.amp.abd`` and temporary test
    trees like ``/tmp/x/repro/amp/p.py`` resolve the same way);
    otherwise just the file stem.  ``__init__.py`` names its package.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    return ".".join(p for p in parts if p)


def classify_path(path: str) -> str:
    """Module kind of a file path (see :data:`MODULE_KINDS`)."""
    normalized = path.replace("\\", "/")
    for kind in PROTOCOL_KINDS:
        if f"/repro/{kind}/" in normalized or normalized.endswith(
            f"/repro/{kind}.py"
        ):
            return kind
    if "/repro/" in normalized or normalized.startswith("repro/"):
        return "infra"
    return "other"


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` under a Subscript/Attribute chain, else ``None``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleInfo:
    """One parsed module plus the derived maps rules query."""

    def __init__(self, path: str, source: str, kind: Optional[str] = None) -> None:
        self.path = path
        self.source = source
        self.kind = kind if kind is not None else classify_path(path)
        self.module_name = module_name_from_path(path)
        #: An ``__init__.py``: relative imports start at the module itself.
        self.is_package = path.replace("\\", "/").split("/")[-1] == "__init__.py"
        self.tree = ast.parse(source, filename=path)
        self._parent: Dict[ast.AST, ast.AST] = {}
        self._qual: Dict[ast.AST, str] = {}
        self._annotate(self.tree, "")
        #: local alias -> dotted origin, for names taken from the
        #: nondeterminism-bearing stdlib modules (``from time import
        #: time`` => ``{"time": "time.time"}``; ``import random as rnd``
        #: => ``{"rnd": "random"}``).  When the module is analyzed as
        #: part of a project, :meth:`ProjectIndex.propagate_nondet`
        #: extends this map with intra-package *re-exports* of such
        #: names, so laundering nondeterminism through ``from .util
        #: import now`` does not escape the DET rules.
        self.nondet_aliases: Dict[str, str] = {}
        #: local binding -> dotted target, for *every* import (absolute
        #: and relative — relative levels are resolved against this
        #: module's own package).  ``from .abd import AbdNode`` inside
        #: ``repro.amp.quorums`` => ``{"AbdNode": "repro.amp.abd.AbdNode"}``.
        #: A package's lazy-export table (:mod:`repro._exports`) counts as
        #: imports: ``"abd": ("AbdNode",)`` in ``repro/amp/__init__.py``
        #: => ``{"AbdNode": "repro.amp.abd.AbdNode"}``.
        self.import_map: Dict[str, str] = {}
        #: Set by :class:`repro.analyze.callgraph.ProjectIndex` when the
        #: module is analyzed with project context; ``None`` for
        #: standalone single-module analysis (the PR 4 shallow mode).
        self.project = None
        self._collect_imports()

    # -- structure ---------------------------------------------------------

    def _annotate(self, node: ast.AST, qual: str) -> None:
        for child in ast.iter_child_nodes(node):
            self._parent[child] = node
            self._qual[child] = qual
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                child_qual = f"{qual}.{child.name}" if qual else child.name
                self._annotate(child, child_qual)
            else:
                self._annotate(child, qual)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parent.get(node)

    def contains(self, node: ast.AST) -> bool:
        """True when ``node`` belongs to this module's tree (findings must
        only ever anchor at nodes of the module being reported on)."""
        return node is self.tree or node in self._parent

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self._parent.get(node)
        while current is not None:
            yield current
            current = self._parent.get(current)

    def qualname_at(self, node: ast.AST) -> str:
        return self._qual.get(node, "")

    def walk(self, *types: type) -> Iterator[ast.AST]:
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    def functions(self) -> Iterator[ast.AST]:
        yield from self.walk(ast.FunctionDef, ast.AsyncFunctionDef)

    def classes(self) -> Iterator[ast.ClassDef]:
        yield from self.walk(ast.ClassDef)

    # -- imports -----------------------------------------------------------

    def _resolve_relative(self, level: int, module: Optional[str]) -> Optional[str]:
        """Absolute dotted module for a relative import in this module.

        ``level=1`` is this module's package (the module itself for an
        ``__init__.py``), each extra level one package up (``from ..core
        import x`` in ``repro.amp.abd`` → ``repro.core``).  Returns
        ``None`` when the relative walk escapes the known package path.
        """
        package = self.module_name.split(".")
        if not self.is_package:
            package.pop()
        if level - 1 > len(package):
            return None
        base = package[: len(package) - (level - 1)]
        parts = base + (module.split(".") if module else [])
        return ".".join(parts) if parts else None

    def _collect_imports(self) -> None:
        for node in self.walk(ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                bound = alias.asname or root
                self.import_map[bound] = alias.name if alias.asname else root
                if root in NONDET_MODULES:
                    self.nondet_aliases[bound] = alias.name
        for node in self.walk(ast.ImportFrom):
            if node.level:
                target = self._resolve_relative(node.level, node.module)
                if target is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.import_map[alias.asname or alias.name] = (
                        f"{target}.{alias.name}"
                    )
                continue
            if node.module is None:
                continue
            root = node.module.split(".")[0]
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                self.import_map[bound] = f"{node.module}.{alias.name}"
                if root in NONDET_MODULES:
                    self.nondet_aliases[bound] = f"{node.module}.{alias.name}"
        if self.is_package:
            for sub, names in self._export_table().items():
                for name in names:
                    self.import_map[name] = f"{self.module_name}.{sub}.{name}"

    def _export_table(self) -> Dict[str, Tuple[str, ...]]:
        """This package's literal ``_EXPORTS`` table, or ``{}``."""
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and [dotted_name(t) for t in node.targets] == ["_EXPORTS"]
            ):
                try:
                    table = ast.literal_eval(node.value)
                except ValueError:
                    return {}
                return table if isinstance(table, dict) else {}
        return {}

    # -- set-ness inference ------------------------------------------------

    def definitely_set(self, expr: ast.AST, env: Optional[Dict[str, bool]] = None) -> bool:
        """Conservatively true when ``expr`` evaluates to a set/frozenset.

        Recognizes set displays/comprehensions, ``set(...)`` /
        ``frozenset(...)`` calls, set-algebra methods and operators on a
        known set, names locally bound to one of those, and — a
        repo-specific fact — the ``.neighbors`` attribute, which the
        kernel API types as ``FrozenSet[int]``.
        """
        env = env or {}
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name in ("set", "frozenset"):
                return True
            if isinstance(expr.func, ast.Attribute) and expr.func.attr in (
                "union", "intersection", "difference", "symmetric_difference",
            ):
                return self.definitely_set(expr.func.value, env)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.definitely_set(expr.left, env) or self.definitely_set(
                expr.right, env
            )
        if isinstance(expr, ast.Name):
            return env.get(expr.id, False)
        if isinstance(expr, ast.Attribute) and expr.attr == "neighbors":
            return True
        return False

    def set_env(self, scope: ast.AST) -> Dict[str, bool]:
        """Names bound to definitely-set values inside ``scope``.

        One textual-order pass over plain assignments: a later rebind to
        a non-set value clears the name.  Shallow on purpose (no
        branches/phi): good enough for linting, and wrong guesses fail
        *safe* (unknown => not a set => no finding).
        """
        env: Dict[str, bool] = {}
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    env[target.id] = self.definitely_set(node.value, env)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    env[node.target.id] = self.definitely_set(node.value, env)
        return env

    # -- mutation detection ------------------------------------------------

    def mutations_in(self, scope: ast.AST) -> Iterator[Tuple[str, ast.AST, str]]:
        """Yield ``(name, node, how)`` for in-place mutations of local names.

        Covers mutator method calls (``x.append(...)``), item/attribute
        stores at any depth under a local root (``x[k] = v``, ``x.f = v``,
        ``x[a:b] = v``, ``x.buf[i] = v``), tuple/starred assignment
        targets (``x[i], y = ...``), augmented stores, and item/attribute
        deletes (``del x[k]``, ``del x.f``).  ``how`` is a short
        description for the message.
        """
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in MUTATOR_METHODS and isinstance(
                    node.func.value, ast.Name
                ):
                    yield node.func.value.id, node, f".{node.func.attr}(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for root, how in self._store_roots(target):
                        yield root, node, how
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    root = _root_name(target)
                    if root is None or isinstance(target, ast.Name):
                        continue
                    how = (
                        f"del .{target.attr}"
                        if isinstance(target, ast.Attribute)
                        else "del [...]"
                    )
                    yield root, node, how

    @staticmethod
    def _store_roots(target: ast.AST) -> Iterator[Tuple[str, str]]:
        """``(root name, description)`` for every mutating store in an
        assignment target, descending through tuple/list/starred targets."""
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from ModuleInfo._store_roots(element)
        elif isinstance(target, ast.Starred):
            yield from ModuleInfo._store_roots(target.value)
        elif isinstance(target, ast.Subscript):
            root = _root_name(target)
            if root is not None:
                yield root, "[...] = ..."
        elif isinstance(target, ast.Attribute):
            root = _root_name(target)
            if root is not None:
                yield root, f".{target.attr} = ..."

    def rebindings_in(self, scope: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
        """Yield ``(name, node)`` for plain rebinds (``x = ...``) in scope."""
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, node


def parse_module(path: str, source: Optional[str] = None) -> ModuleInfo:
    """Read (if needed) and parse one module."""
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    return ModuleInfo(path, source)
