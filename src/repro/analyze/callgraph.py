"""Project-wide module index, class hierarchy, and call-graph resolution.

The PR 4 analyzer saw one module at a time, so any property that crosses
a ``def`` boundary — nondeterminism laundered through a helper, a
write-ahead persist performed by a callee, a quorum check inherited from
a base class — was invisible.  :class:`ProjectIndex` restores that
visibility for the whole analyzed file set at linter cost:

* **module index** — dotted module name → :class:`ModuleInfo` for every
  analyzed file, with each module's import map (absolute *and* relative
  imports, see ``ModuleInfo.import_map``);
* **definition tables** — :class:`FunctionInfo` / :class:`ClassInfo`
  records for every top-level function, class, and method, addressable
  as ``module.qualname``;
* **class hierarchy** — base-class names resolved through import maps to
  project classes, with a linearized MRO walk (:meth:`ClassInfo.mro` /
  :meth:`ClassInfo.resolve_method`), so ``self.method()`` dispatches the
  way Python would for the concrete class under analysis;
* **call resolution** — :meth:`ProjectIndex.resolve_call` maps a call
  expression inside a function to the project function it names, through
  local definitions, import aliases, and ``self.``-dispatch;
* **nondet re-export propagation** — :meth:`propagate_nondet` closes
  each module's ``nondet_aliases`` over intra-project re-exports to a
  fixpoint, so ``from .clock import wall`` (where ``clock`` did ``from
  time import time as wall``) is as visible to DET rules as a direct
  import.

Resolution is deliberately *partial*: anything dynamic (dict dispatch,
``super()``, values of unknown type) resolves to ``None`` and rules fail
safe — no finding.  The summary-based dataflow that runs on top of this
graph lives in :mod:`repro.analyze.taint`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .walker import ModuleInfo, NONDET_MODULES, dotted_name


class FunctionInfo:
    """One function or method definition in the project."""

    __slots__ = ("module", "node", "qualname", "owner")

    def __init__(
        self,
        module: ModuleInfo,
        node: ast.AST,
        qualname: str,
        owner: Optional["ClassInfo"] = None,
    ) -> None:
        self.module = module
        self.node = node
        self.qualname = qualname  # e.g. "AbdNode.on_message"
        self.owner = owner        # enclosing ClassInfo for methods

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> str:
        """Project-unique id: ``module_name:qualname``."""
        return f"{self.module.module_name}:{self.qualname}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.key})"


class ClassInfo:
    """One class definition plus its resolved project bases."""

    def __init__(self, module: ModuleInfo, node: ast.ClassDef, qualname: str) -> None:
        self.module = module
        self.node = node
        self.qualname = qualname
        self.methods: Dict[str, FunctionInfo] = {}
        #: project ClassInfo bases, resolved by the index (bases outside
        #: the analyzed file set are simply absent).
        self.bases: List["ClassInfo"] = []

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> str:
        return f"{self.module.module_name}:{self.qualname}"

    def mro(self) -> Iterator["ClassInfo"]:
        """Depth-first base order starting at this class (C3 is overkill
        for a linter; first match wins, diamonds visited once)."""
        seen: Set[str] = set()
        stack: List[ClassInfo] = [self]
        while stack:
            cls = stack.pop(0)
            if cls.key in seen:
                continue
            seen.add(cls.key)
            yield cls
            stack = cls.bases + stack

    def resolve_method(self, name: str) -> Optional[FunctionInfo]:
        """The method the concrete class would dispatch ``self.name`` to."""
        for cls in self.mro():
            if name in cls.methods:
                return cls.methods[name]
        return None

    def defines_or_inherits(self, name: str) -> bool:
        return self.resolve_method(name) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.key})"


class ProjectIndex:
    """Cross-module index over a set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: ``module:qualname`` → FunctionInfo (functions and methods).
        self.functions: Dict[str, FunctionInfo] = {}
        #: ``module:qualname`` → ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: per-module top-level name → dotted target ("repro.amp.abd.AbdNode")
        self._exports: Dict[str, Dict[str, str]] = {}
        self._taint = None
        for module in modules:
            self.add_module(module)
        self._link_bases()
        self.propagate_nondet()

    # -- construction ------------------------------------------------------

    def add_module(self, module: ModuleInfo) -> None:
        self.modules[module.module_name] = module
        module.project = self
        exports = self._exports.setdefault(module.module_name, {})
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                exports[node.name] = f"{module.module_name}.{node.name}"
        for cls_node in module.classes():
            qual = module.qualname_at(cls_node)
            qualname = f"{qual}.{cls_node.name}" if qual else cls_node.name
            info = ClassInfo(module, cls_node, qualname)
            self.classes[info.key] = info
            for stmt in cls_node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    method = FunctionInfo(
                        module, stmt, f"{qualname}.{stmt.name}", owner=info
                    )
                    info.methods[stmt.name] = method
                    self.functions[method.key] = method
        for func_node in module.functions():
            qual = module.qualname_at(func_node)
            qualname = f"{qual}.{func_node.name}" if qual else func_node.name
            key = f"{module.module_name}:{qualname}"
            if key not in self.functions:
                self.functions[key] = FunctionInfo(module, func_node, qualname)

    def _link_bases(self) -> None:
        for info in self.classes.values():
            for base in info.node.bases:
                target = self._resolve_class_expr(info.module, base)
                if target is not None and target is not info:
                    info.bases.append(target)

    def _resolve_class_expr(
        self, module: ModuleInfo, expr: ast.AST
    ) -> Optional[ClassInfo]:
        name = dotted_name(expr)
        if name is None:
            return None
        target = self.resolve_name(module, name)
        if target is None:
            return None
        return self._class_at(target)

    # -- name / call resolution --------------------------------------------

    def resolve_name(self, module: ModuleInfo, name: str) -> Optional[str]:
        """Dotted project target a (possibly dotted) local name denotes.

        Walks the module's own top-level definitions first, then its
        import map; dotted tails ride along (``abd.AbdNode`` with ``from
        . import abd`` → ``repro.amp.abd.AbdNode``).
        """
        parts = name.split(".")
        head, tail = parts[0], parts[1:]
        exports = self._exports.get(module.module_name, {})
        if head in exports:
            return ".".join([exports[head]] + tail)
        if head in module.import_map:
            return ".".join([module.import_map[head]] + tail)
        return None

    def _split_module(self, dotted: str) -> Optional[Tuple[ModuleInfo, str]]:
        """Split a dotted target into (module, remainder) by the longest
        module-name prefix present in the index."""
        parts = dotted.split(".")
        # A package export named like its submodule shadows the submodule
        # (``repro.trace.replay`` is the function, as at run time).
        package = self.modules.get(".".join(parts[:-1]))
        if package is not None and package.import_map.get(parts[-1], dotted) != dotted:
            return package, parts[-1]
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return self.modules[prefix], ".".join(parts[cut:])
        return None

    def _class_at(self, dotted: str) -> Optional[ClassInfo]:
        located = self._split_module(dotted)
        if located is None:
            return None
        module, rest = located
        # ``from repro.amp import abd`` re-exports: follow one hop.
        if rest and rest.split(".")[0] in module.import_map:
            return self._class_at(
                ".".join(
                    [module.import_map[rest.split(".")[0]]] + rest.split(".")[1:]
                )
            )
        return self.classes.get(f"{module.module_name}:{rest}") if rest else None

    def function_at(self, dotted: str) -> Optional[FunctionInfo]:
        located = self._split_module(dotted)
        if located is None:
            return None
        module, rest = located
        if not rest:
            return None
        head = rest.split(".")[0]
        if head in module.import_map and f"{module.module_name}:{rest}" not in self.functions:
            return self.function_at(
                ".".join([module.import_map[head]] + rest.split(".")[1:])
            )
        return self.functions.get(f"{module.module_name}:{rest}")

    def class_of(self, func: FunctionInfo) -> Optional[ClassInfo]:
        return func.owner

    def enclosing_class(self, module: ModuleInfo, node: ast.AST) -> Optional[ClassInfo]:
        """ClassInfo of the innermost class containing ``node``."""
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                qual = module.qualname_at(ancestor)
                qualname = f"{qual}.{ancestor.name}" if qual else ancestor.name
                return self.classes.get(f"{module.module_name}:{qualname}")
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        cls: Optional[ClassInfo] = None,
    ) -> Optional[FunctionInfo]:
        """The project function a call expression dispatches to.

        ``cls`` is the *concrete* class ``self`` is assumed to be — pass
        the subclass being analyzed to follow overridden methods the way
        the runtime would.  Unresolvable calls (dynamic dispatch,
        builtins, out-of-project callees) return ``None``.
        """
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] == "self" and len(parts) == 2:
            owner = cls or self.enclosing_class(module, call)
            return owner.resolve_method(parts[1]) if owner is not None else None
        if parts[0] in ("self", "cls"):
            return None
        target = self.resolve_name(module, name)
        if target is None:
            return None
        func = self.function_at(target)
        if func is not None:
            return func
        # ``Class.method(...)`` through an imported/local class name.
        if len(parts) >= 2:
            owner = self._class_at(
                ".".join(target.split(".")[:-1])
            )
            if owner is not None:
                return owner.resolve_method(target.split(".")[-1])
        return None

    def calls_in(
        self,
        func: FunctionInfo,
        cls: Optional[ClassInfo] = None,
    ) -> Iterator[Tuple[ast.Call, Optional[FunctionInfo]]]:
        """Every call expression in ``func`` with its resolution."""
        owner = cls or func.owner
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                yield node, self.resolve_call(func.module, node, cls=owner)

    # -- nondet re-export propagation --------------------------------------

    def propagate_nondet(self) -> None:
        """Close every module's ``nondet_aliases`` over project re-exports.

        A binding imported from a project module whose *own* alias map
        marks the source name as nondeterministic inherits that origin:
        ``repro.amp.clock`` does ``from time import time as wall``;
        ``repro.amp.proto`` does ``from .clock import wall`` — after
        propagation, ``proto.nondet_aliases["wall"] == "time.time"`` and
        DET001 fires at the ``wall()`` call site exactly as it would for
        a direct import.  Runs to fixpoint, so chains of re-exports
        converge.
        """
        changed = True
        while changed:
            changed = False
            for module in self.modules.values():
                for bound, target in module.import_map.items():
                    if bound in module.nondet_aliases:
                        continue
                    if target.split(".")[0] in NONDET_MODULES:
                        continue  # already handled by _collect_imports
                    located = self._split_module(target)
                    if located is None:
                        continue
                    source_module, rest = located
                    if source_module is module or "." in rest:
                        continue
                    origin = source_module.nondet_aliases.get(rest)
                    if origin is not None:
                        module.nondet_aliases[bound] = origin
                        changed = True

    # -- taint engine accessor ---------------------------------------------

    @property
    def taint(self):
        """The lazily-built :class:`repro.analyze.taint.TaintEngine`."""
        if self._taint is None:
            from .taint import TaintEngine

            self._taint = TaintEngine(self)
        return self._taint


def build_index(modules: Iterable[ModuleInfo]) -> ProjectIndex:
    """Index a set of parsed modules (attaches itself as ``.project``)."""
    return ProjectIndex(modules)
