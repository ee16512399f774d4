"""MDL rules — the model boundary, enforced mechanically.

Raynal's models (read/write, synchronous and asynchronous message
passing) are algebraically distinct worlds; the reductions between them
are *theorems*, not imports.  Protocol code that reaches across the
boundary — importing another model's kernel, sharing mutable state
between process instances, poking at another object's privates — makes
claims about one model while secretly computing in another.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .registry import Rule, rule
from .walker import PROTOCOL_KINDS, ModuleInfo, dotted_name

#: Constructors of mutable containers (a class-level call to one of
#: these creates state shared by every instance).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict",
     "bytearray"}
)


def _is_mutable_value(node: ast.AST) -> Optional[str]:
    """Short description when ``node`` evaluates to a fresh mutable value."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES:
            return f"{name}(...)"
    return None


@rule
class ClassLevelMutableState(Rule):
    """MDL001: class-level mutable state shared by every process instance."""

    id = "MDL001"
    summary = (
        "protocol class holds class-level mutable state — shared by every "
        "process instance, i.e. covert cross-process communication"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for cls in module.classes():
            for stmt in cls.body:
                value = None
                target_name = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    if isinstance(stmt.targets[0], ast.Name):
                        value = stmt.value
                        target_name = stmt.targets[0].id
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    if isinstance(stmt.target, ast.Name):
                        value = stmt.value
                        target_name = stmt.target.id
                if value is None:
                    continue
                description = _is_mutable_value(value)
                if description is None:
                    continue
                yield self.finding(
                    module,
                    stmt,
                    f"class attribute {cls.name}.{target_name} = "
                    f"{description} is one mutable object shared by every "
                    f"process instance — a covert channel the model does "
                    f"not have; initialize it per-instance in __init__",
                )


@rule
class CrossModelImport(Rule):
    """MDL002: one model's module imports another model's code."""

    id = "MDL002"
    summary = (
        "module of one model imports another model's code — reductions "
        "between models are theorems, not imports"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        own = module.kind
        others: Set[str] = {k for k in PROTOCOL_KINDS if k != own}
        for node in module.walk(ast.Import):
            for alias in node.names:
                crossed = self._crossed_model(alias.name.split("."), others)
                if crossed:
                    yield self._cross_finding(module, node, own, crossed, alias.name)
        for node in module.walk(ast.ImportFrom):
            if node.level > 0:
                # Relative: ``from ..amp import x`` inside repro/shm/.
                parts = (node.module or "").split(".") if node.module else []
                crossed = self._crossed_model(parts, others) if parts else None
                if crossed is None and not parts:
                    for alias in node.names:
                        crossed = self._crossed_model([alias.name], others)
                        if crossed:
                            yield self._cross_finding(
                                module, node, own, crossed, alias.name
                            )
                    continue
            else:
                parts = (node.module or "").split(".")
                if parts and parts[0] == "repro":
                    parts = parts[1:]
                else:
                    continue
                crossed = self._crossed_model(parts, others)
            if crossed:
                yield self._cross_finding(
                    module, node, own, crossed, node.module or crossed
                )

    @staticmethod
    def _crossed_model(parts, others: Set[str]) -> Optional[str]:
        if not parts:
            return None
        head = parts[0]
        if head == "repro" and len(parts) > 1:
            head = parts[1]
        return head if head in others else None

    def _cross_finding(self, module, node, own, crossed, imported):
        return self.finding(
            module,
            node,
            f"{own} module imports {imported!r} from the {crossed} model; "
            f"protocols must stay inside their model — shared code belongs "
            f"in repro.core, and model reductions are explicit "
            f"constructions, not imports",
        )


@rule
class PrivateReachThrough(Rule):
    """MDL003: protocol code reaches into private state it was handed."""

    id = "MDL003"
    summary = (
        "protocol code reaches into the private state of an object it was "
        "handed (e.g. ctx._runtime) — bypassing the model's API surface"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for func in module.functions():
            params = self._params(func)
            if not params:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue
                name = node.value.id
                if name not in params:
                    continue
                attr = node.attr
                if not attr.startswith("_") or attr.startswith("__"):
                    continue
                yield self.finding(
                    module,
                    node,
                    f"access to {name}.{attr} reaches into the private "
                    f"state of an object the model handed to this "
                    f"protocol; only the public model API (send/decide/"
                    f"random/yielded invocations) is part of the model",
                )

    @staticmethod
    def _params(func) -> Set[str]:
        args = func.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return {n for n in names if n not in ("self", "cls")}
