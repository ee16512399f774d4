"""DUR rules — write-ahead durability discipline for crash-recovery code.

A class opts into crash-recovery by defining ``on_recover`` (the runtime
hook) or ``restore`` (the component convention — the host calls it from
its own ``on_recover``).  For such classes the contract that makes
recovery *safe* rather than merely *possible* is write-ahead: any state
another process may have observed (because a send/decide followed it)
must already be in ``ctx.stable`` — the one store the runtime preserves
across a crash.  The DUR family checks three sides of that contract
using the flattened effect sequences from :mod:`repro.analyze.taint`
(so persists performed by a ``self._helper()`` callee, possibly an
override picked by MRO, count at the call site):

* **DUR001** — recovery reads a stable key no code path ever writes:
  the ``get`` can only ever see its default, so the "recovery" restores
  nothing.
* **DUR002** — a durable attribute (one the recovery hook restores) is
  modified and then *published* (send/broadcast/decide) with no
  ``ctx.stable.put`` in between: a crash after the send recovers to a
  state the rest of the system has already seen contradicted.
* **DUR003** — state is persisted under a key the recovery hook never
  reads back: the put is dead weight, and usually means the restore
  path was forgotten when the key was added.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .registry import Rule, rule
from .walker import ModuleInfo

#: Method names that mark a class as recovery-opted and contain its
#: restore logic.
RECOVERY_METHODS = ("on_recover", "restore")

#: Handler entry points whose effect sequences DUR002 scans.
_SCANNED_HANDLERS = ("on_start", "on_message", "on_timer")


def _project(module: ModuleInfo):
    if module.project is None:
        from .callgraph import build_index

        build_index([module])
    return module.project


def _module_classes(module: ModuleInfo):
    index = _project(module)
    return [
        info for info in index.classes.values() if info.module is module
    ]


def _stable_key(cls_info, call: ast.AST) -> Optional[str]:
    """Constant stable key of a put/get call: a string literal, or a
    ``self.<NAME>`` read of a class-level string constant."""
    if not getattr(call, "args", None):
        return None
    arg = call.args[0]
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    if (
        isinstance(arg, ast.Attribute)
        and isinstance(arg.value, ast.Name)
        and arg.value.id == "self"
    ):
        for ancestor in cls_info.mro():
            for stmt in ancestor.node.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id == arg.attr
                        and isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)
                    ):
                        return stmt.value.value
    return None


class _ClassDurability:
    """Everything the three DUR rules need about one recovery-opted class."""

    def __init__(self, index, cls_info) -> None:
        taint = index.taint
        self.cls = cls_info
        #: recovery methods defined anywhere in the MRO.
        self.recovery: List = [
            method
            for name in RECOVERY_METHODS
            for method in [cls_info.resolve_method(name)]
            if method is not None
        ]
        #: attributes the recovery hooks write back onto self.
        self.durable_attrs: Set[str] = set()
        #: constant keys read / whether a dynamic-key get exists.
        self.get_keys: Dict[str, ast.AST] = {}
        self.dynamic_get = False
        for method in self.recovery:
            for kind, detail, node in taint.events(method, cls=cls_info):
                if kind == "set_attr":
                    self.durable_attrs.add(detail)
                elif kind == "get":
                    key = detail or _stable_key(cls_info, node)
                    if key is None:
                        self.dynamic_get = True
                    else:
                        self.get_keys.setdefault(key, node)
        #: constant keys written anywhere in the class / dynamic puts.
        self.put_keys: Dict[str, ast.AST] = {}
        self.dynamic_put = False
        seen_methods: Set[str] = set()
        for ancestor in cls_info.mro():
            for method in ancestor.methods.values():
                if method.key in seen_methods:
                    continue
                seen_methods.add(method.key)
                for kind, detail, node in taint.events(method, cls=cls_info):
                    if kind == "put":
                        key = detail or _stable_key(cls_info, node)
                        if key is None:
                            self.dynamic_put = True
                        else:
                            self.put_keys.setdefault(key, node)


def _durability_scans(module: ModuleInfo) -> Iterator[_ClassDurability]:
    index = _project(module)
    for cls_info in _module_classes(module):
        if any(
            cls_info.resolve_method(name) is not None
            for name in RECOVERY_METHODS
        ):
            yield _ClassDurability(index, cls_info)


@rule
class RestoreWithoutPersist(Rule):
    """DUR001: a recovery hook reads a ``ctx.stable`` key nothing writes."""

    id = "DUR001"
    summary = (
        "recovery hook reads a ctx.stable key that no code path ever "
        "writes — the get can only return its default, restoring nothing"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        reported: Set[int] = set()
        for scan in _durability_scans(module):
            if scan.dynamic_put:
                continue  # a computed key might write anything: fail safe
            for key, node in scan.get_keys.items():
                if key in scan.put_keys or id(node) in reported:
                    continue
                if not module.contains(node):
                    continue  # restore lives in a base from another module
                reported.add(id(node))
                yield self.finding(
                    module,
                    node,
                    f"{scan.cls.name} recovery reads stable key {key!r} "
                    f"but nothing ever does ctx.stable.put({key!r}, ...); "
                    f"recovery always sees the default — persist the "
                    f"state write-ahead, or drop the dead restore",
                )


@rule
class MutateAfterLastPersist(Rule):
    """DUR002: durable state published after a change it never persisted."""

    id = "DUR002"
    summary = (
        "durable attribute modified and then published (send/broadcast/"
        "decide) with no ctx.stable.put in between — a crash after the "
        "send recovers state the system already observed otherwise"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        index = _project(module)
        taint = index.taint
        reported: Set[Tuple[str, int]] = set()
        for scan in _durability_scans(module):
            if not scan.durable_attrs:
                continue
            for handler_name in _SCANNED_HANDLERS:
                handler = scan.cls.resolve_method(handler_name)
                if handler is None or handler.module is not module:
                    continue
                dirty: Dict[str, ast.AST] = {}
                for kind, detail, node in taint.events(handler, cls=scan.cls):
                    if kind == "set_attr" and detail in scan.durable_attrs:
                        dirty.setdefault(detail, node)
                    elif kind == "put":
                        dirty.clear()
                    elif kind == "publish":
                        for attr, write_node in dirty.items():
                            mark = (attr, write_node.lineno)
                            if mark in reported:
                                continue
                            reported.add(mark)
                            yield self.finding(
                                module,
                                write_node,
                                f"self.{attr} is restored by "
                                f"{scan.cls.name}'s recovery hook, but "
                                f"this write reaches a .{detail}(...) "
                                f"(line {node.lineno}) with no "
                                f"ctx.stable.put between them; a crash "
                                f"after the {detail} rolls back state "
                                f"other processes already observed — "
                                f"persist before publishing (write-ahead)",
                            )
                        dirty.clear()


@rule
class PersistWithoutRestore(Rule):
    """DUR003: a ``ctx.stable`` key written but never read back on recovery."""

    id = "DUR003"
    summary = (
        "state persisted under a ctx.stable key the recovery hook never "
        "reads back — the put protects nothing after a crash"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        reported: Set[int] = set()
        for scan in _durability_scans(module):
            if scan.dynamic_get:
                continue
            for key, node in scan.put_keys.items():
                if key in scan.get_keys or id(node) in reported:
                    continue
                if not module.contains(node):
                    continue  # put lives in a base class from another module
                reported.add(id(node))
                yield self.finding(
                    module,
                    node,
                    f"{scan.cls.name} persists stable key {key!r} but its "
                    f"recovery hook never reads it back; the state is "
                    f"lost on crash anyway — add the ctx.stable.get to "
                    f"the recovery path (or drop the dead put)",
                )
