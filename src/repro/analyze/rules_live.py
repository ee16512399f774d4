"""LIVE rules — handler liveness in the event-driven (AMP) node API.

The asynchronous kernel is cooperative: a handler (``on_start`` /
``on_message`` / ``on_timer`` / ``on_recover``) runs to completion at one
virtual instant, and *returning* is what hands control back so other
processes' events can fire.  A handler that never returns doesn't slow
the simulation down — it wedges it, with virtual time frozen forever.
The LIVE family flags the two static shapes of that bug, using the call
graph so a loop or recursion buried in a ``self._helper()`` three calls
deep is as visible as one written inline:

* **LIVE001** — a ``while True``-style loop with no ``break`` /
  ``return`` / ``raise`` in a method reachable from a handler.
  Protocol repetition belongs in timers (``ctx.set_timer``), which keep
  virtual time moving and stay crash-interruptible.
* **LIVE002** — a handler that transitively calls *itself* through
  ``self.*`` dispatch: without a message/timer hop in between there is
  no kernel-mediated base case, and one delivery can recurse to the
  stack limit.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple

from .registry import Rule, rule
from .walker import ModuleInfo
from .taint import HANDLER_METHODS


def _project(module: ModuleInfo):
    if module.project is None:
        from .callgraph import build_index

        build_index([module])
    return module.project


def _module_classes(module: ModuleInfo):
    index = _project(module)
    return [info for info in index.classes.values() if info.module is module]


def _constant_true(expr: ast.AST) -> bool:
    return isinstance(expr, ast.Constant) and bool(expr.value)


def _inescapable_loops(func_node: ast.AST) -> Iterator[ast.While]:
    """``while True`` loops containing no break/return/raise anywhere."""
    for node in ast.walk(func_node):
        if not (isinstance(node, ast.While) and _constant_true(node.test)):
            continue
        if any(
            isinstance(inner, (ast.Break, ast.Return, ast.Raise))
            for inner in ast.walk(node)
        ):
            continue
        yield node


@rule
class BlockingHandlerLoop(Rule):
    """LIVE001: a handler-reachable ``while True`` that never exits."""

    id = "LIVE001"
    summary = (
        "handler-reachable while True with no break/return/raise — the "
        "handler never returns control to the kernel and virtual time "
        "freezes"
    )
    applies_to = ("amp",)

    def check(self, module: ModuleInfo) -> Iterator:
        index = _project(module)
        taint = index.taint
        reported: Set[int] = set()
        for cls_info in _module_classes(module):
            for handler, reachable in taint.reachable_methods(cls_info).items():
                for func in reachable:
                    if func.module is not module:
                        continue
                    for loop in _inescapable_loops(func.node):
                        if id(loop) in reported:
                            continue
                        reported.add(id(loop))
                        via = (
                            "directly in"
                            if func.name == handler
                            else f"in {func.qualname}(), reachable from"
                        )
                        yield self.finding(
                            module,
                            loop,
                            f"while True with no break/return/raise {via} "
                            f"the {handler} handler of {cls_info.name}; "
                            f"the kernel is cooperative — a handler that "
                            f"never returns freezes virtual time for "
                            f"every process; repeat via ctx.set_timer "
                            f"instead",
                        )


@rule
class RecursiveHandler(Rule):
    """LIVE002: a handler that transitively calls itself."""

    id = "LIVE002"
    summary = (
        "handler transitively calls itself through self.* dispatch — no "
        "kernel-mediated base case, one delivery can recurse to the "
        "stack limit"
    )
    applies_to = ("amp",)

    def check(self, module: ModuleInfo) -> Iterator:
        index = _project(module)
        taint = index.taint
        reported: Set[Tuple[str, int]] = set()
        for cls_info in _module_classes(module):
            for handler in HANDLER_METHODS:
                entry = cls_info.resolve_method(handler)
                if entry is None:
                    continue
                visited: Set[str] = set()
                stack: List = [entry]
                while stack:
                    func = stack.pop()
                    if func.key in visited:
                        continue
                    visited.add(func.key)
                    for call, callee in taint.self_call_edges(func, cls_info):
                        if callee.key == entry.key:
                            if func.module is not module or not module.contains(
                                call
                            ):
                                continue
                            mark = (entry.key, call.lineno)
                            if mark in reported:
                                continue
                            reported.add(mark)
                            path = (
                                "calls itself"
                                if func.key == entry.key
                                else f"reaches itself through "
                                f"{func.qualname}()"
                            )
                            yield self.finding(
                                module,
                                call,
                                f"{handler} of {cls_info.name} {path} via "
                                f"self-dispatch; handler recursion has no "
                                f"kernel-mediated base case — send "
                                f"yourself a message or set a timer so "
                                f"each step is a separate, crash-"
                                f"interruptible event",
                            )
                        else:
                            stack.append(callee)
