"""ALIAS rules — mutation of values that have already left the process.

The simulators move *references*, not bytes: the object handed to
``send``/``broadcast``/``decide`` and the view returned by a snapshot
``scan`` stay aliased to the caller's locals.  Mutating them afterwards
rewrites history at a distance — the receiver observes state the sender
reached *after* the send, which no real network permits.  These rules
flag the pattern statically; ``sanitize=True`` on the kernels (see
:mod:`repro.analyze.freeze`) catches the same class at runtime.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from .registry import Rule, rule
from .walker import MODULE_KINDS, ModuleInfo

#: Call attributes that publish their payload argument.
_PUBLISH_CALLS = {
    "send": 1,       # ctx.send(dst, payload)
    "broadcast": 0,  # ctx.broadcast(payload)
    "decide": 0,     # ctx.decide(value)
}

#: Call attributes whose (yielded-from) result is a shared view.
_VIEW_CALLS = frozenset(
    {"scan", "snapshot", "collect_view", "unsafe_collect_view"}
)


def _nearest_loop(module: ModuleInfo, node: ast.AST, scope: ast.AST):
    """The innermost For/While containing ``node`` within ``scope``."""
    for ancestor in module.ancestors(node):
        if ancestor is scope:
            return None
        if isinstance(ancestor, (ast.For, ast.While)):
            return ancestor
    return None


class _MutateAfterPublish(Rule):
    """Shared engine: names published at some point, mutated later."""

    applies_to = MODULE_KINDS  # aliasing is a bug wherever it happens

    def _published(self, module: ModuleInfo, func) -> List[Tuple[str, ast.AST, str]]:
        raise NotImplementedError

    def check(self, module: ModuleInfo) -> Iterator:
        for func in module.functions():
            published = self._published(module, func)
            if not published:
                continue
            rebinds = list(module.rebindings_in(func))
            mutations = list(module.mutations_in(func))
            mutations.extend(self._callee_mutations(module, func))
            reported = set()
            for name, publish_node, verb in published:
                for mut_name, mut_node, how in mutations:
                    if mut_name != name or mut_node.lineno in reported:
                        continue
                    if self._happens_after(
                        module, func, publish_node, mut_node, rebinds, name
                    ):
                        reported.add(mut_node.lineno)
                        yield self.finding(
                            module,
                            mut_node,
                            f"{name}{how} mutates a value after it was "
                            f"{verb} (line {publish_node.lineno}); the "
                            f"receiver is aliased to this object — build a "
                            f"new object instead of mutating the published "
                            f"one",
                        )

    @staticmethod
    def _callee_mutations(module: ModuleInfo, func) -> List[Tuple[str, ast.AST, str]]:
        """Interprocedural mutation sites: calls that hand a local name to
        a project function whose summary says it mutates that parameter
        (``helper(msg)`` is as much a mutation of ``msg`` as
        ``msg.append`` when ``helper`` appends)."""
        index = module.project
        if index is None:
            return []
        taint = index.taint
        cls = index.enclosing_class(module, func)
        out: List[Tuple[str, ast.AST, str]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                for arg_name, callee_name in taint.call_argument_mutations(
                    module, node, cls=cls
                ):
                    out.append(
                        (
                            arg_name,
                            node,
                            f" handed to {callee_name}(), which",
                        )
                    )
        return out

    @staticmethod
    def _happens_after(module, func, publish_node, mut_node, rebinds, name) -> bool:
        """True when some execution path runs the mutation after the publish
        with no intervening rebind of ``name`` to a fresh object.

        Inside a shared loop the path may wrap around the loop body, so
        textual order alone is not enough; a rebind clears the hazard only
        if it lies on every publish→mutation path.  The publish assignment
        itself (ALIAS002's ``view = ...scan()``) never clears — the bound
        value *is* the published object.
        """
        publish_line = publish_node.lineno
        mut_line = mut_node.lineno
        clearing = [
            node.lineno
            for rebind_name, node in rebinds
            if rebind_name == name and node is not publish_node
        ]
        publish_loop = _nearest_loop(module, publish_node, func)
        if publish_loop is not None and publish_loop is _nearest_loop(
            module, mut_node, func
        ):
            # Wraparound path publish → loop end → loop start → mutation:
            # cleared only by an in-loop rebind after the publish or at/
            # before the mutation.
            loop_start = publish_loop.lineno
            loop_end = getattr(publish_loop, "end_lineno", None) or 10**9
            return not any(
                loop_start <= line <= loop_end
                and (line > publish_line or line <= mut_line)
                for line in clearing
            )
        if mut_line <= publish_line:
            return False
        return not any(publish_line < line <= mut_line for line in clearing)


@rule
class MutateAfterSend(_MutateAfterPublish):
    """ALIAS001: a message object mutated after it was sent or decided."""

    id = "ALIAS001"
    summary = (
        "message object mutated after send/broadcast/decide in the same "
        "scope — the in-flight copy is aliased to the mutated object"
    )

    def _published(self, module: ModuleInfo, func):
        published = []
        for node in ast.walk(func):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _PUBLISH_CALLS
            ):
                continue
            index = _PUBLISH_CALLS[node.func.attr]
            if index < len(node.args) and isinstance(node.args[index], ast.Name):
                published.append(
                    (
                        node.args[index].id,
                        node,
                        f"passed to .{node.func.attr}(...)",
                    )
                )
        return published


@rule
class MutateSnapshotView(_MutateAfterPublish):
    """ALIAS002: a snapshot or scan view mutated after it was taken."""

    id = "ALIAS002"
    summary = (
        "snapshot/scan view mutated after it was taken — views are shared "
        "instantaneous observations, not private buffers"
    )

    def _published(self, module: ModuleInfo, func):
        published = []
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = node.value
            if isinstance(value, (ast.YieldFrom, ast.Await)):
                value = value.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in _VIEW_CALLS
            ):
                published.append(
                    (target.id, node, f"returned by .{value.func.attr}(...)")
                )
        return published
