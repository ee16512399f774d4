"""DET rules — schedule-determinism of protocol/kernel code.

Every equivalence and replay claim in this repo (delta/full flooding,
byte-identical trace replay) holds only if a protocol is a *function of
the adversary schedule*: same seeds, same schedule, same run.  The DET
family flags the two ways that silently breaks in Python:

* reading ambient nondeterminism (wall clocks, ``os.urandom``, module
  RNG state shared across every process) instead of the injected
  per-process RNG and the kernel's virtual time;
* iterating an unordered ``set`` on a path that sends messages or
  decides — per-run-stable but not sorted, so hash-seed changes and
  interpreter versions reorder sends and shift trace hashes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

from .registry import Rule, rule
from .walker import ModuleInfo, dotted_name

#: Nondeterministic time/identity sources (resolved through import
#: aliases, so ``from time import time; time()`` is caught too).
_FORBIDDEN_SOURCES = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "time.monotonic": "host-monotonic time",
    "time.monotonic_ns": "host-monotonic time",
    "time.perf_counter": "host-performance time",
    "time.perf_counter_ns": "host-performance time",
    "time.sleep": "host sleeping (virtual time never needs it)",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "datetime.now": "wall-clock time",
    "datetime.utcnow": "wall-clock time",
    "datetime.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "os.getrandom": "OS entropy",
    "uuid.uuid1": "host/time-derived identity",
    "uuid.uuid4": "OS-entropy identity",
    "secrets": "OS entropy",
}

#: ``random`` module-level functions — all draw from the interpreter-global
#: RNG, whose state is shared by every simulated process.
_RANDOM_MODULE_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "betavariate", "expovariate",
        "gammavariate", "gauss", "lognormvariate", "normalvariate",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "getrandbits", "randbytes", "seed", "setstate", "getstate",
    }
)

#: Consumers for which element order cannot matter, so iterating an
#: unordered set inside them is fine.
_ORDER_INSENSITIVE_CALLS = frozenset(
    {"sorted", "sum", "min", "max", "len", "set", "frozenset", "any", "all",
     "Counter", "count"}
)


def _resolve(module: ModuleInfo, call: ast.Call) -> Optional[str]:
    """Dotted origin of a call through the module's nondet import aliases.

    Returns ``None`` when the callee does not come from one of the
    tracked stdlib modules (so a local variable named ``time`` can never
    trigger a finding).
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    parts = name.split(".")
    origin = module.nondet_aliases.get(parts[0])
    if origin is None:
        return None
    return ".".join([origin] + parts[1:])


@rule
class NondeterministicSource(Rule):
    """DET001: protocol code reads the wall clock or OS entropy."""

    id = "DET001"
    summary = (
        "protocol/kernel code reads ambient nondeterminism (wall clock, "
        "os.urandom, uuid, secrets) instead of virtual time / injected RNG"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for node in module.walk(ast.Call):
            resolved = _resolve(module, node)
            if resolved is None:
                continue
            why = _FORBIDDEN_SOURCES.get(resolved)
            if why is None and resolved.startswith("secrets."):
                why = _FORBIDDEN_SOURCES["secrets"]
            if why is None:
                continue
            yield self.finding(
                module,
                node,
                f"call to {resolved}() injects {why} into a simulated run; "
                f"use the kernel's virtual time / per-process RNG instead",
            )


@rule
class SharedRandomState(Rule):
    """DET002: protocol code draws from a global, unseeded or shared RNG."""

    id = "DET002"
    summary = (
        "protocol/kernel code uses the global random module, an unseeded "
        "RNG, or an RNG instance shared across process instances"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for node in module.walk(ast.Call):
            resolved = _resolve(module, node)
            if resolved is None:
                continue
            if resolved == "random.Random":
                if not node.args and not node.keywords:
                    yield self.finding(
                        module,
                        node,
                        "unseeded random.Random() seeds itself from OS "
                        "entropy; derive the seed from the run "
                        "configuration (seed, pid) instead",
                    )
                elif self._at_shared_scope(module, node):
                    yield self.finding(
                        module,
                        node,
                        "RNG instance created at module/class scope is "
                        "shared by every simulated process; create one per "
                        "process instance (e.g. in __init__)",
                    )
                continue
            if resolved == "random.SystemRandom":
                yield self.finding(
                    module,
                    node,
                    "random.SystemRandom draws OS entropy; runs cannot be "
                    "reproduced from seeds",
                )
                continue
            parts = resolved.split(".")
            if parts[0] == "random" and len(parts) == 2 and (
                parts[1] in _RANDOM_MODULE_FNS
            ):
                yield self.finding(
                    module,
                    node,
                    f"call to module-level random.{parts[1]}() draws from "
                    f"the interpreter-global RNG shared by every simulated "
                    f"process; use the injected per-process RNG "
                    f"(ctx.random() / a seeded random.Random field)",
                )

    @staticmethod
    def _at_shared_scope(module: ModuleInfo, node: ast.AST) -> bool:
        """True when ``node`` executes at module or class-body scope."""
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, ast.Lambda):
                return False
        return True


@rule
class UnorderedIteration(Rule):
    """DET003: a send or decision fed by iteration over an unordered set."""

    id = "DET003"
    summary = (
        "iteration over an unordered set feeds a send/decision without "
        "sorted(...) — message order then depends on hashing, not the model"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for func in module.functions():
            env = module.set_env(func)
            for node in ast.walk(func):
                if isinstance(node, ast.For) and module.definitely_set(
                    node.iter, env
                ):
                    trigger = self._decision_in_body(node)
                    if trigger is not None:
                        yield self.finding(
                            module,
                            node,
                            f"for-loop iterates an unordered set and "
                            f"{trigger}; wrap the iterable in sorted(...) "
                            f"so send/decision order is a function of the "
                            f"schedule, not of hashing",
                        )
                elif isinstance(node, ast.ListComp):
                    if any(
                        module.definitely_set(gen.iter, env)
                        for gen in node.generators
                    ) and not self._order_insensitive_context(module, node):
                        yield self.finding(
                            module,
                            node,
                            "list built by iterating an unordered set; its "
                            "element order depends on hashing — use "
                            "sorted(...) (or a set/sum if order is "
                            "irrelevant)",
                        )
                elif isinstance(node, ast.DictComp):
                    if any(
                        module.definitely_set(gen.iter, env)
                        for gen in node.generators
                    ):
                        yield self.finding(
                            module,
                            node,
                            "dict built by iterating an unordered set; its "
                            "insertion order depends on hashing, and send "
                            "loops iterate dicts in insertion order — "
                            "iterate sorted(...) instead",
                        )

    @staticmethod
    def _decision_in_body(loop: ast.For) -> Optional[str]:
        loop_var = loop.target.id if isinstance(loop.target, ast.Name) else None
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in ("send", "broadcast", "decide"):
                    return f"calls .{node.func.attr}(...) in its body"
            if isinstance(node, ast.Assign) and loop_var is not None:
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Name)
                        and target.slice.id == loop_var
                    ):
                        return "stores per-target entries keyed by the loop variable"
        return None

    @staticmethod
    def _order_insensitive_context(module: ModuleInfo, node: ast.AST) -> bool:
        parent = module.parent(node)
        if isinstance(parent, ast.Call):
            name = dotted_name(parent.func)
            if name is not None:
                leaf = name.split(".")[-1]
                if leaf in _ORDER_INSENSITIVE_CALLS:
                    return True
        return False


@rule
class NondeterministicHelperCall(Rule):
    """DET004: a call to a helper whose result derives from DET001 sources."""

    id = "DET004"
    summary = (
        "call to a helper whose return value derives from ambient "
        "nondeterminism (wall clock / global RNG) — DET001 laundered "
        "through the call graph"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        index = module.project
        if index is None:
            return  # interprocedural by definition: needs project context
        taint = index.taint
        for node in module.walk(ast.Call):
            if _resolve(module, node) is not None:
                continue  # a direct source call: DET001/DET002 territory
            cls = index.enclosing_class(module, node)
            callee = index.resolve_call(module, node, cls=cls)
            if callee is None:
                continue
            name = dotted_name(node.func)
            dispatch = (
                cls if name is not None and name.startswith("self.") else None
            )
            origin = taint.returns_nondet(callee, cls=dispatch)
            if origin is None:
                continue
            yield self.finding(
                module,
                node,
                f"call to {callee.qualname}() returns a value derived "
                f"from {origin}() — nondeterminism laundered through a "
                f"helper is still nondeterminism; thread the kernel's "
                f"virtual time / per-process RNG through instead",
            )
