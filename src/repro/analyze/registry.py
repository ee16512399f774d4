"""Pluggable rule registry.

A rule is a class with an ``id`` (``DET001`` …), a one-line ``summary``,
an ``applies_to`` tuple of module kinds (see
:data:`repro.analyze.walker.MODULE_KINDS`), and a ``check(module)``
generator yielding :class:`~repro.analyze.findings.Finding` objects.

Rules self-register via the :func:`rule` class decorator; the CLI and the
test suite both discover them through :func:`all_rules`.  Third-party /
experiment-local rules can register the same way before invoking
:func:`repro.analyze.cli.main` — the registry is a plain module-level
dict on purpose (no entry-point machinery to stub in a sandbox).
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type

from ..core.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .findings import Finding
    from .walker import ModuleInfo

_RULE_ID = re.compile(r"^[A-Z]{3,8}\d{3}$")


class Rule:
    """Base class for analyzer rules."""

    #: Stable identifier, e.g. ``DET001`` — what noqa comments and
    #: baseline entries refer to.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    summary: str = ""
    #: Module kinds this rule runs on (default: protocol/kernel code only).
    applies_to: Tuple[str, ...] = ("sync", "amp", "shm")

    def check(self, module: "ModuleInfo") -> Iterator["Finding"]:
        raise NotImplementedError

    def finding(self, module: "ModuleInfo", node, message: str) -> "Finding":
        """Build a finding anchored at an AST node of ``module``."""
        from .findings import Finding

        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            qualname=module.qualname_at(node),
        )


_REGISTRY: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: validate and register an analyzer rule."""
    if not _RULE_ID.match(cls.id or ""):
        raise ConfigurationError(
            f"rule {cls.__name__} has invalid id {cls.id!r} "
            f"(want e.g. 'DET001')"
        )
    if cls.id in _REGISTRY and _REGISTRY[cls.id] is not cls:
        raise ConfigurationError(f"duplicate rule id {cls.id}")
    if not cls.summary:
        raise ConfigurationError(f"rule {cls.id} needs a summary line")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instance of one registered rule; raises on unknown ids."""
    _load_builtin_rules()
    if rule_id not in _REGISTRY:
        raise ConfigurationError(
            f"unknown rule {rule_id!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    return _REGISTRY[rule_id]()


def known_rule_ids() -> List[str]:
    """Every registered rule id, sorted."""
    _load_builtin_rules()
    return sorted(_REGISTRY)


def _load_builtin_rules() -> None:
    """Import the built-in rule modules (idempotent, lazy to avoid cycles)."""
    from . import (  # noqa: F401
        rules_alias,
        rules_det,
        rules_dur,
        rules_live,
        rules_mdl,
        rules_qrm,
    )
