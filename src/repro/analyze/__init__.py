"""Determinism & protocol-safety analysis for the ``repro`` codebase.

Two halves, one bug class:

* a **static analyzer** (``python -m repro.analyze src/``) with a
  pluggable rule registry — DET rules guard schedule-determinism, MDL
  rules the model boundary, ALIAS rules mutation of already-published
  values.  Suppressions (``# repro: noqa(RULE): why``) require a
  justification; a JSON baseline grandfathers old findings so CI fails
  only on new ones.  See :mod:`repro.analyze.cli`.
* a **runtime sanitizer**: every kernel accepts ``sanitize=True``, which
  deep-freezes sent messages and snapshot views via
  :func:`repro.analyze.freeze.deep_freeze`, so the aliasing bugs the
  ALIAS rules describe raise :class:`FrozenMutationError` at the
  mutation site instead of corrupting a distant process.

To add a custom rule, subclass :class:`Rule`, decorate with
:func:`rule`, and make sure the defining module is imported before
invoking :func:`repro.analyze.cli.main` — the registry is a plain dict,
no entry-point plumbing.
"""

from .. import _exports

_EXPORTS = {
    "callgraph": (),
    "cli": ("analyze_paths", "analyze_source", "main"),
    "findings": ("Finding",),
    "freeze": (
        "FrozenDict", "FrozenList", "FrozenMutationError", "FrozenSetView",
        "deep_freeze", "is_frozen",
    ),
    "registry": ("Rule", "all_rules", "get_rule", "known_rule_ids", "rule"),
    "rules_alias": (),
    "rules_det": (),
    "rules_dur": (),
    "rules_live": (),
    "rules_mdl": (),
    "rules_qrm": (),
    "suppress": ("Baseline", "NoqaDirective", "apply_noqa", "scan_noqa"),
    "taint": (),
    "walker": ("MODULE_KINDS", "PROTOCOL_KINDS", "ModuleInfo", "classify_path"),
}

__getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
