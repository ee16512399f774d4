"""Analyzer driver and command line.

``python -m repro.analyze src/ tests/ examples/`` walks the given files
and directories in two phases — parse *everything*, build the
project-wide :class:`~repro.analyze.callgraph.ProjectIndex` (call graph,
class hierarchy, taint summaries), then run every registered rule on
each parsed module (rules see only the module kinds they declare) — so
interprocedural rules (DET004, DUR, ALIAS-through-helpers) see across
file boundaries.  ``# repro: noqa`` suppressions and an optional
baseline are applied per module, and the remainder is reported as text,
JSON, or GitHub workflow-command annotations.  ``--diff REF`` restricts
the gate to findings on lines changed versus a git ref.  Exit status is
the CI contract: 0 when nothing (new) is found, 1 when findings remain,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .callgraph import build_index
from .findings import Finding
from .registry import Rule, all_rules
from .suppress import Baseline, apply_noqa, scan_noqa
from .walker import ModuleInfo

#: Directories never worth descending into.
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "build", "dist",
              ".eggs", "node_modules"}


class Report:
    """Everything one analyzer invocation produced."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []     # actionable (post-noqa/baseline)
        self.suppressed: List[Finding] = []   # silenced by valid noqa
        self.baselined: List[Finding] = []    # grandfathered by the baseline
        self.files_scanned: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_scanned": self.files_scanned,
            "counts": {
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
            },
            "findings": [finding.to_json() for finding in self.findings],
        }


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(set(files))


def analyze_source(
    source: str,
    path: str = "<memory>",
    kind: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Analyze one in-memory module; returns ``(kept, suppressed)``.

    ``kept`` includes NOQA000 findings for malformed suppressions.  The
    main entry point for rule fixture tests.
    """
    active = list(rules) if rules is not None else all_rules()
    try:
        module = ModuleInfo(path, source, kind=kind)
    except SyntaxError as exc:
        return (
            [
                Finding(
                    path=path,
                    line=exc.lineno or 0,
                    col=exc.offset or 0,
                    rule="PARSE000",
                    message=f"file does not parse: {exc.msg}",
                )
            ],
            [],
        )
    # Single-module project context: interprocedural rules still resolve
    # calls *within* the module (the cross-module view needs analyze_paths).
    build_index([module])
    return _check_module(module, source, active)


def _check_module(
    module: ModuleInfo, source: str, active: Sequence[Rule]
) -> Tuple[List[Finding], List[Finding]]:
    raw: List[Finding] = []
    for rule_obj in active:
        if module.kind in rule_obj.applies_to:
            raw.extend(rule_obj.check(module))
    kept, suppressed, noqa_errors = apply_noqa(
        raw, scan_noqa(source), module.path
    )
    kept.extend(noqa_errors)
    return sorted(kept), sorted(suppressed)


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> Report:
    """Analyze every python file under ``paths``.

    Two phases: parse every file and index the whole set (so
    ``module.project`` lets rules resolve calls, hierarchies, and taint
    summaries across files), then run the rules module by module.
    """
    active = list(rules) if rules is not None else all_rules()
    report = Report()
    parsed: List[Tuple[str, str, Optional[ModuleInfo], Optional[Finding]]] = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        report.files_scanned += 1
        try:
            module: Optional[ModuleInfo] = ModuleInfo(file_path, source)
            failure: Optional[Finding] = None
        except SyntaxError as exc:
            module = None
            failure = Finding(
                path=file_path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                rule="PARSE000",
                message=f"file does not parse: {exc.msg}",
            )
        parsed.append((file_path, source, module, failure))
    build_index([module for _, _, module, _ in parsed if module is not None])
    for file_path, source, module, failure in parsed:
        if module is None:
            report.findings.append(failure)
            continue
        kept, suppressed = _check_module(module, source, active)
        report.suppressed.extend(suppressed)
        if baseline is not None:
            kept, old = baseline.split(kept)
            report.baselined.extend(old)
        report.findings.extend(kept)
    report.findings.sort()
    report.suppressed.sort()
    report.baselined.sort()
    return report


def parse_diff_lines(diff_text: str) -> Dict[str, Set[int]]:
    """New-side changed line numbers per file from a unified diff.

    Pure (testable without git): feed it ``git diff -U0 REF`` output.
    """
    changed: Dict[str, Set[int]] = {}
    current: Optional[str] = None
    hunk = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@")
    for line in diff_text.splitlines():
        if line.startswith("+++ "):
            target = line[4:].strip()
            if target.startswith("b/"):
                target = target[2:]
            current = None if target == "/dev/null" else target
        elif line.startswith("@@") and current is not None:
            match = hunk.match(line)
            if match is None:
                continue
            start = int(match.group(1))
            count = int(match.group(2)) if match.group(2) is not None else 1
            if count:
                changed.setdefault(current, set()).update(
                    range(start, start + count)
                )
    return changed


def changed_lines_vs(ref: str, paths: Sequence[str]) -> Dict[str, Set[int]]:
    """Changed lines versus a git ref for the analyzed paths."""
    diff = subprocess.run(
        ["git", "diff", "-U0", ref, "--", *paths],
        capture_output=True,
        text=True,
        check=True,
    )
    return parse_diff_lines(diff.stdout)


def restrict_to_diff(
    findings: List[Finding], changed: Dict[str, Set[int]]
) -> List[Finding]:
    """Findings whose (path, line) falls on a changed line."""
    kept: List[Finding] = []
    for finding in findings:
        candidates = {finding.path, os.path.relpath(finding.path)}
        candidates = {path.replace(os.sep, "/").lstrip("./") for path in candidates}
        if any(finding.line in changed.get(path, ()) for path in candidates):
            kept.append(finding)
    return kept


def render_github(finding: Finding) -> str:
    """One GitHub Actions workflow-command annotation for a finding."""
    message = finding.message.replace("%", "%25").replace("\n", "%0A")
    return (
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col + 1},title={finding.rule}::{message}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``python -m repro.analyze`` command line; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description=(
            "Determinism & protocol-safety static analyzer for the repro "
            "codebase (DET/MDL/ALIAS rule families)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help=(
            "output format (json is machine-readable; github emits "
            "workflow-command annotations that show up inline on PRs)"
        ),
    )
    parser.add_argument(
        "--diff", metavar="REF",
        help=(
            "gate only findings on lines changed vs this git ref "
            "(e.g. origin/main); untouched legacy findings don't fail "
            "the run"
        ),
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="JSON baseline of grandfathered findings to subtract",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="snapshot current findings to FILE and exit 0",
    )
    parser.add_argument(
        "--rules", metavar="IDS",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_obj in all_rules():
            kinds = ",".join(rule_obj.applies_to)
            print(f"{rule_obj.id}  [{kinds}]  {rule_obj.summary}")
        return 0

    rules: Optional[List[Rule]] = None
    if args.rules:
        from .registry import get_rule

        rules = [get_rule(token.strip()) for token in args.rules.split(",")]

    baseline = None
    if args.baseline:
        if not os.path.exists(args.baseline):
            parser.error(f"baseline file not found: {args.baseline}")
        baseline = Baseline.load(args.baseline)

    try:
        report = analyze_paths(args.paths, rules=rules, baseline=baseline)
    except FileNotFoundError as exc:
        parser.error(f"no such file or directory: {exc}")

    if args.diff:
        try:
            changed = changed_lines_vs(args.diff, args.paths)
        except (OSError, subprocess.CalledProcessError) as exc:
            parser.error(f"--diff {args.diff}: git diff failed: {exc}")
        report.findings = restrict_to_diff(report.findings, changed)

    if args.write_baseline:
        Baseline.from_findings(report.findings).save(args.write_baseline)
        print(
            f"wrote baseline of {len(report.findings)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    if args.format == "json":
        json.dump(report.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif args.format == "github":
        for finding in report.findings:
            print(render_github(finding))
        print(
            f"{report.files_scanned} file(s) scanned: "
            f"{len(report.findings)} finding(s)"
        )
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{report.files_scanned} file(s) scanned: "
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed by noqa, "
            f"{len(report.baselined)} baselined"
        )
        print(summary if not report.findings else f"\n{summary}")
    return 1 if report.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
