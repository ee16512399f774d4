"""QRM rules — quorum arithmetic and ack-counting discipline.

Every intersection argument in the repo (ABD reads meet writes, URB
echo quorums, Paxos promise/accept majorities, SCD majority-stability)
rests on two fragile lines of Python: the threshold (``n // 2 + 1``) and
the count compared against it.  The QRM family flags the three ways
those lines silently go wrong:

* **QRM001** — a "majority" written as ``n // 2`` and compared with
  ``>=``: for even ``n`` two disjoint sets of size ``n // 2`` both pass,
  so two writers can finish against non-intersecting "quorums".
* **QRM002** — a counter that is *populated* without sender identity
  (``count += 1``, ``replies.append(...)``) but *compared* against a
  quorum threshold: one duplicated or retransmitted message (the
  fair-loss/`DuplicatingLink` menu makes those first-class) counts the
  same server twice and a "quorum" can be two messages from one process.
* **QRM003** — the same counter compared against *different* threshold
  expressions in different handlers; whichever one is wrong, the two
  phases no longer argue about the same intersection.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .registry import Rule, rule
from .walker import ModuleInfo, _root_name

_QUORUMISH_TOKENS = ("quorum", "majority")


def _plain_floordiv2(expr: ast.AST) -> bool:
    """``E // 2`` where E is *not* itself arithmetic — ``(n + 1) // 2``
    (a correct strict-minority bound) is exempt by construction."""
    return (
        isinstance(expr, ast.BinOp)
        and isinstance(expr.op, ast.FloorDiv)
        and isinstance(expr.right, ast.Constant)
        and expr.right.value == 2
        and not isinstance(expr.left, ast.BinOp)
    )


def _quorumish(expr: ast.AST) -> bool:
    """True when an expression smells like a quorum threshold: contains a
    ``// 2`` or a name mentioning quorum/majority."""
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.right, ast.Constant)
            and node.right.value == 2
        ):
            return True
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None and any(
            token in name.lower() for token in _QUORUMISH_TOKENS
        ):
            return True
    return False


def _self_attrs_in(expr: ast.AST) -> Set[str]:
    """Attribute names read off ``self`` anywhere inside ``expr``."""
    found: Set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            found.add(node.attr)
    return found


def _local_names_in(expr: ast.AST) -> Set[str]:
    return {
        node.id for node in ast.walk(expr) if isinstance(node, ast.Name)
    } - {"self", "len"}


def _compare_pairs(node: ast.Compare) -> Iterator[Tuple[ast.AST, ast.cmpop, ast.AST]]:
    operands = [node.left] + list(node.comparators)
    for index, op in enumerate(node.ops):
        yield operands[index], op, operands[index + 1]


@rule
class OffByOneMajority(Rule):
    """QRM001: a majority threshold written as ``n // 2``."""

    id = "QRM001"
    summary = (
        "majority threshold written as n // 2 (compared with >=, or bound "
        "to a quorum-named variable) — off by one for even n, so two "
        "disjoint 'majorities' can coexist"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for node in module.walk(ast.Compare):
            for left, op, right in _compare_pairs(node):
                if isinstance(op, ast.GtE) and _plain_floordiv2(right):
                    yield self.finding(
                        module,
                        node,
                        "count >= n // 2 passes for two disjoint sets when "
                        "n is even — a majority is n // 2 + 1; write "
                        "count > n // 2 (or >= n // 2 + 1)",
                    )
                elif isinstance(op, ast.LtE) and _plain_floordiv2(left):
                    yield self.finding(
                        module,
                        node,
                        "n // 2 <= count passes for two disjoint sets when "
                        "n is even — a majority is n // 2 + 1; write "
                        "n // 2 < count",
                    )
                elif (
                    isinstance(op, ast.Gt)
                    and isinstance(right, ast.BinOp)
                    and isinstance(right.op, ast.Add)
                    and _plain_floordiv2(right.left)
                    and isinstance(right.right, ast.Constant)
                    and right.right.value == 1
                ):
                    yield self.finding(
                        module,
                        node,
                        "count > n // 2 + 1 demands a super-majority — the "
                        "phase never completes when exactly the majority "
                        "answers; write >= n // 2 + 1",
                    )
        for node in module.walk(ast.Assign, ast.AnnAssign):
            value = getattr(node, "value", None)
            if value is None or not _plain_floordiv2(value):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = (
                    target.id
                    if isinstance(target, ast.Name)
                    else target.attr
                    if isinstance(target, ast.Attribute)
                    else None
                )
                if name is not None and any(
                    token in name.lower() for token in _QUORUMISH_TOKENS
                ):
                    yield self.finding(
                        module,
                        node,
                        f"{name} = n // 2 is a *minority* bound, not a "
                        f"majority (n=4 gives 2, and two such sets can be "
                        f"disjoint); a majority quorum is n // 2 + 1",
                    )


class _CounterScan:
    """Populate sites and quorum comparisons for one name scope."""

    def __init__(self) -> None:
        self.populates: Dict[str, List[Tuple[ast.AST, str]]] = {}
        self.compares: Dict[str, List[Tuple[str, ast.AST]]] = {}

    def add_populate(self, name: str, node: ast.AST, how: str) -> None:
        self.populates.setdefault(name, []).append((node, how))

    def add_compare(self, name: str, threshold: ast.AST, node: ast.AST) -> None:
        rendered = ast.unparse(threshold)
        self.compares.setdefault(name, []).append((rendered, node))


def _scan_self_counters(scope: ast.AST) -> _CounterScan:
    """Counting discipline of ``self.<name>`` across a class/method scope."""
    scan = _CounterScan()
    for node in ast.walk(scope):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target_root = node.target
            while isinstance(target_root, ast.Subscript):
                target_root = target_root.value
            if (
                isinstance(target_root, ast.Attribute)
                and isinstance(target_root.value, ast.Name)
                and target_root.value.id == "self"
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                scan.add_populate(target_root.attr, node, "+= 1")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
        ):
            root = node.func.value
            while isinstance(root, ast.Subscript):
                root = root.value
            if (
                isinstance(root, ast.Attribute)
                and isinstance(root.value, ast.Name)
                and root.value.id == "self"
            ):
                scan.add_populate(root.attr, node, ".append(...)")
        elif isinstance(node, ast.Compare):
            for left, _op, right in _compare_pairs(node):
                for side, other in ((left, right), (right, left)):
                    if not _quorumish(other):
                        continue
                    for attr in _self_attrs_in(side) - _self_attrs_in(other):
                        scan.add_compare(attr, other, node)
    return scan


def _scan_local_counters(func: ast.AST) -> _CounterScan:
    """Same discipline for function-local names (``bucket = ...``)."""
    scan = _CounterScan()
    for node in ast.walk(func):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            if (
                isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, int)
            ):
                scan.add_populate(node.target.id, node, "+= 1")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
        ):
            scan.add_populate(node.func.value.id, node, ".append(...)")
        elif isinstance(node, ast.Compare):
            for left, _op, right in _compare_pairs(node):
                for side, other in ((left, right), (right, left)):
                    if not _quorumish(other):
                        continue
                    for name in _local_names_in(side) - _local_names_in(other):
                        scan.add_compare(name, other, node)
    return scan


@rule
class UnkeyedQuorumCount(Rule):
    """QRM002: a quorum counter that ignores sender identity."""

    id = "QRM002"
    summary = (
        "quorum counter populated without sender identity (+= 1 / "
        ".append) — a duplicated or retransmitted message counts one "
        "process twice"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        reported: Set[int] = set()
        scans = [_scan_self_counters(cls) for cls in module.classes()]
        scans.extend(_scan_local_counters(func) for func in module.functions())
        for scan in scans:
            for name, sites in scan.populates.items():
                compares = scan.compares.get(name)
                if not compares:
                    continue
                threshold, compare_node = compares[0]
                for site, how in sites:
                    if id(site) in reported:
                        continue
                    reported.add(id(site))
                    yield self.finding(
                        module,
                        site,
                        f"{name} is populated with {how} (no sender "
                        f"identity) but compared against quorum threshold "
                        f"{threshold!r} (line {compare_node.lineno}); a "
                        f"duplicated/retransmitted message double-counts "
                        f"one process — key the count by sender (set/dict "
                        f"of pids) so each counts once",
                    )


@rule
class InconsistentThreshold(Rule):
    """QRM003: one counter compared against different quorum thresholds."""

    id = "QRM003"
    summary = (
        "the same counter is compared against different quorum threshold "
        "expressions in different places — at most one of them matches "
        "the intersection argument"
    )

    def check(self, module: ModuleInfo) -> Iterator:
        for cls in module.classes():
            scan = _scan_self_counters(cls)
            for name, compares in scan.compares.items():
                first, first_node = compares[0]
                seen = {first}
                for rendered, node in compares[1:]:
                    if rendered in seen:
                        continue
                    seen.add(rendered)
                    yield self.finding(
                        module,
                        node,
                        f"self.{name} is compared against {rendered!r} "
                        f"here but {first!r} at line {first_node.lineno} — "
                        f"mismatched thresholds for the same counter "
                        f"cannot both satisfy the intersection argument; "
                        f"hoist one shared threshold",
                    )
