"""Unit tests for :mod:`repro.analyze.callgraph`.

The index is exercised exactly the way rules use it: modules are parsed
with repro-shaped paths (``repro/amp/...``), indexed together, and then
queried for name resolution, class hierarchy, concrete-class method
dispatch, and nondet re-export propagation.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import repro
from repro.analyze.callgraph import build_index
from repro.analyze.walker import ModuleInfo, module_name_from_path

from tests.test_package_exports import PACKAGES


def make(path, source):
    return ModuleInfo(path, textwrap.dedent(source))


class TestModuleNaming:
    def test_repro_anchored(self):
        assert module_name_from_path("src/repro/amp/abd.py") == "repro.amp.abd"

    def test_tmp_trees_resolve_the_same(self):
        assert (
            module_name_from_path("/tmp/x/repro/amp/p.py") == "repro.amp.p"
        )

    def test_init_names_package(self):
        assert module_name_from_path("src/repro/amp/__init__.py") == "repro.amp"

    def test_loose_file_is_its_stem(self):
        assert module_name_from_path("scratch.py") == "scratch"


class TestNameResolution:
    def _index(self):
        util = make(
            "repro/amp/util.py",
            """
            def helper():
                return 1
            """,
        )
        proto = make(
            "repro/amp/proto.py",
            """
            from .util import helper
            from . import util

            def local():
                return helper()
            """,
        )
        return build_index([util, proto]), proto

    def test_relative_import_resolves(self):
        index, proto = self._index()
        assert index.resolve_name(proto, "helper") == "repro.amp.util.helper"

    def test_own_definition_resolves(self):
        index, proto = self._index()
        assert index.resolve_name(proto, "local") == "repro.amp.proto.local"

    def test_dotted_tail_rides_along(self):
        index, proto = self._index()
        assert (
            index.resolve_name(proto, "util.helper")
            == "repro.amp.util.helper"
        )

    def test_unknown_name_is_none(self):
        index, proto = self._index()
        assert index.resolve_name(proto, "unknown") is None

    def test_function_at_and_call_resolution(self):
        index, proto = self._index()
        assert index.function_at("repro.amp.util.helper").name == "helper"
        local = index.functions["repro.amp.proto:local"]
        [(call, callee)] = list(index.calls_in(local))
        assert callee is not None
        assert callee.key == "repro.amp.util:helper"

    def _through_package(self, init_source):
        util = make(
            "repro/amp/util.py",
            """
            def helper():
                return 1
            """,
        )
        init = make("repro/amp/__init__.py", init_source)
        user = make(
            "repro/shm/user.py",
            """
            from repro.amp import helper

            def use():
                return helper()
            """,
        )
        index = build_index([util, init, user])
        [(call, callee)] = list(index.calls_in(index.functions["repro.shm.user:use"]))
        return init, callee

    def test_package_init_reexport_resolves(self):
        # In an __init__.py, ``.`` is the package itself, not its parent.
        init, callee = self._through_package("from .util import helper\n")
        assert init.import_map["helper"] == "repro.amp.util.helper"
        assert callee is not None and callee.key == "repro.amp.util:helper"

    def test_export_table_reexport_resolves(self):
        init, callee = self._through_package(
            """
            from .. import _exports

            _EXPORTS = {"util": ("helper",)}

            __getattr__, __dir__, __all__ = _exports.lazy_exports(__name__, _EXPORTS)
            """
        )
        assert init.import_map["helper"] == "repro.amp.util.helper"
        assert callee is not None and callee.key == "repro.amp.util:helper"

    def test_export_table_only_counts_in_a_package(self):
        module = make("repro/amp/proto.py", '_EXPORTS = {"util": ("helper",)}\n')
        assert "helper" not in module.import_map


class TestPackageExportTables:
    """The index reads every package's ``_EXPORTS`` table, so each public
    function and class resolves through its package to its definition."""

    def test_every_public_function_and_class_resolves(self):
        src = Path(repro.__file__).resolve().parent
        index = build_index(
            ModuleInfo(str(path), path.read_text()) for path in sorted(src.rglob("*.py"))
        )
        unresolved = []
        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                value = getattr(module, name)
                if not (inspect.isclass(value) or inspect.isfunction(value)):
                    continue
                target = f"{package}.{name}"
                if index.function_at(target) is None and index._class_at(target) is None:
                    unresolved.append(target)
        assert not unresolved, unresolved


class TestClassHierarchy:
    def _index(self):
        base = make(
            "repro/amp/base.py",
            """
            class Node:
                def on_message(self, ctx, src, m):
                    self.step(ctx)

                def step(self, ctx):
                    pass
            """,
        )
        sub = make(
            "repro/amp/sub.py",
            """
            from .base import Node

            class Fancy(Node):
                def step(self, ctx):
                    ctx.send(0, "fancy")
            """,
        )
        return build_index([base, sub])

    def test_cross_module_base_links(self):
        index = self._index()
        fancy = index.classes["repro.amp.sub:Fancy"]
        assert [cls.name for cls in fancy.mro()] == ["Fancy", "Node"]

    def test_resolve_method_honors_override(self):
        index = self._index()
        fancy = index.classes["repro.amp.sub:Fancy"]
        assert fancy.resolve_method("step").qualname == "Fancy.step"
        assert fancy.resolve_method("on_message").qualname == "Node.on_message"
        assert fancy.resolve_method("missing") is None

    def test_self_dispatch_uses_concrete_class(self):
        # The same self.step(ctx) call site dispatches differently
        # depending on which concrete class is under analysis.
        index = self._index()
        handler = index.functions["repro.amp.base:Node.on_message"]
        node = index.classes["repro.amp.base:Node"]
        fancy = index.classes["repro.amp.sub:Fancy"]
        call = next(
            n for n in ast.walk(handler.node) if isinstance(n, ast.Call)
        )
        as_node = index.resolve_call(handler.module, call, cls=node)
        as_fancy = index.resolve_call(handler.module, call, cls=fancy)
        assert as_node.qualname == "Node.step"
        assert as_fancy.qualname == "Fancy.step"


class TestNondetPropagation:
    def test_reexport_chain_reaches_fixpoint(self):
        clock = make(
            "repro/amp/clock.py",
            """
            from time import time as wall
            """,
        )
        middle = make(
            "repro/amp/middle.py",
            """
            from .clock import wall
            """,
        )
        proto = make(
            "repro/amp/proto.py",
            """
            from .middle import wall
            """,
        )
        build_index([clock, middle, proto])
        assert clock.nondet_aliases["wall"] == "time.time"
        assert middle.nondet_aliases["wall"] == "time.time"
        assert proto.nondet_aliases["wall"] == "time.time"
