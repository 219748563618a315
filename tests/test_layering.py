"""The import graph points downward: nothing below ``api/`` imports it.

Behaviour names resolve through plain tables owned by the layer that
implements their members (``repro.advisor.advisor``,
``repro.inum.workload_builder``), so the lower layers never need the service
layer -- and therefore need no function-local imports to dodge a cycle.
Likewise a plan is one ``PlanNode`` class whose consumers read ``node.op``,
so nothing outside ``optimizer/plan.py`` names a node subclass or asks
``isinstance(..., PlanNode)``.  And a plan cache is built in one place,
``build_one_cache``, reached only from the session's lookup chain and the
standalone cost-model helper.  And the catalog is written only by its own
package: a what-if configuration is an argument of the optimizer call, never
catalog state.  And an optimizer call is counted in one place,
``Optimizer.optimize``: every other call number is a difference of its
``call_count``.  This module pins all five by walking the source with
:mod:`ast` (and, for removed counter names, its text).
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.inum.workload_builder import CACHE_BUILDERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: The only function-local ``repro`` imports left in the lower layers, as
#: (file, enclosing function): the one-shot facade over the session that is
#: built on top of it, and the first-use import of the ILP package.
ALLOWED_LOCAL_IMPORTS = {
    ("advisor/advisor.py", "IndexAdvisor.recommend"),
    ("advisor/advisor.py", "_ilp_selector"),
}

#: Where (b) applies; other local imports are other cycles or start-up choices.
LOWER_LAYERS = ("advisor/", "inum/", "pinum/", "optimizer/", "api/requests.py")

#: The catalog overlay and hook buffer that became optimizer-call arguments
#: and result fields.
REMOVED_WHATIF_NAMES = frozenset({"only_indexes", "with_indexes", "collected_access_paths"})

#: Second counts of optimizer calls and memo traffic, and counters nothing
#: read, that became differences of ``Optimizer.call_count`` or went away;
#: and the copies of recommends, polls, re-tunes, stream lines and store
#: loads kept beside the one count (a latency histogram's ``_count``, the
#: tuner's ``retunes_*``, the source's ``StreamStatistics``, the session's
#: ``caches_*``).
REMOVED_COUNTER_NAMES = frozenset({
    "hit_baseline", "hits_since", "whatif_cache_misses", "whatif_requests",
    "entries_cached", "call_log", "CallRecord", "record_miss",
    "total_optimization_seconds", "memo_counters",
    "note_retune", "SESSION_RECOMMENDS", "SESSION_RETUNES", "ONLINE_POLLS",
    "CacheStoreStatistics", "_malformed_reported",
    "repro_session_recommends_total", "repro_session_retunes_total",
    "repro_online_polls_total",
})

#: The plan-node classes that became ``PlanNode`` + ``Operator``.
REMOVED_PLAN_NAMES = frozenset({
    "ScanNode", "SortNode", "JoinNode", "HashJoinNode", "MergeJoinNode",
    "NestLoopJoinNode", "AggregateNode", "LeafSlot",
})


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _imports(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(imported module, enclosing function or "")`` for every runtime import."""

    def walk(node: ast.AST, scope: Tuple[str, ...], in_function: bool) -> Iterator[Tuple[str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                for other in child.orelse:
                    yield from walk(other, scope, in_function)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                where = ".".join(scope) if in_function else ""
                if isinstance(child, ast.Import):
                    for alias in child.names:
                        yield alias.name, where
                elif child.level == 0 and child.module:
                    yield child.module, where
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, scope + (child.name,), True)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, scope + (child.name,), in_function)
            else:
                yield from walk(child, scope, in_function)

    return walk(tree, (), False)


def _modules() -> Iterator[Tuple[str, ast.AST]]:
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text(encoding="utf-8"))


def _under(module: str, *packages: str) -> bool:
    return any(module == package or module.startswith(package + ".") for package in packages)


def test_nothing_below_the_service_layer_imports_it():
    offenders: List[str] = []
    for name, tree in _modules():
        if name.startswith(("api/", "online/")) or name in ("cli.py", "__init__.py"):
            continue
        for module, where in _imports(tree):
            if _under(module, "repro.api", "repro.online") and (
                (name, where) not in ALLOWED_LOCAL_IMPORTS
            ):
                offenders.append(f"{name}: imports {module}" + (f" in {where}" if where else ""))
    assert offenders == []


def test_lower_layers_have_no_cycle_dodging_local_imports():
    found = {
        (name, where)
        for name, tree in _modules()
        if name.startswith(LOWER_LAYERS)
        for module, where in _imports(tree)
        if where and _under(module, "repro")
    }
    assert found == ALLOWED_LOCAL_IMPORTS


def test_importing_the_cli_loads_neither_the_ilp_package_nor_the_tcp_server():
    """``repro recommend`` must not pay for what only some runs use.

    Nor for a process pool: caches are built in one serial pass, so no
    ``concurrent.futures`` or ``multiprocessing`` module belongs in a CLI
    process (only ``serve --tcp`` loads a thread pool, with the server).
    """
    code = (
        "import sys, repro.cli\n"
        "print([m for m in sys.modules\n"
        "       if m.startswith(('repro.advisor.ilp', 'concurrent.futures',\n"
        "                        'multiprocessing'))\n"
        "       or m == 'repro.api.server'])"
    )
    output = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    assert output.strip() == "[]"


def _calls(tree: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(callee, enclosing function)`` for every call; a call through a
    subscript (``TABLE[name](...)``) is reported as ``"TABLE[]"``."""

    def walk(node: ast.AST, scope: Tuple[str, ...]) -> Iterator[Tuple[str, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name):
                    yield func.id, ".".join(scope)
                elif isinstance(func, ast.Attribute):
                    yield func.attr, ".".join(scope)
                elif isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
                    yield f"{func.value.id}[]", ".".join(scope)
            yield from walk(child, scope)

    return walk(tree, ())


def test_plan_caches_are_built_in_one_place():
    """Per-query builders are constructed only by ``build_one_cache``, whose
    only product callers are the lookup chain and the standalone helper: a
    second acquisition chain cannot come back silently."""
    constructors = {"CACHE_BUILDERS[]"} | {cls.__name__ for cls in CACHE_BUILDERS.values()}
    constructed, callers = set(), set()
    for name, tree in _modules():
        for callee, where in _calls(tree):
            if callee in constructors:
                constructed.add((name, where))
            elif callee == "build_one_cache":
                callers.add((name, where))
    assert constructed == {("inum/workload_builder.py", "build_one_cache")}
    assert callers == {
        ("api/tier.py", "PlanCachePool.acquire"),
        ("advisor/benefit.py", "CacheBackedWorkloadCostModel.build"),
    }


def _names(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def test_plan_consumers_dispatch_on_the_operator():
    offenders: List[str] = []
    for folder in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            name = path.relative_to(ROOT).as_posix()
            if name == "src/repro/optimizer/plan.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    removed = REMOVED_PLAN_NAMES & {alias.name for alias in node.names}
                    offenders += [f"{name}:{node.lineno} imports {n}" for n in sorted(removed)]
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2
                    and "PlanNode" in set(_names(node.args[1]))
                ):
                    offenders.append(f"{name}:{node.lineno} isinstance(..., PlanNode)")
    assert offenders == []


def _defined_or_used_names(tree: ast.AST) -> Iterator[str]:
    yield from _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_only_the_catalog_package_writes_indexes_into_the_catalog():
    """No optimizer call, probe or session materializes or drops an index:
    what a call sees is its ``indexes`` argument, so an answer stays a
    function of (query, configuration) and a catalog can be shared."""
    writers = {
        (name, where)
        for name, tree in _modules()
        if not name.startswith("catalog/")
        for callee, where in _calls(tree)
        if callee in ("add_index", "drop_index")
    }
    assert writers == set()
    named = {
        f"{name}: {identifier}"
        for name, tree in _modules()
        for identifier in _defined_or_used_names(tree)
        if identifier in REMOVED_WHATIF_NAMES
    }
    assert named == set()


def _assigns_attribute(tree: ast.AST, attribute: str) -> bool:
    """Whether any assignment (plain, augmented, annotated) writes ``.attribute``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(
            isinstance(child, ast.Attribute) and child.attr == attribute
            for target in targets
            for child in ast.walk(target)
        ):
            return True
    return False


def test_an_optimizer_call_is_counted_in_one_place():
    """Only the optimizer writes ``call_count``, and none of the second
    counts removed beside it or beside the other one-place counts is named
    anywhere in the source, comments and docstrings included."""
    writers = {name for name, tree in _modules() if _assigns_attribute(tree, "call_count")}
    assert writers == {"optimizer/optimizer.py"}
    pattern = re.compile(r"\b(" + "|".join(sorted(REMOVED_COUNTER_NAMES)) + r")\b")
    named = {
        f"{path.relative_to(PACKAGE).as_posix()}: {match.group(1)}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for match in pattern.finditer(path.read_text(encoding="utf-8"))
    }
    assert named == set()
