"""The package's import structure: modules form layers, not a cycle.

`kb` sits over `forward`, which needs only the annotation types from
`kb` and imports them under ``if TYPE_CHECKING:``. An import inside a
function body would hide a cycle from this check and from the reader,
so there is none. Importing the package loads neither `dataclasses`
nor `inspect`, which cost most of its import time when it used them.

The chaining engines run on explicit stacks or queues, so that
``max_chain_depth`` is their one depth bound, not the interpreter's
recursion limit: no function of `forward` or `backward` reaches itself
through calls, nor does any method of `kb`, whose writers all chain
through one forward batch loop on an explicit queue. Nor does any function or `_Parser`
method of `sexpr`, whose one nesting bound is its ``_MAX_DEPTH``.

Terms are filed by `index_key` only in `terms.TermIndex`, so no other
module keeps an index of its own beside the store's, the rules' and the
control table's. Likewise rule instances are applied only in
`forward.Batch.run`, so forward chaining has one loop.

A compound term is a tuple, so ``isinstance(x, tuple)`` holds for one
and cannot tell a tuple of terms from a term: no module asks it, and
code that must tell them apart tests ``type(x) is tuple``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pkb

SRC = Path(pkb.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _is_type_checking_block(node) -> bool:
    return isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"


def _imports(node, in_function=False):
    """(import node, inside a function body) for every import under
    ``node``, skipping ``if TYPE_CHECKING:`` blocks."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking_block(child):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        else:
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from _imports(child, nested)


def _targets(node) -> set:
    """The pkb modules an import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".") for a in node.names]
        return {parts[1] for parts in names if parts[0] == "pkb" and len(parts) > 1}
    if node.level == 0 and (node.module or "").split(".")[0] != "pkb":
        return set()
    module = (node.module or "").removeprefix("pkb").lstrip(".")
    if module:
        return {module.split(".")[0]}
    return {a.name for a in node.names if a.name in MODULES}


def import_graph() -> dict:
    """module -> pkb modules it imports at run time."""
    return {
        name: set().union(*(_targets(node) for node, _ in _imports(tree))) - {name}
        for name, tree in MODULES.items()
    }


def _find_cycle(graph) -> list | None:
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(name, path):
        state[name] = "open"
        for target in sorted(graph.get(name, ())):
            if state.get(target) == "open":
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target, path + [target])
                if cycle:
                    return cycle
        state[name] = "done"
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name, [name])
            if cycle:
                return cycle
    return None


def _functions(body) -> dict:
    return {node.name: node for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def call_graph(tree) -> dict:
    """function -> the functions of the same module that it calls, nested
    function bodies included: a module-level function called by name, and
    in a method of class C another method m of C called as ``self.m``,
    named ``C.m``."""
    functions = {name: (node, {}) for name, node in _functions(tree.body).items()}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            defs = _functions(cls.body)
            methods = {name: f"{cls.name}.{name}" for name in defs}
            functions.update({methods[name]: (node, methods) for name, node in defs.items()})

    def callee(func, methods):
        if isinstance(func, ast.Name):
            return func.id if func.id in functions else None
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id == "self":
            return methods.get(func.attr)
        return None

    return {
        name: {found for call in ast.walk(node) if isinstance(call, ast.Call) and (found := callee(call.func, methods))}
        for name, (node, methods) in functions.items()
    }


def test_every_module_is_parsed():
    assert {"kb", "forward", "backward", "resolution", "truth", "terms"} <= set(MODULES)


def test_no_import_inside_a_function():
    hidden = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        for node, in_function in _imports(tree)
        if in_function
    ]
    assert hidden == []


def test_import_graph_is_acyclic():
    assert _find_cycle(import_graph()) is None


def test_forward_does_not_import_kb():
    graph = import_graph()
    assert "forward" in graph["kb"]
    assert "kb" not in graph["forward"]


def test_cycle_finder_sees_a_cycle():
    assert _find_cycle({"kb": {"forward"}, "forward": {"truth", "kb"}, "truth": set()}) == ["forward", "kb", "forward"]
    assert _find_cycle({"kb": {"forward"}, "forward": {"truth"}, "truth": set()}) is None


@pytest.mark.parametrize("module", ["forward", "backward", "kb", "sexpr"])
def test_engine_call_graph_is_acyclic(module):
    assert _find_cycle(call_graph(MODULES[module])) is None


def test_call_graph_sees_recursion_through_a_nested_function():
    tree = ast.parse("def f():\n    g()\n\ndef g():\n    def h():\n        return f()\n    return h\n\ndef k():\n    k()\n")
    graph = call_graph(tree)
    assert graph == {"f": {"g"}, "g": {"f"}, "k": {"k"}}
    assert _find_cycle(graph) == ["f", "g", "f"]


def test_call_graph_sees_recursion_through_self():
    tree = ast.parse(
        "class P:\n    def term(self):\n        return self.word() or self.term()\n"
        "    def word(self):\n        return other.term()\n\ndef term():\n    return P().term()\n"
    )
    graph = call_graph(tree)
    assert graph == {"term": set(), "P.term": {"P.word", "P.term"}, "P.word": set()}
    assert _find_cycle(graph) == ["P.term", "P.term"]


def _calls_index_key(node) -> bool:
    """Whether ``node`` calls ``index_key``, by name or as an attribute."""
    func = node.func if isinstance(node, ast.Call) else None
    return (isinstance(func, ast.Name) and func.id == "index_key") or (
        isinstance(func, ast.Attribute) and func.attr == "index_key"
    )


def test_only_terms_files_by_index_key():
    filed = [
        f"{name}.py:{node.lineno}"
        for name, tree in MODULES.items()
        if name != "terms"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "setdefault"
        and node.args
        and _calls_index_key(node.args[0])
    ]
    assert filed == []


def _calls_to(node, name) -> list:
    """The calls under ``node`` to ``name``, by name or as an attribute."""
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
    ]


def test_only_the_batch_loop_applies_rule_instances():
    batch = next(node for node in MODULES["forward"].body if isinstance(node, ast.ClassDef) and node.name == "Batch")
    assert len(_calls_to(_functions(batch.body)["run"], "_apply_instance")) == 1
    assert sum(len(_calls_to(tree, "_apply_instance")) for tree in MODULES.values()) == 1


def _tuple_tests(tree) -> list:
    """The lines of ``isinstance`` calls under ``tree`` whose class
    argument names ``tuple``, alone or in a tuple of classes."""
    return [
        call.lineno
        for call in _calls_to(tree, "isinstance")
        if len(call.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "tuple" for n in ast.walk(call.args[1]))
    ]


def test_no_isinstance_tuple_test():
    found = [f"{name}.py:{line}" for name, tree in MODULES.items() for line in _tuple_tests(tree)]
    assert found == []


def test_tuple_test_finder_sees_both_forms():
    tree = ast.parse("isinstance(t, tuple)\nisinstance(t, (list, tuple))\nisinstance(t, Compound)\ntype(t) is tuple\n")
    assert _tuple_tests(tree) == [1, 2]


def test_cli_import_loads_no_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = "import sys, pkb.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
