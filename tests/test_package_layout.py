import ast
import importlib
from pathlib import Path

import pushgraph

# the package re-exports the function push, which shadows the submodule name
hom = importlib.import_module("pushgraph.hom")
push = importlib.import_module("pushgraph.push")
PACKAGE = Path(pushgraph.__file__).parent


def _relative_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield from [node.module] if node.module else (a.name for a in node.names)


def test_no_function_level_imports():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom))]
                assert not nested, f"{path.name}:{node.name} imports inside a function"


def test_module_import_graph_is_acyclic():
    graph = {
        path.stem: set(_relative_imports(ast.parse(path.read_text())))
        for path in PACKAGE.glob("*.py")
    }
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        for dep in graph.get(module, ()):
            visit(dep, path + [module])
        done.add(module)

    for module in graph:
        visit(module, [])


def test_one_push_witness_type_and_fold():
    assert hom.PushHomWitness is push.PushHomWitness
    assert hom.fold_to_push_witness is push.fold_to_push_witness
