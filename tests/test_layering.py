"""Package layering: every intra-package import is top-level and acyclic."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bihermite"


def _parse_package():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in PACKAGE.glob("*.py")}


def _relative_imports(nodes):
    """(node, imported module names) for every `from .x import ...` among nodes."""
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node, [node.module.split(".")[0]]
            else:
                yield node, [alias.name for alias in node.names]


def test_no_import_inside_a_function():
    nested = []
    for name, tree in _parse_package().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node, _ in _relative_imports(ast.walk(func)):
                    nested.append(f"{name}.{func.name}:{node.lineno}")
    assert nested == []


def test_module_import_graph_is_acyclic():
    graph = {
        name: {dep for _, deps in _relative_imports(tree.body) for dep in deps}
        for name, tree in _parse_package().items()
    }
    done, path = set(), []

    def visit(module):
        if module in path:
            cycle = path[path.index(module):] + [module]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if module in done or module not in graph:
            return
        path.append(module)
        for dep in sorted(graph[module]):
            visit(dep)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)
