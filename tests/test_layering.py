"""Package layering: every intra-package import is top-level and acyclic,
the library loads no numpy and the command line no dataclasses or inspect,
the public names are declared once, and the public options stay few."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import bihermite

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


def test_cli_imports_no_private_name_from_deform():
    private = [
        alias.name
        for node, deps in _relative_imports(_parse_package()["cli"].body)
        if deps == ["deform"]
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_no_numpy():
    importers = {
        name for name, tree in _parse_package().items() if "numpy" in _imported_modules(tree)
    }
    assert importers == set()


def test_cli_import_leaves_out_numpy_dataclasses_and_inspect():
    # a fresh interpreter: numpy's import would cost more than the rest of
    # the start-up of the command line together, and dataclasses (which
    # loads inspect) more than a third of it
    modules = "{'numpy', 'dataclasses', 'inspect'}"
    code = f"import sys, bihermite.cli; print(sorted({modules} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


# the scalar constructor and the parser: below the command line every other
# routine reads the backend off its values, and exact ZERO and ONE are
# neutral on both backends
TAKES_EXACT = {"Coeff", "parse_coeff"}


def _public_parameters():
    """(qualified name, parameter names) of every function, constructor
    and public method reachable from bihermite.__all__."""
    for name in bihermite.__all__:
        obj = getattr(bihermite, name)
        if not callable(obj):
            continue
        yield name, inspect.signature(obj).parameters
        if not inspect.isclass(obj):
            continue
        for attr in dir(obj):
            member = getattr(obj, attr)
            if not attr.startswith("_") and (inspect.isfunction(member) or inspect.ismethod(member)):
                yield f"{name}.{attr}", inspect.signature(member).parameters


def test_options_census():
    """The values carry their backend and set the tolerance: no public
    callable takes a tolerance, and only constant constructors take exact."""
    params = list(_public_parameters())
    assert len(params) > 100
    assert [q for q, ps in params if any("tol" in p for p in ps)] == []
    takes_exact = {q for q, ps in params if "exact" in ps}
    assert {q.rsplit(".", 1)[-1] for q in takes_exact} == TAKES_EXACT, sorted(takes_exact)


def test_only_coeffs_and_the_cli_handle_an_exact_flag():
    """No function below the command line takes `exact` or passes `exact=`."""
    found = []
    for name, tree in _parse_package().items():
        if name in ("coeffs", "cli"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = args.posonlyargs + args.args + args.kwonlyargs
                params += [a for a in (args.vararg, args.kwarg) if a]
                found += [f"{name}:{node.lineno} def" for a in params if a.arg == "exact"]
            elif isinstance(node, ast.Call):
                found += [f"{name}:{node.lineno} call" for k in node.keywords if k.arg == "exact"]
    assert found == []


PUBLIC_NAMES = {
    "AlphaPoint", "BiPoly", "Coeff", "DualFamily", "FLOAT_TOL", "GL2", "LieBasisSet",
    "RealPoly", "RepMatrix", "Report",
    "SeriesTruncation", "StructureConstants", "WeylOp", "alpha_matrix",
    "basis_change", "bilinear_generators", "biorthogonality_check", "build_dictionary",
    "classify", "close", "commutator", "deformed_generating_series", "deformed_hermite",
    "deformed_lowering", "deformed_raising", "dual_family",
    "eigenvalue_structure_check", "generating_series_complex", "generating_series_real",
    "gram", "hermite_operator", "hermite_rodrigues", "hermite_sum", "inner_product",
    "intertwine_check", "level_basis", "lie_report", "monomial_to_hermite",
    "ncqm_commutator_suite", "normalizer_sq", "orthonormality_check", "parse_coeff",
    "position_momentum_ops", "qp_representation_suite", "rational_sqrt", "real_hermite",
    "real_inner_product", "real_orthogonality_check", "rep_laws_check",
    "rep_matrix", "rescale", "structure_constants", "Tally", "theta_one_limit_table",
}  # fmt: skip


def test_package_all_is_the_module_lists():
    """bihermite re-exports its modules' __all__ with `from .x import *`, and
    its own __all__ is their concatenation."""
    starred = [
        node.module
        for node in _parse_package()["__init__"].body
        if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]
    ]
    lists = [importlib.import_module(f"bihermite.{m}").__all__ for m in starred]
    assert bihermite.__all__ == [name for names in lists for name in names]
    assert len(set(bihermite.__all__)) == len(bihermite.__all__)
    assert set(bihermite.__all__) == PUBLIC_NAMES and len(PUBLIC_NAMES) == 54
    assert all(hasattr(bihermite, name) for name in PUBLIC_NAMES)


def _defined_names(tree):
    """Names a module binds at top level itself: classes, functions, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_each_module_lists_only_what_it_defines():
    reexported = []
    for name, tree in _parse_package().items():
        if name == "__init__":
            continue
        listed = getattr(importlib.import_module(f"bihermite.{name}"), "__all__", [])
        defined = set(_defined_names(tree))
        reexported += [f"{name}.{n}" for n in listed if n not in defined]
    assert reexported == []
