"""No dead code in the package: every import in a module is used there,
every module-level private name is referenced somewhere in it, and every
public name and method is referenced in it or exported from ``__init__``;
no module imports another's private name; only three places build an
``EvalDomainError``; and no batch jet runs a single point.  Only the
standard library's ``ast`` reads the source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "triweb"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _references(tree) -> set[str]:
    """Every name a tree reads: loaded names, attributes and names imported
    from a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _imported(tree) -> list[str]:
    """The names a module binds by its imports."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def _definitions(tree) -> list[str]:
    """The names a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def _methods(tree) -> list[str]:
    """The methods of the classes a module defines at its top level."""
    return [
        node.name
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    ]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


@pytest.mark.parametrize("name", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(name):
    used = {n.id for n in ast.walk(MODULES[name]) if isinstance(n, ast.Name)}
    assert [n for n in _imported(MODULES[name]) if n not in used] == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(_references, MODULES.values()))
    unused = [
        (name, private)
        for name, tree in MODULES.items()
        for private in filter(_is_private, _definitions(tree))
        if private not in referenced
    ]
    assert unused == []


def test_every_public_name_is_used_or_exported():
    # a public name or method that only tests read belongs in the tests; one
    # that ``__init__`` imports is exported, and the import references it
    referenced = set().union(*map(_references, MODULES.values()))
    unused = [
        (name, public)
        for name, tree in MODULES.items()
        if name != "__init__.py"
        for public in _definitions(tree) + _methods(tree)
        if not public.startswith("_") and public not in referenced
    ]
    assert unused == []


def test_no_module_imports_a_private_name():
    # a module that needs another's private helper calls that module's public entry instead
    imports = [
        (name, node.module, alias.name)
        for name, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("triweb"))
        for alias in node.names
    ]
    private = [(name, module, n) for name, module, n in imports if n.startswith("_")]
    assert imports and private == []


def _callers(name: str) -> set[tuple[str, str]]:
    """(module, dotted path of the enclosing definitions) of every call of ``name``."""
    found = set()

    def visit(node, module, path):
        for child in ast.iter_child_nodes(node):
            inner = path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = path + (child.name,)
            elif isinstance(child, ast.Call):
                callee = child.func
                if getattr(callee, "id", None) == name or getattr(callee, "attr", None) == name:
                    found.add((module, ".".join(path)))
            visit(child, module, inner)

    for module, tree in MODULES.items():
        visit(tree, module, ())
    return found


def test_eval_domain_errors_are_built_in_three_places():
    # every jet error comes from a program's fail, so a point and a batch
    # name a failure alike; the curvature grid's degenerate direction and
    # the independent tree-walking oracle build their own
    assert _callers("EvalDomainError") == {
        ("kernels.py", "compile_expr.fail"),
        ("analysis.py", "curvature_grid"),
        ("expr.py", "eval_value.rec"),
        ("expr.py", "eval_value"),
    }


def test_no_batch_of_one_point():
    # a single point runs its program's point jet; a one-row batch pays the
    # whole batch set-up for it
    one_row = [
        (module, node.lineno)
        for module, tree in MODULES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in {"jet_coeffs_many", "jet_coeffs_or_raise"}
        for arg in [*node.args, *(k.value for k in node.keywords)]
        if isinstance(arg, (ast.List, ast.Tuple)) and len(arg.elts) == 1
    ]
    assert one_row == []
