"""Every public module-level function of the package has a caller in it.

A function only tests reach is code kept for no user. The check reads the
source with ``ast``: a reference to ``<module>.f`` is ``alias.f`` where
``alias`` names that module in the referring file's imports, a bare ``f``
imported from it, or a bare ``f`` inside the module itself.

Exempt are the entry point ``cli.main``, the functions the benchmark traces
by name (``perfbench/layers.py`` ``WRAPPED``, read without importing it)
and ``geom.rotation_from_6d``, the plain-numpy reference of
``rotation_from_6d_var``.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "defmap"
EXEMPT = {("cli", "main"), ("geom", "rotation_from_6d")}


def _imports(tree: ast.Module, package_level: int):
    """(alias -> module, name -> (module, name)) of a file's package imports.

    ``package_level`` is the relative level that names the package itself:
    1 inside it, 0 (as ``from defmap import ...``) outside it.
    """
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == package_level and node.module in (None, "defmap"):
            for a in node.names:
                modules[a.asname or a.name] = a.name
        elif node.level == package_level == 1:
            for a in node.names:
                names[a.asname or a.name] = (node.module, a.name)
    return modules, names


def _wrapped() -> set[tuple[str, str]]:
    """(module, function) pairs of ``WRAPPED`` in perfbench/layers.py."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    modules, _ = _imports(tree, 0)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPPED"]):
            return {(modules[key.id], ast.literal_eval(name))
                    for key, value in zip(node.value.keys, node.value.values)
                    for name in value.elts}
    raise AssertionError("perfbench/layers.py defines no WRAPPED")


def _public_functions_and_references():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    defined = {(mod, node.name) for mod, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    used = set()
    for mod, tree in trees.items():
        modules, names = _imports(tree, 1)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(names.get(node.id, (mod, node.id)))
    return defined, used


def test_every_public_function_has_a_caller_in_the_package():
    defined, used = _public_functions_and_references()
    unused = defined - used - EXEMPT - _wrapped()
    assert not unused, (
        "public functions with no caller in src/: "
        + ", ".join(f"{m}.{n}" for m, n in sorted(unused)))


def test_every_exempt_name_exists():
    # the benchmark wraps each WRAPPED name and fails on a missing one
    for mod, name in sorted(EXEMPT | _wrapped()):
        assert hasattr(importlib.import_module(f"defmap.{mod}"), name), \
            f"{mod}.{name}"
