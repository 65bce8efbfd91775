"""The package's functions are shaped by the callers it has.

A function only tests reach is code kept for no user, and so is a
parameter or default that no caller in the package varies. The checks read
the source with ``ast``: a reference to ``<module>.f`` is ``alias.f`` where
``alias`` names that module in the referring file's imports, a bare ``f``
imported from it, or a bare ``f`` inside the module itself.

- Every public module-level function has a caller in the package. Exempt
  are the entry point ``cli.main``, the functions the benchmark traces by
  name (``perfbench/layers.py`` ``WRAPPED``, read without importing it) and
  ``geom.rotation_from_6d``, the plain-numpy reference of
  ``rotation_from_6d_var``.
- No module assigns ``__all__``: the module itself is its public surface.
- Over the calls of each module-level function (methods are not resolved),
  every default is left out by at least one call, and no parameter gets
  one literal at every call, a default counting as the literal of a call
  that leaves it out. Skipped are the entry point ``cli.main``, functions
  with no call, and the functions ``UNJUDGED`` lists: the package also
  references them without calling them, or calls them with ``*`` or ``**``
  arguments, so the source does not show their bindings. A function that
  comes to be skipped so fails until it is listed with its reason, and a
  listed one that is judged again fails until it leaves the list.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "defmap"
EXEMPT = {("cli", "main"), ("geom", "rotation_from_6d")}
# (module, function) -> why the default and one-literal checks skip it; its
# defaults and parameters were checked by hand
UNJUDGED = {
    ("cli", "cmd_eval"): "reached through set_defaults(func=...)",
    ("cli", "cmd_fit"): "reached through set_defaults(func=...)",
    ("cli", "cmd_gradcheck"): "reached through set_defaults(func=...)",
    ("cli", "cmd_synth_gen"): "reached through set_defaults(func=...)",
    ("cli", "cmd_texture_transfer"): "reached through set_defaults(func=...)",
    ("cli", "_input_records"): "one call passes the resumed files with **",
    ("synth", "fixed_point_spec"): "reached through cli._PRESETS",
    ("metrics", "point_cloud_distance"): "passed as a value to train._score",
    ("metrics", "depth_error"): "passed as a value to train._score",
    ("metrics", "_umeyama_batch"): "one call unpacks _centred's result with *",
}


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


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text())
            for p in sorted(PACKAGE.glob("*.py"))}


def _references(trees):
    """(module, name) -> every Load node of the package that names it."""
    refs = {}
    for mod, tree in trees.items():
        modules, names = _imports(tree, 1)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                key = (modules[node.value.id], node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                key = names.get(node.id, (mod, node.id))
            else:
                continue
            refs.setdefault(key, []).append(node)
    return refs


def test_every_public_function_has_a_caller_in_the_package():
    trees = _trees()
    defined = {(mod, node.name) for mod, tree in trees.items()
               for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("_")}
    unused = defined - set(_references(trees)) - EXEMPT - _wrapped()
    assert not unused, (
        "public functions with no caller in src/: "
        + ", ".join(f"{m}.{n}" for m, n in sorted(unused)))


def test_every_exempt_name_exists():
    # the benchmark wraps each WRAPPED name and fails on a missing one
    for mod, name in sorted(EXEMPT | _wrapped()):
        assert hasattr(importlib.import_module(f"defmap.{mod}"), name), \
            f"{mod}.{name}"


def test_no_module_assigns_all():
    found = [mod for mod, tree in _trees().items() for node in tree.body
             if (isinstance(node, (ast.AnnAssign, ast.AugAssign))
                 and getattr(node.target, "id", None) == "__all__")
             or (isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__"
                         for t in node.targets))]
    assert not found, "modules assigning __all__: " + ", ".join(found)


def _literal(node):
    """The repr of a literal expression, None for any other."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _call_bindings():
    """(module, function) -> (its def, [param -> argument node] per call)
    for each module-level function the checks judge, and the set of those
    with a call they skip (see the docstring)."""
    trees = _trees()
    defs = {(mod, node.name): node for mod, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = {}  # id of a Call's func node -> the Call
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called[id(node.func)] = node
    out, skipped = {}, set()
    for key, nodes in _references(trees).items():
        fn = defs.get(key)
        if fn is None or key == ("cli", "main"):
            continue
        calls = [called.get(id(n)) for n in nodes]
        if None in calls or any(
                isinstance(a, ast.Starred) for c in calls for a in c.args) \
                or any(k.arg is None for c in calls for k in c.keywords):
            skipped.add(key)
            continue
        positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        out[key] = (fn, [{**dict(zip(positional, c.args)),
                          **{k.arg: k.value for k in c.keywords}}
                         for c in calls])
    return out, skipped


def _defaults(fn: ast.FunctionDef) -> dict:
    """param -> default expression of a function's parameters that have one."""
    a = fn.args
    positional = a.posonlyargs + a.args
    out = {p.arg: d for p, d in zip(positional[len(positional)
                                               - len(a.defaults):],
                                    a.defaults)}
    out.update({p.arg: d for p, d in zip(a.kwonlyargs, a.kw_defaults)
                if d is not None})
    return out


def test_every_default_is_left_out_by_some_call():
    found = [f"{m}.{n} {param}"
             for (m, n), (fn, bindings)
             in sorted(_call_bindings()[0].items())
             for param in _defaults(fn)
             if all(param in b for b in bindings)]
    assert not found, ("defaults that every call in src/ overrides: "
                       + ", ".join(found))


def test_no_parameter_takes_one_literal_at_every_call():
    found = []
    for (m, n), (fn, bindings) in sorted(_call_bindings()[0].items()):
        defaults = _defaults(fn)
        params = [p.arg for p in (fn.args.posonlyargs + fn.args.args
                                  + fn.args.kwonlyargs)]
        for param in params:
            values = {_literal(b[param]) if param in b
                      else _literal(defaults[param]) if param in defaults
                      else None
                      for b in bindings}
            if len(values) == 1 and None not in values:
                found.append(f"{m}.{n} {param} ({values.pop()})")
    assert not found, ("parameters that every call in src/ gives one literal: "
                       + ", ".join(found))


def test_every_skipped_function_is_listed_with_a_reason():
    skipped = _call_bindings()[1]
    unlisted = sorted(skipped - set(UNJUDGED))
    stale = sorted(set(UNJUDGED) - skipped)
    assert not unlisted, ("functions the checks skip, missing from UNJUDGED: "
                          + ", ".join(f"{m}.{n}" for m, n in unlisted))
    assert not stale, ("UNJUDGED functions the checks judge again: "
                       + ", ".join(f"{m}.{n}" for m, n in stale))
