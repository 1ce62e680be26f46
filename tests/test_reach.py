"""Every function, method and class in the package is reached by the program.

A name defined in ``src/bihomcheck`` must be read somewhere in the package
or in ``perfbench/``: as a name, as an attribute, as an imported name, or as
an attribute that ``perfbench/layers.py`` spans by its string in
``SPANNED``. A helper that only tests call fails here. Dunder methods are
reached through the language, so they are not counted.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bihomcheck"
BENCH = ROOT / "perfbench"


def _trees(directory):
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))]


def _read_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names


def _spanned_attributes():
    tree = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    spanned = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SPANNED" for t in node.targets)
    )
    return {n.value for n in ast.walk(spanned) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _defined_names(tree):
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, kinds) and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_definition_in_the_package_is_reached():
    package = _trees(PACKAGE)
    read = set().union(*map(_read_names, package + _trees(BENCH))) | _spanned_attributes()
    defined = set().union(*map(_defined_names, package))
    unreached = sorted(defined - read)
    assert not unreached, f"defined in src/bihomcheck and never reached: {', '.join(unreached)}"
