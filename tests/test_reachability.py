"""Every top-level name of ``src/immdfun`` is reachable from the console
entry points: a name that only tests, ``__all__`` or a docstring reach is
dead code, and fails this test.

The walk is static.  A reached function, class or constant reaches every
name its source refers to: a bare name defined in its module or imported
from the package, or an attribute of a package module imported whole
(``sunrep.ENTRY_CAP``).
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "immdfun"
ROOTS = [("cli", "console_main"), ("cli", "main")]


def _scan(tree):
    """Top-level definitions of one module by name, and its package imports
    as name -> (module, name), with module None for a whole module."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not re.fullmatch(r"__\w+__", target.id):
                    defs[target.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module, alias.name)
    return defs, imports


def unreached_names():
    modules = {path.stem: _scan(ast.parse(path.read_text())) for path in PACKAGE.glob("*.py")}

    def resolve(module, name):
        """The (module, name) defining ``name`` as used in ``module``, or None."""
        defs, imports = modules[module]
        if name in defs:
            return module, name
        source, imported = imports.get(name, (None, None))
        return resolve(source, imported) if source else None

    seen, stack = set(), list(ROOTS)
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        module, name = key
        imports = modules[module][1]
        for node in ast.walk(modules[module][0][name]):
            found = None
            if isinstance(node, ast.Name):
                found = resolve(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                source, imported = imports.get(node.value.id, ("", ""))
                if source is None:  # "from . import m", then m.attr
                    found = resolve(imported, node.attr)
            if found:
                stack.append(found)
    defined = {(module, name) for module, (defs, _) in modules.items() for name in defs}
    return sorted(f"{module}.{name}" for module, name in defined - seen)


def test_every_package_name_is_reached_from_the_entry_points():
    unreached = unreached_names()
    assert not unreached, "no entry point reaches " + ", ".join(unreached)
