"""Guards over the package source itself, read as syntax trees.

Every top-level function and class in src/loft is used in src/loft or is
exported in loft.__all__.  A definition that only tests call is test code
shipped as API, and a benchmark span wrapped around it measures nothing.
"""

import ast
from pathlib import Path

import loft

SOURCE = Path(loft.__file__).resolve().parent


def test_every_top_level_definition_is_used_or_exported():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    defined = {
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    # names read anywhere, outside a definition's own body
    used = set()
    for tree in trees.values():
        for statement in tree.body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    unused = sorted(f"{module}:{name}" for module, name in defined
                    if name not in used and name not in loft.__all__)
    assert not unused, f"defined in src/loft but used only outside it: {unused}"
