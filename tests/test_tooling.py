"""Guards over the package source itself, read as syntax trees.

Every top-level function and class in src/loft is used in src/loft or is
exported in loft.__all__, and every method of a src/loft class is read in
src/loft outside its own body.  A definition that only tests call is test
code shipped as API, and a benchmark span wrapped around it measures nothing.
Every name a module imports is used there (``__init__`` re-exports
aside), and no module imports another's private name.  Every bundled data
file is read by a module and shipped by the package-data patterns.
Importing loft builds its classes without generating code, and reads
its bundled files without importlib.resources.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

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


# methods the standard library calls for the package: contextlib.closing
# calls close
CALLED_BY_PROTOCOL = {"close"}


def test_every_method_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    # (module, class, method, the ids of the nodes of its own body)
    methods = [
        (module, cls.name, node.name, {id(inner) for inner in ast.walk(node)})
        for module, tree in trees.items()
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in CALLED_BY_PROTOCOL
    ]
    # each name read anywhere, with the nodes that read it
    readers: dict[str, list[int]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None:
                readers.setdefault(name, []).append(id(node))
    unused = sorted(f"{module}:{cls}.{name}" for module, cls, name, own in methods
                    if all(reader in own for reader in readers.get(name, [])))
    assert not unused, f"methods never read in src/loft outside their own body: {unused}"


def _imports():
    """(module, imported name, bound name, source module, names the module
    reads) for each name a src/loft module imports."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = "." * node.level + (node.module or "")
                for alias in node.names:
                    yield path.name, alias.name, alias.asname or alias.name, source, read
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    yield path.name, alias.name, bound, alias.name, read


def test_every_imported_name_is_used():
    # __init__.py imports names to re-export them, and a __future__ import
    # switches on a feature
    unused = [f"{module}:{name}" for module, name, bound, source, read in _imports()
              if module != "__init__.py" and source != "__future__" and bound not in read]
    assert not unused, f"imported but never used: {unused}"


def test_no_module_imports_a_private_name_from_another():
    private = [f"{module}:{name}" for module, name, _, source, _ in _imports()
               if name.startswith("_") and source.startswith((".", "loft"))]
    assert not private, f"private names imported across loft modules: {private}"


def test_every_data_file_is_read_and_shipped():
    # the loaders trust the bundled files, so one left out of a wheel fails
    # only at its first use, and one no module names is stale
    tomllib = pytest.importorskip("tomllib")
    pyproject = SOURCE.parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("loft is imported from an installed copy")
    patterns = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "tool"]["setuptools"]["package-data"]["loft"]
    named = {node.value for path in SOURCE.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    files = [path.relative_to(SOURCE) for path in sorted((SOURCE / "data").rglob("*"))
             if path.is_file()]
    assert files
    unread = [str(path) for path in files if path.name not in named]
    assert not unread, f"bundled but read by no module: {unread}"
    unshipped = [str(path) for path in files
                 if not any(path.match(pattern) for pattern in patterns)]
    assert not unshipped, f"bundled but matched by no package-data pattern: {unshipped}"


def _loaded_by_importing_loft(modules: set[str]) -> list[str]:
    """Which of the modules a fresh ``python -S`` has loaded once it
    imports loft from its source directory."""
    code = (f"import sys; sys.path.insert(0, {str(SOURCE.parent)!r}); import loft; "
            f"print(sorted({modules!r} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout)


def test_importing_loft_loads_no_code_generating_module():
    # dataclasses compiles generated source for each record class and
    # imports inspect to do so, on every process start and re-import
    assert _loaded_by_importing_loft({"dataclasses", "inspect"}) == []


def test_importing_loft_loads_no_importlib_resources():
    # the bundled files are read by path (tables.DATA); importlib.resources
    # would pull tempfile, shutil and more into every fresh process
    assert _loaded_by_importing_loft({"importlib.resources"}) == []
