import ast
import importlib
import pkgutil
from pathlib import Path

import deskst


def test_every_all_entry_resolves_to_an_attribute():
    for info in pkgutil.iter_modules(deskst.__path__):
        module = importlib.import_module(f"deskst.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)


def test_every_module_level_import_is_used_exported_or_marked():
    """A name a module imports at its top level must be read in the module,
    listed in its ``__all__``, or marked ``# noqa: F401`` on its line."""
    for path in sorted(Path(deskst.__file__).parent.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"deskst.{path.stem}"), "__all__", []))
        unused = []
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and name not in exported and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(name)
        assert not unused, (path.name, unused)
