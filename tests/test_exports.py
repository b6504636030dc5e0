import importlib
import pkgutil

import deskst


def test_every_all_entry_resolves_to_an_attribute():
    for info in pkgutil.iter_modules(deskst.__path__):
        module = importlib.import_module(f"deskst.{info.name}")
        names = getattr(module, "__all__", [])
        assert len(set(names)) == len(names), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, (info.name, missing)
