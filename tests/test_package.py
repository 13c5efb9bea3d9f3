"""Package hygiene: every name a module exports must exist."""

import importlib
import pkgutil

import forge


def test_every_all_entry_resolves():
    modules = [forge] + [importlib.import_module(f"forge.{info.name}")
                         for info in pkgutil.iter_modules(forge.__path__)]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name!r}"
            checked += 1
    assert checked  # the scan found exports to check
