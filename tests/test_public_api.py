"""The package's public surface: every exported name resolves."""

import importlib


def test_every_exported_name_resolves():
    for module in ("hyltlmc", "hyltlmc.hybrid"):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (module, missing)
        assert len(set(mod.__all__)) == len(mod.__all__), module
