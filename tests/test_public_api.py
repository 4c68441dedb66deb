"""The package's public surface: every exported name resolves."""

import importlib
import importlib.util


def test_every_exported_name_resolves():
    for module in ("hyltlmc", "hyltlmc.formula", "hyltlmc.hybrid", "hyltlmc.reach"):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, (module, missing)
        assert len(set(mod.__all__)) == len(mod.__all__), module


def test_no_valuation_class_is_exported():
    """A concrete state is a plain dict; no alias stands in for the old class."""
    hybrid = importlib.import_module("hyltlmc.hybrid")
    assert not hasattr(hybrid, "Valuation")
    assert importlib.util.find_spec("hyltlmc.hybrid.valuation") is None
