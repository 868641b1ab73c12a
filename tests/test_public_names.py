"""Every name a ``whcalc`` module lists in ``__all__`` must resolve.

A public name deleted from a module but left in its ``__all__`` breaks
only ``from module import *``, which nothing else in the suite runs.
"""

from __future__ import annotations

import importlib
import pkgutil

import whcalc


def public_modules():
    """Every whcalc module that declares ``__all__``, by name."""
    out = {}
    for info in pkgutil.walk_packages(whcalc.__path__, "whcalc."):
        module = importlib.import_module(info.name)
        if hasattr(module, "__all__"):
            out[info.name] = module
    return out


def test_every_listed_public_name_resolves():
    modules = public_modules()
    # the scan reaches the modules whose public names the README presents
    assert {"whcalc.falg", "whcalc.abelian",
            "whcalc.simplicial"} <= set(modules)
    unresolved = sorted((name, attr) for name, module in modules.items()
                        for attr in module.__all__
                        if not hasattr(module, attr))
    assert not unresolved, unresolved
