"""The package surface: every exported name is defined."""

import importlib
import pathlib

import masym


def test_every_name_in_all_resolves():
    """Each name a module of the package lists in ``__all__`` is an attribute
    of that module, so no export outlives the code it named."""
    modules = [importlib.import_module(f"masym.{path.stem}")
               for path in sorted(pathlib.Path(masym.__file__).parent.glob("*.py"))
               if path.stem != "__init__"]
    exporting = [mod for mod in modules if hasattr(mod, "__all__")]
    assert exporting
    for mod in exporting:
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ lists undefined names {missing}"
