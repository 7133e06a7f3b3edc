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


def test_every_benchmark_trace_target_resolves():
    """Each (module, attribute) that ``bench/run.py --trace 1`` wraps exists,
    so trace mode does not stop on an AttributeError when the program drops
    or renames a traced name.  The script is imported by path, as it is no
    package."""
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"
    spec = importlib.util.spec_from_file_location("bench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    targets = run._trace_targets()
    assert any(module == "masym.movingplane" for _, module, _, _ in targets)
    missing = [f"{module}.{attr}" for _, module, attr, _ in targets
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"trace targets name undefined attributes {missing}"
