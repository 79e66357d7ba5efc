"""The package namespace and the README's library tour."""
import importlib
import re
from pathlib import Path

import ripl_lab

_MODULES = ("levels", "operators", "coherence", "sampling", "ripl", "recovery")


def test_every_module_export_is_a_package_attribute():
    for name in _MODULES:
        module = importlib.import_module(f"ripl_lab.{name}")
        for export in module.__all__:
            assert getattr(ripl_lab, export, None) is getattr(module, export), (name, export)


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(tour, namespace)
    assert namespace["report"].method == "monte-carlo"
    assert namespace["res"].converged
