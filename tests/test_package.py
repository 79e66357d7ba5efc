"""The package namespace, its integer arguments and the README's library tour."""
import importlib
import pkgutil
import re
import types
from pathlib import Path

import numpy as np
import pytest

import ripl_lab
from ripl_lab import (
    LevelStructure,
    SamplingScheme,
    draw_scheme,
    fourier_haar_table,
    gaussian_matrix,
    haar_interference_weights,
    ripl_threshold,
    validate_boundaries,
)

_MODULES = tuple(m.name for m in pkgutil.iter_modules(ripl_lab.__path__) if m.name != "cli")


def test_every_module_export_is_a_package_attribute():
    for name in _MODULES:
        module = importlib.import_module(f"ripl_lab.{name}")
        for export in module.__all__:
            assert getattr(ripl_lab, export, None) is getattr(module, export), (name, export)


def test_every_package_attribute_is_one_module_export():
    # sorted lists, not sets: a name two modules export would show up twice
    exports = [export for name in _MODULES
               for export in importlib.import_module(f"ripl_lab.{name}").__all__]
    public = [name for name, value in vars(ripl_lab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(exports) == sorted(public)


def test_readme_library_tour_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(tour, namespace)
    assert namespace["report"].method == "monte-carlo"
    assert namespace["res"].converged


_SATURATED = draw_scheme(LevelStructure.dyadic(2), (2, 2), r0=2, seed=0).to_dict()

# each call takes an integer argument v = 2; int() used to truncate a float there
_INTEGER_ARGUMENTS = {
    "pow2-n": fourier_haar_table,
    "gaussian-m": lambda v: gaussian_matrix(v, 4, np.random.default_rng(0)),
    "gaussian-n": lambda v: gaussian_matrix(4, v, np.random.default_rng(0)),
    "boundaries-n": lambda v: validate_boundaries((0, 2), v),
    "single-level": LevelStructure.single_level,
    "dyadic": LevelStructure.dyadic,
    "threshold-r": lambda v: ripl_threshold(v, 1.0),
    "kernel-s": lambda v: haar_interference_weights((v, 1, 2)),
    "scheme-r0": lambda v: SamplingScheme.from_dict(dict(_SATURATED, r0=v)),
}


@pytest.mark.parametrize("name", sorted(_INTEGER_ARGUMENTS))
def test_integer_arguments_reject_floats(name):
    call = _INTEGER_ARGUMENTS[name]
    call(np.int64(2))
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        call(2.0)
