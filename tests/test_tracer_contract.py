"""The names the benchmark's tracer (perfbench/layers.py) wraps must exist
where it looks for them: a method in its class's own __dict__ (the tracer
replaces it there, so an inherited one would raise KeyError or trace the
parent class's calls), a function as a module attribute. No benchmark runs
here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


layers = load_layers()


def lib(module):
    return importlib.import_module(f"srindex.{module}")


@pytest.mark.parametrize("module,function,span", layers.SPANNED_FUNCTIONS)
def test_spanned_function_exists(module, function, span):
    assert callable(getattr(lib(module), function, None)), span


@pytest.mark.parametrize(
    "module,cls,method,span",
    layers.SPANNED_METHODS + layers.COUNTED_METHODS
    + [("srindex", "SrIndex", "locate", "locate"),
       ("srcsa", "SrCsa", "locate", "locate")])
def test_method_in_own_class_body(module, cls, method, span):
    assert method in vars(getattr(lib(module), cls)), span
