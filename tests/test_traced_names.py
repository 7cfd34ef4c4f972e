"""What the traced benchmark reads of the package.

``perfbench/tracing.py`` wraps each function that its ``WRAPPED`` names,
found as an attribute of ``fracsmooth.<layer>``, and binds some of their
parameters by name: ``p`` and ``t`` of the valuations, ``m`` and ``net``
of the hedging Monte Carlo functions.  A name missing from its module
makes that layer's metrics read null, so each is pinned here.  The file
is parsed, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
#: the tracer's name tables, and the parameters it binds of each
_BOUND = {"VALUATIONS": ("payoffs", {"p", "t"}),
          "HEDGE_MC": ("hedging", {"m", "net"})}


def _tables() -> dict:
    """``WRAPPED`` and the ``_BOUND`` tables, read from the tracer's
    module-level assignments."""
    tree = ast.parse(_TRACING.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in {"WRAPPED", *_BOUND}}


_TABLES = _tables()


def test_tracer_tables_are_read():
    assert set(_TABLES) == {"WRAPPED", *_BOUND}


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in _TABLES["WRAPPED"].items()
    for name in names])
def test_wrapped_name_is_a_callable_of_its_layer(layer, name):
    mod = importlib.import_module(f"fracsmooth.{layer}")
    assert callable(getattr(mod, name, None)), f"fracsmooth.{layer}.{name}"


@pytest.mark.parametrize("table", sorted(_BOUND))
def test_bound_parameters_exist(table):
    layer, params = _BOUND[table]
    assert set(_TABLES[table]) <= set(_TABLES["WRAPPED"][layer])
    mod = importlib.import_module(f"fracsmooth.{layer}")
    for name in _TABLES[table]:
        sig = inspect.signature(getattr(mod, name))
        assert params <= set(sig.parameters), (name, str(sig))
