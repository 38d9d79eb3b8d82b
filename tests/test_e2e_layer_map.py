"""The end-to-end benchmark's layer map must resolve against ``src/``.

``benchmarks/e2e/traced.py`` wraps every function its ``LAYERS`` table
names by rebinding it where ``repro`` refers to it.  A deleted or
renamed layer function would only surface when the traced benchmark
runs; this test resolves every entry the way ``traced.install`` does,
so the break shows up in the tier-1 suite instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "traced.py"
)


def _load_traced():
    spec = importlib.util.spec_from_file_location("_e2e_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves():
    layers = _load_traced().LAYERS
    assert layers
    for layer, module_name, attribute, _span, _hook in layers:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        # Class attributes must be defined on the class itself: install
        # reads them from the class __dict__, not through inheritance.
        target = vars(owner).get(leaf) if path else getattr(owner, leaf, None)
        assert callable(target), (layer, module_name, attribute)
