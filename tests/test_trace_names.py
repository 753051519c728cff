"""The benchmark's traced mode wraps courantcalc functions by name.

`perfbench/tracing.py` lists them as (module, class, attribute) in `LAYERS`;
a renamed or deleted one makes `perfbench/run.py --trace 1` stop with an
AttributeError, so every listed name must still resolve.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    layers = load_layers()
    assert layers
    missing = []
    for module_name, cls_name, attr, _, _ in layers:
        module = importlib.import_module(f"courantcalc.{module_name}")
        owner = getattr(module, cls_name, None) if cls_name else module
        if not callable(getattr(owner, attr, None)):
            missing.append(".".join(filter(None, (module_name, cls_name, attr))))
    assert missing == []
