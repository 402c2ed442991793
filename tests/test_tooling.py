"""The benchmark's layer tracer names thl functions by string; every name
must resolve, or a traced run fails only when it is installed."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).parent.parent / "benchmark" / "layertrace.py"


def test_traced_names_resolve():
    """Every (owner, attribute) of layertrace.LAYERS resolves, read
    without installing the tracer.  An owner traced through ``__init__``
    must be a class: every function has a callable ``__init__`` too, but
    the tracer would count no builds of it."""
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    for layer, owner, attrs, _ in layertrace.LAYERS:
        modname, _, clsname = owner.partition(":")
        target = importlib.import_module(modname)
        if clsname:
            target = getattr(target, clsname)
        for attr in attrs:
            assert callable(getattr(target, attr, None)), f"{layer}: {owner}.{attr}"
            if attr == "__init__":
                assert isinstance(target, type), f"{layer}: {owner} is not a class"
