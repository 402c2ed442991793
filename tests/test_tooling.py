"""Guards on the source itself.  The benchmark's layer tracer names thl
functions by string; every name must resolve, or a traced run fails only
when it is installed.  Only ``sparse`` sums into columns."""

import ast
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


SRC = Path(__file__).parent.parent / "src" / "thl"

# the two scatter constructors, which place images into columns they build
SCATTER = {"algebra.tensor_operator", "crossed.GJOperators._group_blocks"}


def _accumulates(tree):
    """The functions and methods (``name`` or ``Class.method``, nested
    definitions counted in the outermost) holding an accumulate step
    ``d.get(k, 0) + ...`` or ``d.get(k, 0) - ...``."""
    def adds(node):
        return any(
            isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub))
            and isinstance(n.left, ast.Call) and isinstance(n.left.func, ast.Attribute)
            and n.left.func.attr == "get" and len(n.left.args) == 2
            and isinstance(n.left.args[1], ast.Constant) and n.left.args[1].value == 0
            for n in ast.walk(node)
        )

    found = set()
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            found.update(f"{top.name}.{f.name}" for f in top.body
                         if isinstance(f, ast.FunctionDef) and adds(f))
        elif isinstance(top, ast.FunctionDef) and adds(top):
            found.add(top.name)
    return found


def test_only_sparse_accumulates():
    """Sums into columns are taken by ``sparse``: elsewhere in thl the
    accumulate step appears only in the two scatter constructors."""
    sites = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py") for name in _accumulates(ast.parse(path.read_text()))
    }
    assert "sparse._sum_of_products" in sites
    assert {s for s in sites if not s.startswith("sparse.")} == SCATTER
