"""Per-layer tracing of thl, installed from outside the library.

``Tracer.install`` wraps the public functions and methods listed in LAYERS.
A function imported by name into other thl modules (``from .sparse import
rank``) is replaced in every module that holds it, so calls through any
binding are seen.  The wrappers stay for the life of the process: a traced
run is its own process.

Every call becomes a span (id, parent, name, start, end) kept in memory and
written out by ``write`` when the run ends.  For each layer the tracer
keeps:

* ``calls``: wrapped calls made (``builds`` for a class's ``__init__``);
* ``self_s``: span durations minus the time their child spans cover;
* ``total_s``: durations of the layer's outermost spans, children included;
* ``nnz_in``: nonzeros of the input matrices, where measured;
* ``distinct_ratio``: distinct input matrices over calls, where measured.

Measuring inputs is trace bookkeeping: its time is charged to
``trace.bookkeeping_s``, not to any layer.  Time inside the root spans
that no layer covers is ``trace.other_s``.
"""

import functools
import importlib
import json
import sys
import uuid
from time import perf_counter


def _nnz(m):
    return sum(map(len, m._cols))


def _key(m):
    # Order-free fingerprint: the same matrix built in another insertion
    # order gives the same key.
    return hash((m.rows, m.cols, tuple(frozenset(c.items()) for c in m._cols)))


def _measure_first(stats, args, distinct):
    m = args[0]
    stats.nnz_in += _nnz(m)
    if distinct:
        stats.keys.add(_key(m))


def _measure_matmul(stats, args):
    stats.nnz_in += _nnz(args[0]) + _nnz(args[1])


def _measure_quotient(stats, args):
    stats.keys.add((args[0], _key(args[1])))


# (layer, owner, attributes, measure); owner is a module or "module:Class".
# A layer may have several owners.  A class's __init__ counts builds.
LAYERS = (
    ("sparse.rank", "thl.sparse", ("rank",), lambda s, a: _measure_first(s, a, False)),
    ("sparse.rref", "thl.sparse", ("rref",), lambda s, a: _measure_first(s, a, True)),
    ("sparse.matmul", "thl.sparse:QMatrix", ("__matmul__",), _measure_matmul),
    ("sparse.basis", "thl.sparse",
     ("kernel_basis", "image_basis", "solve_in_span", "solve_general"), None),
    ("quotient.quotient_by", "thl.quotient", ("quotient_by",), _measure_quotient),
    ("quotient.descend_map", "thl.quotient", ("descend_map",), None),
    ("complexes.MixedComplex", "thl.complexes:MixedComplex", ("__init__",), None),
    ("complexes.total_complex", "thl.complexes", ("total_complex",), None),
    ("complexes.homology", "thl.complexes", ("homology",), None),
    ("complexes.induced_on_homology", "thl.complexes", ("induced_on_homology",), None),
    ("twisted.operators", "thl.twisted", ("twist_matrix", "twisted_b", "twisted_B"), None),
    ("twisted.HKBicomplex", "thl.twisted:HKBicomplex", ("__init__",), None),
    ("crossed.operators", "thl.crossed:GJOperators",
     ("alg_twist", "alg_b", "alg_B", "T", "b", "B", "bbar", "Bbar"), None),
    ("crossed.operators", "thl.crossed",
     ("group_action_operator", "lambda_cyclic_operator", "beta_map"), None),
    ("crossed.GJOperators", "thl.crossed:GJOperators", ("__init__",), None),
    ("crossed.PropositionComplex", "thl.crossed:PropositionComplex", ("__init__",), None),
    ("crossed.CoinvariantComplex", "thl.crossed:CoinvariantComplex", ("__init__",), None),
    ("crossed.LambdaComplex", "thl.crossed:LambdaComplex", ("__init__",), None),
    ("sequences.operators", "thl.sequences", ("derham_d_ambient", "derham_d"), None),
    ("cli.run", "thl.cli", ("run",), None),
)


class LayerStats:
    __slots__ = ("calls", "builds", "self_s", "total_s", "nnz_in", "keys", "open")

    def __init__(self):
        self.calls = 0
        self.builds = False
        self.self_s = 0.0
        self.total_s = 0.0
        self.nnz_in = 0
        self.keys = set()
        self.open = 0


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []         # [id, parent, name, start, end]
        self.stats = {layer: LayerStats() for layer, *_ in LAYERS}
        self.bookkeeping_s = 0.0
        self.other_s = 0.0
        self._stack = []        # open spans: [id, child_seconds]

    def install(self):
        """Wrap every entry of LAYERS (imports thl)."""
        for layer, owner, attrs, measure in LAYERS:
            stats = self.stats[layer]
            modname, _, clsname = owner.partition(":")
            target = importlib.import_module(modname)
            if clsname:
                target = getattr(target, clsname)
            for attr in attrs:
                orig = getattr(target, attr)
                name = f"{modname[len('thl.'):]}.{clsname + '.' if clsname else ''}{attr}"
                wrapped = self._wrap(name, orig, stats, measure)
                stats.builds = attr == "__init__"
                if clsname:
                    setattr(target, attr, wrapped)
                else:
                    for key, mod in list(sys.modules.items()):
                        if key.partition(".")[0] == "thl" and getattr(mod, attr, None) is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name, fn, stats, measure):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1][0] if stack else None, name, 0.0, 0.0]
            spans.append(rec)
            frame = [sid, 0.0]
            stack.append(frame)
            outer = stats.open == 0
            stats.open += 1
            stats.calls += 1
            t0 = perf_counter()
            if measure is not None:
                measure(stats, args)
                book = perf_counter() - t0
                frame[1] += book
                self.bookkeeping_s += book
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stats.open -= 1
                stack.pop()
                dur = t1 - t0
                rec[3], rec[4] = t0, t1
                stats.self_s += dur - frame[1]
                if outer:
                    stats.total_s += dur
                if stack:
                    stack[-1][1] += dur

        return traced

    def root(self, name, fn):
        """Run fn() as a root span; its uncovered time counts as other."""
        sid = len(self.spans)
        rec = [sid, None, name, 0.0, 0.0]
        self.spans.append(rec)
        frame = [sid, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._stack.pop()
            rec[3], rec[4] = t0, t1
            self.other_s += (t1 - t0) - frame[1]

    def summary(self):
        """Flat {metric name: value} over every layer."""
        out = {}
        for layer, st in self.stats.items():
            out[f"{layer}.{'builds' if st.builds else 'calls'}"] = st.calls
            out[f"{layer}.self_s"] = st.self_s
            out[f"{layer}.total_s"] = st.total_s
            out[f"{layer}.nnz_in"] = st.nnz_in
            out[f"{layer}.distinct_ratio"] = len(st.keys) / st.calls if st.calls else 0.0
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        out["trace.other_s"] = self.other_s
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path):
        """Write the spans as JSON lines, one header line first."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id, "fields": ["id", "parent", "name", "start", "end"]}))
            fh.write("\n")
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")
