"""In-memory span tracer wrapped around the library's public entry points.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces each public
function and method of the layer modules with a wrapper that records one span
(name, parent span, start, end) per call.  A function is patched under every
name that refers to it, in every module of the package, because callers reach
it through their own imports (``bihermite.deform.inner_product``,
``bihermite.cli.rep_matrix``).

Spans live in flat arrays while the traced call runs, are summarised with
numpy when it ends, and can be written to an ``.npz`` file.  A span's self time
is its duration minus the durations of its direct children.  When every span
is closed, every child lies inside its parent, and every root span inside the
traced call, the layers' self times plus the untraced remainder (call time
outside any root span, never negative) add up to the call's wall time;
``summarize`` counts the spans that break those conditions.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("coeffs", "poly", "weyl", "hermite", "deform", "ncqm", "lie", "linalg", "cli")

# operator methods are entry points too: the layers above call them implicitly
_OPERATORS = frozenset(
    {
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__matmul__", "__eq__",
    }
)


def _coeff_key(c):
    return (c.re, c.im, c.re2, c.im2, c.exact)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("i")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        # counts that need the arguments, taken at the same boundaries
        self.mul_exact = 0
        self.mul_sqrt2 = 0
        self.hermite_keys: set = set()
        self.deformed_keys: set = set()

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, fn, label: str, probe=None):
        idx = len(self.names)
        self.names.append(label)
        parent_add, name_add = self.parent.append, self.name.append
        t0_add, t1_add = self.t0.append, self.t1.append
        t1 = self.t1
        stack = self._stack
        push, pop = stack.append, stack.pop

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args)
            sid = len(t1)
            parent_add(stack[-1])
            name_add(idx)
            t1_add(0.0)
            push(sid)
            t0_add(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = perf_counter()
                pop()

        return functools.wraps(fn)(traced)

    def _probe_mul(self, args):
        a, b = args
        if not a.exact:
            return
        if hasattr(b, "re2"):
            if not b.exact:
                return
            rad = a.re2 or a.im2 or b.re2 or b.im2
        elif isinstance(b, float | complex):
            return
        else:
            rad = a.re2 or a.im2
        self.mul_exact += 1
        if rad:
            self.mul_sqrt2 += 1

    def _probe_hermite(self, args):
        self.hermite_keys.add(tuple(args[:2]))

    def _probe_deformed(self, args):
        g, k, l = args[:3]
        self.deformed_keys.add((tuple(_coeff_key(c) for c in g.entries()), k, l))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package="bihermite"):
        pkg = sys.modules[package]
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        probes = {
            "coeffs.Coeff.__mul__": self._probe_mul,
            "hermite.hermite_sum": self._probe_hermite,
            "deform.deformed_hermite": self._probe_deformed,
        }
        replaced = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{layer}.{name}"
                    replaced[id(obj)] = self._wrapper(obj, label, probes.get(label))
                elif inspect.isclass(obj):
                    self._install_class(obj, layer, probes)
        # rebind every module-level reference, wherever it was imported, and
        # default arguments bound to a wrapped function (HermiteTable's route)
        for mod in [pkg, *modules]:
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._patch(mod, name, wrapper)
        for mod in modules:
            for obj in vars(mod).values():
                funcs = vars(obj).values() if inspect.isclass(obj) else [obj]
                for fn in funcs:
                    if not inspect.isfunction(fn):
                        continue
                    fn = getattr(fn, "__wrapped__", fn)
                    if fn.__defaults__ and any(id(d) in replaced for d in fn.__defaults__):
                        self._patches.append((fn, "__defaults__", fn.__defaults__))
                        fn.__defaults__ = tuple(replaced.get(id(d), d) for d in fn.__defaults__)

    def _install_class(self, cls, layer, probes):
        wrapped = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue  # properties, slots, constants
            w = wrapped.get(id(fn))
            if w is None:
                # aliases such as __rmul__ = __mul__ share one span name
                label = f"{layer}.{cls.__name__}.{fn.__name__}"
                w = wrapped[id(fn)] = self._wrapper(fn, label, probes.get(label))
            self._patch(cls, attr, type(raw)(w) if isinstance(raw, (classmethod, staticmethod)) else w)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        import numpy as np

        return (
            np.array(self.parent, dtype=np.int32),
            np.array(self.name, dtype=np.int32),
            np.array(self.t0, dtype=np.float64),
            np.array(self.t1, dtype=np.float64),
        )

    def summary(self, start: float, end: float) -> dict:
        """``summarize`` of the spans of one traced call from ``start`` to ``end``."""
        return {
            **summarize(self.names, *self._arrays(), start, end),
            "mul_exact": self.mul_exact,
            "mul_sqrt2": self.mul_sqrt2,
            "hermite_sum_distinct": len(self.hermite_keys),
            "deformed_hermite_distinct": len(self.deformed_keys),
        }

    def write(self, path: str, start: float, end: float):
        """Write every span: parent index (-1 for a root), name index, start, end."""
        import numpy as np

        parent, name, t0, t1 = self._arrays()
        np.savez(path, parent=parent, name=name, t0=t0, t1=t1, names=np.asarray(self.names),
                 window=np.array([start, end]))


def summarize(names, parent, name, t0, t1, start: float, end: float) -> dict:
    """Counts and self times per span name and per layer, and the spans that
    break the accounting: left open, reaching outside their parent (or, for a
    root, outside the call), or with less time than their children."""
    import numpy as np

    n = len(t0)
    dur = t1 - t0
    child = parent >= 0
    child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
    self_time = dur - child_time
    outer0 = np.where(child, t0[np.maximum(parent, 0)], start)
    outer1 = np.where(child, t1[np.maximum(parent, 0)], end)
    layer_of = np.array([LAYERS.index(label.split(".")[0]) for label in names], dtype=np.int64)
    layer = layer_of[name]
    nn = len(names)
    count_by_name = np.bincount(name, minlength=nn)
    self_by_name = np.bincount(name, weights=self_time, minlength=nn)
    self_by_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
    wall_s = end - start
    root_s = float(dur[~child].sum())
    return {
        "spans": int(n),
        "wall_s": wall_s,
        "root_s": root_s,
        "untraced_s": wall_s - root_s,
        "open_spans": int(np.count_nonzero(t1 < t0)),
        "escaped_spans": int(np.count_nonzero((t0 < outer0) | (t1 > outer1))),
        "negative_self_spans": int(np.count_nonzero(self_time < -1e-9)),
        "self_by_layer": {lay: float(v) for lay, v in zip(LAYERS, self_by_layer)},
        "count_by_name": {k: int(c) for k, c in zip(names, count_by_name) if c},
        "self_by_name": {k: float(s) for k, s, c in zip(names, self_by_name, count_by_name) if c},
    }
