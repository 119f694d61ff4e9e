"""Tracing of pmodcalc by wrappers installed from outside the package.

The tracer replaces the public functions of each pmodcalc layer, plus a few
class methods, with wrappers that record spans (name, parent, start, end,
tag) in memory or bump a counter.  Because the modules import each other's
functions by name (``from .linalg import rref``), a wrapper is installed on
every module attribute and class attribute that is bound to a wrapped
function, and every original is put back by ``restore``.

Nothing here is imported by pmodcalc itself; untraced runs never install it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "pmodcalc"
LAYERS = ("linalg", "lattice", "pmodule", "calculus", "resolution",
          "generators", "pmod_io", "verify", "cli")

#: Public functions whose spans share a name other than "<layer>.<function>".
SPAN_NAMES = {
    "lattice.bicartesian_cubes_cached": "lattice.cubes",
    "lattice.parent_cube": "lattice.cubes",
    "lattice.child_cube": "lattice.cubes",
    "pmodule.image_of": "pmodule.kernel_image_cokernel",
    "pmodule.kernel_of": "pmodule.kernel_image_cokernel",
    "pmodule.cokernel_of": "pmodule.kernel_image_cokernel",
    "calculus.gamma_lower": "calculus.gamma",
    "calculus.gamma_upper": "calculus.gamma",
    "calculus.cr_lower": "calculus.cr",
    "calculus.cr_upper": "calculus.cr",
    "resolution.check_pdim_theorem_1": "resolution.pdim_check",
    "resolution.check_pdim_theorem_2": "resolution.pdim_check",
    "generators.image_bifiltration_homology": "generators.image",
    "generators.sublevel_rips_h0": "generators.rips",
    "pmod_io.load_module": "pmod_io.load",
}

#: Public functions too hot and too thin for a span: they only count calls.
COUNT_FUNCTIONS = frozenset({
    "linalg.hstack", "linalg.vstack", "linalg.rank", "linalg.image_basis",
    "linalg.cokernel_projection", "linalg.factor_through", "linalg.solve_left",
})

#: Class methods that get a span: (layer, class, method) -> span name.
SPAN_METHODS = {
    ("lattice", "Lattice", "grid"): "lattice.grid",
    ("lattice", "Lattice", "induced_covers"): "lattice.induced_covers",
    ("pmodule", "PersistenceModule", "validate"): "pmodule.validate",
    ("pmodule", "PersistenceModule", "validate_diamonds"): "pmodule.validate_diamonds",
}

#: The hottest calls get a counter and no span, so that tracing stays cheap.
COUNT_METHODS = {
    ("linalg", "Matrix", "__init__"): "linalg.matrix_new.calls",
    ("pmodule", "PersistenceModule", "__init__"): "pmodule.module_new.calls",
    ("pmodule", "PersistenceModule", "transport_i"): "pmodule.transport.calls",
}


def _rref_cells(tracer, args, kwargs):
    m = args[0] if args else kwargs["m"]
    tracer.counts["linalg.rref.cells"] += m.nrows * m.ncols
    return None


def _grid_elements(tracer, args, kwargs):
    maxes = args[1] if len(args) > 1 else kwargs["maxes"]  # args[0] is the class
    n = 1
    for m in maxes:
        n *= int(m) + 1
    tracer.counts["lattice.grid.elements"] += n
    return None


def _approx_hook(kind):
    def hook(tracer, args, kwargs):
        f = args[0] if args else kwargs["f"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        if (kind, n) in f.calc_cache:
            tracer.counts[f"calculus.{kind}.cache_hits"] += 1
        return n
    return hook


#: Per-call hooks: they update counters and may return a tag for the span.
HOOKS = {
    "linalg.rref": _rref_cells,
    "lattice.grid": _grid_elements,
    "calculus.t_lower": _approx_hook("t_lower"),
    "calculus.t_upper": _approx_hook("t_upper"),
}


class Tracer:
    """Spans and counters for one traced region; install, run, restore."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def span_wrapper(self, name, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = hook(tracer, args, kwargs) if hook is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, tag)
        wrapper.traced = True
        return wrapper

    def count_wrapper(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        wrapper.traced = True
        return wrapper

    # -- install / restore ----------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> int:
        """Wrap every public function of each layer; return the number of
        attributes patched."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        layers = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in layers.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                qual = f"{layer}.{attr}"
                name = SPAN_NAMES.get(qual, qual)
                wrapped[id(obj)] = (self.count_wrapper(f"{name}.calls", obj)
                                    if name in COUNT_FUNCTIONS else
                                    self.span_wrapper(name, obj, HOOKS.get(name)))
            for (m_layer, cls_name, meth), name in SPAN_METHODS.items():
                if m_layer == layer:
                    self._wrap_method(getattr(mod, cls_name), meth,
                                      lambda fn, name=name: self.span_wrapper(
                                          name, fn, HOOKS.get(name)))
            for (m_layer, cls_name, meth), key in COUNT_METHODS.items():
                if m_layer == layer:
                    self._wrap_method(getattr(mod, cls_name), meth,
                                      lambda fn, key=key: self.count_wrapper(key, fn))
        for mod in _package_modules().values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])
        return len(self._patches)

    def _wrap_method(self, cls, meth, make):
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            self._set(cls, meth, classmethod(make(raw.__func__)))
        else:
            self._set(cls, meth, make(raw))

    def restore(self) -> None:
        """Put back every original attribute, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, parent, start, end, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanStat:
    __slots__ = ("calls", "self_s", "incl_s", "incl_by_tag")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.incl_by_tag: defaultdict = defaultdict(float)


def aggregate(spans) -> dict[str, SpanStat]:
    """Per span name: calls, self time and inclusive time.

    A span's self time is its duration minus the durations of its direct
    children (spans on one thread nest, so children never overlap).  The
    inclusive time counts only the outermost span of each name, so that a
    recursive call is not counted twice; it is also split by tag.
    """
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _tag in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, SpanStat] = {}
    for i, (name, parent, t0, t1, tag) in enumerate(spans):
        st = out.get(name)
        if st is None:
            st = out[name] = SpanStat()
        st.calls += 1
        st.self_s += (t1 - t0) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            st.incl_s += t1 - t0
            if tag is not None:
                st.incl_by_tag[tag] += t1 - t0
    return out


def is_traced(obj) -> bool:
    """Whether obj is a tracing wrapper, bare or as a classmethod."""
    obj = getattr(obj, "__func__", obj)
    return inspect.isfunction(obj) and getattr(obj, "traced", False) is True


def _package_modules() -> dict:
    """The loaded modules of pmodcalc, by name."""
    return {n: m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}


def installed() -> list[str]:
    """Every module or class attribute of pmodcalc bound to a wrapper."""
    found = []
    for mod_name, mod in _package_modules().items():
        for attr, obj in vars(mod).items():
            if is_traced(obj):
                found.append(f"{mod_name}.{attr}")
            elif isinstance(obj, type):
                found.extend(f"{mod_name}.{attr}.{a}" for a, v in vars(obj).items()
                             if is_traced(v))
    return found


def layer_self_times(stats: dict[str, SpanStat]) -> dict[str, float]:
    """Self time summed over the spans of each layer."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, st in stats.items():
        totals[name.split(".", 1)[0]] += st.self_s
    return totals


#: Span name -> the fields reported for it in a traced run.
REPORTED_SPANS = {
    "linalg.rref": ("calls", "self_s"),
    "linalg.solve": ("calls", "self_s"),
    "linalg.multiply": ("calls", "self_s"),
    "linalg.kernel_basis": ("calls", "self_s"),
    "lattice.grid": ("calls", "self_s"),
    "lattice.induced_covers": ("calls", "self_s"),
    "lattice.cubes": ("calls", "self_s"),
    "pmodule.validate": ("calls", "self_s"),
    "pmodule.validate_diamonds": ("calls", "self_s"),
    "pmodule.restrict_along_cube": ("calls", "self_s"),
    "pmodule.kernel_image_cokernel": ("self_s",),
    "calculus.t_lower": ("calls", "self_s"),
    "calculus.t_upper": ("calls", "self_s"),
    "calculus.gamma": ("calls", "self_s"),
    "calculus.cr": ("calls", "self_s"),
    "calculus.koszul": ("calls", "self_s"),
    "resolution.betti": ("calls", "self_s", "incl_s"),
    "resolution.pdim_check": ("self_s",),
    "generators.image": ("calls", "self_s", "incl_s"),
    "generators.rips": ("calls", "self_s", "incl_s"),
    "pmod_io.load": ("self_s", "incl_s"),
    "verify.run_suite": ("self_s",),
    "cli.main": ("self_s",),
}
COUNTERS = ("linalg.matrix_new.calls", "linalg.rref.cells", "lattice.grid.elements",
            "pmodule.module_new.calls", "pmodule.transport.calls",
            "calculus.t_lower.cache_hits", "calculus.t_upper.cache_hits")
TAGGED = ("calculus.t_lower", "calculus.t_upper")
TAGS = range(4)
SELF_LAYERS = ("linalg", "lattice", "pmodule", "calculus")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced region: name -> (value, unit)."""
    stats = aggregate(tracer.spans)
    empty = SpanStat()
    out: dict[str, tuple[float, str]] = {}
    for name in COUNTERS:
        out[name] = (tracer.counts.get(name, 0), "count")
    for name, fields in REPORTED_SPANS.items():
        st = stats.get(name, empty)
        for f in fields:
            out[f"{name}.{f}"] = (st.calls, "count") if f == "calls" else (getattr(st, f), "s")
    for name in TAGGED:
        st = stats.get(name, empty)
        for k in TAGS:
            out[f"{name}.n{k}.incl_s"] = (st.incl_by_tag.get(k, 0.0), "s")
    layers = layer_self_times(stats)
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (layers[layer], "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
