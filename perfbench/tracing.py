"""Span tracing of modfunctor's public functions, installed from outside.

:meth:`Tracer.install` replaces every public function of each layer module
(the names in its ``__all__``), every public classmethod of its public
classes and every hand-written constructor with a wrapper.  The wrapper is
put in the defining module and in every ``modfunctor`` module that
imported the name, so calls between modules are seen too.  Generator
functions are left alone: their work happens after they return.
:meth:`Tracer.uninstall` puts the originals back.

Each call becomes a span ``(id, parent, op, name, start, end)``.  Spans
stay in memory until :meth:`Tracer.write` at the end of the run.  Per pass
the tracer also keeps, for every wrapped name, the call count and the self
time (duration minus the time of child spans), plus work sizes read from
returned objects.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict

LAYERS = ("lie", "modular_data", "surfaces", "characters", "scaling", "fileio", "families", "cli")


def _size_verlinde(tracer, args, kwargs, result, seconds):
    tracer.sizes["modular_data.verlinde_fusion.bytes"] += result.N.nbytes


def _size_relation_rows(tracer, args, kwargs, result, seconds):
    tracer.sizes["characters.relation_rows"] += int(result.shape[0])


def _size_dump(tracer, args, kwargs, result, seconds):
    tracer.sizes["fileio.bytes"] += len(result.encode("utf-8"))


def _first_state_dim(tracer, args, kwargs, result, seconds):
    fusion = args[1] if len(args) > 1 else kwargs["fusion"]  # state_dim(data, fusion, a)
    if fusion not in tracer.seen_fusion:
        tracer.seen_fusion.add(fusion)
        tracer.sizes["surfaces.state_dim.first_s"] += seconds


SIZE_HOOKS = {
    "modular_data.verlinde_fusion": _size_verlinde,
    "characters.build_relation_matrix": _size_relation_rows,
    "fileio.dumps_modular_data": _size_dump,
    "surfaces.state_dim": _first_state_dim,
}
SIZE_METRICS = (
    "modular_data.verlinde_fusion.bytes",
    "characters.relation_rows",
    "fileio.bytes",
    "surfaces.state_dim.first_s",
)


def _own_init(cls, module):
    init = cls.__dict__.get("__init__")
    # dataclass-generated constructors are compiled from a string, not the module file
    if inspect.isfunction(init) and init.__code__.co_filename == module.__file__:
        return init
    return None


def _targets():
    """(owner, attribute, span name, function, kind) for every traced callable."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"modfunctor.{layer}"]
        for name in module.__all__:
            obj = getattr(module, name)
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                out.append((module, name, f"{layer}.{name}", obj, "function"))
            elif inspect.isclass(obj):
                init = _own_init(obj, module)
                if init is not None:
                    out.append((obj, "__init__", f"{layer}.{name}", init, "method"))
                for attr, raw in vars(obj).items():
                    if not attr.startswith("_") and isinstance(raw, classmethod):
                        out.append((obj, attr, f"{layer}.{name}.{attr}", raw.__func__, "classmethod"))
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self._name_ids = {}
        self.op = None  # index of the benchmark operation that is running
        self.stats = None  # span name -> [calls, self seconds], for the current pass
        self.sizes = None  # size metric -> value, for the current pass
        self.passes = []  # (stats, sizes) of every traced pass
        self.seen_fusion = weakref.WeakSet()
        self._stack = []
        self._patches = []

    def start_pass(self):
        self.stats = defaultdict(lambda: [0, 0.0])
        self.sizes = defaultdict(float)
        self.passes.append((self.stats, self.sizes))

    def metrics(self, names):
        """Median over the traced passes of each named call count, self time or size.

        A `<layer>.<function>.calls` or `.self_s` of a function that is not
        there (removed or renamed since the list was written) reads 0, its
        true cost; any other unknown name is left out.
        """
        out = {}
        for metric in names:
            base, _, kind = metric.rpartition(".")
            if metric in SIZE_METRICS:
                out[metric] = statistics.median(z.get(metric, 0.0) for _, z in self.passes)
            elif kind in ("calls", "self_s") and base.split(".")[0] in LAYERS:
                if base not in self._name_ids:
                    print(f"note: {base} is not a traced function; {metric} reads 0", file=sys.stderr)
                column = 0 if kind == "calls" else 1
                out[metric] = statistics.median(s[base][column] if base in s else 0 for s, _ in self.passes)
        return out

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        hook = SIZE_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                seconds = end - start
                spans[sid] = (sid, parent[0] if parent else -1, tracer.op, name_id, start, end)
                if parent:
                    parent[1] += seconds
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += seconds - frame[1]
            if hook is not None:
                hook(tracer, args, kwargs, result, seconds)
            return result

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sys.modules.items() if n == "modfunctor" or n.startswith("modfunctor.")]
        for owner, attr, name, fn, kind in _targets():
            wrapped = self._wrap(name, fn)
            if kind == "function":
                for module in package:
                    for alias, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, alias, value))
                            setattr(module, alias, wrapped)
            else:
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, classmethod(wrapped) if kind == "classmethod" else wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path, meta):
        doc = {
            "meta": meta,
            "names": list(self._name_ids),
            "columns": ["id", "parent", "op", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
