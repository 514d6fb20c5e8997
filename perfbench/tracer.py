"""Per-layer tracing of besselbr from outside the library.

The layers are the package's seven modules.  :class:`Tracer` replaces every
public module-level function of each layer by a timing wrapper, and binds the
wrapper at every import site: the package namespace and every besselbr module
that imported the function by name (``stats`` and ``cli`` import most of
theirs that way).  ``StreamKey.generator`` and ``SamplePath`` construction are
wrapped on their classes, which covers every caller at once.

Spans are aggregated as they close instead of being stored, so a traced run
of thousands of ops holds constant memory:

* ``<layer>.<function>.calls`` / ``.busy_s``: call count and inclusive time;
* ``<layer>.self_s``: span time minus the part covered by child spans;
* ``numerics.parallel_map.worker_busy_s`` / ``.idle_s``: the pool's worker
  spans and ``threads * wall - worker busy``.

``parallel_map`` runs its workers on pool threads, which do not inherit the
caller's span stack, so each worker call becomes a span whose parent is the
``parallel_map`` span and whose layer is the module that defined the worker.
Concurrent worker spans cover their parent by the union of their intervals.

Work counts computed from call arguments (rows and normal draws of the
batched rescale kernels) are kept apart from measured counts, under
:attr:`Tracer.computed`.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "besselbr"
LAYERS = ("numerics", "paths", "rescale", "brown_resnick", "tails", "stats", "cli")

# class members traced besides the module-level functions: (layer, class, attribute, span name)
_MEMBERS = (
    ("numerics", "StreamKey", "generator", "numerics.generator"),
    ("paths", "SamplePath", "__init__", "paths.SamplePath"),
)


def _bessel_work(args):
    count, m, times = args["count"], args["m"], len(args["ts"])
    return {"rescale.rows": count, "rescale.normals_drawn": count * m * times}


def _scalar_work(args):
    count, m, times = args["count"], args["m"], len(args["ts"])
    return {"rescale.rows": count, "rescale.normals_drawn": 2 * count * m * times}


# span name -> work counts computed from the bound call arguments
_WORK_COUNTS = {
    "rescale.local_bessel_batch": _bessel_work,
    "rescale.local_scalar_batch": _scalar_work,
}


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class _Span:
    __slots__ = ("covered", "intervals")

    def __init__(self):
        self.covered = 0.0  # time of same-thread child spans
        self.intervals = None  # (start, end) of worker spans, parallel_map only


class Tracer:
    """Aggregating span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.computed = defaultdict(int)
        self.pool_worker_busy_s = 0.0
        self.pool_idle_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, layer, span, duration, stack):
        covered = span.covered
        if span.intervals is not None:
            covered += _union_length(span.intervals)
        with self._lock:
            if name is not None:
                self.calls[name] += 1
                self.busy_s[name] += duration
            self.self_s[layer] += duration - covered
        if stack:
            stack[-1].covered += duration

    def _wrap(self, name, layer, fn):
        work = _WORK_COUNTS.get(name)
        signature = inspect.signature(fn) if work else None
        is_pool = name == "numerics.parallel_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = work(bound.arguments)
                with self._lock:
                    for key, value in counts.items():
                        self.computed[key] += value
            stack = self._stack()
            span = _Span()
            if is_pool:
                args, kwargs, threads = self._pool_args(fn, span, args, kwargs)
            stack.append(span)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                self._close(name, layer, span, duration, stack)
                if is_pool:
                    busy = sum(hi - lo for lo, hi in span.intervals)
                    with self._lock:
                        self.pool_worker_busy_s += busy
                        self.pool_idle_s += threads * duration - busy

        return traced

    def _pool_args(self, fn, pool_span, args, kwargs):
        """Wrap ``parallel_map``'s worker so its calls are child spans of ``pool_span``."""
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        worker = bound.arguments["worker"]
        count, threads = bound.arguments["count"], bound.arguments["threads"]
        layer = _layer_of(getattr(worker, "__module__", None)) or "numerics"
        pool_span.intervals = []

        def traced_worker(index):
            stack = self._stack()
            span = _Span()
            stack.append(span)
            start = time.perf_counter()
            try:
                return worker(index)
            finally:
                end = time.perf_counter()
                stack.pop()
                # the parent lives on the calling thread: report by interval
                pool_span.intervals.append((start, end))
                self._close(None, layer, span, end - start, ())

        bound.arguments["worker"] = traced_worker
        return bound.args, bound.kwargs, threads if threads > 1 and count > 1 else 1

    # -- patching ---------------------------------------------------------

    def install(self):
        """Wrap every layer's public functions at every besselbr import site."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        sites = [
            module
            for mod_name, module in sorted(sys.modules.items())
            if module is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", layer, value)
        for site in sites:
            for attr, value in list(vars(site).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(site, attr, wrapper)
        for layer, cls_name, attr, name in _MEMBERS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, layer, cls.__dict__[attr]))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _layer_of(module_name):
    if module_name and module_name.startswith(PACKAGE + "."):
        layer = module_name[len(PACKAGE) + 1 :]
        if layer in LAYERS:
            return layer
    return None
