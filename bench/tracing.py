"""In-memory span tracing of the kreinspec layers, installed from outside.

``Tracer.install`` replaces every public function of the package's modules
with a timing wrapper.  A function reached through ``from .x import y`` is
bound in several module namespaces, so the same wrapper is installed in each
namespace that holds the original object; a call through any of them is
then seen.  ``Tracer.uninstall`` puts every original back.

A span is (name, start, end, parent index, run id), where the parent index
points into the same span list.  Spans stay in memory until the caller
writes them out.  Self time is a span's duration minus the time its direct
children cover; calls are sequential, so children never overlap.
"""

import functools
import importlib
import inspect
import time

PACKAGE = "kreinspec"
MODULES = ("geometry", "operators", "verification", "sturm_liouville",
           "reporting", "cli")
# Foreign callables counted through one module's binding of them.
FOREIGN = {"sturm_liouville": ("quad",)}
ROOT = "cli.run"

_MARK = "__bench_trace_original__"


def _namespaces():
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES]


def _traced_functions():
    """Map id(original) -> (span name, original) for every public function
    defined in the package, plus the foreign callables in ``FOREIGN``."""
    found = {}
    for mod in _namespaces()[1:]:
        short = mod.__name__.split(".")[-1]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or not (obj.__module__ or "").startswith(PACKAGE + ".")):
                continue
            owner = obj.__module__.split(".")[-1]
            found.setdefault(id(obj), (f"{owner}.{obj.__name__}", obj))
        for attr in FOREIGN.get(short, ()):
            obj = getattr(mod, attr)
            found.setdefault(id(obj), (f"{short}.{attr}", obj))
    return found


def installed_wrappers():
    """(module, attribute) pairs that currently hold a tracing wrapper."""
    return [(mod.__name__, attr) for mod in _namespaces()
            for attr, obj in vars(mod).items() if hasattr(obj, _MARK)]


def wrapper_cost_s(calls=100_000, repeats=5):
    """Seconds a wrapper adds to one call: the best of ``repeats`` timings
    of ``calls`` wrapped minus bare calls of a no-op.  The spans it makes
    go to a separate tracer."""
    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return min(costs)


class Tracer:
    """Records spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)

        setattr(wrapper, _MARK, func)
        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = _traced_functions()
        wrappers = {key: self._wrap(name, func)
                    for key, (name, func) in originals.items()}
        for ns in _namespaces():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers and originals[id(obj)][1] is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self):
        while self._patched:
            ns, attr, original = self._patched.pop()
            setattr(ns, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def run(self, run_id, func, *args):
        """Call ``func(*args)`` inside a root span that carries ``run_id``."""
        self.run_id = run_id
        return self._wrap(ROOT, func)(*args)

    def layers(self, run_id):
        """Per span name: calls, inclusive seconds, self seconds and the
        list of call durations, over the spans of one run."""
        mine = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        covered = {}
        for _, (_, start, end, parent, _) in mine:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        out = {}
        for i, (name, start, end, _, _) in mine:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered.get(i, 0.0)
            entry["durations"].append(end - start)
        return out

    def records(self):
        return {"fields": ["name", "start", "end", "parent", "run"],
                "spans": self.spans}
