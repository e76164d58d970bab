"""Spans around calls into the library, recorded from outside it.

The traced run wraps every public function of the layer modules at every
module attribute that holds it (``curvecast.sieve.draw_replicates`` and
``curvecast.updating.draw_replicates`` are one function imported twice),
so calls between modules are seen as well as calls from the benchmark.
Nothing inside the library changes: ``install`` swaps attributes and
``uninstall`` puts the originals back.

Per span name the recorder keeps the call count, busy time (wall time in
the outermost span of that name, so recursion is not counted twice),
self time (span time minus the time covered by its direct child spans),
optional distinct-input keys and, for memory spans, the tracemalloc peak
of the first call, replayed with the same arguments after the traced pass
so that tracemalloc's cost stays out of every span.
Warnings are recorded, never suppressed, and charged to the layer of the
innermost span open when they were raised (``outside`` when none was). The recorder assumes one thread, which holds
because every workload runs with ``n_workers=1``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
import types

LAYERS = ("gridcurves", "fpca", "varmodel", "sieve", "updating", "evalharness", "cli")


class SpanStat:
    __slots__ = ("calls", "busy_s", "self_s", "keys", "peak_alloc_bytes")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.keys = set()
        self.peak_alloc_bytes = 0

    def unique_ratio(self) -> float:
        return len(self.keys) / self.calls if self.calls else 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Recorder:
    """In-memory span table for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}
        self.warnings = {layer: 0 for layer in LAYERS}
        self.warnings["outside"] = 0
        self.warning_log = []   # filled by warnings.catch_warnings(record=True)
        self.first_calls = {}   # memory span name -> (function, args, kwargs)
        self._seen = 0
        self._stack = []
        self._depth = {}

    def stat(self, name) -> SpanStat:
        got = self.stats.get(name)
        if got is None:
            got = self.stats[name] = SpanStat()
        return got

    def enter(self, name) -> _Frame:
        self._charge_warnings(self._stack[-1].name.split(".", 1)[0] if self._stack else "outside")
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self.clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        dur = end - frame.start
        st = self.stat(frame.name)
        st.calls += 1
        st.self_s += dur - frame.child_s
        self._depth[frame.name] -= 1
        if self._depth[frame.name] == 0:
            st.busy_s += dur
        if self._stack:
            self._stack[-1].child_s += dur
        self._charge_warnings(frame.name.split(".", 1)[0])

    def _charge_warnings(self, layer) -> None:
        new = len(self.warning_log) - self._seen
        if new:
            self.warnings[layer] = self.warnings.get(layer, 0) + new
            self._seen = len(self.warning_log)

    def finish(self) -> None:
        """Charge warnings raised outside every span (in benchmark code)."""
        self._charge_warnings("outside")


def _wrap(rec: Recorder, name: str, fn, key_fn, memory: bool):
    sig = inspect.signature(fn) if key_fn is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.stat(name).keys.add(key_fn(**bound.arguments))
        if memory and name not in rec.first_calls:
            rec.first_calls[name] = (fn, args, kwargs)
        frame = rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.exit(frame)

    return wrapper


def replay_peaks(rec: Recorder) -> None:
    """Rerun the first call of each memory span under tracemalloc, unwrapped."""
    for name, (fn, args, kwargs) in rec.first_calls.items():
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            rec.stat(name).peak_alloc_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    rec.first_calls.clear()


def package_modules(package: str) -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    }


def public_functions(package: str) -> dict:
    """Map each public function defined in a layer module to ``layer.name``."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package}.{layer}")
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
            ):
                out[obj] = f"{layer}.{attr}"
    return out


def install(rec: Recorder, package: str = "curvecast", key_fns=None, memory=()) -> list:
    """Wrap every public layer function at every module attribute that holds it.

    Returns the patch list that :func:`uninstall` needs.
    """
    key_fns = key_fns or {}
    wrappers = {
        fn: _wrap(rec, name, fn, key_fns.get(name), name in memory)
        for fn, name in public_functions(package).items()
    }
    patches = []
    for mod in package_modules(package).values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
                patches.append((mod, attr, obj))
    return patches


def uninstall(patches: list) -> None:
    for mod, attr, original in reversed(patches):
        setattr(mod, attr, original)


def attribute_snapshot(package: str = "curvecast") -> dict:
    """Identity of every module attribute in the package, for before/after checks.

    Dunder names are left out: the warnings machinery adds
    ``__warningregistry__`` to any module that raises a warning.
    """
    return {
        (name, attr): id(obj)
        for name, mod in package_modules(package).items()
        for attr, obj in vars(mod).items()
        if not attr.startswith("__")
    }
