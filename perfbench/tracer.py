"""Outside-in layer tracer for gkdvlab.

The tracer wraps functions of the package modules from the outside, so
nothing under ``src/`` knows it exists.  ``from .spectral import f`` copies
the name ``f`` into the importing module, so wrapping only
``gkdvlab.spectral.f`` would miss every call made through that copy; the
tracer therefore rebinds every module-level name that refers to a wrapped
function, and afterwards asks the garbage collector whether any other
reference to an original function is left.  A reference it cannot rebind
(a function stored inside a container, say) is an error, because those
calls would be silently missed.

Spans live in memory as flat columns: parent span id, function code, start,
end, and two integers ``a`` and ``b`` taken from the arguments or the result
(usually rows and grid size N).  They are written out once, at the end.
"""

from __future__ import annotations

import gc
import inspect
import os
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("spectral", "norms", "spacetime", "solver", "estimates",
          "diagnostics", "traceio", "cli")

# Public functions left unwrapped.  jsonable recurses once per JSON leaf, so
# a span per call would trace the report encoder rather than a layer.
_SKIP = {"traceio": {"jsonable"}}

# Private functions wrapped because a layer metric needs their arguments:
# the ensemble size of each refinement leg and the bytes of each write.
_EXTRA = {"estimates": ("_ensemble",), "traceio": ("_atomic_write_bytes",)}


def _rows_n(arr):
    shape = np.shape(arr)
    n = shape[-1] if shape else 1
    return (int(np.prod(shape[:-1], dtype=np.int64)) if len(shape) > 1 else 1), int(n)


def _trace_shape(trace, *_, **__):
    return _rows_n(trace.coeffs)


def _array_shape(arr, *_, **__):
    return _rows_n(arr)


def _matrix_on_grid(coeffs, grid, *_, **__):
    return int(np.size(coeffs)) // grid.size, grid.size


def _field_grid(f, *_, **__):
    return 1, f.grid.size


def _free_evolution(u0, times, *_, **__):
    return int(np.size(times)), u0.grid.size


def _ensemble(spec, *_, **__):
    return spec.ensemble, spec.size


def _payload(path, payload, *_, **__):
    return len(payload), 0


def _file_bytes(path, *_, **__):
    side = os.path.splitext(os.fspath(path))[0] + ".json"
    extra = os.path.getsize(side) if os.path.exists(side) else 0
    return os.path.getsize(path) + extra, 0


# a, b recorded per call, computed from the arguments on entry
_ENTRY = {
    "spectral.values_to_coeffs": _array_shape,
    "spectral.coeffs_to_values": _array_shape,
    "spectral.apply_pointwise_matrix": _matrix_on_grid,
    "spectral.pointwise_product": _field_grid,
    "spectral.SpectralField.__post_init__": _field_grid,
    "spacetime.free_evolution": _free_evolution,
    "spacetime.mixed_norm_values": _array_shape,
    "spacetime.mixed_norm": _trace_shape,
    "spacetime.xnorm": _trace_shape,
    "spacetime.snorm": _trace_shape,
    "spacetime.ynorm": _trace_shape,
    "solver.retarded_integral": _trace_shape,
    "solver.duhamel_map": _trace_shape,
    "solver.picard_solve": _field_grid,
    "solver.reference_solve": _field_grid,
    "solver.energy": _field_grid,
    "solver.glued_solve": _field_grid,
    "estimates._ensemble": _ensemble,
    "traceio._atomic_write_bytes": _payload,
    "traceio.read_trace": _file_bytes,
}

# a overwritten from the result on exit: the number of glued segments
_EXIT = {"solver.glued_solve": lambda result: len(result.segments)}


class Tracer:
    """Holds the span columns and the bindings it replaced."""

    def __init__(self):
        self.names = []          # function code -> "layer.qualname"
        self.parent = array("i")
        self.fn = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.a = array("q")
        self.b = array("q")
        self._stack = [-1]
        self._restore = []       # (namespace owner, attribute, original)
        self._originals = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        code = len(self.names)
        self.names.append(name)
        entry, leave = _ENTRY.get(name), _EXIT.get(name)
        parent, fns, t0s, t1s, acol, bcol = (self.parent, self.fn, self.t0,
                                             self.t1, self.a, self.b)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            a, b = (0, 0) if entry is None else entry(*args, **kwargs)
            sid = len(fns)
            parent.append(stack[-1])
            fns.append(code)
            acol.append(a)
            bcol.append(b)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if leave is not None:
                acol[sid] = leave(result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every layer's public functions and rebind every copy."""
        modules = {layer: sys.modules[f"gkdvlab.{layer}"] for layer in LAYERS}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            skip = _SKIP.get(layer, set())
            for attr, obj in list(vars(mod).items()):
                public = not attr.startswith("_") and attr not in skip
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if public or attr in _EXTRA.get(layer, ()):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        field_cls = modules["spectral"].SpectralField
        post = field_cls.__dict__["__post_init__"]
        field_wrapper = self._wrap("spectral.SpectralField.__post_init__", post)
        self._restore.append((field_cls, "__post_init__", post))
        setattr(field_cls, "__post_init__", field_wrapper)
        self._originals.append(post)

        self._rebind([sys.modules["gkdvlab"], *modules.values()], wrapped)
        self._originals.extend(orig for orig, _ in wrapped.values())
        del wrapped, obj, post
        self._check_no_stray_references()

    def _rebind(self, namespaces, wrapped):
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _check_no_stray_references(self):
        """Fail when an original is still reachable by a path not rebound.

        Allowed holders are the tracer's own bookkeeping, the closure cells
        of the wrappers and interpreter frames.  Anything else, such as a
        dict, a tuple of defaults or a class body, would let calls bypass
        the wrapper.
        """
        own = {id(self._originals)}
        own.update(id(entry) for entry in self._restore)
        gc.collect()
        for orig in self._originals:
            for ref in gc.get_referrers(orig):
                if id(ref) in own or inspect.isframe(ref) or isinstance(ref, types.CellType):
                    continue
                raise RuntimeError(
                    f"tracer: {orig.__module__}.{orig.__qualname__} is still "
                    f"referenced by a {type(ref).__name__} that was not rebound")

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self._originals.clear()

    # -- output --------------------------------------------------------------

    def columns(self):
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "fn": np.frombuffer(self.fn, dtype=np.int16).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def save(self, path):
        """Write the spans and the function names as one .npz file."""
        np.savez(path, names=np.array(self.names), **self.columns())
