"""Spans around the package's public functions, installed from outside.

``install`` wraps every public function defined in a ``metaplectic``
module and rebinds each module-level reference to it, in every module of
the package: the defining module, each module that imported the name
(``metaplectic.phase_space.nufft2d2`` is ``metaplectic.nufft.nufft2d2``),
the package namespace, and module-level dicts of functions such as the
``verify`` suite table.  Calls made inside the package therefore nest, and a
span's self time is its duration minus the time of its child spans.

Nothing in the package is edited; a name that a later version moves or
deletes simply produces no spans, and the metrics built on it are omitted.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

PACKAGE = "metaplectic"


class Tracer:
    """In-memory span recorder.  Each span is
    (name, kind, duration_s, self_s, nbytes)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn, kind_fn=None, bytes_fn=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        sig = inspect.signature(fn) if kind_fn or bytes_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                kind = _safe(kind_fn, sig, args, kwargs, "")
                nbytes = _safe(bytes_fn, sig, args, kwargs, 0)
                spans.append((name, kind, dur, dur - frame[0], nbytes))

        wrapper.span = name
        return wrapper


def _safe(hook, sig, args, kwargs, default):
    if hook is None:
        return default
    try:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return hook(bound.arguments)
    except (TypeError, ValueError, AttributeError, KeyError, OSError):
        return default


# ----------------------------------------------------------------------
# call classifiers: split one function's calls into kinds of equal cost

def _qfio_kind(a):
    method = a["method"]
    return f"factored_n{a['f'].grid.n}" if method == "factored" else method


def _phase_apply_kind(a):
    import numpy as np
    s = np.asarray(a["s"].entries)
    rotation = np.allclose(s.T @ s, np.eye(s.shape[0]), atol=1e-12)
    return "rotation" if rotation else a["form"]


def _weyl_kind(a):
    import numpy as np
    x0 = np.asarray(a["z0"], dtype=float).reshape(-1)[: a["f"].grid.n]
    steps = x0 / a["f"].grid.dx
    return "on_lattice" if np.max(np.abs(steps - np.rint(steps))) < 1e-9 else "off_lattice"


def _asymptotic_kind(a):
    return f"hbar_{float(a['hbar']):g}"


def _file_bytes(a):
    return os.path.getsize(a["path"])


KIND_HOOKS = {
    "operators.qfio_apply": _qfio_kind,
    "phase_space.metaplectic_phase_apply": _phase_apply_kind,
    "operators.heisenberg_weyl": _weyl_kind,
    "asymptotics.metaplectic_asymptotic": _asymptotic_kind,
}
BYTES_HOOKS = {f"serialization.{verb}_{what}": _file_bytes
               for verb in ("save", "load") for what in ("sampled", "phase")}


def install(tracer: Tracer) -> set:
    """Wrap the package's public functions at every reference site.

    Returns the span names of the wrapped functions."""
    mods = [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    wrapped = {}
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                span = f"{short}.{attr}"
                wrapped[obj] = tracer.wrap(span, obj, KIND_HOOKS.get(span),
                                           BYTES_HOOKS.get(span))
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, val in list(obj.items()):
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    return {w.span for w in wrapped.values()}
