"""Outside-in span tracer for the ehrelay layers.

The program is not edited. Instead, every public function defined in the
traced modules is wrapped, and the wrapper is bound in every ``ehrelay.*``
namespace that holds the original: ``from .pmf import binary_entropy``
leaves copies in ``rates`` and ``optimize``, and those copies are the ones
the hot loops call. Modules are taken from ``sys.modules``, because the
package attribute ``ehrelay.optimize`` is the re-exported function, not the
module.

Each wrapped call records one span (function, start, end, parent span, op
id) into flat arrays kept in memory. Self time is a span's duration minus
the time its direct children cover; calls are single-threaded and nested,
so the children of a span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("pmf", "battery", "rates", "timing", "optimize", "mclab", "cli")


def _work_n(args, kwargs):
    """Steps asked of ``sample_path(transition, init, n, rng)``."""
    return kwargs["n"] if "n" in kwargs else args[2]


def _work_symbols(args, kwargs):
    """Symbols scored by ``forward_loglik(chain, channel, observed)``."""
    observed = kwargs["observed"] if "observed" in kwargs else args[2]
    return len(observed)


# Work done per call, counted where it happens so ratios use the layer's own
# numbers: steps for the path sampler, symbols for the forward recursion.
_WORK = {
    "mclab.sample_path": _work_n,
    "battery.forward_loglik": _work_symbols,
}


class Tracer:
    """Wraps the public layer functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.errors = array("q")
        self.work = array("d")
        self.evals = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._bindings: list = []  # (namespace, name, original, wrapper)

    def install(self) -> None:
        """Bind the wrappers in every namespace that holds a traced function."""
        if not self._bindings:
            self._bindings = self._find_bindings()
        for space, attr, _, wrapper in self._bindings:
            space[attr] = wrapper

    def uninstall(self) -> None:
        """Put every original function back where it was found."""
        for space, attr, original, _ in self._bindings:
            space[attr] = original

    def _find_bindings(self) -> list:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"ehrelay.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ehrelay" and not mod_name.startswith("ehrelay."):
                continue
            space = vars(module)
            for attr, obj in space.items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    bindings.append((space, attr, obj, hit[1]))
        return bindings

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        self.work.append(0.0)
        work = _WORK.get(name)
        counts_evals = name == "optimize.optimize"
        stack = self._stack
        clock = time.perf_counter
        fns, parents, ops, starts, ends = self.fn, self.parent, self.op, self.start, self.end
        errors, work_done = self.errors, self.work
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            fns.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            starts.append(0.0)
            ends.append(0.0)
            if work is not None:
                work_done[fid] += work(args, kwargs)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counts_evals:
                tracer.evals += result.evaluations
            return result

        return wrapper

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as arrays, with durations and self times."""
        fn = np.frombuffer(self.fn, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        return {"fn": fn, "parent": parent,
                "op": np.frombuffer(self.op, dtype=np.int64).copy(),
                "start": start, "end": end, "dur": dur, "self": dur - covered}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, inclusive and self seconds, errors, work, max."""
        sp = self.spans()
        k = len(self.names)
        calls = np.bincount(sp["fn"], minlength=k)
        total = np.bincount(sp["fn"], weights=sp["dur"], minlength=k)
        own = np.bincount(sp["fn"], weights=sp["self"], minlength=k)
        longest = np.zeros(k)
        np.maximum.at(longest, sp["fn"], sp["dur"])
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "s": float(total[i]),
                         "self_s": float(own[i]), "max_s": float(longest[i]),
                         "errors": int(self.errors[i]), "work": float(self.work[i])}
        return out

    def save(self, path: str) -> None:
        """Write every span and the function table as one compressed file."""
        sp = self.spans()
        np.savez_compressed(path, names=np.array(self.names), **sp)
