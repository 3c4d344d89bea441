"""Span tracing of unitcycle's public functions, from outside the package.

`Tracer.install()` wraps each function named in TARGETS and puts the
wrapper in place of the original on its defining module and on every
unitcycle module that imported the name, so internal calls such as
relsearch's call of zero_quadruples are traced too.  Each call records a
span (name, start, end, parent span, op id) in memory; `uninstall()` puts
the originals back.  A span's self time is its duration minus the durations
of its direct children (calls run on one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs traced; the layer is the module name.
TARGETS = (
    ("backends", "zero_quadruples"),
    ("relsearch", "find_relations"),
    ("relsearch", "term_table"),
    ("relsearch", "admits_4cycle"),
    ("sring", "term_value"),
    ("exactnum", "is_probable_prime"),
    ("exactnum", "factor_over"),
    ("survey", "survey_run"),
    ("survey", "csv_bytes"),
    ("survey", "svg_bytes"),
    ("cli", "main"),
    ("cli", "dispatch"),
    ("cli", "build_parser"),
    ("cycles", "zieve_unit_search"),
    ("cycles", "lagrange_cycle_poly"),
    ("cycles", "verify_cycle"),
    ("cycles", "orbit"),
    ("lenstra", "unit_difference_clique"),
    ("avoidance", "separation_certificate"),
    ("avoidance", "abc_pair"),
    ("avoidance", "construct_avoiding_set"),
)

NO_PARENT = -1
PACKAGE = "unitcycle"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = 0
        self.active = False
        self.errors: Counter[str] = Counter()
        # name -> callback(args, kwargs, result), run after the span has ended.
        self.hooks: dict = {}
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        layer = name.split(".", 1)[0]
        hook = self.hooks.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op_id)
            self.span_parent.append(self.stack[-1] if self.stack else NO_PARENT)
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self.span_end[idx] = perf()
                self.stack.pop()
                parent = self.stack[-1] if self.stack else NO_PARENT
                if parent == NO_PARENT or not self.names[self.span_name[parent]].startswith(layer + "."):
                    self.errors[f"{layer}.errors.{type(e).__name__}"] += 1
                raise
            self.span_end[idx] = perf()
            self.stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target on its module and on each package module that imported it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        for modname, fname in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            original = getattr(mod, fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._originals.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._originals):
            setattr(m, attr, original)
        self._originals.clear()

    # -- analysis --------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "op": np.frombuffer(self.span_op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, total seconds, self seconds."""
        sp = self.spans()
        return summarise(self.names, sp["name"], sp["parent"], sp["start"], sp["end"])

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent != NO_PARENT
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def summarise(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    dur = end - start
    own = self_times(parent, start, end)
    out = {}
    for nid, label in enumerate(names):
        mask = name == nid
        out[label] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
        }
    return out
