"""Span tracing of qtail from outside the package.

``Tracer.install`` replaces every public function of each layer module,
and every private one another qtail module imports, with a wrapper that
records a span (name, start, end, parent span, op id).  The replacement
is made in every qtail module namespace that holds the function, so calls
from one module into another (``qtail.verify.fourier_series``,
``qtail.fourier.log_theta``) and within a module are seen too.
``uninstall`` restores the originals.  Spans are kept in memory, written
out once by ``save``, and reduced to per-name and per-layer totals by
``summary``; a span's self time is its duration minus that of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager

import numpy as np

import qtail


def _qtail_modules() -> list:
    mods = [qtail]
    for info in pkgutil.iter_modules(qtail.__path__):
        mods.append(importlib.import_module(f"qtail.{info.name}"))
    return mods


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack = [-1]
        self.op = -1
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
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
                spans[idx] = (nid, t0, t1, parent, self.op)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code (the run, one op).  The
        wrappers repeat this bookkeeping inline: a context manager would
        add its own cost to every traced qtail call."""
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (nid, t0, t1, parent, self.op)

    def install(self) -> None:
        modules = _qtail_modules()
        for layer in self.layers:
            mod = importlib.import_module(f"qtail.{layer}")
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                holders = [(m, a) for m in modules for a, v in vars(m).items() if v is fn]
                imported = any(m is not mod for m, _ in holders)
                if attr.startswith("_") and not imported:
                    continue
                wrapper = self.wrap(f"{layer}.{attr}", fn)
                for m, a in holders:
                    setattr(m, a, wrapper)
                    self._patched.append((m, a, fn))

    def uninstall(self) -> None:
        for m, a, fn in reversed(self._patched):
            setattr(m, a, fn)
        self._patched.clear()

    def arrays(self) -> dict:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        return {
            "name": rows[:, 0].astype(np.int32),
            "start": rows[:, 1],
            "end": rows[:, 2],
            "parent": rows[:, 3].astype(np.int64),
            "op": rows[:, 4].astype(np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], dur[nested])
        self_t = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name"] == nid
            out[name] = {"calls": int(sel.sum()), "incl_s": float(dur[sel].sum()),
                         "self_s": float(self_t[sel].sum())}
        return out

    def time_under(self, name: str, ancestor: str) -> float:
        """Total duration of spans called ``name`` that run inside a span
        called ``ancestor``."""
        a = self.arrays()
        nid, aid = self._ids.get(name), self._ids.get(ancestor)
        if nid is None or aid is None:
            return 0.0
        total = 0.0
        for i in np.flatnonzero(a["name"] == nid):
            p = a["parent"][i]
            while p >= 0 and a["name"][p] != aid:
                p = a["parent"][p]
            if p >= 0:
                total += float(a["end"][i] - a["start"][i])
        return total
