"""Span tracer for the dcts layers, installed from outside the package.

The tracer replaces named module (or class) attributes with timing wrappers
and restores the originals on exit. dcts code calls its own functions and
those of other modules through module attributes at call time
(``rbd.forward_dynamics``, ``qpcore.solve``, a module-global
``bias_and_gravity``), so a wrapped attribute also sees every nested call.

Spans stay in memory as ``(span, parent, name, start_ns, end_ns, run)``
tuples; :func:`self_times` derives per-name self time from them and
:meth:`Tracer.write_csv` writes them out once the run has ended.
"""

from __future__ import annotations

import csv
import functools
import time
from collections import Counter
from pathlib import Path


def resolve(root, path: str):
    """(owner, attribute) of a dotted path such as ``sim.Trace.to_csv``."""
    owner = root
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Wraps ``targets`` — ``(name, owner, attribute)`` triples — while active.

    ``observers`` maps a span name to ``fn(result, counts)``, called after each
    call returns so that counters are taken where the work happens.
    ``clock`` returns integer nanoseconds; tests substitute a fake.
    """

    def __init__(self, targets, observers=None, clock=time.perf_counter_ns):
        self.targets = list(targets)
        self.observers = dict(observers or {})
        self.clock = clock
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        observer = self.observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, self.run))
            if observer is not None:
                observer(result, self.counts)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for name, owner, attr in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "parent", "name", "start_ns", "end_ns", "run"])
            out.writerows(self.spans)


def self_times(spans) -> dict[str, tuple[int, int]]:
    """Per-name (self time in ns, calls): each span's duration minus the
    durations of its direct children. Calls on one thread nest, so children
    never overlap one another."""
    in_children: dict[int, int] = {}
    for _sid, parent, _name, start, end, _run in spans:
        if parent >= 0:
            in_children[parent] = in_children.get(parent, 0) + end - start
    out: dict[str, tuple[int, int]] = {}
    for sid, _parent, name, start, end, _run in spans:
        total, calls = out.get(name, (0, 0))
        out[name] = (total + end - start - in_children.get(sid, 0), calls + 1)
    return out
