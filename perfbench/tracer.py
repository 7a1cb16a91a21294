"""Span tracing of the cubesim layers, installed from outside the package.

A :class:`Tracer` wraps the public functions of each cubesim module, and
the ``__post_init__`` validation and public methods of its classes, so
that every call records a span: name, start, end and the span that
caused it.  Modules import functions from each other by name (for
example ``experiments`` binds ``apply_transform`` from ``multiport``),
so :func:`install` rebinds every module's reference to a wrapped
function, not only the defining module's.

Spans stay in memory until :meth:`Tracer.take` folds them into per-name
``calls`` and ``self_s`` totals; a span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

#: cubesim modules whose functions are traced, in dependency order.  Their
#: short names are the layer names used in metric keys.
LAYERS = ("tensor", "results", "quantum", "multiport", "cubes", "experiments")


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int  # index into the span list, -1 for a root span


def self_times(spans: list[Span]) -> list[int]:
    """Self time of every span: its duration minus the union of the parts
    of its interval covered by its direct children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


@dataclass
class Totals:
    """Per-name call counts and self time, plus per-layer error counts and
    the counters computed from call arguments and results."""

    calls: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    basis_bytes: int = 0
    # (process, n_paths) pairs seen by assemble_multiport; caching is per
    # process, so the waste ratio is calls over distinct pairs
    assembled: set = field(default_factory=set)

    def add(self, other: "Totals") -> None:
        self.calls.update(other.calls)
        self.self_ns.update(other.self_ns)
        self.errors.update(other.errors)
        self.basis_bytes += other.basis_bytes
        self.assembled |= other.assembled

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "errors": dict(self.errors),
            "basis_bytes": self.basis_bytes,
            "assembled": sorted(self.assembled),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Totals":
        return cls(
            Counter(data["calls"]),
            Counter(data["self_ns"]),
            Counter(data["errors"]),
            data["basis_bytes"],
            {tuple(pair) for pair in data["assembled"]},
        )


class Tracer:
    def __init__(self, process: str = "0") -> None:
        self.process = process
        self.spans: list[Span] = []
        self.totals = Totals()
        self._stack: list[int] = []
        self._last_error: BaseException | None = None

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # an error passing up through several spans counts once
                if exc is not self._last_error:
                    self._last_error = exc
                    self.totals.errors[layer] += 1
                raise
            finally:
                span.end = clock()
                stack.pop()
            if name == "multiport.sub_basis":
                self.totals.basis_bytes += result.cubes.nbytes
            elif name == "multiport.assemble_multiport":
                n_paths = args[0] if args else kwargs["n_paths"]
                self.totals.assembled.add((self.process, n_paths))
            return result

        return traced

    def take(self) -> Totals:
        """Fold the recorded spans into the totals, drop the spans, and hand
        the totals over.  Call only when no span is open."""
        totals, self.totals = self.totals, Totals()
        for span, own in zip(self.spans, self_times(self.spans)):
            totals.calls[span.name] += 1
            totals.self_ns[span.name] += own
        self.spans.clear()
        return totals


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function and rebind it in all cubesim modules.

    Returns the replaced bindings as ``(owner, attribute, original)``;
    :func:`uninstall` puts them back.
    """
    import cubesim  # noqa: F401  (loads every submodule)

    patches: list[tuple[object, str, object]] = []
    wrapped: dict[object, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"cubesim.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                _wrap_class(tracer, f"{layer}.{attr}", obj, patches)
    for name, module in list(sys.modules.items()):
        if name != "cubesim" and not name.startswith("cubesim."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                patches.append((module, attr, obj))
                setattr(module, attr, wrapped[obj])
    return patches


def _wrap_class(tracer: Tracer, name: str, cls: type, patches: list) -> None:
    for attr, member in list(vars(cls).items()):
        if attr == "__post_init__":
            replacement = tracer.wrap(name, member)
        elif attr.startswith("_"):
            continue
        elif inspect.isfunction(member):
            replacement = tracer.wrap(f"{name}.{attr}", member)
        elif isinstance(member, classmethod):
            replacement = classmethod(tracer.wrap(f"{name}.{attr}", member.__func__))
        else:
            continue
        patches.append((cls, attr, member))
        setattr(cls, attr, replacement)


def uninstall(patches: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
