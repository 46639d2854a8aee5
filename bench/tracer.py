"""Outside-in tracer: spans around sympair's public functions.

The library is not instrumented; instead ``Tracer.install`` replaces each
target function with a wrapper at *every* binding of it inside the loaded
``sympair`` modules.  That matters because modules import functions by name
(``bounds`` and ``report`` call their own ``min_hamming_distance`` and
``bound_report`` bindings), so patching only the defining module would miss
calls.  Methods are patched on their class.

Each call records one span ``(label, start, end, parent, attrs)`` in memory;
``parent`` is the index of the enclosing span, so a span's self time is its
duration minus the durations of its direct children.  A target that does not
exist raises ``MissingTargetError``: a renamed function must fail the traced
run, not report zero calls.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from typing import NamedTuple


class MissingTargetError(LookupError):
    """A traced function named by the benchmark is absent from the library."""


class Span(NamedTuple):
    label: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables and for explicit ``span`` blocks."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, label: str, start: float, attrs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = Span(label, start, end, parent, attrs)

    @contextlib.contextmanager
    def span(self, label: str):
        index, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, label, start, None)

    def wrap(self, label: str, func, annotate=None):
        """Wrapper recording a ``label`` span per call; ``annotate(args,
        kwargs, result)`` may attach attributes from a successful call."""

        def traced(*args, **kwargs):
            index, parent = self._open()
            attrs = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if annotate is not None:
                    attrs = annotate(args, kwargs, result)
                return result
            finally:
                self._close(index, parent, label, start, attrs)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", label)
        traced.__qualname__ = getattr(func, "__qualname__", label)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced

    # -- patching -------------------------------------------------------

    def install(self, package: str, targets) -> None:
        """Wrap each ``(label, "module:qualname", annotate)`` target.

        Functions are replaced in every loaded module of ``package`` that
        binds them; ``Class.method`` targets are replaced on the class.
        """
        importlib.import_module(package)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for label, where, annotate in targets:
            module_name, _, qualname = where.partition(":")
            owner = _resolve(f"{package}.{module_name}", module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = _lookup(owner, part, where)
            original = _lookup(owner, attr, where)
            wrapper = self.wrap(label, original, annotate)
            if path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- analysis -------------------------------------------------------

    def finished(self) -> list[Span]:
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans are still open")
        return list(self.spans)


def _resolve(module_path: str, where: str):
    try:
        return importlib.import_module(module_path)
    except ModuleNotFoundError as exc:
        raise MissingTargetError(f"traced module {where!r} does not exist") from exc


def _lookup(owner, name: str, where: str):
    try:
        return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    except (KeyError, AttributeError) as exc:
        raise MissingTargetError(f"traced function {where!r} does not exist") from exc


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def outermost(spans: list[Span], label: str) -> list[Span]:
    """Spans with ``label`` that have no ancestor with the same label, so
    recursive calls are not counted twice in an inclusive time."""
    out = []
    for s in spans:
        if s.label != label:
            continue
        p = s.parent
        while p >= 0 and spans[p].label != label:
            p = spans[p].parent
        if p < 0:
            out.append(s)
    return out
