"""Outside-in tracing: wrap a program's public callables from the outside.

The tracer replaces each named module function or class attribute by a
wrapper that records a span (name, start, end, parent) around the call,
and restores the originals on ``uninstall``.  Spans stay in memory and are
written once, at the end of the run.  A module function is replaced in
every module that holds it, so calls through ``from x import f`` bindings
are traced too.  A callable that no longer exists is listed in ``absent``
and otherwise ignored.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # [name, start, end, parent index or -1, stage name]
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @property
    def stage(self) -> str | None:
        return self.spans[self._stack[0]][0] if self._stack else None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        stage = self.stage or name
        self.spans.append([name, self.clock(), None, parent, stage])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span; the outermost open one names the stage."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, value: float) -> None:
        """Add to a counter of the current stage."""
        self.counts[(self.stage, name)] += value

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recording a span while a stage is open.  ``on_return(args,
        kwargs, result)`` yields (counter, value) pairs to add."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_return is not None:
                for counter, value in on_return(args, kwargs, result):
                    tracer.count(counter, value)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching --------------------------------------------------------------

    def install(self, targets) -> None:
        """targets: (module, attribute path, span name, on_return or None),
        where the path is ``func`` or ``Class.method``."""
        for module_name, path, name, on_return in targets:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                static = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}:{path}")
                continue
            if isinstance(static, classmethod):
                self._patch(owner, attr, classmethod(
                    self.wrap(name, static.__func__, on_return)))
            elif outer:
                self._patch(owner, attr, self.wrap(name, static, on_return))
            else:
                wrapped = self.wrap(name, static, on_return)
                for mod in list(sys.modules.values()):
                    if (getattr(mod, "__name__", "").split(".")[0]
                            == module_name.split(".")[0]
                            and getattr(mod, attr, None) is static):
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(i, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((end - start) - covered)
        return out

    def write(self, path: Path) -> None:
        """All spans as TSV: index, name, start, end, parent, stage."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write("index\tname\tstart\tend\tparent\tstage\n")
            for i, (name, start, end, parent, stage) in enumerate(self.spans):
                f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{stage}\n")
