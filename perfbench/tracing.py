"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function.  It records its parent span,
its name, its start and end (``time.perf_counter_ns``) and an integer
tag a hook may set; every span of one process belongs to the
recorder's run id.  Spans stay in memory and are written once, when
the run ends: the coordinator keeps its own, and each forked worker
flushes its spans to ``<spool>/spans-<pid>.npz`` as it exits.

Wrappers are installed on class attributes and module functions for
the traced run only; :class:`Installed.restore` puts the original
function objects back.  Nothing under ``src/`` changes.

A span's *self time* is its duration minus the durations of its
direct children.  Spans nest strictly (one thread per process, the
wrapper opens and closes around the call), so children never overlap
and subtraction is exact.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Column order of a closed span.
PARENT, NAME, START, END, TAG = range(5)

# Root span of the traced call, and of each forked worker.
ROOT_SPAN = "run"
WORKER_ROOT = "worker"


class SpanRecorder:
    """Spans and counters of one traced run, one process at a time.

    ``clock`` is injectable so tests can drive exact timestamps.
    Forked ``multiprocessing`` children start an empty recorder of
    their own (see :meth:`_after_fork`) and flush it to ``spool_dir``
    when they exit.
    """

    def __init__(
        self,
        run_id: str,
        spool_dir: str | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.run_id = run_id
        self.spool_dir = spool_dir
        self.clock = clock
        self.pid = os.getpid()
        self.role = "coordinator"
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        # A span's id is its index here.  Closed spans are (parent,
        # name, start, end, tag) tuples; a wrapped call in progress is
        # None and a span opened by hand is a [parent, name, start] list.
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.active = False
        if spool_dir is not None:
            multiprocessing.util.register_after_fork(
                self, SpanRecorder._after_fork
            )

    # -- recording -----------------------------------------------------

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def open(self, name: str) -> int:
        """Open a span by hand (process roots); returns its id."""
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([parent, self.code(name), self.clock()])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close the innermost open span, which must be ``index``."""
        if not self.stack or self.stack[-1] != index:
            raise RuntimeError(f"span {index} is not the innermost open span")
        self.stack.pop()
        parent, name, start = self.spans[index]
        self.spans[index] = (parent, name, start, self.clock(), 0)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None):
        """Return ``fn`` wrapped so each call records one span.

        ``hook(recorder, args, kwargs, result)`` runs after a successful
        call; it may bump counters and returns the span's tag (or None).
        """
        code = self.code(name)
        spans = self.spans
        stack = self.stack
        clock = self.clock
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (parent, code, start, clock(), 0)
                raise
            end = clock()
            stack.pop()
            tag = None
            if hook is not None:
                tag = hook(recorder, args, kwargs, result)
            spans[index] = (parent, code, start, end, tag or 0)
            return result

        return traced

    # -- output --------------------------------------------------------

    def closed_spans(self) -> np.ndarray:
        """Closed spans as an ``(n, 5)`` int64 array; open ones end now."""
        now = self.clock()
        rows = []
        for span in self.spans:
            if span is None:  # pragma: no cover - a wrapped call still running
                span = (-1, self.code("<open>"), now, now, 0)
            elif len(span) == 3:
                span = (*span, now, 0)
            rows.append(span)
        if not rows:
            return np.zeros((0, 5), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    def snapshot(self) -> "ProcessSpans":
        return ProcessSpans(
            pid=self.pid,
            role=self.role,
            names=list(self.names),
            spans=self.closed_spans(),
            counters=dict(self.counters),
            samples={k: list(v) for k, v in self.samples.items()},
        )

    def flush(self, path: str) -> None:
        """Write this process's spans and counters to ``path``."""
        snap = self.snapshot()
        meta = json.dumps(
            {
                "run_id": self.run_id,
                "pid": snap.pid,
                "role": snap.role,
                "names": snap.names,
                "counters": snap.counters,
                "samples": snap.samples,
            }
        ).encode("utf-8")
        np.savez(
            path,
            spans=snap.spans,
            meta=np.frombuffer(meta, dtype=np.uint8),
        )

    # -- forked workers ------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked child: drop the parent's spans, open a root."""
        if not self.active:
            return
        self.pid = os.getpid()
        self.role = "worker"
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.samples.clear()
        self.open(WORKER_ROOT)
        # Runs from the worker's exit handler, after its target returns;
        # the root span is still open and ends at the flush.
        multiprocessing.util.Finalize(
            self,
            self.flush,
            args=(os.path.join(self.spool_dir, f"spans-{self.pid}.npz"),),
            exitpriority=100,
        )


@dataclass
class ProcessSpans:
    """Everything one process recorded."""

    pid: int
    role: str
    names: list[str]
    spans: np.ndarray
    counters: dict[str, float] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: str) -> "ProcessSpans":
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            spans = np.asarray(data["spans"], dtype=np.int64).reshape(-1, 5)
        return cls(
            pid=meta["pid"],
            role=meta["role"],
            names=meta["names"],
            spans=spans,
            counters=meta["counters"],
            samples=meta["samples"],
        )

    def durations(self) -> np.ndarray:
        return self.spans[:, END] - self.spans[:, START]

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's."""
        dur = self.durations()
        child = np.zeros(len(dur), dtype=np.int64)
        parents = self.spans[:, PARENT]
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        return dur - child

    def self_ns_by_name(self) -> dict[str, int]:
        totals = np.bincount(
            self.spans[:, NAME],
            weights=self.self_times(),
            minlength=len(self.names),
        )
        return {name: int(totals[i]) for i, name in enumerate(self.names)}

    def calls_by_name(self) -> dict[str, int]:
        """Calls per name, not counting a span nested in a same-name one.

        A delegating wrapper (an approach calling its inner approach)
        is one call of the layer, not two.
        """
        names = self.spans[:, NAME]
        parents = self.spans[:, PARENT]
        parent_names = np.where(parents >= 0, names[parents.clip(0)], -1)
        outer = parent_names != names
        counts = np.bincount(names[outer], minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def of(self, name: str) -> np.ndarray:
        """Rows of the spans called ``name``."""
        if name not in self.names:
            return self.spans[:0]
        return self.spans[self.spans[:, NAME] == self.names.index(name)]


# ----------------------------------------------------------------------
# Installing and restoring wrappers.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as ``span``.

    ``owner`` is a class (the attribute must be defined in its own
    ``__dict__``) or a module (every loaded module under ``package``
    that binds the same function object is patched too, so
    ``from x import f`` copies are covered).
    """

    owner: object
    attr: str
    span: str
    hook: Callable | None = None


@dataclass
class Installed:
    """Wrappers in place; :meth:`restore` undoes every one."""

    recorder: SpanRecorder
    patches: list[tuple[object, str, object]]

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.recorder.active = False

    def restored(self) -> bool:
        """True when every patched attribute holds its original again."""
        return all(
            _current(owner, attr) is original
            for owner, attr, original in self.patches
        )


def _current(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def install(
    recorder: SpanRecorder, targets: list[Target], package: str = "repro"
) -> Installed:
    """Wrap every target; returns the handle that restores them."""
    installed = Installed(recorder, [])
    try:
        for target in targets:
            owner, attr = target.owner, target.attr
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    raise AttributeError(
                        f"{owner.__qualname__} does not define {attr!r}"
                    )
                original = owner.__dict__[attr]
                if not callable(original):
                    raise TypeError(
                        f"{owner.__qualname__}.{attr} is not a plain function"
                    )
                installed.patches.append((owner, attr, original))
                setattr(
                    owner,
                    attr,
                    recorder.wrap(target.span, original, target.hook),
                )
                continue
            original = getattr(owner, attr)
            wrapped = recorder.wrap(target.span, original, target.hook)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is not owner and not (
                    name == package or name.startswith(package + ".")
                ):
                    continue
                if module is owner or getattr(module, attr, None) is original:
                    installed.patches.append((module, attr, original))
                    setattr(module, attr, wrapped)
    except BaseException:
        installed.restore()
        raise
    recorder.active = True
    return installed
