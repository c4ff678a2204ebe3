"""Host-time span recorder for the pipeline benchmark.

The recorder replaces a synchronous function or method with a thin wrapper
that appends one row per call: ``(layer, start, end, parent)``.  Rows stay
in flat arrays while the cell runs (the Pipit shape: spans as rows) and are
reduced to per-layer ``calls`` / ``busy_s`` / ``self_s`` afterwards.

* Only plain synchronous functions are wrapped.  A coroutine suspends at
  every ``await`` and the scheduler interleaves other ranks into its span,
  so wrapping one is refused.
* Wrapper frames are invisible to the traced program.  The tracer hashes
  every Python frame between an MPI call and the scheduler into the call
  path signature; a visible wrapper frame would change the signatures,
  the clustering and the trace.  Each wrapper's code object therefore
  carries a file name that the stack walker treats as tracer plumbing
  (``hide_as``), so the walker skips it exactly as it skips the tracer's
  own frames.
* ``uninstall`` puts every original back, in reverse order of patching,
  and checks that it did.

Garbage-collector pauses are counted through ``gc.callbacks``.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from array import array
from typing import Any, Callable


class SpanRecorder:
    """Wraps entry points of the program and records their spans."""

    def __init__(self, hide_as: str) -> None:
        #: file name given to wrapper frames (see the module docstring)
        self.hidden_filename = f"<pipebench span>{hide_as}"
        self.layer_names: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # -- patching ----------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layer_names)
            self.layer_names.append(layer)
        return lid

    def wrap(
        self,
        owner: Any,
        name: str,
        layer: str,
        on_result: Callable[[Any], None] | None = None,
    ) -> None:
        """Record a span of ``layer`` around every call of ``owner.name``.

        ``owner`` is the module or class whose namespace callers look the
        name up in.  ``on_result`` sees each return value.
        """
        original = vars(owner)[name]
        if not inspect.isfunction(original):
            raise TypeError(f"{owner.__name__}.{name} is not a plain function")
        if inspect.iscoroutinefunction(original) or inspect.isasyncgenfunction(
            original
        ):
            raise TypeError(
                f"{owner.__name__}.{name} is asynchronous; its span would "
                "include other ranks"
            )
        lid = self._layer_id(layer)
        layers, starts, ends, parents = (
            self.layer, self.start, self.end, self.parent
        )
        open_spans = self._open
        clock = time.perf_counter

        def span(*args: Any, **kwargs: Any) -> Any:
            idx = len(layers)
            layers.append(lid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        span.__code__ = span.__code__.replace(
            co_filename=self.hidden_filename
        )
        functools.update_wrapper(span, original)
        setattr(owner, name, span)
        self._patches.append((owner, name, original))

    def watch_gc(self) -> None:
        """Count collections and their pause time until ``uninstall``."""
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause_s += time.perf_counter() - self._gc_started

    def uninstall(self) -> None:
        """Restore every original and stop watching the collector."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        for owner, name, original in self._patches:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"{owner.__name__}.{name} was not restored")
        self._patches.clear()

    # -- queries -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` and ``busy_s`` over its outermost spans
        (a span nested in a span of the same layer is not counted twice)
        and ``self_s``, busy time minus the time of wrapped children."""
        n = len(self.layer)
        layers, parents = self.layer, self.parent
        durations = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * n
        ancestors = [0] * n  # bitmask of the layers open above each span
        out = {
            name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
            for name in self.layer_names
        }
        names = self.layer_names
        for i in range(n):
            p = parents[i]
            if p >= 0:
                children[p] += durations[i]
                ancestors[i] = ancestors[p] | (1 << layers[p])
        for i in range(n):
            row = out[names[layers[i]]]
            row["self_s"] += durations[i] - children[i]
            if not (ancestors[i] >> layers[i]) & 1:
                row["calls"] += 1
                row["busy_s"] += durations[i]
        return out

    def write_rows(self, path: str) -> None:
        """Write the spans as CSV rows: layer, start, end, parent."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.layer_names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,start_s,end_s,parent\n")
            for i, (lid, s, e, p) in enumerate(
                zip(self.layer, self.start, self.end, self.parent)
            ):
                fh.write(f"{i},{names[lid]},{s - t0:.9f},{e - t0:.9f},{p}\n")
