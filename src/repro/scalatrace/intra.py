"""Intra-node (loop-level) trace compression.

ScalaTrace compresses each rank's event stream *online*: every time an event
is appended, the compressor greedily looks for a repetition at the tail of
the node list and folds it into an RSD/PRSD loop (paper §II).  Two rewrite
rules run to fixpoint after each append:

* **absorb** — the last *m* nodes are congruent to the body of the loop node
  immediately preceding them: increment that loop's iteration count and
  merge the statistics.  (``[Loop(k, B), B] -> Loop(k+1, B)``)
* **create** — the last *m* nodes are congruent to the *m* nodes before
  them: replace both with a 2-iteration loop.
  (``[B, B] -> Loop(2, B)``)

Applied to an iterative kernel this builds nested PRSDs bottom-up, e.g. the
paper's send/recv/barrier example compresses to
``Loop(1000, [Loop(100, [send, recv]), barrier])``.

The compressor is windowed: repetition bodies longer than ``window`` nodes
are not detected (real ScalaTrace has the same bound).  All comparison work
is counted in a :class:`~repro.scalatrace.rsd.WorkMeter` so the tracer can
charge virtual time for it.
"""

from __future__ import annotations

from .events import EventRecord
from .rsd import (
    LOOP_HEADER_BYTES,
    EventNode,
    LoopNode,
    TraceNode,
    WorkMeter,
    merge_nodes,
    same_shape,
)

DEFAULT_WINDOW = 64


def _participants_equal(a: TraceNode, b: TraceNode) -> bool:
    """Whether two congruent subtrees cover the same rank populations."""
    if isinstance(a, EventNode) and isinstance(b, EventNode):
        return a.record.participants == b.record.participants
    return all(
        _participants_equal(x, y)
        for x, y in zip(a.body, b.body)  # type: ignore[union-attr]
    )


def _runs_congruent(
    xs: list[TraceNode],
    i: int,
    ys: list[TraceNode],
    j: int,
    m: int,
    meter: WorkMeter,
    match_participants: bool,
) -> bool:
    """Whether ``xs[i:i+m]`` and ``ys[j:j+m]`` are pairwise congruent.

    Pairs are compared in order and the test stops at the first mismatch,
    so the metered ``same_shape`` calls are exactly those of an ``all()``
    over the zipped slices, but no slice is built.
    """
    for k in range(m):
        a = xs[i + k]
        b = ys[j + k]
        if not same_shape(a, b, meter, match_iters=True):
            return False
        if match_participants and not _participants_equal(a, b):
            return False
    return True


def fold_tail(
    nodes: list[TraceNode],
    window: int,
    meter: WorkMeter,
    match_participants: bool = False,
) -> int:
    """Run the absorb/create rewrite rules to fixpoint on the list's tail.

    Shared by the per-rank compressor (folding raw events) and Chameleon's
    online trace (folding whole merged phase segments that repeat across
    marker intervals).  The online trace passes ``match_participants=True``:
    its nodes cover *cluster* populations, and folding two same-call-site
    records from different clusters would union their ranklists and
    misattribute iterations (a per-rank stream never needs the check —
    every node covers exactly the owning rank).

    Returns the change in ``sum(n.size_bytes() for n in nodes)``: each
    fold adds what its merges changed, drops the folded-away copy and, for
    a new loop, adds the loop header.  The accounting touches only the
    folded nodes, never the whole list.
    """
    delta = 0
    changed = True
    while changed:
        changed = False
        n = len(nodes)
        # Rule 1: absorb the tail into an immediately preceding loop.
        for m in range(1, min(window, n - 1) + 1):
            prev = nodes[n - m - 1]
            if not isinstance(prev, LoopNode) or len(prev.body) != m:
                continue
            body = prev.body
            if _runs_congruent(body, 0, nodes, n - m, m, meter,
                               match_participants):
                for i in range(m):
                    t = nodes[n - m + i]
                    delta += merge_nodes(body[i], t, meter) - t.size_bytes()
                prev.iters += 1
                del nodes[n - m :]
                meter.folds += 1
                changed = True
                break
        if changed:
            continue
        # Rule 2: fold two adjacent congruent runs into a new loop.
        for m in range(1, min(window, n // 2) + 1):
            if _runs_congruent(nodes, n - 2 * m, nodes, n - m, m, meter,
                               match_participants):
                first = nodes[n - 2 * m : n - m]
                for i in range(m):
                    b = nodes[n - m + i]
                    delta += merge_nodes(first[i], b, meter) - b.size_bytes()
                del nodes[n - 2 * m :]
                nodes.append(LoopNode(2, first))
                delta += LOOP_HEADER_BYTES
                meter.folds += 1
                changed = True
                break
    return delta


class IntraCompressor:
    """Online RSD/PRSD compressor for one rank's event stream.

    It keeps a running modelled byte count of its nodes: ``append`` adds
    the new leaf and whatever :func:`fold_tail` reports, so
    :meth:`size_bytes` is O(1) however long the trace grows.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, meter: WorkMeter | None = None):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.meter = meter if meter is not None else WorkMeter()
        self.nodes: list[TraceNode] = []
        self.appended_events = 0
        self._bytes = 0

    def append(self, record: EventRecord) -> None:
        """Add one event and re-compress the tail."""
        self.nodes.append(EventNode(record))
        self.appended_events += 1
        self._bytes += record.size_bytes() + fold_tail(
            self.nodes, self.window, self.meter
        )

    # -- introspection ---------------------------------------------------

    def leaf_count(self) -> int:
        """`n` of the paper: events in PRSD-compressed notation."""
        return sum(n.leaf_count() for n in self.nodes)

    def expanded_count(self) -> int:
        """Number of original (uncompressed) events represented."""
        return sum(n.expanded_count() for n in self.nodes)

    def size_bytes(self) -> int:
        """Modelled size of the nodes, ``sum(n.size_bytes() for n in
        nodes)``, from the running count."""
        return self._bytes

    def take_nodes(self) -> list[TraceNode]:
        """Detach and return the compressed nodes (compressor resets)."""
        nodes, self.nodes = self.nodes, []
        self.appended_events = 0
        self._bytes = 0
        return nodes
