"""Incremental size accounting and slice-free tail folding in the intra
compressor, checked against the original fold rules.

``_oracle_fold_tail`` is the fold rule as it was written before the running
byte count: slices per candidate, a closure per call, no return value.  The
fuzz streams below drive it and the current :func:`fold_tail` side by side
and require the same nodes, the same metered work and a running byte count
that always equals a full re-sum, also of the nodes rebuilt from text.
"""

from __future__ import annotations

import random

import pytest

from repro.scalatrace import (
    EndpointStat,
    EventNode,
    EventRecord,
    IntraCompressor,
    LoopNode,
    Op,
    RankSet,
    Trace,
    TraceNode,
    WorkMeter,
    fold_tail,
    merge_nodes,
    same_shape,
)
from repro.scalatrace.intra import _participants_equal


def _oracle_fold_tail(
    nodes: list[TraceNode],
    window: int,
    meter: WorkMeter,
    match_participants: bool = False,
) -> None:
    def congruent(a: TraceNode, b: TraceNode) -> bool:
        if not same_shape(a, b, meter, match_iters=True):
            return False
        return not match_participants or _participants_equal(a, b)

    changed = True
    while changed:
        changed = False
        # Rule 1: absorb the tail into an immediately preceding loop.
        for m in range(1, min(window, len(nodes) - 1) + 1):
            prev = nodes[-m - 1]
            if not isinstance(prev, LoopNode) or len(prev.body) != m:
                continue
            tail = nodes[-m:]
            if all(congruent(b, t) for b, t in zip(prev.body, tail)):
                for b, t in zip(prev.body, tail):
                    merge_nodes(b, t, meter)
                prev.iters += 1
                del nodes[-m:]
                meter.folds += 1
                changed = True
                break
        if changed:
            continue
        # Rule 2: fold two adjacent congruent runs into a new loop.
        for m in range(1, window + 1):
            if len(nodes) < 2 * m:
                break
            first = nodes[-2 * m : -m]
            second = nodes[-m:]
            if all(congruent(a, b) for a, b in zip(first, second)):
                for a, b in zip(first, second):
                    merge_nodes(a, b, meter)
                loop = LoopNode(2, first)
                del nodes[-2 * m :]
                nodes.append(loop)
                meter.folds += 1
                changed = True
                break


# -- seeded stream generator ---------------------------------------------------

#: participant sets a record may cover (one rank for a per-rank stream)
_POPULATIONS = [(0,), (1, 2), (0, 1, 2, 3), (4, 6, 8)]
#: the destination every hub send names
_HUB = 9


def _spec_stream(rng: random.Random, length: int, populations: int) -> list:
    """Event specs ``(op, sig, dest, dt, ranks)``: repeated bodies, nested
    loops, strided endpoints that later break, hub sends, and compute gaps
    spread over many histogram bins.

    Specs are plain tuples so that two independent record copies can be
    built from one stream.
    """
    out: list = []

    def event(sig: int, offset: int | None = None, hub: bool = False) -> tuple:
        """One event; a send goes to ``rank + offset``, or with ``hub`` to
        the fixed rank ``_HUB`` (so records of different populations keep
        only their absolute encoding when they merge)."""
        ranks = _POPULATIONS[rng.randrange(populations)]
        dest = _HUB if hub else None if offset is None else ranks[0] + offset
        op = Op.SEND if dest is not None else rng.choice(
            [Op.BARRIER, Op.ALLREDUCE, Op.RECV]
        )
        dt = rng.choice([0.0, 1e-6, 2e-6, 1e-3, 10 ** rng.uniform(-9, 2)])
        return (op, sig, dest, dt, ranks)

    def body(depth: int) -> list:
        items = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.random()
            if depth < 2 and kind < 0.25:
                items.extend(body(depth + 1) * rng.randint(2, 4))
            elif kind < 0.45:
                # strided endpoint walking rank+1, rank+2, ... then breaking
                sig = rng.randrange(6)
                steps = rng.randint(2, 5)
                items.extend(event(sig, k) for k in range(1, steps + 1))
                items.append(event(sig, rng.choice([1, 7, 40])))
            elif kind < 0.55:
                items.append(event(9, hub=True))
            else:
                items.append(event(rng.randrange(8), rng.choice([None, 1, 2])))
        return items

    while len(out) < length:
        segment = body(0)
        out.extend(segment * rng.randint(1, 5))
    return out[:length]


def _record(spec: tuple) -> EventRecord:
    op, sig, dest, dt, ranks = spec
    rank = ranks[0]
    rec = EventRecord(
        op=op,
        stack_sig=sig,
        comm_id=1,
        dest=None if dest is None else EndpointStat.of(dest, rank),
        participants=RankSet(ranks),
    )
    rec.count.add(64 * (1 + sig % 3))
    rec.tag.add(sig % 2)
    rec.dhist.record(dt)
    return rec


def _text(nodes: list[TraceNode]) -> str:
    return Trace(nodes=nodes).serialize()


def _resum(nodes: list[TraceNode]) -> int:
    return sum(n.size_bytes() for n in nodes)


#: appends between two checks against the nodes rebuilt from text (a
#: stale size stays stale, so sampling catches it)
_REBUILD_EVERY = 16


def _rebuilt_size(nodes: list[TraceNode]) -> int:
    """Size of the same nodes parsed back from their text form: fresh
    objects, so no size kept up to date in place can be stale."""
    return _resum(Trace.deserialize(_text(nodes)).nodes)


def _meter_counts(meter: WorkMeter) -> tuple[int, int, int]:
    return (meter.comparisons, meter.merges, meter.folds)


# -- the compressor against the oracle -----------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_compressor_matches_oracle_and_resum(seed):
    rng = random.Random(seed)
    window = rng.choice([3, 8, 64])
    specs = _spec_stream(rng, 400, populations=1)
    comp = IntraCompressor(window=window)
    oracle_nodes: list[TraceNode] = []
    oracle_meter = WorkMeter()
    for step, spec in enumerate(specs):
        comp.append(_record(spec))
        oracle_nodes.append(EventNode(_record(spec)))
        _oracle_fold_tail(oracle_nodes, window, oracle_meter)
        assert comp.size_bytes() == _resum(comp.nodes)
        if step % _REBUILD_EVERY == 0:
            assert comp.size_bytes() == _rebuilt_size(comp.nodes)
        assert _meter_counts(comp.meter) == _meter_counts(oracle_meter)
    assert comp.size_bytes() == _rebuilt_size(comp.nodes)
    assert comp.meter.folds > 0
    assert _text(comp.nodes) == _text(oracle_nodes)
    taken = comp.take_nodes()
    assert _text(taken) == _text(oracle_nodes)
    assert comp.size_bytes() == 0 == _resum(comp.nodes)
    # the compressor keeps counting correctly after a reset
    for spec in specs[:50]:
        comp.append(_record(spec))
        assert comp.size_bytes() == _resum(comp.nodes)


# -- fold_tail on mixed populations and whole segments -------------------------


@pytest.mark.parametrize("match_participants", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_fold_tail_delta_matches_oracle(seed, match_participants):
    """Events from several populations (so merges union ranklists) and
    whole pre-compressed segments, as the online trace receives them."""
    rng = random.Random(1000 + seed)
    window = rng.choice([4, 16, 64])
    specs = _spec_stream(rng, 300, populations=len(_POPULATIONS))
    nodes: list[TraceNode] = []
    oracle_nodes: list[TraceNode] = []
    meter, oracle_meter = WorkMeter(), WorkMeter()
    running = rounds = i = 0
    while i < len(specs):
        if rng.random() < 0.2:
            # a whole compressed segment, loops included
            chunk = specs[i : i + rng.randint(2, 12)]
            segments = []
            for _ in range(2):
                seg = IntraCompressor(window=window)
                for spec in chunk:
                    seg.append(_record(spec))
                segments.append(seg.take_nodes())
            new, oracle_new = segments
            i += len(chunk)
        else:
            new = [EventNode(_record(specs[i]))]
            oracle_new = [EventNode(_record(specs[i]))]
            i += 1
        running += _resum(new)
        nodes.extend(new)
        running += fold_tail(nodes, window, meter, match_participants)
        oracle_nodes.extend(oracle_new)
        _oracle_fold_tail(oracle_nodes, window, oracle_meter, match_participants)
        assert running == _resum(nodes)
        assert _meter_counts(meter) == _meter_counts(oracle_meter)
        rounds += 1
        if rounds % _REBUILD_EVERY == 0:
            assert running == _rebuilt_size(nodes)
    assert running == _rebuilt_size(nodes)
    assert meter.folds > 0
    assert _text(nodes) == _text(oracle_nodes)


@pytest.mark.parametrize("allow_chain", [True, False])
def test_can_merge_agrees_with_static_key(allow_chain):
    """The direct field comparison in ``can_merge`` decides exactly as the
    ``static_key()`` tuples that inter-node alignment uses."""
    rng = random.Random(7)
    specs = _spec_stream(rng, 200, populations=len(_POPULATIONS))
    records = []
    for spec in specs:
        rec = _record(spec)
        rec.comm_id = rng.choice([0, 1])
        rec.root = rng.choice([None, 0, 3])
        if rng.random() < 0.3:
            rec.src = EndpointStat.of(rng.choice([0, 2, 9]), spec[4][0])
        records.append(rec)
    agreed = 0
    for a in records:
        for b in rng.sample(records, 20):
            ep_ok = all(
                x is None and y is None
                or x is not None and y is not None
                and x.can_merge(y, allow_chain)
                for x, y in ((a.src, b.src), (a.dest, b.dest))
            )
            expected = a.static_key() == b.static_key() and ep_ok
            assert a.can_merge(b, allow_chain) == expected
            agreed += expected
    assert agreed > 0


# -- complexity guard ----------------------------------------------------------


def test_size_accounting_is_constant_per_append(monkeypatch):
    """A stream that never folds must not re-sum the trace per event:
    ``EventRecord.size_bytes`` calls per append stay bounded whatever the
    trace length."""
    calls = 0
    original = EventRecord.size_bytes

    def counting(self):
        nonlocal calls
        calls += 1
        return original(self)

    monkeypatch.setattr(EventRecord, "size_bytes", counting)
    comp = IntraCompressor()
    per_append = []
    for sig in range(5000):
        rec = EventRecord(op=Op.BARRIER, stack_sig=sig)
        rec.dhist.record(1e-6)
        before = calls
        comp.append(rec)
        comp.size_bytes()
        per_append.append(calls - before)
    assert len(comp.nodes) == 5000
    assert max(per_append) <= 2
    assert sum(per_append[-1000:]) <= sum(per_append[:1000])
