"""One benchmark cell in a fresh interpreter (started by ``run.py``).

Usage::

    python3 pipebench/cell.py --spec JSON --cache-dir DIR [--trace] \
        [--spans-out CSV]

``--spec`` names the cell: ``{"workload", "mode", "nprocs", "params",
"replay"}``.  The cell goes through the harness path every experiment
takes: ``make_cell``, then ``ExperimentEngine(jobs=1)`` with an empty
``RunCache`` in ``--cache-dir``, then (with ``"replay": true``)
``replay_trace`` of the resulting trace.  The last line of standard output
is one JSON object with the timings, in reference seconds (see
:class:`ReferenceClock`) and as the host measured them, the child's
processor seconds, the outputs that ``run.py`` checks against the
reference, and, with ``--trace``, the per-layer metrics.

With ``--trace`` the entry points listed in ``layer_table`` are wrapped by
a :class:`spans.SpanRecorder` for the duration of the cell only, and the
clock is not started, so its probes never land in a span: a traced child's
reference seconds are its host seconds.

Call-path signatures hash the file name of every application frame, and a
file name is the absolute path the module was loaded from, so the outputs
would depend on where the checkout sits.  The child therefore loads the
``repro`` package with file names under ``CANONICAL_SRC``, as if it were
installed there (see :func:`load_repro_from_canonical_root`); the code is
the checkout's own, unchanged, and only the names its frames carry differ.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import json
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: the directory the child's ``repro`` modules name as their source root
CANONICAL_SRC = "/checkout/src"
#: iterations of the clock's probe loop
PROBE_LOOPS = 8_000
#: seconds the probe takes on the reference host, a 2-core 2 GHz Xeon
#: virtual machine, when no other tenant slows it
PROBE_REF_S = 0.0013
#: host seconds between two probes (the probes cost about 3% of a run)
PROBE_PERIOD_S = 0.05
#: probes timed before the clock starts, for its first speed
PROBE_WARM_UP = 8


def layer_table():
    """``(owner, attribute, layer)`` for every wrapped entry point.

    The owner is the namespace the caller looks the name up in: a class for
    methods, the importing module for functions imported by name.
    """
    from repro.core import callpath, chameleon, clustering, online
    from repro.harness import cache
    from repro.replay import replayer
    from repro.scalatrace import intra, signatures, tracer
    from repro.simmpi import collectives, engine

    return [
        (engine.Engine, "run_ready", "simmpi.scheduler"),
        (collectives._CollGate, "complete", "simmpi.coll_gate"),
        (collectives, "resolve_p2p_gate", "simmpi.p2p_gate"),
        (engine.Engine, "wave_resolve", "simmpi.wave_resolve"),
        (tracer.ScalaTraceTracer, "_record", "scalatrace.record"),
        (signatures.StackWalker, "capture", "scalatrace.capture"),
        (intra, "fold_tail", "scalatrace.fold_tail"),
        (chameleon, "fold_tail", "scalatrace.fold_tail"),
        (online, "fold_tail", "scalatrace.fold_tail"),
        (intra.IntraCompressor, "size_bytes", "scalatrace.size_bytes"),
        (tracer, "merge_traces", "scalatrace.merge"),
        (online, "merge_traces", "scalatrace.merge"),
        (chameleon.ChameleonTracer, "_record", "core.record"),
        (callpath.SignatureAccumulator, "observe", "core.sigacc"),
        (callpath.SignatureAccumulator, "snapshot", "core.sigacc"),
        (clustering.ClusterSet, "merge", "core.cluster"),
        (clustering.ClusterSet, "prune", "core.cluster"),
        (replayer, "build_schedule", "replay.schedule"),
        (replayer, "coalesce_collectives", "replay.schedule"),
        (replayer, "reconcile", "replay.schedule"),
        (replayer, "replay_trace", "replay.run"),
        (cache.RunCache, "put", "harness.cache_put"),
    ]


def install(recorder, counters: dict) -> None:
    """Wrap every layer entry point, the cell's ``run_spmd`` (for the
    ``SpmdResult`` counters) and the garbage collector."""
    from repro.harness import runner

    def keep_counters(res) -> None:
        counters.update(
            engine_steps=res.engine_steps,
            messages_matched=res.messages_matched,
            coll_fast=res.collectives_fast,
            p2p_fast=res.p2p_fast,
        )

    recorder.wrap(runner, "run_spmd", "simmpi.run_spmd", keep_counters)
    for owner, name, layer in layer_table():
        recorder.wrap(owner, name, layer)
    recorder.watch_gc()


def layer_metrics(recorder, counters: dict, result, outputs: dict,
                  replay) -> dict[str, float]:
    """The per-layer metrics of one traced cell."""
    totals = recorder.totals()

    def get(layer: str, key: str) -> float:
        return totals[layer][key]

    recorded = result.stat("events_recorded", source="tracer")
    skipped = result.stat("events_skipped", source="tracer")
    seen = recorded + skipped
    return {
        "simmpi.scheduler.self_s": get("simmpi.scheduler", "self_s"),
        "simmpi.coll_gate.calls": get("simmpi.coll_gate", "calls"),
        "simmpi.coll_gate.busy_s": get("simmpi.coll_gate", "busy_s"),
        "simmpi.p2p_gate.calls": get("simmpi.p2p_gate", "calls"),
        "simmpi.p2p_gate.busy_s": get("simmpi.p2p_gate", "busy_s"),
        "simmpi.wave_resolve.busy_s": get("simmpi.wave_resolve", "busy_s"),
        "simmpi.engine_steps": counters["engine_steps"],
        "simmpi.messages_matched": counters["messages_matched"],
        "simmpi.coll_fast": counters["coll_fast"],
        "simmpi.p2p_fast": counters["p2p_fast"],
        "scalatrace.record.calls": get("scalatrace.record", "calls"),
        "scalatrace.record.self_s": get("scalatrace.record", "self_s"),
        "scalatrace.capture.calls": get("scalatrace.capture", "calls"),
        "scalatrace.capture.busy_s": get("scalatrace.capture", "busy_s"),
        "scalatrace.fold_tail.busy_s": get("scalatrace.fold_tail", "busy_s"),
        "scalatrace.size_bytes.calls": get("scalatrace.size_bytes", "calls"),
        "scalatrace.size_bytes.busy_s": get("scalatrace.size_bytes",
                                            "busy_s"),
        "scalatrace.merge.calls": get("scalatrace.merge", "calls"),
        "scalatrace.merge.busy_s": get("scalatrace.merge", "busy_s"),
        "scalatrace.trace_bytes": outputs["trace_bytes"],
        "core.record.self_s": get("core.record", "self_s"),
        "core.sigacc.busy_s": get("core.sigacc", "busy_s"),
        "core.cluster.busy_s": get("core.cluster", "busy_s"),
        "core.skip_ratio": skipped / seen if seen else 0.0,
        "replay.schedule.busy_s": get("replay.schedule", "busy_s"),
        "replay.run.busy_s": get("replay.run", "busy_s"),
        "replay.ops_issued": replay.stats.ops_issued if replay else 0,
        "harness.cache_put.busy_s": get("harness.cache_put", "busy_s"),
        "runtime.gc.collections": recorder.gc_collections,
        "runtime.gc.pause_s": recorder.gc_pause_s,
    }


class ReferenceClock:
    """Seconds as the reference host counts them, sampled all through a run.

    The host shares its cores with other tenants, and its speed changes by
    up to half within a second.  Processor time does not help: the child
    never waits, so its user+sys seconds slow down with the host exactly
    as its host seconds do.  Medians of either moved by 0.20-0.27 (quartile
    distance over median) across 5-10 runs of the same code on a 2-vCPU
    virtual machine, where reference seconds moved by under 0.05.

    Once started, a timer interrupts the
    process every ``PROBE_PERIOD_S`` and times a probe: a fixed loop of the
    interpreter work the cells do most, method calls and dict lookups.  The
    host time since the previous probe is counted at the speed that probe
    measured, scaled to ``PROBE_REF_S``; the probes' own time is not
    counted.  (A loop of integer arithmetic slows down less than the cells
    when the host is loaded, so a cell's reference time still grew with the
    host's slowness; this probe slows down as much as they do.  It times
    only interpreter work, so a change that slows the cells' memory or I/O
    shows in reference seconds as it does in host seconds.)  The probe
    allocates nothing the garbage collector tracks, and the handler never
    touches the program's state, so the program computes exactly what it
    computes without the clock (the benchmark checks it).
    """

    def __init__(self) -> None:
        #: processor seconds spent in probes, and their count
        self.probe_cpu_s = 0.0
        self.probes = 0
        # (reference seconds, host time of the last probe's end, reference
        # seconds per host second) -- one tuple, so that ``now`` reads a
        # consistent state even if a probe interrupts it
        self._state = (0.0, time.perf_counter(), 1.0)
        self._table = {i: 3 * i for i in range(512)}

    def _step(self, i: int) -> int:
        return self.probes + i

    def _probe(self) -> float:
        t0 = time.perf_counter()
        table = self._table
        x = 0
        for i in range(PROBE_LOOPS):
            x += table.get(i & 511, 0) + self._step(i)
        return time.perf_counter() - t0

    def start(self) -> None:
        rate = PROBE_REF_S / statistics.median(
            self._probe() for _ in range(PROBE_WARM_UP))
        self._state = (0.0, time.perf_counter(), rate)
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        started, cpu0 = time.perf_counter(), time.process_time()
        took = self._probe()
        self.probe_cpu_s += time.process_time() - cpu0
        ref_s, last_end, _ = self._state
        rate = PROBE_REF_S / took
        self.probes += 1
        self._state = (ref_s + (started - last_end) * rate,
                       started + took, rate)

    def now(self) -> float:
        """Reference seconds since ``start`` (host seconds until then)."""
        ref_s, last_end, rate = self._state
        return ref_s + (time.perf_counter() - last_end) * rate


class _CanonicalLoader(importlib.machinery.SourceFileLoader):
    """Loads a module under ``SRC`` with its file name under
    ``CANONICAL_SRC``."""

    def get_code(self, fullname):
        code = super().get_code(fullname)
        real = str(Path(self.path).resolve())
        name = CANONICAL_SRC + real[len(str(SRC)):]
        return _renamed(code, name) if code is not None else None


def _renamed(code: types.CodeType, filename: str) -> types.CodeType:
    consts = tuple(
        _renamed(c, filename) if isinstance(c, types.CodeType) else c
        for c in code.co_consts
    )
    return code.replace(co_filename=filename, co_consts=consts)


def load_repro_from_canonical_root() -> None:
    """Put ``SRC`` first on ``sys.path``, and make every module found under
    it load through :class:`_CanonicalLoader`."""
    def finder(path: str):
        if not Path(path).resolve().is_relative_to(SRC):
            raise ImportError("not under the benchmark's source root")
        return importlib.machinery.FileFinder(
            path, (_CanonicalLoader, importlib.machinery.SOURCE_SUFFIXES))

    sys.path_hooks.insert(0, finder)
    sys.path_importer_cache.clear()
    sys.path.insert(0, str(SRC))


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec)

    clock = ReferenceClock()
    if not args.trace:
        clock.start()

    # -- set-up: import repro and build the cell and its engine ----------
    host0, ref0 = time.perf_counter(), clock.now()
    load_repro_from_canonical_root()
    import repro  # noqa: F401  (the import is part of the measured set-up)
    from repro.harness.cache import RunCache
    from repro.harness.engine import ExperimentEngine, make_cell
    from repro.harness.runner import Mode
    from repro.replay import replayer

    cell = make_cell(spec["workload"], spec["nprocs"], Mode(spec["mode"]),
                     workload_params=spec["params"])
    engine = ExperimentEngine(jobs=1, cache=RunCache(args.cache_dir))
    setup_s = clock.now() - ref0
    host_setup_s = time.perf_counter() - host0

    recorder = None
    counters: dict = {}
    if args.trace:
        from repro.scalatrace.signatures import StackWalker

        from spans import SpanRecorder

        recorder = SpanRecorder(hide_as=StackWalker._SKIP_FRAGMENTS[0])
        install(recorder, counters)

    # -- the measured cell: submit, run, replay, compute the outputs -----
    try:
        cpu0, probe_cpu0 = cpu_seconds(), clock.probe_cpu_s
        host0, ref0 = time.perf_counter(), clock.now()
        (result,) = engine.run_cells([cell])
        replay = None
        if spec["replay"]:
            replay = replayer.replay_trace(result.trace, cell.nprocs)
        outputs = {
            "fingerprint": result.fingerprint(),
            "trace_bytes": (
                result.trace.size_bytes() if result.trace is not None else 0
            ),
            "lead_ranks": sorted(result.lead_ranks),
            "makespan": result.max_time,
            "replay_makespan": replay.time if replay is not None else None,
        }
        wall_s = clock.now() - ref0
        host_wall_s = time.perf_counter() - host0
        cpu_s = (cpu_seconds() - cpu0) - (clock.probe_cpu_s - probe_cpu0)
    finally:
        clock.stop()
        if recorder is not None:
            recorder.uninstall()
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "host_setup_s": host_setup_s,
        "host_wall_s": host_wall_s,
        "probes": clock.probes,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "outputs": outputs,
    }
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, counters, result, outputs,
                                         replay)
        if args.spans_out:
            recorder.write_rows(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
