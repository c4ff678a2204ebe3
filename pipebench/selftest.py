"""Self-test of the pipeline benchmark at a tiny process count.

Usage (from the repository root)::

    python3 pipebench/selftest.py

For every workload, at P=16, it checks that

* a traced child produces the same outputs (fingerprint included) as an
  untraced one, so the span wrappers do not disturb the program;
* the metrics emitted with ``--trace 0`` and ``--trace 1`` are exactly the
  ones ``BENCHMARK.json`` declares, and every prediction in
  ``workloads.json`` names a declared metric;
* a corrupted reference makes the child count as failed;
* the layer split holds: no ``scalatrace.*`` or ``core.*`` calls under
  ``app``, no macro p2p gate under ``chameleon``;

and, in this process, that installing the span recorder replaces every
listed entry point, refuses a coroutine, and that uninstalling it puts
every original and the garbage-collector callbacks back.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import copy
import gc
import json
import sys

import cell
import run
from spans import SpanRecorder

SELFTEST_NPROCS = 16
SELFTEST_ITERATIONS = 4


def small_spec(table: dict, name: str) -> dict:
    spec = copy.deepcopy(table["workloads"][name]["cell"])
    spec["nprocs"] = SELFTEST_NPROCS
    spec["params"]["iterations"] = SELFTEST_ITERATIONS
    return spec


def check_workload(table: dict, name: str, declared: dict) -> list[str]:
    errors: list[str] = []
    spec = small_spec(table, name)
    first = run.run_child(spec, False, timeout=120)
    if "error" in first:
        return [f"{name}: untraced child failed: {first['error']}"]
    reference = first["outputs"]

    measured = run.measure(spec, reference, seconds=0, trace=True, minimum=2)
    if measured["failed"] or len(measured["traced"]) != 1:
        errors.append(f"{name}: traced run failed: {measured['problems']}")
        return errors
    traced = measured["traced"][0]
    if traced["outputs"] != reference:
        errors.append(f"{name}: traced outputs differ from untraced ones")

    e2e = run.end_to_end_metrics(measured["plain"])
    layers = run.per_layer_metrics(measured["plain"], measured["traced"],
                                   run.declared_units())
    for kind, metrics in (("end_to_end", e2e), ("per_layer", layers)):
        if set(metrics) != declared[kind]:
            errors.append(
                f"{name}: {kind} metrics {sorted(set(metrics))} differ from "
                f"BENCHMARK.json {sorted(declared[kind])}")
    for layer_metric, e2e_metric in table["workloads"][name][
            "predictions"].items():
        if layer_metric not in declared["per_layer"] or (
                e2e_metric not in declared["end_to_end"]):
            errors.append(f"{name}: prediction {layer_metric} -> "
                          f"{e2e_metric} names an undeclared metric")

    corrupted = dict(reference, fingerprint="0" * 64)
    bad = run.measure(spec, corrupted, seconds=0, trace=False, minimum=1)
    if bad["failed"] != bad["attempted"]:
        errors.append(f"{name}: corrupted reference was not a failure")

    value = {k: v["value"] for k, v in layers.items()}
    if spec["mode"] == "app":
        busy = [k for k in value if k.startswith(("scalatrace.", "core."))
                and k.endswith(".calls") and value[k] != 0]
        if busy:
            errors.append(f"{name}: tracer layers called under app: {busy}")
    if spec["mode"] == "chameleon" and value["simmpi.p2p_gate.calls"] != 0:
        errors.append(f"{name}: macro p2p gate used under chameleon")
    return errors


def check_restore() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    from repro.scalatrace.signatures import StackWalker
    from repro.scalatrace.tracer import ScalaTraceTracer

    errors: list[str] = []
    originals = [(owner, name, vars(owner)[name])
                 for owner, name, _layer in cell.layer_table()]
    callbacks = list(gc.callbacks)
    recorder = SpanRecorder(hide_as=StackWalker._SKIP_FRAGMENTS[0])
    cell.install(recorder, {})
    for owner, name, original in originals:
        if vars(owner)[name] is original:
            errors.append(f"{owner.__name__}.{name} was not wrapped")
    try:
        recorder.wrap(ScalaTraceTracer, "send", "coroutine")
        errors.append("a coroutine was wrapped")
    except TypeError:
        pass
    try:
        recorder.uninstall()
    except RuntimeError as exc:
        errors.append(str(exc))
    for owner, name, original in originals:
        if vars(owner)[name] is not original:
            errors.append(f"{owner.__name__}.{name} was not restored")
    if gc.callbacks != callbacks:
        errors.append("gc.callbacks were not restored")
    return errors


def main() -> int:
    table = run.load_workloads()
    with open(run.BENCHMARK_FILE, encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {kind: {m["name"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    errors = check_restore()
    for name in table["workloads"]:
        errors += check_workload(table, name, declared)
        print(f"selftest: {name} checked", file=sys.stderr)
    for error in errors:
        print(f"selftest: FAIL {error}")
    print("selftest: ok" if not errors else
          f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
