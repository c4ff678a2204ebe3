"""Pipeline benchmark: paper experiment cells, end to end and per layer.

Usage (from the repository root)::

    python3 pipebench/run.py --workload pop-chameleon --seed 0 \
        --seconds 30 --trace 0
    python3 pipebench/run.py --write-reference
    python3 pipebench/selftest.py

A workload is one experiment cell (``workloads.json``): a workload, a
tracing mode and a process count, run through ``make_cell`` and
``ExperimentEngine(jobs=1)`` with an empty ``RunCache``, plus the replay of
its trace where the paper replays it.  Every cell runs in a fresh child
process (``cell.py``), one at a time, for ``--seconds``; each child's
outputs are checked against ``reference.json``.

Every seed runs the paper's configuration of the cell, so every seed has
the same inputs and the same reference outputs; the seed is recorded in the
report.  ``--trace 0`` reports the end-to-end metrics, medians over the
untraced children: ``setup_s`` (``import repro`` plus cell, cache and
engine construction) and ``wall_s`` (cell submitted to outputs computed,
replay included), both in reference seconds (see ``cell.ReferenceClock``;
the report also prints each child's times as the host measured them)
and ``peak_rss_mb`` (the child's own ``ru_maxrss``).  The report also
prints ``cpu_s``, the child's user+sys seconds over the ``wall_s``
interval less the clock's probes, but the result line leaves it out: the
child never waits, so it reads the same as host wall time, and from one run
to the next on a shared host it moves by as much.
``--trace 1`` alternates untraced and traced children and reports the
per-layer metrics of the traced ones (medians, in host seconds; traced
children run no clock) plus ``tracing_overhead_frac`` (host ``wall_s``,
traced over untraced, minus 1; the untraced side includes the clock's
probes, about 3%).  Each traced child writes its span rows to
``.pipebench/spans-<workload>-<child>.csv``.  A child that raised, timed
out or produced other outputs than the reference counts as failed;
``failed_frac``, ``failed / attempted``, is printed with the report, and
the result line carries both counts.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS_FILE = BENCH_DIR / "workloads.json"
REFERENCE_FILE = BENCH_DIR / "reference.json"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
#: scratch space of the runs: per-child caches and the last run's span rows
SCRATCH = ROOT / ".pipebench"
#: the outputs compared with the reference
OUTPUT_KEYS = ("fingerprint", "trace_bytes", "lead_ranks", "makespan",
               "replay_makespan")
#: no child is started, and none may run, past this many seconds of a run
#: (the warm-up comes first), so that a run ends within 180 s
RUN_BUDGET_S = 150.0
WARM_UP_TIMEOUT_S = 15.0
#: the end-to-end metrics and their units
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def load_workloads() -> dict:
    with open(WORKLOADS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(spec: dict, trace: bool, timeout: float,
              spans_out: Path | None = None) -> dict:
    """Run one cell in a fresh interpreter; its record or ``{"error"}``."""
    SCRATCH.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=SCRATCH)
    cmd = [sys.executable, str(BENCH_DIR / "cell.py"),
           "--spec", json.dumps(spec), "--cache-dir", cache_dir]
    if trace:
        cmd.append("--trace")
        if spans_out is not None:
            cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "no result line on standard output"}


def mismatches(outputs: dict, reference: dict) -> list[str]:
    """The output keys whose value differs from the reference."""
    return [k for k in OUTPUT_KEYS if outputs.get(k) != reference.get(k)]


def measure(spec: dict, reference: dict, seconds: float, trace: bool,
            minimum: int, spans_prefix: str | None = None) -> dict:
    """Run children back to back for ``seconds`` (at least ``minimum``).

    With ``trace`` the children alternate untraced and traced, starting
    untraced; with ``spans_prefix`` traced child ``i`` writes its span
    rows to ``SCRATCH / f"{spans_prefix}-{i}.csv"``.  A child starts only
    if the last child's duration still fits in ``seconds`` (after the
    minimum) and in the run budget.
    """
    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    last = 0.0
    while True:
        elapsed = time.perf_counter() - started
        if attempted >= minimum and elapsed + last > seconds:
            break
        if attempted and elapsed + last > RUN_BUDGET_S:
            break
        traced_child = trace and attempted % 2 == 1
        spans_out = None
        if traced_child and spans_prefix is not None:
            spans_out = SCRATCH / f"{spans_prefix}-{attempted}.csv"
        t0 = time.perf_counter()
        record = run_child(spec, traced_child,
                           timeout=max(RUN_BUDGET_S - elapsed, 5.0),
                           spans_out=spans_out)
        last = time.perf_counter() - t0
        attempted += 1
        kind = "traced" if traced_child else "untraced"
        if "error" in record:
            failed += 1
            problems.append(f"{kind} child: {record['error']}")
            continue
        wrong = mismatches(record["outputs"], reference)
        if wrong:
            failed += 1
            problems.append(f"{kind} child: outputs differ from the "
                            f"reference in {', '.join(wrong)}")
        (traced if traced_child else plain).append(record)
    return {"attempted": attempted, "failed": failed, "plain": plain,
            "traced": traced, "problems": problems}


def end_to_end_metrics(plain: list[dict]) -> dict[str, dict]:
    """Medians over the untraced children."""
    return {
        name: {"value": statistics.median(r[name] for r in plain),
               "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer_metrics(plain: list[dict], traced: list[dict],
                      units: dict[str, str]) -> dict[str, dict]:
    """Medians over the traced children, plus the tracing overhead."""
    out = {}
    for name in traced[0]["layers"]:
        out[name] = {
            "value": statistics.median(r["layers"][name] for r in traced),
            "unit": units[name],
        }
    overhead = (statistics.median(r["host_wall_s"] for r in traced)
                / statistics.median(r["host_wall_s"] for r in plain)) - 1.0
    out["tracing_overhead_frac"] = {"value": overhead,
                                    "unit": units["tracing_overhead_frac"]}
    return out


def declared_units() -> dict[str, str]:
    """Units of the per-layer metrics, as ``BENCHMARK.json`` declares."""
    with open(BENCHMARK_FILE, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def warm_up() -> None:
    """Compile and cache the package's bytecode before anything is timed."""
    subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, 'src'); import repro"],
        cwd=ROOT, check=True, timeout=WARM_UP_TIMEOUT_S, capture_output=True,
    )


def write_reference() -> int:
    """Record every workload's outputs."""
    reference: dict = {}
    for name, workload in load_workloads()["workloads"].items():
        record = run_child(workload["cell"], False, timeout=600)
        if "error" in record:
            print(f"{name}: {record['error']}", file=sys.stderr)
            return 1
        reference[name] = record["outputs"]
        print(f"{name}: {record['host_wall_s']:.2f} s", file=sys.stderr)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def report(name: str, seed: int, trace: bool, run: dict,
           metrics: dict) -> None:
    """Print every metric by name, with its unit, for a human reader."""
    attempted, failed = run["attempted"], run["failed"]
    print(f"pipebench {name}: seed {seed}, trace {int(trace)}, "
          f"{len(run['plain'])} untraced and {len(run['traced'])} traced "
          f"children")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    for kind in ("plain", "traced"):
        for r in run[kind]:
            print(f"  {kind} child: wall_s {r['wall_s']:.3f} "
                  f"({r['host_wall_s']:.3f} as measured), setup_s "
                  f"{r['setup_s']:.3f} ({r['host_setup_s']:.3f}), cpu_s "
                  f"{r['cpu_s']:.3f}, {r['probes']} clock probes")
    for metric, entry in metrics.items():
        print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}")
    if not trace:
        cpu_s = statistics.median(r["cpu_s"] for r in run["plain"])
        print(f"  {'cpu_s (not in the result)':<30} {cpu_s:>14.6g} s")
    print(f"  {'failed_frac':<30} {failed / attempted:>14.6g} frac "
          f"({failed} of {attempted})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Pipeline benchmark over paper experiment cells.")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the outputs of every workload into "
                         "reference.json, then exit")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"pipebench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    table = load_workloads()
    if args.workload not in table["workloads"]:
        ap.error(f"--workload must be one of {sorted(table['workloads'])}")
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    spec = table["workloads"][args.workload]["cell"]
    trace = bool(args.trace)

    warm_up()
    spans_prefix = None
    if trace:
        spans_prefix = f"spans-{args.workload}"
        for stale in SCRATCH.glob(f"{spans_prefix}-*.csv"):
            stale.unlink()
    run = measure(spec, reference, args.seconds, trace,
                  minimum=2 if trace else 3, spans_prefix=spans_prefix)
    if not run["plain"] or (trace and not run["traced"]):
        for problem in run["problems"]:
            print(f"pipebench: {problem}", file=sys.stderr)
        print("pipebench: no child completed; nothing to report",
              file=sys.stderr)
        return 1
    if trace:
        metrics = per_layer_metrics(run["plain"], run["traced"],
                                    declared_units())
    else:
        metrics = end_to_end_metrics(run["plain"])
    report(args.workload, args.seed, trace, run, metrics)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
