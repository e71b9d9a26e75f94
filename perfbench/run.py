"""The camech benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload is a closed loop: one caller, one process, one thread, each
unit of work sent only after the previous one returned.  Inputs come from
``--seed``; the library only ever sees the generated instances or instance
files.  Every unit's output is checked outside the timed phase, and a unit
that raises counts as failed without stopping the run.

``--trace 0`` reports the end-to-end metrics.  The timed phase lasts
``--seconds`` of unit time and at least ``MIN_UNITS`` units, so the 90th
percentile has ten samples beyond it.  It cycles through the unit pool,
generating the pool afresh for each cycle, so no unit finds caches an
earlier one filled on its inputs.

Times are CPU times of the process, scaled to a reference speed.  On a
shared virtual machine the wall clock also counts the time the hypervisor
gives the CPU to someone else, which comes and goes with their load, and
the CPU's own speed changes from one tenth of a second to the next.  So the
timed phase also runs a short, fixed calibration slice of pure-Python work
(``calibration.py``), which no camech code touches, after every
``CALIBRATION_EVERY_S`` seconds of unit time, and each unit's CPU time is
scaled by the mean of the ``CALIBRATION_WINDOW`` slices run just before it
and the ``CALIBRATION_WINDOW`` run just after it, to the speed at which one
slice takes ``REFERENCE_SLICE_S``:

    scaled = unit CPU s * REFERENCE_SLICE_S / mean(nearby slice CPU s)

``items_per_s`` is the units divided by the sum of their scaled times, and
``item_ms_p50`` and ``item_ms_p90`` are percentiles of the scaled times.  A
change to camech moves the units and not the slices, so it shows in full.
The wall-clock figures are printed beside the scaled ones.  ``setup_s`` is
the median over ``SETUP_PROBES`` fresh interpreters, each importing camech
and generating the inputs, of the probe's CPU time scaled by the mean of
the slices that probe runs after its set-up.

``--trace 1`` reports per-layer metrics instead.  For ``--seconds`` of
unit time it alternates blocks of ``TRACE_BLOCK`` units run untraced with
the same units, from another copy of the inputs, run traced; the blocks
swap order each time, and both copies are generated afresh for each cycle
through the pool.  The layer
totals cover the traced blocks only, ``trace.overhead_ratio`` is the
traced CPU time over the untraced CPU time of the same units, and every
traced unit's output digest must equal the untraced one.

Before the last line the benchmark prints each metric with its unit and
the run's Python version, CPU count, commit and seed; the last line is one
JSON object.  It also writes the run record to ``.perfbench_out/``, and a
traced run all its spans beside it.  The exit code is 0 when every check
passed, 1 when one failed, and 2 when camech cannot be imported from
``src/``.
"""
from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
from calibration import REFERENCE_SLICE_S, calibration_slice  # noqa: E402

try:
    import workloads
except ImportError as exc:  # no camech sources beside the benchmark
    workloads, IMPORT_ERROR = None, exc

MIN_UNITS = 100
#: The timed phase stops here even if MIN_UNITS units have not finished.
MAX_TIMED_S = 120.0
SETUP_PROBES = 7
CALIBRATION_EVERY_S = 0.02
CALIBRATION_WINDOW = 2
TRACE_BLOCK = 4

#: Traced per-call means on deviation-l1 are printed next to these
#: untraced per-call times (µs; k = 6 goods, n = 8 bids, l = 1).
BASELINE_US = {"norm.rank": 55, "greedy.greedy_allocate": 79, "greedy.run_greedy": 134}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one camech benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_unit(workload, unit, mechanism):
    """Run one unit.

    Returns its CPU seconds, its wall seconds, its result (a traceback if
    it raised) and whether it raised.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        result = workload.run(unit, mechanism)
        raised = False
    except Exception:
        result = traceback.format_exc()
        raised = True
    return time.process_time() - cpu_start, time.perf_counter() - start, result, raised


class Judge:
    """Checks each unit's output and compares it with earlier runs of that unit."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.digests = {}  # unit index -> digest of its first output
        self.compared = self.mismatched = 0

    def __call__(self, index, unit, result, raised):
        self.attempted += 1
        if raised:
            if not self.failed:
                sys.stderr.write(f"perfbench: a unit raised\n{result}")
            ok, text = False, result
        else:
            ok = self.workload.check(unit, result)
            text = self.workload.render(unit, result)
        self.failed += not ok
        found = workloads.digest(text)
        first = self.digests.get(index)
        if first is None:
            self.digests[index] = found
        else:
            self.compared += 1
            self.mismatched += first != found


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_seconds(args, workdir) -> tuple[list[float], list[float], list[float]]:
    """Run the set-up probes; returns their CPU seconds, wall seconds and mean slice seconds."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), str(workdir)]
    cpu, wall, slices = [], [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        for column, value in zip((cpu, wall, slices), map(float, done.stdout.split())):
            column.append(value)
    return cpu, wall, slices


def scale_to_reference(cpu_times, slices, slice_at) -> list[float]:
    """Each unit's CPU seconds at the reference speed, judged by the slices around it.

    ``slice_at[k]`` is how many units had finished when slice ``k`` ran, so
    the slices after unit ``i`` are those with ``slice_at > i``.
    """
    scaled = []
    for i, seconds in enumerate(cpu_times):
        after = bisect.bisect_right(slice_at, i)
        nearby = slices[max(0, after - CALIBRATION_WINDOW):after + CALIBRATION_WINDOW]
        scaled.append(seconds * REFERENCE_SLICE_S / statistics.fmean(nearby))
    return scaled


def untraced_run(args, workload_cls, workdir):
    setup_cpu, setup_wall, setup_slices = setup_seconds(args, workdir)
    workload = workload_cls(args.seed, workdir)
    judge = Judge(workload)
    units, mechanism = workload.units, workload.mechanism
    cpu_times, wall_times = array("d"), array("d")
    slices, slice_at = array("d"), array("q")  # slice_at: units finished before each slice
    elapsed = next_slice = 0.0
    while (elapsed < args.seconds or len(cpu_times) < MIN_UNITS) and elapsed < MAX_TIMED_S:
        index = len(cpu_times) % len(units)
        if index == 0 and cpu_times:
            units = workload.make_units()
        if elapsed >= next_slice:
            slices.append(calibration_slice())
            slice_at.append(len(cpu_times))
            next_slice = elapsed + CALIBRATION_EVERY_S
        cpu, wall, result, raised = time_unit(workload, units[index], mechanism)
        cpu_times.append(cpu)
        wall_times.append(wall)
        elapsed += wall
        judge(index, units[index], result, raised)
    slices.append(calibration_slice())
    slice_at.append(len(cpu_times))

    scaled_ms = [1000 * t for t in scale_to_reference(cpu_times, slices, slice_at)]
    wall_ms = [1000 * t for t in wall_times]
    setup_scaled = [t * REFERENCE_SLICE_S / c for t, c in zip(setup_cpu, setup_slices)]
    attempted, failed = judge.attempted, judge.failed
    metrics = {
        "items_per_s": (1000 * len(scaled_ms) / sum(scaled_ms), "1/s"),
        "item_ms_p50": (statistics.median(scaled_ms), "ms"),
        "item_ms_p90": (statistics.quantiles(scaled_ms, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "passed_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "failed_ratio": (failed / attempted, "ratio"),
        "samples": (len(cpu_times), "count"),
        "setup_s.samples": (len(setup_cpu), "count"),
        "wall.items_per_s": (len(wall_times) / elapsed, "1/s"),
        "wall.item_ms_p50": (statistics.median(wall_ms), "ms"),
        "wall.item_ms_p90": (statistics.quantiles(wall_ms, n=10)[-1], "ms"),
        "wall.setup_s": (statistics.median(setup_wall), "s"),
        "cpu_share_of_wall": (sum(cpu_times) / elapsed, "ratio"),
        "calibration.slice_ms_mean": (1000 * statistics.fmean(slices), "ms"),
        "calibration.slices": (len(slices), "count"),
    }
    problems = []
    if judge.mismatched:
        problems.append(f"{judge.mismatched} of {judge.compared} repeated outputs differ from the first cycle")
    record = {
        "setup_cpu_s": setup_cpu,
        "setup_wall_s": setup_wall,
        "setup_slice_s": setup_slices,
        "unit_cpu_s": cpu_times.tolist(),
        "unit_wall_s": wall_times.tolist(),
        "slice_s": slices.tolist(),
        "slice_at": slice_at.tolist(),
        "unit_digests": judge.digests,
    }
    return workload, judge, problems, metrics, notes, record


def traced_run(args, workload_cls, workdir):
    from camech import norm
    from tracing import LayerTotals, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    workload = workload_cls(args.seed, workdir)
    tracer.uninstall()
    setup_totals = tracer.totals
    tracer.totals = LayerTotals()

    plain_mech = workload.mechanism
    traced_mech = tracer.counting(plain_mech) if plain_mech else None
    mechanisms = {False: plain_mech, True: traced_mech}  # keyed by "traced"
    pools = {False: workload.units, True: workload.make_units()}
    judge = Judge(workload)
    spent = {False: 0.0, True: 0.0}  # CPU seconds per side
    hits = misses = 0

    def run_block(first, positions, traced):
        nonlocal hits, misses
        units, mechanism = pools[traced], mechanisms[traced]
        done = []
        if traced:
            cache_before = norm.bundle_ratio_power.cache_info()
            tracer.install()
        try:
            for unit_id, index in enumerate(positions, first):
                tracer.unit = unit_id
                done.append(time_unit(workload, units[index], mechanism))
        finally:
            if traced:
                tracer.uninstall()
                cache_after = norm.bundle_ratio_power.cache_info()
                hits += cache_after.hits - cache_before.hits
                misses += cache_after.misses - cache_before.misses
        # judged only now, so that checking is neither traced nor timed
        for index, (seconds, _, result, raised) in zip(positions, done):
            spent[traced] += seconds
            judge(index, units[index], result, raised)

    size = len(workload.units)
    count = 0
    while sum(spent.values()) < args.seconds:
        index = count % size
        if index == 0 and count:
            pools = {False: workload.make_units(), True: workload.make_units()}
        positions = range(index, min(index + TRACE_BLOCK, size))
        traced_first = (count // TRACE_BLOCK) % 2 == 1
        run_block(count, positions, traced_first)
        run_block(count, positions, not traced_first)
        count += len(positions)
    totals = tracer.totals

    problems = []
    if judge.mismatched:
        problems.append(f"{judge.mismatched} of {judge.compared} traced outputs differ from the untraced run")
    # every binding patched: a missed `from .x import f` under-counts a layer
    if totals.calls["norm.rank"] < totals.calls["greedy.greedy_allocate"]:
        problems.append("norm.rank.calls < greedy.greedy_allocate.calls")
    if plain_mech is not None:
        runs = totals.counters["axioms.mechanism_runs"]
        if runs == 0 or totals.calls["greedy.run_greedy"] != runs:
            problems.append(
                f"greedy.run_greedy.calls = {totals.calls['greedy.run_greedy']} "
                f"but axioms.mechanism_runs = {runs}"
            )

    metrics = layer_metrics(totals, setup_totals, (hits, misses))
    metrics["trace.overhead_ratio"] = (spent[True] / spent[False], "ratio")
    notes = {
        "untraced.items_per_cpu_s": (count / spent[False], "1/s"),
        "traced.items_per_cpu_s": (count / spent[True], "1/s"),
        "traced.samples": (count, "count"),
        "digests_compared": (judge.compared, "count"),
    }
    if workload.name == "deviation-l1":
        for name, baseline in BASELINE_US.items():
            calls = totals.calls[name]
            mean = totals.total_ns[name] / calls / 1000 if calls else 0.0
            notes[f"{name}.mean_us_incl_tracing"] = (mean, f"us (baseline {baseline} us)")
    spans = tracer.write_spans(OUT / f"{workload.name}-spans.bin")
    record = {"unit_digests": judge.digests, "spans": spans}
    return workload, judge, problems, metrics, notes, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print(f"perfbench: cannot import camech from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2
    imported = Path(sys.modules["camech"].__file__).resolve().parent
    if imported != ROOT / "src" / "camech":
        print(f"perfbench: camech was imported from {imported}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }
    run = traced_run if args.trace else untraced_run
    workload, judge, problems, metrics, notes, record = run(
        args, workloads.WORKLOADS[args.workload], workdir
    )
    attempted, failed = judge.attempted, judge.failed
    if not workload.gate():
        problems.append(f"{workload.name} correctness gate failed")
    if failed:
        problems.append(f"{failed} of {attempted} units failed their check")
    correct = not problems

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    record = {"meta": meta, "correct": correct, "problems": problems,
              "metrics": metrics, "notes": notes, **record}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
