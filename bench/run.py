"""Benchmark of sftcd: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each

Workloads (see workloads.py): sweep, deep, certify, verify-cache.  A run
repeats passes of its workload, each in a fresh process, until --seconds
have passed (at least MIN_PASSES), adds set-up-only processes up to
SETUP_SAMPLES set-ups, and reports medians over passes.  Untraced passes
sample the host's speed as they run (hostclock.py), and their times are in
reference seconds: the seconds on a host that runs the calibration kernel
in hostclock.CAL_REF_S.  The table also shows the plain times (`_raw`)
and the host's slowdown.  With --trace 1 it runs one traced pass and one
untraced pass instead, both in plain seconds, and reports the per-layer
metrics of the traced one; the spans go to bench/_work/.

The table above the last line names every metric with its unit; the last
line is one JSON object: correct, attempted, failed and the metrics of
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1).
The exit code is 0 when the run completed, whatever its checks found.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKLOADS = ("sweep", "deep", "certify", "verify-cache")

MIN_PASSES = 2
SETUP_SAMPLES = 9
BUDGET_S = 150  # a run must end within 180 s


class BenchError(Exception):
    pass


def worker(workload, seed, triple_seeds, deadline, *flags):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", str(WORK), *flags]
    if triple_seeds:
        cmd += ["--triple-seeds", triple_seeds]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass ran past the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed:\n{err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def median(passes, key):
    values = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(values) if values else None


def verdicts(passes, reference):
    """(correct, attempted, failed, notes) over all passes."""
    notes = []
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        notes += [f"failed: {x}" for x in p["failed"]]
    unexpected = any(p["unexpected"] for p in passes)
    if len({p["digest"] for p in passes}) > 1:
        notes.append("outputs differ between passes")
        unexpected = True
    if reference is not None:
        if reference["exit_code"] != 0:
            notes.append("uncached verify exited non-zero")
            unexpected = True
        for p in passes:
            differ = [c for c in p["cases"] if p["cases"][c] != reference["cases"].get(c)]
            differ += [c for c in reference["cases"] if c not in p["cases"]]
            failed += len(differ)
            notes += [f"cached and uncached stdout differ: {c}" for c in differ]
            unexpected = unexpected or bool(differ)
    return not unexpected, attempted, failed, notes


def run_untraced(workload, seed, seconds, triple_seeds, deadline):
    def setup_only():
        return worker(workload, seed, triple_seeds, deadline, "--calibrate", "--setup-only")

    passes, setups = [], []
    start = last = monotonic()
    while len(passes) < MIN_PASSES or last - start < seconds:
        if passes and last + 1.2 * (last - start) / len(passes) > deadline:
            break
        # Set-up-only processes go between passes, to sample the host's
        # speed at more moments of the run.
        setups.append(setup_only())
        passes.append(worker(workload, seed, triple_seeds, deadline, "--calibrate"))
        setups.append(passes[-1])
        last = monotonic()
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_only())
    p50, tail = median(passes, "op_p50_ms"), median(passes, "op_tail_ms")
    metrics = {
        "setup_s": (median(setups, "setup_s"), "s"),
        "wall_s": (median(passes, "wall_s"), "s"),
        "ops_per_s": (statistics.median(p["ops"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (median(passes, "peak_rss_mb"), "MB"),
    }
    notes = [f"{len(passes)} passes, {len(setups)} set-ups; medians over them",
             "times in reference seconds, except those ending in _raw_s"]
    table = dict(metrics)
    table["setup_raw_s"] = (median(setups, "setup_raw_s"), "s")
    table["wall_raw_s"] = (median(passes, "wall_raw_s"), "s")
    table["host_slowdown"] = (median(passes + setups, "host_slowdown"), "x")
    table["warm_s"] = (median(passes, "warm_s"), "s")
    table["op_p50_ms"] = (p50, "ms")
    pct = passes[0]["op_tail_pct"]
    table["op_tail_ms"] = (tail, "ms")
    if pct is not None:
        notes.append(f"op_tail_ms is p{pct:.2f} of {passes[0]['ops']} ops per pass")
    table["failed_share"] = (
        sum(len(p["failed"]) for p in passes) / sum(p["attempted"] for p in passes), "share")
    checks = sum(p["checks"] for p in passes)
    table["uncertified_share"] = (
        sum(p["uncertified"] for p in passes) / checks if checks else None, "share")
    return passes, metrics, table, notes


def run_traced(workload, seed, triple_seeds, deadline, spans_path):
    traced = worker(workload, seed, triple_seeds, deadline, "--trace", str(spans_path))
    plain = worker(workload, seed, triple_seeds, deadline)
    layers = dict(traced["layers"])
    notes = [f"spans written to {spans_path.relative_to(ROOT)}"]
    for name, value in plain["counters"].items():
        if traced["layers"].get(name, value) != value or traced["counters"][name] != value:
            notes.append(f"counter {name} differs between traced and untraced pass")
            traced["unexpected"] = traced["unexpected"] + [name]
        layers[name] = value
    # Read off the cache directory by the verify-cache workload; zero elsewhere.
    layers.setdefault("cli.verify.entries_written", 0)
    layers.setdefault("cli.verify.hit_ratio", 0.0)
    if traced["digest"] != plain["digest"]:
        notes.append("traced and untraced outputs differ")
        traced["unexpected"] = traced["unexpected"] + ["digest"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    layers["trace.top_level_share"] = traced["top_level_s"] / traced["timed_s"]
    layers["trace.spans"] = traced["spans"]
    # The untraced pass ran only to be compared with: its digest matched
    # or was reported above, so only the traced pass counts.
    table = {name: (value, per_layer_unit(name)) for name, value in layers.items()}
    return [traced], table, table, notes


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "share"
    return "count"


def run_workload(workload, seed, seconds, trace, triple_seeds):
    deadline = monotonic() + BUDGET_S
    WORK.mkdir(exist_ok=True)
    reference = None
    if workload == "verify-cache":
        reference = worker(workload, seed, triple_seeds, deadline, "--reference")
    if trace:
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        passes, metrics, table, notes = run_traced(
            workload, seed, triple_seeds, deadline, spans_path)
    else:
        passes, metrics, table, notes = run_untraced(
            workload, seed, seconds, triple_seeds, deadline)
    correct, attempted, failed, check_notes = verdicts(passes, reference)
    return correct, attempted, failed, metrics, table, notes + check_notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--triple-seeds", metavar="A..B",
                        help="generator seeds of sweep, certify and verify-cache "
                             "(defaults 1..200, 1..20, 1..200)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sftcd").is_dir():
        print(f"error: no sftcd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import stamp

    info = stamp()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append((name, run_workload(
                name, args.seed, args.seconds, args.trace, args.triple_seeds)))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for name, (correct, attempted, failed, metrics, table, notes) in results:
        print(f"sftcd bench: workload {name}, seed {args.seed}, trace {args.trace}, "
              f"python {info['python']}, nproc {info['nproc']}, git {info['git_sha']}")
        for metric, (value, unit) in table.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"  {metric:<48} {shown:>14} {unit}")
        for note in notes:
            print(f"  # {note}")
    for name, (correct, attempted, failed, metrics, table, notes) in results:
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
