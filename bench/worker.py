"""Run one pass of one benchmark workload and print its result as JSON.

run.py starts a fresh process of this script for every pass, so that the
lru_caches inside sftcd that one pass fills never serve another.  A pass
imports sftcd, builds its inputs (together: the set-up time), runs the
timed operations, then checks the outputs outside the timed region.
With --calibrate a HostClock samples the host's speed throughout, and the
times without `_raw` in their names are in reference seconds (hostclock.py).

    python3 bench/worker.py --workload sweep --seed 1 --work-dir DIR
        [--calibrate | --trace SPANS.json] [--setup-only | --reference]
        [--triple-seeds A..B]
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter


def parse_seeds(text):
    if text is None:
        return None
    lo, _, hi = text.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--triple-seeds")
    parser.add_argument("--work-dir", required=True)
    timing = parser.add_mutually_exclusive_group()
    timing.add_argument("--calibrate", action="store_true")
    timing.add_argument("--trace", metavar="SPANS_PATH")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--reference", action="store_true")
    args = parser.parse_args(argv)

    import hostclock

    clock = hostclock.HostClock() if args.calibrate else hostclock.NullClock()
    clock.start()
    start = perf_counter()
    import workloads

    m = workloads.load_sftcd()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    work = workloads.WORKLOADS[args.workload](
        m, args.seed, parse_seeds(args.triple_seeds), args.work_dir
    )
    try:
        if args.reference:
            clock.stop()
            print(json.dumps(work.reference()))
            return 0
        work.setup()
        setup_end = perf_counter()
        if not args.setup_only:
            timed_start = perf_counter()
            wall = work.timed()
            timed_s = perf_counter() - timed_start
            if tracer:
                tracer.active = False
        clock.stop()
        result = {"host_slowdown": clock.slowdown()}
        result["setup_raw_s"], result["setup_s"] = clock.span(start, setup_end)
        if not args.setup_only:
            result["wall_raw_s"], result["wall_s"] = clock.span(*wall)
            result["timed_s"] = timed_s
            result.update(work.latency(lambda a, b: clock.span(a, b)[1]))
            result.update(work.check().to_dict())
            result.update(work.extra)
            for name, interval in work.extra_spans.items():
                result[name] = clock.span(*interval)[1]
    finally:
        work.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer and not args.setup_only:
        result["layers"] = tracer.layer_metrics(m.core.count_blocks)
        result["top_level_s"] = tracer.top_level_s(timed_start, timed_start + result["timed_s"])
        result["spans"] = len(tracer.spans)
        tracer.write(args.trace, workloads.stamp())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
