"""One repetition of a workload, in the fresh interpreter that runs this file.

    python3 perfbench/rep.py WORKLOAD SEED MODE TRACE T0 RUN_ID

MODE is `full` (set up, then run the workload) or `setup` (set up only);
TRACE is 1 to record spans; T0 is the caller's `time.monotonic()` taken
just before it started this interpreter, so that set-up time includes
interpreter start and imports.  `fatcomplex` must be importable.  Prints
one JSON object: times, peak RSS, checks attempted and failed, and the
spans and counts when tracing.

Times are in reference seconds (see speed.py), except `*_clock_s`, which
are read off the wall clock.  Span starts and ends are reference times
too, so per-layer numbers do not move with the machine's speed either.
"""

import json
import resource
import sys
import time

from speed import Speedometer

EMPTY_SPANS = 2000


def time_empty_spans():
    """(start, end) of EMPTY_SPANS empty spans of a live Tracer."""
    from tracing import Tracer

    tracer = Tracer("cost")
    start = time.monotonic()
    for _ in range(EMPTY_SPANS):
        with tracer.span("empty"):
            pass
    return start, time.monotonic()


def main(argv):
    name, seed, mode, trace, t0, run_id = argv[1:7]
    t0 = float(t0)
    meter = Speedometer()
    meter.start()
    # the library is imported inside the timed set-up
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Checks

    tracer = Tracer(run_id) if trace == "1" else NullTracer()
    checks = Checks()
    workload = WORKLOADS[name]()
    inputs = workload.setup(int(seed), tracer, checks)
    ready = time.monotonic()
    meter.sample()
    if mode == "full":
        workload.run(inputs, tracer, checks)
    done = time.monotonic()
    if tracer.enabled:
        empty = time_empty_spans()
    meter.stop()
    clock = meter.clock()
    result = {
        "setup_s": clock(ready) - clock(t0),
        "wall_s": clock(done) - clock(t0),
        "setup_clock_s": ready - t0,
        "wall_clock_s": done - t0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failures": checks.failures,
    }
    if tracer.enabled:
        result["spans"] = [[span_name, clock(start), clock(end), parent, rid]
                           for span_name, start, end, parent, rid in tracer.spans]
        result["counts"] = tracer.counts
        result["span_cost_s"] = (clock(empty[1]) - clock(empty[0])) / EMPTY_SPANS
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
