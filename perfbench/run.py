"""Benchmark of `fatcomplex`: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload {scan,complex,statesum} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere; the library is taken from `src/` next to this
directory.  Each repetition runs in a fresh interpreter (perfbench/rep.py)
with one worker, set up from the seed alone, and checks its exact
outputs.  Repetitions start while the last one would still end within
`--seconds`; at least one always runs.

Times are in reference seconds: wall time rescaled, by a probe timed
every 0.1 s inside the repetition, to a fixed machine speed (speed.py).
The raw wall-clock medians are printed too, as `*_clock_s`.

With `--trace 0` every repetition is untraced, and set-up alone is
repeated until there are MIN_SETUPS set-up times, and further while
set-up alone has taken less than SETUP_BUDGET_S, up to MAX_SETUPS; the
end-to-end metrics are medians over repetitions.  With `--trace 1`
repetitions alternate untraced and traced (at least one of each, so
such a run takes about twice as long as one repetition): the per-layer
metrics come from the traced ones only, `trace.overhead_s` is the traced minus the untraced
median time, `trace.span_cost_s` the spans recorded times the cost of
one empty span, and the spans are written to
perfbench/out/trace-<workload>-<seed>.json.

Every metric is printed as `name value unit`, then the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
exit code is 1 when a repetition crashes and 2 when the library is
missing; no result is printed then.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import summarize, tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 3.0
REP_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}
# printed for reference, not part of the JSON result
CLOCK_UNITS = {"wall_clock_s": "s", "setup_clock_s": "s"}


class RepFailed(RuntimeError):
    pass


def run_rep(workload, seed, mode, traced, run_id):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode,
         "1" if traced else "0", repr(t0), run_id],
        env=env, stdout=subprocess.PIPE, timeout=REP_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RepFailed("repetition %s exited with code %d" % (run_id, proc.returncode))
    result = json.loads(proc.stdout)
    result["traced"] = traced
    result["elapsed_s"] = time.monotonic() - t0
    return result


def more_setups(count, setup_only):
    """Whether to time another set-up, having `count` set-up times of
    which `setup_only` are from set-up-only repetitions."""
    if count < MIN_SETUPS:
        return True
    spent = sum(r["elapsed_s"] for r in setup_only)
    return count < MAX_SETUPS and spent < SETUP_BUDGET_S


def run_reps(workload, seed, seconds, trace):
    """Full repetitions while the next one is expected to end in time."""
    start = time.monotonic()
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, "full", traced,
                            "%s-%d-%d" % (workload, seed, len(reps))))
        both = any(r["traced"] for r in reps) and not all(r["traced"] for r in reps)
        if trace and not both:
            continue
        if time.monotonic() - start + reps[-1]["elapsed_s"] > seconds:
            return reps


# ---------------------------------------------------------------------------
# per-layer metrics, from the spans and counts of one traced repetition
# ---------------------------------------------------------------------------

def _busy(name):
    return lambda s, c: s[name]["busy_s"] if name in s else 0.0


def _calls(name):
    return lambda s, c: s[name]["calls"] if name in s else 0


def _count(name):
    return lambda s, c: c.get(name, 0)


def _p50(name, scale):
    return lambda s, c: statistics.median(s[name]["durations"]) * scale if name in s else 0.0


def _tail(name, scale):
    return lambda s, c: tail(s[name]["durations"]) * scale if name in s else 0.0


def _rate(work, name):
    def rate(s, c):
        busy = s[name]["busy_s"] if name in s else 0.0
        return c.get(work, 0) / busy if busy else 0.0
    return rate


def _ratio(part, whole):
    return lambda s, c: c.get(part, 0) / c[whole] if c.get(whole) else 0.0


K6 = "coefficients.b_single_all.K6"
CANON = "ribbon.canonical_form"
D_INT = "graph_complex.d_integral"
PF = "ainfinity.partition_function"
PF_CHAIN = "ainfinity.partition_function_chain"

# (name, unit, better, value from (span summary, counts))
PER_LAYER = [
    (K6 + ".chains_per_s", "1/s", "higher", _rate(K6 + ".chains", K6)),
    ("coefficients.b_single_all.K4.busy_s", "s", "lower",
     _busy("coefficients.b_single_all.K4")),
    ("trees.enumerate_trivalent_trees.busy_s", "s", "lower",
     _busy("trees.enumerate_trivalent_trees")),
    ("coefficients.a_matrix.busy_s", "s", "lower", _busy("coefficients.a_matrix")),
    ("coefficients.w_polynomial.busy_s", "s", "lower", _busy("coefficients.w_polynomial")),
    ("coefficients.closed_form_checks.busy_s", "s", "lower",
     _busy("coefficients.closed_form_checks")),
    (CANON + ".calls", "count", "lower", _calls(CANON)),
    (CANON + ".busy_s", "s", "lower", _busy(CANON)),
    (CANON + ".p50_us", "us", "lower", _p50(CANON, 1e6)),
    (CANON + ".tail_us", "us", "lower", _tail(CANON, 1e6)),
    (D_INT + ".calls", "count", "lower", _calls(D_INT)),
    (D_INT + ".busy_s", "s", "lower", _busy(D_INT)),
    (D_INT + ".p50_ms", "ms", "lower", _p50(D_INT, 1e3)),
    (D_INT + ".tail_ms", "ms", "lower", _tail(D_INT, 1e3)),
    (D_INT + ".terms", "count", "lower", _count(D_INT + ".terms")),
    ("graph_complex.d_chain.busy_s", "s", "lower", _busy("graph_complex.d_chain")),
    ("graph_complex.d_chain.distinct_ratio", "ratio", "higher",
     _ratio("graph_complex.d_chain.distinct", "graph_complex.d_chain.fed")),
    ("graph_complex.enumerate_graphs.busy_s", "s", "lower",
     _busy("graph_complex.enumerate_graphs")),
    ("graph_complex.enumerate_graphs.classes", "count", "higher",
     _count("graph_complex.enumerate_graphs.classes")),
    ("graph_complex.verify_cocycle.busy_s", "s", "lower",
     _busy("graph_complex.verify_cocycle")),
    ("graph_complex.forest_complex.busy_s", "s", "lower",
     _busy("graph_complex.forest_complex")),
    ("graph_complex.forest_complex.generators", "count", "higher",
     _count("graph_complex.forest_complex.generators")),
    ("graph_complex.ForestComplex.d_squared_is_zero.busy_s", "s", "lower",
     _busy("graph_complex.ForestComplex.d_squared_is_zero")),
    ("graph_complex.ForestComplex.homology_is_trivial.busy_s", "s", "lower",
     _busy("graph_complex.ForestComplex.homology_is_trivial")),
    (PF + ".busy_s", "s", "lower", _busy(PF)),
    (PF + ".states", "count", "higher", _count(PF + ".states")),
    (PF + ".states_per_s", "1/s", "higher", _rate(PF + ".states", PF)),
    (PF_CHAIN + ".calls", "count", "higher", _calls(PF_CHAIN)),
    (PF_CHAIN + ".busy_s", "s", "lower", _busy(PF_CHAIN)),
    (PF_CHAIN + ".p50_ms", "ms", "lower", _p50(PF_CHAIN, 1e3)),
    (PF_CHAIN + ".tail_ms", "ms", "lower", _tail(PF_CHAIN, 1e3)),
    ("ainfinity.change_basis.busy_s", "s", "lower", _busy("ainfinity.change_basis")),
    ("ainfinity.verify_ainfinity.busy_s", "s", "lower", _busy("ainfinity.verify_ainfinity")),
]
TRACE = [("trace.overhead_s", "s", "lower"), ("trace.span_cost_s", "s", "lower")]


def end_to_end(reps, setups):
    """Medians: times over `reps`, set-up times over `setups` (all
    untraced repetitions, full ones and set-up-only ones)."""
    return {
        "wall_ref_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
    }, {
        "wall_clock_s": statistics.median(r["wall_clock_s"] for r in reps),
        "setup_clock_s": statistics.median(r["setup_clock_s"] for r in setups),
    }


def per_layer(traced, untraced):
    """Median over the traced repetitions of each per-layer metric, and
    the cost of tracing: the traced minus the untraced median wall time,
    and the spans recorded times the cost of one empty span."""
    per_rep = []
    for r in traced:
        spans = summarize(r["spans"])
        per_rep.append({name: value(spans, r["counts"])
                        for name, _, _, value in PER_LAYER})
    out = {name: statistics.median(m[name] for m in per_rep)
           for name, _, _, _ in PER_LAYER}
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in untraced))
    out["trace.span_cost_s"] = statistics.median(len(r["spans"]) * r["span_cost_s"]
                                                 for r in traced)
    return out


def write_trace(workload, seed, traced):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = [span for r in traced for span in r["spans"]]
    path = out / ("trace-%s-%d.json" % (workload, seed))
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run_id"],
                                "spans": spans}))
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["scan", "complex", "statesum"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fatcomplex" / "__init__.py").is_file():
        print("run.py: no fatcomplex sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2

    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
        untraced = [r for r in reps if not r["traced"]]
        extra = []
        while not args.trace and more_setups(len(untraced) + len(extra), extra):
            extra.append(run_rep(args.workload, args.seed, "setup", False,
                                 "%s-%d-setup%d" % (args.workload, args.seed, len(extra))))
    except (RepFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reps + extra)
    failures = [f for r in reps + extra for f in r["failures"]]
    for failure in failures[:20]:
        print("FAILED %s" % failure)
    if args.trace:
        traced = [r for r in reps if r["traced"]]
        metrics = per_layer(traced, untraced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        units.update((name, unit) for name, unit, _ in TRACE)
        clock = {}
        print("spans written to %s" % write_trace(args.workload, args.seed, traced))
    else:
        metrics, clock = end_to_end(untraced, untraced + extra)
        units = END_TO_END_UNITS
    print("workload %s seed %d: %d repetitions (%d traced), %d set-ups"
          % (args.workload, args.seed, len(reps), len(reps) - len(untraced),
             len(untraced) + len(extra)))
    for name, value in metrics.items():
        print("%s %r %s" % (name, value, units[name]))
    for name, value in clock.items():
        print("%s %r %s" % (name, value, CLOCK_UNITS[name]))
    print("fail_ratio %r ratio (%d of %d checks)"
          % (len(failures) / attempted if attempted else 1.0, len(failures), attempted))
    print(json.dumps({
        "correct": attempted > 0 and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
