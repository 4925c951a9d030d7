"""Record parent-versus-change benchmark runs in one BENCH_<n>.json file.

    python3 tools/record_bench.py --out BENCH_7.json \
        --parent parent-*.txt --change change-*.txt

Each input file is the stdout of one `perfbench/run.py` run.  The file's
`workload W seed N: ...` line names the workload, the seed and whether
any repetition was traced; its last line is the JSON result.  Parent and
change runs are paired by workload, seed and tracing.

For each workload the record holds every run, and for each end-to-end
metric of BENCHMARK.json, over the untraced pairs: both sides' medians
and quartiles, the number of pairs the change wins, and whether the
change's median stays within the metric's bound.  The per-layer metrics
are summarized by their medians over the traced runs.  The machine facts
(cores, Python, platform) come from the machine the recorder runs on,
which should be the one the runs were made on.
"""

import argparse
import json
import os
import platform
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEADER = re.compile(r"^workload (\S+) seed (\d+): \d+ repetitions \((\d+) traced\)")


def read_run(path):
    """(workload, seed, traced, result) from the stdout of one run."""
    lines = Path(path).read_text().splitlines()
    header = next((m for m in map(HEADER.match, lines) if m), None)
    if header is None or not lines or not lines[-1].startswith("{"):
        raise ValueError("%s is not the output of perfbench/run.py" % path)
    workload, seed, traced = header.group(1), int(header.group(2)), int(header.group(3)) > 0
    result = json.loads(lines[-1])
    run = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    return workload, seed, traced, run


def spread(values):
    """Median and quartiles."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def end_to_end_summary(pairs, spec):
    name, lower = spec["name"], spec["better"] == "lower"
    parent = [p["metrics"][name] for p, _ in pairs]
    change = [c["metrics"][name] for _, c in pairs]
    before, after = spread(parent), spread(change)
    relative = (after["median"] - before["median"]) / before["median"]
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "pairs": len(pairs), "parent": before, "change": after,
        "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "relative_change": relative,
        "within_bound": (relative if lower else -relative) <= spec["bound"],
    }


def summarize(runs, benchmark):
    untraced = [(r["parent"], r["change"]) for r in runs if not r["traced"]]
    traced = [(r["parent"], r["change"]) for r in runs if r["traced"]]
    summary = {"failed": sum(r["parent"]["failed"] + r["change"]["failed"] for r in runs)}
    if untraced:
        summary["end_to_end"] = {spec["name"]: end_to_end_summary(untraced, spec)
                                 for spec in benchmark["end_to_end"]}
    if traced:
        summary["per_layer"] = {
            spec["name"]: {
                "unit": spec["unit"], "better": spec["better"],
                "parent_median": statistics.median(p["metrics"][spec["name"]] for p, _ in traced),
                "change_median": statistics.median(c["metrics"][spec["name"]] for _, c in traced),
            }
            for spec in benchmark["per_layer"] if spec["name"] in traced[0][0]["metrics"]}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--parent", nargs="+", required=True, help="stdout of parent runs")
    parser.add_argument("--change", nargs="+", required=True, help="stdout of change runs")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    end_to_end = {spec["name"] for spec in benchmark["end_to_end"]}
    sides = {}
    for side in ("parent", "change"):
        for path in getattr(args, side):
            workload, seed, traced, run = read_run(path)
            if not traced:
                # an untraced run's per-layer metrics are all zero
                run["metrics"] = {k: v for k, v in run["metrics"].items() if k in end_to_end}
            key = (workload, seed, traced)
            if (key, side) in sides:
                raise SystemExit("two %s runs of %s seed %d" % (side, workload, seed))
            sides[key, side] = run
    keys = sorted({key for key, _ in sides})
    unpaired = [key for key in keys if (key, "parent") not in sides or (key, "change") not in sides]
    if unpaired:
        raise SystemExit("runs without a partner: %s" % unpaired)

    workloads = {}
    for workload, seed, traced in keys:
        workloads.setdefault(workload, []).append({
            "seed": seed, "traced": traced,
            "parent": sides[(workload, seed, traced), "parent"],
            "change": sides[(workload, seed, traced), "change"]})
    record = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "benchmark": " ".join(benchmark["command"]),
        "workloads": {name: {"summary": summarize(runs, benchmark), "runs": runs}
                      for name, runs in sorted(workloads.items())},
    }
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
