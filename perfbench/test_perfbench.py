"""Tests of the benchmark itself: every workload's checks can fail, the
tracer's arithmetic, and the agreement of run.py with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail_ratio(workload, perturb=None, seed=7):
    """Run a workload once, after `perturb(workload, inputs)` if given."""
    checks = workloads.Checks()
    tracer = tracing.NullTracer()
    inputs = workload.setup(seed, tracer, checks)
    if perturb is not None:
        perturb(workload, inputs)
    workload.run(inputs, tracer, checks)
    assert checks.attempted > 0
    return len(checks.failures) / checks.attempted


def test_scan_fails_on_a_perturbed_b():
    assert fail_ratio(workloads.Scan(weight=2)) == 0

    def perturb(w, inputs):
        w.expected_b[2][(2,)] += Fraction(1, 10**6)

    assert fail_ratio(workloads.Scan(weight=2), perturb) > 0


def test_scan_leaves_out_the_self_comparison(monkeypatch):
    from fatcomplex.coefficients import CheckResult

    rows = [CheckResult("W[4]* = x %s" % workloads.SELF_COMPARISON, False, False, "", ""),
            CheckResult("W[1]* = y", False, False, "", "")]
    monkeypatch.setattr(workloads.coefficients, "closed_form_checks", lambda n: rows)
    checks = workloads.Checks()
    workloads.Scan(weight=1).run(None, tracing.NullTracer(), checks)
    assert checks.failures == ["W[1]* = y"]


def test_complex_fails_on_a_wrong_class_count_or_cocycle_size():
    assert fail_ratio(workloads.Complex(max_half_edges=8)) == 0

    def more_classes(w, inputs):
        w.expected_classes += 1

    def more_cocycle_classes(w, inputs):
        w.expected_cocycle_sizes = dict(w.expected_cocycle_sizes)
        w.expected_cocycle_sizes[(2,)] += 1

    assert fail_ratio(workloads.Complex(max_half_edges=8), more_classes) > 0
    assert fail_ratio(workloads.Complex(max_half_edges=8), more_cocycle_classes) > 0


def test_statesum_fails_on_a_perturbed_y():
    assert fail_ratio(workloads.StateSum(half_edges=8)) == 0

    def perturb(w, inputs):
        inputs["y"] = [v + 1 for v in inputs["y"]]

    assert fail_ratio(workloads.StateSum(half_edges=8), perturb) > 0


def test_an_exception_is_a_failed_check():
    checks = workloads.Checks()
    assert checks.expect("raises", lambda: 1 // 0, 0) is None
    assert checks.attempted == 1 and len(checks.failures) == 1


def test_a_raising_expected_value_is_a_failed_check(monkeypatch):
    def broken(*args):
        raise ArithmeticError("z_x")

    monkeypatch.setattr(workloads.ainfinity, "z_x", broken)
    assert fail_ratio(workloads.StateSum(half_edges=8)) > 0


def test_same_seed_same_inputs():
    a = workloads.StateSum().setup(3, tracing.NullTracer(), workloads.Checks())
    b = workloads.StateSum().setup(3, tracing.NullTracer(), workloads.Checks())
    assert a["x"] == b["x"] and a["y"] == b["y"]
    assert a["algebra"].to_json() == b["algebra"].to_json()


def test_self_time_subtracts_children():
    spans = [["outer", 0.0, 10.0, None, "r"],
             ["inner", 1.0, 4.0, 0, "r"],
             ["inner", 5.0, 6.0, 0, "r"],
             ["leaf", 2.0, 3.0, 1, "r"]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    summary = tracing.summarize(spans)
    assert summary["inner"]["calls"] == 2 and summary["inner"]["busy_s"] == 3.0


def test_tracer_records_parents():
    tracer = tracing.Tracer("r")
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    with tracer.span("c"):
        pass
    assert [(s[0], s[3]) for s in tracer.spans] == [("a", None), ("b", 0), ("c", None)]


def test_reference_clock_rescales_by_the_probe():
    half = 2 * speed.PROBE_REF_S
    clock = speed.RefClock([(t, t + half) for t in (0.0, 1.0, 2.0)])
    assert clock(1.0) == clock(1.0 + half)  # stands still inside a probe
    assert abs(clock(2.0) - clock(0.0) - 2 * (1.0 - half) / 2) < 1e-12
    assert abs(clock(3.0 + half) - clock(2.0 + half) - 0.5) < 1e-12
    assert abs(clock(-1.0) - clock(0.0) + 0.5) < 1e-12


def test_reference_clock_ignores_one_slow_probe():
    ref = speed.PROBE_REF_S
    durations = [ref, ref, 10 * ref, ref, ref]
    clock = speed.RefClock([(float(t), t + d) for t, d in enumerate(durations)])
    assert abs(clock(4.0) - clock(ref) - (4.0 - 3 * ref - 10 * ref)) < 1e-12


def test_tail_has_ten_values_beyond_it():
    values = list(range(100))
    assert tracing.tail(values) == 89
    assert tracing.tail([1, 2, 3]) == 2


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in run.PER_LAYER] + run.TRACE
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "scan",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
