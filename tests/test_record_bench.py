import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("record_bench", ROOT / "tools" / "record_bench.py")
record_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record_bench)


def fake_run(path, workload, seed, wall, traced=False, failed=0):
    metrics = {"wall_ref_s": wall, "setup_s": 0.5, "peak_rss_mib": 18.0,
               "ainfinity.partition_function.busy_s": wall / 2 if traced else 0.0}
    path.write_text(
        "workload %s seed %d: 3 repetitions (%d traced), 5 set-ups\n" % (workload, seed, traced)
        + "".join("%s %r\n" % item for item in metrics.items())
        + json.dumps({"correct": not failed, "attempted": 10, "failed": failed,
                      "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}})
        + "\n")
    return str(path)


def test_record_pairs_runs_and_summarizes(tmp_path):
    parent = [fake_run(tmp_path / ("p%d" % s), "statesum", s, w)
              for s, w in ((1, 9.0), (2, 10.0), (3, 11.0))]
    change = [fake_run(tmp_path / ("c%d" % s), "statesum", s, w)
              for s, w in ((1, 1.0), (2, 12.0), (3, 2.0))]
    parent.append(fake_run(tmp_path / "pt", "statesum", 4, 10.0, traced=True))
    change.append(fake_run(tmp_path / "ct", "statesum", 4, 2.0, traced=True))
    out = tmp_path / "BENCH.json"
    assert record_bench.main(["--out", str(out), "--parent", *parent, "--change", *change]) == 0
    record = json.loads(out.read_text())
    assert record["machine"]["cores"] >= 1
    summary = record["workloads"]["statesum"]["summary"]
    wall = summary["end_to_end"]["wall_ref_s"]
    assert (wall["pairs"], wall["change_wins"]) == (3, 2)
    assert (wall["parent"]["median"], wall["change"]["median"]) == (10.0, 2.0)
    assert wall["within_bound"] and summary["end_to_end"]["setup_s"]["within_bound"]
    assert summary["per_layer"]["ainfinity.partition_function.busy_s"] == {
        "unit": "s", "better": "lower", "parent_median": 5.0, "change_median": 1.0}
    runs = record["workloads"]["statesum"]["runs"]
    assert len(runs) == 4 and sorted(runs[0]["parent"]["metrics"]) == [
        "peak_rss_mib", "setup_s", "wall_ref_s"]


def test_record_flags_a_regression_and_an_unpaired_run(tmp_path):
    parent = [fake_run(tmp_path / "p", "scan", 1, 1.0)]
    change = [fake_run(tmp_path / "c", "scan", 1, 1.5)]
    out = tmp_path / "BENCH.json"
    record_bench.main(["--out", str(out), "--parent", *parent, "--change", *change])
    wall = json.loads(out.read_text())["workloads"]["scan"]["summary"]["end_to_end"]["wall_ref_s"]
    assert not wall["within_bound"] and wall["change_wins"] == 0
    change.append(fake_run(tmp_path / "c2", "scan", 2, 1.0))
    with pytest.raises(SystemExit):
        record_bench.main(["--out", str(out), "--parent", *parent, "--change", *change])
