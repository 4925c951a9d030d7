import io
import json
import sys

import pytest

from fatcomplex.cli import main


def run_cli(argv):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(argv)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_coeff_n1_text():
    code, text = run_cli(["coeff", "--n", "1"])
    assert code == 0
    assert "1/12" in text
    assert "12" in text


def test_coeff_n2_json_matches_documented_schema():
    code, text = run_cli(["coeff", "--n", "2", "--format", "json"])
    assert code == 0
    data = json.loads(text)
    assert data == {"n": 2, "order": ["2", "1,1"],
                    "B": [["-1/120", "29/720"], ["0", "1/72"]],
                    "A": [["-120", "348"], ["0", "72"]]}


def test_coeff_out_of_range_exits_2():
    code, _ = run_cli(["coeff", "--n", "5"])
    assert code == 2


def test_wpoly_examples():
    code, text = run_cli(["wpoly", "--partition", "1,0"])
    assert code == 0
    assert text.strip() == "W[1,0]* = -24*k1*k0 - 36*k1"
    code, text = run_cli(["wpoly", "--partition", "1,1", "--format", "json"])
    assert code == 0
    assert json.loads(text) == {"partition": "1,1",
                                "terms": {"1,1": "72", "2": "348"}}


def test_wpoly_out_of_range_exits_2():
    code, _ = run_cli(["wpoly", "--partition", "5"])
    assert code == 2


def test_verify_orientation_suite():
    code, text = run_cli(["verify", "--suite", "orientation"])
    assert code == 0
    assert "FAIL" not in text
    assert "valence 5" in text and "valence 9" in text


def test_verify_all_tiny_corpus():
    code, text = run_cli(["verify", "--suite", "all", "--max-half-edges", "4",
                          "--n", "1"])
    assert code == 0
    assert "FAIL" not in text


def test_verify_json_roundtrip_and_determinism():
    argv = ["verify", "--suite", "cocycle", "--max-half-edges", "8",
            "--format", "json", "--seed", "5"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    rows = json.loads(text1)
    assert all(set(r) == {"suite", "check", "passed", "conjecture"} for r in rows)
    assert all(r["passed"] for r in rows)


def test_verify_seed_changes_nothing_semantically():
    for seed in ("1", "2"):
        code, text = run_cli(["verify", "--suite", "ainf", "--seed", seed,
                              "--max-half-edges", "6"])
        assert code == 0
        assert "FAIL" not in text


def test_workers_do_not_change_output():
    a = run_cli(["coeff", "--n", "2", "--format", "json", "--workers", "1"])
    b = run_cli(["coeff", "--n", "2", "--format", "json", "--workers", "2"])
    assert a == b


def test_verify_closedform_suite():
    code, text = run_cli(["verify", "--suite", "closedform", "--n", "2"])
    assert code == 0
    assert "FAIL" not in text
    assert "[conjecture]" in text


def test_verify_closedform_out_of_range_exits_2():
    code, text = run_cli(["verify", "--suite", "closedform", "--n", "9"])
    assert code == 2 and text == ""
    code, _ = run_cli(["verify", "--suite", "closedform", "--n", "4"])
    assert code == 2


@pytest.mark.parametrize("n", ["-1", "0"])
def test_verify_closedform_nonpositive_weight_exits_2(n):
    code, text = run_cli(["verify", "--suite", "closedform", "--n", n])
    assert code == 2 and text == ""
    code, text = run_cli(["coeff", "--n", n])
    assert code == 2 and text == ""


def test_verify_all_checks_weight_before_any_suite(monkeypatch):
    from fatcomplex import cli

    def must_not_run(cfg):
        raise AssertionError("a suite ran before the weight was checked")

    for suite in ("_checks_orientation", "_checks_complex", "_checks_cocycle",
                  "_checks_ainf"):
        monkeypatch.setattr(cli, suite, must_not_run)
    code, text = run_cli(["verify", "--suite", "all", "--n", "9"])
    assert code == 2 and text == ""


def test_long_mode_progress_goes_to_stderr_only(capsys, monkeypatch):
    from fatcomplex import coefficients

    argv = ["coeff", "--n", "2", "--format", "json"]
    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    assert main(argv) == 0
    fast = capsys.readouterr()
    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    assert main(argv + ["--mode", "long"]) == 0
    long = capsys.readouterr()
    assert long.out == fast.out
    assert fast.err == ""
    lines = long.err.splitlines()
    # K^4 has six rotation orbits of seed trees, one line each; K^2 has one
    assert sorted(line.split()[1] for line in lines) \
        == ["1/1", "1/6", "2/6", "3/6", "4/6", "5/6", "6/6"]
    assert all(line.startswith("  scanned ") and " orbits, " in line
               and " orbits/s, ETA " in line for line in lines)
    assert coefficients.progress_hook is None


def test_strict_conjecture_gates_exit_code(monkeypatch):
    from fatcomplex import cli, coefficients

    class Fake:
        name = "made-up two-part identity"
        passed = False
        conjecture = True

    monkeypatch.setattr(coefficients, "closed_form_checks",
                        lambda n, workers=1, mode="fast": [Fake()])
    code, text = run_cli(["verify", "--suite", "closedform"])
    assert code == 0 and "FAIL" in text
    code, text = run_cli(["verify", "--suite", "closedform",
                          "--strict-conjecture"])
    assert code == 1


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "fatcomplex.cli", "coeff", "--n", "1",
         "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"n": 1, "order": ["1"],
                                       "B": [["1/12"]], "A": [["12"]]}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["coeff"])
    assert exc.value.code == 2
