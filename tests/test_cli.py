import ast
import hashlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from fatcomplex.cli import main
from fatcomplex.coefficients import MmmPolynomial


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
    # a check that covers no class prints no row
    assert not re.search(r"\b0 (classes|bases)", text)


def test_verify_json_roundtrip_and_determinism():
    argv = ["verify", "--suite", "cocycle", "--max-half-edges", "8",
            "--format", "json", "--seed", "5"]
    code1, text1 = run_cli(argv)
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    rows = json.loads(text1)
    assert all(set(r) == {"suite", "check", "passed"} for r in rows)
    assert all(r["passed"] for r in rows)


def test_seed_is_a_verify_flag_only():
    for argv in (["coeff", "--n", "1"], ["wpoly", "--partition", "1"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--seed", "1"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "cocycle", "--max-half-edges", "3"],
    ["verify", "--suite", "orientation", "--workers", "0"],
    ["coeff", "--n", "1", "--workers", "0"],
])
def test_bounds_below_range_exit_2(argv):
    code, text = run_cli(argv)
    assert code == 2 and text == ""


@pytest.mark.parametrize("bound", ["5", "9", "11", "14", "100"])
def test_max_half_edges_odd_or_above_range_exit_2(bound, capsys):
    code, text = run_cli(["verify", "--suite", "all", "--max-half-edges", bound])
    assert code == 2 and text == ""
    assert "--max-half-edges must be even, from 4 to 12" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["wpoly", "--partition", "a"],
    ["wpoly", "--partition", "1,-1"],
    ["coeff", "--n", "5"],
])
def test_malformed_partition_or_weight_out_of_range_exits_2(argv, capsys):
    code, text = run_cli(argv)
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_internal_error_in_a_suite_is_not_a_usage_error(monkeypatch, capsys):
    # a failed invariant inside a suite exits 3 with its traceback, apart
    # from a usage error (2) and a FAIL row (1)
    from fatcomplex import checks
    from reference import ConfigurationMismatch

    def broken(**_):
        raise ConfigurationMismatch("invariant failed inside the suite")

    monkeypatch.setitem(checks.SUITES, "orientation", broken)
    code, text = run_cli(["verify", "--suite", "orientation"])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "ConfigurationMismatch: invariant failed inside the suite" in err


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
    code, text = run_cli(["verify", "--suite", "closedform", "--n", "3"])
    assert code == 0
    assert text == (
        "ok   closedform: W[0]* = -2*k0\n"
        "ok   closedform: W[0,0]* = 2*k0^2 + k0\n"
        "ok   closedform: W[1]* = 12*k1\n"
        "ok   closedform: W[1,0]* = -24*k1*k0 - 36*k1\n"
        "ok   closedform: W[2]* = -120*k2\n"
        "ok   closedform: W[2,0]* = 240*k2*k0 + 600*k2\n"
        "ok   closedform: W[1,1]* = 72*k1^2 + 348*k2\n"
        "ok   closedform: W[3]* = 1680*k3\n"
        "ok   closedform: W[3,0]* = -3360*k3*k0 - 11760*k3\n"
        "ok   closedform: W[2,1]* = -1440*k2*k1 - 13680*k3\n"
        "ok   closedform: W[1,1,1]* = 288*k1^3 + 4176*k2*k1 + 20736*k3"
        " (third term frozen from the weight-3 table)\n")


def test_stdout_is_pinned():
    # the full text of `verify --suite all` at 8 half-edges, and the md5
    # of the weight-3 table; any change to either is a declared one
    code, text = run_cli(["verify", "--suite", "all", "--max-half-edges", "8"])
    assert code == 0
    assert text == (
        "ok   orientation: region sign rule, big vertex valence 5\n"
        "ok   orientation: region sign rule, big vertex valence 7\n"
        "ok   orientation: region sign rule, big vertex valence 9\n"
        "ok   orientation: chain signs on K^2: region rule and antisymmetry\n"
        "ok   orientation: chain signs on K^4: region rule and antisymmetry\n"
        "ok   complex: d.d = 0 on 37 classes within 8 half-edges\n"
        "ok   complex: dual cell boundary identity on K^1\n"
        "ok   complex: dual cell boundary identity on K^2\n"
        "ok   complex: dual cell boundary identity on K^3\n"
        "ok   complex: forest complex ranks/acyclicity on 21 bases\n"
        "ok   complex: Catalan counts for trivalent trees up to 9 leaves\n"
        "ok   cocycle: W[]* kills boundaries (1 classes, <= 8 half-edges)\n"
        "ok   cocycle: W[1]* kills boundaries (2 classes, <= 8 half-edges)\n"
        "ok   cocycle: W[2]* kills boundaries (17 classes, <= 8 half-edges)\n"
        "ok   cocycle: W[1,1]* kills boundaries (17 classes, <= 8 half-edges)\n"
        "ok   ainf: Z_x cocycle, random x #1 (39 classes)\n"
        "ok   ainf: Z_x expansion identity, random x #1\n"
        "ok   ainf: Z_x cocycle, random x #2 (39 classes)\n"
        "ok   ainf: Z_x expansion identity, random x #2\n"
        "ok   ainf: Z_x cocycle, random x #3 (39 classes)\n"
        "ok   ainf: Z_x expansion identity, random x #3\n"
        "ok   closedform: W[0]* = -2*k0\n"
        "ok   closedform: W[0,0]* = 2*k0^2 + k0\n"
        "ok   closedform: W[1]* = 12*k1\n"
        "ok   closedform: W[1,0]* = -24*k1*k0 - 36*k1\n"
        "ok   closedform: W[2]* = -120*k2\n"
        "ok   closedform: W[2,0]* = 240*k2*k0 + 600*k2\n"
        "ok   closedform: W[1,1]* = 72*k1^2 + 348*k2\n")
    code, text = run_cli(["coeff", "--n", "3", "--format", "json"])
    assert code == 0
    assert hashlib.md5(text.encode()).hexdigest() == "65c94601517d3a1593627c36d7a5db1c"


def test_verify_closedform_out_of_range_exits_2():
    code, text = run_cli(["verify", "--suite", "closedform", "--n", "9"])
    assert code == 2 and text == ""
    code, _ = run_cli(["verify", "--suite", "closedform", "--n", "5"])
    assert code == 2


@pytest.mark.parametrize("n", ["-1", "0"])
def test_verify_closedform_nonpositive_weight_exits_2(n):
    code, text = run_cli(["verify", "--suite", "closedform", "--n", n])
    assert code == 2 and text == ""
    code, text = run_cli(["coeff", "--n", n])
    assert code == 2 and text == ""


def test_verify_all_checks_weight_before_any_suite(monkeypatch):
    from fatcomplex import checks

    def must_not_run(**inputs):
        raise AssertionError("a suite ran before the weight was checked")

    for suite in ("orientation", "complex", "cocycle", "ainf"):
        monkeypatch.setitem(checks.SUITES, suite, must_not_run)
    code, text = run_cli(["verify", "--suite", "all", "--n", "9"])
    assert code == 2 and text == ""


def plus_one(right, *args, **kwargs):
    return right(*args, **kwargs) + 1


def plus_k_lam_on_two_parts_from_two(right, lam):
    # a wrong answer on W[2,2]* alone, the only two-part row within
    # weight 4 with no part of size 0 or 1
    out = right(lam)
    if len(lam) == 2 and min(lam) >= 2:
        out = out + MmmPolynomial.monomial(lam)
    return out


def first_entry_plus_one(right, *args):
    rows, matrix = right(*args)
    if matrix:
        entry = next(iter(matrix))
        matrix[entry] += 1
    return rows, matrix


@pytest.mark.parametrize("suite, module, name, wrong, row", [
    ("orientation", "trees", "region_sign", plus_one, "region sign rule"),
    # the maximal-chain rows use the same rule at an endpoint of e_1
    pytest.param("orientation", "trees", "region_sign", plus_one, "chain signs on K^2",
                 id="orientation-chain-row-region_sign"),
    ("complex", "graph_complex", "boundary_matrix", first_entry_plus_one, "d.d = 0"),
    ("cocycle", "graph_complex", "eval_w_key", plus_one, "W[1]* kills boundaries"),
    ("ainf", "ainfinity", "partition_function", plus_one, "Z_x cocycle"),
    # a wrong two-part answer is a failed theorem, not a soft conjecture
    ("closedform", "coefficients", "first_two_terms", plus_k_lam_on_two_parts_from_two,
     "W[2,2]*"),
])
def test_verify_row_fails_on_a_wrong_library_answer(monkeypatch, suite, module,
                                                    name, wrong, row):
    import functools
    import importlib

    lib = importlib.import_module("fatcomplex." + module)
    monkeypatch.setattr(lib, name, functools.partial(wrong, getattr(lib, name)))
    code, text = run_cli(["verify", "--suite", suite, "--max-half-edges", "6", "--n", "4"])
    assert code == 1
    assert any(line.startswith("FAIL %s: %s" % (suite, row))
               for line in text.splitlines())


def test_verify_grows_one_corpus_and_each_column_once(monkeypatch):
    from fatcomplex import graph_complex

    corpora = []
    columns = []
    real_corpus = graph_complex.ClassCorpus
    real_matrix = graph_complex.boundary_matrix

    class CountedCorpus(real_corpus):
        def __init__(self, *args):
            corpora.append(args)
            super().__init__(*args)

    def recorded_matrix(cols, *canon):
        # the corpus keys its columns with its own bound method
        if canon and isinstance(getattr(canon[0], "__self__", None), real_corpus):
            columns.extend(og.graph.literal() for og in cols)
        return real_matrix(cols, *canon)

    monkeypatch.setattr(graph_complex, "ClassCorpus", CountedCorpus)
    monkeypatch.setattr(graph_complex, "boundary_matrix", recorded_matrix)
    code, _ = run_cli(["verify", "--suite", "all", "--max-half-edges", "8"])
    assert code == 0
    assert corpora == [(8,)]
    assert columns and len(columns) == len(set(columns))


def _fatcomplex_names(tree, package):
    """Names bound by `fatcomplex` imports anywhere in a parsed file:
    (module, None) for a module, (module, name) for a definition."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fatcomplex"):
            for alias in node.names:
                if node.module != "fatcomplex":
                    target = (node.module.split(".")[1], alias.name)
                else:
                    target = package.get(alias.name, (alias.name, None))
                names[alias.asname or alias.name] = target
    return names


def _references(node, module, names, defs):
    """The (module, name) pairs that names and module attributes read
    inside `node` refer to."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if (module, sub.id) in defs:
                yield module, sub.id
            elif sub.id in names:
                yield names[sub.id]
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = names.get(sub.value.id)
            if target and target[1] is None:
                yield target[0], sub.attr


def test_every_library_definition_is_reachable():
    # roots: `cli.main`, module-level code (it runs on import and holds
    # `checks.SUITES`), `fatcomplex.__all__` and all that perfbench reads
    # off `fatcomplex`; what only the tests use belongs in tests/reference.py
    import fatcomplex

    root = Path(__file__).resolve().parents[1]
    parsed = {path.stem: ast.parse(path.read_text())
              for path in (root / "src" / "fatcomplex").glob("*.py")}
    defs = {(module, node.name): node for module, tree in parsed.items()
            for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    package = _fatcomplex_names(parsed["__init__"], {})
    names = {module: _fatcomplex_names(tree, package) for module, tree in parsed.items()}
    todo = [("cli", "main")] + [package[name] for name in fatcomplex.__all__]
    for module, tree in parsed.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                todo += _references(node, module, names[module], defs)
    for path in (root / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        bench = _fatcomplex_names(tree, package)
        todo += list(bench.values()) + list(_references(tree, None, bench, defs))
    reached = set()
    while todo:
        module, name = todo.pop()
        while (module, name) not in defs and name in names.get(module, {}):
            module, name = names[module][name]  # a re-export
        if (module, name) in defs and (module, name) not in reached:
            reached.add((module, name))
            todo += _references(defs[module, name], module, names[module], defs)
    unreached = sorted("%s.%s" % key for key in defs.keys() - reached)
    assert not unreached, "nothing reaches these definitions: " + ", ".join(unreached)


def test_long_mode_progress_goes_to_stderr_only(capsys, monkeypatch):
    from fatcomplex import coefficients

    monkeypatch.setattr(coefficients, "_B_SINGLE_CACHE", {})
    assert main(["coeff", "--n", "2", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ('{"n":2,"order":["2","1,1"],"B":[["-1/120","29/720"],'
                            '["0","1/72"]],"A":[["-120","348"],["0","72"]]}\n')
    lines = captured.err.splitlines()
    # one worker scans each K^{2m} as one shard: K^2 has one dihedral
    # orbit of seed trees and K^4 four
    assert sorted(line.split()[1] for line in lines) == ["1/1", "4/4"]
    assert all(line.startswith("  scanned ") and " orbits, " in line
               and " orbits/s, ETA " in line for line in lines)
    assert coefficients.progress_hook is None


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
    # a missing required option, and an option that no longer exists
    for argv in (["coeff"], ["verify", "--strict-conjecture"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
