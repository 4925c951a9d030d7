"""Command-line front end: coefficient tables, polynomial output, and
the verification suites, with reproducible text or JSON output."""

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from fatcomplex import ainfinity, coefficients, graph_complex, trees
from fatcomplex.coefficients import (
    OutOfComputedRange,
    format_rational,
    parse_partition,
)
from fatcomplex.ribbon import OrientedRibbonGraph


@dataclass
class RunConfig:
    command: str
    n: int = 2
    partition: str = ""
    max_half_edges: int = 8
    mode: str = "fast"
    fmt: str = "text"
    workers: int = 1
    seed: int = 0
    suite: str = "all"
    strict_conjecture: bool = False


def _parser():
    parser = argparse.ArgumentParser(
        prog="fatcomplex",
        description="Exact tables and verification suites for the "
                    "associative ribbon-graph complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--mode", choices=("fast", "long"), default="fast")
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    p_coeff = sub.add_parser("coeff", help="print the matrices B_n and A_n")
    p_coeff.add_argument("--n", type=int, required=True)
    common(p_coeff)

    p_wpoly = sub.add_parser("wpoly", help="print one dual-cycle polynomial")
    p_wpoly.add_argument("--partition", required=True,
                         help="comma-separated nonnegative parts, e.g. 2,1")
    common(p_wpoly)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=("cocycle", "ainf", "orientation",
                                   "complex", "closedform", "all"))
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--max-half-edges", type=int, default=8,
                          dest="max_half_edges")
    p_verify.add_argument("--strict-conjecture", action="store_true",
                          dest="strict_conjecture")
    common(p_verify)
    return parser


def config_from_args(argv):
    args = _parser().parse_args(argv)
    cfg = RunConfig(command=args.command)
    for field in ("n", "partition", "max_half_edges", "mode", "fmt",
                  "workers", "seed", "suite", "strict_conjecture"):
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    if cfg.max_half_edges < 4 or cfg.workers < 1:
        raise OutOfComputedRange("bounds must be positive")
    return cfg


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_coeff(cfg, out):
    b = coefficients.b_matrix(cfg.n, workers=cfg.workers, mode=cfg.mode)
    a = coefficients.a_matrix(cfg.n, workers=cfg.workers, mode=cfg.mode)
    order = [",".join(str(p) for p in part) for part in b.order]
    if cfg.fmt == "json":
        out.write(json.dumps({"n": cfg.n, "order": order,
                              "B": b.to_json(), "A": a.to_json()},
                             separators=(",", ":")) + "\n")
        return 0
    out.write("partitions of %d: %s\n" % (cfg.n, "  ".join(order)))
    out.write("B_%d:\n" % cfg.n)
    for row in b.rows:
        out.write("  " + "  ".join(format_rational(x) for x in row) + "\n")
    out.write("A_%d = B_%d^-1:\n" % (cfg.n, cfg.n))
    for row in a.rows:
        out.write("  " + "  ".join(format_rational(x) for x in row) + "\n")
    return 0


def cmd_wpoly(cfg, out):
    mu = parse_partition(cfg.partition, allow_zero=True)
    poly = coefficients.w_polynomial(mu, workers=cfg.workers, mode=cfg.mode)
    name = ",".join(str(p) for p in mu)
    if cfg.fmt == "json":
        out.write(json.dumps({"partition": name, "terms": poly.to_json()},
                             separators=(",", ":")) + "\n")
    else:
        out.write("W[%s]* = %s\n" % (name, poly.render()))
    return 0


def _checks_orientation(cfg):
    checks = []
    for valence in (5, 7, 9):
        leaves = valence + 2
        seeds = [t for t in trees.trees_with_edge_count(leaves, 2)
                 if sorted(len(c) for c in t.vertices) == [3, 3, valence]]
        ok = bool(seeds)
        from itertools import permutations
        for t in seeds:
            for order in permutations(t.internal_edges()):
                chain = trees.chain_from_order(t, list(order))
                if trees.lemma_region_sign(t, list(order)) != chain.sign:
                    ok = False
        checks.append(("region sign rule, big vertex valence %d" % valence, ok, False))
    for n in (2, 4):
        ok = True
        for chain in trees.maximal_chains(n):
            if trees.chain_region_sign(chain) != chain.sign:
                ok = False
            for i in range(n - 1):
                swapped = list(chain.edges)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if trees.chain_from_order(chain.trees[0], swapped).sign != -chain.sign:
                    ok = False
        checks.append(("chain signs on K^%d: region rule and antisymmetry" % n,
                       ok, False))
    return checks


def _checks_complex(cfg):
    checks = []
    ok = True
    count = 0
    for g in graph_complex.enumerate_graphs(cfg.max_half_edges):
        if g.codimension < 2:
            continue
        count += 1
        if not graph_complex.d_chain(
                graph_complex.d_integral(OrientedRibbonGraph(g, 1))).is_zero():
            ok = False
    checks.append(("d.d = 0 on %d classes within %d half-edges"
                   % (count, cfg.max_half_edges), ok, False))
    for n in (1, 2, 3):
        lhs, rhs = trees.dual_cell_boundary_check(n)
        checks.append(("dual cell boundary identity on K^%d" % n, lhs == rhs, False))
    ok = True
    count = 0
    for g in graph_complex.enumerate_graphs(cfg.max_half_edges):
        if not 1 <= g.codimension <= 4:
            continue
        count += 1
        fc = graph_complex.forest_complex(g)
        if fc.ranks() != fc.expected_ranks():
            ok = False
        if not (fc.d_squared_is_zero() and fc.homology_is_trivial()):
            ok = False
    checks.append(("forest complex ranks/acyclicity on %d bases" % count, ok, False))
    import math
    ok = all(len(trees.enumerate_trivalent_trees(leaves))
             == math.comb(2 * (leaves - 2), leaves - 2) // (leaves - 1)
             for leaves in range(3, 10))
    checks.append(("Catalan counts for trivalent trees up to 9 leaves", ok, False))
    return checks


def _checks_cocycle(cfg):
    checks = []
    for lam in ((), (1,), (2,), (1, 1)):
        report = graph_complex.verify_cocycle(lam, cfg.max_half_edges)
        ok = all(v == 0 for _, v in report)
        name = "W[%s]* kills boundaries (%d classes, <= %d half-edges)" % (
            ",".join(str(p) for p in lam), len(report), cfg.max_half_edges)
        checks.append((name, ok, False))
    return checks


def _checks_ainf(cfg):
    rng = random.Random(cfg.seed)
    checks = []
    corpus = graph_complex.enumerate_graphs(cfg.max_half_edges)
    positive = [g for g in corpus if g.codimension >= 1]
    for trial in range(3):
        x = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(5)]
        alg = ainfinity.one_dimensional_algebra(x, cfg.max_half_edges + 2)
        report = ainfinity.check_partition_cocycle(alg, positive)
        ok = all(v == 0 for _, v in report)
        checks.append(("Z_x cocycle, random x #%d (%d classes)"
                       % (trial + 1, len(report)), ok, False))
        expansion = ainfinity.zx_expansion_check(x, corpus)
        ok = all(lhs == rhs for _, lhs, rhs in expansion)
        checks.append(("Z_x expansion identity, random x #%d" % (trial + 1),
                       ok, False))
    return checks


def _checks_closedform(cfg):
    results = coefficients.closed_form_checks(cfg.n, workers=cfg.workers,
                                              mode=cfg.mode)
    return [(r.name, r.passed, r.conjecture) for r in results]


def cmd_verify(cfg, out):
    suites = {
        "orientation": _checks_orientation,
        "complex": _checks_complex,
        "cocycle": _checks_cocycle,
        "ainf": _checks_ainf,
        "closedform": _checks_closedform,
    }
    names = list(suites) if cfg.suite == "all" else [cfg.suite]
    if "closedform" in names:
        # fail on the weight before any suite spends time
        coefficients.check_weight(cfg.n, cfg.mode)
    rows = []
    for name in names:
        for check_name, ok, conjecture in suites[name](cfg):
            rows.append({"suite": name, "check": check_name,
                         "passed": ok, "conjecture": conjecture})
    hard_fail = any(not r["passed"] and not r["conjecture"] for r in rows)
    soft_fail = any(not r["passed"] and r["conjecture"] for r in rows)
    if cfg.fmt == "json":
        out.write(json.dumps(rows, separators=(",", ":")) + "\n")
    else:
        for r in rows:
            status = "ok" if r["passed"] else "FAIL"
            tag = " [conjecture]" if r["conjecture"] else ""
            out.write("%-4s %s: %s%s\n" % (status, r["suite"], r["check"], tag))
    if hard_fail or (soft_fail and cfg.strict_conjecture):
        return 1
    return 0


def _progress_reporter():
    """A `coefficients.progress_hook` printing the orbits scanned, with a
    rate and an ETA, to stderr."""
    start = None

    def progress(done, total):
        nonlocal start
        if done == 0:
            start = time.monotonic()
            return
        rate = done / max(time.monotonic() - start, 1e-9)
        print("  scanned %d/%d orbits, %.2f orbits/s, ETA %.0f s"
              % (done, total, rate, (total - done) / rate), file=sys.stderr)

    return progress


def main(argv=None):
    try:
        cfg = config_from_args(argv)
    except OutOfComputedRange as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    previous_hook = coefficients.progress_hook
    if cfg.mode == "long":
        coefficients.progress_hook = _progress_reporter()
    out = sys.stdout
    try:
        if cfg.command == "coeff":
            return cmd_coeff(cfg, out)
        if cfg.command == "wpoly":
            return cmd_wpoly(cfg, out)
        return cmd_verify(cfg, out)
    except OutOfComputedRange as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        coefficients.progress_hook = previous_hook


if __name__ == "__main__":
    sys.exit(main())
