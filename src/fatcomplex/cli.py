"""Command-line front end: coefficient tables, polynomial output, and
the verification suites, with reproducible text or JSON output."""

import argparse
import json
import sys
import time
import traceback

from fatcomplex import checks, coefficients
from fatcomplex.coefficients import OutOfComputedRange, format_rational, parse_partition

# The largest `verify --max-half-edges` at which `verify --suite all` has
# completed in a recorded run.  Half-edges come in pairs, so the bound
# is even.
MAX_HALF_EDGES = 12


def _parser():
    parser = argparse.ArgumentParser(
        prog="fatcomplex",
        description="Exact tables and verification suites for the "
                    "associative ribbon-graph complex.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", dest="fmt", choices=("text", "json"),
                       default="text")
        p.add_argument("--workers", type=int, default=1)

    p_coeff = sub.add_parser("coeff", help="print the matrices B_n and A_n")
    p_coeff.add_argument("--n", type=int, required=True)
    common(p_coeff)

    p_wpoly = sub.add_parser("wpoly", help="print one dual-cycle polynomial")
    p_wpoly.add_argument("--partition", required=True,
                         help="comma-separated nonnegative parts, e.g. 2,1")
    common(p_wpoly)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all",
                          choices=tuple(checks.SUITES) + ("all",))
    p_verify.add_argument("--n", type=int, default=2)
    p_verify.add_argument("--max-half-edges", type=int, default=8,
                          dest="max_half_edges")
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_coeff(args, out):
    b = coefficients.b_matrix(args.n, workers=args.workers)
    a = coefficients.a_matrix(args.n, workers=args.workers)
    order = [",".join(str(p) for p in part) for part in b.order]
    if args.fmt == "json":
        out.write(json.dumps({"n": args.n, "order": order,
                              "B": b.to_json(), "A": a.to_json()},
                             separators=(",", ":")) + "\n")
        return 0
    out.write("partitions of %d: %s\n" % (args.n, "  ".join(order)))
    out.write("B_%d:\n" % args.n)
    for row in b.rows:
        out.write("  " + "  ".join(format_rational(x) for x in row) + "\n")
    out.write("A_%d = B_%d^-1:\n" % (args.n, args.n))
    for row in a.rows:
        out.write("  " + "  ".join(format_rational(x) for x in row) + "\n")
    return 0


def cmd_wpoly(args, out):
    poly = coefficients.w_polynomial(args.partition, workers=args.workers)
    name = ",".join(str(p) for p in args.partition)
    if args.fmt == "json":
        out.write(json.dumps({"partition": name, "terms": poly.to_json()},
                             separators=(",", ":")) + "\n")
    else:
        out.write("W[%s]* = %s\n" % (name, poly.render()))
    return 0


def cmd_verify(args, out):
    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    rows = checks.run(names, max_half_edges=args.max_half_edges, n=args.n,
                      seed=args.seed, workers=args.workers)
    if args.fmt == "json":
        out.write(json.dumps([{"suite": suite, "check": name, "passed": passed}
                              for suite, name, passed in rows],
                             separators=(",", ":")) + "\n")
    else:
        for suite, name, passed in rows:
            out.write("%-4s %s: %s\n" % ("ok" if passed else "FAIL", suite, name))
    return 0 if all(passed for _, _, passed in rows) else 1


def _progress_reporter():
    """A `coefficients.progress_hook` printing the orbits scanned, with a
    rate and an ETA, to stderr: one line per finished shard."""
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
    args = _parser().parse_args(argv)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.command == "verify" and (args.max_half_edges % 2
                                     or not 4 <= args.max_half_edges <= MAX_HALF_EDGES):
        print("error: --max-half-edges must be even, from 4 to %d" % MAX_HALF_EDGES,
              file=sys.stderr)
        return 2
    if args.command == "wpoly":
        try:
            args.partition = parse_partition(args.partition, allow_zero=True)
        except ValueError as exc:
            print("error: --partition: %s" % exc, file=sys.stderr)
            return 2
    previous_hook = coefficients.progress_hook
    coefficients.progress_hook = _progress_reporter()
    out = sys.stdout
    try:
        if args.command == "coeff":
            return cmd_coeff(args, out)
        if args.command == "wpoly":
            return cmd_wpoly(args, out)
        return cmd_verify(args, out)
    except OutOfComputedRange as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    finally:
        coefficients.progress_hook = previous_hook


if __name__ == "__main__":
    sys.exit(main())
