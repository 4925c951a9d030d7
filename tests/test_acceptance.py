"""Acceptance suite: every criterion is exact (rational arithmetic, no
tolerances).  Run with `pytest -s tests/test_acceptance.py` to see one
pass/fail line per criterion.  Criteria 4-7 assert over the rows of the
check registry (`fatcomplex.checks`), the rows `fatcomplex verify` prints.

The stretch check (criterion 8) sums over the chains of K^8 and takes
about 8.5 s on one core.
"""

from fractions import Fraction

import pytest

from fatcomplex import checks
from fatcomplex.coefficients import (
    MmmPolynomial,
    b_single,
    closed_form_a_diagonal,
    closed_form_b_diagonal,
    w_polynomial,
)
from fatcomplex.graph_complex import ClassCorpus

CORPUS_BOUND = 10


def report(criterion, ok):
    print("[acceptance %s] %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok, "acceptance criterion %s failed" % criterion


def test_criterion_1_diagonal_b_by_brute_force():
    expected = {1: Fraction(1, 12), 2: Fraction(-1, 120), 3: Fraction(1, 1680)}
    ok = True
    for n, want in expected.items():
        got = b_single((n,))
        ok = ok and got == want == closed_form_b_diagonal(n)
    report("1: diagonal b over K^2, K^4, K^6", ok)


def test_criterion_2_off_diagonal_vs_closed_form():
    ok = True
    for n, want in ((1, Fraction(29, 720)), (2, Fraction(-19, 3360))):
        got = b_single((n, 1))
        closed = (Fraction(2 * n + 5, 12) - Fraction(1, 2 * (2 * n + 3))) \
            / closed_form_a_diagonal(n)
        ok = ok and got == want == closed
    report("2: b for (n,1) vs closed form, n = 1, 2", ok)


def test_criterion_3_w_polynomial_table():
    table = {
        (1, 0): MmmPolynomial({(1, 0): -24, (1,): -36}),
        (1, 1): MmmPolynomial({(1, 1): 72, (2,): 348}),
        (2, 1): MmmPolynomial({(2, 1): -1440, (3,): -13680}),
    }
    ok = all(w_polynomial(mu) == want for mu, want in table.items())
    for n in (1, 2, 3):
        ok = ok and w_polynomial((n,)) == MmmPolynomial.monomial(
            (n,), closed_form_a_diagonal(n))
    # n = 4 via the closed-form diagonal
    ok = ok and closed_form_a_diagonal(4) == -30240
    ok = ok and Fraction(1) / closed_form_b_diagonal(4) == -30240
    report("3: polynomial table (degenerate, (1,1), (2,1), Witten <= 4)", ok)


def registry_rows_pass(rows, count):
    """The rows of one registry suite, with the expected count, all pass."""
    return len(rows) == count and all(passed for _, _, passed in rows)


@pytest.fixture(scope="module")
def corpus():
    """The class corpus that criteria 4, 5 and 7 share, as in one
    `fatcomplex verify` run."""
    return ClassCorpus(CORPUS_BOUND)


def test_criterion_4_cocycle_property(corpus):
    rows = checks.check_cocycle(corpus=corpus)
    report("4: pattern cocycles kill boundaries, <= 10 half-edges",
           registry_rows_pass(rows, 4))


def test_criterion_5_partition_function_suite(corpus):
    rows = checks.check_ainf(corpus=corpus, seed=2026)
    report("5: Z_x cocycle and expansion identity, 3 random x",
           registry_rows_pass(rows, 6))


def test_criterion_6_orientation_suite():
    report("6: region-sign rule (valence 5, 7, 9; K^2, K^4) and antisymmetry",
           registry_rows_pass(checks.check_orientation(), 5))


def test_criterion_7_structural_suite(corpus):
    rows = checks.check_complex(corpus=corpus)
    report("7: d.d = 0, dual-cell boundary, forest ranks, Catalan counts",
           registry_rows_pass(rows, 6))


def test_criterion_8_stretch_weight_four():
    from fatcomplex.coefficients import a_matrix, b_matrix, first_two_terms
    from test_coefficients import matrix_multiply

    w22 = w_polynomial((2, 2))
    want22 = MmmPolynomial({(2, 2): 7200, (4,): 159120})
    ok = w22 == want22 == first_two_terms((2, 2))
    w31 = w_polynomial((3, 1))
    want31 = MmmPolynomial({(3, 1): 20160, (4,): 312480})
    ok = ok and w31 == want31
    ok = ok and w_polynomial((4,)) == MmmPolynomial.monomial((4,), -30240)
    a4, b4 = a_matrix(4), b_matrix(4)
    prod = matrix_multiply([list(r) for r in a4.rows], [list(r) for r in b4.rows])
    size = len(a4.order)
    ok = ok and prod == [[Fraction(int(i == j)) for j in range(size)]
                         for i in range(size)]
    # the full verified table, frozen from a complete scan of the
    # 1.96e8 chains of K^8 (the diagonals also match the product rule)
    ok = ok and b4.to_json() == [
        ["-1/30240", "31/60480", "221/302400", "-1301/201600", "23479/403200"],
        ["0", "1/20160", "0", "-19/20160", "263/20160"],
        ["0", "0", "1/7200", "-29/43200", "841/86400"],
        ["0", "0", "0", "-1/8640", "29/8640"],
        ["0", "0", "0", "0", "1/864"]]
    ok = ok and a4.to_json() == [
        ["-30240", "312480", "159120", "-1781280", "1826856"],
        ["0", "20160", "0", "-164160", "248832"],
        ["0", "0", "7200", "-41760", "60552"],
        ["0", "0", "0", "-8640", "25056"],
        ["0", "0", "0", "0", "864"]]
    report("8: CONJECTURE/EXTENDED weight-4 table over K^8", ok)
