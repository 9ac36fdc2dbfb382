"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Two clauses of the published material are contradicted by direct computation
(see notes in the suite docstrings and the strict-xfail reasons below); they
are encoded faithfully as strict expected failures, with the verified
corrected statements asserted alongside.  Everything else runs at its stated
tolerance and budget.
"""
import math
import re
import time
from fractions import Fraction

import pytest

from arbozeta.forest_algebra import (
    ConvergenceClass,
    associator,
    binarise_comb,
    binarise_forest,
    concat_comb,
    convergence_class,
    shuffle_forests,
    shuffle_forests_basis,
)
from arbozeta.lincomb import LinComb
from arbozeta.suites import run_suite
from arbozeta.trees import Alphabet, Forest, Tree, b_plus, leaf, tree_forest
from arbozeta.zeta import MzvCombination, eval_combination, eval_mzv, reduce_azv

PRECISION = 1e-8


# The exact entries of check --suite all --weight-bound 6, in report order.
# Their case counts are pure combinatorics: a family that checks fewer cases
# shows up here, on every platform.  The single laws of morphisms,
# associator-kernel and worked-identity hold exactly after reduction or on
# words, so they are exact entries too; their texts name the seeded draws.
EXACT_FAMILIES_AT_6 = [
    ("word-shuffle", "commutativity lambda=-1 [164 instances]"),
    ("word-shuffle", "associativity lambda=-1 [1023 instances]"),
    ("word-shuffle", "commutativity lambda=0 [164 instances]"),
    ("word-shuffle", "associativity lambda=0 [1023 instances]"),
    ("word-shuffle", "commutativity lambda=1 [164 instances]"),
    ("word-shuffle", "associativity lambda=1 [1023 instances]"),
    ("word-shuffle", "shuffle term count = binomial, lengths add [196 instances]"),
    ("word-shuffle", "weight conservation lambda=-1 [321 instances]"),
    ("word-shuffle", "weight conservation lambda=1 [321 instances]"),
    ("word-shuffle", "convergent words closed under shuffles [112 instances]"),
    ("tree-shuffle", "commutativity lambda=-1 [1262 instances]"),
    ("tree-shuffle", "commutativity lambda=0 [1262 instances]"),
    ("tree-shuffle", "commutativity lambda=1 [1262 instances]"),
    ("tree-shuffle", "empty forest is the unit [120 instances]"),
    ("tree-shuffle", "four-point associator = 1/4 products - 1/4 deep trees [1 instances]"),
    ("tree-shuffle", "unnormalized four-point associator = published product pairs [1 instances]"),
    ("tree-shuffle", "stuffle associator of (2 2, 2, 2) is nonzero [1 instances]"),
    ("tree-shuffle", "weight grading lambda=-1 [1262 instances]"),
    ("tree-shuffle", "weight grading lambda=1 [1262 instances]"),
    ("tree-shuffle", "size grading lambda=0 [1262 instances]"),
    ("flatten", "concatenation-to-shuffle morphism lambda=-1 [470 instances]"),
    ("flatten", "concatenation-to-shuffle morphism lambda=0 [470 instances]"),
    ("flatten", "concatenation-to-shuffle morphism lambda=1 [470 instances]"),
    ("flatten", "integer coefficients for integer lambda=-1 [143 instances]"),
    ("flatten", "integer coefficients for integer lambda=0 [143 instances]"),
    ("flatten", "integer coefficients for integer lambda=1 [143 instances]"),
    ("flatten", "ladders flatten to their words [63 instances]"),
    ("flatten", "convergent forests flatten to convergent words [978 instances]"),
    ("linear-extensions", "flatten(0) coefficient sum = number of linear extensions [200 instances]"),
    ("binarisation", "word binarisation: grading, roundtrip, convergence [128 instances]"),
    ("binarisation", "binarisation is a concatenation morphism [576 instances]"),
    ("binarisation", "onto convergent binary words (inverse roundtrip) [63 instances]"),
    ("binarisation", "branched binarisation: grading, roundtrip, convergence [1042 instances]"),
    ("binarisation", "image of branched binarisation = semiconvergent forests [2659 instances]"),
    ("binarisation", "flatten(0) of binarised ladders = binarised words [126 instances]"),
    ("rota-baxter", "strict-sum satisfies the weight 1 identity [10 instances]"),
    ("rota-baxter", "nonstrict-sum satisfies the weight -1 identity [10 instances]"),
    ("rota-baxter", "integration satisfies the weight 0 identity [10 instances]"),
    ("rota-baxter", "negative control violates the identity [4 instances]"),
    ("rota-baxter", "factorization through words on strict-sum [3739 instances]"),
    ("rota-baxter", "factorization through words on nonstrict-sum [3739 instances]"),
    ("rota-baxter", "factorization through words on integration [3739 instances]"),
    ("rota-baxter", "negative control breaks factorization on a small forest [1 instances]"),
    ("rota-baxter", "tree-shuffle morphism on strict-sum [816 instances]"),
    ("rota-baxter", "tree-shuffle morphism on nonstrict-sum [816 instances]"),
    ("rota-baxter", "tree-shuffle morphism on integration [816 instances]"),
    ("star-reduction", "merge expansion of (2,1,1) [1 instances]"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #0 (lambda=-1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #1 (lambda=-1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #2 (lambda=-1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #3 (lambda=-1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #4 (lambda=1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #5 (lambda=-1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #6 (lambda=1)"),
    ("morphisms", "flatten/tree-shuffle compatibility after reduction #7 (lambda=1)"),
    ("associator-kernel", "stuffle associator #0: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #1: 2[1] ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #2: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #3: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #4: 3[1] ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #5: 2 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #6: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #7: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #8: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #9: 2 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #10: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #11: 2[1,1] ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #12: 2[1[1]] ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #13: 4 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #14: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #15: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #16: 2[1] ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #17: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #18: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #19: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #20: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #21: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #22: 2 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #23: 3 ; 2 ; 2"),
    ("associator-kernel", "stuffle associator #24: 2[1,1] ; 2 ; 2"),
    ("associator-kernel", "star associator #0: 3[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #1: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #2: 2 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #3: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #4: 3[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #5: 4 ; 2 ; 2"),
    ("associator-kernel", "star associator #6: 4 ; 2 ; 2"),
    ("associator-kernel", "star associator #7: 2[1,1] ; 2 ; 2"),
    ("associator-kernel", "star associator #8: 4 ; 2 ; 2"),
    ("associator-kernel", "star associator #9: 4 ; 2 ; 2"),
    ("associator-kernel", "star associator #10: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #11: 2[2] ; 2 ; 2"),
    ("associator-kernel", "star associator #12: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #13: 4 ; 2 ; 2"),
    ("associator-kernel", "star associator #14: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #15: 2[2] ; 2 ; 2"),
    ("associator-kernel", "star associator #16: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #17: 2[1] ; 2 ; 2"),
    ("associator-kernel", "star associator #18: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #19: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #20: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #21: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #22: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #23: 2 ; 2 ; 2"),
    ("associator-kernel", "star associator #24: 2 ; 2 ; 2"),
    ("associator-kernel", "shuffle associator #0: x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #1: x[y[x[y]]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #2: x[y] x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #3: x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #4: x[x[y[y]]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #5: x[x[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #6: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #7: x[y] x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #8: x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #9: x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #10: x[x[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #11: x[x[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #12: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #13: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #14: x[x[y[y]]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #15: x[y] x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #16: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #17: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #18: x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #19: x[y[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #20: x[y] x[y] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #21: x[x[y[y]]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #22: x[x[y]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #23: x[x[x[y]]] ; x[y] ; x[y]"),
    ("associator-kernel", "shuffle associator #24: x[y] ; x[y] ; x[y]"),
    ("hoffman-words", "divergent binary words cancel in the regularisation combination [31 instances]"),
    ("hoffman-trees", "tree-level regularisation difference is convergent [325 instances]"),
    ("hoffman-trees", "word-level discrepancy keeps divergent words exactly off single ladders [325 instances]"),
    ("hoffman-trees", "divergent basis forests cancel exactly in the 2[1,1] defect [1 instances]"),
    ("hoffman-trees", "2[1,1] defect reduces to 2z(3,1,1)+z(2,1,2)+2z(2,2,1)-2z(2,1,1,1) [1 instances]"),
    ("worked-identity", "both association orders of (2 2, 2, 2) evaluate equally"),
    ("worked-identity", "associator of (2 2, 2, 2) lies in the stuffle kernel"),
]

# The aggregated numeric families of the same run, in report order.  Their
# texts also carry floats, so the patterns pin everything else: the case
# counts, like those above, are pure combinatorics.
NUMERIC_FAMILIES_AT_6 = [
    ("reduction-vs-series", r"stuffle: nested summation at N=2000 within its tail bound \[326 forests\]"),
    ("reduction-vs-series", r"star: nested summation at N=2000 within its tail bound \[326 forests\]"),
    ("theorem5", r"shuffle side never exceeds stuffle side \[1192 trees\]"),
    ("theorem5", r"equality on ladder trees \(worst \|gap\| = \S+\)"),
    ("theorem5", r"strict gap beyond the certified bounds for branching trees \(smallest gap = \S+\)"),
    ("hoffman-words", r"regularisation combination lies in the shuffle kernel \[worst residual \S+ over 31\]"),
    ("polylog", r"arborified polylog matches the power-series oracle \[36 forests, worst \S+\]"),
]


def _report(number: int, label: str, entries, budget: float, elapsed: float):
    bad = [e for e in entries if not e["pass"]]
    status = "PASS" if not bad and elapsed < budget else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} "
          f"[{len(entries)} checks, {elapsed:.1f}s/{budget:.0f}s]")
    assert not bad, f"{len(bad)} checks failed; first: {bad[0]['instance']}"
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"


def test_criterion_1_worked_stuffle_identity():
    start = time.monotonic()
    two = tree_forest(leaf(2))
    pair = Forest((leaf(2), leaf(2)))
    left = shuffle_forests(shuffle_forests_basis(pair, two, 1), LinComb.of(two), 1)
    right = shuffle_forests(LinComb.of(pair), shuffle_forests_basis(two, two, 1), 1)
    ev_left = eval_combination(reduce_azv(left, "stuffle"), PRECISION)
    ev_right = eval_combination(reduce_azv(right, "stuffle"), PRECISION)
    assert abs(ev_left.value - ev_right.value) < 4 * PRECISION

    bracket = eval_combination(
        MzvCombination({(2, 2, 2): 6, (2, 4): 3, (4, 2): 3, (6,): 1}), PRECISION
    )
    z2 = eval_mzv((2,), "strict", PRECISION)
    base = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), PRECISION)
    residual = abs(bracket.value * z2.value - base.value**2)
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion 1 (worked stuffle identity): "
          f"{'PASS' if residual < 1e-8 and elapsed < 5 else 'FAIL'} "
          f"[residual {residual:.2e}, {elapsed:.1f}s/5s]")
    assert residual < 1e-8
    assert elapsed < 5


def _hoffman_defect():
    one = tree_forest(leaf(1))
    corolla = tree_forest(Tree(2, (leaf(1), leaf(1))))
    y_forest = tree_forest(leaf("y"))
    return binarise_comb(shuffle_forests_basis(one, corolla, 1)) - shuffle_forests(
        LinComb.of(y_forest), LinComb.of(binarise_forest(corolla)), 0
    )


def test_criterion_2_divergent_cancellation_and_runtime():
    start = time.monotonic()
    difference = _hoffman_defect()
    assert all(
        convergence_class(f, Alphabet.XY) is ConvergenceClass.CONV_XY for f in difference
    ), "divergent basis forests must cancel exactly before evaluation"
    value = eval_combination(reduce_azv(difference, "shuffle"), 1e-8).value
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion 2 (defect cancellation): PASS "
          f"[value {value:.10f}, {elapsed:.1f}s/5s]")
    assert elapsed < 5


@pytest.mark.xfail(
    strict=True,
    reason=(
        "published value does not match the definitions: the spec digits "
        "0.9404004583 disagree with the stated oracle zeta(2)zeta(3)-zeta(5) "
        "= 0.9403765952, and the defect itself evaluates to -zeta(2,3) = "
        "-0.7115661976 (confirmed symbolically against exact Rota-Baxter "
        "models and numerically by an independent power-series integrator); "
        "see the ledger for the full analysis"
    ),
)
def test_criterion_2_value_as_published():
    value = eval_combination(reduce_azv(_hoffman_defect(), "shuffle"), 1e-8).value
    print(f"[acceptance] criterion 2 (published value clause): FAIL "
          f"[got {value:.10f}, published 0.9404004583]")
    assert abs(value - 0.9404004583) < 1e-7


def test_criterion_2_value_verified():
    reduction = reduce_azv(_hoffman_defect(), "shuffle")
    assert reduction.terms == {(3, 1, 1): 2, (2, 1, 2): 1, (2, 2, 1): 2, (2, 1, 1, 1): -2}
    value = eval_combination(reduction, 1e-8).value
    want = -eval_mzv((2, 3), "strict", 1e-9).value
    print(f"[acceptance] criterion 2 (verified value -zeta(2,3)): "
          f"{'PASS' if abs(value - want) < 1e-7 else 'FAIL'} [{value:.10f}]")
    assert abs(value - want) < 1e-7


def test_criterion_3_theorem5_inequality():
    start = time.monotonic()
    entries = run_suite("theorem5", 6, PRECISION)
    _report(3, "shuffle <= stuffle with strict branching gap", entries,
            60, time.monotonic() - start)


def test_criterion_4_rota_baxter_factorization():
    start = time.monotonic()
    entries = run_suite("rota-baxter", 6, PRECISION)
    factorization = [e for e in entries if "factorization" in e["instance"] or "control" in e["instance"] or "identity" in e["instance"]]
    assert len(factorization) >= 5
    _report(4, "exact factorization through words + negative control", entries,
            30, time.monotonic() - start)


def test_criterion_5_tree_shuffle_morphism():
    start = time.monotonic()
    exact = [
        e for e in run_suite("rota-baxter", 6, PRECISION)
        if "tree-shuffle morphism" in e["instance"]
    ]
    assert len(exact) == 3
    numeric = [
        e for e in run_suite("morphisms", 6, PRECISION)
        if "tree-shuffle morphism" in e["instance"]
    ]
    assert len(numeric) == 50
    assert all(e["tolerance"] <= 1e-6 for e in numeric)
    _report(5, "tree-shuffle morphism, exact models + 50 random numeric pairs",
            exact + numeric, 120, time.monotonic() - start)


def test_criterion_6_associator_kernel():
    start = time.monotonic()
    entries = run_suite("associator-kernel", 6, PRECISION)
    assert len(entries) == 75  # 25 per flavor
    assert all(e["tolerance"] <= 1e-6 for e in entries)
    _report(6, "associator images vanish under the zeta maps", entries,
            120, time.monotonic() - start)


def test_criterion_7_reduction_vs_series():
    start = time.monotonic()
    entries = run_suite("reduction-vs-series", 6, PRECISION)
    _report(7, "nested summation agrees with the reduction", entries,
            120, time.monotonic() - start)


def test_criterion_8_evaluator_accuracy():
    start = time.monotonic()
    checks = [
        ("zeta(2)", eval_mzv((2,), "strict", PRECISION).value, math.pi**2 / 6, 1e-8),
        ("zeta(4)", eval_mzv((4,), "strict", PRECISION).value, math.pi**4 / 90, 1e-8),
        (
            "zeta(2,1) vs Apery's constant",
            eval_mzv((2, 1), "strict", PRECISION).value,
            1.2020569031595942853997,
            1e-8,
        ),
        ("zeta(2,2)", eval_mzv((2, 2), "strict", PRECISION).value, math.pi**4 / 120, 1e-8),
    ]
    elapsed = time.monotonic() - start
    ok = all(abs(got - want) < tol for _, got, want, tol in checks)
    print(f"[acceptance] criterion 8 (evaluator accuracy): "
          f"{'PASS' if ok and elapsed < 10 else 'FAIL'} [{elapsed:.1f}s/10s]")
    for label, got, want, tol in checks:
        assert abs(got - want) < tol, f"{label}: |{got} - {want}| >= {tol}"
    assert elapsed < 10


def test_criterion_9_combinatorial_suites():
    start = time.monotonic()
    entries = []
    for name in ("word-shuffle", "tree-shuffle", "linear-extensions", "binarisation", "hoffman-words"):
        entries.extend(run_suite(name, 6, PRECISION))
    _report(9, "exhaustive combinatorial invariants", entries,
            120, time.monotonic() - start)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published four-point counterexample formula (1/2-weighted product "
        "pairs, no deeper trees) is inconsistent with the definition of the "
        "tree shuffle: with the 1/(k*n) normalization the associator equals "
        "1/4 products - 1/4 chain-times-leaf terms, and without it the "
        "products carry coefficient 1; both corrected identities are asserted "
        "in the tree-shuffle suite; see the ledger"
    ),
)
def test_criterion_9_counterexample_as_published():
    a, b, c, d = "a", "b", "c", "d"
    lhs = associator(Forest((leaf(a), leaf(b))), tree_forest(leaf(c)), tree_forest(leaf(d)), 0)

    def pair(p, q):
        return LinComb.of(tree_forest(b_plus(p, tree_forest(leaf(q))))) + LinComb.of(
            tree_forest(b_plus(q, tree_forest(leaf(p))))
        )

    published = concat_comb(pair(a, d), pair(b, c)).scale(Fraction(1, 2)) + concat_comb(
        pair(b, d), pair(a, c)
    ).scale(Fraction(1, 2))
    print("[acceptance] criterion 9 (published counterexample formula): FAIL "
          "[formula inconsistent with the product definition]")
    assert lhs == published


def test_criterion_10_polylog_checks():
    start = time.monotonic()
    entries = run_suite("polylog", 6, PRECISION)
    _report(10, "arborified polylogarithms at z=1/2", entries,
            120, time.monotonic() - start)


def test_check_all_entry_point():
    """The CLI acceptance entry point: check --suite all --weight-bound 6."""
    start = time.monotonic()
    entries = run_suite("all", 6, PRECISION)
    bad = [e for e in entries if not e["pass"]]
    elapsed = time.monotonic() - start
    print(f"[acceptance] check --suite all --weight-bound 6: "
          f"{'PASS' if not bad else 'FAIL'} [{len(entries)} entries, {elapsed:.1f}s]")
    assert not bad, f"{len(bad)} entries failed; first: {bad[0]['instance']}"
    assert len(entries) == 264
    exact = [(e["suite"], e["instance"]) for e in entries if e["lhs"] == "exact"]
    assert exact == EXACT_FAMILIES_AT_6
    numeric = [(e["suite"], e["instance"]) for e in entries if e["lhs"] != "exact"]
    positions = [
        next((i for i, (s, text) in enumerate(numeric) if s == suite and re.fullmatch(pattern, text)), None)
        for suite, pattern in NUMERIC_FAMILIES_AT_6
    ]
    assert None not in positions and positions == sorted(positions), positions
