"""Named identity suites: every structural law the library claims, checked at
desk scale with pass/fail reporting.

Each suite yields report entries ``{instance, lhs, rhs, residual, tolerance,
pass}``, and :func:`run_suite` puts the suite's name first as ``suite``.
Each entry passes by what its values carry:

- exactly, when its law holds exactly on words or after reduction.  An exact
  family (``_family``) checks one law on every case: lhs and rhs read
  ``exact``, the residual counts the failing cases and the instance text the
  cases.  A single exact law (``_exact``) counts what fails of it.
- within the sum of the certified bounds of its two sides (``_certified``),
  when both sides are evaluated values; a product of two such values is
  bounded by |a| db + |b| da + da db + 2^-53 |ab| (``_product``), and a
  decimal constant read as a float by its rounding, 2^-53 |c| (``_decimal``).
  Every closed form (pi^2/6, ln 2, c zeta(n)) is such a constant, written
  to at least 20 digits.  A numeric family (``_tally``) counts its cases
  outside their own bounds: each gap to the two brute-force oracles,
  ``brute_force_azv`` and ``brute_polylog_forest``, within the sum of its
  two sides' bounds, each ``hoffman-words`` combination within its bound of
  0, and the threshold claims of ``theorem5`` and ``hoffman-trees`` as a gap
  or defect beyond the sum of the bounds.

A family that fails names its first failing case in its instance text.
"""
from __future__ import annotations

import math
import os
import random
from array import array
from collections.abc import Iterator
from fractions import Fraction
from functools import partial
from itertools import accumulate, permutations, product as cartesian
from operator import mul

from . import syntax
from .catalog import (
    compositions_of,
    convergent_compositions_up_to,
    forests_up_to,
    forests_up_to_weight,
    linear_extension_count,
    random_composition,
    random_convergent_forest,
    trees_with_vertices,
    words_with_length,
)
from .errors import DomainError, NotInImage, PrecisionUnreachable
from .forest_algebra import (
    ConvergenceClass,
    associator,
    binarise_comb,
    binarise_forest,
    concat_comb,
    convergence_class,
    debinarise_forest,
    flatten,
    flatten_forest,
    shuffle_forests,
    shuffle_forests_basis,
)
from .lincomb import LinComb
from .operated import (
    broken_sum_model,
    check_rota_baxter,
    integration_model,
    nonstrict_sum_model,
    strict_sum_model,
    verify_factorization,
    verify_tree_shuffle_morphism,
)
from .trees import Alphabet, Forest, Tree, b_plus, concat_forests, ladder, leaf, tree_forest
from .words import (
    Word,
    binarise,
    concat_words,
    debinarise,
    is_convergent_word,
    is_semiconvergent_word,
    shuffle_words,
    shuffle_words_basis,
)
from .zeta import (
    DEFAULT_PRECISION,
    FLAVORS,
    MzvCombination,
    MzvEval,
    azv,
    eval_arborified_polylog,
    eval_combination,
    eval_mzv,
    eval_polylog,
    reduce_azv,
    star_to_strict,
    words_to_combination,
)

RNG_SEED = 0x5EED
# The largest weight bound that run_suite accepts; bound 9 takes a minute and 750 MB.
MAX_WEIGHT_BOUND = 8

LAMBDAS = (-1, 0, 1)


def _entry(instance, lhs, rhs, residual, tolerance):
    return {
        "instance": instance,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def _describe(case) -> str:
    """Forests, trees and words in the input syntax, tuples holding them joined by ``|``."""
    if isinstance(case, Tree):
        return syntax.format_tree(case)
    if isinstance(case, (Forest, Word)):
        return syntax.format_basis(case)
    if isinstance(case, tuple) and any(isinstance(part, (Forest, Word)) for part in case):
        return " | ".join(map(_describe, case))
    return str(case)


def _with_lambda(case) -> str:
    """A ``(case, lambda)`` pair as the case followed by ``lam=...``."""
    case, lam = case
    return f"{_describe(case)} lam={lam}"


def _first_failure(failing, describe=_describe) -> str:
    """The ``; first failure: ...`` suffix of an instance text; empty when nothing failed."""
    return f"; first failure: {describe(failing[0])}" if failing else ""


def _family(law, cases, holds, describe=_describe):
    """One report entry for an exhaustive exact law: ``holds(case)`` over every case.

    The instance text carries the number of cases and, on failure, the first
    failing case through ``describe``; the residual is the number of failures.
    """
    cases = list(cases)
    failing = [case for case in cases if not holds(case)]
    return _exact(f"{law} [{len(cases)} instances]" + _first_failure(failing, describe), len(failing))


def _tally(law, cases, fails, lhs=0.0, describe=_describe):
    """One report entry for a numeric family whose residual is its number of failing cases.

    ``fails(case)`` decides each case; the instance text names the first
    failing case through ``describe``.
    """
    failing = [case for case in cases if fails(case)]
    return _entry(law + _first_failure(failing, describe), lhs, 0.0, float(len(failing)), 0.0)


def _pairs(items, size, limit):
    """Ordered pairs of ``items`` whose sizes sum to at most ``limit``.

    ``items`` must be sorted by ``size``, so each inner scan stops at the first
    partner that is too big; the order is that of the full double loop.
    """
    for a in items:
        room = limit - size(a)
        if room < 0:
            return
        for b in items:
            if size(b) > room:
                break
            yield a, b


def _vertex_count(forest: Forest) -> int:
    return forest.vertex_count


def _convergent_forests(max_vertices: int) -> list[Forest]:
    """Convergent positive-integer forests over {1, 2, 3}, the empty forest first."""
    return [f for f in forests_up_to(max_vertices, (1, 2, 3)) if convergence_class(f) is ConvergenceClass.CONV_POSINT]


def _commutes(pair, lam, product) -> bool:
    a, b = pair
    return product(a, b, lam) == product(b, a, lam)


def _graded(pair, lam, product, grade) -> bool:
    """Every term of the product of the pair has the sum of the pair's grades."""
    want = grade(pair[0]) + grade(pair[1])
    return all(grade(t) == want for t in product(*pair, lam))


def _exact(instance, failures: int):
    """One exact report entry: lhs and rhs read ``exact``, and the residual
    counts what fails (cases, or terms left over) against 0."""
    return _entry(instance, "exact", "exact", float(failures), 0.0)


def _certified(instance, lhs: MzvEval, rhs: MzvEval):
    """One numeric entry held to the sum of its two sides' certified bounds."""
    return _entry(instance, lhs.value, rhs.value, abs(lhs.value - rhs.value), lhs.abs_error + rhs.abs_error)


def _product(a: MzvEval, b: MzvEval) -> MzvEval:
    """The float product of two certified values, bounded by
    |a| db + |b| da + da db plus the rounding of the product, 2^-53 |ab|."""
    value = a.value * b.value
    bound = abs(a.value) * b.abs_error + abs(b.value) * a.abs_error + a.abs_error * b.abs_error
    return MzvEval(value, bound + 2.0**-53 * abs(value))


def _decimal(c: float) -> MzvEval:
    """A decimal constant read as a float, bounded by its rounding, 2^-53 |c|."""
    return MzvEval(c, 2.0**-53 * abs(c))


def eval_words(comb: LinComb[Word], flavor: str, precision: float):
    return eval_combination(words_to_combination(comb, flavor), precision)


# -- combinatorial suites ----------------------------------------------------------


def suite_word_shuffle(bound: int, precision: float) -> Iterator[dict]:
    max_len = max(2, bound - 1)
    words_12 = [w for n in range(max_len + 1) for w in words_with_length(n, (1, 2))]
    pairs = list(_pairs(words_12, len, max_len))
    ordered = [(u, v) for u, v in pairs if not v.sort_key < u.sort_key]
    triples = [(u, v, w) for u in words_12 for v, w in _pairs(words_12, len, max_len - len(u))]

    def associates(triple, lam):
        u, v, w = triple
        left = shuffle_words(shuffle_words_basis(u, v, lam), LinComb.of(w), lam)
        right = shuffle_words(LinComb.of(u), shuffle_words_basis(v, w, lam), lam)
        return left == right

    for lam in LAMBDAS:
        commutes = partial(_commutes, lam=lam, product=shuffle_words_basis)
        yield _family(f"commutativity lambda={lam}", ordered, commutes)
        yield _family(f"associativity lambda={lam}", triples, partial(associates, lam=lam))

    def binomial_terms(pair):
        u, v = pair
        sh = shuffle_words_basis(u, v, 0)
        length = len(u) + len(v)
        return sh.coefficient_sum() == math.comb(length, len(u)) and all(len(t) == length for t in sh)

    nonempty = [(u, v) for u, v in pairs if u and v]
    yield _family("shuffle term count = binomial, lengths add", nonempty, binomial_terms)

    for lam in (-1, 1):
        graded = partial(_graded, lam=lam, product=shuffle_words_basis, grade=Word.weight)
        yield _family(f"weight conservation lambda={lam}", pairs, graded)

    def closed(pair):
        return all(is_convergent_word(t) for lam in LAMBDAS for t in shuffle_words_basis(*pair, lam))

    convergent = [(u, v) for u, v in pairs if is_convergent_word(u) and is_convergent_word(v)]
    yield _family("convergent words closed under shuffles", convergent, closed)


def _companion(a: Forest, b: Forest) -> LinComb:
    """The tree shuffle at lambda=0 without the 1/(k*n) factor of its rule for
    proper forests: the unnormalized companion product."""
    if not a or not b:
        return LinComb.of(concat_forests(a, b))
    if not (a.is_tree() and b.is_tree()):
        pairs = (
            concat_comb(_companion(tree_forest(ta), tree_forest(tb)), concat_forests(a.without(i), b.without(j)))
            for i, ta in enumerate(a.trees)
            for j, tb in enumerate(b.trees)
        )
        return sum(pairs, LinComb())
    (ta,), (tb,) = a.trees, b.trees
    left = _companion(tree_forest(*ta.children), b).map_basis(lambda f: tree_forest(b_plus(ta.decoration, f)))
    right = _companion(a, tree_forest(*tb.children)).map_basis(lambda f: tree_forest(b_plus(tb.decoration, f)))
    return left + right


def _unnormalized_associator(f1: Forest, f2: Forest, f3: Forest) -> LinComb:
    """Associator of the companion product."""
    left = _companion(f1, f2).bilinear(LinComb.of(f3), _companion)
    right = LinComb.of(f1).bilinear(_companion(f2, f3), _companion)
    return left - right


def suite_tree_shuffle(bound: int, precision: float) -> Iterator[dict]:
    max_vertices = max(3, bound - 1)
    forests = list(forests_up_to(max_vertices - 1, (1, 2)))
    pairs = list(_pairs(forests, _vertex_count, max_vertices))
    for lam in LAMBDAS:
        commutes = partial(_commutes, lam=lam, product=shuffle_forests_basis)
        yield _family(f"commutativity lambda={lam}", pairs, commutes)

    def is_unit(case):
        f, lam = case
        return shuffle_forests_basis(Forest(), f, lam) == LinComb.of(f) == shuffle_forests_basis(f, Forest(), lam)

    units = cartesian(forests[:40], LAMBDAS)
    yield _family("empty forest is the unit", units, is_unit, _with_lambda)

    # Four-point nonassociativity witness (a b sh c) sh d - a b sh (c sh d).
    # The product-of-pairs part matches the published counterexample; the 1/kn
    # normalization of the concatenation rule scales it by 1/4 and leaves an
    # extra -1/4 family of three-level trees (brute-force expansion of the
    # recursion).  For the unnormalized companion product (no 1/kn factor)
    # those deep trees cancel and the products carry coefficient one.
    a, b, c, d = "a", "b", "c", "d"
    ab = Forest((leaf(a), leaf(b)))
    lhs = associator(ab, tree_forest(leaf(c)), tree_forest(leaf(d)), 0)

    def pair(p, q):
        return LinComb.of(tree_forest(b_plus(p, tree_forest(leaf(q))))) + LinComb.of(
            tree_forest(b_plus(q, tree_forest(leaf(p))))
        )

    products = concat_comb(pair(a, d), pair(b, c)) + concat_comb(pair(b, d), pair(a, c))
    deep = LinComb()
    for u, v in ((a, b), (b, a)):
        for p, q, r in permutations((u, c, d)):
            chain = b_plus(p, tree_forest(b_plus(q, tree_forest(leaf(r)))))
            deep = deep + LinComb.of(Forest((chain, leaf(v))))
    expected = products.scale(Fraction(1, 4)) - deep.scale(Fraction(1, 4))
    yield _family(
        "four-point associator = 1/4 products - 1/4 deep trees",
        ["a,b,c,d"],
        lambda _: lhs == expected,
    )

    unnorm = _unnormalized_associator(ab, tree_forest(leaf(c)), tree_forest(leaf(d)))
    yield _family(
        "unnormalized four-point associator = published product pairs",
        ["a,b,c,d"],
        lambda _: unnorm == products,
    )

    two = tree_forest(leaf(2))
    yield _family(
        "stuffle associator of (2 2, 2, 2) is nonzero",
        [(Forest((leaf(2), leaf(2))), two, two)],
        lambda triple: not associator(*triple, 1).is_zero(),
    )

    for lam in (-1, 1):
        graded = partial(_graded, lam=lam, product=shuffle_forests_basis, grade=Forest.weight)
        yield _family(f"weight grading lambda={lam}", pairs, graded)
    graded = partial(_graded, lam=0, product=shuffle_forests_basis, grade=_vertex_count)
    yield _family("size grading lambda=0", pairs, graded)


def suite_flatten(bound: int, precision: float) -> Iterator[dict]:
    max_vertices = max(3, bound - 2)
    forests = list(forests_up_to(max_vertices, (1, 2)))
    pairs = list(_pairs(forests, _vertex_count, max_vertices))

    def morphism(pair, lam):
        a, b = pair
        return flatten_forest(concat_forests(a, b), lam) == shuffle_words(
            flatten_forest(a, lam), flatten_forest(b, lam), lam
        )

    for lam in LAMBDAS:
        yield _family(f"concatenation-to-shuffle morphism lambda={lam}", pairs, partial(morphism, lam=lam))

    for lam in LAMBDAS:
        yield _family(
            f"integer coefficients for integer lambda={lam}",
            forests,
            lambda f: flatten_forest(f, lam).all_integer(),
        )

    yield _family(
        "ladders flatten to their words",
        convergent_compositions_up_to(min(7, bound + 1)),
        lambda comp: flatten_forest(ladder(comp), 1) == LinComb.of(Word(comp)),
    )

    yield _family(
        "convergent forests flatten to convergent words",
        cartesian(_convergent_forests(4), LAMBDAS),
        lambda case: all(is_convergent_word(w) for w in flatten_forest(*case)),
        _with_lambda,
    )


def suite_linear_extensions(bound: int, precision: float) -> Iterator[dict]:
    yield _family(
        "flatten(0) coefficient sum = number of linear extensions",
        forests_up_to(min(7, bound + 1), (1,), include_empty=True),
        lambda f: flatten_forest(f, 0).coefficient_sum() == linear_extension_count(f),
    )


def suite_binarisation(bound: int, precision: float) -> Iterator[dict]:
    max_weight = min(7, bound + 1)
    compositions = [comp for w in range(max_weight + 1) for comp in compositions_of(w)]

    def word_roundtrip(comp):
        bin_word = binarise(comp)
        return (
            len(bin_word) == sum(comp)
            and is_semiconvergent_word(bin_word)
            and debinarise(bin_word).letters == comp
            and (is_convergent_word(bin_word) == is_convergent_word(Word(comp)))
        )

    yield _family("word binarisation: grading, roundtrip, convergence", compositions, word_roundtrip)

    def concat_morphism(pair):
        c1, c2 = pair
        return binarise(concat_words(Word(c1), Word(c2))) == concat_words(binarise(c1), binarise(c2))

    yield _family(
        "binarisation is a concatenation morphism",
        _pairs(compositions, sum, max_weight),
        concat_morphism,
        lambda pair: f"{pair[0]}+{pair[1]}",
    )

    def inverse_roundtrip(bw):
        comp = debinarise(bw)
        return is_convergent_word(comp) and binarise(comp) == bw

    binary_words = (bw for length in range(1, max_weight + 1) for bw in words_with_length(length, ("x", "y")))
    yield _family(
        "onto convergent binary words (inverse roundtrip)",
        filter(is_convergent_word, binary_words),
        inverse_roundtrip,
    )

    def forest_roundtrip(forest):
        image = binarise_forest(forest)
        ok = (
            image.vertex_count == forest.weight()
            and debinarise_forest(image) == forest
            and convergence_class(image, Alphabet.XY).is_semiconvergent
        )
        if convergence_class(forest) is ConvergenceClass.CONV_POSINT:
            ok = ok and convergence_class(image, Alphabet.XY) is ConvergenceClass.CONV_XY
        return ok

    yield _family(
        "branched binarisation: grading, roundtrip, convergence",
        forests_up_to_weight(max_weight),
        forest_roundtrip,
    )

    def image_is_semiconvergent(forest):
        semi = convergence_class(forest, Alphabet.XY).is_semiconvergent
        try:
            preimage = debinarise_forest(forest)
        except NotInImage:
            return not semi
        return semi and binarise_forest(preimage) == forest

    yield _family(
        "image of branched binarisation = semiconvergent forests",
        forests_up_to(min(6, max_weight), ("x", "y")),
        image_is_semiconvergent,
    )

    yield _family(
        "flatten(0) of binarised ladders = binarised words",
        [comp for comp in compositions if sum(comp) >= 2],
        lambda comp: flatten_forest(binarise_forest(ladder(comp)), 0) == LinComb.of(binarise(comp)),
    )


def suite_rota_baxter(bound: int, precision: float) -> Iterator[dict]:
    models = [strict_sum_model(12), nonstrict_sum_model(12), integration_model()]
    broken = broken_sum_model(12)

    for model in models:
        samples = [(model.embed(i), model.embed(j)) for i in (1, 2, 3) for j in (1, 2, 3)]
        samples.append((model.embed(1) * model.embed(2), model.embed(4)))
        yield _family(
            f"{model.name} satisfies the weight {model.weight} identity",
            samples,
            lambda sample: check_rota_baxter(model.op, [sample], model.weight),
        )

    yield _family(
        "negative control violates the identity",
        [(broken.embed(i), broken.embed(j)) for i in (1, 2) for j in (1, 2)],
        lambda sample: not check_rota_baxter(broken.op, [sample], broken.weight),
    )

    max_vertices = min(5, bound - 1)
    forest_pool = [f for f in forests_up_to(max_vertices, (1, 2, 3)) if f]
    for model in models:
        factorizes = partial(verify_factorization, model)
        yield _family(f"factorization through words on {model.name}", forest_pool, factorizes)

    small = [f for f in forests_up_to(2, (1, 2, 3)) if f]
    yield _family(
        "negative control breaks factorization on a small forest",
        [broken],
        lambda control: not all(verify_factorization(control, f) for f in small),
        lambda control: control.name,
    )

    pair_pool = list(_pairs([f for f in forests_up_to(3, (1, 2, 3)) if f], _vertex_count, 4))
    for model in models:
        morphism = partial(verify_tree_shuffle_morphism, model)
        yield _family(f"tree-shuffle morphism on {model.name}", pair_pool, lambda pair: morphism(*pair))


# -- numeric suites ------------------------------------------------------------------


def suite_mzv_oracles(bound: int, precision: float) -> Iterator[dict]:
    z2 = eval_mzv((2,), "strict", precision)
    yield _certified("zeta(2) = pi^2/6", z2, _decimal(1.644934066848226436472))
    z4 = eval_mzv((4,), "strict", precision)
    yield _certified("zeta(4) = pi^4/90", z4, _decimal(1.082323233711138191516))
    z21 = eval_mzv((2, 1), "strict", precision)
    yield _certified("zeta(2,1) = zeta(3), Apery's constant", z21, _decimal(1.2020569031595942853997))
    z22 = eval_mzv((2, 2), "strict", precision)
    yield _certified("zeta(2,2) = pi^4/120", z22, _decimal(0.8117424252833536436370))
    ev = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), precision)
    yield _certified("2 zeta(2,2) + zeta(4) = pi^4/36", ev, _decimal(2.705808084277845478790))
    star21 = eval_mzv((2, 1), "star", precision)
    yield _certified("zeta*(2,1) = 2 zeta(3)", star21, _decimal(2.4041138063191885707994))


def suite_reduction_vs_series(bound: int, precision: float) -> Iterator[dict]:
    horizon = 2000
    forests = _convergent_forests(min(4, bound - 2))

    def outside_bound(forest, flavor):
        brute = brute_force_azv(forest, horizon, flavor)
        reduced = azv(forest, flavor, precision)
        return abs(brute.value - reduced.value) > brute.abs_error + reduced.abs_error

    for flavor in ("stuffle", "star"):
        yield _tally(
            f"{flavor}: nested summation at N={horizon} within its tail bound [{len(forests)} forests]",
            forests,
            partial(outside_bound, flavor=flavor),
        )


def suite_morphisms(bound: int, precision: float) -> Iterator[dict]:
    rng = random.Random(RNG_SEED)
    max_weight = max(4, bound + 2)

    for flavor, (lam, mzv_flavor) in FLAVORS.items():
        for i in range(12):
            u = Word(random_composition(rng, rng.randint(2, max_weight - 2)))
            v = Word(random_composition(rng, rng.randint(2, max_weight - u.weight())))
            if flavor == "shuffle":
                u, v = binarise(u), binarise(v)
            lhs = eval_words(shuffle_words_basis(u, v, lam), mzv_flavor, precision)
            ev_u = eval_words(LinComb.of(u), mzv_flavor, precision)
            ev_v = eval_words(LinComb.of(v), mzv_flavor, precision)
            yield _certified(
                f"{flavor} word morphism #{i}: {syntax.format_word(u)} * {syntax.format_word(v)}",
                lhs,
                _product(ev_u, ev_v),
            )

    for i in range(10):
        f1 = random_convergent_forest(rng, rng.randint(2, max_weight - 2))
        f2 = random_convergent_forest(rng, rng.randint(2, max_weight - f1.weight()))
        both = azv(concat_forests(f1, f2), "stuffle", precision)
        prod = _product(azv(f1, "stuffle", precision), azv(f2, "stuffle", precision))
        yield _certified(
            f"concatenation morphism #{i}: {syntax.format_forest(f1)} | {syntax.format_forest(f2)}",
            both,
            prod,
        )

    for count in range(50):
        w1 = rng.randint(2, max_weight - 2)
        w2 = rng.randint(2, max(2, max_weight - w1))
        f1 = random_convergent_forest(rng, w1)
        f2 = random_convergent_forest(rng, w2)
        flavor = rng.choice(list(FLAVORS))
        lam, _ = FLAVORS[flavor]
        a, b = (binarise_forest(f1), binarise_forest(f2)) if flavor == "shuffle" else (f1, f2)
        lhs = azv(shuffle_forests_basis(a, b, lam), flavor, precision)
        rhs = _product(azv(a, flavor, precision), azv(b, flavor, precision))
        yield _certified(
            f"tree-shuffle morphism ({flavor}) #{count}: {syntax.format_forest(a)} | {syntax.format_forest(b)}",
            lhs,
            rhs,
        )

    for i in range(8):
        f1 = random_convergent_forest(rng, rng.randint(2, 4))
        f2 = random_convergent_forest(rng, rng.randint(2, 4))
        lam, _ = FLAVORS[rng.choice(("stuffle", "star"))]
        lhs = flatten(shuffle_forests_basis(f1, f2, lam), lam)
        rhs = shuffle_words(flatten_forest(f1, lam), flatten_forest(f2, lam), lam)
        yield _exact(f"flatten/tree-shuffle compatibility after reduction #{i} (lambda={lam})", lhs != rhs)


def suite_associator_kernel(bound: int, precision: float) -> Iterator[dict]:
    rng = random.Random(RNG_SEED + 1)
    max_weight = max(6, bound + 2)
    for flavor, (lam, _) in FLAVORS.items():
        for i in range(25):
            budget = max_weight
            weights = []
            for _ in range(3):
                w = rng.randint(2, max(2, budget - 4)) if budget > 6 else 2
                weights.append(w)
                budget -= w
            forests = [random_convergent_forest(rng, w) for w in weights]
            if flavor == "shuffle":
                forests = [binarise_forest(f) for f in forests]
            yield _exact(
                f"{flavor} associator #{i}: " + " ; ".join(syntax.format_forest(f) for f in forests),
                len(reduce_azv(associator(*forests, lam), flavor).terms),
            )


def suite_theorem5(bound: int, precision: float) -> Iterator[dict]:
    """The stuffle value of a tree minus the shuffle value of its binarisation:
    never below minus the sum of their bounds, within it on ladders and beyond
    it on branching trees."""
    trees = [
        tree
        for v in range(1, min(5, bound - 1) + 1)
        for tree in trees_with_vertices(v, (1, 2, 3))
        if tree.decoration >= 2
    ]
    gaps = {}
    for tree in trees:
        stuffle = azv(tree_forest(tree), "stuffle", precision)
        shuffle = azv(binarise_forest(tree_forest(tree)), "shuffle", precision)
        gaps[tree] = MzvEval(stuffle.value - shuffle.value, stuffle.abs_error + shuffle.abs_error)
    ladders = [tree for tree in trees if tree.is_ladder()]
    branching = [tree for tree in trees if not tree.is_ladder()]
    worst_ladder = max((abs(gaps[tree].value) for tree in ladders), default=0.0)
    min_branch_gap = min((gaps[tree].value for tree in branching), default=float("inf"))
    yield _tally(
        f"shuffle side never exceeds stuffle side [{len(trees)} trees]",
        trees,
        lambda tree: gaps[tree].value < -gaps[tree].abs_error,
    )
    yield _tally(
        f"equality on ladder trees (worst |gap| = {worst_ladder:.3g})",
        ladders,
        lambda tree: abs(gaps[tree].value) > gaps[tree].abs_error,
        worst_ladder,
    )
    yield _tally(
        f"strict gap beyond the certified bounds for branching trees (smallest gap = {min_branch_gap:.3g})",
        branching,
        lambda tree: gaps[tree].value <= gaps[tree].abs_error,
    )


def suite_hoffman_words(bound: int, precision: float) -> Iterator[dict]:
    one = Word((1,))
    y = Word(("y",))
    differences = {
        comp: shuffle_words_basis(one, Word(comp), 1).map_basis(binarise)
        - shuffle_words(LinComb.of(y), LinComb.of(binarise(comp)), 0)
        for comp in convergent_compositions_up_to(min(6, bound))
    }

    def convergent(comp):
        return all(is_convergent_word(t) for t in differences[comp])

    values = {
        comp: eval_words(difference, "strict", precision)
        for comp, difference in differences.items()
        if convergent(comp)
    }
    yield _family(
        "divergent binary words cancel in the regularisation combination",
        differences,
        convergent,
    )
    worst = max((abs(ev.value) for ev in values.values()), default=0.0)
    yield _tally(
        f"regularisation combination lies in the shuffle kernel [worst residual {worst:.3g} over {len(differences)}]",
        values,
        lambda comp: abs(values[comp].value) > values[comp].abs_error,
        worst,
    )


def suite_hoffman_trees(bound: int, precision: float) -> Iterator[dict]:
    one = tree_forest(leaf(1))
    y_forest = tree_forest(leaf("y"))
    max_vertices = min(4, bound - 2)

    def regularisation_difference(forest):
        return binarise_comb(shuffle_forests_basis(one, forest, 1)) - shuffle_forests(
            LinComb.of(y_forest), LinComb.of(binarise_forest(forest)), 0
        )

    def convergent_xy(comb):
        return all(convergence_class(f, Alphabet.XY) is ConvergenceClass.CONV_XY for f in comb)

    yield _family(
        "tree-level regularisation difference is convergent",
        [f for f in _convergent_forests(max_vertices) if f],
        lambda forest: convergent_xy(regularisation_difference(forest)),
    )

    # The published characterization ("no branching vertex") fails for products
    # of two or more ladders: already 2 2 leaves the divergent residue
    # yxxxy - 4 yxxyy.  The exact condition, checked exhaustively here, is
    # that the forest is empty or one single ladder tree.
    def divergent_exactly_off_single_ladders(forest):
        with_one = concat_forests(one, forest)
        lhs = flatten_forest(with_one, 1).map_basis(binarise)
        rhs = flatten_forest(binarise_forest(with_one), 0)
        has_divergent = any(not is_convergent_word(w) for w in (lhs - rhs))
        single_ladder = forest.is_tree() and forest.trees[0].is_ladder()
        return has_divergent != single_ladder

    yield _family(
        "word-level discrepancy keeps divergent words exactly off single ladders",
        [f for f in _convergent_forests(4) if f],
        divergent_exactly_off_single_ladders,
    )

    # Defect of the naive tree-level relation on the corolla 2[1,1].  The
    # divergent forests cancel and the remainder reduces to
    # 2 z(3,1,1) + z(2,1,2) + 2 z(2,2,1) - 2 z(2,1,1,1) = -z(2,3),
    # confirmed by an independent power-series integration at z -> 1.  (The
    # published value z(2,3)+z(3,2) does not match the definitions; see the
    # acceptance notes.)
    corolla = tree_forest(Tree(2, (leaf(1), leaf(1))))
    difference = regularisation_difference(corolla)
    yield _family(
        "divergent basis forests cancel exactly in the 2[1,1] defect",
        [difference],
        convergent_xy,
        syntax.format_lincomb,
    )
    reduction = reduce_azv(difference, "shuffle")
    expected_terms = {(3, 1, 1): 2, (2, 1, 2): 1, (2, 2, 1): 2, (2, 1, 1, 1): -2}
    yield _family(
        "2[1,1] defect reduces to 2z(3,1,1)+z(2,1,2)+2z(2,2,1)-2z(2,1,1,1)",
        [reduction],
        lambda comb: comb.terms == expected_terms,
        syntax.format_combination,
    )
    defect = eval_combination(reduction, precision)
    minus_z23 = eval_combination(MzvCombination({(2, 3): -1}), precision)
    yield _certified("defect of the naive relation on 2[1,1] equals -zeta(2,3)", defect, minus_z23)
    yield _tally(
        "defect is nonzero (Hoffman does not lift naively to trees)",
        [defect],
        lambda ev: abs(ev.value) <= ev.abs_error,
        abs(defect.value),
    )


def suite_worked_identity(bound: int, precision: float) -> Iterator[dict]:
    two = tree_forest(leaf(2))
    pair = Forest((leaf(2), leaf(2)))
    left = shuffle_forests(shuffle_forests_basis(pair, two, 1), LinComb.of(two), 1)
    right = shuffle_forests(LinComb.of(pair), shuffle_forests_basis(two, two, 1), 1)
    yield _exact(
        "both association orders of (2 2, 2, 2) evaluate equally",
        reduce_azv(left, "stuffle") != reduce_azv(right, "stuffle"),
    )
    bracket = eval_combination(MzvCombination({(2, 2, 2): 6, (2, 4): 3, (4, 2): 3, (6,): 1}), precision)
    z2 = eval_mzv((2,), "strict", precision)
    base = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), precision)
    yield _certified(
        "[6z(2,2,2)+3z(2,4)+3z(4,2)+z(6)]*z(2) = [2z(2,2)+z(4)]^2",
        _product(bracket, z2),
        _product(base, base),
    )
    yield _exact(
        "associator of (2 2, 2, 2) lies in the stuffle kernel",
        len(reduce_azv(associator(pair, two, two, 1), "stuffle").terms),
    )


def _integral_tail(b: int, p: int, n: int) -> float:
    """Integral from n to infinity of x^(-b) ln(x)^p dx, exact, for b > 1."""
    ln = math.log(n)
    return sum(
        math.perm(p, j) / (b - 1) ** (j + 1) * n ** (1 - b) * ln ** (p - j) for j in range(p + 1)
    )


def _em_tail_upper(b: int, p: int, n: int) -> float:
    """Upper bound on sum_{m >= n} m^(-b) ln(m)^p, b > 1, by Euler-Maclaurin."""
    ln = math.log(n)
    est = _integral_tail(b, p, n) + 0.5 * n ** (-b) * ln**p
    est -= n ** (-b - 1) * (p * ln ** (p - 1) - b * ln**p) / 12.0
    err = (
        b * (b + 1) * _integral_tail(b + 2, p, n)
        + (p * (2 * b + 1) * _integral_tail(b + 2, p - 1, n) if p else 0.0)
        + (p * (p - 1) * _integral_tail(b + 2, p - 2, n) if p >= 2 else 0.0)
    ) / 12.0
    return abs(est) + err


# brute_force_azv's memo, (tree, flavor, horizon) -> terms at m = 1..horizon.
_TREE_TERMS: dict[tuple[Tree, str, int], array] = {}


def _tree_terms(tree: Tree, flavor: str, horizon: int) -> array:
    """Terms of the nested sum of ``tree`` at its root variable m = 1..horizon:
    m^-d times, for each child, the child's running sum below (stuffle) or up
    to (star) m."""
    key = (tree, flavor, horizon)
    terms = _TREE_TERMS.get(key)
    if terms is None:
        terms = [m ** -tree.decoration for m in range(1, horizon + 1)]
        for child in tree.children:
            sums = accumulate(_tree_terms(child, flavor, horizon), initial=0.0)
            if flavor == "star":
                next(sums)
            terms = list(map(mul, terms, sums))
        terms = _TREE_TERMS[key] = array("d", terms)
    return terms


def brute_force_azv(forest: Forest, horizon: int, flavor: str = "stuffle") -> MzvEval:
    """Direct nested summation over the tree structure, truncated at ``horizon``.

    Child variables run strictly below (stuffle) or up to (star) their parent.
    The coarse tail bound majorizes the inner levels by harmonic-log growth;
    this is the desk-scale oracle against the reduction pipeline, so it never
    touches the flattening machinery.
    """
    if flavor not in ("stuffle", "star"):
        raise ValueError(f"unknown flavor {flavor!r}")

    def log_tail(exponent: int, vertices: int, start: int) -> float:
        # sum_{n >= start} n^-exponent (1+ln n)^(vertices-1), via binomial expansion
        p = vertices - 1
        total = 0.0
        for j in range(p + 1):
            total += math.comb(p, j) * _em_tail_upper(exponent, j, start)
        return total

    values = []
    tail_bounds = []
    full_bounds = []
    for tree in forest.trees:
        values.append(math.fsum(_tree_terms(tree, flavor, horizon)))
        tail_bounds.append(log_tail(tree.decoration, tree.vertex_count, horizon + 1))
        full_bounds.append(1.0 + log_tail(tree.decoration, tree.vertex_count, 2))
    value = math.prod(values)
    err = 0.0
    for i, tail in enumerate(tail_bounds):
        err += tail * math.prod(full_bounds[:i] + full_bounds[i + 1 :])
    return MzvEval(value, err)


SERIES_TERMS = 400  # degrees 0..SERIES_TERMS-1 of brute_polylog_forest's series


def brute_polylog_forest(forest: Forest, z: float) -> MzvEval:
    """Power-series oracle for arborified polylogarithms on [0, z], z < 1.

    Realizes the branched integration directly on truncated power series:
    the x-vertex divides by t and integrates, the y-vertex convolves with the
    geometric series (prefix sums) and integrates.  Completely independent of
    the flattening/reduction path.  A series is held as its lowest degree and
    the coefficients from there up to degree T - 1, T = SERIES_TERMS, which
    are exact coefficients of the whole series: no operation moves a degree
    down.

    The bound (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd
    ed., 2002, section 3.1) has two parts.  First the rounding: z and every
    coefficient are >= 0 (a y-leaf gives 1/k, a y-vertex takes prefix sums
    and divides by the degree, an x-vertex divides by it, and products
    multiply nonnegative series), so no rounding error cancels.  A value that
    passed at most D roundings of unit roundoff u lies within
    gamma_D = D u / (1 - D u) of the exact truncated series, so within
    D u / (1 - 2 D u) of itself.  In a forest of V vertices, each vertex is
    one factor of a product, whose sums of at most T products take T
    roundings (Python's compensated float sum, from 3.12 on, errs less), and
    divides once; a y-vertex also takes prefix sums, fewer than T roundings.
    Horner's rule adds 2T, and the powers of z up to the lowest degree at
    most V.  So D = 2 (V + 1) T + 2V.  The count is relative, so it holds
    while every rounding stays in the normal float range.  Every nonzero kept
    coefficient is at least T^-V (a sum or product of such coefficients,
    divided by a degree below T once per vertex), so every intermediate is
    at least (z / T)^V; the bound is inf unless (z / T)^V z^T is a normal
    float, which keeps z^T in the tail normal too.

    Then the dropped degrees: for k >= T the coefficient c_k of a nonempty
    forest is at most (k + 1)^(V - 1), by induction over the vertices: a
    y-leaf gives 1/k, a vertex divides a sum of at most k coefficients of its
    children's product by k, and the product of forests of V1 and V2
    vertices sums k + 1 products, at most (k + 1)^(V1 + V2 - 1).  The ratio
    of successive majorants, z ((k + 2)/(k + 1))^(V - 1), falls with k, so
    the tail is at most (T + 1)^(V - 1) z^T / (1 - rho) with rho that ratio
    at k = T, and inf when rho >= 1.
    """
    terms = SERIES_TERMS

    def times(a, b):
        (low_a, ca), (low_b, cb) = a, b
        low, rb, last = low_a + low_b, cb[::-1], len(cb) - 1
        size = min(len(ca) + last, terms - low)
        return low, [sum(map(mul, ca[max(0, k - last) : k + 1], rb[max(0, last - k) :])) for k in range(size)]

    def tree_series(tree: Tree):
        series = (0, [1.0])
        for child in tree.children:
            series = times(series, tree_series(child))
        low, coeffs = series
        if tree.decoration == "y":  # times 1/(1 - t), then one degree up
            n = terms - low - 1
            coeffs = list(accumulate((coeffs + [0.0] * n)[:n]))
            low += 1
        elif low == 0:  # divided by t, the constant term drops
            low, coeffs = 1, coeffs[1:]
        return low, [c / degree for degree, c in enumerate(coeffs, low)]

    total = (0, [1.0])
    for tree in forest.trees:
        total = times(total, tree_series(tree))
    low, coeffs = total
    value = 0.0
    for c in reversed(coeffs):  # Horner
        value = value * z + c
    for _ in range(low):
        value *= z
    vertices = forest.vertex_count
    rho = z * ((terms + 2) / (terms + 1)) ** (vertices - 1)
    if rho >= 1.0 or (z / terms) ** vertices * z**terms < 2.0**-1022:
        return MzvEval(value, math.inf)
    roundings = 2 * (vertices + 1) * terms + 2 * vertices
    tail = (terms + 1.0) ** (vertices - 1) * z**terms / (1.0 - rho)
    return MzvEval(value, roundings * 2.0**-53 / (1.0 - 2.0 * roundings * 2.0**-53) * value + tail)


def suite_polylog(bound: int, precision: float) -> Iterator[dict]:
    z = 0.5
    ln2 = _decimal(0.6931471805599453094172)
    half_ln2_squared = _decimal(0.2402265069591007123336)
    yield _certified("Li_(1)(1/2) = ln 2", eval_polylog((1,), z, precision), ln2)
    yield _certified("Li_(1,1)(1/2) = ln^2(2)/2", eval_polylog((1, 1), z, precision), half_ln2_squared)
    li2 = _decimal(0.5822405264650125059027)  # pi^2/12 - ln^2(2)/2
    yield _certified("Li_(2)(1/2) partial-sum oracle", eval_polylog((2,), z, precision), li2)

    ev = eval_arborified_polylog(tree_forest(leaf("y")), z, precision)
    yield _certified("arborified Li of a single y-vertex = ln 2", ev, ln2)
    ev = eval_arborified_polylog(tree_forest(b_plus("y", tree_forest(leaf("y")))), z, precision)
    yield _certified("arborified Li of the y-ladder = ln^2(2)/2", ev, half_ln2_squared)

    max_vertices = min(4, bound - 2)
    gaps = {}
    for forest in forests_up_to(max_vertices, ("x", "y"), include_empty=False):
        if convergence_class(forest, Alphabet.XY).is_semiconvergent:
            ev, brute = eval_arborified_polylog(forest, z, precision), brute_polylog_forest(forest, z)
            gaps[forest] = MzvEval(ev.value - brute.value, ev.abs_error + brute.abs_error)
    worst = max((abs(gap.value) for gap in gaps.values()), default=0.0)
    yield _tally(
        f"arborified polylog matches the power-series oracle [{len(gaps)} forests, worst {worst:.3g}]",
        gaps,
        lambda forest: abs(gaps[forest].value) > gaps[forest].abs_error,
        worst,
    )

    rng = random.Random(RNG_SEED + 2)
    for i in range(5):
        f1 = binarise_forest(random_convergent_forest(rng, rng.randint(2, 4)))
        f2 = binarise_forest(random_convergent_forest(rng, rng.randint(2, 4)))
        both = eval_arborified_polylog(concat_forests(f1, f2), z, precision)
        prod = _product(eval_arborified_polylog(f1, z, precision), eval_arborified_polylog(f2, z, precision))
        yield _certified(f"multiplicative over concatenation #{i}", both, prod)


def suite_star_reduction(bound: int, precision: float) -> Iterator[dict]:
    # Star values against closed forms c zeta(n) as decimal literals:
    # zeta*(2,1^k) = (k+1) zeta(k+2), zeta*({2}^n) = 2 (1 - 2^(1-2n)) zeta(2n)
    # and zeta*(3,1) = zeta(3,1) + zeta(4) = 5/4 zeta(4).
    closed_forms = [
        ((2, 1, 1), "3 zeta(4)", 3.246969701133414574548),
        ((3, 1), "5/4 zeta(4)", 1.352904042138922739395),
        ((2, 2), "7/4 zeta(4)", 1.894065658994491835153),
        ((2, 1, 1, 1), "4 zeta(5)", 4.147711020573479705325),
        ((2, 2, 2), "31/16 zeta(6)", 1.971102182594870208197),
    ]
    for comp, form, value in closed_forms:
        if sum(comp) > bound + 2:
            continue
        text = ",".join(map(str, comp))
        yield _certified(f"zeta*({text}) = {form}", eval_mzv(comp, "star", precision), _decimal(value))
    want = MzvCombination({(2, 1, 1): 1, (3, 1): 1, (2, 2): 1, (4,): 1})
    yield _family(
        "merge expansion of (2,1,1)",
        [(2, 1, 1)],
        lambda comp: star_to_strict(comp).terms == want.terms,
    )


SUITES = {
    "word-shuffle": suite_word_shuffle,
    "tree-shuffle": suite_tree_shuffle,
    "flatten": suite_flatten,
    "linear-extensions": suite_linear_extensions,
    "binarisation": suite_binarisation,
    "rota-baxter": suite_rota_baxter,
    "mzv-oracles": suite_mzv_oracles,
    "reduction-vs-series": suite_reduction_vs_series,
    "star-reduction": suite_star_reduction,
    "morphisms": suite_morphisms,
    "associator-kernel": suite_associator_kernel,
    "theorem5": suite_theorem5,
    "hoffman-words": suite_hoffman_words,
    "hoffman-trees": suite_hoffman_trees,
    "worked-identity": suite_worked_identity,
    "polylog": suite_polylog,
}


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _named_report(name: str, bound: int, precision: float) -> tuple[str, list[dict]]:
    return name, run_suite(name, bound, precision)


def run_suite(name: str, bound: int = 6, precision: float = DEFAULT_PRECISION) -> list[dict]:
    """Report entries of one suite, or of every suite of ``SUITES`` for ``"all"``.

    Each entry is named here, with the suite's ``SUITES`` key as its first key.
    A suite that meets a value it cannot certify to ``precision`` stops there:
    its entries so far are kept, and one failed entry names the error, so the
    other suites still report.

    ``"all"`` runs each suite as one task on a pool of forked workers, one
    per CPU and at most one per suite; with one CPU, or no ``fork``, it runs
    them in this process.  Either way the reports come back in ``SUITES``
    order.  The suites share no state: each seeds its own generator, and
    their memo caches save nothing across suites.
    """
    if not 1 <= bound <= MAX_WEIGHT_BOUND:
        raise DomainError(f"weight bound must be from 1 to {MAX_WEIGHT_BOUND}, got {bound}")
    if name == "all":
        workers = min(len(SUITES), _cpu_count())
        if workers < 2 or not hasattr(os, "fork"):
            return [entry for name in SUITES for entry in run_suite(name, bound, precision)]
        # Imported here: the pool modules take 10-20 ms to import, which the
        # other callers of this module should not pay.  Forked workers inherit
        # the loaded modules instead of importing arbozeta again.
        from multiprocessing import get_context

        # Reports are collected as they finish, so an error reaches the caller
        # at once; leaving the block then terminates the workers, ending the
        # suites still running or queued instead of waiting for them.
        with get_context("fork").Pool(workers) as pool:
            reports = dict(pool.imap_unordered(partial(_named_report, bound=bound, precision=precision), SUITES))
        return [entry for name in SUITES for entry in reports[name]]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all")
    entries = []
    try:
        for entry in SUITES[name](bound, precision):
            entries.append({"suite": name, **entry})
    except PrecisionUnreachable as exc:
        failed = _entry(f"suite stopped by PrecisionUnreachable: {exc}", "error", "error", 1.0, 0.0)
        entries.append({"suite": name, **failed})
    return entries
