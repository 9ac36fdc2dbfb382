"""Named identity suites: every structural law the library claims, checked at
desk scale with pass/fail reporting.

Each suite returns a list of report entries
``{suite, instance, lhs, rhs, residual, tolerance, pass}``.  Exhaustive
symbolic families are aggregated into one entry per law (the instance text
carries the count and the first counterexample on failure); numeric checks
report one entry per evaluated instance.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

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
from .errors import DomainError, NotInImage
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
    _tree_shuffle_rec,
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
    MzvCombination,
    brute_force_azv,
    eval_arborified_polylog,
    eval_combination,
    eval_mzv,
    eval_polylog,
    reduce_azv,
    star_to_strict,
    words_to_combination,
)

RNG_SEED = 0x5EED

LAMBDAS = (-1, 0, 1)


def _entry(suite, instance, lhs, rhs, residual, tolerance):
    return {
        "suite": suite,
        "instance": instance,
        "lhs": lhs,
        "rhs": rhs,
        "residual": residual,
        "tolerance": tolerance,
        "pass": bool(residual <= tolerance),
    }


def _exact_family(suite, law, checked, failures, witness=""):
    instance = f"{law} [{checked} instances]"
    if failures:
        instance += f"; first failure: {witness}"
    return _entry(suite, instance, "exact", "exact", float(failures), 0.0)


def _numeric(suite, instance, lhs, rhs, tolerance):
    return _entry(suite, instance, lhs, rhs, abs(lhs - rhs), tolerance)


def eval_words(comb: LinComb[Word], flavor: str, precision: float):
    return eval_combination(words_to_combination(comb, flavor), precision)


# -- combinatorial suites ----------------------------------------------------------


def suite_word_shuffle(bound: int, precision: float) -> list[dict]:
    del precision
    out = []
    max_len = max(2, bound - 1)
    words_12 = [w for n in range(max_len + 1) for w in words_with_length(n, (1, 2))]
    for lam in LAMBDAS:
        checked = fails = 0
        witness = ""
        for u in words_12:
            for v in words_12:
                if len(u) + len(v) > max_len or v.sort_key < u.sort_key:
                    continue
                checked += 1
                if shuffle_words_basis(u, v, lam) != shuffle_words_basis(v, u, lam):
                    fails += 1
                    witness = witness or f"{u!r} vs {v!r}"
        out.append(_exact_family("word-shuffle", f"commutativity lambda={lam}", checked, fails, witness))
        checked = fails = 0
        witness = ""
        for u in words_12:
            for v in words_12:
                for w in words_12:
                    if len(u) + len(v) + len(w) > max_len:
                        continue
                    checked += 1
                    left = shuffle_words(shuffle_words_basis(u, v, lam), LinComb.of(w), lam)
                    right = shuffle_words(LinComb.of(u), shuffle_words_basis(v, w, lam), lam)
                    if left != right:
                        fails += 1
                        witness = witness or f"{u!r},{v!r},{w!r}"
        out.append(_exact_family("word-shuffle", f"associativity lambda={lam}", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for u in words_12:
        for v in words_12:
            if not u or not v or len(u) + len(v) > max_len:
                continue
            checked += 1
            sh = shuffle_words_basis(u, v, 0)
            count_ok = sh.coefficient_sum() == math.comb(len(u) + len(v), len(u))
            len_ok = all(len(t) == len(u) + len(v) for t in sh)
            if not (count_ok and len_ok):
                fails += 1
                witness = witness or f"{u!r} sh0 {v!r}"
    out.append(_exact_family("word-shuffle", "shuffle term count = binomial, lengths add", checked, fails, witness))

    for lam in (-1, 1):
        checked = fails = 0
        witness = ""
        for u in words_12:
            for v in words_12:
                if len(u) + len(v) > max_len:
                    continue
                checked += 1
                sh = shuffle_words_basis(u, v, lam)
                if not all(t.weight() == u.weight() + v.weight() for t in sh):
                    fails += 1
                    witness = witness or f"{u!r},{v!r}"
        out.append(_exact_family("word-shuffle", f"weight conservation lambda={lam}", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for u in words_12:
        for v in words_12:
            if len(u) + len(v) > max_len:
                continue
            if not (is_convergent_word(u) and is_convergent_word(v)):
                continue
            checked += 1
            for lam in LAMBDAS:
                if not all(is_convergent_word(t) for t in shuffle_words_basis(u, v, lam)):
                    fails += 1
                    witness = witness or f"{u!r},{v!r} lam={lam}"
    out.append(_exact_family("word-shuffle", "convergent words closed under shuffles", checked, fails, witness))
    return out


def _unnormalized_associator(f1: Forest, f2: Forest, f3: Forest) -> LinComb:
    """Associator of the companion tree shuffle without the 1/(k*n) factor, lambda=0."""

    def product(a: Forest, b: Forest) -> LinComb:
        return _tree_shuffle_rec(a, b, 0, redistribute=False)

    left = product(f1, f2).bilinear(LinComb.of(f3), product)
    right = LinComb.of(f1).bilinear(product(f2, f3), product)
    return left - right


def suite_tree_shuffle(bound: int, precision: float) -> list[dict]:
    del precision
    out = []
    max_vertices = max(3, bound - 1)
    forests = list(forests_up_to(max_vertices - 1, (1, 2)))
    for lam in LAMBDAS:
        checked = fails = 0
        witness = ""
        for a in forests:
            for b in forests:
                if a.vertex_count + b.vertex_count > max_vertices:
                    continue
                checked += 1
                if shuffle_forests_basis(a, b, lam) != shuffle_forests_basis(b, a, lam):
                    fails += 1
                    witness = witness or f"{syntax.format_forest(a)} | {syntax.format_forest(b)}"
        out.append(_exact_family("tree-shuffle", f"commutativity lambda={lam}", checked, fails, witness))

    unit_ok = all(
        shuffle_forests_basis(Forest(), f, lam) == LinComb.of(f)
        and shuffle_forests_basis(f, Forest(), lam) == LinComb.of(f)
        for f in forests[:40]
        for lam in LAMBDAS
    )
    out.append(_exact_family("tree-shuffle", "empty forest is the unit", min(len(forests), 40) * 3, 0 if unit_ok else 1))

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
    deep = LinComb.zero()
    from itertools import permutations

    for u, v in ((a, b), (b, a)):
        for p, q, r in permutations((u, c, d)):
            chain = b_plus(p, tree_forest(b_plus(q, tree_forest(leaf(r)))))
            deep = deep + LinComb.of(Forest((chain, leaf(v))))
    expected = products.scale(Fraction(1, 4)) - deep.scale(Fraction(1, 4))
    out.append(
        _exact_family(
            "tree-shuffle",
            "four-point associator = 1/4 products - 1/4 deep trees",
            1,
            0 if lhs == expected else 1,
            "a,b,c,d",
        )
    )

    unnorm = _unnormalized_associator(ab, tree_forest(leaf(c)), tree_forest(leaf(d)))
    out.append(
        _exact_family(
            "tree-shuffle",
            "unnormalized four-point associator = published product pairs",
            1,
            0 if unnorm == products else 1,
            "a,b,c,d",
        )
    )

    witness_comb = associator(Forest((leaf(2), leaf(2))), tree_forest(leaf(2)), tree_forest(leaf(2)), 1)
    out.append(
        _exact_family(
            "tree-shuffle",
            "stuffle associator of (2 2, 2, 2) is nonzero",
            1,
            0 if not witness_comb.is_zero() else 1,
        )
    )

    for lam in (-1, 1):
        checked = fails = 0
        witness = ""
        for a_f in forests:
            for b_f in forests:
                if a_f.vertex_count + b_f.vertex_count > max_vertices:
                    continue
                checked += 1
                sh = shuffle_forests_basis(a_f, b_f, lam)
                want = a_f.weight() + b_f.weight()
                if not all(t.weight() == want for t in sh):
                    fails += 1
                    witness = witness or f"{syntax.format_forest(a_f)} | {syntax.format_forest(b_f)}"
        out.append(_exact_family("tree-shuffle", f"weight grading lambda={lam}", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for a_f in forests:
        for b_f in forests:
            if a_f.vertex_count + b_f.vertex_count > max_vertices:
                continue
            checked += 1
            sh = shuffle_forests_basis(a_f, b_f, 0)
            want = a_f.vertex_count + b_f.vertex_count
            if not all(t.vertex_count == want for t in sh):
                fails += 1
                witness = witness or f"{syntax.format_forest(a_f)} | {syntax.format_forest(b_f)}"
    out.append(_exact_family("tree-shuffle", "size grading lambda=0", checked, fails, witness))
    return out


def suite_flatten(bound: int, precision: float) -> list[dict]:
    del precision
    out = []
    max_vertices = max(3, bound - 2)
    forests = list(forests_up_to(max_vertices, (1, 2)))
    for lam in LAMBDAS:
        checked = fails = 0
        witness = ""
        for a in forests:
            for b in forests:
                if a.vertex_count + b.vertex_count > max_vertices:
                    continue
                checked += 1
                left = flatten_forest(concat_forests(a, b), lam)
                right = shuffle_words(flatten_forest(a, lam), flatten_forest(b, lam), lam)
                if left != right:
                    fails += 1
                    witness = witness or f"{syntax.format_forest(a)} | {syntax.format_forest(b)}"
        out.append(_exact_family("flatten", f"concatenation-to-shuffle morphism lambda={lam}", checked, fails, witness))

    for lam in LAMBDAS:
        checked = fails = 0
        witness = ""
        for f in forests:
            checked += 1
            if not flatten_forest(f, lam).all_integer():
                fails += 1
                witness = witness or syntax.format_forest(f)
        out.append(_exact_family("flatten", f"integer coefficients for integer lambda={lam}", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for comp in convergent_compositions_up_to(min(7, bound + 1)):
        checked += 1
        if flatten_forest(ladder(comp), 1) != LinComb.of(Word(comp)):
            fails += 1
            witness = witness or str(comp)
    out.append(_exact_family("flatten", "ladders flatten to their words", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for f in forests_up_to(4, (1, 2, 3)):
        if convergence_class(f) is not ConvergenceClass.CONV_POSINT:
            continue
        for lam in LAMBDAS:
            checked += 1
            if not all(is_convergent_word(w) for w in flatten_forest(f, lam)):
                fails += 1
                witness = witness or f"{syntax.format_forest(f)} lam={lam}"
    out.append(_exact_family("flatten", "convergent forests flatten to convergent words", checked, fails, witness))
    return out


def suite_linear_extensions(bound: int, precision: float) -> list[dict]:
    del precision
    checked = fails = 0
    witness = ""
    for f in forests_up_to(min(7, bound + 1), (1,), include_empty=True):
        checked += 1
        count = flatten_forest(f, 0).coefficient_sum()
        if count != linear_extension_count(f):
            fails += 1
            witness = witness or syntax.format_forest(f)
    return [
        _exact_family(
            "linear-extensions",
            "flatten(0) coefficient sum = number of linear extensions",
            checked,
            fails,
            witness,
        )
    ]


def suite_binarisation(bound: int, precision: float) -> list[dict]:
    del precision
    out = []
    max_weight = min(7, bound + 1)

    checked = fails = 0
    witness = ""
    for w in range(0, max_weight + 1):
        for comp in compositions_of(w):
            checked += 1
            bin_word = binarise(comp)
            ok = (
                len(bin_word) == sum(comp)
                and is_semiconvergent_word(bin_word)
                and debinarise(bin_word).letters == comp
                and (is_convergent_word(bin_word) == is_convergent_word(Word(comp)))
            )
            if not ok:
                fails += 1
                witness = witness or str(comp)
    out.append(_exact_family("binarisation", "word binarisation: grading, roundtrip, convergence", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for w1 in range(0, max_weight + 1):
        for c1 in compositions_of(w1):
            for w2 in range(0, max_weight - w1 + 1):
                for c2 in compositions_of(w2):
                    checked += 1
                    lhs = binarise(concat_words(Word(c1), Word(c2)))
                    rhs = concat_words(binarise(c1), binarise(c2))
                    if lhs != rhs:
                        fails += 1
                        witness = witness or f"{c1}+{c2}"
    out.append(_exact_family("binarisation", "binarisation is a concatenation morphism", checked, fails, witness))

    checked = fails = 0
    witness = ""
    from itertools import product as cartesian

    for length in range(1, max_weight + 1):
        for letters in cartesian("xy", repeat=length):
            bw = Word(letters)
            if not is_convergent_word(bw):
                continue
            checked += 1
            comp = debinarise(bw)
            if not (is_convergent_word(comp) and binarise(comp) == bw):
                fails += 1
                witness = witness or "".join(letters)
    out.append(_exact_family("binarisation", "onto convergent binary words (inverse roundtrip)", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for forest in forests_up_to_weight(max_weight):
        checked += 1
        image = binarise_forest(forest)
        ok = (
            image.vertex_count == forest.weight()
            and debinarise_forest(image) == forest
            and convergence_class(image, Alphabet.XY).is_semiconvergent
        )
        if convergence_class(forest) is ConvergenceClass.CONV_POSINT:
            ok = ok and convergence_class(image, Alphabet.XY) is ConvergenceClass.CONV_XY
        if not ok:
            fails += 1
            witness = witness or syntax.format_forest(forest)
    out.append(_exact_family("binarisation", "branched binarisation: grading, roundtrip, convergence", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for forest in forests_up_to(min(6, max_weight), ("x", "y")):
        attempted = None
        try:
            attempted = debinarise_forest(forest)
        except NotInImage:
            pass
        checked += 1
        semi = convergence_class(forest, Alphabet.XY).is_semiconvergent
        ok = (attempted is not None) == semi
        if attempted is not None:
            ok = ok and binarise_forest(attempted) == forest
        if not ok:
            fails += 1
            witness = witness or syntax.format_forest(forest)
    out.append(_exact_family("binarisation", "image of branched binarisation = semiconvergent forests", checked, fails, witness))

    checked = fails = 0
    witness = ""
    for w in range(2, max_weight + 1):
        for comp in compositions_of(w):
            checked += 1
            lad = ladder(comp)
            lhs = flatten_forest(binarise_forest(lad), 0)
            rhs = LinComb.of(binarise(comp))
            if lhs != rhs:
                fails += 1
                witness = witness or str(comp)
    out.append(_exact_family("binarisation", "flatten(0) of binarised ladders = binarised words", checked, fails, witness))
    return out


def suite_rota_baxter(bound: int, precision: float) -> list[dict]:
    del precision
    out = []
    models = [strict_sum_model(12), nonstrict_sum_model(12), integration_model()]
    broken = broken_sum_model(12)

    for model in models:
        samples = [(model.embed(i), model.embed(j)) for i in (1, 2, 3) for j in (1, 2, 3)]
        samples.append((model.embed(1) * model.embed(2), model.embed(4)))
        ok = check_rota_baxter(model.op, samples, model.weight)
        out.append(_exact_family("rota-baxter", f"{model.name} satisfies the weight {model.weight} identity", len(samples), 0 if ok else 1))

    samples = [(broken.embed(i), broken.embed(j)) for i in (1, 2) for j in (1, 2)]
    ok = not check_rota_baxter(broken.op, samples, broken.weight)
    out.append(_exact_family("rota-baxter", "negative control violates the identity", len(samples), 0 if ok else 1))

    max_vertices = min(5, bound - 1)
    forest_pool = [f for f in forests_up_to(max_vertices, (1, 2, 3)) if f]
    for model in models:
        checked = fails = 0
        witness = ""
        for forest in forest_pool:
            checked += 1
            if not verify_factorization(model, forest):
                fails += 1
                witness = witness or syntax.format_forest(forest)
        out.append(_exact_family("rota-baxter", f"factorization through words on {model.name}", checked, fails, witness))

    control_fails = 0
    for forest in forests_up_to(2, (1, 2, 3)):
        if forest and not verify_factorization(broken, forest):
            control_fails += 1
    out.append(
        _exact_family(
            "rota-baxter",
            "negative control breaks factorization on a small forest",
            1,
            0 if control_fails else 1,
        )
    )

    pair_pool = [f for f in forests_up_to(3, (1, 2, 3)) if f]
    for model in models:
        checked = fails = 0
        witness = ""
        for f1 in pair_pool:
            for f2 in pair_pool:
                if f1.vertex_count + f2.vertex_count > 4:
                    continue
                checked += 1
                if not verify_tree_shuffle_morphism(model, f1, f2):
                    fails += 1
                    witness = witness or f"{syntax.format_forest(f1)} | {syntax.format_forest(f2)}"
        out.append(_exact_family("rota-baxter", f"tree-shuffle morphism on {model.name}", checked, fails, witness))
    return out


# -- numeric suites ------------------------------------------------------------------


def suite_mzv_oracles(bound: int, precision: float) -> list[dict]:
    del bound
    out = []
    z2 = eval_mzv((2,), "strict", precision)
    out.append(_numeric("mzv-oracles", "zeta(2) = pi^2/6", z2.value, math.pi**2 / 6, precision))
    z4 = eval_mzv((4,), "strict", precision)
    out.append(_numeric("mzv-oracles", "zeta(4) = pi^4/90", z4.value, math.pi**4 / 90, precision))
    z21 = eval_mzv((2, 1), "strict", precision)
    z3 = eval_mzv((3,), "strict", precision)
    out.append(_numeric("mzv-oracles", "zeta(2,1) = zeta(3)", z21.value, z3.value, 2 * precision))
    z22 = eval_mzv((2, 2), "strict", precision)
    out.append(_numeric("mzv-oracles", "zeta(2,2) = pi^4/120", z22.value, math.pi**4 / 120, precision))
    ev = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), precision)
    out.append(_numeric("mzv-oracles", "2 zeta(2,2) + zeta(4) = pi^4/36", ev.value, math.pi**4 / 36, precision))
    star21 = eval_mzv((2, 1), "star", precision)
    out.append(
        _numeric("mzv-oracles", "zeta*(2,1) = zeta(2,1) + zeta(3)", star21.value, z21.value + z3.value, 3 * precision)
    )
    return out


def suite_reduction_vs_series(bound: int, precision: float) -> list[dict]:
    out = []
    max_vertices = min(4, bound - 2)
    horizon = 2000
    for flavor in ("stuffle", "star"):
        checked = fails = 0
        worst = 0.0
        witness = ""
        for forest in forests_up_to(max_vertices, (1, 2, 3)):
            if convergence_class(forest) is not ConvergenceClass.CONV_POSINT:
                continue
            checked += 1
            brute = brute_force_azv(forest, horizon, flavor)
            reduced = eval_combination(reduce_azv(forest, flavor), precision)
            gap = abs(brute.value - reduced.value)
            allowance = brute.abs_error + reduced.abs_error
            if gap > allowance:
                fails += 1
                witness = witness or syntax.format_forest(forest)
            worst = max(worst, gap - allowance)
        out.append(
            _entry(
                "reduction-vs-series",
                f"{flavor}: nested summation at N={horizon} within its tail bound [{checked} forests]"
                + (f"; first failure: {witness}" if witness else ""),
                0.0,
                0.0,
                float(fails),
                0.0,
            )
        )
    return out


def suite_morphisms(bound: int, precision: float) -> list[dict]:
    out = []
    rng = random.Random(RNG_SEED)
    tol = max(precision * 100, 1e-6)
    max_weight = max(4, bound + 2)

    for flavor, lam, star in (("stuffle", 1, False), ("star", -1, True), ("shuffle", 0, False)):
        for i in range(12):
            u = Word(random_composition(rng, rng.randint(2, max_weight - 2)))
            v = Word(random_composition(rng, rng.randint(2, max_weight - u.weight())))
            if flavor == "shuffle":
                u, v = binarise(u), binarise(v)
            sh = shuffle_words_basis(u, v, lam)
            mzv_flavor = "star" if star else "strict"
            lhs = eval_words(sh, mzv_flavor, precision)
            ev_u = eval_words(LinComb.of(u), mzv_flavor, precision)
            ev_v = eval_words(LinComb.of(v), mzv_flavor, precision)
            out.append(
                _numeric(
                    "morphisms",
                    f"{flavor} word morphism #{i}: {syntax.format_word(u)} * {syntax.format_word(v)}",
                    lhs.value,
                    ev_u.value * ev_v.value,
                    tol,
                )
            )

    for i in range(10):
        f1 = random_convergent_forest(rng, rng.randint(2, max_weight - 2))
        f2 = random_convergent_forest(rng, rng.randint(2, max_weight - f1.weight()))
        both = eval_combination(reduce_azv(concat_forests(f1, f2), "stuffle"), precision)
        prod = (
            eval_combination(reduce_azv(f1, "stuffle"), precision).value
            * eval_combination(reduce_azv(f2, "stuffle"), precision).value
        )
        out.append(
            _numeric(
                "morphisms",
                f"concatenation morphism #{i}: {syntax.format_forest(f1)} | {syntax.format_forest(f2)}",
                both.value,
                prod,
                tol,
            )
        )

    count = 0
    while count < 50:
        w1 = rng.randint(2, max_weight - 2)
        w2 = rng.randint(2, max(2, max_weight - w1))
        f1 = random_convergent_forest(rng, w1)
        f2 = random_convergent_forest(rng, w2)
        flavor, lam = rng.choice((("stuffle", 1), ("star", -1), ("shuffle", 0)))
        if flavor == "shuffle":
            a, b = binarise_forest(f1), binarise_forest(f2)
        else:
            a, b = f1, f2
        sh = shuffle_forests_basis(a, b, lam)
        lhs = eval_combination(reduce_azv(sh, flavor), precision)
        rhs = (
            eval_combination(reduce_azv(a, flavor), precision).value
            * eval_combination(reduce_azv(b, flavor), precision).value
        )
        out.append(
            _numeric(
                "morphisms",
                f"tree-shuffle morphism ({flavor}) #{count}: {syntax.format_forest(a)} | {syntax.format_forest(b)}",
                lhs.value,
                rhs,
                tol,
            )
        )
        count += 1

    for i in range(8):
        f1 = random_convergent_forest(rng, rng.randint(2, 4))
        f2 = random_convergent_forest(rng, rng.randint(2, 4))
        lam = rng.choice((1, -1))
        flavor = "stuffle" if lam == 1 else "star"
        lhs = eval_words(flatten(shuffle_forests_basis(f1, f2, lam), lam), "strict" if lam == 1 else "star", precision)
        rhs = eval_words(
            shuffle_words(flatten_forest(f1, lam), flatten_forest(f2, lam), lam),
            "strict" if lam == 1 else "star",
            precision,
        )
        out.append(
            _numeric(
                "morphisms",
                f"flatten/tree-shuffle compatibility after reduction #{i} (lambda={lam})",
                lhs.value,
                rhs.value,
                tol,
            )
        )
    return out


def suite_associator_kernel(bound: int, precision: float) -> list[dict]:
    out = []
    rng = random.Random(RNG_SEED + 1)
    tol = max(precision * 100, 1e-6)
    max_weight = max(6, bound + 2)
    for flavor, lam in (("stuffle", 1), ("star", -1), ("shuffle", 0)):
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
            comb = associator(*forests, lam)
            ev = eval_combination(reduce_azv(comb, flavor), precision)
            out.append(
                _numeric(
                    "associator-kernel",
                    f"{flavor} associator #{i}: "
                    + " ; ".join(syntax.format_forest(f) for f in forests),
                    ev.value,
                    0.0,
                    tol,
                )
            )
    return out


def suite_theorem5(bound: int, precision: float) -> list[dict]:
    out = []
    max_vertices = min(5, bound - 1)
    strict_gap = 1e-6
    checked = 0
    ladder_fails = []
    branch_fails = []
    order_fails = []
    worst_ladder = 0.0
    min_branch_gap = float("inf")
    for v in range(1, max_vertices + 1):
        for tree in trees_with_vertices(v, (1, 2, 3)):
            if tree.decoration < 2:
                continue
            forest = tree_forest(tree)
            checked += 1
            stuffle_val = eval_combination(reduce_azv(forest, "stuffle"), precision / 4)
            shuffle_val = eval_combination(
                reduce_azv(binarise_forest(forest), "shuffle"), precision / 4
            )
            gap = stuffle_val.value - shuffle_val.value
            name = syntax.format_tree(tree)
            if gap < -precision:
                order_fails.append(name)
            if tree.is_ladder():
                worst_ladder = max(worst_ladder, abs(gap))
                if abs(gap) > precision:
                    ladder_fails.append(name)
            else:
                min_branch_gap = min(min_branch_gap, gap)
                if gap <= strict_gap:
                    branch_fails.append(name)
    out.append(
        _entry(
            "theorem5",
            f"shuffle side never exceeds stuffle side [{checked} trees]"
            + (f"; first failure: {order_fails[0]}" if order_fails else ""),
            0.0,
            0.0,
            float(len(order_fails)),
            0.0,
        )
    )
    out.append(
        _entry(
            "theorem5",
            f"equality on ladder trees (worst |gap| = {worst_ladder:.3g})"
            + (f"; first failure: {ladder_fails[0]}" if ladder_fails else ""),
            worst_ladder,
            0.0,
            float(len(ladder_fails)),
            0.0,
        )
    )
    out.append(
        _entry(
            "theorem5",
            f"strict gap > {strict_gap:g} for branching trees (smallest gap = {min_branch_gap:.3g})"
            + (f"; first failure: {branch_fails[0]}" if branch_fails else ""),
            0.0,
            0.0,
            float(len(branch_fails)),
            0.0,
        )
    )
    return out


def suite_hoffman_words(bound: int, precision: float) -> list[dict]:
    out = []
    tol = max(precision * 10, 1e-7)
    one = Word((1,))
    y = Word(("y",))
    checked = fails = 0
    worst = 0.0
    witness = ""
    nonconv = 0
    for comp in convergent_compositions_up_to(min(6, bound)):
        w = Word(comp)
        lhs = shuffle_words_basis(one, w, 1).map_basis(binarise)
        rhs = shuffle_words(LinComb.of(y), LinComb.of(binarise(w)), 0)
        difference = lhs - rhs
        checked += 1
        if not all(is_convergent_word(t) for t in difference):
            nonconv += 1
            witness = witness or str(comp)
            continue
        ev = eval_words(difference, "strict", precision)
        worst = max(worst, abs(ev.value))
        if abs(ev.value) > tol:
            fails += 1
            witness = witness or str(comp)
    out.append(
        _exact_family(
            "hoffman-words",
            f"divergent binary words cancel in the regularisation combination [{checked}]",
            checked,
            nonconv,
            witness,
        )
    )
    out.append(
        _entry(
            "hoffman-words",
            f"regularisation combination lies in the shuffle kernel [worst residual {worst:.3g} over {checked}]"
            + (f"; first failure: {witness}" if fails else ""),
            worst,
            0.0,
            worst,
            tol,
        )
    )
    return out


def suite_hoffman_trees(bound: int, precision: float) -> list[dict]:
    out = []
    one = tree_forest(leaf(1))
    y_forest = tree_forest(leaf("y"))
    max_vertices = min(4, bound - 2)
    checked = fails = 0
    witness = ""
    for forest in forests_up_to(max_vertices, (1, 2, 3), include_empty=False):
        if convergence_class(forest) is not ConvergenceClass.CONV_POSINT:
            continue
        checked += 1
        lhs = binarise_comb(shuffle_forests_basis(one, forest, 1))
        rhs = shuffle_forests(LinComb.of(y_forest), LinComb.of(binarise_forest(forest)), 0)
        difference = lhs - rhs
        if not all(
            convergence_class(f, Alphabet.XY) is ConvergenceClass.CONV_XY for f in difference
        ):
            fails += 1
            witness = witness or syntax.format_forest(forest)
    out.append(
        _exact_family(
            "hoffman-trees",
            "tree-level regularisation difference is convergent",
            checked,
            fails,
            witness,
        )
    )

    # The published characterization ("no branching vertex") fails for products
    # of two or more ladders: already 2 2 leaves the divergent residue
    # yxxxy - 4 yxxyy.  The exact condition, checked exhaustively here, is
    # that the forest is empty or one single ladder tree.
    checked = fails = 0
    witness = ""
    for forest in forests_up_to(4, (1, 2, 3), include_empty=False):
        if convergence_class(forest) is not ConvergenceClass.CONV_POSINT:
            continue
        checked += 1
        with_one = concat_forests(one, forest)
        lhs = flatten_forest(with_one, 1).map_basis(binarise)
        rhs = flatten_forest(binarise_forest(with_one), 0)
        has_divergent = any(not is_convergent_word(w) for w in (lhs - rhs))
        single_ladder = forest.is_tree() and forest.trees[0].is_ladder()
        if has_divergent == single_ladder:
            fails += 1
            witness = witness or syntax.format_forest(forest)
    out.append(
        _exact_family(
            "hoffman-trees",
            "word-level discrepancy keeps divergent words exactly off single ladders",
            checked,
            fails,
            witness,
        )
    )

    # Defect of the naive tree-level relation on the corolla 2[1,1].  The
    # divergent forests cancel and the remainder reduces to
    # 2 z(3,1,1) + z(2,1,2) + 2 z(2,2,1) - 2 z(2,1,1,1) = -z(2,3),
    # confirmed by an independent power-series integration at z -> 1.  (The
    # published value z(2,3)+z(3,2) does not match the definitions; see the
    # acceptance notes.)
    corolla = tree_forest(Tree(2, (leaf(1), leaf(1))))
    difference = binarise_comb(shuffle_forests_basis(one, corolla, 1)) - shuffle_forests(
        LinComb.of(y_forest), LinComb.of(binarise_forest(corolla)), 0
    )
    survivors_convergent = all(
        convergence_class(f, Alphabet.XY) is ConvergenceClass.CONV_XY for f in difference
    )
    out.append(
        _exact_family(
            "hoffman-trees",
            "divergent basis forests cancel exactly in the 2[1,1] defect",
            1,
            0 if survivors_convergent else 1,
        )
    )
    reduction = reduce_azv(difference, "shuffle")
    expected_terms = {(3, 1, 1): 2, (2, 1, 2): 1, (2, 2, 1): 2, (2, 1, 1, 1): -2}
    out.append(
        _exact_family(
            "hoffman-trees",
            "2[1,1] defect reduces to 2z(3,1,1)+z(2,1,2)+2z(2,2,1)-2z(2,1,1,1)",
            1,
            0 if reduction.terms == expected_terms else 1,
        )
    )
    tol = max(precision * 10, 1e-7)
    defect = eval_combination(reduction, precision)
    minus_z23 = -eval_mzv((2, 3), "strict", precision).value
    out.append(
        _numeric(
            "hoffman-trees",
            "defect of the naive relation on 2[1,1] equals -zeta(2,3)",
            defect.value,
            minus_z23,
            tol,
        )
    )
    out.append(
        _numeric(
            "hoffman-trees",
            "defect is nonzero (Hoffman does not lift naively to trees)",
            min(abs(defect.value), 1.0),
            1.0,
            0.5,
        )
    )
    return out


def suite_worked_identity(bound: int, precision: float) -> list[dict]:
    del bound
    out = []
    two = tree_forest(leaf(2))
    pair = Forest((leaf(2), leaf(2)))
    left = shuffle_forests(shuffle_forests_basis(pair, two, 1), LinComb.of(two), 1)
    right = shuffle_forests(LinComb.of(pair), shuffle_forests_basis(two, two, 1), 1)
    ev_left = eval_combination(reduce_azv(left, "stuffle"), precision)
    ev_right = eval_combination(reduce_azv(right, "stuffle"), precision)
    out.append(
        _numeric(
            "worked-identity",
            "both association orders of (2 2, 2, 2) evaluate equally",
            ev_left.value,
            ev_right.value,
            max(precision * 4, 1e-8),
        )
    )
    bracket = eval_combination(
        MzvCombination({(2, 2, 2): 6, (2, 4): 3, (4, 2): 3, (6,): 1}), precision
    )
    z2 = eval_mzv((2,), "strict", precision)
    base = eval_combination(MzvCombination({(2, 2): 2, (4,): 1}), precision)
    out.append(
        _numeric(
            "worked-identity",
            "[6z(2,2,2)+3z(2,4)+3z(4,2)+z(6)]*z(2) = [2z(2,2)+z(4)]^2",
            bracket.value * z2.value,
            base.value**2,
            1e-8,
        )
    )
    assoc = associator(pair, two, two, 1)
    ev_assoc = eval_combination(reduce_azv(assoc, "stuffle"), precision)
    out.append(
        _numeric(
            "worked-identity",
            "associator of (2 2, 2, 2) lies in the stuffle kernel",
            ev_assoc.value,
            0.0,
            max(precision * 4, 1e-8),
        )
    )
    return out


def brute_polylog_forest(forest: Forest, z: float, terms: int = 400) -> float:
    """Power-series oracle for arborified polylogarithms on [0, z], z < 1.

    Realizes the branched integration directly on truncated power series:
    the x-vertex divides by t and integrates, the y-vertex convolves with the
    geometric series (prefix sums) and integrates.  Completely independent of
    the flattening/reduction path.
    """

    def tree_series(tree: Tree) -> np.ndarray:
        series = np.zeros(terms)
        series[0] = 1.0
        for child in tree.children:
            series = np.convolve(series, tree_series(child))[:terms]
        if tree.decoration == "y":
            series = np.cumsum(series)
            out = np.zeros(terms)
            out[1:] = series[:-1] / np.arange(1, terms)
            return out
        out = np.zeros(terms)
        out[1:] = series[1:] / np.arange(1, terms)
        return out

    total = np.zeros(terms)
    total[0] = 1.0
    for tree in forest.trees:
        total = np.convolve(total, tree_series(tree))[:terms]
    zpow = np.power(z, np.arange(terms))
    return float(np.dot(total, zpow))


def suite_polylog(bound: int, precision: float) -> list[dict]:
    out = []
    z = 0.5
    ln2 = math.log(2.0)
    ev = eval_polylog((1,), z, precision)
    out.append(_numeric("polylog", "Li_(1)(1/2) = ln 2", ev.value, ln2, precision))
    ev = eval_polylog((1, 1), z, precision)
    out.append(_numeric("polylog", "Li_(1,1)(1/2) = ln^2(2)/2", ev.value, ln2**2 / 2, precision))
    ev = eval_polylog((2,), z, precision)
    out.append(_numeric("polylog", "Li_(2)(1/2) partial-sum oracle", ev.value, 0.5822405264650125, precision))

    ev = eval_arborified_polylog(tree_forest(leaf("y")), z, precision)
    out.append(_numeric("polylog", "arborified Li of a single y-vertex = ln 2", ev.value, ln2, precision))
    ev = eval_arborified_polylog(tree_forest(b_plus("y", tree_forest(leaf("y")))), z, precision)
    out.append(_numeric("polylog", "arborified Li of the y-ladder = ln^2(2)/2", ev.value, ln2**2 / 2, precision))

    max_vertices = min(4, bound - 2)
    checked = fails = 0
    worst = 0.0
    witness = ""
    for forest in forests_up_to(max_vertices, ("x", "y"), include_empty=False):
        if not convergence_class(forest, Alphabet.XY).is_semiconvergent:
            continue
        checked += 1
        via_reduction = eval_arborified_polylog(forest, z, precision)
        via_series = brute_polylog_forest(forest, z)
        gap = abs(via_reduction.value - via_series)
        worst = max(worst, gap)
        if gap > precision:
            fails += 1
            witness = witness or syntax.format_forest(forest)
    out.append(
        _entry(
            "polylog",
            f"arborified polylog matches the power-series oracle [{checked} forests, worst {worst:.3g}]"
            + (f"; first failure: {witness}" if fails else ""),
            worst,
            0.0,
            worst,
            precision,
        )
    )

    rng = random.Random(RNG_SEED + 2)
    for i in range(5):
        f1 = binarise_forest(random_convergent_forest(rng, rng.randint(2, 4)))
        f2 = binarise_forest(random_convergent_forest(rng, rng.randint(2, 4)))
        both = eval_arborified_polylog(concat_forests(f1, f2), z, precision)
        prod = (
            eval_arborified_polylog(f1, z, precision).value
            * eval_arborified_polylog(f2, z, precision).value
        )
        out.append(
            _numeric(
                "polylog",
                f"multiplicative over concatenation #{i}",
                both.value,
                prod,
                max(precision * 10, 1e-7),
            )
        )
    return out


def suite_star_reduction(bound: int, precision: float) -> list[dict]:
    out = []
    tol = max(precision * 10, 1e-7)
    for comp in [(2,), (2, 1), (2, 1, 1), (3, 2), (2, 2, 1)]:
        if sum(comp) > bound + 2:
            continue
        direct = eval_mzv(comp, "star", precision)
        merged = eval_combination(star_to_strict(comp), precision)
        out.append(
            _numeric(
                "star-reduction",
                f"zeta*{comp} = sum of adjacent-part merges",
                direct.value,
                merged.value,
                tol,
            )
        )
    expected = star_to_strict((2, 1, 1))
    want = MzvCombination({(2, 1, 1): 1, (3, 1): 1, (2, 2): 1, (4,): 1})
    out.append(
        _exact_family(
            "star-reduction",
            "merge expansion of (2,1,1)",
            1,
            0 if expected.terms == want.terms else 1,
        )
    )
    return out


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


def run_suite(name: str, bound: int = 6, precision: float = 1e-8) -> list[dict]:
    if bound < 1:
        raise DomainError(f"weight bound must be at least 1, got {bound}")
    if name == "all":
        results = []
        for suite_name in SUITES:
            results.extend(SUITES[suite_name](bound, precision))
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}, all")
    return SUITES[name](bound, precision)
