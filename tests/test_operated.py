from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import prod

import pytest

from arbozeta.catalog import forests_up_to
from arbozeta.forest_algebra import flatten_forest
from arbozeta.lincomb import LinComb
from arbozeta.operated import (
    OperatorModel,
    PolyQ,
    TruncSeq,
    broken_sum_model,
    check_rota_baxter,
    cumsum_inclusive,
    cumsum_strict,
    integrate_from_zero,
    integration_model,
    nonstrict_sum_model,
    strict_sum_model,
    verify_factorization,
    verify_tree_shuffle_morphism,
)
from arbozeta.trees import Forest, Tree, b_plus, leaf, tree_forest
from arbozeta.words import Word


def small_model():
    return strict_sum_model(8)


class TestBranch:
    def test_empty_forest_is_one(self):
        model = small_model()
        assert model.branch(Forest()) == model.one

    def test_single_vertex(self):
        model = small_model()
        assert model.branch(tree_forest(leaf(2))) == model.op(model.embed(2))

    def test_corolla(self):
        model = small_model()
        tree = Tree(1, (leaf(2), leaf(3)))
        direct = model.op(
            model.embed(1) * model.branch_tree(leaf(2)) * model.branch_tree(leaf(3))
        )
        assert model.branch(tree_forest(tree)) == direct

    def test_multiplicative_over_concat(self):
        model = small_model()
        pool = [f for f in forests_up_to(2, (1, 2)) if f]
        for a in pool:
            for b in pool:
                both = model.branch(Forest(a.trees + b.trees))
                assert both == model.branch(a) * model.branch(b)

    def test_linear_over_combinations(self):
        model = small_model()
        comb = LinComb.of(tree_forest(leaf(1)), Fraction(1, 2)) + LinComb.of(
            tree_forest(leaf(2)), -3
        )
        expected = model.branch(tree_forest(leaf(1))) * Fraction(1, 2) + model.branch(
            tree_forest(leaf(2))
        ) * (-3)
        assert model.branch(comb) == expected


class TestBranchWords:
    def test_empty(self):
        model = small_model()
        assert model.branch_word(Word()) == model.one

    def test_single_letter(self):
        model = small_model()
        assert model.branch_word(Word([3])) == model.op(model.embed(3))

    def test_two_letters(self):
        model = small_model()
        inner = model.op(model.embed(2))
        assert model.branch_word(Word([1, 2])) == model.op(model.embed(1) * inner)

    def test_agrees_with_branch_on_ladders(self):
        from arbozeta.trees import ladder

        model = small_model()
        for comp in [(2,), (1, 2), (3, 1, 2)]:
            assert model.branch(ladder(comp)) == model.branch_word(Word(comp))


class TestModelValue:
    """A model compares, hashes and prints by its five fields, not by its memos."""

    def test_equality_ignores_the_memos(self):
        model = small_model()
        twin = OperatorModel(model.name, model.one, model.op, model.embed, model.weight)
        model.branch(tree_forest(b_plus(2, tree_forest(leaf(1)))))
        model.branch_word(Word([2, 1]))
        assert model._tree_cache and model._word_cache
        assert not twin._tree_cache and not twin._word_cache
        assert model == twin and hash(model) == hash(twin)
        assert model != OperatorModel(model.name, model.one, model.op, model.embed, -1)
        assert model != small_model()  # a fresh embedding function

    def test_repr_lists_the_fields(self):
        model = integration_model()
        assert repr(model) == (
            f"OperatorModel(name='integration', one={model.one!r}, op={model.op!r}, "
            f"embed={model.embed!r}, weight=0)"
        )

    def test_immutable(self):
        model = small_model()
        for field in ("name", "weight", "_tree_cache", "other"):
            with pytest.raises(AttributeError):
                setattr(model, field, None)
            with pytest.raises(AttributeError):
                delattr(model, field)


class TestRotaBaxter:
    def test_integration_weight_zero(self):
        samples = [
            (PolyQ.monomial(i), PolyQ.monomial(j)) for i in range(5) for j in range(5)
        ]
        assert check_rota_baxter(integrate_from_zero, samples, 0)
        assert not check_rota_baxter(integrate_from_zero, samples, 1)

    def test_cumulative_sums(self):
        seqs = [TruncSeq.power(n, 10) for n in (1, 2, 3)]
        pairs = [(a, b) for a in seqs for b in seqs]
        assert check_rota_baxter(cumsum_inclusive, pairs, -1)
        assert check_rota_baxter(cumsum_strict, pairs, 1)
        assert not check_rota_baxter(cumsum_strict, pairs, -1)

    def test_broken_operator_fails(self):
        model = broken_sum_model(10)
        pairs = [(model.embed(1), model.embed(2))]
        assert not check_rota_baxter(model.op, pairs, model.weight)


class TestFactorization:
    def test_two_vertex_forest_is_rb_identity(self):
        for model in (strict_sum_model(10), nonstrict_sum_model(10), integration_model()):
            assert verify_factorization(model, Forest((leaf(1), leaf(2))))

    def test_empty(self):
        model = strict_sum_model(10)
        assert verify_factorization(model, Forest())

    def test_spec_instance(self):
        forest = tree_forest(Tree(2, (leaf(1), leaf(3))))
        assert verify_factorization(strict_sum_model(12), forest)

    def test_broken_operator_violates(self):
        broken = broken_sum_model(12)
        violated = False
        for forest in forests_up_to(2, (1, 2, 3)):
            if forest and not verify_factorization(broken, forest):
                violated = True
                break
        assert violated

    def test_exhaustive_small(self):
        models = (strict_sum_model(9), nonstrict_sum_model(9), integration_model())
        for model in models:
            for forest in forests_up_to(3, (1, 2)):
                assert verify_factorization(model, forest)


class TestTreeShuffleMorphism:
    def test_single_vertices_is_rb_identity(self):
        for model in (strict_sum_model(10), nonstrict_sum_model(10), integration_model()):
            assert verify_tree_shuffle_morphism(model, tree_forest(leaf(1)), tree_forest(leaf(2)))

    def test_trivial_with_empty(self):
        model = strict_sum_model(10)
        assert verify_tree_shuffle_morphism(model, Forest(), tree_forest(leaf(2)))

    def test_spec_instance(self):
        model = strict_sum_model(12)
        assert verify_tree_shuffle_morphism(
            model, tree_forest(b_plus(2, tree_forest(leaf(2)))), tree_forest(leaf(3))
        )

    def test_exhaustive_small(self):
        models = (strict_sum_model(9), nonstrict_sum_model(9), integration_model())
        pool = [f for f in forests_up_to(2, (1, 2)) if f]
        for model in models:
            for a in pool:
                for b in pool:
                    assert verify_tree_shuffle_morphism(model, a, b)


def small_words():
    """Every word of length <= 3 over {1, 2, 3}."""
    return [letters for k in range(4) for letters in product((1, 2, 3), repeat=k)]


def nested_sum(letters, horizon, strict):
    """sum over N > m_1 > ... > m_k >= 1 (or N >= m_1 >= ... >= m_k >= 1) of prod m_i^-n_i."""
    out = []
    for n in range(1, horizon + 1):
        if strict:
            chains = combinations(range(1, n), len(letters))
        else:
            chains = combinations_with_replacement(range(1, n + 1), len(letters))
        total = Fraction(0)
        for chain in chains:
            term = Fraction(1)
            for m, e in zip(reversed(chain), letters):
                term /= m**e
            total += term
        out.append(total)
    return tuple(out)


class TestCarriersAgainstRationals:
    @pytest.mark.parametrize("strict", [True, False])
    def test_cumulative_sums_are_nested_sums(self, strict):
        model = strict_sum_model(12) if strict else nonstrict_sum_model(12)
        for letters in small_words():
            expected = nested_sum(letters, 12, strict)
            assert model.branch_word(Word(letters)).values == expected, letters

    def test_integration_is_iterated_integral(self):
        # x^{S_1} / (S_1 S_2 ... S_k) with S_j = sum_{i >= j} (n_i + 1)
        model = integration_model()
        for letters in small_words():
            tails = [sum(n + 1 for n in letters[j:]) for j in range(len(letters))]
            degree = tails[0] if tails else 0
            expected = (0,) * degree + (Fraction(1, prod(tails)),)
            assert model.branch_word(Word(letters)).coeffs == expected, letters

    @pytest.mark.parametrize("model", [strict_sum_model(12), integration_model()], ids=lambda m: m.name)
    def test_equality_ignores_representation(self, model):
        u = model.branch_word(Word([2, 1])) * Fraction(1, 2)
        v = model.branch_word(Word([2])) * Fraction(1, 6)
        assert u.den != v.den
        assert (u * Fraction(1, 3)) * 3 == u
        assert hash((u * Fraction(1, 3)) * 3) == hash(u)
        assert u * 0 == model.one * 0
        assert hash(u * 0) == hash(model.one * 0)
        total = u + v
        longer, shorter = (u, v) if len(u.nums) >= len(v.nums) else (v, u)
        padded = shorter.nums + (0,) * (len(longer.nums) - len(shorter.nums))
        by_hand = type(u)._new(
            tuple(a * shorter.den + b * longer.den for a, b in zip(longer.nums, padded)),
            u.den * v.den,
        )
        assert by_hand.den != total.den
        assert total == by_hand
        assert hash(total) == hash(by_hand)
        assert total != u

    def test_values_and_coeffs_are_fractions(self):
        assert TruncSeq.power(2, 3).values == (Fraction(1), Fraction(1, 4), Fraction(1, 9))
        assert TruncSeq((Fraction(1, 2), 3)).values == (Fraction(1, 2), Fraction(3))
        assert PolyQ.monomial(3, Fraction(2, 5)).coeffs == (0, 0, 0, Fraction(2, 5))
        assert PolyQ((1, Fraction(1, 2), 0)).coeffs == (1, Fraction(1, 2))
        assert PolyQ.monomial(2, 0).coeffs == ()
