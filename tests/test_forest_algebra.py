import pytest
from fractions import Fraction

from arbozeta.catalog import (
    forests_up_to,
    forests_up_to_weight,
    linear_extension_count,
)
from arbozeta.errors import DomainError, NotInImage, SemigroupRequired
from arbozeta.forest_algebra import (
    ConvergenceClass,
    associator,
    binarise_forest,
    binarise_tree,
    concat_comb,
    convergence_class,
    debinarise_forest,
    debinarise_tree,
    flatten,
    flatten_forest,
    shuffle_forests,
    shuffle_forests_basis,
)
from arbozeta.lincomb import LinComb
from arbozeta.trees import (
    EMPTY_FOREST,
    Alphabet,
    Forest,
    Tree,
    b_plus,
    concat_forests,
    ladder,
    leaf,
    tree_forest,
)
from arbozeta.words import MAX_WEIGHT, Word, shuffle_words


class TestFlatten:
    def test_unit(self):
        assert flatten_forest(EMPTY_FOREST, 1) == LinComb.of(Word())

    def test_two_vertices_stuffle(self):
        out = flatten_forest(Forest((leaf(2), leaf(2))), 1)
        assert out == LinComb({Word([2, 2]): 2, Word([4]): 1})

    def test_binary_corolla(self):
        out = flatten_forest(tree_forest(b_plus("x", tree_forest(leaf("y"), leaf("y")))), 0)
        assert out == LinComb({Word("xyy"): 2})

    def test_contraction_needs_semigroup(self):
        with pytest.raises(SemigroupRequired):
            flatten_forest(tree_forest(leaf("y")), 1)

    def test_morphism_exhaustive(self):
        pool = list(forests_up_to(2, (1, 2)))
        for lam in (-1, 0, 1):
            for a in pool:
                for b in pool:
                    lhs = flatten_forest(concat_forests(a, b), lam)
                    rhs = shuffle_words(flatten_forest(a, lam), flatten_forest(b, lam), lam)
                    assert lhs == rhs

    def test_integer_coefficients(self):
        for forest in forests_up_to(4, (1, 2)):
            for lam in (-1, 0, 1, 2):
                assert flatten_forest(forest, lam).all_integer()

    def test_rational_lambda_rational_coefficients(self):
        out = flatten_forest(Forest((leaf(2), leaf(2))), Fraction(1, 3))
        assert out.coefficient(Word([4])) == Fraction(1, 3)

    def test_ladders_flatten_to_words(self):
        assert flatten_forest(ladder([3, 1, 2]), 1) == LinComb.of(Word([3, 1, 2]))

    def test_linear_extension_counts(self):
        for forest in forests_up_to(6, (1,)):
            count = flatten_forest(forest, 0).coefficient_sum()
            assert count == linear_extension_count(forest)


class TestTreeShuffle:
    def test_unit(self):
        f = tree_forest(b_plus(2, tree_forest(leaf(1))))
        assert shuffle_forests_basis(EMPTY_FOREST, f, 1) == LinComb.of(f)

    def test_single_vertices(self):
        out = shuffle_forests_basis(tree_forest(leaf(2)), tree_forest(leaf(2)), 1)
        expected = LinComb(
            {tree_forest(b_plus(2, tree_forest(leaf(2)))): 2, tree_forest(leaf(4)): 1}
        )
        assert out == expected

    def test_forest_against_vertex(self):
        # 1/(k n) redistribution over the two trees of the left factor.
        n, m, p = 2, 3, 4
        out = shuffle_forests_basis(Forest((leaf(n), leaf(m))), tree_forest(leaf(p)), 1)

        def graft(a, b):
            return tree_forest(b_plus(a, tree_forest(leaf(b))))

        expected = (
            concat_comb(
                LinComb.of(tree_forest(leaf(n))),
                LinComb.of(graft(m, p)) + LinComb.of(graft(p, m)) + LinComb.of(tree_forest(leaf(m + p))),
            )
            + concat_comb(
                LinComb.of(tree_forest(leaf(m))),
                LinComb.of(graft(n, p)) + LinComb.of(graft(p, n)) + LinComb.of(tree_forest(leaf(n + p))),
            )
        ).scale(Fraction(1, 2))
        assert out == expected

    def test_commutative_small(self):
        pool = [f for f in forests_up_to(2, (1, 2))]
        for lam in (-1, 0, 1):
            for a in pool:
                for b in pool:
                    assert shuffle_forests_basis(a, b, lam) == shuffle_forests_basis(b, a, lam)

    def test_semigroup_requirement(self):
        with pytest.raises(SemigroupRequired):
            shuffle_forests_basis(tree_forest(leaf("x")), tree_forest(leaf("y")), 1)

    def test_terms_are_canonical(self):
        # Terms built inside the recursion equal their rebuild, from reversed
        # children, through the public constructors.
        def rebuild(tree):
            return Tree(tree.decoration, tuple(rebuild(c) for c in reversed(tree.children)))

        a = Forest((leaf(2), b_plus(1, tree_forest(leaf(3), leaf(1)))))
        b = Forest((leaf(1), b_plus(3, tree_forest(leaf(2)))))
        for lam in (-1, 0, 1):
            for f in shuffle_forests_basis(a, b, lam):
                assert Forest(tuple(rebuild(t) for t in reversed(f.trees))) == f

    def test_gradings(self):
        a = Forest((leaf(2), leaf(3)))
        b = tree_forest(b_plus(2, tree_forest(leaf(1))))
        for lam in (-1, 1):
            out = shuffle_forests_basis(a, b, lam)
            assert all(f.weight() == a.weight() + b.weight() for f in out)
        out = shuffle_forests_basis(a, b, 0)
        assert all(f.vertex_count == a.vertex_count + b.vertex_count for f in out)


class TestAssociator:
    def test_unit_absorbs(self):
        f2 = tree_forest(leaf(2))
        f3 = Forest((leaf(2), leaf(3)))
        assert associator(EMPTY_FOREST, f2, f3, 1).is_zero()

    def test_identical_single_trees_vanish(self):
        # Commutativity forces (a sh a) sh a = a sh (a sh a).
        t = tree_forest(leaf(2))
        assert associator(t, t, t, 1).is_zero()

    def test_nonassociativity_witness(self):
        out = associator(Forest((leaf(2), leaf(2))), tree_forest(leaf(2)), tree_forest(leaf(2)), 1)
        assert not out.is_zero()

    def test_four_point_expansion(self):
        # Brute-force expansion of both association orders for the plain
        # shuffle: 1/4 of the published product pairs minus 1/4 of the
        # twelve chain-times-leaf terms.
        from itertools import permutations

        a, b, c, d = "a", "b", "c", "d"
        lhs = associator(
            Forest((leaf(a), leaf(b))), tree_forest(leaf(c)), tree_forest(leaf(d)), 0
        )

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
        assert lhs == products.scale(Fraction(1, 4)) - deep.scale(Fraction(1, 4))


class TestBranchedBinarisation:
    def test_examples(self):
        assert binarise_tree(leaf(1)) == leaf("y")
        assert binarise_tree(leaf(2)) == b_plus("x", tree_forest(leaf("y")))
        assert binarise_forest(EMPTY_FOREST) == EMPTY_FOREST
        corolla = Tree(2, (leaf(1), leaf(1)))
        assert binarise_tree(corolla) == b_plus(
            "x", tree_forest(b_plus("y", tree_forest(leaf("y"), leaf("y"))))
        )

    def test_roundtrip_and_grading(self):
        for forest in forests_up_to_weight(6):
            image = binarise_forest(forest)
            assert image.vertex_count == forest.weight()
            assert debinarise_forest(image) == forest
            conv = convergence_class(forest) is ConvergenceClass.CONV_POSINT
            assert (convergence_class(image, Alphabet.XY) is ConvergenceClass.CONV_XY) == conv

    def test_weight_bounded(self):
        chain = ladder([MAX_WEIGHT - 1, 1])
        assert binarise_forest(chain).vertex_count == MAX_WEIGHT
        heavy = Tree(MAX_WEIGHT, (leaf(1),))
        with pytest.raises(DomainError, match="^tree to binarise of weight 257 "):
            binarise_tree(heavy)
        with pytest.raises(DomainError, match="^tree to binarise of weight 257 "):
            binarise_forest(concat_forests(chain, tree_forest(heavy)))
        assert binarise_forest(concat_forests(chain, chain)).vertex_count == 2 * MAX_WEIGHT
        with pytest.raises(SemigroupRequired):
            binarise_forest(tree_forest(leaf("x")))

    def test_rejects_off_image(self):
        with pytest.raises(NotInImage):
            debinarise_tree(leaf("x"))
        with pytest.raises(NotInImage):
            debinarise_tree(Tree("x", (leaf("y"), leaf("y"))))

    def test_image_is_semiconvergent(self):
        for forest in forests_up_to(5, ("x", "y")):
            semi = convergence_class(forest, Alphabet.XY).is_semiconvergent
            try:
                back = debinarise_forest(forest)
                ok = True
                assert binarise_forest(back) == forest
            except NotInImage:
                ok = False
            assert ok == semi


class TestConvergence:
    def test_posint(self):
        assert convergence_class(tree_forest(Tree(2, (leaf(1),)))) is ConvergenceClass.CONV_POSINT
        assert (
            convergence_class(tree_forest(Tree(1, (leaf(2),))))
            is ConvergenceClass.NOT_CONVERGENT
        )

    def test_empty_is_convergent(self):
        assert convergence_class(EMPTY_FOREST) is ConvergenceClass.CONV_POSINT
        assert convergence_class(EMPTY_FOREST, Alphabet.XY) is ConvergenceClass.CONV_XY

    def test_binary_classes(self):
        conv = tree_forest(b_plus("x", tree_forest(b_plus("y", tree_forest(leaf("y"), leaf("y"))))))
        assert convergence_class(conv, Alphabet.XY) is ConvergenceClass.CONV_XY
        semi = tree_forest(leaf("y"))
        assert convergence_class(semi, Alphabet.XY) is ConvergenceClass.SEMI_XY
        bad = tree_forest(leaf("x"))
        assert convergence_class(bad, Alphabet.XY) is ConvergenceClass.NOT_CONVERGENT

    def test_stability_under_shuffles(self):
        pool = [f for f in forests_up_to_weight(5) if convergence_class(f) is ConvergenceClass.CONV_POSINT]
        for a in pool[:20]:
            for b in pool[:20]:
                for lam in (-1, 1):
                    out = shuffle_forests_basis(a, b, lam)
                    assert all(convergence_class(f) is ConvergenceClass.CONV_POSINT for f in out)

    def test_ladder_compatibility(self):
        from arbozeta.words import binarise

        for comp in [(2,), (3, 1), (2, 1, 2), (4, 2)]:
            lad = ladder(comp)
            lhs = flatten(binarise_forest(lad), 0)
            assert lhs == LinComb.of(binarise(Word(comp)))
