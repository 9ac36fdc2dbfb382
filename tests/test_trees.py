import copy
import math
import multiprocessing
import os
import pickle
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from arbozeta.errors import AlphabetMismatch, InvalidDecoration, UnsupportedAlphabet
from arbozeta.lincomb import LinComb
from arbozeta.trees import (
    EMPTY_FOREST,
    Alphabet,
    Forest,
    Tree,
    _canonical,
    b_plus,
    concat_forests,
    ladder,
    leaf,
    tree_forest,
)
from arbozeta.catalog import forests_with_vertices, trees_with_weight
from arbozeta.forest_algebra import (
    binarise_forest,
    clear_forest_caches,
    debinarise_forest,
    flatten_forest,
    shuffle_forests_basis,
)
from arbozeta.syntax import parse_expression
from arbozeta.words import (
    EMPTY_WORD,
    Word,
    binarise,
    clear_shuffle_cache,
    concat_words,
    debinarise,
    shuffle_words_basis,
)
from arbozeta.zeta import clear_mzv_cache


def raw_trees(decorations=(1, 2, 3), max_depth=3):
    return st.recursive(
        st.tuples(st.sampled_from(decorations), st.just(())),
        lambda children: st.tuples(
            st.sampled_from(decorations), st.lists(children, max_size=3).map(tuple)
        ),
        max_leaves=12,
    )


def build(raw) -> Tree:
    dec, children = raw
    return Tree(dec, tuple(build(c) for c in children))


def build_unchecked(raw) -> Tree:
    dec, children = raw
    return Tree._unchecked(dec, _canonical(tuple(build_unchecked(c) for c in children)))


def rebuild(value):
    """``value`` built again through the public constructors, from reversed children."""
    if isinstance(value, Word):
        return Word(list(value.letters))
    if isinstance(value, Tree):
        return Tree(value.decoration, [rebuild(c) for c in reversed(value.children)])
    return Forest([rebuild(t) for t in reversed(value.trees)])


def keys(value) -> tuple:
    """Everything a dict, a sort or a grading reads from a tree, forest or word."""
    size = len(value) if isinstance(value, Word) else value.vertex_count
    return value, hash(value), value.sort_key, value.alphabet, size


ALPHABETS = [(1, 2, 3), ("x", "y"), ("ab", "c")]

# Coefficients of the LinComb arithmetic test: ints, units and Fractions.
_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1, -1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
_BASES = [
    Forest(),
    tree_forest(leaf(1)),
    tree_forest(leaf(2)),
    Forest((leaf(1), leaf(2))),
    tree_forest(b_plus(1, tree_forest(leaf(2)))),
]


class TestCanonicalization:
    def test_children_order_is_immaterial(self):
        left = b_plus(2, tree_forest(leaf(1), leaf(3)))
        right = b_plus(2, tree_forest(leaf(3), leaf(1)))
        assert left == right
        assert hash(left) == hash(right)

    def test_single_vertex_is_fixed_point(self):
        assert leaf(5) == Tree(5)

    def test_ladder_levels_are_singletons(self):
        tree = b_plus(1, tree_forest(b_plus(2, EMPTY_FOREST)))
        assert len(tree.children) == 1
        assert tree.children[0].decoration == 2
        assert not tree.children[0].children

    @given(raw_trees())
    def test_idempotent(self, raw):
        tree = build(raw)
        again = Tree(tree.decoration, tree.children)
        assert tree == again
        assert tree.children == tuple(sorted(tree.children, key=lambda t: t.sort_key))

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(AlphabetMismatch):
            Tree(2, (leaf("x"),))
        with pytest.raises(AlphabetMismatch):
            Forest((leaf(2), leaf("y")))

    def test_bad_decorations_rejected(self):
        with pytest.raises(InvalidDecoration):
            leaf(0)
        with pytest.raises(InvalidDecoration):
            leaf(-3)


class TestGrafting:
    def test_empty_forest_gives_single_vertex(self):
        assert b_plus(7, EMPTY_FOREST) == leaf(7)

    def test_single_tree_gives_ladder(self):
        tree = b_plus(1, tree_forest(leaf(2)))
        assert tree.vertex_count == 2
        assert tree_forest(tree) == ladder([1, 2])

    def test_two_trees_give_corolla(self):
        tree = b_plus(1, tree_forest(leaf(2), leaf(3)))
        assert tree.vertex_count == 3
        assert len(tree.children) == 2

    def test_vertex_count(self):
        forest = tree_forest(leaf(1), b_plus(2, tree_forest(leaf(1))))
        assert b_plus(3, forest).vertex_count == 1 + forest.vertex_count


class TestConcat:
    def test_unit(self):
        f = tree_forest(leaf(2), leaf(3))
        assert concat_forests(EMPTY_FOREST, f) == f
        assert concat_forests(f, EMPTY_FOREST) == f

    def test_commutative(self):
        a, b = tree_forest(leaf(2)), tree_forest(leaf(3))
        assert concat_forests(a, b) == concat_forests(b, a)

    def test_multiset_union(self):
        out = concat_forests(Forest((leaf(2), leaf(2))), tree_forest(leaf(4)))
        assert out.vertex_count == 3
        assert list(out.vertices()).count(2) == 2

    def test_exhaustive_monoid_laws_small(self):
        from arbozeta.catalog import forests_up_to

        pool = list(forests_up_to(2, (1, 2)))
        for a in pool:
            for b in pool:
                assert concat_forests(a, b) == concat_forests(b, a)
                for c in pool:
                    assert concat_forests(concat_forests(a, b), c) == concat_forests(
                        a, concat_forests(b, c)
                    )

    @given(raw_trees(), raw_trees())
    def test_gradings_additive(self, raw_a, raw_b):
        fa, fb = tree_forest(build(raw_a)), tree_forest(build(raw_b))
        both = concat_forests(fa, fb)
        assert both.vertex_count == fa.vertex_count + fb.vertex_count
        assert both.weight() == fa.weight() + fb.weight()
        ones = lambda f: list(f.vertices()).count(1)
        assert ones(both) == ones(fa) + ones(fb)


class TestGradings:
    def test_hand_counts(self):
        forest = tree_forest(b_plus(2, tree_forest(leaf(1), leaf(1))))
        assert forest.vertex_count == 3
        assert forest.weight() == 4
        assert list(forest.vertices()).count(1) == 2

    def test_empty(self):
        assert EMPTY_FOREST.vertex_count == 0
        assert EMPTY_FOREST.weight() == 0

    def test_weight_needs_posint(self):
        with pytest.raises(UnsupportedAlphabet):
            tree_forest(leaf("x")).weight()


class TestLinComb:
    def test_additive_inverse(self):
        a = LinComb.of(tree_forest(leaf(2)), 3)
        assert (a + a.scale(-1)).is_zero()

    def test_scaling(self):
        a = LinComb.of(tree_forest(leaf(2)), 2)
        assert a.scale(Fraction(1, 2)) == LinComb.of(tree_forest(leaf(2)), 1)

    def test_bilinear_concat(self):
        a = LinComb.of(tree_forest(leaf(2))) + LinComb.of(tree_forest(leaf(3)))
        b = LinComb.of(tree_forest(leaf(4)))
        out = a.bilinear(b, concat_forests)
        assert out == LinComb(
            {Forest((leaf(2), leaf(4))): 1, Forest((leaf(3), leaf(4))): 1}
        )

    def test_integer_coefficients_stay_ints(self):
        a = LinComb.of(tree_forest(leaf(2)), Fraction(4, 2))
        assert isinstance(a.coefficient(tree_forest(leaf(2))), int)

    @given(
        st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(-4, 4)), max_size=5),
        st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(-4, 4)), max_size=5),
        st.lists(st.tuples(st.sampled_from([1, 2, 3]), st.integers(-4, 4)), max_size=5),
    )
    def test_ring_laws_on_forest_basis(self, xs, ys, zs):
        def comb(pairs):
            return LinComb((tree_forest(leaf(d)), c) for d, c in pairs)

        a, b, c = comb(xs), comb(ys), comb(zs)
        mul = lambda u, v: u.bilinear(v, concat_forests)
        assert mul(a, b) == mul(b, a)
        assert mul(a, b + c) == mul(a, b) + mul(a, c)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_zero_coefficients_dropped(self):
        comb = LinComb({tree_forest(leaf(2)): 1}) + LinComb({tree_forest(leaf(2)): -1})
        assert len(comb) == 0

    def test_combination_is_unhashable(self):
        with pytest.raises(TypeError, match="unhashable"):
            hash(LinComb.of(tree_forest(leaf(2))))

    @given(
        st.lists(st.tuples(st.integers(0, 4), _COEFFS), max_size=6),
        st.lists(st.tuples(st.integers(0, 4), _COEFFS), max_size=6),
        _COEFFS,
        st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.lists(_COEFFS, max_size=3)),
    )
    def test_arithmetic_matches_a_fraction_reference(self, xs, ys, q, table):
        def comb(pairs):
            return LinComb((_BASES[i], c) for i, c in pairs)

        def reference(pairs, sign=1, start=None):
            out = dict(start or {})
            for i, c in pairs:
                out[_BASES[i]] = out.get(_BASES[i], Fraction(0)) + sign * Fraction(c)
            return {b: c for b, c in out.items() if c}

        def product(u, v):
            """Concatenation, or for pairs in ``table`` a combination of it and both factors."""
            coeffs = table.get((_BASES.index(u), _BASES.index(v)))
            if coeffs is None:
                return concat_forests(u, v)
            return LinComb(zip((concat_forests(u, v), u, v), coeffs))

        def reference_product(pairs_a, pairs_b):
            out: dict = {}
            for b1, c1 in reference(pairs_a).items():
                for b2, c2 in reference(pairs_b).items():
                    res = product(b1, b2)
                    for b, c in (res.items() if isinstance(res, LinComb) else [(res, 1)]):
                        out[b] = out.get(b, Fraction(0)) + c1 * c2 * c
            return {b: c for b, c in out.items() if c}

        a, b = comb(xs), comb(ys)
        want_a, want_b = reference(xs), reference(ys)
        cases = [
            (a + b, reference(ys, start=want_a)),
            (a - b, reference(ys, -1, want_a)),
            (a.scale(q), {f: c * q for f, c in want_a.items() if c * q}),
            (a.bilinear(b, product), reference_product(xs, ys)),
        ]
        for got, want in cases:
            assert dict(got.items()) == want
            for c in got._terms.values():
                assert c != 0
                assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)


class TestLadders:
    def test_roundtrip(self):
        forest = ladder([2, 1, 3])
        assert list(forest.vertices()) == [2, 1, 3]
        assert forest.trees[0].is_ladder()

    def test_branching_detection(self):
        assert not Tree(2, (leaf(1), leaf(1))).is_ladder()


class TestValueContract:
    @given(st.sampled_from(ALPHABETS).flatmap(lambda decs: st.lists(raw_trees(decs), max_size=3)))
    def test_checked_and_unchecked_construction_agree(self, raws):
        for raw in raws:
            assert keys(build(raw)) == keys(build_unchecked(raw))
        checked = Forest(tuple(build(raw) for raw in raws))
        assert keys(checked) == keys(Forest._unchecked(_canonical(tuple(build_unchecked(raw) for raw in raws))))

    @given(st.sampled_from(ALPHABETS).flatmap(lambda decs: st.tuples(raw_trees(decs), st.randoms())))
    def test_any_child_order_gives_equal_values(self, case):
        (dec, raw_children), rng = case
        children = [build(c) for c in raw_children]
        tree, forest = Tree(dec, children), Forest(children)
        rng.shuffle(children)
        assert keys(Tree(dec, children)) == keys(tree)
        assert keys(Tree._unchecked(dec, _canonical(tuple(children)))) == keys(tree)
        assert keys(Forest(children)) == keys(forest)
        assert keys(Forest._unchecked(_canonical(tuple(children)))) == keys(forest)

    @given(st.lists(raw_trees(), max_size=3), st.lists(raw_trees(), max_size=3), st.sampled_from((1, 2, 3)))
    def test_unchecked_builders_give_canonical_forests(self, raws_a, raws_b, dec):
        # Grafting, concatenation, removal and the binarisation maps build
        # through the unsorted constructors; each result must equal its rebuild.
        a, b = Forest(map(build, raws_a)), Forest(map(build, raws_b))
        both = concat_forests(a, b)
        derived = [tree_forest(b_plus(dec, a)), both, binarise_forest(both), debinarise_forest(binarise_forest(both))]
        derived += [both.without(i) for i in range(len(both.trees))]
        # The word products build their terms through Word._unchecked too.
        u, v = Word(list(a.vertices())[:3]), Word(list(b.vertices())[:3])
        derived += [concat_words(u, v), binarise(concat_words(u, v)), debinarise(binarise(u))]
        derived += list(shuffle_words_basis(u, v, 1)) + list(shuffle_words_basis(binarise(u), binarise(v), 0))
        for value in derived:
            assert keys(value) == keys(rebuild(value))

    def test_keys_are_computed_at_construction(self):
        tree = Tree(2, (leaf(3), Tree(1, (leaf(1),))))
        assert tree.children == (Tree(1, (leaf(1),)), leaf(3))
        assert tree.sort_key == ((0, 2, ""), (((0, 1, ""), (((0, 1, ""), ()),)), ((0, 3, ""), ())))
        assert (tree.alphabet, tree.vertex_count) == (Alphabet.POSINT, 4) and tree is Tree._unchecked(2, tree.children)
        forest = Forest((leaf("y"), leaf("x")))
        assert forest.sort_key == (((1, 0, ""), ()), ((1, 1, ""), ()))
        assert (forest.alphabet, forest.vertex_count) == (Alphabet.XY, 2) and forest is Forest._unchecked(forest.trees)
        assert (EMPTY_FOREST.sort_key, EMPTY_FOREST.alphabet, EMPTY_FOREST.vertex_count) == ((), None, 0)
        assert {"sort_key", "alphabet"} <= set(Word.__slots__)
        word = Word((2, 1))
        assert (word.sort_key, word.alphabet) == ((2, 1), Alphabet.POSINT) and word is Word._unchecked(word.letters)
        assert word.sort_key is word.letters
        word = Word("xy")
        assert (word.sort_key, word.alphabet) == ((math.inf, 0, ("x", "y")), Alphabet.XY) and word is Word._unchecked(word.letters)
        assert (EMPTY_WORD.sort_key, EMPTY_WORD.alphabet) == ((), None)

    @pytest.mark.parametrize(
        "value, fields",
        [
            (Tree(2, (leaf(1),)), ("decoration", "children", "sort_key", "alphabet", "vertex_count")),
            (Forest((leaf(2), leaf(1))), ("trees", "sort_key", "alphabet", "vertex_count", "text")),
            (Word((2, 1)), ("letters", "sort_key", "alphabet", "text")),
        ],
    )
    def test_values_are_immutable_and_have_no_instance_dict(self, value, fields):
        assert not hasattr(value, "__dict__")
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin is value


def _values_in_worker(_):
    """A tree, a forest and a word built in a worker process, to be pickled back."""
    return Tree(2, (leaf(1), leaf(3))), ladder((3, 1, 2)), Word((2, 1))


class TestHashConsing:
    """Equal values are one object, whichever route built them."""

    def test_parse_gives_the_constructed_value(self):
        tree = Tree(2, (leaf(1), Tree(3, (leaf(1),))))
        assert parse_expression("2[3[1],1]") is tree_forest(tree)
        assert parse_expression("2[3[1],1] 1").trees[1] is tree
        assert parse_expression("(2,1)") is Word((2, 1))

    def test_grafting_and_ladders(self):
        forest = Forest((leaf(1), leaf(2)))
        assert b_plus(3, forest) is Tree(3, (leaf(2), leaf(1))) is Tree._unchecked(3, forest.trees)
        assert ladder((2, 1)) is tree_forest(b_plus(2, tree_forest(leaf(1)))) is Forest([Tree(2, [Tree(1)])])

    def test_catalog(self):
        for forest in forests_with_vertices(4, (1, 2)):
            assert Forest(rebuild(t) for t in forest.trees) is forest
        for tree in trees_with_weight(5):
            assert rebuild(tree) is tree

    def test_tree_shuffle_contraction(self):
        # The recursion builds the contracted root 2 + 1 itself.
        terms = list(shuffle_forests_basis(ladder((2,)), ladder((1,)), 1))
        [contracted] = [f for f in terms if f.vertex_count == 1]
        assert contracted is ladder((3,))
        assert set(terms) == {contracted, ladder((2, 1)), ladder((1, 2))}

    def test_binarisation_round_trip(self):
        forest = Forest((Tree(2, (leaf(1), leaf(3))), leaf(2)))
        binary = binarise_forest(forest)
        assert binarise_forest(rebuild(forest)) is binary
        assert debinarise_forest(binary) is forest

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_value_from_a_forked_worker(self):
        with multiprocessing.get_context("fork").Pool(1) as pool:
            [returned] = pool.map(_values_in_worker, [0])
        for got, built in zip(returned, _values_in_worker(0)):
            assert got is built

    @pytest.mark.parametrize("clear", [clear_shuffle_cache, clear_forest_caches, clear_mzv_cache])
    def test_rebuilt_after_each_cache_clear(self, clear):
        def build():
            forest = Forest((Tree(2, (leaf(1),)), leaf(3)))
            return [
                *shuffle_words_basis(Word((2, 1)), Word((3,)), 1),
                *shuffle_forests_basis(forest, ladder((2, 1)), 1),
                *flatten_forest(forest, 1),
            ]

        before = build()
        clear()
        after = build()
        assert len(before) == len(after) and all(old is new for old, new in zip(before, after))
