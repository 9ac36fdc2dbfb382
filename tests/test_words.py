import math
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from arbozeta.errors import (
    AlphabetMismatch,
    DomainError,
    InvalidDecoration,
    NotSemiconvergent,
    SemigroupRequired,
    UnsupportedAlphabet,
)
from arbozeta.lincomb import LinComb
from arbozeta.trees import decoration_key
from arbozeta.words import (
    EMPTY_WORD,
    MAX_TERMS,
    MAX_WEIGHT,
    Word,
    _shuffle_terms,
    binarise,
    concat_words,
    debinarise,
    is_convergent_word,
    is_semiconvergent_word,
    shuffle_words,
    shuffle_words_basis,
)

compositions = st.lists(st.integers(1, 4), max_size=5).map(tuple)
# Words over each of the three alphabets; each list may be empty.
any_words = st.one_of(
    st.lists(st.integers(1, 12), max_size=4),
    st.lists(st.sampled_from("xy"), max_size=4),
    st.lists(st.text("abz", min_size=1, max_size=2), max_size=4),
).map(Word)


class TestValidation:
    @pytest.mark.parametrize(
        "letters, error",
        [
            ((2, "x"), AlphabetMismatch),
            ((0,), InvalidDecoration),
            ((True,), InvalidDecoration),
            (("",), InvalidDecoration),
            ((1.5,), InvalidDecoration),
        ],
    )
    def test_constructor_rejects(self, letters, error):
        with pytest.raises(error):
            Word(letters)

    @pytest.mark.parametrize("letters", [(), (2, 1, 3), ("x", "y", "y")])
    def test_unchecked_word_is_the_same_key(self, letters):
        checked, unchecked = Word(letters), Word._unchecked(letters)
        # Equal words are one object, so a dict keyed by one finds the other.
        assert checked is unchecked is Word(list(letters))

    @given(st.lists(any_words, max_size=12))
    def test_sort_key_orders_as_the_decoration_keys(self, words):
        by_letters = sorted(words, key=lambda w: tuple(map(decoration_key, w.letters)))
        assert sorted(words, key=lambda w: w.sort_key) == by_letters


def lambda_shuffle_size(m: int, n: int, lam) -> Fraction:
    """Coefficient sum of a lambda-shuffle of words of lengths m and n:
    sum_k lam^k (m+n-k)! / (k! (m-k)! (n-k)!), the Delannoy number at lam = 1."""
    return sum(
        Fraction(lam) ** k * math.comb(m + n - k, k) * math.comb(m + n - 2 * k, m - k)
        for k in range(min(m, n) + 1)
    )


class TestConcat:
    def test_unit(self):
        w = Word([2, 1])
        assert concat_words(EMPTY_WORD, w) == w
        assert concat_words(w, EMPTY_WORD) == w

    def test_sequences(self):
        assert concat_words(Word([2]), Word([1, 3])) == Word([2, 1, 3])
        assert concat_words(Word("x"), Word("yy")) == Word("xyy")


class TestShuffles:
    def test_stuffle_of_two_letters(self):
        out = shuffle_words_basis(Word([2]), Word([3]), 1)
        assert out == LinComb({Word([2, 3]): 1, Word([3, 2]): 1, Word([5]): 1})

    def test_unit(self):
        w = Word([2, 1])
        for lam in (-1, 0, 1):
            assert shuffle_words_basis(w, EMPTY_WORD, lam) == LinComb.of(w)

    def test_plain_shuffle_on_letters(self):
        out = shuffle_words_basis(Word("x"), Word("y"), 0)
        assert out == LinComb({Word("xy"): 1, Word("yx"): 1})

    def test_contraction_needs_semigroup(self):
        with pytest.raises(SemigroupRequired):
            shuffle_words_basis(Word("x"), Word("y"), 1)

    def test_anti_stuffle_sign(self):
        out = shuffle_words_basis(Word([2]), Word([3]), -1)
        assert out.coefficient(Word([5])) == -1

    def test_rational_lambda(self):
        out = shuffle_words_basis(Word([2]), Word([3]), Fraction(1, 2))
        assert out.coefficient(Word([5])) == Fraction(1, 2)

    @given(compositions, compositions)
    def test_commutative(self, a, b):
        for lam in (-1, 0, 1):
            assert shuffle_words_basis(Word(a), Word(b), lam) == shuffle_words_basis(
                Word(b), Word(a), lam
            )

    @given(compositions, compositions)
    def test_shuffle_counts(self, a, b):
        out = shuffle_words_basis(Word(a), Word(b), 0)
        assert out.coefficient_sum() == math.comb(len(a) + len(b), len(a))
        assert all(len(t) == len(a) + len(b) for t in out)

    @pytest.mark.parametrize("lam", [0, -1, 1, 2, Fraction(1, 2)])
    @given(a=compositions, b=compositions)
    def test_lambda_shuffle_counts(self, lam, a, b):
        out = shuffle_words_basis(Word(a), Word(b), lam)
        assert out.coefficient_sum() == lambda_shuffle_size(len(a), len(b), lam)

    @given(compositions, compositions)
    def test_weight_conserved(self, a, b):
        for lam in (-1, 1):
            out = shuffle_words_basis(Word(a), Word(b), lam)
            assert all(t.weight() == sum(a) + sum(b) for t in out)

    def test_length_bound(self):
        """Two non-empty words of more than MAX_WEIGHT letters in all are refused after the alphabet checks."""
        long = Word([1] * MAX_WEIGHT)
        with pytest.raises(DomainError, match="^shuffle of words of 257 letters is above the length bound 256$"):
            shuffle_words_basis(long, Word([2]), 1)
        with pytest.raises(AlphabetMismatch):
            shuffle_words_basis(long, Word("x"), 0)
        with pytest.raises(SemigroupRequired):
            shuffle_words_basis(Word("x" * MAX_WEIGHT), Word("y"), 1)
        assert shuffle_words_basis(long, EMPTY_WORD, 1) == LinComb.of(long)

    def test_term_bound(self):
        """A product of more than MAX_TERMS terms, counted with multiplicity, is refused before its recursion."""
        for m, n in [(0, 5), (3, 4), (6, 6), (12, 12)]:
            assert _shuffle_terms(m, n, True) == lambda_shuffle_size(m, n, 1)
            assert _shuffle_terms(m, n, False) == math.comb(m + n, m)
        # At lambda = 0 the ones shuffle into one word whose coefficient is the count.
        nine, ten = Word([1] * 9), Word([1] * 10)
        assert shuffle_words_basis(nine, nine, 0) == LinComb.of(Word([1] * 18), math.comb(18, 9))
        assert shuffle_words_basis(ten, ten, 0) == LinComb.of(Word([1] * 20), math.comb(20, 10))
        twelve = Word([1] * 12)
        with pytest.raises(DomainError, match=f"^shuffle of words of 12 and 12 letters has 2.7e\\+06 terms, above the term bound {MAX_TERMS}$"):
            shuffle_words_basis(twelve, twelve, 0)
        with pytest.raises(DomainError, match=f"^shuffle of words of 9 and 9 letters has 1.46e\\+06 terms, above the term bound {MAX_TERMS}$"):
            shuffle_words_basis(nine, nine, 1)
        with pytest.raises(SemigroupRequired):
            shuffle_words_basis(Word("x" * 128), Word("y" * 128), 1)

    def test_bilinear_extension(self):
        a = LinComb.of(Word([2]), 2)
        b = LinComb.of(Word([3]), Fraction(1, 2))
        out = shuffle_words(a, b, 0)
        assert out.coefficient(Word([2, 3])) == 1


class TestConvergence:
    def test_posint(self):
        assert is_convergent_word(Word([2, 1, 1]))
        assert not is_convergent_word(Word([1, 2]))
        assert is_convergent_word(EMPTY_WORD)

    def test_binary(self):
        assert is_convergent_word(Word("xyy"))
        assert not is_convergent_word(Word("yxy"))
        assert is_semiconvergent_word(Word("yxy"))
        assert not is_semiconvergent_word(Word("xyx"))

    def test_generic_alphabet_rejected(self):
        with pytest.raises(UnsupportedAlphabet):
            is_convergent_word(Word(["a"]))


class TestBinarisation:
    def test_examples(self):
        assert binarise(Word([2, 1])) == Word("xyy")
        assert binarise(EMPTY_WORD) == EMPTY_WORD
        assert binarise(Word([3, 2])) == Word("xxyxy")

    def test_weight_bounded(self):
        assert len(binarise((MAX_WEIGHT,))) == MAX_WEIGHT
        with pytest.raises(DomainError, match="^word to binarise of weight 257 is above the weight bound 256$"):
            binarise((100, 100, 57))

    def test_debinarise_examples(self):
        assert debinarise(Word("xyy")) == Word([2, 1])
        assert debinarise(Word("yxy")) == Word([1, 2])
        assert debinarise(EMPTY_WORD) == EMPTY_WORD

    def test_rejects_non_semiconvergent(self):
        with pytest.raises(NotSemiconvergent):
            debinarise(Word("xyx"))

    @given(compositions)
    def test_roundtrip(self, comp):
        assert debinarise(binarise(Word(comp))) == Word(comp)

    @given(compositions)
    def test_grading_and_convergence(self, comp):
        image = binarise(Word(comp))
        assert len(image) == sum(comp)
        assert is_semiconvergent_word(image)
        assert is_convergent_word(image) == is_convergent_word(Word(comp))

    @given(compositions, compositions)
    def test_concat_morphism(self, a, b):
        assert binarise(concat_words(Word(a), Word(b))) == concat_words(
            binarise(Word(a)), binarise(Word(b))
        )
