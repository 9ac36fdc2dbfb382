"""Words over a decoration alphabet: concatenation, lambda-shuffles, binarisation.

The lambda-shuffle interpolates the shuffle (lambda = 0), stuffle (lambda = 1)
and anti-stuffle (lambda = -1) products through one recursion; the contraction
term multiplies letters in the additive semigroup of positive integers, so a
nonzero lambda demands that alphabet.

Validation happens where values enter: the public ``Word`` constructor checks
every letter, and the product entry points check the alphabets and the
semigroup condition.  The recursion then builds its terms in plain dicts and
through ``Word._unchecked``, never re-validating a term.

``Word`` is an immutable, hash-consed ``__slots__`` value like ``Tree`` and
``Forest``: ``Word._unchecked`` returns the one word interned for its letter
tuple, so equal words are one object, compared and hashed by identity.  A
new word computes its alphabet and sort key once, when it is interned; its
``text`` slot, like a forest's, is set by the printer (see ``trees``).
"""
from __future__ import annotations

import math
from functools import cache, reduce, wraps
from typing import Iterable

from .errors import DomainError, NotSemiconvergent, SemigroupRequired, UnsupportedAlphabet
from .lincomb import Coeff, LinComb, _as_comb, _norm
from .trees import Alphabet, Decoration, _set, _Value, alphabet_of, merge_alphabets

# The intern table of words, keyed by letter tuple; never cleared (see trees.py).
_WORDS: dict = {}
# Sort keys in the order of the letters' ``decoration_key`` tuples.  A word
# never mixes alphabets, so a positive-integer word's key is its letters (the
# empty word's () first); {x,y}, then generic, keys lead with infinity.
_KEY_HEAD = {Alphabet.XY: (math.inf, 0), Alphabet.GENERIC: (math.inf, 1)}


class Word(_Value):
    """Finite letter sequence; the empty word is the unit of concatenation."""

    __slots__ = ("letters", "sort_key", "alphabet", "text")

    def __new__(cls, letters: Iterable[Decoration] = ()) -> "Word":
        letters = tuple(letters)
        reduce(merge_alphabets, map(alphabet_of, letters), None)
        return cls._unchecked(letters)

    @classmethod
    def _unchecked(cls, letters: tuple[Decoration, ...]) -> "Word":
        """Word built without validation.

        Precondition: every letter comes from a validated word (or is the sum
        of two validated positive-integer letters), all of one alphabet.
        """
        w = _WORDS.get(letters)
        if w is None:
            w = object.__new__(cls)
            alphabet = alphabet_of(letters[0]) if letters else None
            head = _KEY_HEAD.get(alphabet)
            _set(w, "letters", letters)
            _set(w, "sort_key", letters if head is None else head + (letters,))
            _set(w, "alphabet", alphabet)
            w = _WORDS.setdefault(letters, w)
        return w

    def __reduce__(self):
        return Word, (self.letters,)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def weight(self) -> int:
        """Additive weight; positive-integer alphabet only."""
        if self.letters and self.alphabet is not Alphabet.POSINT:
            raise UnsupportedAlphabet("additive weight needs positive-integer letters")
        return sum(self.letters)

    def __repr__(self) -> str:
        return f"Word({list(self.letters)!r})"


EMPTY_WORD = Word()


def concat_words(a: Word, b: Word) -> Word:
    merge_alphabets(a.alphabet, b.alphabet)
    return Word._unchecked(a.letters + b.letters)


def _require_semigroup(lam: Coeff, alphabet: Alphabet | None) -> Coeff:
    """Reject a contracting product off the positive integers; return lambda
    with an integral Fraction turned into an int."""
    if lam and alphabet is not None and alphabet is not Alphabet.POSINT:
        raise SemigroupRequired("contracting product (lambda != 0) needs positive-integer decorations")
    return _norm(lam)


_SHUFFLE_CACHE: dict = {}


# -- the term budget -----------------------------------------------------------
#
# The three lambda-recursions (the word shuffle here, the flattening and the
# tree shuffle in forest_algebra) memoise the product of every pair they meet,
# so their time and memory grow with the terms their memos store.  One
# outermost public product call, with every product it makes, may store at
# most MAX_TERMS terms in all; past that it is refused with DomainError while
# it works, and what it stored stays memoised.  One million stored terms take
# a few seconds and a few hundred MB; the heaviest call of the suites and
# the benchmark stores a few thousand, and the tree shuffle of two 100-deep
# ladders at lambda = 0 about 692,000.
MAX_TERMS = 1_000_000


class _Budget:
    """The running outermost product call: whether it runs, and the terms it stored."""

    running = False
    terms = 0


def _one_budget(product):
    """Decorate a public product so that an outermost call opens a new budget,
    which the products it calls share."""

    @wraps(product)
    def call(*args, **kwargs):
        if _Budget.running:
            return product(*args, **kwargs)
        _Budget.running, _Budget.terms = True, 0
        try:
            return product(*args, **kwargs)
        finally:
            _Budget.running = False

    return call


def _remember(memo: dict, key, out: LinComb) -> LinComb:
    """memo[key] = out, its terms charged to the budget of the running call."""
    _Budget.terms += len(out)
    if _Budget.terms > MAX_TERMS:
        raise DomainError(f"product stores more than {MAX_TERMS} terms, above the term bound")
    memo[key] = out
    return out


@cache
def _shuffle_terms(m: int, n: int, contracting: bool) -> int:
    """Terms of a lambda-shuffle of words of m and n letters, counted with
    multiplicity: the Delannoy number D(m, n) with contraction, else C(m+n, m)."""
    if not contracting:
        return math.comb(m + n, m)
    return sum(math.comb(m, k) * math.comb(n, k) << k for k in range(min(m, n) + 1))


@_one_budget
def shuffle_words_basis(a: Word, b: Word, lam: Coeff) -> LinComb[Word]:
    """Lambda-shuffle of two basis words.

    Two non-empty words of more than MAX_WEIGHT letters in all are refused,
    since the recursion goes one level deeper per letter, and so is a product
    of more than MAX_TERMS terms counted with multiplicity, before the
    recursion starts; the recursion is then held to the term budget.
    """
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    lam = _require_semigroup(lam, alphabet)
    if a and b and len(a) + len(b) > MAX_WEIGHT:
        raise DomainError(f"shuffle of words of {len(a) + len(b)} letters is above the length bound {MAX_WEIGHT}")
    terms = _shuffle_terms(len(a), len(b), bool(lam))
    if terms > MAX_TERMS:
        raise DomainError(
            f"shuffle of words of {len(a)} and {len(b)} letters has {terms:.3g} terms, "
            f"above the term bound {MAX_TERMS}"
        )
    return _shuffle_rec(a.letters, b.letters, lam)


def _prepend_into(sums: dict, letter: Decoration, comb: LinComb[Word], coeff: Coeff):
    head = (letter,)
    for w, c in comb.items():
        key = head + w.letters
        sums[key] = sums.get(key, 0) + c * coeff


def _shuffle_rec(u: tuple, v: tuple, lam: Coeff) -> LinComb[Word]:
    """Hoffman's quasi-shuffle recursion on validated letter tuples, memoized."""
    if not u or not v:
        return LinComb._unchecked({u or v: 1}, Word._unchecked)
    key = (u, v, lam)
    cached = _SHUFFLE_CACHE.get(key)
    if cached is not None:
        return cached
    sums: dict = {}
    _prepend_into(sums, u[0], _shuffle_rec(u[1:], v, lam), 1)
    _prepend_into(sums, v[0], _shuffle_rec(u, v[1:], lam), 1)
    if lam:
        # The semigroup product of positive-integer letters is their sum.
        _prepend_into(sums, u[0] + v[0], _shuffle_rec(u[1:], v[1:], lam), lam)
    return _remember(_SHUFFLE_CACHE, key, LinComb._unchecked(sums, Word._unchecked))


@_one_budget
def shuffle_words(a: LinComb[Word] | Word, b: LinComb[Word] | Word, lam: Coeff) -> LinComb[Word]:
    """Bilinear lambda-shuffle on linear combinations of words."""
    return _as_comb(a).bilinear(_as_comb(b), lambda w1, w2: shuffle_words_basis(w1, w2, lam))


def clear_shuffle_cache():
    _SHUFFLE_CACHE.clear()


# -- convergence predicates ------------------------------------------------

def is_convergent_word(w: Word) -> bool:
    """Empty word, or first letter >= 2 (positive integers) / starts x and ends y."""
    if not w:
        return True
    if w.alphabet is Alphabet.POSINT:
        return w.letters[0] >= 2
    if w.alphabet is Alphabet.XY:
        return w.letters[0] == "x" and w.letters[-1] == "y"
    raise UnsupportedAlphabet("convergence is defined on positive-integer or {x,y} words")


def is_semiconvergent_word(w: Word) -> bool:
    """Binary words ending in y; on positive integers every word qualifies."""
    if not w:
        return True
    if w.alphabet is Alphabet.XY:
        return w.letters[-1] == "y"
    if w.alphabet is Alphabet.POSINT:
        return True
    raise UnsupportedAlphabet("convergence is defined on positive-integer or {x,y} words")


# -- binarisation ------------------------------------------------------------

# The heaviest zeta or polylog index, and word or tree to binarise, that is
# accepted; a binarised word or tree has at most this many letters or levels.
# It also bounds the letters of two non-empty words that are lambda-shuffled.
MAX_WEIGHT = 256
# The longest star zeta index that is expanded into its 2^(parts - 1) strict merges.
MAX_STAR_PARTS = 13


def check_weight(weight: int, what: str) -> None:
    """Refuse a ``what`` heavier than MAX_WEIGHT, before any work on it starts."""
    if weight > MAX_WEIGHT:
        raise DomainError(f"{what} of weight {weight} is above the weight bound {MAX_WEIGHT}")


def binarise(w: Word | Iterable[int]) -> Word:
    """Composition (n1..nk) -> binary word x^(n1-1) y ... x^(nk-1) y."""
    parts = w.letters if isinstance(w, Word) else tuple(w)
    if any(not isinstance(part, int) or part < 1 for part in parts):
        raise UnsupportedAlphabet("binarisation needs positive-integer letters")
    check_weight(sum(parts), "word to binarise")
    return Word._unchecked(tuple("".join("x" * (part - 1) + "y" for part in parts)))


def debinarise(b: Word) -> Word:
    """Inverse of :func:`binarise` on semiconvergent binary words."""
    if b and b.alphabet is not Alphabet.XY:
        raise NotSemiconvergent("debinarise needs a word over {x,y}")
    if b and b.letters[-1] != "y":
        raise NotSemiconvergent(f"word does not end in y: {b.letters}")
    parts: list[int] = []
    run = 0
    for letter in b.letters:
        if letter == "x":
            run += 1
        else:
            parts.append(run + 1)
            run = 0
    return Word._unchecked(tuple(parts))
