"""Branched maps for user-supplied operators, with exact models.

An operator model packs a commutative-algebra carrier, the map being
branched, and an embedding of decorations into the carrier.  Carrier values
support ``+``, ``*`` and scaling by rationals, and their class provides
``combination(terms)``, the sum of ``coeff * value`` over a non-empty list of
``(value, coeff)`` pairs.  The branched map is the unique operated-algebra
morphism determined by

    branch(empty) = 1,   branch(F1 F2) = branch(F1) branch(F2),
    branch(graft(w, F)) = op(embed(w) * branch(F)),

and extended linearly over combinations of forests or words.

Two exact carrier families verify the factorization theorems symbolically.
Both hold integer numerators over one shared positive denominator, so no
rational arithmetic runs per entry:

* ``TruncSeq``, sequences indexed 1..N under cumulative sums (weights +1 and
  -1).  ``k^-n`` is stored as ``(L/k)^n`` over ``L^n`` with ``L = lcm(1..N)``;
  the pointwise product multiplies numerators and denominators, and the
  cumulative sums are integer running sums over the same denominator.
* ``PolyQ``, polynomials under integration from zero (weight 0), in the
  divided-power basis ``x^k/k!`` of Hurwitz series (Keigher, "On the ring of
  Hurwitz series", 1997; Guo-Keigher, "Baxter algebras and differential
  algebras"): integration is a shift and the product carries ``C(i+j, i)``.

Sums and scalings go through ``combination``, which aligns denominators once
per vector.  Representations are not reduced; equality cross-multiplies, so
two representations of one value compare equal.  ``TruncSeq.values`` and
``PolyQ.coeffs`` give the entries as ``Fraction`` tuples.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat, zip_longest
from math import comb, factorial, gcd, lcm
from numbers import Rational
from operator import mul
from typing import Callable, Iterable

from .forest_algebra import flatten_forest, shuffle_forests_basis
from .lincomb import Coeff, LinComb
from .trees import Decoration, Forest, Tree, _Record, _set
from .words import Word


class OperatorModel(_Record):
    """A map ``op`` on a commutative algebra plus a decoration embedding.

    ``one`` is the unit of the carrier; its class provides ``combination``,
    through which linear combinations of forests and words are mapped.
    Each model memoises the branched maps of its trees and words; the memos
    take no part in its equality, hash or repr.
    """

    __slots__ = ("name", "one", "op", "embed", "weight", "_tree_cache", "_word_cache")
    _FIELDS = ("name", "one", "op", "embed", "weight")

    def __init__(self, name: str, one, op: Callable, embed: Callable[[Decoration], object], weight: Coeff):
        for field, value in zip(self._FIELDS, (name, one, op, embed, weight)):
            _set(self, field, value)
        _set(self, "_tree_cache", {})
        _set(self, "_word_cache", {})

    def branch_tree(self, tree: Tree):
        cached = self._tree_cache.get(tree)
        if cached is None:
            cached = self.op(self.embed(tree.decoration) * self.branch(Forest._unchecked(tree.children)))
            self._tree_cache[tree] = cached
        return cached

    def branch(self, forest: Forest | LinComb[Forest]):
        """The branched map, extended linearly over combinations."""
        if isinstance(forest, LinComb):
            return self._linear([(self.branch(f), c) for f, c in forest.items()])
        if not forest.trees:
            return self.one
        out = self.branch_tree(forest.trees[0])
        for tree in forest.trees[1:]:
            out = out * self.branch_tree(tree)
        return out

    def branch_word(self, w: Word | LinComb[Word]):
        """The word-restricted branched map (ladder recursion)."""
        if isinstance(w, LinComb):
            return self._linear([(self._branch_letters(u.letters), c) for u, c in w.items()])
        return self._branch_letters(w.letters)

    def _branch_letters(self, letters: tuple[Decoration, ...]):
        cached = self._word_cache.get(letters)
        if cached is None:
            cached = self.one
            if letters:
                cached = self.op(self.embed(letters[0]) * self._branch_letters(letters[1:]))
            self._word_cache[letters] = cached
        return cached

    def _linear(self, terms: list):
        return type(self.one).combination(terms) if terms else self.one * 0


def check_rota_baxter(op: Callable, samples: list[tuple], lam: Coeff) -> bool:
    """Exact check of op(a)op(b) = op(a op(b)) + op(op(a) b) + lam op(a b) on samples."""
    for a, b in samples:
        lhs = op(a) * op(b)
        rhs = op(a * op(b)) + op(op(a) * b) + op(a * b) * lam
        if lhs != rhs:
            return False
    return True


def verify_factorization(model: OperatorModel, forest: Forest) -> bool:
    """Branched map equals word-branched map after flattening, exactly."""
    direct = model.branch(forest)
    through_words = model.branch_word(flatten_forest(forest, model.weight))
    return direct == through_words


def verify_tree_shuffle_morphism(model: OperatorModel, f1: Forest, f2: Forest) -> bool:
    """Branched map is multiplicative for the matching lambda-shuffle on trees."""
    lhs = model.branch(shuffle_forests_basis(f1, f2, model.weight))
    rhs = model.branch(f1) * model.branch(f2)
    return lhs == rhs


# -- integer vectors over one denominator -----------------------------------------

def _times(nums: tuple[int, ...], factor: int) -> tuple[int, ...]:
    return tuple(map(mul, nums, repeat(factor, len(nums))))


class _IntVector:
    """Integer numerators ``nums`` over one positive integer denominator ``den``.

    Subclasses define ``_columns(rows)``, which zips numerator tuples entry by
    entry for ``combination``.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values: Iterable = ()):
        fracs = [Fraction(q) for q in values]
        den = lcm(*(q.denominator for q in fracs))
        self._set(tuple(q.numerator * (den // q.denominator) for q in fracs), den)

    def _set(self, nums: tuple[int, ...], den: int) -> None:
        self.nums = nums
        self.den = den

    @classmethod
    def _new(cls, nums: tuple[int, ...], den: int):
        out = object.__new__(cls)
        out._set(nums, den)
        return out

    @classmethod
    def combination(cls, terms: list[tuple["_IntVector", Coeff]]):
        """Sum of ``coeff * value`` over a non-empty list of pairs, built once.

        The result's denominator is the lcm of each ``value.den`` times the
        coefficient's denominator, so an int coefficient touches only the
        numerators and a ``Fraction`` one also the denominator.
        """
        dens = [value.den * coeff.denominator for value, coeff in terms]
        den = dens[0] if dens.count(dens[0]) == len(dens) else lcm(*dens)
        # Rows that share an integer factor are summed first, so each entry
        # is multiplied once per distinct factor rather than once per term.
        by_factor: dict[int, list[tuple[int, ...]]] = {}
        for (value, coeff), d in zip(terms, dens):
            factor = coeff.numerator * (den // d)
            rows = by_factor.get(factor)
            if rows is None:
                by_factor[factor] = [value.nums]
            else:
                rows.append(value.nums)
        factors = list(by_factor)
        sums = [tuple(map(sum, cls._columns(rows))) for rows in by_factor.values()]
        if factors == [1]:
            return cls._new(sums[0], den)
        return cls._new(tuple(sum(map(mul, col, factors)) for col in cls._columns(sums)), den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.combination([(self, 1), (other, 1)])

    def _scaled(self, q):
        if not isinstance(q, Rational):
            return NotImplemented
        return self.combination([(self, q)])

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return len(self.nums) == len(other.nums) and _times(self.nums, other.den) == _times(
            other.nums, self.den
        )

    def __hash__(self) -> int:
        g = gcd(self.den, *self.nums)
        return hash((type(self).__name__, self.den // g) + tuple(n // g for n in self.nums))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nums={self.nums}, den={self.den})"


# -- truncated rational sequences ----------------------------------------------

class TruncSeq(_IntVector):
    """Sequence of rationals indexed 1..N with the pointwise product.

    Entry k is ``nums[k-1] / den``.
    """

    __slots__ = ()

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    @staticmethod
    def _columns(rows):
        return zip(*rows, strict=True)

    def __mul__(self, other) -> "TruncSeq":
        if isinstance(other, TruncSeq):
            if len(self.nums) != len(other.nums):
                raise ValueError(f"horizons differ: {len(self.nums)} != {len(other.nums)}")
            return TruncSeq._new(tuple(map(mul, self.nums, other.nums)), self.den * other.den)
        return self._scaled(other)

    __rmul__ = __mul__

    @classmethod
    def ones(cls, horizon: int) -> "TruncSeq":
        return cls._new((1,) * horizon, 1)

    @classmethod
    def power(cls, exponent: int, horizon: int) -> "TruncSeq":
        """The sequence k^(-exponent), k = 1..horizon, as (L/k)^n / L^n with L = lcm(1..N)."""
        big = lcm(*range(1, horizon + 1))
        return cls._new(tuple((big // k) ** exponent for k in range(1, horizon + 1)), big**exponent)


def cumsum_inclusive(seq: TruncSeq) -> TruncSeq:
    """(sum over m <= n); Rota-Baxter of weight -1."""
    return TruncSeq._new(tuple(accumulate(seq.nums)), seq.den)


def cumsum_strict(seq: TruncSeq) -> TruncSeq:
    """(sum over m < n); Rota-Baxter of weight +1."""
    return TruncSeq._new(tuple(accumulate(seq.nums, initial=0))[:-1], seq.den)


def _sum_model(name: str, op: Callable, weight: int, horizon: int) -> OperatorModel:
    return OperatorModel(
        name=name,
        one=TruncSeq.ones(horizon),
        op=op,
        embed=lambda n: TruncSeq.power(n, horizon),
        weight=weight,
    )


def strict_sum_model(horizon: int = 12) -> OperatorModel:
    return _sum_model("strict-sum", cumsum_strict, 1, horizon)


def nonstrict_sum_model(horizon: int = 12) -> OperatorModel:
    return _sum_model("nonstrict-sum", cumsum_inclusive, -1, horizon)


def broken_sum_model(horizon: int = 12) -> OperatorModel:
    """Negative control: a constant offset destroys the Rota-Baxter identity."""
    return _sum_model("broken-sum", lambda seq: cumsum_strict(seq) + TruncSeq.ones(horizon), 1, horizon)


# -- rational polynomials --------------------------------------------------------

class PolyQ(_IntVector):
    """Polynomial over the rationals in the divided-power basis x^k/k!.

    ``nums[k] / den`` is the coefficient of x^k/k!.  Trailing zeros are never
    stored, so the zero polynomial has no entries.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        super().__init__(Fraction(c) * factorial(k) for k, c in enumerate(coeffs))

    def _set(self, nums: tuple[int, ...], den: int) -> None:
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        super()._set(nums[:end], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Coefficients in the monomial basis; coefficient i belongs to x^i."""
        return tuple(Fraction(n, self.den * factorial(k)) for k, n in enumerate(self.nums))

    @staticmethod
    def _columns(rows):
        return zip_longest(*rows, fillvalue=0)

    def __mul__(self, other) -> "PolyQ":
        if isinstance(other, PolyQ):
            if not self.nums or not other.nums:
                return PolyQ._new((), 1)
            out = [0] * (len(self.nums) + len(other.nums) - 1)
            for i, a in enumerate(self.nums):
                if a:
                    for j, b in enumerate(other.nums):
                        if b:
                            out[i + j] += comb(i + j, i) * a * b
            return PolyQ._new(tuple(out), self.den * other.den)
        return self._scaled(other)

    __rmul__ = __mul__

    @classmethod
    def monomial(cls, degree: int, coeff: Coeff = 1) -> "PolyQ":
        """coeff * x^degree, stored as coeff * degree! * x^degree/degree!."""
        return cls._new((0,) * degree + (factorial(degree),), 1) * coeff


def integrate_from_zero(p: PolyQ) -> PolyQ:
    """x^k/k! -> x^(k+1)/(k+1)!; Rota-Baxter of weight 0."""
    return PolyQ._new((0,) + p.nums, p.den)


def integration_model() -> OperatorModel:
    return OperatorModel(
        name="integration",
        one=PolyQ.monomial(0),
        op=integrate_from_zero,
        embed=lambda n: PolyQ.monomial(n),
        weight=0,
    )
