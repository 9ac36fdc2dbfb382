"""Finite formal sums of basis elements with exact rational coefficients.

Basis elements are any hashable values carrying a ``sort_key`` attribute
(canonical forests and words).  Coefficients are ``int`` or
``fractions.Fraction``; integer values stay plain ints so the common
integer-coefficient paths avoid Fraction overhead.  Zero coefficients are
never stored.

The public constructor merges repeated basis elements and drops zeros.  Sums,
scalings and the linear and bilinear extensions build their results through
the private :meth:`LinComb._unchecked`, which trusts that the basis values were
validated where they entered: never per intermediate term.

Every ``1 * q`` or ``0 + q`` on a Fraction builds a new Fraction, so the sums
avoid both.  A basis value not yet in the sum is stored with its coefficient
as it is, not added to 0.  ``bilinear`` multiplies the two coefficients of a
pair once, and when that product is 1 (always, when both factors are bare
basis values) it adds the product's own coefficients without multiplying
them.  ``a - b`` subtracts directly instead of building ``b.scale(-1)``.
Only the public operators of ``Fraction`` are used.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Generic, Hashable, Iterable, Iterator, Mapping, TypeVar

B = TypeVar("B", bound=Hashable)

Coeff = int | Fraction


def _norm(q: Coeff) -> Coeff:
    """``q`` with an integral Fraction turned into an int."""
    if type(q) is Fraction and q.denominator == 1:
        return int(q)
    return q


class LinComb(Generic[B]):
    """Immutable-by-convention map basis -> nonzero rational coefficient.

    It compares by its terms and is unhashable, like ``MzvCombination``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[B, Coeff] | Iterable[tuple[B, Coeff]] = ()):
        data: dict[B, Coeff] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for basis, coeff in items:
            if coeff:
                acc = data.get(basis, 0) + coeff
                if acc:
                    data[basis] = _norm(acc)
                else:
                    data.pop(basis, None)
        self._terms = data

    @classmethod
    def of(cls, basis: B, coeff: Coeff = 1) -> "LinComb[B]":
        return cls({basis: coeff} if coeff else {})

    @classmethod
    def _unchecked(cls, sums: dict, basis: Callable | None = None) -> "LinComb[B]":
        """Combination over a dict of summed coefficients, without re-validation.

        Precondition: the keys are distinct basis values built from values
        that were already validated (or, with ``basis``, distinct raw parts
        that ``basis`` turns into such values), and the sums are ints or
        Fractions.  Zero sums are dropped and integral Fractions become ints,
        so the result is canonical however it was accumulated.
        """
        out = cls.__new__(cls)
        if basis is None:
            out._terms = {b: c if type(c) is int else _norm(c) for b, c in sums.items() if c}
        else:
            out._terms = {basis(b): c if type(c) is int else _norm(c) for b, c in sums.items() if c}
        return out

    def items(self) -> Iterator[tuple[B, Coeff]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[B, Coeff]]:
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    def coefficient(self, basis: B) -> Coeff:
        return self._terms.get(basis, 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[B]:
        return iter(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "LinComb[B]") -> "LinComb[B]":
        if not isinstance(other, LinComb):
            return NotImplemented
        sums = dict(self._terms)
        for basis, coeff in other._terms.items():
            acc = sums.get(basis)
            sums[basis] = coeff if acc is None else acc + coeff
        return LinComb._unchecked(sums)

    def __sub__(self, other: "LinComb[B]") -> "LinComb[B]":
        if not isinstance(other, LinComb):
            return NotImplemented
        sums = dict(self._terms)
        for basis, coeff in other._terms.items():
            acc = sums.get(basis)
            sums[basis] = -coeff if acc is None else acc - coeff
        return LinComb._unchecked(sums)

    def scale(self, q: Coeff) -> "LinComb[B]":
        return LinComb._unchecked({b: c * q for b, c in self._terms.items()})

    def map_basis(self, fn: Callable[[B], Hashable]) -> "LinComb":
        """Linear extension of a basis map (values may collide and recombine)."""
        sums: dict = {}
        for b, c in self._terms.items():
            image = fn(b)
            sums[image] = sums.get(image, 0) + c
        return LinComb._unchecked(sums)

    def bilinear(
        self,
        other: "LinComb",
        product: Callable[[B, B], "LinComb | Hashable"],
    ) -> "LinComb":
        """Bilinear extension of a product on basis elements.

        ``product`` may return either a basis element or a LinComb.
        """
        sums: dict = {}
        for b1, c1 in self._terms.items():
            for b2, c2 in other._terms.items():
                res = product(b1, b2)
                c = c1 * c2
                if not isinstance(res, LinComb):
                    acc = sums.get(res)
                    sums[res] = c if acc is None else acc + c
                elif c == 1:
                    for b, q in res._terms.items():
                        acc = sums.get(b)
                        sums[b] = q if acc is None else acc + q
                else:
                    for b, q in res._terms.items():
                        acc = sums.get(b)
                        sums[b] = c * q if acc is None else acc + c * q
        return LinComb._unchecked(sums)

    def coefficient_sum(self) -> Coeff:
        return _norm(sum(self._terms.values()))

    def all_integer(self) -> bool:
        return all(isinstance(c, int) for c in self._terms.values())

    def __repr__(self) -> str:
        if not self._terms:
            return "LinComb(0)"
        inner = " + ".join(f"{c}*{b!r}" for b, c in self._terms.items())
        return f"LinComb({inner})"


def _as_comb(value) -> LinComb:
    """A combination as it is; a bare basis value (forest, word) as ``1 * value``."""
    return value if isinstance(value, LinComb) else LinComb.of(value)
