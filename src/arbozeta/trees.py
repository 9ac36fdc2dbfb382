"""Decorated rooted trees and forests with a canonical multiset representation.

Decorations are plain values: a positive ``int`` (alphabet of positive
integers), the strings ``'x'`` / ``'y'`` (binary alphabet), or any other
string (generic test alphabets).  A forest stores its trees sorted under a
fixed total order, so forest concatenation is commutative by construction and
equality is structural equality.

The public constructors check decorations and alphabets.  Product recursions
build their intermediate trees and forests through the private
``_unchecked`` constructors, which skip those checks but still sort.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable

from .errors import AlphabetMismatch, InvalidDecoration, UnsupportedAlphabet


class Alphabet(enum.Enum):
    POSINT = "posint"
    XY = "xy"
    GENERIC = "generic"


Decoration = int | str


def alphabet_of(dec: Decoration) -> Alphabet:
    """Classify a decoration value, rejecting anything outside the three alphabets."""
    if isinstance(dec, bool):
        raise InvalidDecoration(f"not a decoration: {dec!r}")
    if isinstance(dec, int):
        if dec < 1:
            raise InvalidDecoration(f"positive integer decoration must be >= 1, got {dec}")
        return Alphabet.POSINT
    if isinstance(dec, str) and dec:
        return Alphabet.XY if dec in ("x", "y") else Alphabet.GENERIC
    raise InvalidDecoration(f"not a decoration: {dec!r}")


def decoration_key(dec: Decoration) -> tuple:
    """Sort key realizing the fixed total order on (validated) decorations."""
    if isinstance(dec, int):
        return (0, dec, "")
    if dec in ("x", "y"):
        return (1, 0 if dec == "x" else 1, "")
    return (2, 0, dec)


def merge_alphabets(a: Alphabet | None, b: Alphabet | None) -> Alphabet | None:
    if a is None:
        return b
    if b is None or a is b:
        return a
    raise AlphabetMismatch(f"mixed alphabets {a.value} and {b.value}")


_sort_key = attrgetter("sort_key")


def _canonical(trees: tuple) -> tuple:
    """Trees in the fixed total order that makes multiset equality structural."""
    return tuple(sorted(trees, key=_sort_key)) if len(trees) > 1 else trees


@dataclass(frozen=True)
class Tree:
    """Decorated rooted tree; children form a multiset, stored sorted."""

    decoration: Decoration
    children: tuple["Tree", ...] = ()

    def __post_init__(self):
        alph = alphabet_of(self.decoration)
        for child in self.children:
            merge_alphabets(alph, child.alphabet)
        object.__setattr__(self, "children", _canonical(tuple(self.children)))

    @classmethod
    def _unchecked(cls, decoration: Decoration, children: tuple["Tree", ...]) -> "Tree":
        """Tree built without validation; the children are still sorted.

        Precondition: ``decoration`` and ``children`` come from validated
        values of one alphabet (or, for a contraction, the sum of two
        validated positive-integer decorations).
        """
        tree = cls.__new__(cls)
        object.__setattr__(tree, "decoration", decoration)
        object.__setattr__(tree, "children", _canonical(children))
        return tree

    @cached_property
    def sort_key(self) -> tuple:
        return (decoration_key(self.decoration), tuple(c.sort_key for c in self.children))

    @cached_property
    def alphabet(self) -> Alphabet:
        return alphabet_of(self.decoration)

    @cached_property
    def vertex_count(self) -> int:
        return 1 + sum(c.vertex_count for c in self.children)

    @cached_property
    def _hash(self) -> int:
        return hash((self.decoration, self.children))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self.decoration == other.decoration and self.children == other.children

    def is_ladder(self) -> bool:
        """True when no vertex has two or more direct successors."""
        node = self
        while node.children:
            if len(node.children) > 1:
                return False
            node = node.children[0]
        return True

    def weight(self) -> int:
        """Additive weight: sum of decorations; positive-integer alphabet only."""
        if self.alphabet is not Alphabet.POSINT:
            raise UnsupportedAlphabet("additive weight needs positive-integer decorations")
        return sum(self.vertices())

    def vertices(self) -> Iterable[Decoration]:
        yield self.decoration
        for child in self.children:
            yield from child.vertices()

    def __repr__(self) -> str:
        if not self.children:
            return f"Tree({self.decoration!r})"
        return f"Tree({self.decoration!r}, {list(self.children)!r})"


@dataclass(frozen=True)
class Forest:
    """Finite multiset of decorated rooted trees; the empty forest is the unit."""

    trees: tuple[Tree, ...] = ()

    def __post_init__(self):
        alph = None
        for tree in self.trees:
            alph = merge_alphabets(alph, tree.alphabet)
        object.__setattr__(self, "trees", _canonical(tuple(self.trees)))

    @classmethod
    def _unchecked(cls, trees: tuple[Tree, ...]) -> "Forest":
        """Forest built without validation; the trees are still sorted.

        Precondition: ``trees`` are validated trees of one alphabet.
        """
        forest = cls.__new__(cls)
        object.__setattr__(forest, "trees", _canonical(trees))
        return forest

    @cached_property
    def sort_key(self) -> tuple:
        return tuple(t.sort_key for t in self.trees)

    @cached_property
    def alphabet(self) -> Alphabet | None:
        return self.trees[0].alphabet if self.trees else None

    @cached_property
    def vertex_count(self) -> int:
        return sum(t.vertex_count for t in self.trees)

    @cached_property
    def _hash(self) -> int:
        return hash(self.trees)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Forest):
            return NotImplemented
        return self.trees == other.trees

    def __bool__(self) -> bool:
        return bool(self.trees)

    def is_tree(self) -> bool:
        return len(self.trees) == 1

    def vertices(self) -> Iterable[Decoration]:
        for tree in self.trees:
            yield from tree.vertices()

    def decoration_count(self, dec: Decoration) -> int:
        return sum(1 for v in self.vertices() if v == dec)

    def weight(self) -> int:
        """Additive weight: sum of decorations; positive-integer alphabet only."""
        if self.trees and self.alphabet is not Alphabet.POSINT:
            raise UnsupportedAlphabet("additive weight needs positive-integer decorations")
        return sum(self.vertices())

    def without(self, index: int) -> "Forest":
        """Forest with one copy of the tree at ``index`` removed."""
        return Forest._unchecked(self.trees[:index] + self.trees[index + 1 :])

    def __repr__(self) -> str:
        return f"Forest({list(self.trees)!r})"


EMPTY_FOREST = Forest()


def leaf(dec: Decoration) -> Tree:
    return Tree(dec)


def b_plus(dec: Decoration, forest: Forest = EMPTY_FOREST) -> Tree:
    """Grafting: add a root decorated by ``dec`` below the trees of ``forest``."""
    merge_alphabets(alphabet_of(dec), forest.alphabet)
    return Tree(dec, forest.trees)


def tree_forest(*trees: Tree) -> Forest:
    return Forest(tuple(trees))


def concat_forests(a: Forest, b: Forest) -> Forest:
    """Multiset union; the commutative product of the free algebra of forests."""
    merge_alphabets(a.alphabet, b.alphabet)
    return Forest(a.trees + b.trees)


def ladder(decorations: Iterable[Decoration]) -> Forest:
    """Canonical injection of a word: ladder tree with the first letter at the root."""
    decs = list(decorations)
    forest = EMPTY_FOREST
    for dec in reversed(decs):
        forest = tree_forest(b_plus(dec, forest))
    return forest


def ladder_decorations(forest: Forest) -> list[Decoration]:
    """Inverse of :func:`ladder` on ladder forests (root-to-leaf order), or raise."""
    if not forest:
        return []
    if not forest.is_tree():
        raise ValueError("not a single ladder tree")
    out = []
    node = forest.trees[0]
    while True:
        out.append(node.decoration)
        if not node.children:
            return out
        if len(node.children) > 1:
            raise ValueError("tree has a branching vertex")
        node = node.children[0]

