"""Decorated rooted trees and forests with a canonical multiset representation.

Decorations are plain values: a positive ``int`` (alphabet of positive
integers), the strings ``'x'`` / ``'y'`` (binary alphabet), or any other
string (generic test alphabets).  A forest stores its trees sorted under a
fixed total order, so forest concatenation is commutative by construction.

``Tree`` and ``Forest`` are immutable ``__slots__`` values with no instance
dict: assigning or deleting a field raises ``AttributeError``.  They are
hash-consed: the private constructors look each value up in an intern table
and build it only on a miss, so structurally equal values are one object,
compared and hashed by identity.  A new value computes its keys once, from
the children's keys: the sort key, the alphabet and the vertex count.  A
forest's ``text`` slot stays unset until ``syntax.format_basis`` first
prints the forest and stores its text there.

The public constructors check decorations and alphabets, sort, then call
the private ``_unchecked`` constructors.  Code whose input is already
validated (the product recursions, grafting, the catalog, binarisation)
calls ``_unchecked`` directly, which skips those checks and does not sort:
a caller that can hand over trees out of order, such as a concatenation or
a map that changes sort keys, passes them through ``_canonical`` first.
"""
from __future__ import annotations

import enum
from functools import reduce
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
_vertex_count = attrgetter("vertex_count")


def _canonical(trees: tuple) -> tuple:
    """Trees in the fixed total order that makes multiset equality structural."""
    return tuple(sorted(trees, key=_sort_key)) if len(trees) > 1 else trees


class _Value:
    """Base of the immutable value classes: fields are set once, by ``_unchecked`` or ``__init__``.

    The one exception is the ``text`` slot of ``Forest`` and ``Word``, set
    once by the printer (see ``syntax.format_basis``).
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


_set = object.__setattr__

# The intern tables: ``_unchecked`` returns the one object stored for a value,
# so equal trees (forests) are identical and ``object``'s identity equality
# and hash are structural.  The keys are tuples of decorations and interned
# trees, hashed and compared in C, so each ``setdefault`` is atomic.  They
# live as long as the process and are never cleared: a cleared table would
# let two equal values live on as different objects.
_TREES: dict = {}
_FORESTS: dict = {}


class _Record(_Value):
    """Immutable value compared, hashed, shown and pickled by the fields in ``_FIELDS``.

    It behaves like a frozen dataclass without importing ``dataclasses``:
    equal only to an instance of the same class with equal fields, and
    ``repr`` lists the fields as keyword arguments.  A subclass sets its
    fields with ``_set`` in ``__init__``, which takes them in ``_FIELDS``
    order.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__qualname__}({fields})"


class Tree(_Value):
    """Decorated rooted tree; children form a multiset, stored sorted."""

    __slots__ = ("decoration", "children", "sort_key", "alphabet", "vertex_count")

    def __new__(cls, decoration: Decoration, children: Iterable["Tree"] = ()) -> "Tree":
        children = tuple(children)
        reduce(merge_alphabets, [c.alphabet for c in children], alphabet_of(decoration))
        return cls._unchecked(decoration, _canonical(children))

    @classmethod
    def _unchecked(cls, decoration: Decoration, children: tuple["Tree", ...]) -> "Tree":
        """Tree built without validation or sorting.

        Precondition: ``decoration`` and ``children`` come from validated
        values of one alphabet (or, for a contraction, the sum of two
        validated positive-integer decorations), and ``children`` is in
        canonical order (see :func:`_canonical`).
        """
        key = (decoration, children)
        tree = _TREES.get(key)
        if tree is None:
            tree = object.__new__(cls)
            _set(tree, "decoration", decoration)
            _set(tree, "children", children)
            _set(tree, "sort_key", (decoration_key(decoration), tuple(map(_sort_key, children))))
            _set(tree, "alphabet", children[0].alphabet if children else alphabet_of(decoration))
            _set(tree, "vertex_count", 1 + sum(map(_vertex_count, children)))
            tree = _TREES.setdefault(key, tree)
        return tree

    def __reduce__(self):
        return Tree, (self.decoration, self.children)

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


class Forest(_Value):
    """Finite multiset of decorated rooted trees; the empty forest is the unit."""

    __slots__ = ("trees", "sort_key", "alphabet", "vertex_count", "text")

    def __new__(cls, trees: Iterable[Tree] = ()) -> "Forest":
        trees = tuple(trees)
        reduce(merge_alphabets, [t.alphabet for t in trees], None)
        return cls._unchecked(_canonical(trees))

    @classmethod
    def _unchecked(cls, trees: tuple[Tree, ...]) -> "Forest":
        """Forest built without validation or sorting.

        Precondition: ``trees`` are validated trees of one alphabet, in
        canonical order (see :func:`_canonical`).
        """
        forest = _FORESTS.get(trees)
        if forest is None:
            forest = object.__new__(cls)
            _set(forest, "trees", trees)
            _set(forest, "sort_key", tuple(map(_sort_key, trees)))
            _set(forest, "alphabet", trees[0].alphabet if trees else None)
            _set(forest, "vertex_count", sum(map(_vertex_count, trees)))
            forest = _FORESTS.setdefault(trees, forest)
        return forest

    def __reduce__(self):
        return Forest, (self.trees,)

    def __bool__(self) -> bool:
        return bool(self.trees)

    def is_tree(self) -> bool:
        return len(self.trees) == 1

    def vertices(self) -> Iterable[Decoration]:
        for tree in self.trees:
            yield from tree.vertices()

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
    return Tree._unchecked(dec, forest.trees)


def tree_forest(*trees: Tree) -> Forest:
    return Forest(tuple(trees))


def concat_forests(a: Forest, b: Forest) -> Forest:
    """Multiset union; the commutative product of the free algebra of forests."""
    merge_alphabets(a.alphabet, b.alphabet)
    return Forest._unchecked(_canonical(a.trees + b.trees))


def ladder(decorations: Iterable[Decoration]) -> Forest:
    """Canonical injection of a word: ladder tree with the first letter at the root."""
    decs = list(decorations)
    forest = EMPTY_FOREST
    for dec in reversed(decs):
        forest = tree_forest(b_plus(dec, forest))
    return forest
