"""Workload inputs and the structural facts the checks need, without arbozeta.

A tree is ``(decoration, children)`` with ``children`` a tuple of trees; a
forest is a tuple of trees.  The program only ever sees the text these
produce, in the grammar of ``arbozeta.syntax``; weights and hook-length
counts are computed here, independently of the program.
"""
from __future__ import annotations

import functools
import math
import random


def tree_text(tree) -> str:
    dec, children = tree
    if not children:
        return str(dec)
    return f"{dec}[{','.join(tree_text(c) for c in children)}]"


def forest_text(forest) -> str:
    return " ".join(tree_text(t) for t in forest)


def word_text(letters) -> str:
    return "(" + ",".join(str(a) for a in letters) + ")"


def binarised_tree_text(tree) -> str:
    """Branched binarisation written out: decoration n becomes x^(n-1) over y."""
    dec, children = tree
    inner = "y" + (f"[{','.join(binarised_tree_text(c) for c in children)}]" if children else "")
    return "x[" * (dec - 1) + inner + "]" * (dec - 1)


def binarised_forest_text(forest) -> str:
    return " ".join(binarised_tree_text(t) for t in forest)


def chain(decorations):
    """The ladder tree d1[d2[...]] as a one-tree forest."""
    node = None
    for dec in reversed(decorations):
        node = (dec, (node,) if node else ())
    return (node,)


def weight(forest) -> int:
    return sum(dec + weight(children) for dec, children in forest)


def linear_extensions(forest) -> int:
    """Hook-length count n! / prod(subtree sizes) of the forest poset."""
    sizes = []

    def size(tree):
        s = 1 + sum(size(c) for c in tree[1])
        sizes.append(s)
        return s

    n = sum(size(t) for t in forest)
    return math.factorial(n) // math.prod(sizes)


def forest_shape(rng: random.Random, n: int):
    """Undecorated forest on n vertices (decorations None), one to three trees."""
    trees = []
    while n:
        size = n if len(trees) == 2 else rng.randint(1, n)
        parents = [None] + [rng.randrange(i) for i in range(1, size)]

        def build(v, parents=parents, size=size):
            return (None, tuple(build(c) for c in range(v + 1, size) if parents[c] == v))

        trees.append(build(0))
        n -= size
    return tuple(trees)


def decorate(shape, rng: random.Random, lo: int = 1, hi: int = 3, root_lo: int | None = None):
    """Decorations in [lo, hi] on a forest shape; roots in [root_lo, hi] if given."""
    def tree(node, low):
        return (rng.randint(low, max(low, hi)), tuple(tree(c, lo) for c in node[1]))

    return tuple(tree(t, lo if root_lo is None else root_lo) for t in shape)


@functools.cache
def _trees(w: int, root_lo: int) -> tuple:
    """Every tree of weight w with root decoration >= root_lo, in a fixed order."""
    return tuple((d, kids) for d in range(root_lo, w + 1) for kids in _forests(w - d, 1))


@functools.cache
def _forests(w: int, root_lo: int) -> tuple:
    """Every multiset of such trees with total weight w, each listed once."""
    candidates = [t for v in range(1, w + 1) for t in _trees(v, root_lo)]
    out = []

    def extend(start, rest, acc):
        if not rest:
            out.append(tuple(acc))
        for i in range(start, len(candidates)):
            tw = weight((candidates[i],))
            if tw <= rest:
                extend(i, rest - tw, acc + [candidates[i]])

    extend(0, w, [])
    return tuple(out)


def convergent_forests(w: int) -> tuple:
    """Every forest of weight w whose roots are all decorated >= 2."""
    return _forests(w, 2)


def random_word(rng: random.Random, length: int, lo: int = 1, hi: int = 3):
    return tuple(rng.randint(lo, hi) for _ in range(length))
