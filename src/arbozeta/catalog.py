"""Enumeration and random generation of small forests, words and compositions."""
from __future__ import annotations

import random
from functools import cache, reduce
from itertools import product as cartesian

from .trees import Decoration, Forest, Tree, _canonical, alphabet_of, merge_alphabets
from .words import Word


def _multisets(trees_of_size, total: int) -> tuple[Forest, ...]:
    """All forests whose tree sizes sum to ``total``; ``trees_of_size(s)`` lists the trees of size ``s``.

    Each multiset comes once, its trees in sort-key order; the forests come in
    lexicographic order of their trees' positions in the sorted pool.
    """
    sized = ((tree, size) for size in range(1, total + 1) for tree in trees_of_size(size))
    pool = sorted(sized, key=lambda pair: pair[0].sort_key)
    out: list[Forest] = []

    def rec(remaining: int, start: int, acc: list[Tree]):
        if remaining == 0:
            out.append(Forest._unchecked(tuple(acc)))
            return
        for i in range(start, len(pool)):
            tree, size = pool[i]
            if size <= remaining:
                acc.append(tree)
                rec(remaining - size, i, acc)
                acc.pop()

    rec(total, 0, [])
    return tuple(out)


@cache
def trees_with_vertices(v: int, decorations: tuple[Decoration, ...]) -> tuple[Tree, ...]:
    """All canonical decorated trees with exactly ``v`` vertices."""
    reduce(merge_alphabets, map(alphabet_of, decorations), None)  # the trees below are built unchecked
    return tuple(
        Tree._unchecked(dec, forest.trees) for forest in forests_with_vertices(v - 1, decorations) for dec in decorations
    )


@cache
def forests_with_vertices(v: int, decorations: tuple[Decoration, ...]) -> tuple[Forest, ...]:
    """All canonical forests with exactly ``v`` vertices (multisets of trees)."""
    return _multisets(lambda size: trees_with_vertices(size, decorations), v)


def forests_up_to(v: int, decorations: tuple[Decoration, ...], include_empty: bool = True):
    start = 0 if include_empty else 1
    for size in range(start, v + 1):
        yield from forests_with_vertices(size, decorations)


@cache
def trees_with_weight(weight: int) -> tuple[Tree, ...]:
    """All positive-integer trees of the given additive weight."""
    return tuple(
        Tree._unchecked(root, forest.trees) for root in range(1, weight + 1) for forest in forests_with_weight(weight - root)
    )


@cache
def forests_with_weight(weight: int) -> tuple[Forest, ...]:
    """All positive-integer forests of the given additive weight."""
    return _multisets(trees_with_weight, weight)


def forests_up_to_weight(weight: int):
    for w in range(weight + 1):
        yield from forests_with_weight(w)


def words_with_length(length: int, letters: tuple[Decoration, ...]):
    for combo in cartesian(letters, repeat=length):
        yield Word(combo)


def compositions_of(weight: int, first_min: int = 1):
    """All compositions of ``weight`` whose first part is >= ``first_min``."""
    if weight == 0:
        yield ()
        return
    for first in range(first_min, weight + 1):
        for rest in compositions_of(weight - first, 1):
            yield (first,) + rest


def convergent_compositions_up_to(weight: int):
    for w in range(2, weight + 1):
        yield from compositions_of(w, first_min=2)


@cache
def linear_extension_count(forest: Forest) -> int:
    """Number of linear extensions of the vertex poset (roots are minimal).

    Counts orderings by removing one currently-minimal vertex at a time;
    independent of any flattening machinery.
    """
    if not forest:
        return 1
    total = 0
    for i, tree in enumerate(forest.trees):
        rest = forest.without(i)
        promoted = Forest._unchecked(_canonical(rest.trees + tree.children))
        total += linear_extension_count(promoted)
    return total


def random_composition(rng: random.Random, weight: int) -> tuple[int, ...]:
    """Random composition of ``weight`` whose first part is >= 2."""
    parts = [rng.randint(2, max(2, weight - 1)) if weight > 2 else weight]
    remaining = weight - parts[0]
    while remaining:
        p = rng.randint(1, remaining)
        parts.append(p)
        remaining -= p
    return tuple(parts)


def random_tree(rng: random.Random, weight: int, root_min: int = 2) -> Tree:
    """Random positive-integer tree of the given additive weight."""
    root = rng.randint(root_min, weight)
    remaining = weight - root
    children = []
    while remaining:
        w = rng.randint(1, remaining)
        children.append(random_tree(rng, w, root_min=1))
        remaining -= w
    return Tree(root, tuple(children))


def random_convergent_forest(rng: random.Random, weight: int) -> Forest:
    """Random convergent positive-integer forest of the given weight (>= 2)."""
    trees = []
    remaining = weight
    while remaining:
        w = remaining if remaining < 4 else rng.randint(2, remaining)
        if remaining - w == 1:
            w = remaining
        trees.append(random_tree(rng, w, root_min=2))
        remaining -= w
    return Forest(tuple(trees))
