"""Structure maps on decorated forests.

* ``flatten``: the operated-algebra morphism onto words that sends grafting to
  left concatenation and forest concatenation to the lambda-shuffle.
* ``shuffle_forests``: the lambda-shuffle product on trees, defined by a
  grafting rule on pairs of trees and a 1/(k*n)-weighted redistribution rule
  when either argument is a proper forest.
* ``binarise_forest`` / ``debinarise_forest``: the branched binarisation
  sending a vertex decorated n to a chain of n-1 x-vertices over a y-vertex.
* convergence classification for both decoration alphabets.

Validation happens where values enter: the public ``Tree``/``Forest``
constructors and the entry points ``flatten_forest`` and
``shuffle_forests_basis``, which check the alphabets and the semigroup
condition.  The recursions accumulate their terms in plain dicts and build
them through the private unchecked constructors, never re-validating a term;
they store each result through ``words._remember``, which holds them and
the word shuffle to one term budget (see ``words.MAX_TERMS``).
"""
from __future__ import annotations

import enum
from fractions import Fraction

from .errors import NotInImage, SemigroupRequired
from .lincomb import Coeff, LinComb, _as_comb
from .trees import Alphabet, Forest, Tree, _canonical, concat_forests, merge_alphabets
from .words import EMPTY_WORD, Word, _one_budget, _remember, _require_semigroup, _shuffle_rec, check_weight

ForestComb = LinComb[Forest]
WordComb = LinComb[Word]


# -- flattening ---------------------------------------------------------------

_FLATTEN_CACHE: dict = {}


@_one_budget
def flatten_forest(forest: Forest, lam: Coeff) -> WordComb:
    """Flattening of weight lambda of a basis forest."""
    return _flatten_rec(forest, _require_semigroup(lam, forest.alphabet))


def _flatten_rec(forest: Forest, lam: Coeff) -> WordComb:
    """A tree flattens to its decoration before the flattening of its
    children; a forest of more trees to the lambda-shuffle of the
    flattenings of its trees, folded from the first tree on."""
    if not forest:
        return LinComb._unchecked({EMPTY_WORD: 1})
    key = (forest, lam)
    cached = _FLATTEN_CACHE.get(key)
    if cached is not None:
        return cached
    trees = forest.trees
    if len(trees) == 1:
        head = (trees[0].decoration,)
        inner = _flatten_rec(Forest._unchecked(trees[0].children), lam)
        out = LinComb._unchecked({head + w.letters: c for w, c in inner.items()}, Word._unchecked)
    else:
        shuffle = lambda w1, w2: _shuffle_rec(w1.letters, w2.letters, lam)
        out = _flatten_rec(Forest._unchecked(trees[:1]), lam)
        for tree in trees[1:]:
            out = out.bilinear(_flatten_rec(Forest._unchecked((tree,)), lam), shuffle)
    return _remember(_FLATTEN_CACHE, key, out)


@_one_budget
def flatten(comb: ForestComb | Forest, lam: Coeff) -> WordComb:
    """Linear extension of the flattening map."""
    sums: dict = {}
    for forest, coeff in _as_comb(comb).items():
        for w, c in flatten_forest(forest, lam).items():
            c = c if coeff == 1 else c * coeff
            acc = sums.get(w)
            sums[w] = c if acc is None else acc + c
    return LinComb._unchecked(sums)


# -- lambda-shuffle on trees --------------------------------------------------

_TREE_SHUFFLE_CACHE: dict = {}


@_one_budget
def shuffle_forests_basis(a: Forest, b: Forest, lam: Coeff) -> ForestComb:
    """Lambda-shuffle of two basis forests."""
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    return _tree_shuffle_rec(a, b, _require_semigroup(lam, alphabet))


def _graft_into(sums: dict, dec, comb: ForestComb, coeff: Coeff):
    for f, c in comb.items():
        key = Forest._unchecked((Tree._unchecked(dec, f.trees),))
        sums[key] = sums.get(key, 0) + (c if coeff == 1 else c * coeff)


def _tree_shuffle_rec(a: Forest, b: Forest, lam: Coeff) -> ForestComb:
    """The tree lambda-shuffle on validated forests, memoized."""
    if not a or not b:
        return LinComb._unchecked({a or b: 1})
    key = (a, b, lam)
    cached = _TREE_SHUFFLE_CACHE.get(key)
    if cached is not None:
        return cached
    sums: dict = {}
    if a.is_tree() and b.is_tree():
        ta, tb = a.trees[0], b.trees[0]
        fa, fb = Forest._unchecked(ta.children), Forest._unchecked(tb.children)
        _graft_into(sums, ta.decoration, _tree_shuffle_rec(fa, b, lam), 1)
        _graft_into(sums, tb.decoration, _tree_shuffle_rec(a, fb, lam), 1)
        if lam:
            # The semigroup product of positive-integer decorations is their sum.
            contracted = ta.decoration + tb.decoration
            _graft_into(sums, contracted, _tree_shuffle_rec(fa, fb, lam), lam)
    else:
        k, n = len(a.trees), len(b.trees)
        for i in range(k):
            rest_a = a.trees[:i] + a.trees[i + 1 :]
            for j in range(n):
                rest = rest_a + b.trees[:j] + b.trees[j + 1 :]
                pair = _tree_shuffle_rec(
                    Forest._unchecked(a.trees[i : i + 1]), Forest._unchecked(b.trees[j : j + 1]), lam
                )
                for f, c in pair.items():
                    key_f = Forest._unchecked(_canonical(f.trees + rest))
                    sums[key_f] = sums.get(key_f, 0) + c
        # Divide a Fraction; build one from an int (Fraction(c, m) of a Fraction c is slow).
        m = k * n
        sums = {f: c / m if type(c) is Fraction else Fraction(c, m) for f, c in sums.items()}
    return _remember(_TREE_SHUFFLE_CACHE, key, LinComb._unchecked(sums))


@_one_budget
def shuffle_forests(a: ForestComb | Forest, b: ForestComb | Forest, lam: Coeff) -> ForestComb:
    """Bilinear lambda-shuffle on linear combinations of forests."""
    return _as_comb(a).bilinear(_as_comb(b), lambda f1, f2: shuffle_forests_basis(f1, f2, lam))


def concat_comb(a: ForestComb | Forest, b: ForestComb | Forest) -> ForestComb:
    """Bilinear extension of forest concatenation."""
    return _as_comb(a).bilinear(_as_comb(b), concat_forests)


@_one_budget
def associator(f1: Forest, f2: Forest, f3: Forest, lam: Coeff) -> ForestComb:
    """(f1 sh f2) sh f3 - f1 sh (f2 sh f3) for the lambda-shuffle on trees."""
    left = shuffle_forests(shuffle_forests_basis(f1, f2, lam), f3, lam)
    right = shuffle_forests(f1, shuffle_forests_basis(f2, f3, lam), lam)
    return left - right


def clear_forest_caches():
    _FLATTEN_CACHE.clear()
    _TREE_SHUFFLE_CACHE.clear()


# -- branched binarisation ----------------------------------------------------

def _binarised(tree: Tree) -> Tree:
    node = Tree._unchecked("y", _canonical(tuple(map(_binarised, tree.children))))
    for _ in range(tree.decoration - 1):
        node = Tree._unchecked("x", (node,))
    return node


def binarise_tree(tree: Tree) -> Tree:
    """Vertex decorated n becomes a chain of n-1 x's over a y carrying the children.

    The weight bound is checked first, so the result and the recursion are at
    most MAX_WEIGHT levels deep.
    """
    if tree.alphabet is not Alphabet.POSINT:
        raise SemigroupRequired("branched binarisation needs positive-integer decorations")
    check_weight(tree.weight(), "tree to binarise")
    return _binarised(tree)


def binarise_forest(forest: Forest) -> Forest:
    return Forest._unchecked(_canonical(tuple(map(binarise_tree, forest.trees))))


def binarise_comb(comb: ForestComb | Forest) -> ForestComb:
    return _as_comb(comb).map_basis(binarise_forest)


def debinarise_tree(tree: Tree) -> Tree:
    """Strict inverse of :func:`binarise_tree`; raises NotInImage off the image."""
    run = 0
    node = tree
    while node.decoration == "x":
        if len(node.children) != 1:
            raise NotInImage("x-vertex must have exactly one child")
        run += 1
        node = node.children[0]
    if node.decoration != "y":
        raise NotInImage(f"chain ends in {node.decoration!r}, expected y")
    return Tree._unchecked(run + 1, _canonical(tuple(map(debinarise_tree, node.children))))


def debinarise_forest(forest: Forest) -> Forest:
    return Forest._unchecked(_canonical(tuple(map(debinarise_tree, forest.trees))))


# -- convergence ---------------------------------------------------------------

class ConvergenceClass(enum.Enum):
    CONV_POSINT = "convergent"          # every root decoration >= 2
    CONV_XY = "convergent-xy"           # semiconvergent with all roots x
    SEMI_XY = "semiconvergent-xy"       # leaves and branching vertices all y
    NOT_CONVERGENT = "not-convergent"

    @property
    def is_convergent(self) -> bool:
        return self in (ConvergenceClass.CONV_POSINT, ConvergenceClass.CONV_XY)

    @property
    def is_semiconvergent(self) -> bool:
        return self is not ConvergenceClass.NOT_CONVERGENT


def _xy_semiconvergent(tree: Tree) -> bool:
    if not tree.children:
        return tree.decoration == "y"
    if len(tree.children) > 1 and tree.decoration != "y":
        return False
    return all(_xy_semiconvergent(c) for c in tree.children)


def convergence_class(forest: Forest, alphabet: Alphabet | None = None) -> ConvergenceClass:
    """Strongest convergence class of a forest.

    The empty forest is convergent in every alphabet; pass ``alphabet`` to pick
    which class tag it reports (positive integers by default).
    """
    alph = forest.alphabet or alphabet or Alphabet.POSINT
    if forest.alphabet is not None and alphabet is not None:
        merge_alphabets(forest.alphabet, alphabet)
    if alph is Alphabet.POSINT:
        if all(t.decoration >= 2 for t in forest.trees):
            return ConvergenceClass.CONV_POSINT
        return ConvergenceClass.NOT_CONVERGENT
    if alph is Alphabet.XY:
        if not all(_xy_semiconvergent(t) for t in forest.trees):
            return ConvergenceClass.NOT_CONVERGENT
        if all(t.decoration == "x" for t in forest.trees):
            return ConvergenceClass.CONV_XY
        return ConvergenceClass.SEMI_XY
    return ConvergenceClass.NOT_CONVERGENT
