"""The forest catalog: its counts against independent formulas, and no repeats."""
import pytest

from arbozeta.catalog import forests_with_vertices, forests_with_weight, trees_with_vertices, trees_with_weight
from arbozeta.errors import AlphabetMismatch, InvalidDecoration
from arbozeta.trees import Forest, Tree

# OEIS A000081(v + 1): a forest on v vertices is a rooted tree on v + 1 with its root removed.
ROOTED_FORESTS = [1, 1, 2, 4, 9, 20, 48, 115, 286]


def _forests_by_weight(max_weight: int) -> list[int]:
    """F(w), forests of positive-integer weight w, by the Euler transform of T.

    A tree of weight w is a root r over a forest of weight w - r, so
    T(w) = sum_{r=1..w} F(w - r); forests are multisets of trees, so
    w F(w) = sum_{k=1..w} c(k) F(w - k) with c(k) = sum_{d | k} d T(d).
    """
    forests = [1]
    trees = [0]
    for w in range(1, max_weight + 1):
        trees.append(sum(forests[w - r] for r in range(1, w + 1)))
        c = [sum(d * trees[d] for d in range(1, k + 1) if k % d == 0) for k in range(w + 1)]
        forests.append(sum(c[k] * forests[w - k] for k in range(1, w + 1)) // w)
    return forests


def test_forests_with_one_decoration_count_rooted_trees():
    assert [len(forests_with_vertices(v, (1,))) for v in range(9)] == ROOTED_FORESTS


def test_forests_with_weight_match_the_euler_transform():
    want = _forests_by_weight(7)
    assert want == [1, 1, 3, 8, 24, 71, 224, 710]
    assert [len(forests_with_weight(w)) for w in range(8)] == want


def _assert_distinct_of_size(items, size, want):
    assert len(set(items)) == len(items)
    assert all(size(item) == want for item in items)


@pytest.mark.parametrize("decorations,max_vertices", [((1, 2, 3), 5), ((1, 2), 6), (("x", "y"), 6)])
def test_vertex_catalog_is_distinct_and_sized(decorations, max_vertices):
    for v in range(max_vertices + 1):
        _assert_distinct_of_size(forests_with_vertices(v, decorations), lambda f: f.vertex_count, v)
        _assert_distinct_of_size(trees_with_vertices(v, decorations), lambda t: t.vertex_count, v)


def test_weight_catalog_is_distinct_and_sized():
    for w in range(8):
        _assert_distinct_of_size(forests_with_weight(w), Forest.weight, w)
        _assert_distinct_of_size(trees_with_weight(w), Tree.weight, w)


@pytest.mark.parametrize("decorations, error", [((0,), InvalidDecoration), ((1, "x"), AlphabetMismatch)])
def test_catalog_checks_its_decorations(decorations, error):
    with pytest.raises(error):
        trees_with_vertices(1, decorations)
    with pytest.raises(error):
        forests_with_vertices(2, decorations)
