from collections import Counter
from itertools import combinations

import pytest

from kn3genus import (
    HypergraphSpec,
    OddOrder,
    UnsupportedCase,
    build_levi,
    euler_genus_lower_bound,
    genus_formula,
)


@pytest.mark.parametrize(
    "n,m,vertices,edges",
    [(4, 1, 8, 12), (6, 1, 26, 60), (4, 2, 12, 24)],
)
def test_levi_counts(n, m, vertices, edges):
    graph = build_levi(HypergraphSpec(n, m))
    assert graph.vertex_count == vertices
    assert graph.edge_count == edges
    assert len(graph.y_vertices) == HypergraphSpec(n, m).edge_count


def test_levi_degrees():
    spec = HypergraphSpec(6, 2)
    graph = build_levi(spec)
    degree = Counter()
    for x, y in graph.edges:
        degree[x] += 1
        degree[y] += 1
    for y in graph.y_vertices:
        assert degree[y] == 3
    for x in graph.x_vertices:
        assert degree[x] == graph.x_degree() == 2 * 10


def test_levi_triples_sorted_and_copies_indexed():
    graph = build_levi(HypergraphSpec(5, 3))
    for triple, copy in graph.y_vertices:
        assert list(triple) == sorted(triple)
        assert 0 <= copy < 3
    assert len(set(graph.y_vertices)) == len(graph.y_vertices)


@pytest.mark.parametrize("n,m", [(4, 1), (5, 2), (8, 1), (10, 3)])
def test_edge_table_matches_its_definition(n, m):
    # The tables written out one triple at a time, as their docstrings define them.
    ys = tuple((t, c) for t in combinations(range(1, n + 1), 3) for c in range(m))
    x_end = tuple(x for t, _ in ys for x in t)
    first_ids = {
        1 << a | 1 << b | 1 << c: 3 * k for k, ((a, b, c), copy) in enumerate(ys) if copy == 0
    }
    graph = build_levi(HypergraphSpec(n, m))
    assert graph.x_end == x_end
    assert graph.first_ids == first_ids
    assert list(graph.first_ids) == list(first_ids)
    assert graph.y_vertices == ys
    assert graph.edges == tuple((x, y) for y in ys for x in y[0])
    assert graph.id_of == {e: k for k, e in enumerate(graph.edges)}


def test_spec_validation():
    with pytest.raises(ValueError):
        HypergraphSpec(3)
    with pytest.raises(ValueError):
        HypergraphSpec(6, 0)


@pytest.mark.parametrize(
    "n,m,bound",
    [(4, 1, 0), (6, 1, 6), (5, 1, 2), (7, 1, 13), (4, 2, 2)],
)
def test_euler_genus_lower_bound(n, m, bound):
    assert euler_genus_lower_bound(HypergraphSpec(n, m)) == bound


@pytest.mark.parametrize(
    "n,m,orientable,value",
    [
        (6, 1, True, 3),
        (8, 1, True, 11),
        (4, 2, False, 2),
        (12, 1, True, 50),
        (16, 1, True, 133),
    ],
)
def test_genus_formula(n, m, orientable, value):
    assert genus_formula(HypergraphSpec(n, m), orientable) == value


def test_genus_formula_errors():
    with pytest.raises(OddOrder):
        genus_formula(HypergraphSpec(7), True)
    with pytest.raises(UnsupportedCase):
        genus_formula(HypergraphSpec(4, 1), False)


def test_nonorientable_is_twice_orientable():
    for n in range(6, 20, 2):
        spec = HypergraphSpec(n)
        assert genus_formula(spec, False) == 2 * genus_formula(spec, True)


def test_lower_bound_matches_quadrilateral_formula_for_even_n():
    # The ceiling is exact for even n and the orientable genus is half of it.
    for n in range(4, 20, 2):
        spec = HypergraphSpec(n)
        bound = euler_genus_lower_bound(spec)
        assert bound == (n - 2) * (n + 3) * (n - 4) // 12
        assert genus_formula(spec, True) * 2 == bound
