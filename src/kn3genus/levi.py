"""Complete 3-uniform hypergraphs, their Levi graphs, and genus formulas.

The hypergraph of order n with multiplicity m has every 3-element subset of
{1..n} as an edge, repeated m times.  Its Levi graph is the bipartite
incidence graph: one side is the n vertices, the other the m*C(n,3) edge
copies, and each edge copy is joined to its three elements.

All arithmetic here is exact integer arithmetic.
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, combinations, product
from math import comb
from operator import itemgetter

from .exceptions import InvalidParameter, OddOrder, UnsupportedCase

Triple = tuple[int, int, int]
# A Levi vertex on the edge side: (sorted triple, copy index in 0..m-1).
YVertex = tuple[Triple, int]


@dataclass(frozen=True)
class HypergraphSpec:
    """Order n (>= 4) and edge multiplicity m (>= 1)."""

    n: int
    m: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise TypeError("n and m must be integers")
        if self.n < 4:
            raise InvalidParameter(f"order n must be >= 4, got {self.n}")
        if self.m < 1:
            raise InvalidParameter(f"multiplicity m must be >= 1, got {self.m}")

    @property
    def edge_count(self) -> int:
        return self.m * comb(self.n, 3)


@dataclass(frozen=True)
class LeviGraph:
    """Bipartite incidence graph of the complete 3-uniform hypergraph.

    Side X carries the vertex labels 1..n.  Side Y carries one vertex per
    edge copy, written as a sorted triple plus a copy index.  Every Y-vertex
    has degree 3; every X-vertex has degree m*C(n-1,2).
    """

    n: int
    m: int
    y_vertices: tuple[YVertex, ...]

    @property
    def x_vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_count(self) -> int:
        return self.n + len(self.y_vertices)

    @property
    def edge_count(self) -> int:
        return 3 * len(self.y_vertices)

    def edges(self):
        """All incidence edges as (x, y) pairs, x listed first."""
        for y in self.y_vertices:
            for x in y[0]:
                yield (x, y)

    def x_degree(self) -> int:
        return self.m * comb(self.n - 1, 2)


@cache
def build_levi(spec: HypergraphSpec) -> LeviGraph:
    """Construct the Levi graph with triples sorted and copies indexed.

    The Y vertices run through the triples in lexicographic order, the
    copies of each triple in turn.  Built once per spec; every caller
    shares the (immutable) result.
    """
    ys = tuple(product(combinations(range(1, spec.n + 1), 3), range(spec.m)))
    return LeviGraph(n=spec.n, m=spec.m, y_vertices=ys)


@dataclass(frozen=True, eq=False)
class LeviEdges:
    """Integer ids for the edges of one Levi graph.

    Edge id 3*y + slot joins the Y vertex at index y of `graph.y_vertices`
    to the element at position `slot` of its sorted triple, so ids run in
    the order of `graph.edges()`.  `x_end[id]` is the X end of an edge, and
    `first_ids[1 << a | 1 << b | 1 << c]` the id of copy 0 of the triple
    {a, b, c} at its smallest element; copy c at slot s adds 3*c + s.  Both
    are built by C-level iterator passes, never a Python loop per triple.
    The (x, y) pairs `edges[id]` and the inverse dict `id_of` serve only the
    dict form of a scheme, so each is built when first read.  The table is
    shared by every caller: read it, never change it.
    """

    graph: LeviGraph
    x_end: tuple[int, ...]
    first_ids: dict[int, int]

    @cached_property
    def edges(self) -> tuple[tuple[int, YVertex], ...]:
        return tuple(self.graph.edges())

    @cached_property
    def id_of(self) -> dict[tuple[int, YVertex], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def __reduce__(self):
        # Unpickled, it is the one shared table; the cached views stay behind.
        return levi_edges, (self.graph.n, self.graph.m)


@cache
def levi_edges(n: int, m: int) -> LeviEdges:
    """The edge table of the Levi graph of order n and multiplicity m, built on first use.

    `x_end` flattens the triples of the Y vertices.  A triple's mask is the
    sum of its three distinct bits, and its copy 0 has the id 3*m times the
    triple's rank, so `first_ids` zips the masks with a range.
    """
    graph = build_levi(HypergraphSpec(n, m))
    x_end = tuple(chain.from_iterable(map(itemgetter(0), graph.y_vertices)))
    masks = map(sum, combinations([1 << x for x in range(1, n + 1)], 3))
    return LeviEdges(
        graph=graph,
        x_end=x_end,
        first_ids=dict(zip(masks, range(0, len(x_end), 3 * m))),
    )


def euler_genus_lower_bound(spec: HypergraphSpec) -> int:
    """Euler-formula lower bound ceil(e/2 - n + 2) on the Euler genus.

    Tight exactly when the Levi graph has a quadrilateral embedding, which
    holds for every even n handled by the builders.
    """
    e = spec.edge_count
    return -((-(e - 2 * spec.n + 4)) // 2)


def genus_formula(spec: HypergraphSpec, orientable: bool) -> int:
    """Closed-form minimum genus for even n.

    Orientable genus is (n-2)(m*n*(n-1)-12)/24; the non-orientable genus
    (crosscap number) is twice that.  The non-orientable value is undefined
    for the planar case n=4, m=1.
    """
    n, m = spec.n, spec.m
    if n % 2 != 0:
        raise OddOrder(f"genus formula requires even order, got n={n}")
    if not orientable and n == 4 and m == 1:
        raise UnsupportedCase(
            "the order-4 single-edge hypergraph is planar; "
            "it has no non-orientable minimum genus"
        )
    numerator = (n - 2) * (m * n * (n - 1) - 12)
    divisor = 24 if orientable else 12
    assert numerator % divisor == 0, (n, m, orientable)
    return numerator // divisor
