"""Complete 3-uniform hypergraphs, their Levi graphs, and genus formulas.

The hypergraph of order n with multiplicity m has every 3-element subset of
{1..n} as an edge, repeated m times.  Its Levi graph is the bipartite
incidence graph: one side is the n vertices, the other the m*C(n,3) edge
copies, and each edge copy is joined to its three elements.  One
`LeviGraph` per (n, m) numbers its edges; every scheme reads those ids,
and the vertex tuples are built only for the dict form of a scheme.

All arithmetic here is exact integer arithmetic.
"""

from functools import cache, cached_property
from itertools import chain, combinations, product, repeat
from math import comb

from .exceptions import InvalidParameter, OddOrder, UnsupportedCase, Value, immutable

Triple = tuple[int, int, int]
# A Levi vertex on the edge side: (sorted triple, copy index in 0..m-1).
YVertex = tuple[Triple, int]


def require_ints(*values) -> None:
    """Refuse an order or a multiplicity that is not an int, or is a bool,
    with the TypeError of `HypergraphSpec`, which the builders share."""
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        raise TypeError("n and m must be integers")


class HypergraphSpec(Value):
    """Order n (>= 4) and edge multiplicity m (>= 1).  Immutable; equal
    and of equal hash when n and m are."""

    _fields = ("n", "m")

    def __init__(self, n: int, m: int = 1):
        require_ints(n, m)
        if n < 4:
            raise InvalidParameter(f"order n must be >= 4, got {n}")
        if m < 1:
            raise InvalidParameter(f"multiplicity m must be >= 1, got {m}")
        self.__dict__.update(n=n, m=m)

    @property
    def edge_count(self) -> int:
        return self.m * comb(self.n, 3)


class LeviGraph:
    """Bipartite incidence graph of the complete 3-uniform hypergraph.

    Side X carries the vertex labels 1..n.  Side Y carries one vertex per
    edge copy, written as a sorted triple plus a copy index; the Y vertex at
    index y is copy y % m of the triple of rank y // m in lexicographic
    order.  Every Y-vertex has degree 3; every X-vertex has degree
    m*C(n-1,2).

    Edge id 3*y + slot joins the Y vertex at index y to the element at
    position `slot` of its sorted triple.  `x_end[id]` is the X end of an
    edge, and `first_ids[1 << a | 1 << b | 1 << c]` the id of copy 0 of the
    triple {a, b, c} at its smallest element; copy c at slot s adds 3*c + s.
    The counts follow from n and m.  The tuple `y_vertices`, the (x, y)
    pairs `edges` in id order and the inverse dict `id_of` serve only the
    dict form of a scheme, so each is built when first read.

    There is one graph per (n, m), from `build_levi`, shared by every
    caller: read it, never change it.  Two graphs are equal when they are
    the same object.  Immutable; its repr shows n and m.
    """

    def __init__(self, n: int, m: int, x_end: tuple[int, ...], first_ids: dict[int, int]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x_end", x_end)
        object.__setattr__(self, "first_ids", first_ids)

    __setattr__ = __delattr__ = immutable

    def __repr__(self) -> str:
        return f"LeviGraph(n={self.n!r}, m={self.m!r})"

    @property
    def x_vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_count(self) -> int:
        return self.n + len(self.x_end) // 3

    @property
    def edge_count(self) -> int:
        return len(self.x_end)

    def x_degree(self) -> int:
        return self.m * comb(self.n - 1, 2)

    @cached_property
    def y_vertices(self) -> tuple[YVertex, ...]:
        return tuple(product(combinations(self.x_vertices, 3), range(self.m)))

    @cached_property
    def edges(self) -> tuple[tuple[int, YVertex], ...]:
        """All incidence edges as (x, y) pairs, x listed first, in id order."""
        ys = self.y_vertices
        return tuple(zip(self.x_end, chain.from_iterable(zip(ys, ys, ys))))

    @cached_property
    def id_of(self) -> dict[tuple[int, YVertex], int]:
        return {e: k for k, e in enumerate(self.edges)}

    def __reduce__(self):
        # Unpickled, it is the one shared graph; the cached views stay behind.
        return build_levi, (HypergraphSpec(self.n, self.m),)


@cache
def build_levi(spec: HypergraphSpec) -> LeviGraph:
    """The Levi graph of a spec, built on first use and shared.

    `x_end` flattens the triples in lexicographic order, each repeated for
    its m copies.  A triple's mask is the sum of its three distinct bits,
    and its copy 0 has the id 3*m times the triple's rank, so `first_ids`
    zips the masks with a range.  Both are C-level iterator passes, never a
    Python loop per triple.
    """
    n, m = spec.n, spec.m
    copies = chain.from_iterable(map(repeat, combinations(range(1, n + 1), 3), repeat(m)))
    x_end = tuple(chain.from_iterable(copies))
    masks = map(sum, combinations([1 << x for x in range(1, n + 1)], 3))
    return LeviGraph(
        n=n, m=m, x_end=x_end, first_ids=dict(zip(masks, range(0, len(x_end), 3 * m)))
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
