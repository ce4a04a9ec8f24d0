"""Embedding schemes of Levi graphs: rotations, signatures, face tracing.

An embedding scheme is a rotation system (a cyclic order of incident edges
at every vertex) plus a signature assigning +1 or -1 to every edge.  Up to
switching equivalence this determines a 2-cell surface embedding, whose
faces are traced combinatorially.  Tracing maps every edge to its integer
id in the cached edge table of its (n, m) (`levi.levi_edges`) and walks the
faces over the flags (edge-ends with a side); one search over the vertices
forces a parity that switches the signature to all-positive, which decides
orientability and, by reaching every vertex, connectivity.  Switching
equivalence of two schemes is decided in linear time by forcing the switch
state of every vertex along the edges.

The central conversions realize the bijection between quadrilateral
embeddings of the Levi graph and pairwise-compatible circuit families:
`set_to_scheme` reads rotations off the circuits and derives the signature
from traversal directions, `scheme_to_set` recovers the circuits from the
rotations around the vertex side.  `verify_family` checks a family once and
certifies it, through its scheme, as a minimum-genus embedding or not.
"""

from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

from .circuits import (
    Circuit,
    EmbeddingSet,
    ValidationReport,
    check_family,
    is_embedding_set,
)
from .exceptions import (
    CopyResolutionError,
    Disconnected,
    GraphMismatch,
    NotAnEmbeddingSet,
    NotQuadrilateral,
    OddOrder,
)
from .levi import (
    HypergraphSpec,
    LeviEdges,
    LeviGraph,
    YVertex,
    euler_genus_lower_bound,
    levi_edges,
)

XVertex = int
Vertex = XVertex | YVertex
Edge = tuple[XVertex, YVertex]


@dataclass(frozen=True)
class EmbeddingScheme:
    graph: LeviGraph
    rotation: dict[Vertex, tuple[Edge, ...]]
    signature: dict[Edge, int]


@dataclass(frozen=True)
class FaceReport:
    face_count: int
    face_lengths: tuple[int, ...]
    euler_genus: int
    orientable: bool

    @property
    def all_quadrilateral(self) -> bool:
        return all(length == 4 for length in self.face_lengths)

    def length_histogram(self) -> Counter:
        return Counter(self.face_lengths)


def _vertices(sch: EmbeddingScheme):
    yield from sch.graph.x_vertices
    yield from sch.graph.y_vertices


def _rotation(sch: EmbeddingScheme, v: Vertex) -> tuple[Edge, ...]:
    rot = sch.rotation.get(v)
    if rot is None:
        raise GraphMismatch(f"no rotation at vertex {v}")
    if not rot:
        raise Disconnected(f"vertex {v} has no incident edges")
    return rot


def _rotation_ends(sch: EmbeddingScheme, table: LeviEdges):
    """Per vertex, X side first: the ends of the edges of its rotation, in order.

    The end of edge id k at its X vertex is 2k, at its Y vertex 2k + 1.
    Raises GraphMismatch for an entry that is not an edge at that vertex.
    """
    ids, x_end = table.ids, table.x_end
    for x in sch.graph.x_vertices:
        at = [ids.get(e) for e in _rotation(sch, x)]
        if not all(k is not None and x_end[k] == x for k in at):
            raise GraphMismatch(f"the rotation at vertex {x} lists an edge not at {x}")
        yield [2 * k for k in at]
    for yi, y in enumerate(sch.graph.y_vertices):
        at = [ids.get(e) for e in _rotation(sch, y)]
        if not all(k is not None and k // 3 == yi for k in at):
            raise GraphMismatch(f"the rotation at vertex {y} lists an edge not at {y}")
        yield [2 * k + 1 for k in at]


def trace_faces(sch: EmbeddingScheme) -> FaceReport:
    """Trace the faces, and decide connectivity and orientability by vertex parity.

    One pass maps every rotation entry to its integer Levi edge id
    (`levi_edges`) and places it among the flags: every edge contributes
    four (two ends, two sides).  Two pairings act on them: the corner
    pairing (consecutive edge-ends around a vertex) and the band pairing
    (sides matched across an edge, crossed when the signature is negative).
    Faces are the orbits under corner and band; a face of length L is an
    orbit of 2L flags.

    The embedding is orientable iff its signature switches to all-positive,
    i.e. iff some vertex parity has par[x] xor par[y] = [sign < 0] on every
    edge xy.  One search from the first vertex forces that parity along the
    edges and finds any edge that breaks it; the graph is connected iff the
    search reaches every vertex.

    Raises Disconnected for an unreachable part of the graph, including a
    vertex without edges, and GraphMismatch when a rotation misses, repeats
    or adds an edge of the graph or an edge has no signature.
    """
    graph = sch.graph
    table = levi_edges(graph.n, graph.m)
    count = len(table.edges)
    # Flag id: b + 2*p + s for the side s of the edge at position p in the
    # rotation at a vertex whose flags start at b.  Side 1 touches the
    # corner toward position p+1.  ends[2k] and ends[2k+1] hold b + 2*p for
    # the X and Y end of edge id k.
    ends = [-1] * (2 * count)
    adjacent: list[list[int]] = []
    partner_corner: list[int] = []
    for at in _rotation_ends(sch, table):
        b, deg = len(partner_corner), len(at)
        for p, end in enumerate(at):
            ends[end] = b + 2 * p
            partner_corner += (b + 2 * ((p - 1) % deg) + 1, b + 2 * ((p + 1) % deg))
        adjacent.append(at)
    total = len(partner_corner)
    if total != 4 * count or -1 in ends:
        raise GraphMismatch("a rotation misses or repeats an edge of the graph")

    signs = [sch.signature.get(e) for e in table.edges]
    if None in signs:
        raise GraphMismatch(f"edge {table.edges[signs.index(None)]} has no signature")
    negative = bytearray(count)
    partner_band = [0] * total
    for k, sign in enumerate(signs):
        fx, fy = ends[2 * k], ends[2 * k + 1]
        if sign == 1:
            partner_band[fx + 1], partner_band[fy] = fy, fx + 1
            partner_band[fx], partner_band[fy + 1] = fy + 1, fx
        else:
            negative[k] = 1
            partner_band[fx + 1], partner_band[fy + 1] = fy + 1, fx + 1
            partner_band[fx], partner_band[fy] = fy, fx

    # Vertex index: x - 1 for an X vertex, n + y for the Y vertex at index y.
    n, x_end = graph.n, table.x_end
    parity = bytearray(b"\x02") * len(adjacent)  # 2: not reached yet
    parity[0] = 0
    reached = 1
    orientable = True
    stack = [0]
    while stack:
        v = stack.pop()
        pv = parity[v]
        for end in adjacent[v]:
            k = end >> 1
            w = x_end[k] - 1 if end & 1 else n + k // 3
            want = pv ^ negative[k]
            if parity[w] == 2:
                parity[w] = want
                reached += 1
                stack.append(w)
            elif parity[w] != want:
                orientable = False
    if reached != len(adjacent):
        raise Disconnected(
            f"only {reached} of {len(adjacent)} vertices are reachable from the first"
        )

    # Corner and band are fixed-point-free involutions, so each orbit is a
    # cycle that alternates them.
    lengths = []
    seen = bytearray(total)
    for start in range(total):
        if seen[start]:
            continue
        size = 0
        f = start
        while True:
            g = partner_corner[f]
            seen[f] = seen[g] = 1
            size += 1
            f = partner_band[g]
            if f == start:
                break
        lengths.append(size)

    v_count = sch.graph.vertex_count
    e_count = sch.graph.edge_count
    f_count = len(lengths)
    genus = 2 - (v_count - e_count + f_count)
    return FaceReport(
        face_count=f_count,
        face_lengths=tuple(sorted(lengths)),
        euler_genus=genus,
        orientable=orientable,
    )


def is_orientable(sch: EmbeddingScheme) -> bool:
    """True iff the signature is switching-equivalent to all-positive.

    Decided by the vertex parity search of `trace_faces`.
    """
    return trace_faces(sch).orientable


# ---------------------------------------------------------------------------
# circuits -> scheme


def _traversal_positions(c: Circuit) -> dict[tuple[int, int], list[int]]:
    """Positions of each unordered traversed pair, in scan order."""
    out: dict[tuple[int, int], list[int]] = {}
    for p, (u, v) in enumerate(c.steps()):
        key = (u, v) if u <= v else (v, u)
        out.setdefault(key, []).append(p)
    return out


def _scan_order_labels(c: Circuit) -> tuple[int, ...]:
    labels = [0] * len(c.seq)
    for positions in _traversal_positions(c).values():
        for r, p in enumerate(positions):
            labels[p] = r
    return tuple(labels)


def _labels_consistent(c: Circuit, labels: tuple[int, ...]) -> bool:
    for positions in _traversal_positions(c).values():
        if sorted(labels[p] for p in positions) != list(range(c.m)):
            return False
    return True


def _build_scheme(s: EmbeddingSet, labelled: list[tuple[int, ...]]) -> EmbeddingScheme:
    table = levi_edges(s.n, s.m)
    edges, first_ids = table.edges, table.first_ids
    rotation: dict[Vertex, tuple[Edge, ...]] = {}
    signature: dict[Edge, int] = {}

    for k, y in enumerate(table.graph.y_vertices):
        rotation[y] = edges[3 * k : 3 * k + 3]

    for i in range(1, s.n + 1):
        c = s.circuit(i)
        labels = labelled[i - 1]
        rot = []
        for p, (u, v) in enumerate(c.steps()):
            # i sits at slot (i > u) + (i > v) of the sorted triple.
            e = edges[first_ids[tuple(sorted((i, u, v)))] + 3 * labels[p] + (i > u) + (i > v)]
            rot.append(e)
            # Positive signature iff the traversal runs u -> v where (u, v)
            # follows i cyclically in the sorted triple, i.e. iff exactly one
            # of i > u, u > v, v > i holds.
            signature[e] = 1 if (i > u) + (u > v) + (v > i) == 1 else -1
        rotation[i] = tuple(rot)
    return EmbeddingScheme(graph=table.graph, rotation=rotation, signature=signature)


# Copy labellings the search for missing labels may try.
LABEL_SEARCH_BUDGET = 50_000


def _resolve_labels_by_search(s: EmbeddingSet) -> list[tuple[int, ...]]:
    """Find copy labels yielding a quadrilateral scheme by bounded search.

    The circuit of the smallest element of each triple keeps scan-order
    labels; the other two circuits try every per-pair relabelling.  Intended
    for small label-less inputs (files); builder output carries labels.
    """
    scan = [_scan_order_labels(c) for c in s.circuits]
    # Free slots: for each circuit i and pair {u,v} with i not minimal in
    # the triple {i,u,v}, the m positions may take any permutation of 0..m-1.
    slots: list[tuple[int, list[int]]] = []
    for i in range(1, s.n + 1):
        for (u, v), positions in _traversal_positions(s.circuit(i)).items():
            if min(u, v) < i:
                slots.append((i, positions))
    perms = list(permutations(range(s.m)))
    space = len(perms) ** len(slots)
    if space > LABEL_SEARCH_BUDGET:
        raise CopyResolutionError(
            f"no copy labels given and the search space ({space} candidates) "
            f"exceeds the budget ({LABEL_SEARCH_BUDGET}); rebuild the family "
            "with the builders, which record copy labels"
        )
    for assignment in product(perms, repeat=len(slots)):
        labelled = [list(lab) for lab in scan]
        for (i, positions), perm in zip(slots, assignment):
            for r, p in enumerate(positions):
                labelled[i - 1][p] = perm[r]
        candidate = [tuple(lab) for lab in labelled]
        sch = _build_scheme(s, candidate)
        if trace_faces(sch).all_quadrilateral:
            return candidate
    raise CopyResolutionError(
        "no copy labelling yields an all-quadrilateral scheme"
    )


def _copy_labels(s: EmbeddingSet) -> list[tuple[int, ...]]:
    """Copy labels of every circuit of a valid family.

    All zeros for m = 1; otherwise the circuits' own labels, checked, when
    every circuit has them, and else the labels found by the bounded search.
    """
    if s.m == 1:
        return [(0,) * len(c.seq) for c in s.circuits]
    if all(c.copy_labels is not None for c in s.circuits):
        for c in s.circuits:
            if not _labels_consistent(c, c.copy_labels):
                raise CopyResolutionError(
                    f"circuit {c.excluded}: copy labels are not a permutation "
                    "of 0..m-1 on some parallel pair"
                )
        return [c.copy_labels for c in s.circuits]
    return _resolve_labels_by_search(s)


def _require_valid(s: EmbeddingSet) -> None:
    report = is_embedding_set(s, require_strong=False)
    if not report:
        raise NotAnEmbeddingSet(report.first())


def with_copy_labels(s: EmbeddingSet) -> EmbeddingSet:
    """The same family with parallel-copy labels attached to every circuit.

    No-op when labels are already present; all zeros for m = 1; for
    label-less multi-edge families the assignment is found by the bounded
    search and is face-consistent by construction.
    """
    if all(c.copy_labels is not None for c in s.circuits):
        return s
    if s.m > 1:
        _require_valid(s)
    circuits = tuple(
        Circuit(c.excluded, c.n, c.m, c.seq, lab)
        for c, lab in zip(s.circuits, _copy_labels(s))
    )
    return EmbeddingSet(s.n, s.m, circuits, s.strong)


def set_to_scheme(s: EmbeddingSet) -> EmbeddingScheme:
    """Rotation and signature of the quadrilateral embedding encoded by a family.

    The rotation around vertex i lists the triples read off consecutive
    pairs of its circuit; the rotation around a triple is its three elements
    in sorted cyclic order; the signature of an end records whether the
    circuit at that end traverses the opposite pair in the cyclic direction
    of the sorted triple.

    For m > 1 the parallel copies are told apart by the circuits' copy
    labels when present, otherwise by a search of at most
    `LABEL_SEARCH_BUDGET` labellings, validated through face tracing.
    """
    _require_valid(s)
    return _build_scheme(s, _copy_labels(s))


@dataclass(frozen=True)
class FamilyReport:
    """Everything that certifies a family as a minimum-genus embedding.

    `compatible` is None when `eulerian` fails and `strong` is None when
    `compatible` fails; the scheme, its faces and the Euler genus they must
    reach (the lower bound) are present exactly when the family is compatible.
    """

    eulerian: ValidationReport
    compatible: ValidationReport | None
    strong: ValidationReport | None
    scheme: EmbeddingScheme | None
    faces: FaceReport | None
    expected_genus: int | None

    def is_minimum(self, orientable: bool) -> bool:
        """A minimum-genus embedding of the requested orientability: compatible
        (strongly, if orientable), all faces quadrilateral, Euler genus at the
        lower bound, and traced orientability as requested."""
        faces = self.faces
        return bool(
            self.compatible
            and (self.strong or not orientable)
            and faces.all_quadrilateral
            and faces.euler_genus == self.expected_genus
            and faces.orientable == orientable
        )


def verify_family(s: EmbeddingSet) -> FamilyReport:
    """Check a family once and, when it is compatible, build and trace its scheme."""
    eulerian, compatible, strong = check_family(s)
    scheme = faces = expected_genus = None
    if compatible:
        scheme = _build_scheme(s, _copy_labels(s))
        faces = trace_faces(scheme)
        expected_genus = euler_genus_lower_bound(HypergraphSpec(s.n, s.m))
    return FamilyReport(eulerian, compatible, strong, scheme, faces, expected_genus)


# ---------------------------------------------------------------------------
# scheme -> circuits


def _read_circuit(sch: EmbeddingScheme, i: int) -> Circuit:
    rot = sch.rotation[i]
    neighbors: list[YVertex] = [e[1] for e in rot]
    k = len(neighbors)

    def third(y: YVertex, prev: int) -> int | None:
        rest = [w for w in y[0] if w != i and w != prev]
        return rest[0] if len(rest) == 1 else None

    first = [w for w in neighbors[0][0] if w != i]
    for a0 in first:
        seq = [a0]
        labels = []
        ok = True
        for p in range(1, k):
            nxt = third(neighbors[p], seq[-1])
            if nxt is None:
                ok = False
                break
            seq.append(nxt)
            labels.append(neighbors[p][1])
        if not ok:
            continue
        # Close the cycle: the first neighbor must be the triple {i, a_last, a_0}.
        if set(neighbors[0][0]) == {i, seq[-1], seq[0]}:
            labels.append(neighbors[0][1])
            return Circuit(
                excluded=i,
                n=sch.graph.n,
                m=sch.graph.m,
                seq=tuple(seq),
                copy_labels=tuple(labels),
            )
    raise NotQuadrilateral(
        f"rotation around vertex {i} does not read as an Eulerian circuit"
    )


def scheme_to_set(sch: EmbeddingScheme) -> EmbeddingSet:
    """Recover the circuit family of a quadrilateral embedding.

    Raises NotQuadrilateral when some face has length != 4, and OddOrder for
    odd n (the vertex-deleted complete graph has odd degrees then, so no
    quadrilateral embedding exists).  Validity and the `strong` flag come
    from one transition index (`check_family`).
    """
    if sch.graph.n % 2 != 0:
        raise OddOrder(f"no quadrilateral embedding for odd order {sch.graph.n}")
    report = trace_faces(sch)
    if not report.all_quadrilateral:
        bad = next(length for length in report.face_lengths if length != 4)
        raise NotQuadrilateral(f"face of length {bad} traced")
    n, m = sch.graph.n, sch.graph.m
    circuits = tuple(_read_circuit(sch, i) for i in range(1, n + 1))
    eulerian, compatible, strong = check_family(
        EmbeddingSet(n=n, m=m, circuits=circuits, strong=False)
    )
    if not compatible:
        failed = compatible if compatible is not None else eulerian
        raise NotQuadrilateral(f"recovered family invalid: {failed.first()}")
    return EmbeddingSet(n=n, m=m, circuits=circuits, strong=strong.ok)


# ---------------------------------------------------------------------------
# switching equivalence


def _switch_states(ra: tuple[Edge, ...], rb: tuple[Edge, ...]) -> int:
    """Switch states carrying rotation ra onto rb up to rotation, as bits.

    Bit 1: ra itself (kept); bit 2: ra reversed.  Rotations list each edge
    once, so the offset is fixed by where rb[0] sits in ra.
    """
    if len(ra) != len(rb):
        return 0
    try:
        i = ra.index(rb[0])
    except ValueError:
        return 0
    kept = ra[i:] + ra[:i] == rb
    reversed_ = ra[i::-1] + ra[:i:-1] == rb
    return kept | reversed_ << 1


# Switch-state bits seen from the other state of the component's root.
_SWAPPED = (0, 2, 1, 3)


def schemes_equivalent(a: EmbeddingScheme, b: EmbeddingScheme) -> bool:
    """Switching equivalence of two schemes on the same labelled graph.

    Switching a set U of vertices reverses their rotations and negates the
    signature of every edge with one end in U.  Whether v is switched is
    then forced along every edge xy: x and y differ in state iff a and b
    differ in signature on xy.  So one search per connected component fixes
    every state relative to the component's first vertex, checks every edge
    on the way, and keeps the root states under which each rotation of a
    becomes that of b up to rotation.  The cost is linear in the graph.

    Raises GraphMismatch when the graphs differ, or when a vertex the search
    reaches has no rotation or an edge it crosses has no signature.
    """
    if a.graph != b.graph:
        raise GraphMismatch("schemes are defined on different labelled graphs")
    parity: dict[Vertex, int] = {}
    for root in _vertices(a):
        if root in parity:
            continue
        parity[root] = 0
        fits = 3  # bit 1 << s: the root may take state s
        stack = [root]
        while stack:
            v = stack.pop()
            p = parity[v]
            ra, rb = a.rotation.get(v), b.rotation.get(v)
            if ra is None or rb is None:
                raise GraphMismatch(f"no rotation at vertex {v}")
            states = _switch_states(ra, rb)
            fits &= _SWAPPED[states] if p else states
            if not fits:
                return False
            other = 1 if isinstance(v, int) else 0
            for e in ra:
                w = e[other]
                sa, sb = a.signature.get(e), b.signature.get(e)
                if sa is None or sb is None:
                    raise GraphMismatch(f"edge {e} has no signature")
                q = p ^ (sa != sb)
                if w not in parity:
                    parity[w] = q
                    stack.append(w)
                elif parity[w] != q:
                    return False
    return True
