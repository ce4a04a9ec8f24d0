"""Embedding schemes of Levi graphs: rotations, signatures, face tracing.

An embedding scheme is a rotation system (a cyclic order of incident edges
at every vertex) plus a signature assigning +1 or -1 to every edge.  Up to
switching equivalence this determines a 2-cell surface embedding, whose
faces are traced combinatorially.

Scheme algorithms run on the integer edge ids of `levi.levi_edges` (id
3*y + slot).  An `IdScheme` holds the X rotations as lists of ids, the Y
rotations (or None for the sorted order 3y, 3y+1, 3y+2) and a bytearray
marking the negative edges.  One core, `trace_ids`, walks the faces over
flags keyed by edge and reads orientability off a forced vertex parity.
Two front ends feed it: the family front end turns a family's circuit
steps into ids and signs (the id formula and the sign rule live there
alone), and `scheme_ids` checks a dict `EmbeddingScheme` against its graph
before mapping it to ids.  The dict scheme is the public view, built only
when a caller asks for it: `set_to_scheme`, or reading
`FamilyReport.scheme`.  Switching equivalence of two dict schemes is
decided in linear time by forcing the switch state of every vertex along
the edges.

The central conversions realize the bijection between quadrilateral
embeddings of the Levi graph and pairwise-compatible circuit families:
`set_to_scheme` reads rotations off the circuits and derives the signature
from traversal directions, `scheme_to_set` recovers the circuits from the
rotations around the vertex side.  `verify_family` checks a family once and
certifies it, through its scheme, as a minimum-genus embedding or not.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import xor

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


@dataclass(frozen=True, eq=False)
class IdScheme:
    """An embedding scheme on the integer edge ids of its Levi graph.

    `x_rotations[x - 1]` lists the ids of the edges at X vertex x in
    rotation order and `y_rotations[y]` those at the Y vertex at index y;
    `y_rotations` is None when every Y rotation is 3y, 3y+1, 3y+2, the order
    of its sorted triple.  `negative[k]` is 1 when edge k has signature -1.
    Every front end hands out rotations that list each edge exactly once at
    each of its ends, on which `trace_ids` relies.
    """

    table: LeviEdges
    x_rotations: list[list[int]]
    y_rotations: list[list[int]] | None
    negative: bytearray


def scheme_ids(sch: EmbeddingScheme) -> IdScheme:
    """The dict front end: check a scheme against its Levi graph, map it to ids.

    Raises GraphMismatch when a vertex has no rotation, a rotation lists an
    edge that is not at its vertex, some edge is missing from or repeated in
    the rotations, or an edge has no signature of +1 or -1; Disconnected
    for a vertex without edges.
    """
    graph = sch.graph
    table = levi_edges(graph.n, graph.m)
    ids, x_end, count = table.ids, table.x_end, len(table.x_end)
    x_rotations = []
    for x in graph.x_vertices:
        at = [ids.get(e) for e in _rotation(sch, x)]
        if None in at or [x_end[k] for k in at].count(x) != len(at):
            raise GraphMismatch(f"the rotation at vertex {x} lists an edge not at {x}")
        x_rotations.append(at)
    y_rotations = []
    for yi, y in enumerate(graph.y_vertices):
        at = [ids.get(e) for e in _rotation(sch, y)]
        if None in at or [k // 3 for k in at].count(yi) != len(at):
            raise GraphMismatch(f"the rotation at vertex {y} lists an edge not at {y}")
        y_rotations.append(at)
    # Every entry is at its own vertex, so the rotations of one side list
    # each edge once iff they hold `count` entries, all distinct.
    for side in (x_rotations, y_rotations):
        if sum(map(len, side)) != count or len(set(chain.from_iterable(side))) != count:
            raise GraphMismatch("a rotation misses or repeats an edge of the graph")

    signs = [sch.signature.get(e) for e in table.edges]
    if signs.count(1) + signs.count(-1) != count:
        k = next(k for k, sign in enumerate(signs) if sign != 1 and sign != -1)
        raise GraphMismatch(
            f"edge {table.edges[k]} has no signature of +1 or -1 (got {signs[k]!r})"
        )
    negative = bytearray([sign == -1 for sign in signs])
    return IdScheme(table, x_rotations, y_rotations, negative)


# Band pairing of the flags of edge k, as the xor that takes a flag to its
# partner, indexed by negative[k]: X side s meets Y side 1 - s on a positive
# edge (f ^ 3) and Y side s on a negative one (f ^ 2).
_BAND = bytes.maketrans(b"\x00\x01", b"\x03\x02")


def trace_ids(sch: IdScheme) -> FaceReport:
    """Trace the faces of an id scheme; decide orientability by vertex parity.

    This is the one tracing core; `trace_faces` feeds it a dict scheme and
    `verify_family` a family.  Every edge k has four flags, 4k + 2*end +
    side, for its X end (end 0) and its Y end (end 1), each with two sides;
    side 1 touches the corner toward the next edge of the rotation.  Two
    pairings act on them: the corner pairing (consecutive edge-ends around
    a vertex), the only one filled from the rotations, and the band pairing
    (sides matched across an edge, crossed when the signature is negative),
    which is f ^ 3 on a positive edge and f ^ 2 on a negative one.  Faces
    are the orbits under corner and band; a face of length L is an orbit of
    2L flags.

    The embedding is orientable iff its signature switches to all-positive,
    i.e. iff some vertex parity has par[x] xor par[y] = [sign < 0] on every
    edge xy.  The rotations hold every edge of the Levi graph once at each
    end, so the graph is the (connected) Levi graph itself: fixing X vertex
    1 forces the parity of every X vertex through the Y vertices {1, 2, x},
    and then that of every Y vertex through each of its three edges.
    """
    table = sch.table
    graph, x_end, count = table.graph, table.x_end, len(table.x_end)
    total = 4 * count
    corner = [0] * total
    y_rotations = sch.y_rotations
    if y_rotations is None:
        # Slot s of the Y vertex y is edge 3y + s, whose Y flags are
        # 12y + 4s + 2 + side.
        for s in range(3):
            after, next_before = 4 * s + 3, 4 * ((s + 1) % 3) + 2
            corner[after::12] = range(next_before, total, 12)
            corner[next_before::12] = range(after, total, 12)
    # Side 1 of each rotation entry meets side 0 of the next, cyclically.
    for rotations, end in ((sch.x_rotations, 0), (y_rotations or (), 2)):
        for rot in rotations:
            prev = 4 * rot[-1] + end + 1
            for k in rot:
                f = 4 * k + end
                corner[prev] = f
                corner[f] = prev
                prev = f + 1

    # Switch X vertex 1 to parity 0; the Y vertex {1, 2, x} (copy 0) then
    # forces the parity of x.  Each edge forces a parity on its Y end, and
    # the signature switches to all-positive iff the three edges of every Y
    # vertex force the same one.
    negative, first_ids = sch.negative, table.first_ids
    px = [0] * (graph.n + 1)
    for x in range(2, graph.n + 1):
        k = first_ids[0b110 | 1 << max(x, 3)]
        px[x] = negative[k] ^ negative[k + 1 if x == 2 else k + 2]
    forced = bytes(map(xor, map(px.__getitem__, x_end), negative))
    orientable = forced[0::3] == forced[1::3] == forced[2::3]

    # Corner and band are fixed-point-free involutions, so each orbit is a
    # cycle that alternates them.  Its corners alternate between X and Y
    # vertices, so the walk takes them in pairs and starts only at X flags:
    # the Y flags count as seen from the outset.
    band = negative.translate(_BAND)
    lengths = []
    seen = bytearray(b"\0\0\1\1") * count
    start = seen.find(0)
    while start != -1:
        size = 0
        f = start
        while True:
            g = corner[f]
            seen[f] = seen[g] = 1
            f = corner[g ^ band[g >> 2]]
            f ^= band[f >> 2]
            size += 2
            if f == start:
                break
        lengths.append(size)
        start = seen.find(0, start)

    f_count = len(lengths)
    genus = 2 - (graph.vertex_count - graph.edge_count + f_count)
    return FaceReport(
        face_count=f_count,
        face_lengths=tuple(sorted(lengths)),
        euler_genus=genus,
        orientable=orientable,
    )


def trace_faces(sch: EmbeddingScheme) -> FaceReport:
    """Trace the faces of a dict scheme and decide its orientability.

    The dict front end `scheme_ids` checks the scheme and maps it to edge
    ids; the core `trace_ids` walks the faces over edge-keyed flags.  Raises
    Disconnected for a vertex without edges, and GraphMismatch when a
    rotation is missing or misses, repeats or adds an edge of the graph, or
    an edge has no signature of +1 or -1.
    """
    return trace_ids(scheme_ids(sch))


def is_orientable(sch: EmbeddingScheme) -> bool:
    """True iff the signature is switching-equivalent to all-positive.

    Decided by the forced vertex parity of `trace_faces`.
    """
    return trace_faces(sch).orientable


# ---------------------------------------------------------------------------
# circuits -> scheme


def _labels_consistent(c: Circuit) -> bool:
    """Whether the copy labels of an Eulerian circuit, which traverses every
    pair m times, give the m traversals of each pair the copies 0..m-1.

    That holds iff there is one label per traversal, every label is a copy,
    and no pair takes one label twice.
    """
    seq, labels = c.seq, c.copy_labels
    copies = {
        (u, v, a) if u < v else (v, u, a)
        for u, v, a in zip(seq, seq[1:] + seq[:1], labels)
    }
    return len(labels) == len(copies) == len(seq) and set(labels) <= set(range(c.m))


def _family_ids(s: EmbeddingSet, labelled: list[tuple[int, ...]]) -> IdScheme:
    """The family front end: the ids of the scheme a valid family encodes.

    Circuit i, with its copy labels, gives the rotation at vertex i; every
    Y rotation is the sorted order of its triple.
    """
    table = levi_edges(s.n, s.m)
    first_ids = table.first_ids
    bit = [1 << v for v in range(s.n + 1)]
    negative = bytearray(len(table.x_end))
    x_rotations = []
    for i, c, labels in zip(range(1, s.n + 1), s.circuits, labelled):
        seq, bit_i = c.seq, bit[i]
        rot = []
        for u, v, copy in zip(seq, seq[1:] + seq[:1], labels):
            # i sits at slot (i > u) + (i > v) of the sorted triple.
            k = first_ids[bit_i | bit[u] | bit[v]] + 3 * copy + (i > u) + (i > v)
            rot.append(k)
            # Positive signature iff the traversal runs u -> v where (u, v)
            # follows i cyclically in the sorted triple, i.e. iff exactly one
            # of i > u, u > v, v > i holds.
            negative[k] = (i > u) + (u > v) + (v > i) != 1
        x_rotations.append(rot)
    return IdScheme(table, x_rotations, None, negative)


def _family_view(ids: IdScheme) -> EmbeddingScheme:
    """The dict view of a family's ids: Y rotations, then X rotations, and
    the signature in the order the circuits traverse the edges."""
    edges, graph, negative = ids.table.edges, ids.table.graph, ids.negative
    rotation: dict[Vertex, tuple[Edge, ...]] = {
        y: edges[3 * k : 3 * k + 3] for k, y in enumerate(graph.y_vertices)
    }
    for x, rot in zip(graph.x_vertices, ids.x_rotations):
        rotation[x] = tuple([edges[k] for k in rot])
    signature = {
        edges[k]: -1 if negative[k] else 1 for rot in ids.x_rotations for k in rot
    }
    return EmbeddingScheme(graph=graph, rotation=rotation, signature=signature)


def _copy_labels(s: EmbeddingSet) -> list[tuple[int, ...]]:
    """Copy labels of every circuit of an Eulerian family.

    All zeros for m = 1; otherwise the circuits' own labels, checked.  They
    are data: raises CopyResolutionError naming the first circuit that has
    none, or whose labels do not tell the parallel copies apart.
    """
    if s.m == 1:
        return [(0,) * len(c.seq) for c in s.circuits]
    for c in s.circuits:
        if c.copy_labels is None:
            raise CopyResolutionError(
                f"circuit {c.excluded}: no copy labels, which m={s.m} requires"
            )
        if not _labels_consistent(c):
            raise CopyResolutionError(
                f"circuit {c.excluded}: copy labels are not a permutation "
                "of 0..m-1 on some parallel pair"
            )
    return [c.copy_labels for c in s.circuits]


def set_to_scheme(s: EmbeddingSet) -> EmbeddingScheme:
    """Rotation and signature of the quadrilateral embedding encoded by a family.

    The rotation around vertex i lists the triples read off consecutive
    pairs of its circuit; the rotation around a triple is its three elements
    in sorted cyclic order; the signature of an end records whether the
    circuit at that end traverses the opposite pair in the cyclic direction
    of the sorted triple.

    For m > 1 the parallel copies are told apart by the circuits' copy
    labels, which every circuit must carry.  Raises NotAnEmbeddingSet for an
    invalid family and CopyResolutionError for missing or bad labels.
    """
    report = is_embedding_set(s, require_strong=False)
    if not report:
        raise NotAnEmbeddingSet(report.first())
    return _family_view(_family_ids(s, _copy_labels(s)))


@dataclass(frozen=True)
class FamilyReport:
    """Everything that certifies a family as a minimum-genus embedding.

    `compatible` is None when `eulerian` fails and `strong` is None when
    `compatible` fails; the scheme's ids, its faces and the Euler genus they
    must reach (the lower bound) are present exactly when the family is
    compatible.  The dict view `scheme` is built when it is first read.
    """

    eulerian: ValidationReport
    compatible: ValidationReport | None
    strong: ValidationReport | None
    ids: IdScheme | None
    faces: FaceReport | None
    expected_genus: int | None

    @cached_property
    def scheme(self) -> EmbeddingScheme | None:
        return None if self.ids is None else _family_view(self.ids)

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
    """Check a family once and, when it is compatible, trace its scheme's ids."""
    eulerian, compatible, strong = check_family(s)
    ids = faces = expected_genus = None
    if compatible:
        ids = _family_ids(s, _copy_labels(s))
        faces = trace_ids(ids)
        expected_genus = euler_genus_lower_bound(HypergraphSpec(s.n, s.m))
    return FamilyReport(eulerian, compatible, strong, ids, faces, expected_genus)


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
    reaches has no rotation or an edge it crosses has no signature of +1 or
    -1 in either scheme.
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
                if sa not in (1, -1) or sb not in (1, -1):
                    raise GraphMismatch(
                        f"edge {e} has no signature of +1 or -1 in both schemes "
                        f"(got {sa!r} and {sb!r})"
                    )
                q = p ^ (sa != sb)
                if w not in parity:
                    parity[w] = q
                    stack.append(w)
                elif parity[w] != q:
                    return False
    return True
