"""Embedding schemes of Levi graphs: rotations, signatures, face tracing.

An embedding scheme is a rotation system (a cyclic order of incident edges
at every vertex) plus a signature assigning +1 or -1 to every edge.  Up to
switching equivalence this determines a 2-cell surface embedding, whose
faces are traced combinatorially.

A scheme has one representation, `EmbeddingScheme`, on the integer edge
ids of its `levi.LeviGraph` (id 3*y + slot): the X rotations as read-only
views of one buffer of 4-byte ids, a byte per Y vertex that tells which of
its two cyclic orders its rotation runs in (a Y vertex has three edges),
and bytes marking the negative edges.  Every scheme is checked once, when
it is built: a hand-built one by the dict front end in its constructor, a
family's by the family front end (the id formula and the sign rule live
there alone), a file's by `fileio.parse_scheme`.  Each of them packs a
rotation into the buffer as soon as it has read it, through `x_writer`, the
one place that knows the layout, so no Python int per Levi edge outlives
the construction.  Its `rotation` and `signature` are read-only dict
views, built when first read.  No field changes after construction, so a
scheme is also traced at most once: it keeps the report of its first
trace, which for a family's scheme is `verify_family`'s.

Every scheme call reads the ids.  One core, `trace_faces`, walks the faces
over flags keyed by edge and reads orientability off a forced vertex
parity; `schemes_equivalent` forces the switch states the same way, from
the edges whose signs differ, and then compares rotations.

The central conversions realize the bijection between quadrilateral
embeddings of the Levi graph and pairwise-compatible circuit families:
`verify_family` reads rotations off the circuits, derives the signature
from traversal directions, and certifies the family, through its scheme,
as a minimum-genus embedding or not; `set_to_scheme` returns that scheme.
`scheme_to_set` recovers the circuits from the rotations around the vertex
side.

Certifying a family.  The family front end decides from the edge ids
whether every circuit is Eulerian with valid copy labels, refusing exactly
what `circuits.check_family` refuses.  Compatibility and strength then
follow from the lemmas below, for every m, and `circuits` runs only to name a
failure: `check_family` for a family the front end refuses, `pair_reports`
for one it passes.

In the scheme of a family, the corner of X vertex i between the edges of
steps p-1 and p of T_i is the pass (a, j, b) of T_i through j = seq[p]; its
two Y vertices Y = {i, a, j} and Y' = {i, j, b}, with the copies of the two
steps, hold both i and j, and differ, as T_i takes each edge once.  The
corners are *paired* when every corner of T_i through j has a partner, a
corner of T_j through i between the same Y and Y'.  A Y vertex {i, j, x}
lies on one step of T_i, over {j, x}, so on one corner of T_i through j:
the corners are paired iff the passes of T_i through j and of T_j through
i, ends and copies included, agree as multisets of unordered pairs, which
is what `circuits` calls compatible.

Lemma 1.  A family of Eulerian circuits with valid labels has paired
corners iff its scheme has only quadrilateral faces.
Proof.  (If; the signs and the Y orders play no part, so this holds for
every scheme with the same X rotations.)  A quadrilateral face runs i, Y,
x, Y' with x != i, as Y has one edge to i; its corners at i and at x lie
between Y and Y', so x is in both.  The two sides of the edge iY join the
two corners of i beside it to the two corners of Y beside it, which lead
on to the two other vertices of Y; so the faces at the two corners of i
beside Y reach distinct vertices.  Let T_i step j -> b on Y = {i, j, b}:
the corner before the step passes through j and the one after it through
b.  If the face at the corner before reaches j, the face at the corner
after reaches b, again the vertex the corner passes through, and so on
around T_i.  If it reaches b, then b is in the Y before too, T_i runs b ->
j -> b, and the face at the corner after reaches j where that corner
passes through b: then every corner of T_i misses, and T_i would alternate
between two vertices, which an Eulerian circuit of K_{n-1}, n >= 4, does
not.  So the face at a corner of T_i through j is i, Y, j, Y', and, by the
same argument at j, its corner at j is a pass of T_j through i between Y
and Y'.
(Only if.)  Let T_i step j -> b over Y' = {i, j, b}.  By the sign rule the
edge iY' is positive iff j follows i in the sorted cyclic order of Y'; a
face leaving i forward along iY' goes on at Y' to the vertex after i when
the edge is positive and before i when it is negative, so to j either way,
and one leaving i backward along the edge of the step a -> j before it
reaches j likewise.  The same count at j puts the face on the corner of
T_j through i at Y', and from there it goes on to i.  So the face at a
corner of T_i through j runs i, Y', j, along the corner of T_j through i
at Y' to its other Y vertex, and back to i, at the one corner of i through
j on that edge.  With paired corners that corner of T_j is the partner,
between Y' and Y, and the face is i, Y', j, Y.  The copies ride in the Y
vertices, so this holds for every m.

Lemma 2.  A family with paired corners is strongly compatible, copies
included, iff every Y vertex has one sign on its three edges (the parity
of `_parities` that is 0 on every X vertex); so a strong family is
orientable, for every m.
Proof.  By the sign rule, T_i and T_j give their common Y = {i, j, a} the
same sign iff a is the tail of exactly one of their steps over Y.  Let T_i
pass a -> j -> b over Y, then Y'; its partner runs between the same two.
The signs of i and j agree at Y, and likewise at Y', iff the partner runs
b -> i -> a from Y' to Y, the reversed pass.  Every two ends of a Y vertex
meet in a pair of partners, so one sign per Y vertex holds iff every
partner is reversed, which, as each pair of Y vertices holds one corner of
T_i through j, is strength.  (Without the copies this fails for m > 1: a
pass a -> j -> a has the ends a and a, and its partner counts as reversed
while it runs from Y to Y'.)

Lemma 3.  Let every face of a scheme be a quadrilateral, and let F be the
family its X rotations spell.  Then each sign of the scheme is the sign
that the scheme of F gives the edge, flipped when the rotation of its Y
vertex is reversed; so F is strong iff the scheme has one sign at every Y
vertex.
Proof.  The scheme of F has the same X rotations, and every Y rotation in
sorted order.  Let T_i step j -> b over Y' = {i, j, b}, after the corner of
T_i through j.  By the "if" half of lemma 1 the face at that corner
reaches j, so a face leaving i forward along iY' goes on at Y' to j: the
edge is positive iff j follows i in the rotation of Y'.  In the scheme of F
it is positive iff j follows i in the sorted order (the sign rule), so the
two signs differ iff Y' is reversed.  Every edge iY' follows one corner of
T_i, so the two schemes differ by one bit per Y vertex, which keeps its
three signs equal or not, and lemma 2 reads strength off them.

So the faces decide compatibility, and the signs strength, in one place:
`verify_family` traces the family's scheme and `set_to_scheme` returns it,
report and all, and `scheme_to_set` reads both off the scheme it is given
(lemma 3), never building the scheme of the family it reads back nor
tracing again a scheme that has been traced.  The passes of `circuits`
only name a failure.
"""

from collections import Counter
from collections.abc import Callable, Mapping, Sequence
from functools import cached_property, lru_cache
from itertools import repeat
from math import comb
from struct import Struct
from types import MappingProxyType

from .exceptions import (
    Disconnected,
    GraphMismatch,
    NotAnEmbeddingSet,
    NotQuadrilateral,
    OddOrder,
    Value,
)
from .levi import (
    HypergraphSpec,
    LeviGraph,
    YVertex,
    build_levi,
    euler_genus_lower_bound,
)

# `circuits` is imported where a family is built or a failure named, so
# that reading and tracing a scheme file (`genus`) does not load it; its
# names in annotations are strings.

XVertex = int
Vertex = XVertex | YVertex
Edge = tuple[XVertex, YVertex]


class EmbeddingScheme:
    """A rotation and a signature on a Levi graph, held as Levi edge ids.

    The ids are those of `graph`, the shared `levi.LeviGraph` of its (n, m):
    `x_rotations[x - 1]` lists the edges at X vertex x in rotation order, as
    a read-only memoryview of 4-byte ids (format "I").  All of them are
    slices of one buffer of the scheme, 4 bytes per Levi edge, where X
    vertex x starts at id (x - 1) * `graph.x_degree()` (`x_writer`).
    The Y vertex at index y has the three edges 3y, 3y+1, 3y+2, so its
    rotation is one of two cyclic orders: `y_reversed[y]` is 0 for 3y,
    3y+1, 3y+2, the cyclic order of its sorted triple, and 1 for the
    reverse.  `negative[k]` is 1 when edge k has signature -1.  Both
    constructors hand out X rotations that list each edge exactly once at
    its X end, on which `trace_faces` relies.  Every field is immutable:
    `y_reversed` and `negative` are `bytes`, whatever buffer they were
    built from, and the X rotations read-only views, so a scheme is the
    same after its trace as before it.  The scheme keeps the `FaceReport`
    of that trace, filled by the first `trace_faces` call (for a family's
    scheme, the one in `verify_family`), and every later call returns it.

    `EmbeddingScheme(graph, rotation, signature)` checks hand-built dicts
    once and keeps their ids, not the dicts; `from_ids` takes a buffer of
    ids a front end has checked (`set_to_scheme`, `verify_family`,
    `parse_scheme`).
    `rotation` maps every vertex to the cyclic order of its edges and
    `signature` every edge (x, y) to +1 or -1: read-only views of the ids,
    built when first read, which list a Y rotation from its lowest slot, or
    from its highest when reversed.  Two schemes are equal when their graphs,
    X rotations, Y orientations and signatures are, traced or not; `==`
    compares each X rotation from its written start, so two rotations of the
    same cyclic order that start at different edges are unequal.  `schemes_equivalent`
    is the test for the same embedding.  A pickle holds (n, m) and the ids
    alone, the X rotations as the bytes of their buffer, in the byte order
    of the machine that wrote it; the repr and a pickle leave the face
    report out, so an unpickled scheme is traced afresh when asked.
    """

    __slots__ = (
        "graph", "x_rotations", "y_reversed", "negative", "_x_ids", "_rotation", "_signature",
        "_faces",
    )

    def __init__(
        self,
        graph: LeviGraph,
        rotation: Mapping[Vertex, tuple[Edge, ...]],
        signature: Mapping[Edge, int],
    ):
        """The scheme of hand-built dicts, checked against their Levi graph.

        Raises GraphMismatch when the graph is not a Levi graph, the rotation
        or the signature is not a mapping, a vertex has no rotation or one
        that is not a sequence of hashable edges, a rotation lists an edge
        that is not at its vertex, some edge is missing from or repeated in
        the rotations, or an edge has no signature of +1 or -1; Disconnected
        for a vertex without edges.
        """
        if not isinstance(rotation, Mapping) or not isinstance(signature, Mapping):
            raise GraphMismatch(
                "rotation and signature must be mappings, got "
                f"{type(rotation).__name__} and {type(signature).__name__}"
            )
        try:
            levi = build_levi(HypergraphSpec(graph.n, graph.m))
            x_vertices, y_vertices = graph.x_vertices, graph.y_vertices
        except (AttributeError, TypeError):
            raise GraphMismatch(f"graph must be a LeviGraph, got {type(graph).__name__}") from None
        id_of, x_end, count = levi.id_of, levi.x_end, levi.edge_count
        degree = levi.x_degree()
        x_ids, put = x_writer(levi)
        # Every entry is at its own vertex, so the rotations list each edge
        # once iff each holds as many distinct entries as its vertex has edges.
        complete = True
        for x in x_vertices:
            at = _rotation_ids(rotation, x, id_of)
            if None in at or [x_end[k] for k in at].count(x) != len(at):
                raise GraphMismatch(f"the rotation at vertex {x} lists an edge not at {x}")
            if len(at) == len(set(at)) == degree:
                put(x, at)
            else:
                complete = False
        y_reversed = bytearray(len(y_vertices))
        for yi, y in enumerate(y_vertices):
            at = _rotation_ids(rotation, y, id_of)
            if None in at or [k // 3 for k in at].count(yi) != len(at):
                raise GraphMismatch(f"the rotation at vertex {y} lists an edge not at {y}")
            if len(at) == len(set(at)) == 3:
                # The slot step from its first entry to its second tells its
                # cyclic order.
                y_reversed[yi] = (at[1] - at[0]) % 3 != 1
            else:
                complete = False
        if not complete:
            raise GraphMismatch("a rotation misses or repeats an edge of the graph")

        signs = [signature.get(e) for e in levi.edges]
        if signs.count(1) + signs.count(-1) != count:
            k = next(k for k, sign in enumerate(signs) if sign != 1 and sign != -1)
            raise GraphMismatch(
                f"edge {levi.edges[k]} has no signature of +1 or -1 (got {signs[k]!r})"
            )
        self._set(levi, x_ids, y_reversed, bytes([sign == -1 for sign in signs]))

    @classmethod
    def from_ids(
        cls,
        graph: LeviGraph,
        x_ids: bytes | bytearray,
        y_reversed: bytes | bytearray,
        negative: bytes | bytearray,
    ) -> "EmbeddingScheme":
        """The scheme of ids that a front end has checked: `x_ids` is the
        buffer of X rotations that `x_writer` filled, or its bytes, and the
        scheme keeps it and hands out read-only views of it; `y_reversed`
        and `negative` are kept as bytes, copied when given as a buffer.
        The scheme takes the buffer over, uncopied, so that a Levi edge
        costs 4 bytes once: the caller writes no more into it, as the front
        ends drop it, for the scheme keeps the report of its first trace."""
        sch = cls.__new__(cls)
        sch._set(graph, x_ids, y_reversed, negative)
        return sch

    def _set(self, graph, x_ids, y_reversed, negative) -> None:
        ids = memoryview(x_ids).toreadonly().cast("I")
        degree = len(ids) // graph.n
        self.x_rotations = tuple(ids[d:d + degree] for d in range(0, len(ids), degree))
        self.graph, self._x_ids = graph, x_ids
        # bytes() of a bytes object is that object, so only a buffer is copied.
        self.y_reversed, self.negative = bytes(y_reversed), bytes(negative)
        self._rotation = self._signature = self._faces = None

    @property
    def rotation(self) -> Mapping[Vertex, tuple[Edge, ...]]:
        if self._rotation is None:
            self._view()
        return self._rotation

    @property
    def signature(self) -> Mapping[Edge, int]:
        if self._signature is None:
            self._view()
        return self._signature

    def _view(self) -> None:
        """The dict view of the ids: Y rotations, then X rotations, and the
        signature in the order the X rotations list the edges."""
        graph, negative = self.graph, self.negative
        edges = graph.edges
        # Slots 0, 1, 2 of each Y vertex, or 2, 1, 0 when reversed.
        ends = iter(edges)
        rotation = {
            y: slots[::-1] if turned else slots
            for y, slots, turned in zip(graph.y_vertices, zip(ends, ends, ends), self.y_reversed)
        }
        for x, rot in zip(graph.x_vertices, self.x_rotations):
            rotation[x] = tuple([edges[k] for k in rot])
        signature = {
            edges[k]: -1 if negative[k] else 1 for rot in self.x_rotations for k in rot
        }
        self._rotation = MappingProxyType(rotation)
        self._signature = MappingProxyType(signature)

    def __eq__(self, other):
        if not isinstance(other, EmbeddingScheme):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.negative == other.negative
            and self._x_ids == other._x_ids
            and self.y_reversed == other.y_reversed
        )

    def __repr__(self) -> str:
        return f"EmbeddingScheme(n={self.graph.n}, m={self.graph.m})"

    def __reduce__(self):
        # The views are not picklable; the ids are.
        return EmbeddingScheme.from_ids, (
            self.graph, bytes(self._x_ids), self.y_reversed, self.negative
        )


def x_writer(graph: LeviGraph) -> tuple[bytearray, Callable[[int, Sequence[int]], None]]:
    """A zeroed buffer for the X rotations of a scheme on `graph`, and the
    function that packs the rotation at X vertex x, its `x_degree()` edge
    ids, into it.

    Each id takes a C unsigned int (format "I", 4 bytes), and every X vertex
    has the same degree, so the rotation at x takes the ids from
    (x - 1) * degree on.  Every constructor writes each rotation through it
    as soon as it has read it, and `EmbeddingScheme.from_ids` takes the
    filled buffer.
    """
    rotation = Struct(f"{graph.x_degree()}I")
    size = rotation.size
    buffer = bytearray(size * graph.n)

    def put(x: int, ids: Sequence[int]) -> None:
        rotation.pack_into(buffer, size * (x - 1), *ids)

    return buffer, put


class FaceReport(Value):
    """The faces `trace_faces` found: their count, their lengths in sorted
    order, the Euler genus they give and whether the scheme is orientable.
    Immutable; equal and of equal hash when all four fields are."""

    _fields = ("face_count", "face_lengths", "euler_genus", "orientable")

    def __init__(
        self, face_count: int, face_lengths: tuple[int, ...], euler_genus: int, orientable: bool
    ):
        self.__dict__.update(
            face_count=face_count,
            face_lengths=face_lengths,
            euler_genus=euler_genus,
            orientable=orientable,
        )

    @property
    def all_quadrilateral(self) -> bool:
        return self.face_lengths.count(4) == len(self.face_lengths)

    def length_histogram(self) -> Counter:
        return Counter(self.face_lengths)


def _rotation_ids(rotation: Mapping, v: Vertex, id_of: dict) -> list[int | None]:
    """The ids of the edges the rotation lists at v, None for a non-edge."""
    rot = rotation.get(v)
    if rot is None:
        raise GraphMismatch(f"no rotation at vertex {v}")
    try:
        at = [id_of.get(e) for e in rot]
    except TypeError:  # not iterable, or an unhashable entry
        raise GraphMismatch(f"the rotation at vertex {v} is not a sequence of (x, y) edges") from None
    if not at:
        raise Disconnected(f"vertex {v} has no incident edges")
    return at


def _parities(graph: LeviGraph, odd: bytes) -> tuple[list[int], bytes] | None:
    """A vertex parity with par[x] xor par[y] = odd[k] on every edge k = xy,
    and par[1] = 0: the X parities indexed by vertex, and the Y parities by
    Y index.  None when there is none.

    The Levi graph is connected: X vertex 1 at parity 0 forces the parity
    of every X vertex x through the Y vertex {1, 2, x} (copy 0).  Each edge
    then forces a parity on its Y end, and a parity exists iff the three
    edges of every Y vertex force the same one.
    """
    first_ids = graph.first_ids
    px = [0] * (graph.n + 1)
    for x in range(2, len(px)):
        k = first_ids[0b110 | 1 << max(x, 3)]
        px[x] = odd[k] ^ odd[k + 1 if x == 2 else k + 2]
    forced = _xor(bytes(map(px.__getitem__, graph.x_end)), odd)
    py = forced[0::3]
    if py == forced[1::3] == forced[2::3]:
        return px, py
    return None


def _xor(a: bytes, b: bytes) -> bytes:
    """The bytewise xor of two byte strings of one length, as one C-level
    xor of the numbers they spell."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def _hop(j: int) -> bytes:
    """The translate table from a Y state to the hop of the X flag 6y + j.

    A Y state holds the signs of the edges 3y, 3y+1, 3y+2 (bit s set when
    slot s is negative) and, in bit 3, whether the rotation at y runs
    against the sorted order.  The X flag 6y + j, j = 2s + side, crosses
    its band to Y side t = side ^ 1 ^ neg[s] (f ^ 3 on a positive edge, f ^
    2 on a negative one).  Side 1 of a slot meets side 0 of the next slot
    in the rotation, so the Y corner leads to slot s' = s + d on side 0
    when t = 1 and s' = s - d on side 1 when t = 0, where d is 1 for the
    sorted order and -1 against it.  The band of s' leads back to its X
    side t ^ neg[s'].  The hop is the step from flag 2s + side to flag
    2s' + (t ^ neg[s']), as a signed byte.
    """
    s, side = divmod(j, 2)
    hops = bytearray(256)
    for state in range(16):
        neg = [state & 1, state >> 1 & 1, state >> 2 & 1]
        d = -1 if state & 8 else 1
        t = side ^ 1 ^ neg[s]
        s2 = (s + (d if t else -d)) % 3
        hops[state] = (2 * (s2 - s) + (t ^ neg[s2]) - side) & 0xFF
    return bytes(hops)


_HOPS = tuple(map(_hop, range(6)))


def _y_states(sch: EmbeddingScheme) -> bytes:
    """One state byte per Y vertex, as `_hop` reads it: the signs of its
    slots in bits 0-2 and a reversed rotation in bit 3."""
    negative = sch.negative
    bits = (negative[0::3], negative[1::3], negative[2::3], sch.y_reversed)
    # Each byte of each part is 0 or 1, so shifting a part, read as one
    # number, by up to three bits keeps every bit within its own byte.
    word = 0
    for shift, part in enumerate(bits):
        word |= int.from_bytes(part, "little") << shift
    return word.to_bytes(len(bits[0]), "little")


@lru_cache(maxsize=16)
def _all_quadrilateral(face_count: int) -> tuple[int, ...]:
    """The face lengths of an all-quadrilateral trace with `face_count`
    faces: one tuple per count, which every such report shares."""
    return (4,) * face_count


def trace_faces(sch: EmbeddingScheme) -> FaceReport:
    """Trace the faces of a scheme; decide orientability by vertex parity.

    This is the one tracing core, over the scheme's edge ids; `verify_family`
    calls it on the scheme of a family.  A scheme's fields never change, so
    its first trace is its only one: the scheme keeps the report, every
    later call (`scheme_to_set`'s included) returns that same object.  An
    all-quadrilateral report holds the one shared lengths tuple of its face
    count, so a kept report costs no memory per face.

    Every edge k has four flags, one per side at its X end and at its Y end;
    side 1 touches the corner toward the next edge of the rotation.  Two
    pairings act on them: the corner pairing (consecutive edge-ends around a
    vertex) and the band pairing (sides matched across an edge, crossed when
    the signature is negative: X side s meets Y side 1 - s on a positive
    edge and Y side s on a negative one).  Faces are the orbits under corner
    and band; a face of length L is an orbit of 2L flags.

    Its corners alternate between X and Y vertices, so the walk holds only
    the X flags, 2k + side, and moves from one to the next in two lookups
    into typed tables (memoryviews of bytearrays, which need no module
    beyond the interpreter's own):
    - `corner`, 4 bytes a flag filled from the X rotations, takes a flag to
      its partner across the corner at its X vertex;
    - `hop`, a signed byte a flag, takes a flag across its band, the corner
      at its Y vertex and the band of the next edge there, as a step to the
      X flag it reaches.  A Y vertex has three edges, so its rotation is one
      of two cyclic orders, and its hops depend only on that order and its
      three signs (`_hop`); they are filled six strided slices at a time.

    The embedding is orientable iff its signature switches to all-positive,
    i.e. iff `_parities` finds a vertex parity with par[x] xor par[y] =
    [sign < 0] on every edge xy.
    """
    if sch._faces is not None:
        return sch._faces
    graph = sch.graph
    count = graph.edge_count
    corner = memoryview(bytearray(8 * count)).cast("i")
    # Side 1 of each rotation entry meets side 0 of the next, cyclically.
    for rot in sch.x_rotations:
        prev = 2 * rot[-1] + 1
        for k in rot:
            f = 2 * k
            corner[prev] = f
            corner[f] = prev
            prev = f + 1
    # The X flags of the Y vertex y are 6y + 2s + side.
    states = _y_states(sch)
    hop = bytearray(2 * count)
    for j, hops in enumerate(_HOPS):
        hop[j::6] = states.translate(hops)
    hop = memoryview(hop).cast("b")

    orientable = _parities(graph, sch.negative) is not None

    # Corner and band are fixed-point-free involutions, so each orbit is a
    # cycle that alternates them, two corners a step.
    lengths = []
    seen = bytearray(2 * count)
    start = 0
    while start != -1:
        size = 0
        f = start
        while True:
            g = corner[f]
            seen[f] = seen[g] = 1
            f = g + hop[g]
            size += 2
            if f == start:
                break
        lengths.append(size)
        start = seen.find(0, start)

    f_count = len(lengths)
    genus = 2 - (graph.vertex_count - graph.edge_count + f_count)
    if lengths.count(4) == f_count:
        lengths = _all_quadrilateral(f_count)
    else:
        lengths.sort()
        lengths = tuple(lengths)
    sch._faces = FaceReport(
        face_count=f_count,
        face_lengths=lengths,
        euler_genus=genus,
        orientable=orientable,
    )
    return sch._faces


def is_orientable(sch: EmbeddingScheme) -> bool:
    """True iff the signature is switching-equivalent to all-positive.

    Decided by the forced vertex parity, as in `trace_faces`, without
    tracing the faces.
    """
    return _parities(sch.graph, sch.negative) is not None


# ---------------------------------------------------------------------------
# circuits -> scheme


def _family_scheme(s: "EmbeddingSet") -> EmbeddingScheme | None:
    """The family front end: the scheme of a family on edge ids, or None
    when some circuit is not Eulerian with valid copy labels.

    Circuit i, with its copy labels (copy 0 throughout when m = 1), gives
    the rotation at vertex i; every Y rotation runs in the cyclic order of
    its sorted triple.  The family is refused where `check_family` refuses
    it, from the ids alone: the circuits are T_1..T_n of its ambient, each of
    length m*C(n-1,2) on the vertices 1..n, with labels in 0..m-1 when
    m > 1, all of them ints; each step's triple {i, u, v} is a triple (so
    u, v and i are distinct); and the ids of each circuit are distinct, so
    it takes every pair m times, each copy once.  The lengths are checked
    before the Levi graph, whose size m sets, is built.  Raises
    InvalidParameter for an order below 4 or a multiplicity below 1.
    """
    n, m = s.n, s.m
    if len(s.circuits) != n:
        return None
    spec = HypergraphSpec(n, m)
    degree = m * comb(n - 1, 2)
    if any(len(c.seq) != degree for c in s.circuits):
        return None
    graph = build_levi(spec)
    first_ids = graph.first_ids
    # 1 on a positive edge and 2 on a negative one, 0 on an edge no step takes.
    signs = bytearray(graph.edge_count)
    bit = [1 << v for v in range(n + 1)]
    x_ids, put = x_writer(graph)
    for i, c in enumerate(s.circuits, 1):
        seq, bit_i = c.seq, bit[i]
        if c.excluded != i or c.n != n or c.m != m:
            return None
        labels = c.copy_labels if m > 1 else repeat(0)
        rot = []
        try:
            if min(seq) < 1 or max(seq) > n:
                return None
            if m > 1 and (
                labels is None or len(labels) != degree or min(labels) < 0 or max(labels) >= m
            ):
                return None
            for u, v, copy in zip(seq, seq[1:] + seq[:1], labels):
                # i sits at slot (i > u) + (i > v) of the sorted triple.
                k = first_ids[bit_i | bit[u] | bit[v]] + 3 * copy + (i > u) + (i > v)
                rot.append(k)
                # Positive signature iff the traversal runs u -> v where (u, v)
                # follows i cyclically in the sorted triple, i.e. iff exactly
                # one of i > u, u > v, v > i holds; of three distinct
                # vertices, one or two do.
                signs[k] = (i > u) + (u > v) + (v > i)
        # KeyError: u, v and i are not three distinct vertices; TypeError: a
        # vertex or a copy label that is not an int.
        except (KeyError, TypeError):
            return None
        put(i, rot)
    # The ids of circuit i are edges at X vertex i, and the circuits take
    # n * degree steps, one per edge: so the ids of every circuit are
    # distinct iff every edge has a sign.
    if signs.count(0):
        return None
    negative = signs.translate(_NEGATIVE_OF_SIGN)
    return EmbeddingScheme.from_ids(graph, x_ids, bytes(len(negative) // 3), negative)


# Takes the signs of `_family_scheme`, 1 and 2, to the bytes of `negative`.
_NEGATIVE_OF_SIGN = bytes([0, 0, 1]) + bytes(253)


def _signs_agree(negative: bytes) -> bool:
    """Whether the three edges of every Y vertex have one signature: the
    parity of `_parities` that is 0 on every X vertex (lemma 2)."""
    return negative[0::3] == negative[1::3] == negative[2::3]


class FamilyReport(Value):
    """Everything that certifies a family as a minimum-genus embedding.

    `compatible` is None when `eulerian` fails; the scheme, its faces and
    the Euler genus they must reach (the lower bound) are present exactly
    when the family is compatible, and then every face is a quadrilateral
    (lemma 1).  `is_strong` tells whether it is strongly compatible, which
    is one sign at every Y vertex (lemma 2), and `strong` is its report,
    None when `compatible` fails; a failed one names its pair through
    `circuits.pair_reports` when first read, which no verdict needs.
    Immutable; equality, the hash and the repr leave `family` out.
    """

    _fields = ("eulerian", "compatible", "scheme", "faces", "expected_genus")

    def __init__(
        self,
        eulerian: "ValidationReport",
        compatible: "ValidationReport | None",
        scheme: EmbeddingScheme | None,
        faces: FaceReport | None,
        expected_genus: int | None,
        family: "EmbeddingSet",
    ):
        self.__dict__.update(
            eulerian=eulerian,
            compatible=compatible,
            scheme=scheme,
            faces=faces,
            expected_genus=expected_genus,
            family=family,
        )

    @property
    def is_strong(self) -> bool:
        return self.scheme is not None and _signs_agree(self.scheme.negative)

    @cached_property
    def strong(self) -> "ValidationReport | None":
        from .circuits import ValidationReport, pair_reports

        if self.scheme is None:
            return None
        if self.is_strong:
            return ValidationReport(True, [])
        return pair_reports(self.family)[1]

    def is_minimum(self, orientable: bool) -> bool:
        """A minimum-genus embedding of the requested orientability: compatible
        (strongly, if orientable), so all faces quadrilateral, Euler genus at
        the lower bound, and traced orientability as requested."""
        faces = self.faces
        return bool(
            self.compatible
            and (not orientable or self.is_strong)
            and faces.euler_genus == self.expected_genus
            and faces.orientable == orientable
        )


def verify_family(s: "EmbeddingSet") -> FamilyReport:
    """Check a family once and, when it is compatible, trace its scheme.

    The trace is kept by the scheme, so `faces` is the report every later
    `trace_faces` call on `scheme` returns.

    A family that passes the front end is compatible iff its scheme has
    only quadrilateral faces (lemma 1), and then strong iff its signs agree
    at every Y vertex (lemma 2), for every m.  A family the front end
    refuses gets the reports of `check_family`, and one with a face of
    another length the compatible report of `pair_reports`.
    """
    from .circuits import ValidationReport, check_family, pair_reports

    scheme = _family_scheme(s)
    if scheme is None:  # so the Eulerian report fails
        return FamilyReport(check_family(s)[0], None, None, None, None, s)
    eulerian, faces = ValidationReport(True, []), trace_faces(scheme)
    if not faces.all_quadrilateral:
        return FamilyReport(eulerian, pair_reports(s)[0], None, None, None, s)
    expected_genus = euler_genus_lower_bound(HypergraphSpec(s.n, s.m))
    return FamilyReport(eulerian, ValidationReport(True, []), scheme, faces, expected_genus, s)


def set_to_scheme(s: "EmbeddingSet") -> EmbeddingScheme:
    """Rotation and signature of the quadrilateral embedding encoded by a family.

    The rotation around vertex i lists the triples read off consecutive
    pairs of its circuit; the rotation around a triple is its three elements
    in sorted cyclic order; the signature of an end records whether the
    circuit at that end traverses the opposite pair in the cyclic direction
    of the sorted triple.

    For m > 1 the parallel copies are told apart by the circuits' copy
    labels, which every circuit must carry.  The scheme is that of
    `verify_family`, which decides compatibility by the faces (lemma 1).
    Raises NotAnEmbeddingSet for an invalid family, missing or bad copy
    labels included, with the first failure of its report: the Eulerian
    one of `check_family` for a family the front end refuses, else the
    compatible one of `circuits.pair_reports`.
    """
    report = verify_family(s)
    if report.scheme is None:
        # A failed ValidationReport is falsy, so test for None.
        failed = report.eulerian if report.compatible is None else report.compatible
        raise NotAnEmbeddingSet(failed.first())
    return report.scheme


# ---------------------------------------------------------------------------
# scheme -> circuits


def _read_circuit(graph: LeviGraph, i: int, rot: Sequence[int]) -> "Circuit":
    """The circuit excluding i that the ids around X vertex i spell.

    Consecutive triples around i share i and one circuit vertex: the circuit
    starts at an element a0 of the first triple, and each later triple
    holds the last vertex a and adds its third element, the triple's sum
    less i and a.  Edge k ends at the Y vertex k // 3, which gives its copy.
    It reads `graph.y_vertices`, over twice as fast as slicing triples from
    `x_end`; no command reads a family back from a scheme.
    """
    from .circuits import Circuit

    ys = [graph.y_vertices[k // 3] for k in rot]
    first = ys[0][0]
    for a0 in first:
        if a0 == i:
            continue
        a = a0
        seq = [a]
        for (u, v, w), _ in ys[1:]:
            if a != u and a != v and a != w:
                break
            a = u + v + w - i - a
            seq.append(a)
        else:
            # Close the cycle: the first triple must be {i, a_last, a0}.
            if a != a0 and a in first:
                labels = [copy for _, copy in ys[1:]]
                labels.append(ys[0][1])
                return Circuit(i, graph.n, graph.m, tuple(seq), tuple(labels))
    raise NotQuadrilateral(
        f"rotation around vertex {i} does not read as an Eulerian circuit"
    )


def scheme_to_set(sch: EmbeddingScheme) -> "EmbeddingSet":
    """Recover the circuit family of a quadrilateral embedding.

    Each circuit is read off the ids of an X rotation.  The faces are those
    of `trace_faces`, so a scheme from `set_to_scheme` is not traced again:
    it keeps `verify_family`'s report.  Raises NotQuadrilateral when some
    face has length != 4, and OddOrder for odd n (the vertex-deleted
    complete graph has odd degrees then, so no quadrilateral embedding
    exists).  The circuits read back are Eulerian
    with valid copy labels, as each X rotation lists every edge at its
    vertex once, and compatible, as the faces are quadrilaterals (lemma 1).
    The `strong` flag is read off the scheme's own signs, one per Y vertex
    or not (lemma 3), for every m.
    """
    from .circuits import EmbeddingSet

    n, m = sch.graph.n, sch.graph.m
    if n % 2 != 0:
        raise OddOrder(f"no quadrilateral embedding for odd order {n}")
    report = trace_faces(sch)
    if not report.all_quadrilateral:
        bad = next(length for length in report.face_lengths if length != 4)
        raise NotQuadrilateral(f"face of length {bad} traced")
    circuits = tuple(
        _read_circuit(sch.graph, i, rot) for i, rot in enumerate(sch.x_rotations, 1)
    )
    return EmbeddingSet(n=n, m=m, circuits=circuits, strong=_signs_agree(sch.negative))


# ---------------------------------------------------------------------------
# switching equivalence


def _cyclically_equal(ra: memoryview, rb: memoryview) -> bool:
    """Whether rb is ra up to rotation; both list the same edges once each.

    Compared as bytes: rb's first id is found at a byte offset of ra that
    starts an id, and ra, turned to start there, must equal rb.
    """
    a, b = ra.tobytes(), rb.tobytes()
    head = b[:ra.itemsize]
    i = a.find(head)
    while i % ra.itemsize and i > 0:  # a match that straddles two ids
        i = a.find(head, i + 1)
    return i >= 0 and a[i:] + a[:i] == b


def schemes_equivalent(a: EmbeddingScheme, b: EmbeddingScheme) -> bool:
    """Switching equivalence of two schemes on the same labelled graph.

    Switching a set U of vertices reverses their rotations and negates the
    signature of every edge with one end in U.  Whether v is switched is
    then forced along every edge xy: x and y differ in state iff a and b
    differ in signature on xy.  `_parities` solves these states on the ids
    relative to X vertex 1.  Each Y rotation of b is a's, kept or reversed
    (it has three edges), so the Y vertices fix the state of X vertex 1;
    b's rotation at every X vertex must then be a's, kept or reversed by
    its state, up to rotation.  The cost is linear in the graph.

    Raises GraphMismatch for two schemes on different graphs.
    """
    if a.graph != b.graph:
        raise GraphMismatch("schemes are defined on different labelled graphs")
    parities = _parities(a.graph, _xor(a.negative, b.negative))
    if parities is None:
        return False
    px, py = parities
    # Y vertex y is switched iff b reverses its rotation, and iff py[y]
    # differs from the state of X vertex 1: every Y vertex must agree on it.
    root = _xor(py, _xor(a.y_reversed, b.y_reversed))
    state = root[0]
    if root.count(state) != len(root):
        return False
    return all(
        _cyclically_equal(ra[::-1] if p ^ state else ra, rb)
        for ra, rb, p in zip(a.x_rotations, b.x_rotations, px[1:])
    )
