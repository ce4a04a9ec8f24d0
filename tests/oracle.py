"""Independent face-tracing oracle, written apart from the library tracer.

Walks (directed edge, accumulated sign) states: after entering a vertex v
along an edge, the next edge is the successor of it in the rotation at v
when the accumulated signature product is +1, the predecessor otherwise.
Every face of length L shows up as exactly two orbits of length L (one per
walking direction), so the orbit census gives face count and lengths.

Orientability is decided through the signed double cover: the scheme is
orientable iff the cover (two signed copies of every vertex, edges joining
equal signs on +1 edges and opposite signs on -1 edges) is disconnected.

Switching equivalence is decided by brute force over every set of switched
vertices, so it only suits the smallest graphs.

Least rotations are found by trying every offset, and family compatibility
by scanning each pair of circuits on its own.  Compatibility is copy-aware
when copy labels are given: each end of a pass is then a vertex with the
copy of the step that meets it there, so the passes of an m-fold family
tell its parallel copies apart.
"""

from collections import Counter


def _positions(rotation):
    return {e: p for p, e in enumerate(rotation)}


def naive_face_trace(sch):
    """Return (face_count, sorted face lengths, euler_genus, orientable)."""
    pos = {v: _positions(rot) for v, rot in sch.rotation.items()}

    def step(state):
        u, v, acc = state
        e = (u, v) if isinstance(u, int) else (v, u)
        rot = sch.rotation[v]
        p = pos[v][e]
        nxt = rot[(p + 1) % len(rot)] if acc == 1 else rot[(p - 1) % len(rot)]
        w = nxt[1] if nxt[0] == v else nxt[0]
        return (v, w, acc * sch.signature[nxt])

    states = set()
    for x, y in sch.graph.edges:
        for s in (1, -1):
            states.add((x, y, s))
            states.add((y, x, s))

    orbit_lengths = []
    visited = set()
    for start in states:
        if start in visited:
            continue
        length = 0
        cur = start
        while True:
            visited.add(cur)
            length += 1
            cur = step(cur)
            if cur == start:
                break
        orbit_lengths.append(length)

    assert len(orbit_lengths) % 2 == 0
    doubled = Counter(orbit_lengths)
    lengths = []
    for value, count in doubled.items():
        assert count % 2 == 0, "each face must be traced once per direction"
        lengths.extend([value] * (count // 2))
    faces = len(lengths)

    v_count = sch.graph.vertex_count
    e_count = sch.graph.edge_count
    genus = 2 - (v_count - e_count + faces)
    return faces, tuple(sorted(lengths)), genus, _double_cover_orientable(sch)


def _double_cover_orientable(sch):
    parent = {}

    def find(a):
        root = a
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def union(a, b):
        parent[find(a)] = find(b)

    for x, y in sch.graph.edges:
        if sch.signature[(x, y)] == 1:
            union((x, 1), (y, 1))
            union((x, -1), (y, -1))
        else:
            union((x, 1), (y, -1))
            union((x, -1), (y, 1))
    some = next(iter(sch.graph.x_vertices))
    return find((some, 1)) != find((some, -1))


def brute_force_equivalent(a, b):
    """True iff switching some vertex set of a gives b, rotations taken cyclically."""
    vertices = list(a.rotation)

    def cyclic_forms(rot):
        return {rot[i:] + rot[:i] for i in range(len(rot))}

    kept = {v: cyclic_forms(a.rotation[v]) for v in vertices}
    flipped = {v: cyclic_forms(a.rotation[v][::-1]) for v in vertices}
    for mask in range(1 << len(vertices)):
        switched = {v for t, v in enumerate(vertices) if mask >> t & 1}
        if all(
            b.rotation[v] in (flipped[v] if v in switched else kept[v])
            for v in vertices
        ) and all(
            sign * (-1 if (x in switched) != (y in switched) else 1)
            == b.signature[(x, y)]
            for (x, y), sign in a.signature.items()
        ):
            return True
    return False


def brute_least_rotation(seq):
    """Offset of the least rotation of seq, the smallest on ties, trying every offset."""
    rotations = [seq[i:] + seq[:i] for i in range(len(seq))]
    return min(range(len(seq)), key=rotations.__getitem__)


def brute_canonical_seq(seq):
    """Least writing of seq over all rotations of it and of its reverse."""
    return min(s[i:] + s[:i] for s in (seq, seq[::-1]) for i in range(len(s)))


def brute_cyclically_equal(a, b):
    return len(a) == len(b) and any(a[i:] + a[:i] == b for i in range(len(a)))


def rows(family):
    """(excluded vertex, sequence, copy labels) of each circuit of a family,
    as `pairwise_first_failure` takes them; the labels are None for m = 1."""
    return [(c.excluded, c.seq, c.copy_labels if c.m > 1 else None) for c in family.circuits]


def _through(seq, j, labels=None):
    """The passes of seq through j in scan order, as (in end, out end): the
    vertices before and after, each with the copy of its step if labelled."""
    k = len(seq)
    ends = [(seq[p - 1], seq[(p + 1) % k], p) for p in range(k) if seq[p] == j]
    if labels is None:
        return [(a, b) for a, b, _ in ends]
    return [((a, labels[p - 1]), (b, labels[p])) for a, b, p in ends]


def _vertex(end):
    return end[0] if isinstance(end, tuple) else end


def pair_verdict(i, seq_i, j, seq_j, labels_i=None, labels_j=None):
    """(compatible, strongly compatible) for the circuits T_i and T_j.

    Compatible: the passes through j in T_i and through i in T_j agree as
    unordered pairs of ends, with multiplicity.  Strong: they agree once
    those of T_j are reversed.  Copy-aware when both circuits' copy labels
    are given.
    """
    mine, theirs = _through(seq_i, j, labels_i), _through(seq_j, i, labels_j)
    compatible = Counter(map(frozenset, mine)) == Counter(map(frozenset, theirs))
    return compatible, Counter(mine) == Counter((b, a) for a, b in theirs)


def pairwise_first_failure(circuits, require_strong):
    """First failing pair of a family of Eulerian circuits, checked pair by pair.

    `circuits` lists (excluded vertex, sequence) or (excluded vertex,
    sequence, copy labels) for the excluded vertices 1..n in order; labels
    that are not None make the check copy-aware.  Returns "" when every pair
    passes, else the message of the lexicographically first pair (i, j)
    that is not compatible or, with `require_strong`, not strongly
    compatible; the latter names the transition (a, j, b) of the first pass
    of T_i, in scan order, whose reverse occurs a different number of times
    through i in T_j.
    """
    rows = {row[0]: (row[1], row[2] if len(row) > 2 else None) for row in circuits}
    n = len(rows)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            (seq_i, labels_i), (seq_j, labels_j) = rows[i], rows[j]
            compatible, strong = pair_verdict(i, seq_i, j, seq_j, labels_i, labels_j)
            if not compatible:
                return f"pair ({i},{j}) not compatible"
            if require_strong and not strong:
                mine = _through(seq_i, j, labels_i)
                fwd = Counter(mine)
                back = Counter((b, a) for a, b in _through(seq_j, i, labels_j))
                t = next(((a, b) for a, b in mine if fwd[(a, b)] != back[(a, b)]), None)
                where = f" at transition ({_vertex(t[0])},{j},{_vertex(t[1])})" if t else ""
                return f"pair ({i},{j}) not strongly compatible{where}"
    return ""
