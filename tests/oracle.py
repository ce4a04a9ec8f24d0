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
    for x, y in sch.graph.edges():
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

    for x, y in sch.graph.edges():
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
