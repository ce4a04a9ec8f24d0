import pickle
import random
import re
import struct
from functools import partial
from math import comb

import pytest

from kn3genus import (
    Disconnected,
    EmbeddingScheme,
    FormatError,
    GraphMismatch,
    HypergraphSpec,
    Kn3Error,
    NotAnEmbeddingSet,
    NotQuadrilateral,
    build_even,
    build_levi,
    build_multi,
    enumerate_variants,
    euler_genus_lower_bound,
    fixture_set,
    format_scheme,
    is_embedding_set,
    is_orientable,
    parse_scheme,
    scheme_to_set,
    schemes_equivalent,
    set_to_scheme,
    trace_faces,
)
from kn3genus import circuits
from kn3genus import scheme as scheme_module
from kn3genus.circuits import (
    Circuit,
    EmbeddingSet,
    ValidationReport,
    canonical_set_key,
    validate_eulerian,
)
from kn3genus.scheme import _cyclically_equal, _family_scheme, verify_family

from oracle import brute_force_equivalent, naive_face_trace, pairwise_first_failure, rows
from peaks import live_bytes, peak_bytes


def switch(sch, subset):
    """Invert rotations inside `subset` and negate signatures across it."""
    rotation = dict(sch.rotation)
    for v in subset:
        rotation[v] = tuple(reversed(sch.rotation[v]))
    signature = dict(sch.signature)
    for e in sch.graph.edges:
        x, y = e
        if (x in subset) != (y in subset):
            signature[e] = -signature[e]
    return EmbeddingScheme(sch.graph, rotation, signature)


def perturb(sch, rng):
    """Random legal mutation: one sign flip or one swap inside a rotation."""
    rotation = dict(sch.rotation)
    signature = dict(sch.signature)
    if rng.random() < 0.5:
        e = rng.choice(list(signature))
        signature[e] = -signature[e]
    else:
        v = rng.choice([v for v in rotation if len(rotation[v]) >= 2])
        rot = list(rotation[v])
        p, q = rng.sample(range(len(rot)), 2)
        rot[p], rot[q] = rot[q], rot[p]
        rotation[v] = tuple(rot)
    return EmbeddingScheme(sch.graph, rotation, signature)


def swap_copies(sch, triple):
    """The same scheme with copies 0 and 1 of `triple` exchanged."""

    def rename_y(y):
        t, c = y
        return (t, 1 - c) if t == triple and c < 2 else y

    def rename(e):
        return (e[0], rename_y(e[1]))

    rotation = {
        v if isinstance(v, int) else rename_y(v): tuple(map(rename, rot))
        for v, rot in sch.rotation.items()
    }
    signature = {rename(e): sign for e, sign in sch.signature.items()}
    return EmbeddingScheme(sch.graph, rotation, signature)


def test_fixture_schemes_trace(planar4, strong6, nonorientable6, klein4x2):
    expected = {
        id(planar4): (6, 0, True),
        id(strong6): (30, 6, True),
        id(nonorientable6): (30, 6, False),
        id(klein4x2): (12, 2, False),
    }
    for s in (planar4, strong6, nonorientable6, klein4x2):
        report = trace_faces(set_to_scheme(s))
        faces, genus, orientable = expected[id(s)]
        assert report.face_count == faces
        assert report.euler_genus == genus
        assert report.orientable is orientable
        assert report.all_quadrilateral
        assert sum(report.face_lengths) == 4 * report.face_count


def test_face_lengths_sum_is_twice_edges(strong6):
    report = trace_faces(set_to_scheme(strong6))
    assert sum(report.face_lengths) == 120


def test_set_to_scheme_rejects_invalid(strong6):
    from kn3genus import Circuit

    circuits = list(strong6.circuits)
    c = circuits[1]
    seq = list(c.seq)
    seq[0], seq[4] = seq[4], seq[0]
    circuits[1] = Circuit(c.excluded, c.n, c.m, tuple(seq))
    broken = EmbeddingSet(6, 1, tuple(circuits), strong=False)
    with pytest.raises(NotAnEmbeddingSet):
        set_to_scheme(broken)


def test_round_trip_equivalence(strong6, nonorientable6, klein4x2):
    for s in (strong6, nonorientable6, klein4x2):
        back = scheme_to_set(set_to_scheme(s))
        assert canonical_set_key(back) == canonical_set_key(s)
        assert is_embedding_set(back, require_strong=back.strong).ok


def test_round_trip_on_builds():
    for n, m, orientable in [(6, 1, True), (8, 1, False), (6, 2, True), (4, 3, False)]:
        s = build_multi(n, m, orientable=orientable, seed=11)
        sch = set_to_scheme(s)
        back = scheme_to_set(sch)
        assert canonical_set_key(back) == canonical_set_key(s)
        assert back.strong == is_orientable(sch) == orientable


def test_planar_scheme_reads_back_as_triangles(planar4):
    back = scheme_to_set(set_to_scheme(planar4))
    for c in back.circuits:
        assert len(c.seq) == 3
        assert sorted(c.seq) == [v for v in range(1, 5) if v != c.excluded]


def test_orientability_equals_strength(strong6, nonorientable6):
    assert is_orientable(set_to_scheme(strong6))
    assert not is_orientable(set_to_scheme(nonorientable6))


def test_all_positive_signature_is_orientable(planar4):
    sch = set_to_scheme(planar4)
    positive = EmbeddingScheme(
        sch.graph, sch.rotation, {e: 1 for e in sch.signature}
    )
    assert is_orientable(positive)


def test_is_orientable_agrees_with_both_tracers(planar4, strong6, nonorientable6, klein4x2):
    seen = set()
    for s in (planar4, strong6, nonorientable6, klein4x2):
        sch = set_to_scheme(s)
        cands = [sch, switch(sch, {1, 2})]
        for e in list(sch.signature)[::7]:
            signature = dict(sch.signature)
            signature[e] = -signature[e]
            cands.append(EmbeddingScheme(sch.graph, sch.rotation, signature))
        for cand in cands:
            orientable = is_orientable(cand)
            assert orientable == trace_faces(cand).orientable == naive_face_trace(cand)[3]
            seen.add(orientable)
    assert seen == {True, False}


def test_scheme_to_set_rejects_non_quadrilateral(planar4):
    sch = set_to_scheme(planar4)
    rng = random.Random(3)
    for _ in range(50):
        cand = perturb(sch, rng)
        if not trace_faces(cand).all_quadrilateral:
            with pytest.raises(NotQuadrilateral):
                scheme_to_set(cand)
            return
    pytest.fail("no non-quadrilateral perturbation found")


def test_scheme_to_set_rejects_odd_order():
    graph = build_levi(HypergraphSpec(5, 1))
    rotation = {}
    for y in graph.y_vertices:
        rotation[y] = tuple((x, y) for x in y[0])
    incident = {x: [] for x in graph.x_vertices}
    for x, y in graph.edges:
        incident[x].append((x, y))
    rotation.update({x: tuple(edges) for x, edges in incident.items()})
    sch = EmbeddingScheme(graph, rotation, {e: 1 for e in graph.edges})
    with pytest.raises(Exception) as err:
        scheme_to_set(sch)
    assert err.typename in ("OddOrder",)


def test_switching_invariance(strong6, nonorientable6):
    rng = random.Random(7)
    for s in (strong6, nonorientable6):
        sch = set_to_scheme(s)
        base = trace_faces(sch)
        vertices = list(sch.rotation)
        for _ in range(5):
            subset = {v for v in vertices if rng.random() < 0.4}
            switched = trace_faces(switch(sch, subset))
            assert switched.face_lengths == base.face_lengths
            assert switched.euler_genus == base.euler_genus
            assert switched.orientable == base.orientable


def test_euler_identity_across_corpus():
    for n, orientable in [(4, True), (6, True), (6, False), (8, True)]:
        sch = set_to_scheme(build_even(n, orientable=orientable))
        report = trace_faces(sch)
        v = sch.graph.vertex_count
        e = sch.graph.edge_count
        assert v - e + report.face_count + report.euler_genus == 2


def test_schemes_equivalent_global_reflection(strong6):
    sch = set_to_scheme(strong6)
    reflected = EmbeddingScheme(
        sch.graph,
        {v: tuple(reversed(rot)) for v, rot in sch.rotation.items()},
        dict(sch.signature),
    )
    assert schemes_equivalent(sch, reflected)


def test_schemes_equivalent_single_vertex_switch(strong6):
    sch = set_to_scheme(strong6)
    y = sch.graph.y_vertices[5]
    assert schemes_equivalent(sch, switch(sch, {y}))


def test_schemes_equivalent_distinguishes_orientability(strong6, nonorientable6):
    a = set_to_scheme(strong6)
    b = set_to_scheme(nonorientable6)
    assert not schemes_equivalent(a, b)


def test_schemes_equivalent_graph_mismatch(strong6, planar4):
    with pytest.raises(GraphMismatch):
        schemes_equivalent(set_to_scheme(strong6), set_to_scheme(planar4))


def test_schemes_equivalent_brute_force_fallback(planar4):
    sch = set_to_scheme(planar4)
    rng = random.Random(5)
    cand = None
    for _ in range(50):
        cand = perturb(sch, rng)
        if not trace_faces(cand).all_quadrilateral:
            break
    assert cand is not None and not trace_faces(cand).all_quadrilateral
    reflected = EmbeddingScheme(
        cand.graph,
        {v: tuple(reversed(rot)) for v, rot in cand.rotation.items()},
        dict(cand.signature),
    )
    assert schemes_equivalent(cand, reflected)
    flipped_one = switch(cand, {3})
    assert schemes_equivalent(cand, flipped_one)


def test_trace_rejects_disconnected(planar4):
    # Every real Levi graph is connected, so a stub graph with an isolated
    # extra vertex stands in for the unreachable case.
    sch = set_to_scheme(planar4)
    small = build_levi(HypergraphSpec(4, 1))
    isolated = ((1, 2, 3), 9)

    class Stub:
        n = small.n
        m = small.m
        y_vertices = small.y_vertices + (isolated,)
        x_vertices = small.x_vertices
        vertex_count = small.vertex_count + 1
        edge_count = small.edge_count
        edges = small.edges

    rotation = dict(sch.rotation)
    rotation[isolated] = ()
    with pytest.raises(Disconnected) as err:
        trace_faces(EmbeddingScheme(Stub, rotation, sch.signature))
    assert str(err.value) == "vertex ((1, 2, 3), 9) has no incident edges"


def untraced(sch):
    """A scheme equal to `sch`, on the same buffers, that has not been traced."""
    return EmbeddingScheme.from_ids(sch.graph, sch._x_ids, sch.y_reversed, sch.negative)


def test_trace_faces_holds_a_few_bytes_per_edge():
    # The walk holds typed tables over the X flags: about 21 bytes per Levi
    # edge, with the face lengths.  `set_to_scheme`'s scheme is traced
    # already, so each call traces an untraced copy.
    sch = set_to_scheme(build_multi(20, 3, orientable=False, seed=1))
    assert peak_bytes(lambda: trace_faces(untraced(sch))) < 48 * len(sch.negative)


@pytest.mark.parametrize("n,m", [(40, 1), (20, 3)])
@pytest.mark.parametrize("read", ["verify_family", "parse_scheme"])
def test_a_scheme_holds_at_most_16_bytes_per_levi_edge(n, m, read):
    # The X rotations take 4 bytes an edge in one buffer; a list of ints per
    # rotation held 45-50 bytes an edge here.
    family = build_multi(n, m, orientable=False, seed=1)
    edges = build_levi(HypergraphSpec(n, m)).edge_count
    if read == "verify_family":
        held = live_bytes(verify_family, family)
    else:
        held = live_bytes(parse_scheme, format_scheme(set_to_scheme(family)))
    assert held <= 16 * edges


def test_x_rotations_are_read_only_views_of_one_buffer(klein4x2):
    library = set_to_scheme(klein4x2)
    schemes = [
        library,
        parse_scheme(format_scheme(library)),
        EmbeddingScheme(library.graph, dict(library.rotation), dict(library.signature)),
        pickle.loads(pickle.dumps(library)),
    ]
    degree = library.graph.x_degree()
    for sch in schemes:
        rots = sch.x_rotations
        assert len(rots) == 4 and len({id(rot.obj) for rot in rots}) == 1
        assert all(rot.format == "I" and rot.readonly and len(rot) == degree for rot in rots)
        assert rots == library.x_rotations and sch == library
        with pytest.raises(TypeError):
            rots[0][0] = rots[0][1]
    assert [list(rot) for rot in library.x_rotations] == [
        [library.graph.id_of[e] for e in library.rotation[x]] for x in range(1, 5)
    ]


def test_cyclically_equal_skips_an_id_that_straddles_two():
    def view(*ids):
        return memoryview(struct.pack(f"{len(ids)}I", *ids)).cast("I")

    # Little-endian, 0x100 is 00 01 00 00: it is also at byte 1 of ra,
    # across its first two ids.
    ra = view(0x10005, 0x200, 0x100)
    assert _cyclically_equal(ra, view(0x100, 0x10005, 0x200))
    assert _cyclically_equal(ra[::-1], view(0x10005, 0x100, 0x200))
    assert not _cyclically_equal(ra, view(0x100, 0x200, 0x10005))


def _scheme_refusal(s):
    with pytest.raises(NotAnEmbeddingSet) as err:
        set_to_scheme(s)
    return str(err.value)


def _verify_refusal(s):
    report = verify_family(s).eulerian
    assert not report.ok
    return report.first()


@pytest.mark.parametrize(
    "refuse", [_scheme_refusal, _verify_refusal], ids=["set_to_scheme", "verify_family"]
)
def test_copy_resolution_requires_labels(refuse):
    s = build_multi(6, 2, orientable=True)
    stripped = EmbeddingSet(
        s.n,
        s.m,
        tuple(Circuit(c.excluded, c.n, c.m, c.seq) for c in s.circuits),
        s.strong,
    )
    assert refuse(stripped) == "circuit 1: no copy labels, which m=2 requires"


@pytest.mark.parametrize(
    "labels,why",
    [
        ((0, 0, 0, 0, 0, 0), "pair {2,4} takes copy 0 twice"),
        ((0, 0, 1, 1, 0), "5 copy labels for 6 edges"),
        ((0, 0, 1, 1, 0, 2), "copy label 2 outside 0..1"),
    ],
    ids=["repeated", "short", "out-of-range"],
)
def test_copy_resolution_refuses_bad_labels(klein4x2, labels, why):
    # Bad copy labels make a circuit not Eulerian: every check gives the
    # one verdict, and the conversion refuses the family with it.
    c = klein4x2.circuit(1)
    circuits = (Circuit(1, c.n, c.m, c.seq, labels),) + klein4x2.circuits[1:]
    bad = EmbeddingSet(klein4x2.n, klein4x2.m, circuits, klein4x2.strong)
    failure = ValidationReport(False, [f"circuit 1: {why}"])
    assert is_embedding_set(bad, require_strong=False) == failure
    report = verify_family(bad)
    assert (report.eulerian, report.compatible, report.strong) == (failure, None, None)
    with pytest.raises(NotAnEmbeddingSet) as err:
        set_to_scheme(bad)
    assert str(err.value) == f"circuit 1: {why}"


@pytest.mark.parametrize(
    "value,where,why",
    [
        (0.0, "label", "copy label 0.0 is not an integer"),
        ("x", "label", "copy label 'x' is not an integer"),
        (2.0, "vertex", "vertex 2.0 is not an integer"),
        ("x", "vertex", "vertex 'x' is not an integer"),
    ],
    ids=["label-0.0", "label-x", "vertex-2.0", "vertex-x"],
)
def test_values_that_are_not_ints_are_refused_by_name(value, where, why):
    # 0.0 and 2.0 compare equal to ints, so only their type tells them apart.
    s = build_multi(6, 2, orientable=True)
    c = s.circuit(1)
    seq, labels = list(c.seq), list(c.copy_labels)
    if where == "label":
        labels[labels.index(0)] = value
    else:
        seq[seq.index(2)] = value
    first = Circuit(1, c.n, c.m, tuple(seq), tuple(labels))
    bad = EmbeddingSet(s.n, s.m, (first,) + s.circuits[1:], s.strong)
    failure = ValidationReport(False, [f"circuit 1: {why}"])
    assert is_embedding_set(bad, require_strong=False) == failure
    report = verify_family(bad)
    assert (report.eulerian, report.compatible, report.strong) == (failure, None, None)
    with pytest.raises(NotAnEmbeddingSet, match=f"^{re.escape(failure.first())}$"):
        set_to_scheme(bad)


def test_klein_fixture_labels_trace_klein_bottle(klein4x2):
    assert all(c.copy_labels is not None for c in klein4x2.circuits)
    report = trace_faces(set_to_scheme(klein4x2))
    assert report.all_quadrilateral and report.face_count == 12
    assert report.euler_genus == 2 and not report.orientable


def test_verify_family_certifies_fixtures(planar4, strong6, nonorientable6, klein4x2):
    for s, orientable in (
        (planar4, True), (strong6, True), (nonorientable6, False), (klein4x2, False),
    ):
        report = verify_family(s)
        assert report.is_minimum(orientable) and not report.is_minimum(not orientable)
        assert report.compatible == is_embedding_set(s, require_strong=False)
        assert report.strong == is_embedding_set(s, require_strong=True)
        assert report.faces == trace_faces(report.scheme) == trace_faces(set_to_scheme(s))
        assert report.expected_genus == euler_genus_lower_bound(HypergraphSpec(s.n, s.m))


def test_verify_family_stops_at_the_first_failed_check(strong6):
    swap = {2: 4, 4: 2}
    t1 = strong6.circuit(1)
    incompatible = EmbeddingSet(6, 1, (
        Circuit(1, 6, 1, tuple(swap.get(v, v) for v in t1.seq)),
    ) + strong6.circuits[1:], True)
    report = verify_family(incompatible)
    assert report.eulerian.ok
    assert report.compatible.failures == ["pair (1,2) not compatible"]
    assert report.strong is report.scheme is report.faces is None
    assert not report.is_minimum(True) and not report.is_minimum(False)

    repeated = EmbeddingSet(6, 1, (
        Circuit(1, 6, 1, (t1.seq[0],) + t1.seq[:-1]),
    ) + strong6.circuits[1:], True)
    report = verify_family(repeated)
    assert report.eulerian.first().startswith("circuit 1: ")
    assert report.compatible is report.strong is report.scheme is None

    report = verify_family(EmbeddingSet(3, 1, (), False))
    assert report.eulerian.failures == ["0 circuits for order 3"]
    assert report.expected_genus is None and not report.is_minimum(True)


def _consulted(*args, **kwargs):
    raise AssertionError("the two-circuit namer or the Eulerian check was consulted")


@pytest.mark.parametrize("orientable", [True, False], ids=["orientable", "nonorientable"])
@pytest.mark.parametrize("m", [1, 3])
def test_valid_families_are_certified_without_the_index(monkeypatch, m, orientable):
    s = build_multi(8, m, orientable=orientable, seed=1)
    with monkeypatch.context() as guard:
        guard.setattr(circuits, "two_circuit_failures", _consulted)
        guard.setattr(circuits, "validate_eulerian", _consulted)
        report = verify_family(s)
        assert report.eulerian.ok and report.compatible.ok
        assert report.is_minimum(orientable) and report.faces.orientable == orientable
        assert report.is_strong == orientable
        sch = set_to_scheme(s)
        assert scheme_to_set(sch).strong == orientable
        if m == 1:  # the census builds m = 1 families whatever m is here
            assert len(enumerate_variants(8, orientable, 20, seed=1)) == 20
    strong = pairwise_first_failure(rows(s), require_strong=True)
    assert report.strong == ValidationReport(not strong, [strong] if strong else [])
    assert report.strong.ok == orientable
    assert scheme_to_set(sch).strong == orientable

    # Families that fail a check name the first failure: the Eulerian one of
    # the circuit, or the first pair that is not compatible.
    ok = ValidationReport(True, [])
    t1 = s.circuit(1)
    swapped = Circuit(1, s.n, m, tuple({2: 4, 4: 2}.get(v, v) for v in t1.seq), t1.copy_labels)
    repeated = Circuit(1, s.n, m, (t1.seq[0],) + t1.seq[:-1], t1.copy_labels)
    bad = EmbeddingSet(s.n, m, (swapped,) + s.circuits[1:], s.strong)
    report = verify_family(bad)
    weak = pairwise_first_failure(rows(bad), require_strong=False)
    assert weak and (report.eulerian, report.compatible, report.strong) == (
        ok, ValidationReport(False, [weak]), None,
    )
    bad = EmbeddingSet(s.n, m, (repeated,) + s.circuits[1:], s.strong)
    report = verify_family(bad)
    failure = ValidationReport(False, [f"circuit 1: {validate_eulerian(repeated).first()}"])
    assert (report.eulerian, report.compatible, report.strong) == (failure, None, None)


def test_families_the_front_end_passed_are_not_checked_eulerian_again(monkeypatch, strong6):
    s = build_multi(8, 3, orientable=False, seed=1)
    reversed_t1 = EmbeddingSet(
        6, 1, (strong6.circuit(1).reversed_(),) + strong6.circuits[1:], True
    )
    # T_1 of strong_6 with its closed sub-trail at positions 0..4 reversed:
    # Eulerian, not all faces quadrilateral, pair (1,3) not compatible.
    subtrail = Circuit(1, 6, 1, (3, 5, 2, 4, 3, 6, 4, 5, 6, 2))
    incompatible = EmbeddingSet(6, 1, (subtrail,) + strong6.circuits[1:], True)
    with monkeypatch.context() as guard:
        guard.setattr(circuits, "validate_eulerian", _consulted)
        strong = verify_family(s).strong.ok
        read_back = scheme_to_set(set_to_scheme(s)).strong
        reversed_first = verify_family(reversed_t1).strong.first()
        report = verify_family(incompatible)
        with pytest.raises(NotAnEmbeddingSet, match=r"^pair \(1,3\) not compatible$"):
            set_to_scheme(incompatible)
    assert strong is read_back is False
    assert pairwise_first_failure(rows(s), require_strong=True) != ""
    assert reversed_first == pairwise_first_failure(rows(reversed_t1), require_strong=True)
    assert reversed_first == "pair (1,2) not strongly compatible at transition (3,2,6)"
    assert (report.eulerian, report.compatible, report.strong) == (
        ValidationReport(True, []), ValidationReport(False, ["pair (1,3) not compatible"]), None,
    )


def test_multi_scheme_has_expected_size():
    s = build_multi(6, 2, orientable=True)
    sch = set_to_scheme(s)
    assert sch.graph.vertex_count == 6 + 2 * 20
    assert sch.graph.edge_count == 3 * 40
    report = trace_faces(sch)
    assert report.euler_genus == euler_genus_lower_bound(HypergraphSpec(6, 2))


def test_oracle_agrees_on_fixtures(planar4, strong6, nonorientable6, klein4x2):
    rng = random.Random(8)
    for s in (planar4, strong6, nonorientable6, klein4x2):
        base = set_to_scheme(s)
        schemes = [base]
        for _ in range(6):
            sch = perturb(schemes[-1], rng)
            schemes += [sch, switch(sch, {v for v in sch.rotation if rng.random() < 0.4})]
        for sch in schemes:
            report = trace_faces(sch)
            faces, lengths, genus, orientable = naive_face_trace(sch)
            assert (faces, lengths, genus, orientable) == (
                report.face_count,
                report.face_lengths,
                report.euler_genus,
                report.orientable,
            )


def test_trace_rejects_rotation_off_graph(strong6):
    sch = set_to_scheme(strong6)
    y = ((1, 2, 3), 0)
    rot, ry = sch.rotation[1], sch.rotation[y]
    repeats = "a rotation misses or repeats an edge of the graph"
    for v, bad, message in (
        # an edge that is not in the graph
        (1, rot + ((1, ((4, 5, 6), 0)),), "the rotation at vertex 1 lists an edge not at 1"),
        (1, rot[1:], repeats),  # a missing edge
        (1, (rot[1],) + rot[1:], repeats),  # a repeated edge in place of another
        (1, rot + rot[:1], repeats),  # one edge repeated, none missing
        (y, ry + ry[:1], repeats),
    ):
        with pytest.raises(GraphMismatch) as err:
            trace_faces(EmbeddingScheme(sch.graph, {**sch.rotation, v: bad}, sch.signature))
        assert str(err.value) == message
    # The same two rotations, one entry too long, in a scheme file.
    text = format_scheme(sch)
    for head in ("rot 1:", "rot e{1,2,3}:"):
        line = next(line for line in text.splitlines() if line.startswith(head))
        too_long = text.replace(line, f"{line} {line.split()[2]}")
        with pytest.raises(FormatError):
            parse_scheme(too_long)


def test_schemes_equivalent_agrees_with_brute_force(planar4):
    base = set_to_scheme(planar4)
    rng = random.Random(12)
    outcomes = []
    for _ in range(60):
        a = base
        for _ in range(rng.randrange(3)):
            a = perturb(a, rng)
        b = switch(a, {v for v in a.rotation if rng.random() < 0.5})
        if rng.random() < 0.5:
            b = perturb(b, rng)
        expected = brute_force_equivalent(a, b)
        assert schemes_equivalent(a, b) is expected
        outcomes.append(expected)
    assert True in outcomes and False in outcomes


def test_schemes_equivalent_decides_large_non_quadrilateral(strong6):
    sch = set_to_scheme(strong6)
    rng = random.Random(6)
    while trace_faces(sch).all_quadrilateral:
        sch = perturb(sch, rng)
    assert sch.graph.vertex_count == 26
    switched = switch(sch, {v for v in sch.rotation if rng.random() < 0.5})
    assert schemes_equivalent(sch, switched)
    e = next(iter(sch.signature))
    one_sign_off = EmbeddingScheme(
        switched.graph, switched.rotation, {**switched.signature, e: -switched.signature[e]}
    )
    assert not schemes_equivalent(sch, one_sign_off)


@pytest.mark.parametrize("n,m", [(4, 2), (6, 2), (6, 3)])
def test_schemes_equivalent_tells_copies_apart(n, m):
    # Exchanging the copies of a triple is a graph automorphism, not a
    # switching: both schemes are quadrilateral with the same family up to
    # copy labels, yet they differ on the labelled graph.
    sch = set_to_scheme(build_multi(n, m, orientable=True, seed=3))
    swapped = swap_copies(sch, (1, 2, 3))
    assert trace_faces(swapped).all_quadrilateral
    assert canonical_set_key(scheme_to_set(swapped)) == canonical_set_key(scheme_to_set(sch))
    assert not schemes_equivalent(sch, swapped)


def test_trace_rejects_missing_signature(strong6):
    sch = set_to_scheme(strong6)
    signature = dict(sch.signature)
    del signature[(1, ((1, 2, 3), 0))]
    with pytest.raises(GraphMismatch):
        trace_faces(EmbeddingScheme(sch.graph, sch.rotation, signature))


def test_schemes_equivalent_rejects_missing_signature_or_rotation(strong6):
    sch = set_to_scheme(strong6)
    signature = dict(sch.signature)
    del signature[(1, ((1, 2, 3), 0))]
    rotation = dict(sch.rotation)
    del rotation[((1, 2, 3), 0)]
    for dicts, message in (
        (
            (sch.rotation, signature),
            "edge (1, ((1, 2, 3), 0)) has no signature of +1 or -1 (got None)",
        ),
        ((rotation, sch.signature), "no rotation at vertex ((1, 2, 3), 0)"),
    ):
        # The broken scheme is refused when it is built, before the call.
        with pytest.raises(GraphMismatch) as err:
            schemes_equivalent(sch, EmbeddingScheme(sch.graph, *dicts))
        assert str(err.value) == message


@pytest.mark.parametrize("orientable", [True, False], ids=["orientable", "nonorientable"])
@pytest.mark.parametrize("n,m", [(8, 1), (10, 1), (6, 2), (6, 3)])
def test_trace_agrees_with_oracle_on_builds(n, m, orientable):
    rng = random.Random(10 * n + m)
    schemes = [set_to_scheme(build_multi(n, m, orientable=orientable, seed=1))]
    for _ in range(4):
        sch = perturb(schemes[-1], rng)
        schemes += [sch, switch(sch, {v for v in sch.rotation if rng.random() < 0.4})]
    for sch in schemes:
        report = trace_faces(sch)
        assert naive_face_trace(sch) == (
            report.face_count,
            report.face_lengths,
            report.euler_genus,
            report.orientable,
        )


def exchange_copies(s, i):
    """The family with the copy labels of the first parallel pair of circuit
    i exchanged: its passes pair up without their copies, but not with
    them, so it is not compatible."""
    c = s.circuit(i)
    first = {}
    for p, (u, v) in enumerate(c.steps()):
        q = first.setdefault(frozenset((u, v)), p)
        if q != p:
            labels = list(c.copy_labels)
            labels[p], labels[q] = labels[q], labels[p]
            circuits = list(s.circuits)
            circuits[i - 1] = Circuit(c.excluded, c.n, c.m, c.seq, tuple(labels))
            return EmbeddingSet(s.n, s.m, tuple(circuits), s.strong)
    raise ValueError(f"circuit {i} traverses no pair twice")


@pytest.mark.parametrize("orientable", [True, False], ids=["orientable", "nonorientable"])
@pytest.mark.parametrize("n,m", [(8, 1), (10, 1), (6, 2), (6, 3)])
def test_verify_family_agrees_with_oracle(n, m, orientable):
    s = build_multi(n, m, orientable=orientable, seed=1)
    report = verify_family(s)
    faces = report.faces
    assert naive_face_trace(set_to_scheme(s)) == (
        faces.face_count,
        faces.face_lengths,
        faces.euler_genus,
        faces.orientable,
    )
    assert report.is_minimum(orientable) and faces.all_quadrilateral
    if m > 1:
        exchanged = exchange_copies(s, 1)
        failure = pairwise_first_failure(rows(exchanged), require_strong=False)
        assert failure.endswith(" not compatible")
        assert pairwise_first_failure([row[:2] for row in rows(exchanged)], False) == ""
        report = verify_family(exchanged)
        assert report.compatible.failures == [failure]
        assert report.strong is report.scheme is report.faces is None
        assert not report.is_minimum(orientable)
        assert not trace_faces(_family_scheme(exchanged)).all_quadrilateral
        with pytest.raises(NotAnEmbeddingSet, match=f"^{re.escape(failure)}$"):
            set_to_scheme(exchanged)


def test_trace_and_equivalence_reject_signs_other_than_one(strong6):
    sch = set_to_scheme(strong6)
    e = (1, ((1, 2, 3), 0))
    for signature, got in (
        ({f: 0 if sign == -1 else "yes" for f, sign in sch.signature.items()}, "'yes'"),
        ({**sch.signature, e: 0}, "0"),
        ({**sch.signature, e: None}, "None"),
    ):
        # The broken scheme is refused when it is built, before either call.
        for use in (trace_faces, partial(schemes_equivalent, sch)):
            with pytest.raises(GraphMismatch) as err:
                use(EmbeddingScheme(sch.graph, sch.rotation, signature))
            assert str(err.value) == f"edge {e} has no signature of +1 or -1 (got {got})"


def test_trace_rejects_edges_at_the_wrong_vertex(strong6):
    sch = set_to_scheme(strong6)
    y, z = ((1, 2, 3), 0), ((1, 2, 4), 0)
    ry, rz, r1, r2 = (sch.rotation[v] for v in (y, z, 1, 2))
    assert (1, y) in r1 and (2, y) in r2

    def swap(rot, old, new):
        return tuple(new if e == old else e for e in rot)

    off_y = f"the rotation at vertex {y} lists an edge not at {y}"
    off_1 = "the rotation at vertex 1 lists an edge not at 1"
    for changed, message in (
        # a Y rotation repeats an edge
        ({y: (ry[0], ry[1], ry[1])}, "a rotation misses or repeats an edge of the graph"),
        ({y: (ry[0], ry[1], (4, z))}, off_y),  # a Y rotation lists an edge of another triple
        ({1: swap(r1, (1, y), (2, y))}, off_1),  # (2, y) at vertex 1
        # Every edge listed once, but two at the wrong vertex of their side:
        ({1: swap(r1, (1, y), (2, y)), 2: swap(r2, (2, y), (1, y))}, off_1),
        ({y: swap(ry, (1, y), (1, z)), z: swap(rz, (1, z), (1, y))}, off_y),
    ):
        with pytest.raises(GraphMismatch) as err:
            trace_faces(EmbeddingScheme(sch.graph, {**sch.rotation, **changed}, sch.signature))
        assert str(err.value) == message


def with_dicts(sch):
    """The hand-built dict scheme with the rotations and signature of `sch`."""
    return EmbeddingScheme(sch.graph, dict(sch.rotation), dict(sch.signature))


def outcome(fn, *args):
    try:
        return fn(*args)
    except Kn3Error as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "source",
    ["planar_4", "strong_6", "nonorientable_6", "klein_4x2"]
    + [(n, m, o) for n, m in [(8, 1), (10, 1), (6, 2), (6, 3)] for o in (True, False)],
    ids=str,
)
def test_id_backed_and_dict_built_schemes_agree(source):
    family = fixture_set(source) if isinstance(source, str) else build_multi(
        source[0], source[1], orientable=source[2], seed=1
    )
    rng = random.Random(str(source))
    built = [set_to_scheme(family)]
    for _ in range(3):
        sch = perturb(built[-1], rng)
        built += [sch, switch(sch, {v for v in sch.rotation if rng.random() < 0.4})]
    # The library-built form of each hand-built mutant is its parsed file.
    backed = [built[0]] + [parse_scheme(format_scheme(sch)) for sch in built[1:]]
    dicts = [with_dicts(sch) for sch in backed]
    for sch, hand in zip(backed, dicts):
        assert sch == hand and hand == sch
        assert trace_faces(sch) == trace_faces(hand)
        assert outcome(scheme_to_set, sch) == outcome(scheme_to_set, hand)
        for view in (sch.rotation, sch.signature):
            with pytest.raises(TypeError):
                view[1] = ()
        assert pickle.loads(pickle.dumps(sch)) == sch
    assert backed[1] != backed[0] != dicts[1]
    small = built[0].graph.vertex_count <= 12
    pairs = [(0, j) for j in range(len(backed))] + [(j, j + 1) for j in range(1, len(backed) - 1)]
    for i, j in pairs:
        answers = {
            schemes_equivalent(a, b)
            for a in (backed[i], dicts[i])
            for b in (backed[j], dicts[j])
        }
        assert len(answers) == 1
        if small:
            assert answers == {brute_force_equivalent(dicts[i], dicts[j])}
        elif i == 0 and j <= 2:
            # One sign flip or one transposition in a rotation of length >= 3
            # is no switching.
            assert answers == {j == 0}
        elif i % 2:
            assert answers == {True}  # a mutant and its switching


def test_library_round_trip_never_builds_the_dict_tables():
    family = build_multi(10, 2, orientable=False, seed=5)
    graph = build_levi(HypergraphSpec(10, 2))
    for view in ("y_vertices", "edges", "id_of"):  # as another test may have built them
        vars(graph).pop(view, None)
    report = verify_family(family)
    sch = set_to_scheme(family)
    parsed = parse_scheme(format_scheme(sch))
    assert report.scheme == sch == parsed and trace_faces(parsed) == report.faces
    assert sch.graph is parsed.graph is graph
    assert not {"y_vertices", "edges", "id_of"} & set(vars(graph))
    # Reading a family back indexes the Y vertices, and nothing more.
    again = set_to_scheme(scheme_to_set(sch))
    assert schemes_equivalent(sch, again) and schemes_equivalent(parsed, sch)
    assert not {"edges", "id_of"} & set(vars(graph))


def test_hand_built_scheme_keeps_no_reference_to_its_dicts(strong6):
    library = set_to_scheme(strong6)
    rotation, signature = dict(library.rotation), dict(library.signature)
    sch = EmbeddingScheme(library.graph, rotation, signature)
    faces, text = trace_faces(sch), format_scheme(sch)
    # Y rotations given by hand in sorted order are kept as 0 bits, as parsed ones are.
    assert faces.face_count == 30 and sch == library and sch.y_reversed == bytes(20)
    e = next(iter(signature))
    signature[e] = -signature[e]
    rotation[1] = rotation[1][::-1]
    del rotation[2]
    assert trace_faces(sch) == faces
    assert format_scheme(sch) == text
    assert sch == library and sch.signature[e] == library.signature[e]


def test_hand_built_scheme_survives_a_pickle_round_trip(strong6):
    library = set_to_scheme(strong6)
    y = ((1, 2, 3), 0)
    rotation = {**library.rotation, y: library.rotation[y][::-1]}
    sch = EmbeddingScheme(library.graph, rotation, dict(library.signature))
    assert sch.y_reversed == b"\x01" + bytes(19)
    back = pickle.loads(pickle.dumps(sch))
    assert back == sch == parse_scheme(format_scheme(sch))
    assert trace_faces(back) == trace_faces(sch)
    assert back.rotation == sch.rotation and back.signature == sch.signature


@pytest.mark.parametrize(
    "slots,turned",
    [((1, 2, 0), 0), ((2, 0, 1), 0), ((2, 1, 0), 1), ((0, 2, 1), 1), ((1, 0, 2), 1)],
)
def test_hand_built_scheme_keeps_one_bit_per_y_rotation(strong6, slots, turned):
    library = set_to_scheme(strong6)
    y = ((1, 2, 3), 0)
    at = library.rotation[y]  # its edges in slot order
    rotation = {**library.rotation, y: tuple(at[s] for s in slots)}
    sch = EmbeddingScheme(library.graph, rotation, dict(library.signature))
    assert sch.y_reversed == bytes([turned]) + bytes(19)
    assert sch.rotation[y] == (at[::-1] if turned else at)
    assert (sch == library) == (not turned)
    back = pickle.loads(pickle.dumps(sch))
    assert back == sch and back.y_reversed == sch.y_reversed
    assert trace_faces(back) == trace_faces(sch)


@pytest.mark.parametrize("which", ["none", "rotation-pairs", "signature-pairs"])
def test_scheme_refuses_a_rotation_or_signature_that_is_no_mapping(strong6, which):
    library = set_to_scheme(strong6)
    rotation, signature = library.rotation, library.signature
    if which == "none":
        rotation = signature = None
    elif which == "rotation-pairs":
        rotation = list(rotation.items())
    else:
        signature = list(signature.items())
    with pytest.raises(GraphMismatch) as err:
        EmbeddingScheme(library.graph, rotation, signature)
    assert str(err.value) == (
        "rotation and signature must be mappings, got "
        f"{type(rotation).__name__} and {type(signature).__name__}"
    )


@pytest.mark.parametrize("case", ["entry-not-iterable", "edge-as-list", "graph-none"])
def test_scheme_refuses_malformed_dicts_with_graph_mismatch(strong6, case):
    library = set_to_scheme(strong6)
    graph, rotation = library.graph, dict(library.rotation)
    if case == "entry-not-iterable":
        rotation[1] = 5
    elif case == "edge-as-list":
        rotation[1] = tuple(list(e) for e in rotation[1])
    else:
        graph = None
    with pytest.raises(GraphMismatch) as err:
        EmbeddingScheme(graph, rotation, library.signature)
    assert str(err.value) == (
        "graph must be a LeviGraph, got NoneType"
        if case == "graph-none"
        else "the rotation at vertex 1 is not a sequence of (x, y) edges"
    )


def test_pickled_scheme_shares_the_cached_edge_table():
    sch = set_to_scheme(build_multi(40, 1, seed=2))
    graph = build_levi(HypergraphSpec(40, 1))
    assert graph.id_of  # built here, yet it must not ride along in the pickle
    data = pickle.dumps(sch)
    back = pickle.loads(data)
    assert back.graph is graph and pickle.loads(pickle.dumps(graph)) is graph
    assert len(data) < 200_000
    assert back == sch and trace_faces(back) == trace_faces(sch)


# -- the face report a scheme keeps ------------------------------------------


def count_walks(monkeypatch) -> list:
    """The schemes whose faces `trace_faces` walks from now on, one entry a
    walk: every walk reads the Y states once."""
    walks = []
    states = scheme_module._y_states

    def counted(sch):
        walks.append(sch)
        return states(sch)

    monkeypatch.setattr(scheme_module, "_y_states", counted)
    return walks


@pytest.mark.parametrize(
    "source", ["strong_6", "nonorientable_6", "klein_4x2", (10, 2, False), (8, 1, True)], ids=str
)
def test_a_library_round_trip_walks_the_faces_once(monkeypatch, source):
    family = fixture_set(source) if isinstance(source, str) else build_multi(
        source[0], source[1], orientable=source[2], seed=4
    )
    walks = count_walks(monkeypatch)
    sch = set_to_scheme(family)
    back = scheme_to_set(sch)
    report = trace_faces(sch)
    orientable = is_orientable(sch)
    assert len(walks) == 1 and walks[0] is sch
    assert canonical_set_key(back) == canonical_set_key(family)
    assert report.all_quadrilateral and orientable == report.orientable == back.strong


def test_an_untraced_scheme_is_walked_once_and_only_when_traced(monkeypatch, nonorientable6):
    sch = parse_scheme(format_scheme(set_to_scheme(nonorientable6)))
    walks = count_walks(monkeypatch)
    assert is_orientable(sch) is False and walks == []  # by the parities alone
    report = trace_faces(sch)
    assert scheme_to_set(sch).strong is False and is_orientable(sch) is False
    assert trace_faces(sch) is report and len(walks) == 1


def test_a_scheme_keeps_the_report_of_its_first_trace(strong6, klein4x2):
    for family in (strong6, klein4x2):
        report = verify_family(family)
        assert report.faces is trace_faces(report.scheme)
        assert trace_faces(set_to_scheme(family)) == report.faces
        parsed = parse_scheme(format_scheme(report.scheme))
        assert trace_faces(parsed) is trace_faces(parsed) == report.faces


@pytest.mark.parametrize("how", ["library", "parsed", "dicts"])
def test_the_kept_report_leaves_equality_repr_and_pickles_alone(klein4x2, how):
    library = set_to_scheme(klein4x2)
    if how == "library":
        traced = library
    elif how == "parsed":
        traced = parse_scheme(format_scheme(library))
    else:
        traced = EmbeddingScheme(library.graph, dict(library.rotation), dict(library.signature))
    trace_faces(traced)
    copy = untraced(traced)
    assert traced._faces is not None and copy._faces is None
    assert traced == copy and copy == traced
    assert repr(traced) == repr(copy) == "EmbeddingScheme(n=4, m=2)"
    assert pickle.dumps(traced) == pickle.dumps(copy)
    back = pickle.loads(pickle.dumps(traced))
    assert back._faces is None and back == traced
    assert trace_faces(back) == trace_faces(traced) and trace_faces(back) is not traced._faces


@pytest.mark.parametrize("n,m", [(8, 1), (6, 3)])
def test_all_quadrilateral_reports_of_one_order_share_their_lengths(n, m):
    a = trace_faces(set_to_scheme(build_multi(n, m, orientable=True, seed=1)))
    b = trace_faces(set_to_scheme(build_multi(n, m, orientable=False, seed=2)))
    c = trace_faces(parse_scheme(format_scheme(set_to_scheme(build_multi(n, m, seed=3)))))
    assert a.face_lengths is b.face_lengths is c.face_lengths
    assert a.face_lengths == (4,) * a.face_count and a.face_count == 3 * m * comb(n, 3) // 2


def non_quadrilateral(family, seed):
    """A perturbed scheme of `family` with a face of length other than 4,
    and the lengths the oracle traces on it."""
    rng = random.Random(seed)
    sch = set_to_scheme(family)
    for _ in range(50):
        cand = perturb(sch, rng)
        lengths = naive_face_trace(cand)[1]
        if any(length != 4 for length in lengths):
            return cand, lengths
    pytest.fail("no non-quadrilateral perturbation found")


@pytest.mark.parametrize("how", ["dicts", "parsed", "dicts-traced", "parsed-traced"])
@pytest.mark.parametrize("source", ["strong_6", "klein_4x2"])
def test_a_non_quadrilateral_scheme_is_still_refused_by_scheme_to_set(source, how):
    sch, lengths = non_quadrilateral(fixture_set(source), source)
    if how.startswith("parsed"):
        sch = parse_scheme(format_scheme(sch))
    if how.endswith("traced"):
        assert not trace_faces(sch).all_quadrilateral
    bad = next(length for length in sorted(lengths) if length != 4)
    for _ in range(2):  # the second time from the kept report
        with pytest.raises(NotQuadrilateral) as err:
            scheme_to_set(sch)
        assert str(err.value) == f"face of length {bad} traced"
    assert list(trace_faces(sch).face_lengths) == sorted(lengths)


@pytest.mark.parametrize("how", ["library", "parsed", "dicts", "unpickled"])
def test_every_field_of_a_scheme_is_immutable(klein4x2, how):
    # What keeps the kept face report true: nothing a trace reads can change.
    library = set_to_scheme(klein4x2)
    sch = {
        "library": lambda: library,
        "parsed": lambda: parse_scheme(format_scheme(library)),
        "dicts": lambda: EmbeddingScheme(
            library.graph, dict(library.rotation), dict(library.signature)
        ),
        "unpickled": lambda: pickle.loads(pickle.dumps(library)),
    }[how]()
    assert type(sch.negative) is bytes and type(sch.y_reversed) is bytes
    with pytest.raises(TypeError):
        sch.negative[0] = 1 - sch.negative[0]
    with pytest.raises(TypeError):
        sch.y_reversed[0] = 1
    for rot in sch.x_rotations:
        assert rot.readonly
        with pytest.raises(TypeError):
            rot[0] = rot[-1]
    assert sch == library and trace_faces(sch) == trace_faces(library)


def test_from_ids_keeps_buffers_of_signs_as_bytes(strong6):
    library = set_to_scheme(strong6)
    negative, y_reversed = bytearray(library.negative), bytearray(library.y_reversed)
    sch = EmbeddingScheme.from_ids(library.graph, library._x_ids, y_reversed, negative)
    assert type(sch.negative) is bytes and type(sch.y_reversed) is bytes
    negative[0] ^= 1
    y_reversed[0] ^= 1
    assert sch == library and sch.negative != negative
    # A bytes argument is kept as it is, not copied.
    assert untraced(library).negative is library.negative


def test_from_ids_copies_the_rotation_buffer():
    # A write into the caller's buffer after the first trace once changed
    # the X rotations under the kept report: it still said all faces were
    # quadrilaterals, while the same bytes traced afresh said not.
    library = set_to_scheme(build_multi(20, 3, orientable=False, seed=1))
    x_ids, put = scheme_module.x_writer(library.graph)
    for x, rot in enumerate(library.x_rotations, 1):
        put(x, rot)
    sch = EmbeddingScheme.from_ids(library.graph, x_ids, library.y_reversed, library.negative)
    kept = trace_faces(sch)
    assert kept.all_quadrilateral
    first = list(library.x_rotations[0])
    first[0], first[1] = first[1], first[0]
    put(1, first)
    assert sch == library and trace_faces(sch) is kept
    rewritten = EmbeddingScheme.from_ids(library.graph, x_ids, library.y_reversed, library.negative)
    assert not trace_faces(rewritten).all_quadrilateral


def test_naming_a_pair_that_is_not_strong_holds_a_few_bytes_per_edge():
    # The all-pairs scan held 42-51 bytes per Levi edge to name the pair; the
    # signs name it from three strides of `negative`.
    s = build_multi(20, 3, orientable=False, seed=1)
    edges = build_levi(HypergraphSpec(20, 3)).edge_count
    named = peak_bytes(lambda: verify_family(s).strong)
    decided = peak_bytes(lambda: verify_family(s).is_strong)
    assert not verify_family(s).strong.ok
    assert named - decided <= 8 * edges
