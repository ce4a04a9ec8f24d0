"""Families drawn Eulerian with valid copy labels, judged by the oracle.

A built family (n <= 10, m <= 3, either orientability) takes up to four
moves that keep every circuit an Eulerian circuit with valid copy labels
but may break compatibility, strength or face consistency:

- reverse a whole circuit, carrying its labels along;
- reverse the closed sub-trail between two visits of one vertex;
- swap the copy labels of two traversals of one pair (m > 1).

On every such family the verdicts of `verify_family` and `is_embedding_set`
must be those of the pair-by-pair oracle, copy-aware, the traced faces
those of the naive tracer, and `set_to_scheme` must refuse it exactly when
the oracle finds a pair that is not compatible.  `is_compatible` and
`is_strongly_compatible` must give the oracle's verdict on every pair, and
a quadrilateral scheme, switched or not, must read back as a family with
the oracle's strong verdict.  For every m, a family is compatible iff every
face of its scheme is a quadrilateral, and strong iff moreover every Y
vertex has one sign, so a strong family is orientable.

Two quadrilateral order-4 families are pinned below.  Their passes match
once reversed when the copy labels are left out, but not with them: both
are compatible and not strong.  The scheme of the first has a vertex
parity that is not 0 on every X vertex (a torus), the second none at all
(a Klein bottle).
"""

from functools import cache
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kn3genus import (
    Circuit,
    EmbeddingScheme,
    EmbeddingSet,
    HypergraphSpec,
    NotAnEmbeddingSet,
    build_multi,
    euler_genus_lower_bound,
    is_compatible,
    is_embedding_set,
    is_strongly_compatible,
    scheme_to_set,
    set_to_scheme,
    trace_faces,
)
from kn3genus.scheme import _family_scheme, _signs_agree, verify_family

from oracle import (
    brute_cyclically_equal,
    naive_face_trace,
    pair_verdict,
    pairwise_first_failure,
    rows,
)


@cache
def built(n: int, m: int, orientable: bool, seed: int) -> EmbeddingSet:
    return build_multi(n, m, orientable=orientable, seed=seed)


def reverse_subtrail(c: Circuit, p: int, q: int) -> Circuit:
    """c with the closed sub-trail from position p to q (seq[p] == seq[q],
    p < q) walked backwards; its steps p..q-1 take their labels along."""
    seq, labels = c.seq, c.copy_labels
    seq = seq[:p] + seq[p : q + 1][::-1] + seq[q + 1 :]
    if labels is not None:
        labels = labels[:p] + labels[p:q][::-1] + labels[q:]
    return Circuit(c.excluded, c.n, c.m, seq, labels)


def steps(c: Circuit) -> tuple:
    """(vertex, copy label of the step from it) along c; copy 0 when unlabelled."""
    return tuple(zip(c.seq, c.copy_labels or (0,) * len(c.seq)))


def swap_labels(c: Circuit, p: int, q: int) -> Circuit:
    labels = list(c.copy_labels)
    labels[p], labels[q] = labels[q], labels[p]
    return Circuit(c.excluded, c.n, c.m, c.seq, tuple(labels))


ORDERS = [(n, m) for n in (4, 6, 8, 10) for m in (1, 2, 3)]


@st.composite
def eulerian_families(draw) -> EmbeddingSet:
    n, m = draw(st.sampled_from(ORDERS))
    orientable = draw(st.booleans()) if (n, m) != (4, 1) else True
    s = built(n, m, orientable, draw(st.integers(0, 3)))
    circuits = list(s.circuits)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, n - 1))
        c = circuits[at]
        move = draw(st.sampled_from(["reverse", "subtrail", "swap"][: 3 if m > 1 else 2]))
        if move == "reverse":
            circuits[at] = c.reversed_()
            continue
        k = len(c.seq)
        p = draw(st.integers(0, k - 1))
        if move == "subtrail":
            # A vertex of degree m(n-2) is visited m(n-2)/2 times, so only
            # the triangle of n = 4, m = 1 has no vertex visited twice.
            visits = [q for q in range(k) if c.seq[q] == c.seq[p] and q != p]
            if not visits:
                continue
            q = draw(st.sampled_from(visits))
            circuits[at] = reverse_subtrail(c, min(p, q), max(p, q))
        else:
            pair = {c.seq[p], c.seq[(p + 1) % k]}
            same = [q for q in range(k) if q != p and {c.seq[q], c.seq[(q + 1) % k]} == pair]
            circuits[at] = swap_labels(c, p, draw(st.sampled_from(same)))
    return EmbeddingSet(n, m, tuple(circuits), s.strong)


def labelled(n: int, m: int, rows) -> EmbeddingSet:
    circuits = tuple(Circuit(i, n, m, seq, labels) for i, (seq, labels) in enumerate(rows, 1))
    return EmbeddingSet(n, m, circuits, False)


# Strong by counts without the copies, compatible and not strong with them;
# the parity of the first is not 0 on every X vertex (a torus), the second
# has none (a Klein bottle).
STRONG_WITHOUT_ZERO_PARITY = labelled(4, 2, [
    ((3, 4, 3, 2, 4, 2), (1, 0, 0, 1, 0, 1)),
    ((1, 4, 3, 4, 1, 3), (1, 0, 1, 0, 1, 0)),
    ((1, 4, 2, 4, 1, 2), (0, 0, 1, 1, 1, 0)),
    ((1, 3, 2, 1, 2, 3), (1, 1, 0, 1, 0, 0)),
])
STRONG_WITHOUT_PARITY = labelled(4, 2, [
    ((2, 3, 2, 4, 3, 4), (0, 1, 1, 0, 1, 0)),
    ((1, 4, 1, 3, 4, 3), (1, 0, 0, 0, 1, 1)),
    ((4, 2, 1, 2, 4, 1), (0, 0, 1, 1, 1, 0)),
    ((3, 1, 2, 1, 3, 2), (0, 1, 0, 1, 1, 0)),
])


@settings(max_examples=120, deadline=None)
@given(s=eulerian_families())
@example(s=STRONG_WITHOUT_ZERO_PARITY)
@example(s=STRONG_WITHOUT_PARITY)
def test_verify_family_matches_the_oracle_on_eulerian_families(s):
    pairs = rows(s)
    weak = pairwise_first_failure(pairs, require_strong=False)
    strong = pairwise_first_failure(pairs, require_strong=True)
    report = verify_family(s)
    for require_strong, expected in ((False, weak), (True, strong)):
        checked = is_embedding_set(s, require_strong=require_strong)
        assert (checked.ok, checked.first()) == (not expected, expected)

    assert (report.eulerian.ok, report.eulerian.failures) == (True, [])
    assert (report.compatible.ok, report.compatible.first()) == (not weak, weak)
    if weak:
        assert report.strong is report.scheme is report.faces is None
        with pytest.raises(NotAnEmbeddingSet) as err:
            set_to_scheme(s)
        assert str(err.value) == weak
        assert not report.is_minimum(True) and not report.is_minimum(False)
        return

    assert (report.strong.ok, report.strong.first()) == (not strong, strong)
    sch = set_to_scheme(s)
    faces, lengths, genus, orientable = naive_face_trace(sch)
    traced = report.faces
    assert (traced.face_count, traced.face_lengths, traced.euler_genus, traced.orientable) == (
        faces, lengths, genus, orientable,
    )
    bound = euler_genus_lower_bound(HypergraphSpec(s.n, s.m))
    assert report.expected_genus == bound
    assert set(lengths) == {4} and genus == bound
    for want in (True, False):
        assert report.is_minimum(want) == (orientable == want and (not strong or not want))
    back = scheme_to_set(sch)
    assert back.strong == (not strong)
    # Each circuit reads back up to rotation, its copy labels included.
    for b, c in zip(back.circuits, s.circuits):
        assert brute_cyclically_equal(steps(b), steps(c))


@settings(max_examples=120, deadline=None)
@given(s=eulerian_families())
@example(s=STRONG_WITHOUT_ZERO_PARITY)
@example(s=STRONG_WITHOUT_PARITY)
def test_compatible_means_quadrilateral_and_strong_means_one_sign_per_y_vertex(s):
    # Every drawn family passes the front end, so its scheme has faces to
    # compare with whatever the pair checks say.
    sch = _family_scheme(s)
    faces = trace_faces(sch)
    strong = faces.all_quadrilateral and _signs_agree(sch.negative)
    report = verify_family(s)
    assert report.compatible.ok == faces.all_quadrilateral
    assert is_embedding_set(s, require_strong=False).ok == faces.all_quadrilateral
    assert report.is_strong == is_embedding_set(s, require_strong=True).ok == strong
    if strong:
        assert faces.orientable and report.strong.ok


def switch(sch: EmbeddingScheme, switched) -> EmbeddingScheme:
    """sch with the vertices in `switched` switched: their rotations reversed
    and the sign of every edge with one end among them flipped."""
    rotation = {v: rot[::-1] if v in switched else rot for v, rot in sch.rotation.items()}
    signature = {
        (x, y): -sign if (x in switched) != (y in switched) else sign
        for (x, y), sign in sch.signature.items()
    }
    return EmbeddingScheme(sch.graph, rotation, signature)


def test_pinned_families_are_compatible_and_not_strong():
    for s, transition, orientable in (
        (STRONG_WITHOUT_ZERO_PARITY, "(3,2,4)", True),
        (STRONG_WITHOUT_PARITY, "(4,2,3)", False),
    ):
        failure = f"pair (1,2) not strongly compatible at transition {transition}"
        report = verify_family(s)
        assert report.compatible.ok and report.faces.all_quadrilateral
        assert report.faces.orientable == orientable
        assert not report.is_strong and report.strong.failures == [failure]
        assert is_embedding_set(s, require_strong=True).failures == [failure]
        assert pairwise_first_failure(rows(s), require_strong=True) == failure
        assert not scheme_to_set(set_to_scheme(s)).strong
    # Switching every Y vertex reverses every Y rotation at m > 1, so the
    # strength read back comes off signs that differ from the family's own
    # by one bit per Y vertex (lemma 3).  Switching X vertex 1 as well
    # reads T_1 back reversed, so the strong family reads back not strong.
    for s, y_strong, x1_strong in (
        (STRONG_WITHOUT_ZERO_PARITY, False, False),
        (STRONG_WITHOUT_PARITY, False, False),
        (build_multi(6, 2, True, seed=1), True, False),
    ):
        sch = set_to_scheme(s)
        ys = set(sch.graph.y_vertices)
        for switched, strong in ((ys, y_strong), (ys | {1}, x1_strong)):
            back = scheme_to_set(switch(sch, switched))
            assert back.strong == strong
            assert pairwise_first_failure(rows(back), require_strong=False) == ""
            assert (pairwise_first_failure(rows(back), require_strong=True) == "") == strong


@settings(max_examples=60, deadline=None)
@given(s=eulerian_families())
def test_two_circuit_verdicts_match_the_oracle(s):
    labels = {i: row_labels for i, _, row_labels in rows(s)}
    for a, b in combinations(s.circuits, 2):
        expected = pair_verdict(
            a.excluded, a.seq, b.excluded, b.seq, labels[a.excluded], labels[b.excluded]
        )
        assert (is_compatible(a, b), is_strongly_compatible(a, b)) == expected


@settings(max_examples=60, deadline=None)
@given(s=eulerian_families(), data=st.data())
def test_switched_quadrilateral_schemes_read_back_as_the_oracle_says(s, data):
    # Switching a vertex set keeps the faces but reverses rotations, so the
    # family read back may differ from s, in strength too.
    assume(not pairwise_first_failure(rows(s), False))
    sch = set_to_scheme(s)
    switched = data.draw(st.sets(st.sampled_from(list(sch.rotation))))
    back = scheme_to_set(switch(sch, switched))
    pairs = rows(back)
    assert pairwise_first_failure(pairs, require_strong=False) == ""
    assert back.strong == (pairwise_first_failure(pairs, require_strong=True) == "")
