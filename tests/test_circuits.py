import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kn3genus import (
    Circuit,
    EmbeddingSet,
    InvalidParameter,
    Kn3Error,
    MismatchedAmbient,
    VertexAbsent,
    build_even,
    build_multi,
    fixture_set,
    is_compatible,
    is_embedding_set,
    is_strongly_compatible,
    relabel,
    scheme_to_set,
    set_to_scheme,
    trace_faces,
    transitions_through,
    validate_eulerian,
)
from kn3genus.circuits import canonical_set_key, least_rotation, pair_reports

from oracle import (
    brute_canonical_seq,
    brute_cyclically_equal,
    brute_least_rotation,
    pair_verdict,
    pairwise_first_failure,
    rows,
)


def test_validate_eulerian_accepts_fixture_circuit(strong6):
    report = validate_eulerian(strong6.circuit(1))
    assert report.ok and not report.failures
    assert len(strong6.circuit(1)) == 10


def test_validate_eulerian_reports_duplicated_pair():
    bad = Circuit(1, 6, 1, (3, 4, 3, 4, 2, 5, 6, 2, 5, 6))
    report = validate_eulerian(bad)
    assert not report.ok
    assert "pair {3,4} count 2 expected 1" in report.first()


def test_validate_eulerian_multigraph(klein4x2):
    report = validate_eulerian(klein4x2.circuit(1))
    assert report.ok
    assert len(klein4x2.circuit(1)) == 6


def test_validate_eulerian_rejects_excluded_vertex():
    bad = Circuit(1, 4, 1, (1, 2, 3))
    assert not validate_eulerian(bad).ok


def test_validate_eulerian_rejects_immediate_repetition():
    bad = Circuit(1, 4, 1, (2, 2, 3))
    report = validate_eulerian(bad)
    assert not report.ok
    assert "repetition" in report.first()


def test_transitions_through_scan(strong6):
    t1 = strong6.circuit(1)
    through2 = [(t.a, t.mid, t.b) for t in transitions_through(t1, 2)]
    assert through2 == [(4, 2, 5), (6, 2, 3)]
    through6 = [(t.a, t.mid, t.b) for t in transitions_through(t1, 6)]
    assert through6 == [(3, 6, 4), (5, 6, 2)]


def test_transitions_cardinality(strong6, klein4x2):
    for s in (strong6, klein4x2):
        for i in range(1, s.n + 1):
            for j in range(1, s.n + 1):
                if i == j:
                    continue
                count = len(transitions_through(s.circuit(i), j))
                assert count == s.m * (s.n - 2) // 2


def test_transitions_vertex_absent():
    c = Circuit(1, 4, 1, (2, 3, 4))
    with pytest.raises(VertexAbsent):
        transitions_through(c, 1)


def test_compatibility_fixture_pairs(strong6, nonorientable6):
    assert is_compatible(strong6.circuit(1), strong6.circuit(2))
    assert is_strongly_compatible(strong6.circuit(1), strong6.circuit(2))
    t3, t5 = nonorientable6.circuit(3), nonorientable6.circuit(5)
    assert is_compatible(t3, t5)
    assert not is_strongly_compatible(t3, t5)
    assert not is_strongly_compatible(t3.reversed_(), t5)


def test_compatibility_preconditions(strong6):
    with pytest.raises(ValueError, match="excluding distinct vertices") as err:
        is_compatible(strong6.circuit(1), strong6.circuit(1).reversed_())
    assert isinstance(err.value, Kn3Error)
    other = Circuit(2, 4, 1, (3, 1, 4))
    with pytest.raises(MismatchedAmbient):
        is_compatible(strong6.circuit(1), other)


def test_strong_implies_compatible(strong6):
    for i in range(1, 7):
        for j in range(i + 1, 7):
            a, b = strong6.circuit(i), strong6.circuit(j)
            assert is_strongly_compatible(a, b)
            assert is_compatible(a, b)


def test_is_embedding_set_fixtures(strong6, nonorientable6, klein4x2):
    assert is_embedding_set(strong6, require_strong=True).ok
    assert is_embedding_set(nonorientable6, require_strong=False).ok
    report = is_embedding_set(nonorientable6, require_strong=True)
    assert not report.ok
    assert "not strongly compatible" in report.first()
    assert is_embedding_set(klein4x2, require_strong=False).ok
    assert not is_embedding_set(klein4x2, require_strong=True).ok


def test_is_embedding_set_rejects_incompatible_family(nonorientable6):
    # Corrupt one circuit by swapping two entries: Eulerian survives only for
    # value-preserving swaps, so force a pair mismatch instead.
    circuits = list(nonorientable6.circuits)
    c = circuits[1]
    seq = list(c.seq)
    seq[0], seq[4] = seq[4], seq[0]
    circuits[1] = Circuit(c.excluded, c.n, c.m, tuple(seq))
    broken = EmbeddingSet(6, 1, tuple(circuits), strong=False)
    report = is_embedding_set(broken, require_strong=False)
    assert not report.ok


def test_pair_reports_answer_a_family_that_is_not_eulerian(strong6):
    # T_1 misses vertices 4 and 6: a report names the first pair, no KeyError.
    short = EmbeddingSet(6, 1, (Circuit(1, 6, 1, (2, 3, 5)),) + strong6.circuits[1:], True)
    assert pair_reports(short)[0].failures == ["pair (1,2) not compatible"]


def test_reversal_preserves_weak_compatibility(strong6, nonorientable6):
    for s in (strong6, nonorientable6):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                a, b = s.circuit(i), s.circuit(j)
                assert is_compatible(a.reversed_(), b) == is_compatible(a, b)


def test_reversing_both_preserves_strong(strong6):
    a, b = strong6.circuit(1), strong6.circuit(2)
    assert is_strongly_compatible(a.reversed_(), b.reversed_())
    assert not is_strongly_compatible(a.reversed_(), b)


def test_compatibility_is_symmetric(strong6, nonorientable6, klein4x2):
    for s in (strong6, nonorientable6, klein4x2):
        for i in range(1, s.n + 1):
            for j in range(i + 1, s.n + 1):
                a, b = s.circuit(i), s.circuit(j)
                assert is_compatible(a, b) == is_compatible(b, a)
                assert is_strongly_compatible(a, b) == is_strongly_compatible(b, a)


@settings(max_examples=40, deadline=None)
@given(offset=st.integers(0, 9), i=st.integers(1, 6), j=st.integers(1, 6))
def test_rotation_changes_nothing(offset, i, j):
    from kn3genus import fixture_set

    s = fixture_set("strong_6")
    if i == j:
        return
    a = s.circuit(i).rotated(offset)
    b = s.circuit(j)
    assert is_compatible(a, b)
    assert is_strongly_compatible(a, b)
    assert [t.outer for t in sorted(
        transitions_through(a, j), key=lambda t: t.outer
    )] == [t.outer for t in sorted(
        transitions_through(s.circuit(i), j), key=lambda t: t.outer
    )]


def test_rotation_reversal_of_copy_labels():
    c = Circuit(1, 4, 2, (3, 2, 4, 2, 3, 4), (0, 0, 1, 1, 0, 1))

    def traversal_labels(circuit):
        return sorted(
            (tuple(sorted(step)), lab)
            for step, lab in zip(circuit.steps(), circuit.copy_labels)
        )

    base = traversal_labels(c)
    assert traversal_labels(c.rotated(2)) == base
    assert traversal_labels(c.reversed_()) == base


def test_relabel_preserves_validity(strong6):
    perm = {1: 3, 2: 1, 3: 6, 4: 2, 5: 4, 6: 5}
    moved = relabel(strong6, perm)
    assert is_embedding_set(moved, require_strong=True).ok
    assert canonical_set_key(moved) != canonical_set_key(strong6)


@pytest.mark.parametrize(
    "perm",
    [
        {1: 1},
        {1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 99},
        {1: 2, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
    ],
    ids=["partial", "outside", "not-onto"],
)
def test_relabel_refuses_a_map_that_is_no_permutation(perm):
    # These raised a bare KeyError, an IndexError, and returned a family
    # whose first circuit was None.
    with pytest.raises(InvalidParameter, match=r"permutation of 1\.\.6"):
        relabel(build_even(6, seed=1), perm)


def test_canonical_seq_invariance():
    s = build_even(8, orientable=True)
    for c in s.circuits:
        assert c.rotated(5).canonical_seq() == c.canonical_seq()
        assert c.reversed_().canonical_seq() == c.canonical_seq()
        assert c.equivalent(c.rotated(3).reversed_())


def test_cyclic_equality_is_rotation_only():
    s = build_even(6, orientable=True)
    c = s.circuit(1)
    assert c.cyclically_equal(c.rotated(4))
    assert not c.cyclically_equal(c.reversed_())
    assert c.equivalent(c.reversed_())


periodic = st.tuples(
    st.lists(st.integers(0, 2), min_size=1, max_size=4), st.integers(2, 4)
).map(lambda t: t[0] * t[1])
sequences = st.one_of(st.lists(st.integers(0, 3), min_size=1, max_size=12), periodic).map(tuple)


@settings(max_examples=300, deadline=None)
@given(seq=sequences, other=sequences, shift=st.integers(0, 50))
def test_least_rotation_matches_brute_force(seq, other, shift):
    assert least_rotation(seq) == brute_least_rotation(seq)
    c = Circuit(1, 4, 1, seq)
    assert c.canonical_seq() == brute_canonical_seq(seq)
    assert c.cyclically_equal(c.rotated(shift))
    for o in (other, seq[::-1], other * 2):
        assert c.cyclically_equal(Circuit(1, 4, 1, o)) == brute_cyclically_equal(seq, o)


def mutants(s):
    """s with its middle circuit reversed, with two adjacent entries of it
    swapped (where that keeps it Eulerian, if anywhere), and relabelled.

    The relabelled circuit keeps its copy labels: exchanging two vertex
    names maps the traversals of each pair onto those of one pair."""
    at = s.n // 2
    c = s.circuits[at]
    seq, k = c.seq, len(c.seq)
    p = next((p for p in range(k) if seq[p - 1] == seq[(p + 2) % k]), 0)
    swapped = list(seq)
    swapped[p], swapped[(p + 1) % k] = swapped[(p + 1) % k], swapped[p]
    a, b = [v for v in range(1, s.n + 1) if v != c.excluded][:2]
    relabelled = tuple({a: b, b: a}.get(v, v) for v in seq)
    for new in (
        c.reversed_(),
        Circuit(c.excluded, c.n, c.m, tuple(swapped)),
        Circuit(c.excluded, c.n, c.m, relabelled, c.copy_labels),
    ):
        yield EmbeddingSet(s.n, s.m, s.circuits[:at] + (new,) + s.circuits[at + 1:], s.strong)


def family_cases():
    bases = [fixture_set(name) for name in ("planar_4", "strong_6", "nonorientable_6", "klein_4x2")]
    bases += [
        build_multi(n, m, orientable, seed=seed)
        for n, m in ((8, 1), (6, 3))
        for orientable in (True, False)
        for seed in (1, 2)
    ]
    return [t for s in bases for t in [s, *mutants(s)]]


def pairwise(s, require_strong):
    return pairwise_first_failure(rows(s), require_strong)


def test_is_embedding_set_matches_pairwise_check():
    seen = set()
    for s in family_cases():
        bad = next((c for c in s.circuits if not validate_eulerian(c)), None)
        for require_strong in (False, True):
            report = is_embedding_set(s, require_strong=require_strong)
            if bad is not None:
                failure = f"circuit {bad.excluded}: {validate_eulerian(bad).first()}"
                assert (report.ok, report.first()) == (False, failure)
                continue
            expected = pairwise(s, require_strong)
            assert (report.ok, report.first()) == (not expected, expected)
            seen.add(expected.partition(") ")[2].partition(" at ")[0])
    assert seen == {"", "not compatible", "not strongly compatible"}


def label_mutants(s):
    """s with the copy labels of its first circuit missing, repeating a copy,
    one short, or one out of range (m = 1 ignores them)."""
    c = s.circuits[0]
    labels = c.copy_labels or (0,) * len(c.seq)
    for new in (None, (0,) * len(labels), labels[:-1], labels[:-1] + (s.m,)):
        yield EmbeddingSet(
            s.n, s.m, (Circuit(c.excluded, c.n, c.m, c.seq, new),) + s.circuits[1:], s.strong
        )


def test_set_to_scheme_refuses_exactly_what_the_family_check_refuses():
    verdicts = set()
    for s in family_cases():
        for t in (s, *label_mutants(s)):
            valid = is_embedding_set(t, require_strong=False).ok
            try:
                set_to_scheme(t)
                converted = True
            except Kn3Error:
                converted = False
            assert valid == converted
            verdicts.add((t.m > 1, valid))
    assert verdicts == {(False, True), (False, False), (True, True), (True, False)}


def test_pairwise_functions_match_pair_verdict():
    verdicts = set()
    for s in family_cases():
        labels = [row[2] for row in rows(s)]
        for i in range(1, s.n + 1):
            for j in range(i + 1, s.n + 1):
                a, b = s.circuit(i), s.circuit(j)
                if s.m > 1 and None in (labels[i - 1], labels[j - 1]):
                    continue  # an unlabelled mutant: the check refuses it
                expected = pair_verdict(i, a.seq, j, b.seq, labels[i - 1], labels[j - 1])
                assert (is_compatible(a, b), is_strongly_compatible(a, b)) == expected
                verdicts.add(expected)
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("check", [is_compatible, is_strongly_compatible])
@pytest.mark.parametrize(
    "labels", [None, (0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 2)], ids=["none", "short", "out-of-range"]
)
def test_two_circuit_checks_refuse_multi_circuits_without_their_copies(klein4x2, check, labels):
    # Without one copy label in 0..m-1 per step, a pass has no ends to pair.
    c = klein4x2.circuit(1)
    unlabelled = Circuit(1, 4, 2, c.seq, labels)
    for pair in ((unlabelled, klein4x2.circuit(2)), (klein4x2.circuit(2), unlabelled)):
        with pytest.raises(InvalidParameter, match="copy label"):
            check(*pair)
    with pytest.raises(InvalidParameter):
        check(Circuit(1, 4, 2, (2, 3, 4, 3, 2, 4), None), klein4x2.circuit(2))


def test_scheme_to_set_strong_matches_pairwise_check():
    strengths = set()
    for s in family_cases():
        if not is_embedding_set(s, require_strong=False):
            continue  # invalid mutants have no scheme
        sch = set_to_scheme(s)
        # Compatible, copies included, so every face is a quadrilateral.
        assert trace_faces(sch).all_quadrilateral
        back = scheme_to_set(sch)
        assert back.strong == (pairwise(back, True) == "")
        strengths.add(back.strong)
    assert strengths == {True, False}
