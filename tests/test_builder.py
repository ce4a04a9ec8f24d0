import hashlib
from collections import Counter

import pytest

from kn3genus import (
    HypergraphSpec,
    InvalidParameter,
    Kn3Error,
    OddOrder,
    TransitionChoice,
    UnsupportedCase,
    base_set,
    build_apex_circuits,
    build_even,
    build_insertion,
    build_multi,
    build_sigma,
    canonical_rewrite,
    count_lower_bound,
    count_upper_bound,
    enumerate_variants,
    fixture_set,
    format_census,
    format_set,
    genus_formula,
    is_embedding_set,
    is_strongly_compatible,
    set_to_scheme,
    trace_faces,
    transitions_through,
    validate_eulerian,
)
from kn3genus.builder import _expand
from kn3genus.circuits import canonical_set_key


def test_base_sets(planar4, nonorientable6, klein4x2):
    assert base_set("orientable_4") == planar4
    assert base_set("nonorientable_6") == nonorientable6
    assert base_set("multi_nonorientable_4") == klein4x2
    assert is_embedding_set(planar4, require_strong=True).ok
    assert is_embedding_set(nonorientable6, require_strong=False).ok
    with pytest.raises(InvalidParameter, match="unknown base kind 'torus_17'"):
        base_set("torus_17")
    with pytest.raises(InvalidParameter, match="unknown fixture 'torus_17'"):
        fixture_set("torus_17")


@pytest.mark.parametrize(
    "i,n,expected",
    [
        (1, 8, (3, 4, 5, 6, 7, 8)),
        (3, 8, (2, 1, 5, 6, 7, 8)),
        (5, 8, (2, 1, 4, 3, 7, 8)),
        (7, 8, (2, 1, 4, 3, 6, 5)),
        (1, 6, (3, 4, 5, 6)),
        (3, 4, (2, 1)),
    ],
)
def test_build_sigma(i, n, expected):
    assert build_sigma(i, n) == expected


def test_build_sigma_parity():
    with pytest.raises(ValueError):
        build_sigma(2, 8)
    with pytest.raises(ValueError):
        build_sigma(9, 8)


def test_build_insertion_odd_even():
    # n=6, x=7, y=8
    assert build_insertion(1, 6).tokens == (7, 3, 8, 4, 7, 5, 8, 6, 7, 8, 2)
    assert build_insertion(2, 6).tokens == (8, 3, 7, 4, 8, 5, 7, 6, 8, 7, 1)
    # the last odd/even pair ends on x,y,n and y,x,n-1
    assert build_insertion(5, 6).tokens[-3:] == (7, 8, 6)
    assert build_insertion(6, 6).tokens[-3:] == (8, 7, 5)


def test_build_insertion_covers_new_edges():
    trail = build_insertion(3, 8).tokens
    pairs = Counter(
        tuple(sorted(p)) for p in zip(trail, trail[1:])
    )
    x, y = 9, 10
    assert pairs[(x, y)] == 1
    for v in (1, 2, 5, 6, 7, 8):
        assert pairs[tuple(sorted((v, x)))] + pairs[tuple(sorted((v, y)))] == 2
    assert 3 not in trail and 4 == trail[-1]


def test_apex_circuits_structure():
    t_x, t_y = build_apex_circuits(6)
    # subtrail openings: T'_y starts x,2,n,n-1
    assert t_y.seq[:4] == (7, 2, 6, 5)
    assert t_x.seq[:6] == (8, 1, 6, 2, 5, 6)
    assert validate_eulerian(t_x).ok
    assert validate_eulerian(t_y).ok
    assert is_strongly_compatible(t_x, t_y)
    # forced transitions through y in T'_x: (n+3-i, y, i) for odd 3 <= i <= n-1
    through_y = {(t.a, t.b) for t in transitions_through(t_x, 8)}
    for i in (3, 5):
        assert (6 + 3 - i, i) in through_y
    assert (2, 1) in through_y


def test_default_build_6_matches_hand_expansion():
    # Expanded from the planar base by hand, following the construction.
    hand = {
        1: (2, 5, 3, 6, 4, 5, 6, 2, 3, 4),
        2: (3, 1, 6, 3, 5, 4, 6, 5, 1, 4),
        3: (4, 5, 2, 6, 1, 5, 6, 4, 1, 2),
        4: (2, 1, 3, 6, 2, 5, 1, 6, 5, 3),
        5: (6, 1, 4, 2, 3, 4, 6, 3, 1, 2),
        6: (5, 2, 4, 3, 5, 4, 1, 3, 2, 1),
    }
    s = build_even(6, orientable=True)
    for i in range(1, 7):
        assert s.circuit(i).seq == hand[i]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_orientable_builds_verify(n):
    s = build_even(n, orientable=True)
    assert is_embedding_set(s, require_strong=True).ok
    report = trace_faces(set_to_scheme(s))
    assert report.all_quadrilateral and report.orientable
    assert report.euler_genus == 2 * genus_formula(HypergraphSpec(n), True)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_nonorientable_builds_verify(n):
    s = build_even(n, orientable=False)
    assert is_embedding_set(s, require_strong=False).ok
    assert not is_embedding_set(s, require_strong=True).ok
    assert not is_strongly_compatible(s.circuit(3), s.circuit(5))
    report = trace_faces(set_to_scheme(s))
    assert report.all_quadrilateral and not report.orientable
    assert report.euler_genus == genus_formula(HypergraphSpec(n), False)


def test_builder_errors():
    with pytest.raises(OddOrder):
        build_even(7)
    with pytest.raises(ValueError):
        build_even(2)
    with pytest.raises(UnsupportedCase):
        build_even(4, orientable=False)
    with pytest.raises(UnsupportedCase):
        build_multi(4, 1, orientable=False)
    with pytest.raises(OddOrder):
        build_multi(5, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_even(2),
        lambda: build_multi(6, 0),
        lambda: build_sigma(2, 8),
        lambda: build_insertion(9, 8),
        lambda: build_apex_circuits(5),
        lambda: HypergraphSpec(3),
        lambda: HypergraphSpec(6, 0),
        lambda: count_lower_bound(2),
        lambda: count_upper_bound(-2),
        lambda: _expand(build_even(6), TransitionChoice(pairing=((1, 2), (3, 4), (5, 5))), None),
    ],
)
def test_argument_domain_errors_are_invalid_parameters(call):
    # A domain error of the package that callers may still catch as ValueError.
    with pytest.raises(InvalidParameter) as err:
        call()
    assert isinstance(err.value, Kn3Error) and isinstance(err.value, ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_even("6", True),
        lambda: build_even(6.0),
        lambda: build_even(None),
        lambda: build_multi("6", 2),
        lambda: build_multi(6, 2.0),
        lambda: build_multi(6.0, 1),
        lambda: HypergraphSpec(6, "1"),
        lambda: HypergraphSpec(8, True),
        lambda: count_lower_bound("8"),
        lambda: count_upper_bound(8.0),
        lambda: count_upper_bound(True),
    ],
)
def test_an_order_or_multiplicity_that_is_no_int_is_refused_as_the_spec_does(call):
    # Before the check, build_even("6") failed on `"6" % 2` with an unrelated
    # message, and build_multi(6, 2.0) built an m = 2 family.  A bool is no
    # int: HypergraphSpec(8, True) had m=True, count_upper_bound(True) raised
    # OddOrder for "n=True", and count_upper_bound(8.0) returned a float.
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == "n and m must be integers"


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_even(6, "no"),
        lambda: build_even(6, None),
        lambda: build_multi(6, 2, orientable=""),
        lambda: build_multi(4, 2, orientable=0),
        lambda: enumerate_variants(8, "no", 2, seed=1),
    ],
    ids=["even-str", "even-none", "multi-empty", "multi-zero", "enumerate-str"],
)
def test_orientable_that_is_no_bool_is_refused(call):
    # These built a family picked by the truth value, or, in
    # enumerate_variants, spent the whole budget and returned none.
    with pytest.raises(TypeError, match="orientable must be a bool"):
        call()


def test_determinism():
    assert build_even(12, True, seed=42) == build_even(12, True, seed=42)
    assert build_even(10, False) == build_even(10, False)
    assert build_multi(6, 3, seed=9) == build_multi(6, 3, seed=9)


def test_seeded_builds_vary():
    keys = {canonical_set_key(build_even(8, True, seed=seed)) for seed in range(8)}
    assert len(keys) > 1


def test_explicit_choice_is_honored():
    base = build_even(6, orientable=True)
    choice = TransitionChoice(
        pairing=((3, 4), (1, 2), (5, 6)),
        transition_index={1: 1, 3: 0, 5: 1},
        apex_swap=True,
    )
    s = _expand(base, choice, None)
    assert is_embedding_set(s, require_strong=True).ok
    default = _expand(base, None, None)
    assert canonical_set_key(s) != canonical_set_key(default)


def test_splice_conservation():
    before = build_even(6, orientable=True)
    after = _expand(before, None, None)
    old_labels = set(range(1, 7))
    for i in range(1, 7):
        mate = i + 1 if i % 2 == 1 else i - 1
        old = Counter((t.a, t.mid, t.b)
                      for j in old_labels if j != i
                      for t in transitions_through(before.circuit(i), j))
        new = Counter(
            (t.a, t.mid, t.b)
            for j in old_labels
            if j != i
            for t in transitions_through(after.circuit(i), j)
            if t.a in old_labels and t.b in old_labels
        )
        broken = old - new
        assert sum(broken.values()) == 1
        ((a, mid, b),) = broken
        assert mid == mate
        # the broken transition is rerouted through the two new vertices
        seams = {(t.a, t.b) for t in transitions_through(after.circuit(i), mate)}
        assert any(pair in seams for pair in [(a, 7), (a, 8)])
        assert any(pair in seams for pair in [(7, b), (8, b)])
        assert not (new - old)


def test_multi_builds_verify():
    for n, m, orientable in [(4, 2, True), (4, 2, False), (4, 3, False), (6, 2, True), (6, 3, False), (8, 2, True)]:
        s = build_multi(n, m, orientable=orientable)
        assert is_embedding_set(s, require_strong=orientable).ok
        report = trace_faces(set_to_scheme(s))
        want = genus_formula(HypergraphSpec(n, m), orientable)
        assert report.euler_genus == (2 * want if orientable else want)
        assert report.orientable == orientable
        assert report.all_quadrilateral


def test_multi_output_carries_labels():
    s = build_multi(6, 2, orientable=True)
    for c in s.circuits:
        assert c.copy_labels is not None
        assert len(c.copy_labels) == len(c.seq)
        assert set(c.copy_labels) == {0, 1}


def test_multi_reduces_to_even_for_m1():
    assert build_multi(8, 1, orientable=True) == build_even(8, orientable=True)


# Digests of builder output that must stay byte-identical: they pin every
# free choice of the constructions and the order in which the rng is read.
def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "n,m,orientable,seed,digest",
    [
        (20, 3, False, 1, "96c36b89381894f057a32f5ab5bb89f32ad5fc580161116e20aa3b36070ac464"),
        (40, 1, True, 2, "e5ea4fffff2f56f95b9da33503129f7aab5f2b5e90b82749416e205ec149bc82"),
        (64, 1, True, 3, "0e583f0832be7894758f0449c8e6ebe48998828a0952e259df42b291937e6bc5"),
    ],
)
def test_seeded_build_output_is_pinned(n, m, orientable, seed, digest):
    assert _sha256(format_set(build_multi(n, m, orientable, seed=seed))) == digest


@pytest.mark.parametrize(
    "orientable,digest",
    [
        (True, "8abbe207e52e409c13d1946fac933b1f9bddce9cc1b45fe2946c198663cf8826"),
        (False, "7e23ff5ffe93e4af66af753116b34fa3d7d7857be6e08715d6e599a68715a09e"),
    ],
)
def test_census_text_is_pinned(orientable, digest):
    families = enumerate_variants(8, orientable, 1000, seed=5).families
    assert _sha256(format_census(canonical_rewrite(s) for s in families)) == digest


def test_explicit_choices_output_is_pinned():
    choices = [
        TransitionChoice(pairing=((2, 1), (3, 4)), transition_index={1: 1, 3: 2}, apex_swap=True),
        TransitionChoice(
            pairing=((6, 3), (1, 5), (2, 4)), transition_index={1: 3, 5: 1}, apex_swap=False
        ),
        TransitionChoice(
            pairing=((7, 8), (1, 3), (2, 6), (5, 4)), transition_index={3: 2, 7: 5}, apex_swap=True
        ),
    ]
    s = build_even(10, choices=choices)
    assert is_embedding_set(s, require_strong=True).ok
    assert _sha256(format_set(s)) == "7fdf142b25009c8bf5d26cca0bd11bac9d02447e9c6b5765fe75cc303bc23ca8"
