import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kn3genus import (
    EmbeddingSet,
    InvalidParameter,
    Kn3Error,
    OddOrder,
    UnsupportedCase,
    build_even,
    canonicalize,
    count_lower_bound,
    count_upper_bound,
    double_factorial,
    enumerate_variants,
    exhaustive_classes_order4,
    is_embedding_set,
    relabel,
    sets_isomorphic,
)
from kn3genus import census


def rotate_all(s, offset):
    return EmbeddingSet(
        s.n, s.m, tuple(c.rotated(offset) for c in s.circuits), s.strong
    )


def reverse_all(s):
    return EmbeddingSet(
        s.n, s.m, tuple(c.reversed_() for c in s.circuits), s.strong
    )


def test_canonicalize_invariance(strong6):
    base = canonicalize(strong6)
    assert canonicalize(rotate_all(strong6, 3)) == base
    assert canonicalize(reverse_all(strong6)) == base
    assert canonicalize(reverse_all(rotate_all(strong6, 7))) == base


def test_canonicalize_distinguishes(strong6, nonorientable6):
    assert canonicalize(strong6) != canonicalize(nonorientable6)


@settings(max_examples=25, deadline=None)
@given(offset=st.integers(0, 9), which=st.integers(1, 6))
def test_canonicalize_per_circuit_rotation(offset, which):
    from kn3genus import fixture_set

    s = fixture_set("strong_6")
    circuits = list(s.circuits)
    circuits[which - 1] = circuits[which - 1].rotated(offset)
    moved = EmbeddingSet(6, 1, tuple(circuits), s.strong)
    assert canonicalize(moved) == canonicalize(s)


def test_sets_isomorphic_roundtrip(strong6):
    rng = random.Random(2)
    images = rng.sample(range(1, 7), 6)
    perm = dict(zip(range(1, 7), images))
    moved = relabel(strong6, perm)
    sigma = sets_isomorphic(strong6, moved)
    assert sigma is not None
    assert canonicalize(relabel(strong6, sigma)) == canonicalize(moved)
    back = sets_isomorphic(moved, strong6)
    assert back is not None


def test_sets_isomorphic_identity(strong6):
    sigma = sets_isomorphic(strong6, strong6)
    assert sigma is not None


def test_sets_isomorphic_orientability_invariant(strong6, nonorientable6):
    assert sets_isomorphic(strong6, nonorientable6) is None


@pytest.mark.parametrize("n", [12, 16])
def test_sets_isomorphic_without_order_cap(n):
    a = build_even(n, True, seed=n)
    rng = random.Random(n)
    moved = relabel(a, dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n))))
    sigma = sets_isomorphic(a, moved)
    assert sigma is not None
    assert canonicalize(relabel(a, sigma)) == canonicalize(moved)


def test_sets_isomorphic_requires_same_ambient(strong6, planar4):
    with pytest.raises(ValueError, match="families must share n and m") as err:
        sets_isomorphic(strong6, planar4)
    assert isinstance(err.value, Kn3Error)


def test_enumerate_n6_reaches_lower_bound():
    result = enumerate_variants(6, True, count=6, seed=1)
    assert len(result) == 6 == count_lower_bound(6)
    assert not result.budget_exhausted
    keys = [canonicalize(s) for s in result.families]
    assert len(set(keys)) == len(keys)


def test_enumerate_exhausts_on_n4():
    result = enumerate_variants(4, True, count=3, seed=0)
    assert result.budget_exhausted
    assert len(result) == 1
    assert (result.attempts, result.duplicates, result.rejected) == (150, 149, 0)


def test_enumerate_counts_every_attempt_once(monkeypatch):
    # Every other attempt builds a family of the other orientability, which
    # `verify_family` rejects unless an earlier family had its key.
    built = count()
    build_even = census.build_even

    def alternating(n, orientable, seed):
        return build_even(n, orientable == (next(built) % 2 == 0), seed=seed)

    monkeypatch.setattr(census, "build_even", alternating)
    result = enumerate_variants(8, True, count=10, seed=3)
    assert len(result) == 10 and result.rejected > 0
    assert result.attempts == len(result) + result.duplicates + result.rejected
    assert all(is_embedding_set(s, require_strong=True).ok for s in result.families)


class _Two:
    def __index__(self):
        return 2


@pytest.mark.parametrize(
    "count,message",
    [
        (2.5, "count must be an int, got 2.5"),
        ("3", "count must be an int, got '3'"),
        (None, "count must be an int, got None"),
        (-3, "count must be >= 0, got -3"),
        (-1, "count must be >= 0, got -1"),
    ],
)
def test_enumerate_refuses_a_count_that_is_no_int_or_negative(count, message):
    # 2.5 returned 3 families, and -3 an empty result that was not exhausted.
    with pytest.raises(InvalidParameter) as err:
        enumerate_variants(8, True, count, seed=1)
    assert str(err.value) == message


@pytest.mark.parametrize("count", [0, 1])
@pytest.mark.parametrize(
    "n,orientable,error",
    [(7, True, OddOrder), ("8", True, TypeError), (4, False, UnsupportedCase)],
)
def test_enumerate_checks_its_order_before_its_count(n, orientable, error, count):
    # A count of 0 returned an empty result that was not exhausted, where a
    # count of 1 raised.
    with pytest.raises(error):
        enumerate_variants(n, orientable, count)


def test_enumerate_takes_any_index_as_its_count():
    assert enumerate_variants(8, True, 0, seed=1) == census.EnumerationResult([], False, 0, 0, 0)
    result = enumerate_variants(8, True, _Two(), seed=1)
    assert result == enumerate_variants(8, True, 2, seed=1) and len(result.families) == 2


def test_enumerate_deterministic():
    a = enumerate_variants(8, True, count=10, seed=123)
    b = enumerate_variants(8, True, count=10, seed=123)
    assert [canonicalize(s) for s in a.families] == [canonicalize(s) for s in b.families]


def test_enumerate_nonorientable():
    result = enumerate_variants(8, False, count=10, seed=5)
    assert len(result) == 10
    assert all(not s.strong for s in result.families)


def test_double_factorial():
    assert [double_factorial(k) for k in (-1, 0, 1, 2, 3, 5, 7)] == [1, 1, 1, 2, 3, 15, 105]


def test_count_lower_bound_values():
    assert count_lower_bound(4) == 1
    assert count_lower_bound(6) == 6
    assert count_lower_bound(8) == 2880


def test_count_lower_bound_matches_product_form():
    # Independent evaluation of the same growth as a product over k.
    def product_form(n):
        out = 1
        for k in range(2, (n - 2) // 2 + 1):
            out *= (k - 1) ** k * double_factorial(2 * k - 1) * 2 ** (k - 1)
        return out

    for n in range(4, 21, 2):
        assert count_lower_bound(n) == product_form(n)


def test_count_upper_bound_values():
    assert count_upper_bound(4) == 1
    assert count_upper_bound(6) == 3**15 == 14348907
    assert count_upper_bound(8) == 15**28


def test_exhaustive_order4():
    classes = exhaustive_classes_order4()
    assert len(classes) == 1 == count_upper_bound(4)


def test_canonical_rewrite_is_equivalent_and_stable():
    from kn3genus import canonical_rewrite, is_embedding_set

    s = build_even(8, True, seed=1)
    canon = canonical_rewrite(s)
    assert canonicalize(canon) == canonicalize(s)
    # the rewrite keeps the strong presentation (reversals only happen globally)
    assert is_embedding_set(canon, require_strong=True).ok
    assert canonical_rewrite(rotate_all(s, 5)) == canon
    assert canonical_rewrite(reverse_all(s)) == canon
    for c in canon.circuits:
        assert all(c.seq <= c.rotated(off).seq for off in range(len(c.seq)))


def test_canonical_set_equality_matches_equivalence():
    s = build_even(6, True, seed=3)
    circuits = list(s.circuits)
    circuits[2] = circuits[2].reversed_().rotated(4)
    moved = EmbeddingSet(6, 1, tuple(circuits), s.strong)
    assert canonicalize(moved) == canonicalize(s)
    # changing an actual traversal produces a different class
    other = build_even(6, True, seed=5)
    if canonicalize(other) != canonicalize(s):
        assert canonicalize(other) != canonicalize(moved)
