"""Canonical forms, isomorphism, enumeration, and exact counting bounds.

Two circuit families are equivalent when they agree circuit by circuit up
to rotation and reversal; `canonicalize` produces an invariant normal form
deciding that, copy labels left out.  Isomorphism additionally allows
relabelling the vertices.  The enumerator replays the inductive construction
with randomized choices (transition picks, vertex pairings, role swaps, apex
exchange) and dedupes by canonical form, which realizes the counting lower
bound in practice.
"""

from itertools import product
from operator import index
from random import Random

from .builder import build_even, check_order
from .circuits import (
    Circuit,
    EmbeddingSet,
    canonical_set_key,
    is_embedding_set,
    least_rotation,
    relabel,
)
from .exceptions import InvalidParameter, Value
from .scheme import verify_family


class CanonicalSet(Value):
    """Rotation/reversal-invariant normal form of a family, labels left out.
    Immutable; equal and of equal hash when all three fields are."""

    _fields = ("n", "m", "circuits")

    def __init__(self, n: int, m: int, circuits: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, m=m, circuits=circuits)


def canonicalize(s: EmbeddingSet) -> CanonicalSet:
    """The normal form of a family's `canonical_set_key`, labels left out."""
    return CanonicalSet(n=s.n, m=s.m, circuits=canonical_set_key(s))


def _least_forms(s: EmbeddingSet) -> list[tuple]:
    """Per circuit, the least rotation of its sequence and of its reverse,
    each written out and with its offset (`least_rotation`)."""
    forms = []
    for c in s.circuits:
        seq, back = c.seq, c.seq[::-1]
        a, b = least_rotation(seq), least_rotation(back)
        forms.append((seq[a:] + seq[:a], a, back[b:] + back[:b], b))
    return forms


def _rewrite(s: EmbeddingSet, forms) -> EmbeddingSet:
    """`canonical_rewrite` of s, given its `_least_forms`."""
    # The first circuit whose two least forms differ decides the direction.
    reverse = next((back < ahead for ahead, _, back, _ in forms if ahead != back), False)
    circuits = tuple(
        c.reversed_().rotated(b) if reverse else c.rotated(a)
        for c, (_, a, _, b) in zip(s.circuits, forms)
    )
    return EmbeddingSet(s.n, s.m, circuits, s.strong)


def canonical_rewrite(s: EmbeddingSet) -> EmbeddingSet:
    """Equivalent, deterministically written form of a family.

    Every circuit takes its lexicographically least rotation (`least_rotation`,
    the smallest offset on ties), and the whole family is written either
    all-forward or all-reversed, whichever sorts first.  Reversal is applied
    globally rather than per circuit because reversing circuits one at a
    time destroys the strong-compatibility presentation of orientable
    families (only rotations and simultaneous reversal preserve it); copy
    labels ride along.  Rewriting a rewritten family changes nothing.
    """
    return _rewrite(s, _least_forms(s))


def sets_isomorphic(a: EmbeddingSet, b: EmbeddingSet) -> dict[int, int] | None:
    """A vertex relabelling carrying family a onto family b, or None.

    Any isomorphism must align the circuit missing vertex 1 of `a` with
    some circuit of `b` (forwards or reversed, at some rotation), and that
    alignment already determines the whole permutation; so only n * 2 * N
    candidates need checking rather than n! relabellings.  Copy labels are
    not compared (see `canonical_set_key`).
    """
    if a.n != b.n or a.m != b.m:
        raise InvalidParameter("families must share n and m to be compared")
    key_b = canonical_set_key(b)
    t1 = a.circuit(1)
    length = len(t1.seq)
    for j in range(1, b.n + 1):
        for direction in (b.circuit(j), b.circuit(j).reversed_()):
            for off in range(length):
                aligned = direction.seq[off:] + direction.seq[:off]
                sigma = {1: j}
                if (
                    all(sigma.setdefault(v, w) == w for v, w in zip(t1.seq, aligned))
                    and len(set(sigma.values())) == a.n
                    and canonical_set_key(relabel(a, sigma)) == key_b
                ):
                    return sigma
    return None


class EnumerationResult(Value):
    """The families found, each in its canonical written form
    (`canonical_rewrite`), and whether the attempts ran out first.

    Each attempt builds one family, which is new and kept, a duplicate of
    one found before, or rejected by `verify_family`: `attempts` is
    len(families) + `duplicates` + `rejected`.  Mutable and unhashable;
    equal when all five fields are.
    """

    _fields = ("families", "budget_exhausted", "attempts", "duplicates", "rejected")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(
        self,
        families: list[EmbeddingSet],
        budget_exhausted: bool,
        attempts: int,
        duplicates: int,
        rejected: int,
    ):
        self.families = families
        self.budget_exhausted = budget_exhausted
        self.attempts = attempts
        self.duplicates = duplicates
        self.rejected = rejected

    def __len__(self) -> int:
        return len(self.families)


# Attempts `enumerate_variants` may spend per requested family.
ATTEMPTS_PER_FAMILY = 50


def enumerate_variants(
    n: int, orientable: bool, count: int, seed: int | None = None
) -> EnumerationResult:
    """Up to `count` pairwise-inequivalent minimum-genus families.

    Runs the seeded builder repeatedly, deduping by canonical form and
    verifying each new candidate once (`verify_family`: valid family, all
    faces quadrilateral, Euler genus equal to the lower bound, requested
    orientability).  Each family found is kept in its canonical written
    form, made from the least forms its canonical key was taken from.
    Stops early with `budget_exhausted` set once ATTEMPTS_PER_FAMILY * count
    attempts have been spent.  The result counts the attempts, and the
    duplicates and rejections among them.  Refuses n and orientability as
    `build_even` does (`check_order`), before it reads the count, and raises
    InvalidParameter for a count that is not an int or is negative.
    """
    check_order(n, orientable)
    try:
        count = index(count)
    except TypeError:
        raise InvalidParameter(f"count must be an int, got {count!r}") from None
    if count < 0:
        raise InvalidParameter(f"count must be >= 0, got {count}")
    rng = Random(seed)
    found: dict[CanonicalSet, EmbeddingSet] = {}
    budget = ATTEMPTS_PER_FAMILY * count
    attempts = duplicates = rejected = 0
    while len(found) < count and attempts < budget:
        attempts += 1
        s = build_even(n, orientable, seed=rng.randrange(2**63))
        forms = _least_forms(s)
        key = CanonicalSet(n, s.m, tuple([min(ahead, back) for ahead, _, back, _ in forms]))
        if key in found:
            duplicates += 1
        elif not verify_family(s).is_minimum(orientable):
            rejected += 1
        else:
            found[key] = _rewrite(s, forms)
    return EnumerationResult(
        families=list(found.values()),
        budget_exhausted=len(found) < count,
        attempts=attempts,
        duplicates=duplicates,
        rejected=rejected,
    )


def double_factorial(k: int) -> int:
    """k(k-2)(k-4)...; empty product (k <= 0) is 1."""
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def count_lower_bound(n: int) -> int:
    """Exact value of the recurrence bounding inequivalent minimum embeddings.

    R_4 = 1 and R_k = ((k-4)/2)^((k-2)/2) * (k-3)!! * 2^((k-2)/2) / 2 * R_{k-2}.
    It refuses n as `build_even` does (`check_order`).
    """
    check_order(n)
    r = 1
    for k in range(6, n + 1, 2):
        half = (k - 2) // 2
        r = r * ((k - 4) // 2) ** half * double_factorial(k - 3) * 2**half // 2
    return r


def count_upper_bound(n: int) -> int:
    """Exact value of ((n-3)!!)^(n(n-1)/2), bounding families from above.
    It refuses n as `build_even` does (`check_order`)."""
    check_order(n)
    return double_factorial(n - 3) ** (n * (n - 1) // 2)


def exhaustive_classes_order4() -> list[EmbeddingSet]:
    """All equivalence classes of valid order-4 families, by brute force.

    Each circuit is an Eulerian circuit of a triangle, so there are two
    cyclic orientations per vertex and 16 raw combinations in total.
    """
    options = []
    for i in range(1, 5):
        a, b, c = [v for v in range(1, 5) if v != i]
        options.append(
            (
                Circuit(i, 4, 1, (a, b, c)),
                Circuit(i, 4, 1, (a, c, b)),
            )
        )
    classes: dict[CanonicalSet, EmbeddingSet] = {}
    for combo in product(*options):
        s = EmbeddingSet(4, 1, combo, strong=False)
        if is_embedding_set(s, require_strong=False):
            classes.setdefault(canonicalize(s), s)
    return list(classes.values())
