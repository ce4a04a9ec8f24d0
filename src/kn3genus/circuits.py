"""Closed trails in vertex-deleted complete graphs and their compatibility.

A circuit stores a cyclic vertex sequence; each consecutive pair, including
the wrap-around, is one traversed edge.  The circuit excluding vertex i must
traverse every pair of the remaining labels exactly m times, and for m > 1
its copy labels must give those traversals the copies 0..m-1 (an Eulerian
circuit of the m-fold complete graph minus i).  `validate_eulerian` decides
both and names the first violation.  `scheme`'s family front end decides
the same from the edge ids, and leaves a family it refuses to the checks
here, which say why.

Two circuits interlock through *passes*: the steps a -> j and j -> b of a
circuit make its pass through j, whose ends are a and b with the copies of
those steps.  Circuits T_i and T_j are compatible when the passes of T_i
through j and of T_j through i agree as multisets of unordered pairs of
ends, and strongly compatible when they agree once those of T_j are
reversed.  For m = 1 every copy is 0 and a pass is the transition (a, j,
b).  A pass is a corner of the family's scheme, between two Y vertices with
those copies, so for every m a pairwise-compatible family encodes a
quadrilateral surface embedding of the Levi graph, and a strong one an
orientable embedding (see `scheme`).

Compatibility has one rule, `_pair_failures`, on the passes of T_i through
j and of T_j through i as pairs of ends (`_step_ends`).  `scheme` judges a
family by the faces and signs of its scheme (its lemmas), and names the
one failing pair whose failure the rule words.  The passes through one
vertex, with their positions, come from one scanner, `transition_positions`,
which the two-circuit checks, `transitions_through` and the builder share.
Rotation-invariant forms of circuits all come from `least_rotation`.
"""

from collections import Counter
from collections.abc import Sequence
from itertools import repeat
from math import comb
from operator import add, eq, mul

from .exceptions import InvalidParameter, MismatchedAmbient, Value, VertexAbsent


class Transition(Value):
    """The pass a -> mid -> b of a circuit through mid.  Immutable; equal and
    of equal hash when a, mid and b are."""

    _fields = ("a", "mid", "b")

    def __init__(self, a: int, mid: int, b: int):
        self.__dict__.update(a=a, mid=mid, b=b)

    @property
    def outer(self) -> tuple[int, int]:
        """Outer endpoints as a sorted pair."""
        return (self.a, self.b) if self.a <= self.b else (self.b, self.a)


def least_rotation(seq: tuple[int, ...]) -> int:
    """Offset of the lexicographically least rotation of seq, the smallest on ties.

    The least rotation starts at an occurrence of min(seq), so only those
    offsets are compared; a circuit has m(n-2)/2 of them out of m*C(n-1,2).
    """
    if not seq:
        return 0
    low, k, doubled = min(seq), len(seq), seq + seq
    best = off = seq.index(low)
    least = doubled[off : off + k]
    for _ in range(seq.count(low) - 1):
        off = seq.index(low, off + 1)
        if doubled[off + 1] <= least[1]:  # else this rotation is greater already
            written = doubled[off : off + k]
            if written < least:
                best, least = off, written
    return best


def least_written(seq: tuple[int, ...]) -> tuple[int, ...]:
    """The least rotation of seq, written out."""
    off = least_rotation(seq)
    return seq[off:] + seq[:off]


class Circuit(Value):
    """Cyclic closed trail in the m-fold complete graph on [n] minus one vertex.

    `copy_labels` assigns each traversed edge (position p covers the pair
    seq[p], seq[p+1]) to one of the m parallel copies.  For m > 1 it is data
    that every circuit must carry: the builders fill it in, family files
    hold it as `L` lines, and `validate_eulerian` refuses a circuit without
    it or whose labels repeat a copy.  It is ignored for m=1, and left out
    of equality and of `canonical_set_key` for every m: families that differ
    only in their labels compare equal, though one may be compatible and the
    other not.  Immutable; equality and the hash read `excluded`, `n`, `m`
    and `seq`.
    """

    _fields = ("excluded", "n", "m", "seq", "copy_labels")
    _compared = ("excluded", "n", "m", "seq")

    def __init__(
        self,
        excluded: int,
        n: int,
        m: int,
        seq: tuple[int, ...],
        copy_labels: tuple[int, ...] | None = None,
    ):
        self.__dict__.update(excluded=excluded, n=n, m=m, seq=seq, copy_labels=copy_labels)

    def __len__(self) -> int:
        return len(self.seq)

    @property
    def expected_length(self) -> int:
        return self.m * comb(self.n - 1, 2)

    def steps(self):
        """Directed traversals (seq[p], seq[p+1]) including the wrap-around."""
        s = self.seq
        k = len(s)
        for p in range(k):
            yield s[p], s[(p + 1) % k]

    def rotated(self, offset: int) -> "Circuit":
        """Same cyclic trail written from a different starting point."""
        k = len(self.seq)
        offset %= k or 1
        seq = self.seq[offset:] + self.seq[:offset]
        labels = self.copy_labels
        if labels is not None:
            labels = labels[offset:] + labels[:offset]
        return Circuit(self.excluded, self.n, self.m, seq, labels)

    def reversed_(self) -> "Circuit":
        seq = self.seq[::-1]
        labels = self.copy_labels
        if labels is not None:
            # Position p of the reversed trail covers the old position -2-p.
            labels = labels[-2::-1] + labels[-1:]
        return Circuit(self.excluded, self.n, self.m, seq, labels)

    def canonical_seq(self) -> tuple[int, ...]:
        """Lexicographically least writing over all rotations of seq and its reverse.

        The lesser of the `least_rotation` of seq and of its reverse.
        """
        return min(least_written(self.seq), least_written(self.seq[::-1]))

    def cyclically_equal(self, other: "Circuit") -> bool:
        """Equality up to rotation only (reversal is a distinct trail)."""
        return len(self.seq) == len(other.seq) and (
            least_written(self.seq) == least_written(other.seq)
        )

    def equivalent(self, other: "Circuit") -> bool:
        """Equality up to rotation and reversal."""
        return self.canonical_seq() == other.canonical_seq()


class EmbeddingSet(Value):
    """Circuits T_1..T_n, T_i excluding i, pairwise compatible.

    `strong` records whether all pairs are strongly compatible, copies
    included (which is what the orientable constructions produce); then the
    embedding is orientable, for every m.  `is_embedding_set` checks it.
    Immutable; equal and of equal hash when all four fields are.
    """

    _fields = ("n", "m", "circuits", "strong")

    def __init__(self, n: int, m: int, circuits: tuple[Circuit, ...], strong: bool):
        self.__dict__.update(n=n, m=m, circuits=circuits, strong=strong)

    def circuit(self, i: int) -> Circuit:
        return self.circuits[i - 1]


class ValidationReport(Value):
    """Whether a check passed, and its failure messages, first first.
    Mutable and unhashable; equal when both fields are."""

    _fields = ("ok", "failures")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, ok: bool, failures: list[str]):
        self.ok = ok
        self.failures = failures

    def __bool__(self) -> bool:
        return self.ok

    def first(self) -> str:
        return self.failures[0] if self.failures else ""


def _unusable_labels(c: Circuit) -> str:
    """Why the copy labels of a circuit cannot give each of its steps one of
    the copies 0..m-1: missing, not one per step, not ints or out of range;
    "" when they can."""
    seq, labels, m = c.seq, c.copy_labels, c.m
    if labels is None:
        return f"no copy labels, which m={m} requires"
    if len(labels) != len(seq):
        return f"{len(labels)} copy labels for {len(seq)} edges"
    if not all(map(isinstance, labels, repeat(int))):
        return f"copy label {_not_int(labels)!r} is not an integer"
    if labels and (min(labels) < 0 or max(labels) >= m):
        return f"copy label {next(k for k in labels if not 0 <= k < m)} outside 0..{m - 1}"
    return ""


def _label_failure(c: Circuit) -> str:
    """Why the copy labels of a circuit that traverses each of its pairs m
    times do not give the m traversals of each pair the copies 0..m-1; ""
    when they do."""
    if failure := _unusable_labels(c):
        return failure
    seq, taken = c.seq, set()
    for u, v, copy in zip(seq, seq[1:] + seq[:1], c.copy_labels):
        key = (u, v, copy) if u < v else (v, u, copy)
        if key in taken:
            return f"pair {{{key[0]},{key[1]}}} takes copy {copy} twice"
        taken.add(key)
    return ""


def _not_int(values) -> object:
    """The first of values that is not an int."""
    return next(v for v in values if not isinstance(v, int))


def validate_eulerian(c: Circuit) -> ValidationReport:
    """Check the Eulerian-multiset invariant, reporting the first violation.

    The tests run in order: length, vertices and immediate repetitions as
    scans in C, pair counts in one Counter and, for m > 1 only, the copy
    labels in one pass.  A message is worked out only for a test that fails.
    A vertex or copy label that is not an int is named, and ends the check.
    Raises InvalidParameter for a multiplicity below 1.
    """
    failures: list[str] = []
    seq, n, m = c.seq, c.n, c.m
    if m < 1:
        raise InvalidParameter(f"multiplicity m must be >= 1, got {m}")
    nxt = seq[1:] + seq[:1]
    if len(seq) != c.expected_length:
        failures.append(
            f"length {len(seq)} != expected {c.expected_length} "
            f"(m*C(n-1,2) with n={n}, m={m})"
        )
    if not all(map(isinstance, seq, repeat(int))):
        failures.append(f"vertex {_not_int(seq)!r} is not an integer")
        return ValidationReport(False, failures)
    if seq and (c.excluded in seq or min(seq) < 1 or max(seq) > n):
        v = next(v for v in seq if v == c.excluded or not 1 <= v <= n)
        failures.append(
            f"excluded vertex {v} occurs in the sequence"
            if v == c.excluded
            else f"vertex {v} outside 1..{n}"
        )
    if any(map(eq, seq, nxt)):
        repeated = next(u for u, v in zip(seq, nxt) if u == v)
        failures.append(f"immediate repetition at vertex {repeated}")
    if failures:
        return ValidationReport(False, failures)
    pairs = [(u, v) if u < v else (v, u) for u, v in zip(seq, nxt)]
    counts = Counter(pairs)
    ground = [v for v in range(1, n + 1) if v != c.excluded]
    if max(counts.values(), default=0) > m:
        # Name the pair whose count first exceeds m in scan order.
        running = Counter()
        for pair in pairs:
            running[pair] += 1
            if running[pair] > m:
                failures.append(f"pair {{{pair[0]},{pair[1]}}} count {running[pair]} expected {m}")
                break
    elif len(counts) != comb(len(ground), 2) or min(counts.values(), default=m) < m:
        failures.append(next(
            f"pair {{{u},{v}}} count {counts.get((u, v), 0)} expected {m}"
            for i, u in enumerate(ground)
            for v in ground[i + 1:]
            if counts.get((u, v), 0) != m
        ))
    elif m > 1 and (failure := _label_failure(c)):
        failures.append(failure)
    return ValidationReport(not failures, failures)


def transition_positions(seq: tuple[int, ...], j: int) -> list[tuple[int, int, int]]:
    """(prev, next, p) at every position p of j in the cyclic seq, in scan order."""
    k, p, out = len(seq), -1, []
    for _ in range(seq.count(j)):
        p = seq.index(j, p + 1)
        out.append((seq[p - 1], seq[(p + 1) % k], p))
    return out


def transitions_through(c: Circuit, j: int) -> list[Transition]:
    """All transitions (prev, j, next) around occurrences of j, in scan order."""
    if j == c.excluded:
        raise VertexAbsent(f"vertex {j} is the excluded vertex of this circuit")
    out = [Transition(a, j, b) for a, b, _ in transition_positions(c.seq, j)]
    if not out:
        raise VertexAbsent(f"vertex {j} does not occur in the circuit")
    return out


def two_circuit_failures(t_i: Circuit, t_j: Circuit) -> tuple[str, str]:
    """`_pair_failures` of T_i and T_j, refusing circuits that cannot pair."""
    if t_i.n != t_j.n or t_i.m != t_j.m:
        raise MismatchedAmbient(
            f"(n={t_i.n}, m={t_i.m}) vs (n={t_j.n}, m={t_j.m})"
        )
    i, j = t_i.excluded, t_j.excluded
    if i == j:
        raise InvalidParameter("compatibility is defined for circuits excluding distinct vertices")
    passes = []
    for c, v in ((t_i, j), (t_j, i)):
        if v not in c.seq:
            raise VertexAbsent(f"vertex {v} does not occur in the circuit")
        tails, heads = _step_ends(c)
        passes.append([(tails[p - 1], heads[p]) for _, _, p in transition_positions(c.seq, v)])
    return _pair_failures(i, j, t_i.m, *passes)


def is_compatible(t_i: Circuit, t_j: Circuit) -> bool:
    """Every pass of T_i through j is matched by a pass of T_j through i with
    the same two ends, copies included, in either order, with multiplicity.
    Raises InvalidParameter for an m > 1 circuit without one copy label in
    0..m-1 per step."""
    return not two_circuit_failures(t_i, t_j)[0]


def is_strongly_compatible(t_i: Circuit, t_j: Circuit) -> bool:
    """Every pass a -> j -> b of T_i is matched by the reversed pass b -> i
    -> a of T_j, copies included, with multiplicity.  Raises
    InvalidParameter as `is_compatible` does."""
    return not two_circuit_failures(t_i, t_j)[1]


def circuit_failures(s: EmbeddingSet) -> list[str]:
    """Circuits out of place, of another ambient, or not Eulerian (the last
    read "circuit i: <first violation>")."""
    if len(s.circuits) != s.n:
        return [f"{len(s.circuits)} circuits for order {s.n}"]
    failures: list[str] = []
    for i in range(1, s.n + 1):
        c = s.circuit(i)
        if c.excluded != i:
            failures.append(f"circuit at index {i} excludes {c.excluded}")
        elif c.n != s.n or c.m != s.m:
            failures.append(f"circuit {i} has ambient (n={c.n}, m={c.m})")
        else:
            rep = validate_eulerian(c)
            if not rep:
                failures.append(f"circuit {i}: {rep.first()}")
    return failures


def _step_ends(c: Circuit) -> tuple[Sequence[int], Sequence[int]]:
    """The ends of the steps of c, indexed by step: step p, u -> v with copy
    k, has the tail end m*u + k and the head end m*v + k, which are u and v
    for m = 1.  The pass of c through seq[p] is (tails[p-1], heads[p]).

    Raises InvalidParameter when m > 1 and the copy labels are not one per
    step in 0..m-1 (so that the ends of distinct copies differ).
    """
    seq, m, labels = c.seq, c.m, c.copy_labels
    tails, heads = seq, seq[1:] + seq[:1]
    if m == 1:
        return tails, heads
    if failure := _unusable_labels(c):
        raise InvalidParameter(f"circuit {c.excluded}: {failure}")
    tails = list(map(add, map(mul, tails, repeat(m)), labels))
    heads = list(map(add, map(mul, heads, repeat(m)), labels))
    return tails, heads


def _pair_failures(i: int, j: int, m: int, ours, theirs) -> tuple[str, str]:
    """Failures of T_i and T_j as not compatible and as not strongly
    compatible ("" for none), from the passes of T_i through j and of T_j
    through i, each in scan order, as pairs of ends (`_step_ends`).

    Strong: the passes agree as multisets once those of T_j are reversed;
    the failure names, as the transition of its vertices, T_i's first pass
    whose count differs from that of its reverse in T_j.  Compatible: they
    agree as multisets of unordered pairs.  A pair that is not compatible
    fails both tests with one message.
    """
    back = [(b, a) for a, b in theirs]
    if sorted(ours) == sorted(back):
        return "", ""
    if sorted(map(sorted, ours)) != sorted(map(sorted, theirs)):
        failure = f"pair ({i},{j}) not compatible"
        return failure, failure
    # Compatible, so both lists are as long and some pass of T_i differs.
    counts, back_counts = Counter(ours), Counter(back)
    a, b = next(p for p in ours if counts[p] != back_counts[p])
    return "", f"pair ({i},{j}) not strongly compatible at transition ({a // m},{j},{b // m})"


def is_embedding_set(s: EmbeddingSet, require_strong: bool | None = None) -> ValidationReport:
    """Validate every circuit Eulerian and every pair (strongly) compatible.

    A circuit fails as in `circuit_failures`, copy labels included.  The
    report names the lexicographically first failing pair that the faces and
    signs of the family's scheme find (`verify_family`), and for a pair that
    is compatible but not strongly so, the transition of a pass of T_i whose
    reverse, copies included, T_j lacks.  `require_strong=None` uses the set's own flag.
    """
    from .scheme import family_failure

    if require_strong is None:
        require_strong = s.strong
    return family_failure(s, require_strong)


def relabel(s: EmbeddingSet, perm: dict[int, int]) -> EmbeddingSet:
    """Apply a permutation of the vertex labels 1..n to a whole family.

    The circuit excluding i becomes the circuit excluding perm[i], with its
    sequence mapped elementwise.  Copy labels ride along unchanged.  Raises
    InvalidParameter unless perm maps 1..n onto 1..n.
    """
    vertices = set(range(1, s.n + 1))
    if perm.keys() != vertices or set(perm.values()) != vertices:
        raise InvalidParameter(f"relabel needs a permutation of 1..{s.n}, got {perm!r}")
    circuits: list[Circuit | None] = [None] * s.n
    for c in s.circuits:
        new_excl = perm[c.excluded]
        circuits[new_excl - 1] = Circuit(
            new_excl,
            c.n,
            c.m,
            tuple(perm[v] for v in c.seq),
            c.copy_labels,
        )
    return EmbeddingSet(s.n, s.m, tuple(circuits), s.strong)


def canonical_set_key(s: EmbeddingSet) -> tuple[tuple[int, ...], ...]:
    """Rotation/reversal-invariant key of the circuits' vertex sequences.
    It leaves copy labels out: for m > 1, families with one key may differ
    in their labels, and then one may be compatible and the other not."""
    return tuple(c.canonical_seq() for c in s.circuits)
