"""Constructions of minimum-genus circuit families for even order.

The orientable family grows two vertices at a time.  A pairing names the
old vertices 1..n afresh; per odd name i a transition (a, i+1, b) of T_i is
broken, a fixed zigzag trail through the two new vertices is inserted there
(and symmetrically in T_{i+1}), and two explicit circuits for the new
vertices are appended.  The step works in the caller's labels: only the
trails and the apex circuits, fixed for (i, n), are mapped back from the
fresh names, and each old circuit is spliced once.  The non-orientable
variant runs the same induction from a non-strong order-6 base, and the
multi-edge variant splices a whole single-multiplicity family into the
current one at a shared transition, once per extra copy.  Both find the
transitions to break, and where they sit, with `circuits.transition_positions`.

All builders are deterministic for fixed (parameters, choices, seed).
"""

from functools import cache
from importlib import resources
from random import Random
from typing import Sequence

from .circuits import Circuit, EmbeddingSet, transition_positions
from .exceptions import (
    InvalidParameter,
    NoCommonTransition,
    OddOrder,
    UnsupportedCase,
    Value,
)
from .fileio import parse_set
from .levi import require_ints

_FIXTURES = {
    "planar_4": "planar_4.kn3set",
    "strong_6": "strong_6.kn3set",
    "nonorientable_6": "nonorientable_6.kn3set",
    "klein_4x2": "klein_4x2.kn3set",
}

_BASE_KINDS = {
    "orientable_4": "planar_4",
    "nonorientable_6": "nonorientable_6",
    "multi_nonorientable_4": "klein_4x2",
}


@cache
def fixture_set(name: str) -> EmbeddingSet:
    """One of the bundled reference families, parsed from package data."""
    if name not in _FIXTURES:
        raise InvalidParameter(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    text = resources.files("kn3genus.data").joinpath(_FIXTURES[name]).read_text(encoding="utf-8")
    return parse_set(text)


def base_set(kind: str) -> EmbeddingSet:
    """Base families the inductions start from.

    `orientable_4` is the planar order-4 family (strong), `nonorientable_6`
    the non-strong order-6 family, `multi_nonorientable_4` the doubled
    order-4 family on the Klein bottle.
    """
    if kind not in _BASE_KINDS:
        raise InvalidParameter(f"unknown base kind {kind!r}; have {sorted(_BASE_KINDS)}")
    return fixture_set(_BASE_KINDS[kind])


class TransitionChoice(Value):
    """Free choices of one induction step, order n -> n+2.

    `pairing` lists ordered pairs covering 1..n; the first element of each
    pair takes the odd role (so swapping a pair's order realizes the
    exchange of the two roles).  `transition_index` picks, per odd relabeled
    vertex 1, 3, ..., n-1, which admissible transition is broken.
    `apex_swap` exchanges the two new vertices.  Immutable; equal when all
    three fields are, and hashable when they are.
    """

    _fields = ("pairing", "transition_index", "apex_swap")

    def __init__(
        self,
        pairing: tuple[tuple[int, int], ...] | None = None,
        transition_index: dict[int, int] | None = None,
        apex_swap: bool = False,
    ):
        self.__dict__.update(
            pairing=pairing, transition_index=transition_index, apex_swap=apex_swap
        )


class InsertionTrail(Value):
    """Zigzag trail over the two new vertices, spliced into one old circuit.
    Immutable; equal and of equal hash when all three fields are."""

    _fields = ("vertex", "order", "tokens")

    def __init__(self, vertex: int, order: int, tokens: tuple[int, ...]):
        self.__dict__.update(vertex=vertex, order=order, tokens=tokens)


def build_sigma(i: int, n: int) -> tuple[int, ...]:
    """Ground sequence of the insertion trails for the odd vertex i.

    Take 1..n, drop i and i+1, and swap the value pairs (1,2), (3,4), ...,
    (i-2, i-1).
    """
    if n % 2 != 0:
        raise InvalidParameter(f"order must be even, got n={n}")
    if i % 2 == 0 or not 1 <= i <= n - 1:
        raise InvalidParameter(f"sigma is defined for odd 1 <= i <= n-1, got i={i}")
    vals = [v for v in range(1, n + 1) if v not in (i, i + 1)]
    for j in range(1, (i - 1) // 2 + 1):
        a, b = 2 * j - 2, 2 * j - 1
        vals[a], vals[b] = vals[b], vals[a]
    return tuple(vals)


@cache
def build_insertion(i: int, n: int) -> InsertionTrail:
    """Trail inserted into T_i during the step n -> n+2.

    With x = n+1, y = n+2: for odd i the trail starts at x, alternates the
    ground sequence with y, x, y, ..., and ends x, y, i+1; for even i the
    roles of x and y swap and it ends y, x, i-1.  It covers every edge from
    {x, y} to the old vertices except those into i, plus the edge xy.
    """
    if not 1 <= i <= n:
        raise InvalidParameter(f"need 1 <= i <= n, got i={i}")
    x, y = n + 1, n + 2
    odd = i % 2 == 1
    sigma = build_sigma(i if odd else i - 1, n)
    first, second = (x, y) if odd else (y, x)
    tokens = [first]
    for j, s in enumerate(sigma, start=1):
        tokens.append(s)
        tokens.append(second if j % 2 == 1 else first)
    tokens.append(second)
    tokens.append(i + 1 if odd else i - 1)
    return InsertionTrail(vertex=i, order=n, tokens=tuple(tokens))


@cache
def build_apex_circuits(n: int) -> tuple[Circuit, Circuit]:
    """Circuits for the two new vertices x = n+1 and y = n+2.

    Both are concatenations of n/2 subtrails whose transitions are exactly
    the ones forced by strong compatibility with the expanded old circuits.
    """
    if n % 2 != 0 or n < 4:
        raise InvalidParameter(f"order must be even and >= 4, got n={n}")
    x, y = n + 1, n + 2

    a_parts = [[y, 1, n, 2, n - 1, n]]
    for i in range(3, n - 2, 2):
        part = [y, i, n, i + 1]
        for j in range(1, (i - 1) // 2 + 1):
            part += [n + 1 - 2 * j, i - 2 * j, n - 2 * j, i + 1 - 2 * j]
        part += [n - i, n + 1 - i]
        a_parts.append(part)
    a_parts.append([y] + [n + 1 - 2 * j for j in range(1, n // 2 + 1)] + [2])
    t_x = Circuit(x, n + 2, 1, tuple(v for part in a_parts for v in part))

    b_parts = [[x, 2, n, n - 1]]
    for i in range(3, n - 2, 2):
        part = [x, i + 1, n]
        for j in range(1, (i - 1) // 2 + 1):
            part += [i - 2 * j, n + 1 - 2 * j, i + 1 - 2 * j, n - 2 * j]
        part += [n - i]
        b_parts.append(part)
    last = [x, n, n - 3]
    for j in range(1, (n - 4) // 2 + 1):
        last += [n + 1 - 2 * j, n - 2 * j, n - 2 * j - 3]
    last += [3, 2, 1]
    b_parts.append(last)
    t_y = Circuit(y, n + 2, 1, tuple(v for part in b_parts for v in part))
    return t_x, t_y


def _sample_pairing(n: int, rng: Random) -> tuple[tuple[int, int], ...]:
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return tuple((verts[2 * t], verts[2 * t + 1]) for t in range(n // 2))


def _expand(s: EmbeddingSet, choice: TransitionChoice | None, rng: Random | None) -> EmbeddingSet:
    """One induction step: a family of order n becomes one of order n+2.

    The pair at slot t of the pairing takes the names 2t+1, 2t+2 of the
    construction.  The rng is read in a fixed order: the pairing, one pick
    per pair, then the apex swap.
    """
    n = s.n
    pairing = choice.pairing if choice and choice.pairing else None
    if pairing is None:
        pairing = (
            _sample_pairing(n, rng)
            if rng is not None
            else tuple((i, i + 1) for i in range(1, n, 2))
        )
    flat = [v for pair in pairing for v in pair]
    if sorted(flat) != list(range(1, n + 1)):
        raise InvalidParameter(f"pairing {pairing} does not cover 1..{n}")

    seqs = [c.seq for c in s.circuits]
    indices = choice.transition_index if choice and choice.transition_index else {}
    picks = []
    for i, (u, w) in zip(range(1, n, 2), pairing):
        # (a, i+1, b) in T_i is admissible iff T_{i+1} passes b, i, a.
        cands = _admissible(seqs[u - 1], seqs[w - 1], u, w)
        if not cands:
            # Only weak-form matches: reverse the even circuit (an
            # equivalence-preserving move) to expose the strong form.
            seqs[w - 1] = seqs[w - 1][::-1]
            cands = _admissible(seqs[u - 1], seqs[w - 1], u, w)
            if not cands:
                raise NoCommonTransition(
                    f"pair ({i},{i + 1}) admits no transition to break"
                )
        if i in indices:
            idx = indices[i]
        elif rng is not None:
            idx = rng.randrange(len(cands))
        else:
            idx = 0
        picks.append(cands[idx % len(cands)])

    apex_swap = choice.apex_swap if choice else (rng.random() < 0.5 if rng else False)
    # inverse[name] is the caller's label of a name of the construction.
    inverse = [0, *flat, n + 1, n + 2]
    if apex_swap:
        inverse[n + 1], inverse[n + 2] = n + 2, n + 1
    to_caller = inverse.__getitem__
    for i, (u, w), (p, q) in zip(range(1, n, 2), pairing, picks):
        for v, pos, j in ((u, p, i), (w, q, i + 1)):
            seq = seqs[v - 1]
            trail = tuple(map(to_caller, build_insertion(j, n).tokens))
            seqs[v - 1] = seq[: pos + 1] + trail + seq[pos + 1 :]
    apex = build_apex_circuits(n)
    seqs += [tuple(map(to_caller, c.seq)) for c in (apex[::-1] if apex_swap else apex)]
    circuits = tuple(Circuit(v, n + 2, 1, seq) for v, seq in enumerate(seqs, 1))
    return EmbeddingSet(n + 2, s.m, circuits, strong=s.strong)


def _admissible(
    s_u: tuple[int, ...], s_w: tuple[int, ...], u: int, w: int
) -> list[tuple[int, int]]:
    """Positions (p, q) of each transition (a, w, b) at p in T_u that T_w
    passes as (b, u, a) at q, in the order of p."""
    mates = {(b, a): q for a, b, q in transition_positions(s_w, u)}
    return [(p, mates[a, b]) for a, b, p in transition_positions(s_u, w) if (a, b) in mates]


def check_order(n: int, orientable: bool = True) -> None:
    """Refuse an order no single-multiplicity family is built for: TypeError
    when n is not an int, OddOrder when it is odd, InvalidParameter below 4,
    and UnsupportedCase for the planar order 4 when `orientable` is false."""
    require_ints(n)
    if n % 2 != 0:
        raise OddOrder(f"only even orders are supported, got n={n}")
    if n < 4:
        raise InvalidParameter(f"order must be >= 4, got n={n}")
    if not orientable and n < 6:
        raise UnsupportedCase(
            "the order-4 family is planar; no non-orientable minimum exists"
        )


def build_even(
    n: int,
    orientable: bool = True,
    choices: Sequence[TransitionChoice] | None = None,
    seed: int | None = None,
) -> EmbeddingSet:
    """Minimum-genus family of order n for multiplicity 1.

    Grows the base family (planar order 4, or the non-strong order 6 for
    the non-orientable variant) two vertices at a time.  `choices` fixes
    the free choices per step; `seed` randomizes whatever is left free.
    """
    check_order(n, orientable)
    current = base_set("orientable_4" if orientable else "nonorientable_6")
    rng = Random(seed) if seed is not None else None
    step = 0
    while current.n < n:
        choice = None
        if choices is not None and step < len(choices):
            choice = choices[step]
        current = _expand(current, choice, rng)
        step += 1
    return current


def _splice_layer(
    current: EmbeddingSet, layer: EmbeddingSet, rng: Random | None
) -> EmbeddingSet:
    """Splice a single-multiplicity family into `current`, raising m by one.

    Per odd i, a transition (a, i+1, b) present in both versions of T_i is
    broken in the current circuit and the layer circuit is inserted there,
    written from b around to a, i+1; symmetrically for T_{i+1} at the
    matching transition through i.  The matching occurrence is chosen with
    flank copy-labels mirroring the broken one so that the parallel-copy
    grouping stays face-consistent.
    """
    n, m = current.n, current.m
    seqs = [c.seq for c in current.circuits]
    labels = [c.copy_labels for c in current.circuits]
    for i in range(1, n, 2):
        f_i, f_j = layer.circuit(i).seq, layer.circuit(i + 1).seq
        through_i = transition_positions(seqs[i - 1], i + 1)
        for flip_i in (False, True):
            if flip_i:
                f_i = f_i[::-1]
            # (a, i+1, b) in T_i is shared iff the layer's T_i passes a, i+1, b.
            passes = {(a, b): r for a, b, r in transition_positions(f_i, i + 1)}
            shared = [(a, b) for a, b, _ in through_i if (a, b) in passes]
            if shared or current.strong:
                break
        if not shared:
            raise NoCommonTransition(
                f"no transition through {i + 1} shared by both versions of T_{i}"
            )
        a, b = shared[rng.randrange(len(shared))] if rng is not None else shared[0]
        p = next(p for x, y, p in through_i if (x, y) == (a, b))
        before, after = labels[i - 1][p - 1], labels[i - 1][p]

        # Matching transition through i in the current T_{i+1}: strong form
        # (b, i, a) wants flanks (after, before); the weak form (a, i, b)
        # wants them the other way around.
        labels_j, through_j = labels[i], transition_positions(seqs[i], i)
        for form, want in (((b, a), (after, before)), ((a, b), (before, after))):
            q = next(
                (q for x, y, q in through_j
                 if (x, y) == form and (labels_j[q - 1], labels_j[q]) == want),
                None,
            )
            if q is not None:
                break
        else:
            raise NoCommonTransition(
                f"pair ({i},{i + 1}): no label-matched transition through {i}"
            )
        for flip_j in (False, True):
            if flip_j:
                f_j = f_j[::-1]
            at_j = {(x, y): r for x, y, r in transition_positions(f_j, i)}.get(form)
            if at_j is not None:
                break
        else:
            raise NoCommonTransition(
                f"layer circuit {i + 1} lacks the transition "
                f"({form[0]},{i},{form[1]}) in either direction"
            )

        # Each layer circuit goes in written from just after its own copy
        # of the broken transition, on edges of the new copy m.
        for v, pos, fresh, at in ((i, p, f_i, passes[a, b]), (i + 1, q, f_j, at_j)):
            seq, old = seqs[v - 1], labels[v - 1]
            fresh = fresh[at + 1 :] + fresh[: at + 1]
            seqs[v - 1] = seq[: pos + 1] + fresh + seq[pos + 1 :]
            labels[v - 1] = old[:pos] + (m,) * len(fresh) + old[pos:]
    circuits = tuple(
        Circuit(v, n, m + 1, seq, lab) for v, (seq, lab) in enumerate(zip(seqs, labels), 1)
    )
    return EmbeddingSet(n, m + 1, circuits, strong=current.strong)


def build_multi(
    n: int, m: int, orientable: bool = True, seed: int | None = None
) -> EmbeddingSet:
    """Minimum-genus family of the m-fold hypergraph of even order n.

    Splices m-1 copies of a fixed single-multiplicity family into the base.
    The non-orientable order-4 case starts from the doubled Klein-bottle
    base (so needs m >= 2) and uses planar layers on top.
    """
    require_ints(m)
    # The doubled Klein-bottle base makes order 4 non-orientable for m >= 2.
    check_order(n, orientable or m > 1)
    if m < 1:
        raise InvalidParameter(f"multiplicity must be >= 1, got m={m}")
    rng = Random(seed) if seed is not None else None
    if orientable or n > 4:
        if m == 1:
            return build_even(n, orientable, seed=seed)
        layer = build_even(n, orientable, seed=seed)
        # The one copy of a single-multiplicity family is copy 0.
        current = EmbeddingSet(
            n,
            1,
            tuple(Circuit(c.excluded, n, 1, c.seq, (0,) * len(c.seq)) for c in layer.circuits),
            layer.strong,
        )
    else:
        layer = build_even(4, orientable=True, seed=seed)
        current = base_set("multi_nonorientable_4")
    while current.m < m:
        current = _splice_layer(current, layer, rng)
    return current
