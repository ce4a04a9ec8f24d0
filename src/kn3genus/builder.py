"""Constructions of minimum-genus circuit families for even order.

The orientable family grows two vertices at a time: per odd vertex i a
transition (a, i+1, b) of T_i is broken, a fixed zigzag trail through the
two new vertices is inserted there (and symmetrically in T_{i+1}), and two
explicit circuits for the new vertices are appended.  The non-orientable
variant runs the same induction from a non-strong order-6 base, and the
multi-edge variant splices a whole single-multiplicity family into the
current one at a shared transition, once per extra copy.

All builders are deterministic for fixed (parameters, choices, seed).
"""

from dataclasses import dataclass
from functools import cache
from importlib import resources
from random import Random
from typing import Sequence

from .circuits import (
    Circuit,
    EmbeddingSet,
    Transition,
    relabel,
    transitions_through,
)
from .exceptions import NoCommonTransition, OddOrder, UnsupportedCase
from .fileio import parse_set

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
        raise KeyError(f"unknown fixture {name!r}; have {sorted(_FIXTURES)}")
    text = resources.files("kn3genus.data").joinpath(_FIXTURES[name]).read_text()
    return parse_set(text)


def base_set(kind: str) -> EmbeddingSet:
    """Base families the inductions start from.

    `orientable_4` is the planar order-4 family (strong), `nonorientable_6`
    the non-strong order-6 family, `multi_nonorientable_4` the doubled
    order-4 family on the Klein bottle.
    """
    if kind not in _BASE_KINDS:
        raise KeyError(f"unknown base kind {kind!r}; have {sorted(_BASE_KINDS)}")
    return fixture_set(_BASE_KINDS[kind])


@dataclass(frozen=True)
class TransitionChoice:
    """Free choices of one induction step, order n -> n+2.

    `pairing` lists ordered pairs covering 1..n; the first element of each
    pair takes the odd role (so swapping a pair's order realizes the
    exchange of the two roles).  `transition_index` picks, per odd relabeled
    vertex 1, 3, ..., n-1, which admissible transition is broken.
    `apex_swap` exchanges the two new vertices.
    """

    pairing: tuple[tuple[int, int], ...] | None = None
    transition_index: dict[int, int] | None = None
    apex_swap: bool = False


@dataclass(frozen=True)
class InsertionTrail:
    """Zigzag trail over the two new vertices, spliced into one old circuit."""

    vertex: int
    order: int
    tokens: tuple[int, ...]


def build_sigma(i: int, n: int) -> tuple[int, ...]:
    """Ground sequence of the insertion trails for the odd vertex i.

    Take 1..n, drop i and i+1, and swap the value pairs (1,2), (3,4), ...,
    (i-2, i-1).
    """
    if n % 2 != 0:
        raise ValueError(f"order must be even, got n={n}")
    if i % 2 == 0 or not 1 <= i <= n - 1:
        raise ValueError(f"sigma is defined for odd 1 <= i <= n-1, got i={i}")
    vals = [v for v in range(1, n + 1) if v not in (i, i + 1)]
    for j in range(1, (i - 1) // 2 + 1):
        a, b = 2 * j - 2, 2 * j - 1
        vals[a], vals[b] = vals[b], vals[a]
    return tuple(vals)


def build_insertion(i: int, n: int) -> InsertionTrail:
    """Trail inserted into T_i during the step n -> n+2.

    With x = n+1, y = n+2: for odd i the trail starts at x, alternates the
    ground sequence with y, x, y, ..., and ends x, y, i+1; for even i the
    roles of x and y swap and it ends y, x, i-1.  It covers every edge from
    {x, y} to the old vertices except those into i, plus the edge xy.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}")
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


def build_apex_circuits(n: int) -> tuple[Circuit, Circuit]:
    """Circuits for the two new vertices x = n+1 and y = n+2.

    Both are concatenations of n/2 subtrails whose transitions are exactly
    the ones forced by strong compatibility with the expanded old circuits.
    """
    if n % 2 != 0 or n < 4:
        raise ValueError(f"order must be even and >= 4, got n={n}")
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


def _splice_tokens(c: Circuit, position: int, tokens: tuple[int, ...], new_n: int) -> Circuit:
    seq = c.seq[: position + 1] + tokens + c.seq[position + 1 :]
    return Circuit(c.excluded, new_n, c.m, seq)


def _sample_pairing(n: int, rng: Random) -> tuple[tuple[int, int], ...]:
    verts = list(range(1, n + 1))
    rng.shuffle(verts)
    return tuple((verts[2 * t], verts[2 * t + 1]) for t in range(n // 2))


def _expand(s: EmbeddingSet, choice: TransitionChoice | None, rng: Random | None) -> EmbeddingSet:
    """One induction step: a family of order n becomes one of order n+2."""
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
        raise ValueError(f"pairing {pairing} does not cover 1..{n}")
    phi = {}
    for slot, (first, second) in enumerate(pairing):
        phi[first], phi[second] = 2 * slot + 1, 2 * slot + 2
    work = relabel(s, phi)

    circuits = list(work.circuits)
    indices = choice.transition_index if choice and choice.transition_index else {}
    for i in range(1, n, 2):
        c_i, c_j = circuits[i - 1], circuits[i]

        def candidates():
            # (a, i+1, b) in T_i is admissible iff T_{i+1} passes b, i, a.
            mates = {(t.b, t.a) for t in transitions_through(c_j, i)}
            return [t for t in transitions_through(c_i, i + 1) if (t.a, t.b) in mates]

        cands = candidates()
        if not cands:
            # Only weak-form matches: reverse the even circuit (an
            # equivalence-preserving move) to expose the strong form.
            c_j = c_j.reversed_()
            circuits[i] = c_j
            cands = candidates()
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
        t = cands[idx % len(cands)]

        p = _occurrences(c_i, t)[0]
        circuits[i - 1] = _splice_tokens(c_i, p, build_insertion(i, n).tokens, n + 2)
        q = _occurrences(c_j, Transition(t.b, i, t.a))[0]
        circuits[i] = _splice_tokens(c_j, q, build_insertion(i + 1, n).tokens, n + 2)

    t_x, t_y = build_apex_circuits(n)
    grown = EmbeddingSet(n + 2, s.m, tuple(circuits) + (t_x, t_y), strong=s.strong)

    apex_swap = choice.apex_swap if choice else (rng.random() < 0.5 if rng else False)
    inverse = {phi[v]: v for v in phi}
    inverse[n + 1] = n + 2 if apex_swap else n + 1
    inverse[n + 2] = n + 1 if apex_swap else n + 2
    return relabel(grown, inverse)


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
    if n % 2 != 0:
        raise OddOrder(f"only even orders are constructed, got n={n}")
    if n < 4:
        raise ValueError(f"order must be >= 4, got n={n}")
    if not orientable and n < 6:
        raise UnsupportedCase(
            "the order-4 family is planar; no non-orientable minimum exists"
        )
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


def _occurrences(c: Circuit, t: Transition) -> list[int]:
    """Positions p, in order, where c passes t.a, t.mid, t.b at p-1, p, p+1."""
    s = c.seq
    k = len(s)
    return [
        p
        for p in range(k)
        if s[p] == t.mid and s[p - 1] == t.a and s[(p + 1) % k] == t.b
    ]


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
    new_label = m
    circuits = list(current.circuits)
    for i in range(1, n, 2):
        c_i, c_j = circuits[i - 1], circuits[i]
        f_i, f_j = layer.circuit(i), layer.circuit(i + 1)

        picked = None
        for flip_i in (False, True):
            cand_f_i = f_i.reversed_() if flip_i else f_i
            # (a, i+1, b) in T_i is shared iff the layer's T_i passes a, i+1, b.
            passes = {(t.a, t.b) for t in transitions_through(cand_f_i, i + 1)}
            shared = [t for t in transitions_through(c_i, i + 1) if (t.a, t.b) in passes]
            if shared:
                picked = (cand_f_i, shared)
                break
            if current.strong:
                break
        if picked is None:
            raise NoCommonTransition(
                f"no transition through {i + 1} shared by both versions of T_{i}"
            )
        f_i, shared = picked
        t = shared[rng.randrange(len(shared))] if rng is not None else shared[0]

        p = _occurrences(c_i, t)[0]
        labels_i = c_i.copy_labels
        alpha_after = labels_i[p]
        alpha_before = labels_i[p - 1]

        # Matching transition through i in the current T_{i+1}: strong form
        # (b, i, a) wants flanks (alpha_after, alpha_before); the weak form
        # (a, i, b) wants them the other way around.
        q = form = None
        for mate, want in (
            (Transition(t.b, i, t.a), (alpha_after, alpha_before)),
            (Transition(t.a, i, t.b), (alpha_before, alpha_after)),
        ):
            labels_j = c_j.copy_labels
            for pos in _occurrences(c_j, mate):
                if (labels_j[pos - 1], labels_j[pos]) == want:
                    q, form = pos, mate
                    break
            if q is not None:
                break
        if q is None:
            raise NoCommonTransition(
                f"pair ({i},{i + 1}): no label-matched transition through {i}"
            )
        if not _occurrences(f_j, form):
            f_j = f_j.reversed_()
            if not _occurrences(f_j, form):
                raise NoCommonTransition(
                    f"layer circuit {i + 1} lacks the transition "
                    f"({form.a},{form.mid},{form.b}) in either direction"
                )

        circuits[i - 1] = _insert_layer(c_i, p, f_i, t, new_label)
        circuits[i] = _insert_layer(c_j, q, f_j, form, new_label)

    circuits = [
        Circuit(c.excluded, n, m + 1, c.seq, c.copy_labels) for c in circuits
    ]
    return EmbeddingSet(n, m + 1, tuple(circuits), strong=current.strong)


def _insert_layer(
    c: Circuit, position: int, fresh: Circuit, t: Transition, new_label: int
) -> Circuit:
    r = _occurrences(fresh, t)[0]
    rotated = fresh.rotated((r + 1) % len(fresh.seq))
    seq = c.seq[: position + 1] + rotated.seq + c.seq[position + 1 :]
    old = c.copy_labels
    labels = (
        old[:position]
        + (new_label,) * len(rotated.seq)
        + (old[position],)
        + old[position + 1 :]
    )
    return Circuit(c.excluded, c.n, c.m, seq, labels)


def build_multi(
    n: int, m: int, orientable: bool = True, seed: int | None = None
) -> EmbeddingSet:
    """Minimum-genus family of the m-fold hypergraph of even order n.

    Splices m-1 copies of a fixed single-multiplicity family into the base.
    The non-orientable order-4 case starts from the doubled Klein-bottle
    base (so needs m >= 2) and uses planar layers on top.
    """
    if n % 2 != 0:
        raise OddOrder(f"only even orders are constructed, got n={n}")
    if m < 1:
        raise ValueError(f"multiplicity must be >= 1, got m={m}")
    if not orientable and n == 4 and m == 1:
        raise UnsupportedCase(
            "the order-4 family is planar; no non-orientable minimum exists"
        )
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
