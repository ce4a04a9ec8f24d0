"""Versioned text formats for circuit families, schemes, and census files.

Families: header line, a metadata line, then one `T <i>: ...` line per
circuit.  For multiplicity m > 1 one `L <i>: ...` line per circuit follows,
carrying the parallel-copy label of each traversed edge.  These labels are
data: the writer refuses a family without them and the reader a file
without them, since nothing else tells the parallel copies apart.

Schemes: header line, `rot <vertex>: ...` lines giving each cyclic edge
order, then `sig <x> <y>: +1|-1` lines.  Edge-side vertices are written
`e{i,j,k}` (plus `#c` when m > 1).  Schemes are read and written as Levi
edge ids (`scheme.IdScheme`): `parse_scheme_ids` checks every line against
the Levi graph and `format_scheme_ids` writes the ids back, so reading a
written scheme reproduces it bit-exactly.  Lines may come in any order.
The reader makes two passes: the first classifies the lines and keeps
only the rot heads and where the lines are; once the heads give n and m,
the second turns each line straight into ids, so no line's tokens outlive
it.  Y rotations that all list their triple in sorted order, as the writer
does, are read back as None, the form `scheme.trace_ids` reads by slicing.
`parse_scheme` returns the `EmbeddingScheme` those ids back, whose
rotation and signature are read-only dict views, and `format_scheme`
writes the ids of any scheme (`scheme.scheme_ids` checks a hand-built one
first).  Names are written
and read through one name table per (n, m), built on first use: a token
that is not a canonical name (such as `e{1,2,3}#0` when m = 1) is parsed
on its own, and a bad one is reported with its line.

Census: header line, then per record a `record sha256=<hex>` digest line
followed by the record's family in the format above.
"""

import hashlib
import re
from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import comb

from .circuits import Circuit, EmbeddingSet
from .exceptions import CopyResolutionError, FormatError
from .levi import YVertex, levi_edges
from .scheme import EmbeddingScheme, IdScheme, scheme_ids

SET_HEADER = "# kn3-embedding-set v1"
SCHEME_HEADER = "# kn3-scheme v1"
CENSUS_HEADER = "# kn3-census v1"

_Y_NAME = re.compile(r"^e\{(\d+(?:,\d+)*)\}(?:#(\d+))?$")


def format_set(s: EmbeddingSet) -> str:
    """The family file of a family; for m > 1 every circuit needs copy labels,
    else CopyResolutionError names the first that has none."""
    lines = [SET_HEADER, f"n={s.n} m={s.m} orientable={1 if s.strong else 0}"]
    for c in s.circuits:
        lines.append(f"T {c.excluded}: " + " ".join(str(v) for v in c.seq))
    if s.m > 1:
        for c in s.circuits:
            if c.copy_labels is None:
                raise CopyResolutionError(
                    f"circuit {c.excluded}: no copy labels, which m={s.m} requires"
                )
            lines.append(f"L {c.excluded}: " + " ".join(str(v) for v in c.copy_labels))
    return "\n".join(lines) + "\n"


def _meta_int(fields: dict[str, str], key: str, line: int) -> int:
    if key not in fields:
        raise FormatError(f"metadata line missing '{key}='", line)
    try:
        return int(fields[key])
    except ValueError:
        raise FormatError(f"bad integer for '{key}'", line) from None


def parse_set(text: str) -> EmbeddingSet:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SET_HEADER:
        raise FormatError(
            f"expected header {SET_HEADER!r}", 1 if lines else None
        )
    if len(lines) < 2:
        raise FormatError("missing metadata line", 2)
    fields = {}
    for token in lines[1].split():
        if "=" not in token:
            raise FormatError(f"bad metadata token {token!r}", 2)
        key, _, value = token.partition("=")
        fields[key] = value
    n = _meta_int(fields, "n", 2)
    m = _meta_int(fields, "m", 2)
    orientable = _meta_int(fields, "orientable", 2)
    if n < 4 or m < 1:
        raise FormatError(f"need n >= 4 and m >= 1, got n={n} m={m}", 2)

    seqs: dict[int, tuple[int, ...]] = {}
    labels: dict[int, tuple[int, ...]] = {}
    for lineno, raw in enumerate(lines[2:], start=3):
        line = raw.strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("T", "L"):
            raise FormatError(f"unexpected line {line!r}", lineno)
        head, _, body = rest.partition(":")
        try:
            idx = int(head.strip())
            values = tuple(int(v) for v in body.split())
        except ValueError:
            raise FormatError(f"bad circuit line {line!r}", lineno) from None
        target = seqs if kind == "T" else labels
        if kind == "L" and values and not 0 <= min(values) <= max(values) < m:
            bad = next(v for v in values if not 0 <= v < m)
            raise FormatError(f"L {idx}: copy label {bad} outside 0..{m - 1}", lineno)
        if idx in target:
            raise FormatError(f"duplicate {kind} line for {idx}", lineno)
        target[idx] = values

    if sorted(seqs) != list(range(1, n + 1)):
        raise FormatError(f"expected T lines for 1..{n}, got {sorted(seqs)}")
    if m > 1 and not labels:
        raise FormatError(f"m={m} needs L lines, the copy label of every traversed edge", 2)
    if labels and sorted(labels) != list(range(1, n + 1)):
        raise FormatError("L lines must cover all circuits or none")
    circuits = []
    for i in range(1, n + 1):
        lab = labels.get(i)
        if lab is not None and len(lab) != len(seqs[i]):
            raise FormatError(f"L {i} has {len(lab)} labels for {len(seqs[i])} edges")
        circuits.append(Circuit(i, n, m, seqs[i], lab))
    return EmbeddingSet(n=n, m=m, circuits=tuple(circuits), strong=bool(orientable))


def _y_name(y: YVertex, m: int) -> str:
    triple, c = y
    name = "e{" + ",".join(str(v) for v in triple) + "}"
    return name if m == 1 else f"{name}#{c}"


@dataclass(frozen=True, eq=False)
class _Names:
    """Written names of the Levi vertices of one (n, m).

    `y_names[y]` is the name of the Y vertex at index y, and `index_of` maps
    every written name to its vertex index: x - 1 for the X vertex x and
    n + y for the Y vertex at index y.
    """

    y_names: tuple[str, ...]
    index_of: dict[str, int]


@cache
def _names(n: int, m: int) -> _Names:
    ys = levi_edges(n, m).graph.y_vertices
    y_names = tuple(_y_name(y, m) for y in ys)
    index_of = {str(x): x - 1 for x in range(1, n + 1)}
    index_of.update(zip(y_names, range(n, n + len(ys))))
    return _Names(y_names, index_of)


def _parse_vertex(token: str, m: int, lineno: int):
    match = _Y_NAME.match(token)
    if match:
        triple = tuple(int(v) for v in match.group(1).split(","))
        if len(triple) != 3 or sorted(triple) != list(triple):
            raise FormatError(f"bad triple in {token!r}", lineno)
        copy = int(match.group(2)) if match.group(2) else 0
        return (triple, copy)
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"bad vertex token {token!r}", lineno) from None


def format_scheme_ids(sch: IdScheme) -> str:
    """The scheme file of an id scheme."""
    table = sch.table
    graph, x_end, negative = table.graph, table.x_end, sch.negative
    y_names = _names(graph.n, graph.m).y_names
    lines = [SCHEME_HEADER]
    for x, rot in zip(graph.x_vertices, sch.x_rotations):
        lines.append(f"rot {x}: " + " ".join([y_names[k // 3] for k in rot]))
    for name, rot in zip(y_names, sch.y_lists()):
        lines.append(f"rot {name}: " + " ".join([str(x_end[k]) for k in rot]))
    for k, x in enumerate(x_end):
        lines.append(f"sig {x} {y_names[k // 3]}: {'-1' if negative[k] else '+1'}")
    return "\n".join(lines) + "\n"


def format_scheme(sch: EmbeddingScheme) -> str:
    """The scheme file of a scheme, written from its ids.

    Raises what `scheme_ids` raises for a hand-built scheme that does not
    fit its graph.
    """
    return format_scheme_ids(scheme_ids(sch))


def parse_scheme_ids(text: str) -> IdScheme:
    """The id scheme of a scheme file; raises FormatError for a malformed one.

    Lines may come in any order.  The first pass classifies each line,
    refuses a second rot line for a head or a sig line without exactly two
    names, and keeps only the rot heads with their line indices and a mark
    on every sig line.  Once the heads give n and m and their count fits
    the Levi graph, the second pass reads each rot line, then each sig
    line, straight into ids and signs.  The Y rotations come back as None
    when every one lists its triple in sorted order, as the writer does.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCHEME_HEADER:
        raise FormatError(f"expected header {SCHEME_HEADER!r}", 1 if lines else None)
    rot_at: dict[str, int] = {}
    is_sig = bytearray(len(lines))
    for i in range(1, len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        kind = line[:4]
        if kind == "sig ":
            # The head is all but the first word before the first colon.
            if len(line.partition(":")[0].split()) != 3:
                raise FormatError(f"bad sig line {line!r}", i + 1)
            is_sig[i] = 1
        elif kind == "rot ":
            head = line[4:].partition(":")[0].strip()
            if head in rot_at:
                raise FormatError(f"second rot line for {head!r}", i + 1)
            rot_at[head] = i
        else:
            raise FormatError(f"unexpected line {line!r}", i + 1)

    x_labels = []
    m_mult = 1
    for head, i in rot_at.items():
        if not head.startswith("e"):
            try:
                x_labels.append(int(head))
            except ValueError as exc:
                raise FormatError(f"bad vertex name: {exc}", i + 1) from None
        elif "#" in head and (match := _Y_NAME.match(head)) and match.group(2):
            m_mult = max(m_mult, int(match.group(2)) + 1)
    x_labels.sort()
    n = len(x_labels)
    if x_labels != list(range(1, n + 1)):
        raise FormatError(f"rot lines must cover vertices 1..n, got {x_labels}")
    if n < 4:
        raise FormatError(f"need rot lines for vertices 1..n with n >= 4, got n={n}")
    # Checked before the table is built, whose size the copy indices set.
    if len(rot_at) != n + m_mult * comb(n, 3):
        raise FormatError("rot lines do not match the Levi graph of the inferred (n, m)")
    table = levi_edges(n, m_mult)
    graph, count = table.graph, len(table.x_end)
    index_of = _names(n, m_mult).index_of
    # triples[u] is the triple of the Y vertex with index u, and empty for an
    # X vertex, which meets no other X vertex.
    triples = [()] * n + [y[0] for y in graph.y_vertices]
    labels = [str(x) for x in range(n + 1)]

    # Written names are looked up; any other token is parsed, and may still
    # name a Levi vertex (`e{1,2,3}#0` when m = 1), or none, or be malformed.
    def index(v) -> int | None:
        """The vertex index of a parsed vertex, None if it is not in the graph."""
        if isinstance(v, int):
            return index_of.get(str(v))
        return index_of.get(_y_name(v, m_mult)) if v[1] < m_mult else None

    # Each rotation must list exactly the incident edges of its vertex, once.
    # A line's tokens start after its first colon, which no head holds.
    x_degree = graph.x_degree()
    seen = bytearray(len(triples))
    x_rotations: list = [None] * n  # each filled once: the heads cover 1..n
    y_turned: dict[int, list[int]] = {}  # by Y index, the rotations not in sorted order
    for head, i in rot_at.items():
        lineno = i + 1
        u = index_of.get(head)
        if u is None:
            u = index(_parse_vertex(head, m_mult, lineno))
        if u is None or seen[u]:
            raise FormatError(f"rot line for {head!r}: not a Levi vertex, or given twice", lineno)
        seen[u] = 1
        tokens = lines[i].partition(":")[2].split()
        if u < n:
            x = u + 1
            ws = [index_of.get(t) for t in tokens]
            if None in ws:
                ws = [index(_parse_vertex(t, m_mult, lineno)) for t in tokens]
            at = [3 * (w - n) + triples[w].index(x) for w in ws if w is not None and x in triples[w]]
            if len(at) != len(ws) or len(at) != x_degree or len(set(at)) != x_degree:
                raise FormatError(
                    f"rotation at {x} must list its {x_degree} edges once each", lineno
                )
            x_rotations[u] = at
        else:
            a, b, c = triples[u]
            members = [labels[a], labels[b], labels[c]]
            if tokens == members:  # the order `format_scheme_ids` writes
                continue
            if sorted(tokens) != sorted(members):
                raise FormatError(f"rotation at {head} must list its 3 vertices once each", lineno)
            base = 3 * (u - n)
            y_turned[u - n] = [base + members.index(t) for t in tokens]

    negative = bytearray(count)
    signed = bytearray(count)
    for i in compress(range(len(lines)), is_sig):
        head, _, val = lines[i].partition(":")
        _, x_tok, y_tok = head.split()
        u, w = index_of.get(x_tok), index_of.get(y_tok)
        if u is None or w is None or u >= n or w < n:
            x, y = _parse_vertex(x_tok, m_mult, i + 1), _parse_vertex(y_tok, m_mult, i + 1)
            if not isinstance(x, int) or isinstance(y, int):
                raise FormatError("sig line must name a vertex then an edge name", i + 1)
            u, w = index(x), index(y)
        if u is None or w is None or u + 1 not in triples[w]:
            raise FormatError(f"sig line for {x_tok} {y_tok}: not a Levi edge", i + 1)
        k = 3 * (w - n) + triples[w].index(u + 1)
        if signed[k]:
            raise FormatError(f"second sig line for {x_tok} {y_tok}", i + 1)
        val = val.strip()
        if val not in ("+1", "-1"):
            raise FormatError(f"bad signature value {val!r}", i + 1)
        signed[k] = 1
        negative[k] = val == "-1"
    missing = signed.count(0)
    if missing:
        raise FormatError(f"{missing} edges missing a sig line")
    y_rotations = None
    if y_turned:
        y_rotations = [y_turned.get(k // 3) or [k, k + 1, k + 2] for k in range(0, count, 3)]
    return IdScheme(table, x_rotations, y_rotations, negative)


def parse_scheme(text: str) -> EmbeddingScheme:
    """The scheme of a scheme file, backed by the ids `parse_scheme_ids` reads."""
    return EmbeddingScheme.of_ids(parse_scheme_ids(text))


def _digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def format_census(families) -> str:
    chunks = [CENSUS_HEADER + "\n"]
    for s in families:
        record = format_set(s)
        chunks.append(f"record sha256={_digest(record)}\n{record}")
    return "\n".join(chunks)


def parse_census(text: str) -> list[EmbeddingSet]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != CENSUS_HEADER:
        raise FormatError(f"expected header {CENSUS_HEADER!r}", 1 if lines else None)
    out = []
    idx = 1
    while idx < len(lines):
        line = lines[idx].strip()
        if not line:
            idx += 1
            continue
        if not line.startswith("record sha256="):
            raise FormatError(f"expected a record digest line, got {line!r}", idx + 1)
        digest = line.partition("=")[2].strip()
        body = []
        idx += 1
        while idx < len(lines) and lines[idx].strip() and not lines[idx].startswith("record "):
            body.append(lines[idx])
            idx += 1
        record = "\n".join(body) + "\n"
        if _digest(record) != digest:
            raise FormatError(f"digest mismatch for record ending at line {idx}")
        out.append(parse_set(record))
    return out
