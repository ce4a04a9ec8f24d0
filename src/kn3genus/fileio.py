"""Versioned text formats for circuit families, schemes, and census files.

Families: header line, a metadata line, then one `T <i>: ...` line per
circuit.  For multiplicity m > 1 the writer adds optional `L <i>: ...`
lines carrying the parallel-copy label of each traversed edge; files
without them are still readable (copy assignment falls back to search).

Schemes: header line, `rot <vertex>: ...` lines giving each cyclic edge
order, then `sig <x> <y>: +1|-1` lines.  Edge-side vertices are written
`e{i,j,k}` (plus `#c` when m > 1).  Reading a written scheme reproduces it
bit-exactly.  Names are written and read through one name table per
(n, m), built on first use: a token that is not a canonical name (such as
`e{1,2,3}#0` when m = 1) is parsed on its own, and a bad one is reported
with its line.

Census: header line, then per record a `record sha256=<hex>` digest line
followed by the record's family in the format above.
"""

import hashlib
import re
from dataclasses import dataclass
from functools import cache

from .circuits import Circuit, EmbeddingSet
from .exceptions import FormatError
from .levi import YVertex, levi_edges
from .scheme import EmbeddingScheme, Vertex

SET_HEADER = "# kn3-embedding-set v1"
SCHEME_HEADER = "# kn3-scheme v1"
CENSUS_HEADER = "# kn3-census v1"

_Y_NAME = re.compile(r"^e\{(\d+(?:,\d+)*)\}(?:#(\d+))?$")


def format_set(s: EmbeddingSet) -> str:
    lines = [SET_HEADER, f"n={s.n} m={s.m} orientable={1 if s.strong else 0}"]
    for c in s.circuits:
        lines.append(f"T {c.excluded}: " + " ".join(str(v) for v in c.seq))
    if s.m > 1 and all(c.copy_labels is not None for c in s.circuits):
        for c in s.circuits:
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
        if idx in target:
            raise FormatError(f"duplicate {kind} line for {idx}", lineno)
        target[idx] = values

    if sorted(seqs) != list(range(1, n + 1)):
        raise FormatError(f"expected T lines for 1..{n}, got {sorted(seqs)}")
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

    `y_names[y]` is the name of the Y vertex at index y; `name_of` maps each
    Y vertex to its name and `vertex_of` each written name, X names
    included, back to its vertex.
    """

    y_names: tuple[str, ...]
    name_of: dict[YVertex, str]
    vertex_of: dict[str, Vertex]


@cache
def _names(n: int, m: int) -> _Names:
    ys = levi_edges(n, m).graph.y_vertices
    y_names = tuple(_y_name(y, m) for y in ys)
    vertex_of: dict[str, Vertex] = {str(x): x for x in range(1, n + 1)}
    vertex_of.update(zip(y_names, ys))
    return _Names(y_names, dict(zip(ys, y_names)), vertex_of)


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


def format_scheme(sch: EmbeddingScheme) -> str:
    graph = sch.graph
    table = levi_edges(graph.n, graph.m)
    names = _names(graph.n, graph.m)
    name_of, y_names = names.name_of, names.y_names
    lines = [SCHEME_HEADER]
    for x in graph.x_vertices:
        lines.append(f"rot {x}: " + " ".join([name_of[e[1]] for e in sch.rotation[x]]))
    for y, name in zip(graph.y_vertices, y_names):
        lines.append(f"rot {name}: " + " ".join([str(e[0]) for e in sch.rotation[y]]))
    signature = sch.signature
    for k, e in enumerate(table.edges):
        sign = "+1" if signature[e] == 1 else "-1"
        lines.append(f"sig {e[0]} {y_names[k // 3]}: {sign}")
    return "\n".join(lines) + "\n"


def parse_scheme(text: str) -> EmbeddingScheme:
    lines = text.splitlines()
    if not lines or lines[0].strip() != SCHEME_HEADER:
        raise FormatError(f"expected header {SCHEME_HEADER!r}", 1 if lines else None)
    rot_tokens: dict[object, tuple[str, list[str], int]] = {}
    sig_tokens: list[tuple[str, str, str, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("rot "):
            head, _, body = line[4:].partition(":")
            head = head.strip()
            if head in rot_tokens:
                raise FormatError(f"second rot line for {head!r}", lineno)
            rot_tokens[head] = (head, body.split(), lineno)
        elif line.startswith("sig "):
            head, _, body = line[4:].partition(":")
            parts = head.split()
            if len(parts) != 2:
                raise FormatError(f"bad sig line {line!r}", lineno)
            sig_tokens.append((parts[0], parts[1], body.strip(), lineno))
        else:
            raise FormatError(f"unexpected line {line!r}", lineno)

    x_names = [name for name in rot_tokens if not name.startswith("e")]
    try:
        x_labels = sorted(int(v) for v in x_names)
    except ValueError as exc:
        raise FormatError(f"bad vertex name: {exc}") from None
    n = len(x_labels)
    if x_labels != list(range(1, n + 1)):
        raise FormatError(f"rot lines must cover vertices 1..n, got {x_labels}")
    copies = [
        int(m.group(2))
        for name in rot_tokens
        if (m := _Y_NAME.match(name)) and m.group(2)
    ]
    m_mult = max(copies) + 1 if copies else 1
    table = levi_edges(n, m_mult)
    graph, edges, ids = table.graph, table.edges, table.ids
    vertex_of = _names(n, m_mult).vertex_of

    def vertex(token: str, lineno: int):
        # Canonical names come from the table; anything else is parsed.
        v = vertex_of.get(token)
        return v if v is not None else _parse_vertex(token, m_mult, lineno)

    # Each rotation must list exactly the incident edges of its vertex, once.
    vertices = set(graph.x_vertices) | set(graph.y_vertices)
    x_degree = graph.x_degree()
    rotation: dict = {}
    for head, tokens, lineno in rot_tokens.values():
        v = vertex(head, lineno)
        if v not in vertices or v in rotation:
            raise FormatError(f"rot line for {head!r}: not a Levi vertex, or given twice", lineno)
        if isinstance(v, int):
            at = [ids.get((v, vertex(t, lineno))) for t in tokens]
            if len(at) != x_degree or None in at or len(set(at)) != x_degree:
                raise FormatError(
                    f"rotation at {v} must list its {x_degree} edges once each", lineno
                )
            rotation[v] = tuple([edges[k] for k in at])
        else:
            if sorted(tokens) != sorted(map(str, v[0])):
                raise FormatError(f"rotation at {head} must list its 3 vertices once each", lineno)
            rotation[v] = tuple([edges[ids[(int(t), v)]] for t in tokens])
    if len(rotation) != len(vertices):
        raise FormatError("rot lines do not match the Levi graph of the inferred (n, m)")

    signs: list[int | None] = [None] * len(edges)
    for x_tok, y_tok, val, lineno in sig_tokens:
        x = vertex(x_tok, lineno)
        y = vertex(y_tok, lineno)
        if not isinstance(x, int) or isinstance(y, int):
            raise FormatError("sig line must name a vertex then an edge name", lineno)
        k = ids.get((x, y))
        if k is None:
            raise FormatError(f"sig line for {x_tok} {y_tok}: not a Levi edge", lineno)
        if signs[k] is not None:
            raise FormatError(f"second sig line for {x_tok} {y_tok}", lineno)
        if val not in ("+1", "-1"):
            raise FormatError(f"bad signature value {val!r}", lineno)
        signs[k] = 1 if val == "+1" else -1
    missing = signs.count(None)
    if missing:
        raise FormatError(f"{missing} edges missing a sig line")
    signature = dict(zip(edges, signs))
    return EmbeddingScheme(graph=graph, rotation=rotation, signature=signature)


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
