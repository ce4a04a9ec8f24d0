"""Versioned text formats for circuit families, schemes, and census files.

Families: header line, a metadata line, then one `T <i>: ...` line per
circuit.  For multiplicity m > 1 one `L <i>: ...` line per circuit follows,
carrying the parallel-copy label of each traversed edge.  These labels are
data: the writer refuses a family without them (CopyResolutionError) and
the reader a file without them or with one outside 0..m-1, since nothing
else tells the parallel copies apart.  Labels that repeat a copy parse, and
fail the family checks (`circuits.validate_eulerian`).

Schemes: header line, `rot <vertex>: ...` lines giving each cyclic edge
order, then `sig <x> <y>: +1|-1` lines.  Every vertex is written exactly as
the writer writes it: an X vertex in plain decimal, a Y vertex `e{i,j,k}`
with its triple sorted, plus `#c` only when m > 1.  The reader looks every
head and token up in the writer's table of names (`_index_of`) and parses
none, so any other spelling (`07`, `+7`, `e{2,1,3}`, `e{1,2,3}#0` when
m = 1) names no vertex and is refused with its line.  Schemes are read and
written as the Levi edge ids an `EmbeddingScheme` holds: `parse_scheme`
checks every line against the Levi graph and builds the scheme from the
ids it reads, and `format_scheme` writes the ids of any scheme back, so
reading a file the writer wrote reproduces it bit-exactly.  A Y rotation
is kept as its orientation, the cyclic order of its sorted triple or the
reverse, and the writer lists it from its lowest vertex or its highest
(`rot e{1,2,3}: 1 2 3` or `3 2 1`): a line that starts elsewhere (`2 3 1`)
is read, and written back from the writer's start.  Lines may come in any
order.  The Y names of one (n, m) are formatted once, by C-level passes,
when first written or read; only the reader also builds the dict from
each name to its vertex index.

In all three formats a line ends at "\\n", "\\r\\n" or "\\r" and nowhere
else, in a text as in a file: the other breaks of `str.splitlines` ("\\f",
"\\v", "\\x1c" to "\\x1e", "\\x85", "\\u2028", "\\u2029") are part of a
line, where, as whitespace, they may pad a line or separate its words.

Scheme files are streamed both ways.  The writer, `scheme_chunks`, yields
the text a chunk at a time (a line per X vertex, then the short Y rot and
sig lines of 256 Y vertices at a time), and `format_scheme` joins its
chunks.  The reader, `parse_scheme`, takes the text or an open text file
and reads it a chunk at a time.  A text laid out as the writer lays it out
is read in one pass (`_read_as_written`): its first X rot line fixes
(n, m), each X rot line is read into ids, and the Y rot and sig lines are
compared in bulk with the writer's own chunks for a scheme whose Y
rotations are all sorted and whose signs are all +1.  A Y line that
differs is read alone, and one `bytes.translate` takes the signs.  Any
other text, or one with a line that the line reader refuses, is read again
from its start by the general reader (`_read_in_any_order`), twice: the
first pass classifies the lines and keeps only the rot heads and a kind
byte per line; once the X heads give n and the count of rot lines m, the
second turns each line straight into ids.  No list of the lines is held, no
line's tokens outlive it, and every refusal is the general reader's, with
its message and line.

Census: header line, then per record a `record sha256=<hex>` digest line
followed by the record's family in the format above.
"""

from collections import deque
from collections.abc import Callable, Iterator
from functools import cache, lru_cache, partial
from itertools import chain, combinations, islice, product, starmap
from math import comb, isqrt
from operator import index
from typing import TextIO

from .exceptions import CopyResolutionError, FormatError, NotAnEmbeddingSet
from .levi import HypergraphSpec, LeviGraph, build_levi
from .scheme import EmbeddingScheme, x_writer

# `circuits` is imported where a family is built, so that reading a scheme
# file (`genus`) does not load it; its names in annotations are strings.

SET_HEADER = "# kn3-embedding-set v1"
SCHEME_HEADER = "# kn3-scheme v1"
CENSUS_HEADER = "# kn3-census v1"


@lru_cache(maxsize=16)
def _int_format(count: int) -> str:
    """The format of `count` decimal ints, one space apart."""
    return " ".join(["%d"] * count)


def _ints(c: "Circuit", values) -> str:
    """The vertices or copy labels of circuit c as `parse_set` reads them:
    decimal ints, one space apart, so an int subclass (`True` for 1) is
    written as its value.  Refuses a value that is no int (`operator.index`
    refuses it, as it refuses 2.0) with NotAnEmbeddingSet."""
    try:
        return _int_format(len(values)) % tuple(map(index, values))
    except TypeError:
        raise NotAnEmbeddingSet(
            f"circuit {c.excluded}: a vertex or copy label that is not an int"
        ) from None


def format_set(s: "EmbeddingSet") -> str:
    """The family file of a family; for m > 1 every circuit needs copy labels,
    else CopyResolutionError names the first that has none.  Every vertex
    and label is written as an int (`_ints`), so the file reads back to an
    equal family."""
    lines = [SET_HEADER, f"n={s.n} m={s.m} orientable={1 if s.strong else 0}"]
    for c in s.circuits:
        lines.append(f"T {c.excluded}: " + _ints(c, c.seq))
    if s.m > 1:
        for c in s.circuits:
            if c.copy_labels is None:
                raise CopyResolutionError(
                    f"circuit {c.excluded}: no copy labels, which m={s.m} requires"
                )
            lines.append(f"L {c.excluded}: " + _ints(c, c.copy_labels))
    return "\n".join(lines) + "\n"


# The keys of the metadata line of a family file, each given once.
_META_KEYS = ("n", "m", "orientable")


def _meta_int(fields: dict[str, str], key: str, line: int) -> int:
    if key not in fields:
        raise FormatError(f"metadata line missing '{key}='", line)
    try:
        return int(fields[key])
    except ValueError:
        raise FormatError(f"bad integer for '{key}'", line) from None


def parse_set(text: str) -> "EmbeddingSet":
    from .circuits import Circuit, EmbeddingSet

    lines = list(_lines(text))
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
        if key not in _META_KEYS:
            raise FormatError(f"unknown metadata key {key!r}", 2)
        if key in fields:
            raise FormatError(f"metadata key {key!r} given twice", 2)
        fields[key] = value
    n = _meta_int(fields, "n", 2)
    m = _meta_int(fields, "m", 2)
    orientable = _meta_int(fields, "orientable", 2)
    if n < 4 or m < 1:
        raise FormatError(f"need n >= 4 and m >= 1, got n={n} m={m}", 2)
    if orientable not in (0, 1):
        raise FormatError(f"orientable must be 0 or 1, got {orientable}", 2)

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
            values = tuple(map(int, body.split()))
        except ValueError:
            raise FormatError(f"bad circuit line {line!r}", lineno) from None
        target = seqs if kind == "T" else labels
        if kind == "L" and values and not 0 <= min(values) <= max(values) < m:
            bad = next(v for v in values if not 0 <= v < m)
            raise FormatError(f"L {idx}: copy label {bad} outside 0..{m - 1}", lineno)
        if idx in target:
            raise FormatError(f"duplicate {kind} line for {idx}", lineno)
        target[idx] = values

    # The counts first: the list 1..n is as long as the metadata line says.
    if len(seqs) != n or sorted(seqs) != list(range(1, n + 1)):
        raise FormatError(f"expected T lines for 1..{n}, got {sorted(seqs)}")
    if m > 1 and not labels:
        raise FormatError(f"m={m} needs L lines, the copy label of every traversed edge", 2)
    if labels and (len(labels) != n or sorted(labels) != list(range(1, n + 1))):
        raise FormatError("L lines must cover all circuits or none")
    circuits = []
    for i in range(1, n + 1):
        lab = labels.get(i)
        if lab is not None and len(lab) != len(seqs[i]):
            raise FormatError(f"L {i} has {len(lab)} labels for {len(seqs[i])} edges")
        circuits.append(Circuit(i, n, m, seqs[i], lab))
    return EmbeddingSet(n=n, m=m, circuits=tuple(circuits), strong=bool(orientable))


@cache
def _y_names(n: int, m: int) -> tuple[str, ...]:
    """`_y_names(n, m)[y]` is the written name of the Y vertex at index y,
    formatted by C-level passes in the order of `levi.build_levi`.  For m > 1
    each triple is formatted once and its copies add their `#c` suffixes."""
    triples = combinations(range(1, n + 1), 3)
    if m == 1:
        return tuple(map("e{%d,%d,%d}".__mod__, triples))
    stems = map("e{%d,%d,%d}#".__mod__, triples)
    return tuple(starmap(str.__add__, product(stems, map(str, range(m)))))


@cache
def _index_of(n: int, m: int) -> dict[str, int]:
    """Every written name of (n, m) to its vertex index: x - 1 for the X
    vertex x and n + y for the Y vertex at index y.  Only the reader needs
    it, and a token that is not a key names no vertex."""
    y_names = _y_names(n, m)
    return dict(zip(chain(map(str, range(1, n + 1)), y_names), range(n + len(y_names))))


# The short Y rot and sig lines of this many Y vertices are written to a
# chunk.
_Y_PER_CHUNK = 256


def _batches(texts: Iterator[str]) -> Iterator[str]:
    while chunk := "".join(islice(texts, _Y_PER_CHUNK)):
        yield chunk


def _y_rot_lines(graph: LeviGraph, y_reversed: bytes) -> Iterator[str]:
    """The Y rot lines of a scheme on `graph`, in index order, each Y vertex
    oriented by its byte of `y_reversed`."""
    # The Y vertex y lists the X ends of its edges 3y, 3y+1, 3y+2, or of
    # 3y+2, 3y+1, 3y when reversed.  The two orders zip the same iterators,
    # so `next` on the one each byte picks advances both.
    x_end = graph.x_end
    names = iter(_y_names(graph.n, graph.m))
    a, b, c = (islice(x_end, slot, None, 3) for slot in range(3))
    orders = (zip(names, a, b, c), zip(names, c, b, a))
    return map("rot %s: %d %d %d\n".__mod__, map(next, map(orders.__getitem__, y_reversed)))


def _sig_lines(graph: LeviGraph, negative: bytes) -> Iterator[str]:
    """The sig lines of a scheme on `graph`, in edge-id order, as the text of
    the three edges of each Y vertex; edge k is negative when `negative[k]`
    is 1.  Formatting three lines at a time takes half as long as one."""
    y_names = _y_names(graph.n, graph.m)
    a, b, c = (islice(graph.x_end, slot, None, 3) for slot in range(3))
    sa, sb, sc = (map(("+1", "-1").__getitem__, negative[slot::3]) for slot in range(3))
    lines = "sig %d %s: %s\n" * 3
    return map(lines.__mod__, zip(a, y_names, sa, b, y_names, sb, c, y_names, sc))


def scheme_chunks(sch: EmbeddingScheme) -> Iterator[str]:
    """The scheme file of a scheme, written from its ids, as chunks of text:
    the header, each X rot line, then the Y rot and sig lines in batches.
    `format_scheme` joins them; `build --scheme-out` writes them to the file
    one by one, so the whole text is never held."""
    graph = sch.graph
    y_names = _y_names(graph.n, graph.m)
    yield SCHEME_HEADER + "\n"
    for x, rot in zip(graph.x_vertices, sch.x_rotations):
        yield f"rot {x}: " + " ".join([y_names[k // 3] for k in rot]) + "\n"
    yield from _batches(_y_rot_lines(graph, sch.y_reversed))
    yield from _batches(_sig_lines(graph, sch.negative))


def format_scheme(sch: EmbeddingScheme) -> str:
    """The scheme file of a scheme, written from its ids."""
    return "".join(scheme_chunks(sch))


# Characters read from a file, or sliced from a text, at a time.
_READ_CHARS = 1 << 14


def _lines(source: str | TextIO) -> Iterator[str]:
    """The lines of a text or of an open text file, without their ends,
    read a chunk at a time.  A line ends at "\\n", "\\r\\n" or "\\r" and
    nowhere else, as in a file read with universal newlines."""
    return chain.from_iterable(_line_blocks(source))


def _line_blocks(source: str | TextIO) -> Iterator[list[str]]:
    """The lines of `_lines`, a list for each chunk read."""
    if isinstance(source, str):
        chunks = (source[i:i + _READ_CHARS] for i in range(0, len(source), _READ_CHARS))
    else:
        chunks = iter(partial(source.read, _READ_CHARS), "")
    pending: list[str] = []  # the pieces of a line that spans chunks
    after_cr = False
    for chunk in chunks:
        if after_cr and chunk.startswith("\n"):  # the "\n" of a split "\r\n"
            chunk = chunk[1:]
        after_cr = chunk.endswith("\r")
        if "\r" in chunk:
            chunk = chunk.replace("\r\n", "\n").replace("\r", "\n")
        lines = chunk.split("\n")
        last = lines.pop()
        if lines:
            pending.append(lines[0])
            lines[0] = "".join(pending)
            pending.clear()
            yield lines
        pending.append(last)
    line = "".join(pending)
    if line:
        yield [line]


# The kinds of line `_first_pass` tells apart: the header and blank lines,
# rot lines and sig lines.
_OTHER, _ROT, _SIG = range(3)


def _first_pass(lines: Iterator[str]) -> tuple[int, int, bytearray]:
    """The first pass of `parse_scheme`: checks the header, classifies every
    line and refuses a second rot line for a head or a sig line without
    exactly two names.  Returns the count of rot lines, the count of X heads
    (those not starting with "e") and the kind of every line, one byte each."""
    header = next(lines, None)
    if header is None or header.strip() != SCHEME_HEADER:
        raise FormatError(f"expected header {SCHEME_HEADER!r}", None if header is None else 1)
    heads: set[str] = set()
    x_count = 0
    kinds = bytearray([_OTHER])
    for lineno, line in enumerate(lines, 2):
        line = line.strip()
        kind = line[:4]
        if kind == "sig ":
            # The head is all but the first word before the first colon.
            if len(line.partition(":")[0].split()) != 3:
                raise FormatError(f"bad sig line {line!r}", lineno)
            kinds.append(_SIG)
        elif kind == "rot ":
            head = line[4:].partition(":")[0].strip()
            if head in heads:
                raise FormatError(f"second rot line for {head!r}", lineno)
            heads.add(head)
            x_count += not head.startswith("e")
            kinds.append(_ROT)
        elif line:
            raise FormatError(f"unexpected line {line!r}", lineno)
        else:
            kinds.append(_OTHER)
    return len(heads), x_count, kinds


class _LineReader:
    """The ids that the rot and sig lines of a scheme file of (n, m) give,
    one line at a time, each checked against the Levi graph of (n, m).

    `rot` and `sig` read a line without leading whitespace (trailing
    whitespace, a line end included, is ignored): every head and token is
    looked up in the written names of (n, m) (`_index_of`), and one that is
    not among them is refused at its line.  Each rotation must list exactly
    the incident edges of its vertex, once; a line's tokens start after its
    first colon, which no head holds.  Each Y rot line sets the byte of its
    vertex in `y_reversed`: 0 when it lists its triple in the cyclic order
    of the sorted triple, from any start, and 1 for the reverse.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.graph = graph = build_levi(HypergraphSpec(n, m))
        self.index_of = _index_of(n, m)
        # triples[u] is the triple of the Y vertex with index u, and empty for
        # an X vertex, which meets no other X vertex.
        triples = [()] * n
        ends = iter(graph.x_end)
        triples += zip(ends, ends, ends)
        self.triples = triples
        self.labels = [str(x) for x in range(n + 1)]
        self.x_degree = graph.x_degree()
        self.x_ids, self.put = x_writer(graph)
        self.y_reversed = bytearray(len(triples) - n)
        self.negative = bytearray(graph.edge_count)
        self.signed = bytearray(graph.edge_count)

    def rot(self, line: str, lineno: int) -> None:
        n, triples = self.n, self.triples
        head, _, body = line[4:].partition(":")
        head = head.strip()
        u = self.index_of.get(head)
        if u is None:
            raise FormatError(f"rot line for {head!r}: not a Levi vertex", lineno)
        tokens = body.split()
        if u < n:
            x, x_degree = u + 1, self.x_degree
            ws = list(map(self.index_of.get, tokens))
            if None in ws:
                raise FormatError(f"bad vertex token {tokens[ws.index(None)]!r}", lineno)
            try:
                at = [3 * (w - n) + triples[w].index(x) for w in ws]
            except ValueError:  # a vertex that does not meet x
                at = None
            if at is None or len(at) != x_degree or len(set(at)) != x_degree:
                raise FormatError(
                    f"rotation at {x} must list its {x_degree} edges once each", lineno
                )
            self.put(x, at)
        else:
            a, b, c = triples[u]
            labels = self.labels
            members = [labels[a], labels[b], labels[c]]
            if tokens == members:  # the order `format_scheme` writes
                return
            if sorted(tokens) != sorted(members):
                raise FormatError(f"rotation at {head} must list its 3 vertices once each", lineno)
            # The slot step from the first vertex to the second tells the order.
            self.y_reversed[u - n] = (members.index(tokens[1]) - members.index(tokens[0])) % 3 != 1

    def sig(self, line: str, lineno: int) -> None:
        head, _, val = line.partition(":")
        _, x_tok, y_tok = head.split()
        u, w = self.index_of.get(x_tok), self.index_of.get(y_tok)
        if u is None or w is None:
            raise FormatError(f"bad vertex token {x_tok if u is None else y_tok!r}", lineno)
        # This also refuses a Y vertex first (u + 1 > n) or an X vertex second.
        triple = self.triples[w]
        if u + 1 not in triple:
            raise FormatError(f"sig line for {x_tok} {y_tok}: not a Levi edge", lineno)
        k = 3 * (w - self.n) + triple.index(u + 1)
        if self.signed[k]:
            raise FormatError(f"second sig line for {x_tok} {y_tok}", lineno)
        val = val.strip()
        if val not in ("+1", "-1"):
            raise FormatError(f"bad signature value {val!r}", lineno)
        self.signed[k] = 1
        self.negative[k] = val == "-1"

    def scheme(self, negative: bytes | bytearray) -> EmbeddingScheme:
        return EmbeddingScheme._adopt(self.graph, self.x_ids, self.y_reversed, negative)


def _written_order(first: str) -> tuple[int, int] | None:
    """The (n, m) that the line `rot 1: ...` of a written file fixes, or None
    when no (n, m) fits: m is the count of the copies of its first name, and
    it lists m*C(n-1, 2) names.  Only reading the line settles it."""
    words = first.split()
    if len(words) < 3:
        return None
    stem, copy_mark, _ = words[2].partition("#")
    m = first.count(stem + "#") if copy_mark else 1
    pairs, extra = divmod(len(words) - 2, m)
    k = (1 + isqrt(1 + 8 * pairs)) // 2  # n - 1, when C(n - 1, 2) = pairs
    if extra or k < 3 or comb(k, 2) != pairs:
        return None
    return k + 1, m


# Every sig line the writer writes holds at least this many characters.
_SHORTEST_SIG_LINE = len("sig 1 e{1,2,3}: +1\n")

# `bytes.translate` arguments that keep only the sign of each sig line, as
# 1 for "-" and 0 for "+": no written name holds either character.
_NEGATIVE_OF_SIGN = bytes.maketrans(b"+-", b"\x00\x01")
_NOT_A_SIGN = bytes(range(256)).translate(None, b"+-")


def _readers(source: str | TextIO) -> tuple[Callable[[int], str], Callable[[], str]]:
    """`read(k)`, the next k characters, and `readline()`, the next line
    with its "\\n", of a text or of an open text file from where it stands."""
    if not isinstance(source, str):
        return source.read, source.readline
    at = 0

    def read(k: int) -> str:
        nonlocal at
        at += k
        return source[at - k:at]

    def readline() -> str:
        nonlocal at
        start, at = at, source.find("\n", at) + 1 or len(source)
        return source[start:at]

    return read, readline


def _read_as_written(source: str | TextIO, start: int | None) -> EmbeddingScheme | None:
    """The scheme of a text laid out as `scheme_chunks` writes it, read in
    bulk; None for a text laid out otherwise.  A line that `_LineReader`
    refuses raises its FormatError, and a decoding fault its own error.

    The layout: the header, `rot 1:` to `rot n:`, the Y rot lines in index
    order, the sig lines in edge-id order, then blank lines at most, each
    line ended by "\\n" (a file read with universal newlines ends every
    line so).  The first X rot line fixes (n, m) (`_written_order`), and a
    text too short for the sig lines of (n, m) is left to the general
    reader before the Levi graph, whose size (n, m) sets, is built.  Each X
    rot line goes through `_LineReader.rot`.  The Y rot and sig lines are
    compared a chunk at a time with the writer's own chunks of a scheme
    whose Y vertices are all sorted and whose signs are all +1, and neither
    changes a line's length: a Y line that differs goes through
    `_LineReader.rot` when it has its vertex's head, and a sig chunk must
    equal the writer's once each "-1" is read as "+1", so that one
    `bytes.translate` takes its signs.  The general reader reads every text
    this accepts to the same ids.
    """
    if isinstance(source, str):
        size = len(source)
    else:
        size = source.seek(0, 2)  # in bytes or characters: at least the text's length
        source.seek(start)
    read, readline = _readers(source)
    if readline() != SCHEME_HEADER + "\n":
        return None
    first = readline()
    order = _written_order(first) if first.startswith("rot 1: ") else None
    if order is None:
        return None
    n, m = order
    if _SHORTEST_SIG_LINE * 3 * m * comb(n, 3) > size:
        return None
    reader = _LineReader(n, m)
    graph, y_names = reader.graph, _y_names(n, m)
    reader.rot(first, 2)
    for x in range(2, n + 1):
        line = readline()
        if not line.startswith(f"rot {x}: "):
            return None
        reader.rot(line, x + 1)
    first_y = 0  # the index of the chunk's first Y vertex
    for chunk in _batches(_y_rot_lines(graph, bytes(len(y_names)))):
        text = read(len(chunk))
        if text != chunk:
            got, wanted = text.split("\n"), chunk.split("\n")
            if len(got) != len(wanted) or got[-1]:
                return None
            for y, (line, want) in enumerate(zip(got, wanted), first_y):
                if line != want:
                    line = line.strip()
                    if line[:4] != "rot " or line[4:].partition(":")[0].strip() != y_names[y]:
                        return None
                    reader.rot(line, n + 2 + y)
        first_y += _Y_PER_CHUNK
    signs = []
    for chunk in _batches(_sig_lines(graph, bytes(graph.edge_count))):
        text = read(len(chunk))
        if text.replace("-1\n", "+1\n") != chunk:
            return None
        signs.append(text.encode().translate(_NEGATIVE_OF_SIGN, _NOT_A_SIGN))
    while rest := read(_READ_CHARS):
        if rest.strip():
            return None
    return reader.scheme(b"".join(signs))


def parse_scheme(source: str | TextIO) -> EmbeddingScheme:
    """The scheme of a scheme file, given as its text or as a text file open
    for reading; raises FormatError for a malformed one.

    A text laid out as the writer writes it is read in one pass, in bulk
    (`_read_as_written`).  Any other text, and one with a line that the
    line reader refuses, is read again from its start by the general
    reader, `_read_in_any_order`, which gives every refusal its message and
    line.  A file is read from where it stands, a chunk at a time, so its
    text is never held whole; one that cannot seek is read into a text
    first.
    """
    if not isinstance(source, str) and not source.seekable():
        source = source.read()
    start = None if isinstance(source, str) else source.tell()
    try:
        scheme = _read_as_written(source, start)
    except (FormatError, UnicodeDecodeError):
        scheme = None  # refused by the general reader, with its own message
    if scheme is None:
        scheme = _read_in_any_order(source, start)
    return scheme


def _read_in_any_order(source: str | TextIO, start: int | None) -> EmbeddingScheme:
    """The general reader of `parse_scheme`, for a text or a file that it
    reads from `start`, in two passes.  Lines may come in any order.

    The first pass classifies each line, refuses a second rot line for a
    head or a sig line without exactly two names, and keeps only the rot
    heads and a kind byte per line.  Once the count of X heads gives n and
    the count of rot lines gives m, the second pass reads each rot line,
    then each sig line, straight into ids and signs (`_LineReader`).  A bad
    sig line is reported only when every rot line has passed.  A refused
    file is still read to its end, so that a decoding fault anywhere in it
    is raised before any FormatError.
    """
    if start is not None:
        source.seek(start)
    lines = _lines(source)
    try:
        rot_count, n, kinds = _first_pass(lines)
    except FormatError:
        deque(lines, maxlen=0)  # a decoding fault further on comes first
        raise

    if n < 4:
        raise FormatError(f"need rot lines for vertices 1..n with n >= 4, got n={n}")
    # One rot line per Levi vertex: the count fixes m before the Levi graph,
    # whose size m sets, is built.  A head naming a copy >= m is no vertex.
    m_mult, extra = divmod(rot_count - n, comb(n, 3))
    if extra or m_mult < 1:
        raise FormatError("rot lines do not match the Levi graph of the inferred (n, m)")
    # No head repeats and each vertex has one name, so no vertex is read twice.
    reader = _LineReader(n, m_mult)
    if start is not None:
        source.seek(start)
    sig_fault = None  # the first bad sig line, raised once the rot lines pass
    for lineno, (kind, line) in enumerate(zip(kinds, _lines(source)), 1):
        if kind == _SIG:
            if sig_fault is None:
                try:
                    reader.sig(line, lineno)
                except FormatError as exc:
                    sig_fault = exc
        elif kind == _ROT:
            reader.rot(line.strip(), lineno)
    if sig_fault is not None:
        raise sig_fault
    missing = reader.signed.count(0)
    if missing:
        raise FormatError(f"{missing} edges missing a sig line")
    return reader.scheme(reader.negative)


def _digest(record: str) -> str:
    import hashlib  # only census files carry digests; other commands skip its import
    return hashlib.sha256(record.encode()).hexdigest()


def format_census(families) -> str:
    chunks = [CENSUS_HEADER + "\n"]
    for s in families:
        record = format_set(s)
        chunks.append(f"record sha256={_digest(record)}\n{record}")
    return "\n".join(chunks)


def parse_census(text: str) -> "list[EmbeddingSet]":
    lines = list(_lines(text))
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
        offset = idx  # the record's line r is line r + offset of the census
        while idx < len(lines) and lines[idx].strip() and not lines[idx].startswith("record "):
            body.append(lines[idx])
            idx += 1
        record = "\n".join(body) + "\n"
        if _digest(record) != digest:
            raise FormatError(f"digest mismatch for record ending at line {idx}")
        try:
            out.append(parse_set(record))
        except FormatError as exc:
            if exc.line is None:
                raise
            raise FormatError(exc.reason, exc.line + offset) from None
    return out
