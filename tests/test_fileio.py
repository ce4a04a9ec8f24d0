import hashlib
import io
import random
import tracemalloc
from collections import deque
from importlib import resources
from itertools import combinations

import pytest

from kn3genus import (
    Circuit,
    CopyResolutionError,
    EmbeddingScheme,
    EmbeddingSet,
    FormatError,
    GraphMismatch,
    NotAnEmbeddingSet,
    build_even,
    build_multi,
    fixture_set,
    format_census,
    format_scheme,
    format_set,
    parse_census,
    parse_scheme,
    parse_set,
    set_to_scheme,
)
from kn3genus import fileio
from kn3genus.circuits import canonical_set_key
from kn3genus.levi import build_levi
from kn3genus.scheme import verify_family

from peaks import live_bytes, peak_bytes


def test_set_round_trip_exact(strong6):
    text = format_set(strong6)
    assert text.startswith("# kn3-embedding-set v1\n")
    assert parse_set(text) == strong6
    assert format_set(parse_set(text)) == text


def test_set_round_trip_with_labels():
    s = build_multi(6, 2, orientable=True)
    text = format_set(s)
    assert "L 1:" in text
    back = parse_set(text)
    assert back == s
    assert all(c.copy_labels == b.copy_labels for c, b in zip(s.circuits, back.circuits))


def test_set_format_m1_has_no_label_lines(strong6):
    assert "L " not in format_set(strong6)


@pytest.mark.parametrize("name", ["planar_4", "strong_6", "nonorientable_6", "klein_4x2"])
def test_fixture_files_are_writer_canonical(name):
    text = resources.files("kn3genus.data").joinpath(f"{name}.kn3set").read_text()
    assert format_set(fixture_set(name)) == text


def test_parse_set_refuses_multi_family_without_label_lines(klein4x2):
    text = format_set(klein4x2)
    stripped = "".join(l for l in text.splitlines(keepends=True) if not l.startswith("L "))
    with pytest.raises(FormatError) as err:
        parse_set(stripped)
    assert err.value.line == 2
    assert str(err.value) == "line 2: m=2 needs L lines, the copy label of every traversed edge"


def test_parse_set_refuses_copy_labels_out_of_range(klein4x2):
    text = format_set(klein4x2)
    assert "\nL 1: 0 0 1 1 0 1\n" in text
    with pytest.raises(FormatError) as err:
        parse_set(text.replace("L 1: 0 0 1 1 0 1", "L 1: 0 0 1 1 0 5"))
    assert str(err.value) == "line 7: L 1: copy label 5 outside 0..1"
    # Labels in range that give one pair a copy twice parse, and the family
    # checks refuse them, so the family has no scheme.
    repeated = parse_set(text.replace("L 1: 0 0 1 1 0 1", "L 1: 0 0 0 0 0 0"))
    with pytest.raises(NotAnEmbeddingSet) as err:
        set_to_scheme(repeated)
    assert str(err.value) == "circuit 1: pair {2,4} takes copy 0 twice"


def test_format_set_refuses_multi_family_without_labels(klein4x2):
    circuits = list(klein4x2.circuits)
    c = circuits[2]
    circuits[2] = Circuit(c.excluded, c.n, c.m, c.seq)
    unlabelled = EmbeddingSet(klein4x2.n, klein4x2.m, tuple(circuits), klein4x2.strong)
    with pytest.raises(CopyResolutionError) as err:
        format_set(unlabelled)
    assert str(err.value) == "circuit 3: no copy labels, which m=2 requires"


def test_parse_set_rejects_unknown_version():
    with pytest.raises(FormatError) as err:
        parse_set("# kn3-embedding-set v2\nn=4 m=1 orientable=1\n")
    assert "header" in str(err.value)


@pytest.mark.parametrize("flag", ["7", "-1", "2"])
def test_parse_set_refuses_an_orientable_flag_other_than_0_or_1(strong6, flag):
    lines = format_set(strong6).splitlines()
    lines[1] = f"n=6 m=1 orientable={flag}"
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert str(err.value) == f"line 2: orientable must be 0 or 1, got {flag}"


@pytest.mark.parametrize(
    "meta,key",
    [("n=8 n=6 m=1 orientable=1", "n"), ("n=6 m=1 orientable=0 orientable=1", "orientable")],
)
def test_parse_set_refuses_a_repeated_metadata_key(strong6, meta, key):
    lines = format_set(strong6).splitlines()
    lines[1] = meta
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert str(err.value) == f"line 2: metadata key '{key}' given twice"


@pytest.mark.parametrize(
    "meta,key",
    [
        ("n=6 m=1 orientable=1 colour=red =5", "colour"),
        ("n=6 m=1 =5 orientable=1", ""),
        ("n=6 m=1 orientable=1 N=6", "N"),
    ],
    ids=["unknown", "empty", "case"],
)
def test_parse_set_refuses_an_unknown_metadata_key(strong6, meta, key):
    lines = format_set(strong6).splitlines()
    lines[1] = meta
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert str(err.value) == f"line 2: unknown metadata key '{key}'"


def _with_true_for_1(s, i):
    """s with every 1 among the vertices and labels of T_i written as True."""
    def swap(values):
        return None if values is None else tuple(True if v == 1 else v for v in values)

    circuits = list(s.circuits)
    c = circuits[i - 1]
    circuits[i - 1] = Circuit(c.excluded, c.n, c.m, swap(c.seq), swap(c.copy_labels))
    return EmbeddingSet(s.n, s.m, tuple(circuits), s.strong)


@pytest.mark.parametrize("name", ["strong_6", "klein_4x2"])
def test_format_set_writes_an_int_of_another_type_as_its_value(name):
    s = fixture_set(name)
    odd = _with_true_for_1(s, 2)
    assert True in odd.circuits[1].seq and verify_family(odd).is_minimum(s.strong)
    text = format_set(odd)
    assert text == format_set(s) and "True" not in text
    assert parse_set(text) == odd
    census = format_census([odd])
    assert census == format_census([s]) and parse_census(census) == [odd]


@pytest.mark.parametrize("value", [2.0, "2", None])
def test_format_set_refuses_a_vertex_that_is_no_int(strong6, value):
    circuits = list(strong6.circuits)
    c = circuits[2]
    circuits[2] = Circuit(c.excluded, c.n, c.m, (value, *c.seq[1:]), c.copy_labels)
    with pytest.raises(NotAnEmbeddingSet) as err:
        format_set(EmbeddingSet(6, 1, tuple(circuits), True))
    assert str(err.value) == "circuit 3: a vertex or copy label that is not an int"


def test_parse_set_rejects_corrupted_line(strong6):
    lines = format_set(strong6).splitlines()
    lines[3] = "T 2: 4 3 oops 6"
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert "line 4" in str(err.value)


# The line breaks of `str.splitlines` that are whitespace within a line.
INLINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", INLINE_BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
def test_parse_set_ends_a_line_only_at_a_line_ending(strong6, brk):
    lines = format_set(strong6).split("\n")
    lines[2] += brk
    lines[4] += " x"
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert str(err.value) == f"line 5: bad circuit line {lines[4]!r}"
    # Between two vertices of a T line it separates them, as a space does.
    lines = format_set(strong6).split("\n")
    lines[3] = brk.join(lines[3].rsplit(" ", 1))
    assert parse_set("\n".join(lines)) == strong6


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_census_digests_verify_across_line_endings(ending):
    families = [build_even(6, True, seed=s) for s in (1, 2)]
    text = format_census(families)
    assert parse_census(text.replace("\n", ending)) == families


@pytest.mark.parametrize("brk", INLINE_BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
def test_census_names_the_last_line_of_a_tampered_record(brk):
    text = format_census([build_even(6, True, seed=1)])
    with pytest.raises(FormatError) as err:
        parse_census(text.replace("T 1: ", f"T 1:{brk} ", 1))
    assert str(err.value) == f"digest mismatch for record ending at line {text.count(chr(10))}"


def test_parse_set_rejects_missing_circuit(strong6):
    lines = format_set(strong6).splitlines()
    del lines[4]
    with pytest.raises(FormatError):
        parse_set("\n".join(lines))


def test_scheme_round_trip_bit_exact(strong6, klein4x2):
    for s in (strong6, klein4x2):
        sch = set_to_scheme(s)
        text = format_scheme(sch)
        back = parse_scheme(text)
        assert back == sch
        assert format_scheme(back) == text


def test_scheme_names_carry_copies(klein4x2):
    text = format_scheme(set_to_scheme(klein4x2))
    assert "e{1,2,3}#0" in text and "e{1,2,3}#1" in text


def test_parse_scheme_rejects_bad_header():
    with pytest.raises(FormatError):
        parse_scheme("# something else\n")


def test_parse_scheme_rejects_missing_sig(strong6):
    text = format_scheme(set_to_scheme(strong6))
    lines = [l for l in text.splitlines() if not l.startswith("sig 1 ")]
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert "sig" in str(err.value)


def test_parse_scheme_rejects_bad_rotation(strong6):
    text = format_scheme(set_to_scheme(strong6))
    lines = text.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("rot 1:"))
    parts = lines[idx].split()
    parts[1:3] = [parts[2], parts[2]]  # repeat an edge
    lines[idx] = " ".join(parts)
    with pytest.raises(FormatError):
        parse_scheme("\n".join(lines))


def test_parse_scheme_rejects_second_rot_line(strong6):
    text = format_scheme(set_to_scheme(strong6))
    rot1 = next(l for l in text.splitlines() if l.startswith("rot 1:"))
    head, _, body = rot1.partition(": ")
    with pytest.raises(FormatError) as err:
        parse_scheme(text + f"{head}: {' '.join(reversed(body.split()))}\n")
    assert "second rot line" in str(err.value)


def test_format_scheme_refuses_a_scheme_off_its_graph(strong6):
    sch = set_to_scheme(strong6)
    rot = sch.rotation[1]
    rotation = dict(sch.rotation)
    del rotation[3]
    signature = dict(sch.signature)
    del signature[(1, ((1, 2, 3), 0))]
    repeats = "a rotation misses or repeats an edge of the graph"
    for dicts, message in (
        ((rotation, sch.signature), "no rotation at vertex 3"),
        (
            (sch.rotation, signature),
            "edge (1, ((1, 2, 3), 0)) has no signature of +1 or -1 (got None)",
        ),
        # A rotation that misses one edge and repeats another, and one that
        # repeats an edge and misses none:
        (({**sch.rotation, 1: (rot[1],) + rot[1:]}, sch.signature), repeats),
        (({**sch.rotation, 1: rot + rot[:1]}, sch.signature), repeats),
    ):
        # The scheme is refused when it is built, before it can be written.
        with pytest.raises(GraphMismatch) as err:
            format_scheme(EmbeddingScheme(sch.graph, *dicts))
        assert str(err.value) == message


def test_census_round_trip():
    families = [build_even(6, True, seed=s) for s in (1, 2, 3)]
    text = format_census(families)
    back = parse_census(text)
    assert [canonical_set_key(s) for s in back] == [canonical_set_key(s) for s in families]


def test_census_digest_detects_tampering():
    families = [build_even(6, True, seed=1)]
    text = format_census(families)
    tampered = text.replace("T 1: ", "T 1: 2 ", 1)
    with pytest.raises(FormatError) as err:
        parse_census(tampered)
    assert "digest" in str(err.value) or "line" in str(err.value)


def test_census_names_the_census_line_of_a_fault_in_a_record():
    # A hand-edited record with a recomputed digest: its bad line is
    # reported at its line in the census, not within the record.
    families = [build_even(6, True, seed=s) for s in (1, 2)]
    lines = format_census(families).splitlines()
    digest = max(i for i, l in enumerate(lines) if l.startswith("record "))
    at = next(i for i in range(digest, len(lines)) if lines[i].startswith("T 2: "))
    lines[at] = "T 2: x"
    record = "\n".join(lines[digest + 1 :]) + "\n"
    lines[digest] = f"record sha256={hashlib.sha256(record.encode()).hexdigest()}"
    with pytest.raises(FormatError) as err:
        parse_census("\n".join(lines) + "\n")
    assert str(err.value) == f"line {at + 1}: bad circuit line 'T 2: x'"


def test_census_rejects_unknown_version():
    with pytest.raises(FormatError):
        parse_census("# kn3-census v9\n")


def test_parse_scheme_refuses_copy_zero_suffixes_at_m1(strong6):
    # At m = 1 the writer writes no copy suffix, so `#0` names no vertex.
    text = format_scheme(set_to_scheme(strong6))
    suffixed = text.replace("}", "}#0")
    assert suffixed.count("#0") == 20 + 2 * 60  # rot e{..} lines, rot 1..6 lines, sig lines
    first = suffixed.splitlines()[1].split()[2]  # the first token of `rot 1:`, on line 2
    with pytest.raises(FormatError) as err:
        parse_scheme(suffixed)
    assert str(err.value) == f"line 2: bad vertex token {first!r}"


@pytest.mark.parametrize(
    "kind,bad,token",
    [
        ("rot", "{line} e{{1,2,x}}", "e{1,2,x}"),
        ("sig", "sig 1 e{{1,2,x}}: +1", "e{1,2,x}"),
        # spellings of written names that the writer does not write
        ("rot", "{line} e{{1,2,3}}#0", "e{1,2,3}#0"),
        ("sig", "sig 1 e{{1,2,3}}#0: +1", "e{1,2,3}#0"),
        ("sig", "sig 01 e{{1,2,3}}: +1", "01"),
    ],
    ids=["rot-line", "sig-line", "rot-copy-zero", "sig-copy-zero", "sig-leading-zero"],
)
def test_parse_scheme_names_the_line_of_an_unknown_token(strong6, kind, bad, token):
    lines = format_scheme(set_to_scheme(strong6)).splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(f"{kind} 1"))
    lines[at] = bad.format(line=lines[at])
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert str(err.value) == f"line {at + 1}: bad vertex token {token!r}"


def test_parse_scheme_refuses_a_copy_index_its_rot_lines_cannot_hold(strong6):
    # The copy index sets the size of the Levi graph: it is checked against
    # the number of rot lines before the Levi graph is built.
    text = format_scheme(set_to_scheme(strong6)) + "rot e{1,2,3}#999: 1 2 3\n"
    graphs = build_levi.cache_info().currsize
    with pytest.raises(FormatError) as err:
        parse_scheme(text)
    assert str(err.value) == "rot lines do not match the Levi graph of the inferred (n, m)"
    assert build_levi.cache_info().currsize == graphs


def test_parse_scheme_refuses_a_head_past_the_copies_its_line_count_fixes(klein4x2):
    # The rot lines fix m = 2, so a head naming copy 5 is no Levi vertex.
    text = format_scheme(set_to_scheme(klein4x2))
    lines = text.splitlines(keepends=True)
    at = next(i for i, l in enumerate(lines) if l.startswith("rot e{1,2,3}#1:"))
    lines[at] = lines[at].replace("e{1,2,3}#1", "e{1,2,3}#5")
    with pytest.raises(FormatError) as err:
        parse_scheme("".join(lines))
    assert str(err.value) == (
        f"line {at + 1}: rot line for 'e{{1,2,3}}#5': not a Levi vertex"
    )


def _blocks(text):
    """The header, X rot lines, Y rot lines and sig lines of a written scheme."""
    header, *body = text.splitlines()
    y_rot = [l for l in body if l.startswith("rot e")]
    x_rot = [l for l in body if l.startswith("rot ") and l not in y_rot]
    return header, x_rot, y_rot, [l for l in body if l.startswith("sig ")]


@pytest.mark.parametrize("name", ["strong_6", "klein_4x2"])
def test_parse_scheme_reads_lines_in_any_order(name):
    text = format_scheme(set_to_scheme(fixture_set(name)))
    header, x_rot, y_rot, sig = _blocks(text)
    moved = "\n".join([header, *sig, "", *y_rot, " ", "", *x_rot, ""])
    written, back = parse_scheme(text), parse_scheme(moved)
    assert back.y_reversed == written.y_reversed == bytes(len(y_rot))
    assert back.x_rotations == written.x_rotations
    assert back.negative == written.negative
    assert format_scheme(back) == text


def test_parse_scheme_reports_a_bad_rot_line_before_an_earlier_bad_sig_line(strong6):
    header, x_rot, y_rot, sig = _blocks(format_scheme(set_to_scheme(strong6)))
    sig[0] = "sig 1 e{2,3,4}: +1"  # not a Levi edge
    x_rot[0] += " " + x_rot[0].split()[2]  # an edge listed twice
    lines = [header, *sig, *x_rot, *y_rot]
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert str(err.value) == f"line {len(sig) + 2}: rotation at 1 must list its 10 edges once each"


@pytest.mark.parametrize(
    "bare", ["sig \t", "rot  ", " sig"], ids=["sig-tab", "rot-spaces", "indented-sig"]
)
def test_parse_scheme_classifies_a_line_once_stripped(strong6, bare):
    # A kind word with only whitespace after it starts no rot or sig line.
    lines = format_scheme(set_to_scheme(strong6)).splitlines()
    lines.insert(3, bare)
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert str(err.value) == f"line 4: unexpected line {bare.strip()!r}"


def test_parse_scheme_keeps_sorted_y_rotations_implicit(strong6):
    text = format_scheme(set_to_scheme(strong6))
    assert parse_scheme(text).y_reversed == bytes(20)
    turned = text.replace("rot e{1,2,3}: 1 2 3", "rot e{1,2,3}: 3 2 1")
    sch = parse_scheme(turned)
    assert sch.y_reversed == b"\x01" + bytes(19)
    assert format_scheme(sch) == turned
    assert parse_scheme(turned) != parse_scheme(text)


@pytest.mark.parametrize(
    "order,turned", [("2 3 1", 0), ("3 1 2", 0), ("3 2 1", 1), ("1 3 2", 1), ("2 1 3", 1)]
)
def test_parse_scheme_keeps_a_y_rotation_as_its_orientation(strong6, order, turned):
    # A Y rotation is one of two cyclic orders; where a line starts it is not kept.
    text = format_scheme(set_to_scheme(strong6))
    sch = parse_scheme(text.replace("rot e{1,2,3}: 1 2 3", f"rot e{{1,2,3}}: {order}"))
    assert sch.y_reversed == bytes([turned]) + bytes(19)
    written = "3 2 1" if turned else "1 2 3"
    assert format_scheme(sch) == text.replace("rot e{1,2,3}: 1 2 3", f"rot e{{1,2,3}}: {written}")
    assert (sch == parse_scheme(text)) == (not turned)


def test_parse_scheme_holds_no_more_for_a_reversed_y_rotation():
    text = format_scheme(set_to_scheme(build_multi(20, 3, seed=1)))
    turned = text.replace("rot e{1,2,3}#0: 1 2 3", "rot e{1,2,3}#0: 3 2 1")
    assert turned != text and parse_scheme(turned).y_reversed[0] == 1
    assert live_bytes(parse_scheme, turned) <= 1.05 * live_bytes(parse_scheme, text)


@pytest.mark.parametrize(
    "old,new",
    [
        ("rot 2:", "rot x1:"),
        ("rot 2:", "rot 2"),
        # spellings of written names that the writer does not write
        ("rot 1:", "rot 01:"),
        ("rot 1:", "rot +1:"),
        ("rot 1:", "rot \u0661:"),  # an Arabic-Indic digit one
        ("rot e{1,2,3}:", "rot e{01,2,3}:"),
        ("rot e{1,2,3}:", "rot e{1,2,3}#0:"),
    ],
    ids=["letter", "no-colon", "leading-zero", "plus-sign", "arabic-indic-digit",
         "triple-leading-zero", "copy-zero"],
)
def test_parse_scheme_names_the_line_of_a_bad_rot_head(strong6, old, new):
    lines = format_scheme(set_to_scheme(strong6)).splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(old))
    lines[at] = lines[at].replace(old, new, 1)
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert err.value.line == at + 1
    # Without a colon the head runs to the end of the line.
    assert str(err.value).startswith(f"line {at + 1}: rot line for '{new[4:].rstrip(':')}")
    assert str(err.value).endswith("': not a Levi vertex")


def test_parse_scheme_keeps_no_tokens_per_line():
    # Formatting builds the (20, 1) Levi graph and name table the parser reads.
    text = format_scheme(set_to_scheme(build_multi(20, 1, seed=1)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parse_scheme(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 10 * len(text)


def test_parse_scheme_builds_no_levi_graph_for_a_text_too_short_for_it():
    # The line `rot 1:` of an (80, 1) file fixes (80, 1), whose Levi graph,
    # name table and line reader take over 10 MB; a text without the rest of
    # that file is refused by the general reader, before any of them is built.
    names = [f"e{{1,{j},{k}}}" for j, k in combinations(range(2, 81), 2)]
    text = f"{fileio.SCHEME_HEADER}\nrot 1: {' '.join(names)}\n"
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        with pytest.raises(FormatError) as err:
            parse_scheme(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert str(err.value) == "need rot lines for vertices 1..n with n >= 4, got n=1"
    assert peak < 20 * len(text)


def test_scheme_writer_holds_a_small_part_of_the_text():
    # `build --scheme-out` writes the chunks as they come; here a sink that
    # keeps nothing takes them.
    sch = set_to_scheme(build_multi(20, 3, orientable=False, seed=1))
    text = format_scheme(sch)
    assert "".join(fileio.scheme_chunks(sch)) == text
    assert peak_bytes(lambda: deque(fileio.scheme_chunks(sch), maxlen=0)) < len(text) / 4


def test_parse_scheme_reads_an_open_file_in_less_than_three_times_its_size(tmp_path):
    path = tmp_path / "20_3.kn3scheme"
    path.write_text(format_scheme(set_to_scheme(build_multi(20, 3, seed=1))), encoding="utf-8")

    def parse_file():
        with open(path, encoding="utf-8") as file:
            return parse_scheme(file)

    assert peak_bytes(parse_file) < 3 * path.stat().st_size


@pytest.mark.parametrize(
    "body,message",
    [
        ("n=1000000 m=1 orientable=1\nT 1: 2 3 4\n", "expected T lines for 1..1000000, got [1]"),
        (
            "n=4 m=2 orientable=1\n"
            + "".join(f"T {i}: 1 2 3 4 5 6\n" for i in range(1, 5))
            + "L 1: 0 0 0 1 1 1\n",
            "L lines must cover all circuits or none",
        ),
    ],
    ids=["T-lines", "L-lines"],
)
def test_parse_set_counts_the_lines_before_listing_1_to_n(body, message):
    # Three lines may claim a million circuits: they are refused without a
    # list of 1..n.
    text = f"{fileio.SET_HEADER}\n{body}"

    def refuse():
        with pytest.raises(FormatError) as err:
            parse_set(text)
        assert str(err.value) == message

    assert peak_bytes(refuse) < 100_000


class _Unseekable(io.StringIO):
    def seekable(self):
        return False


def test_parse_scheme_reads_an_open_file_as_its_text(tmp_path):
    text = format_scheme(set_to_scheme(build_multi(10, 3, orientable=False, seed=1)))
    path = tmp_path / "10_3.kn3scheme"
    path.write_text("preamble\n" + text, encoding="utf-8")
    with open(path, encoding="utf-8") as file:
        file.readline()  # read from where the file stands
        assert parse_scheme(file) == parse_scheme(text)
    assert parse_scheme(_Unseekable(text)) == parse_scheme(text)


def test_parse_scheme_joins_a_crlf_split_between_read_chunks(tmp_path):
    text = format_scheme(set_to_scheme(build_multi(10, 1, seed=1)))
    header, rest = text.split("\n", 1)
    # A blank line whose "\r" ends the first chunk read and whose "\n"
    # starts the second.
    blank = " " * (fileio._READ_CHARS - len(header) - 3)
    crlf = "\r\n".join([header, blank, *rest.splitlines()]) + "\r\n"
    assert crlf[fileio._READ_CHARS - 1 : fileio._READ_CHARS + 1] == "\r\n"
    assert parse_scheme(crlf) == parse_scheme(text)
    path = tmp_path / "crlf.kn3scheme"
    path.write_bytes(crlf.encode())
    with open(path, encoding="utf-8", newline="") as file:  # no newline translation
        assert parse_scheme(file) == parse_scheme(text)


LONG_RUN = "9" * 5000  # past Python's 4300-digit limit for int()


# A name is looked up, never parsed, so no digit run reaches `int()`.
@pytest.mark.parametrize(
    "old,new,message",
    [
        # a copy index on a rot head, where it sets m
        ("rot e{1,2,3}: ", f"rot e{{1,2,3}}#{LONG_RUN}: ",
         f"rot line for 'e{{1,2,3}}#{LONG_RUN}': not a Levi vertex"),
        ("rot e{1,2,3}: ", f"rot e{{1,2,{LONG_RUN}}}: ",  # a triple member on a rot head
         f"rot line for 'e{{1,2,{LONG_RUN}}}': not a Levi vertex"),
        ("rot 1: ", f"rot 1: e{{1,2,{LONG_RUN}}} ",  # ... in a rot token
         f"bad vertex token 'e{{1,2,{LONG_RUN}}}'"),
        ("rot 1: ", f"rot 1: e{{1,2,3}}#{LONG_RUN} ",  # a copy index in a rot token
         f"bad vertex token 'e{{1,2,3}}#{LONG_RUN}'"),
        ("sig 1 e{1,2,3}: ", f"sig 1 e{{1,2,3}}#{LONG_RUN}: ",  # ... on a sig line
         f"bad vertex token 'e{{1,2,3}}#{LONG_RUN}'"),
        ("sig 1 e{1,2,3}: ", f"sig 1 e{{{LONG_RUN},2,3}}: ",  # a triple member on a sig line
         f"bad vertex token 'e{{{LONG_RUN},2,3}}'"),
    ],
    ids=["rot-head-copy", "rot-head-triple", "rot-token-triple", "rot-token-copy",
         "sig-copy", "sig-triple"],
)
def test_parse_scheme_refuses_a_digit_run_too_long_for_an_int(strong6, old, new, message):
    text = format_scheme(set_to_scheme(strong6))
    at = next(i for i, l in enumerate(text.splitlines()) if l.startswith(old))
    with pytest.raises(FormatError) as err:
        parse_scheme(text.replace(old, new, 1))
    assert str(err.value) == f"line {at + 1}: {message}"


# Digests of written schemes that must stay byte-identical: they pin the Y
# names, the edge-id order and the sign of every edge the writer emits.
@pytest.mark.parametrize(
    "n,m,orientable,seed,digest",
    [
        (8, 1, True, 3, "eb8076f1f3bc4017dc8b1d9b8b3a31ba76ab036f52d606d57f2125815e9828b5"),
        (10, 3, False, 1, "8309b95988a25b08a6e57dcf3beb2f3178ea3cd758f2ab70e9650f7609a7859e"),
    ],
)
def test_written_scheme_is_pinned(n, m, orientable, seed, digest):
    text = format_scheme(set_to_scheme(build_multi(n, m, orientable, seed=seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert format_scheme(parse_scheme(text)) == text


# Built files whose Y rot and sig lines span more than one of the writer's
# chunks ((14, 1) and (10, 3) have over 256 Y vertices), at every m.
READER_CASES = [(14, 1), (8, 2), (10, 3)]


@pytest.fixture(scope="module", params=[
    (n, m, orientable) for n, m in READER_CASES for orientable in (True, False)
], ids=lambda p: "n%d-m%d-%s" % (p[0], p[1], "or" if p[2] else "non"))
def written(request):
    n, m, orientable = request.param
    return format_scheme(set_to_scheme(build_multi(n, m, orientable, seed=n + m)))


def _outcome(read, *args):
    """The scheme `read` returns, or the message and line of its refusal."""
    try:
        return read(*args)
    except FormatError as exc:
        return str(exc), exc.line


def _y_line(lines, rng):
    return rng.choice([i for i, line in enumerate(lines) if line.startswith("rot e")])


def _mutate(text: str, rng) -> str:
    """text with one to three random edits of the kinds a reader must tell
    apart from the writer's layout."""
    lines = text.split("\n")[:-1]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(11)
        at = rng.randrange(1, len(lines))
        if kind == 0:  # a reversed Y rotation
            i = _y_line(lines, rng)
            head, _, body = lines[i].partition(": ")
            lines[i] = f"{head}: {' '.join(body.split()[::-1])}"
        elif kind == 1:  # a Y rotation from another start
            i = _y_line(lines, rng)
            head, _, body = lines[i].partition(": ")
            words = body.split()
            lines[i] = f"{head}: {' '.join(words[1:] + words[:1])}"
        elif kind == 2:  # a flipped sign
            i = rng.choice([i for i, line in enumerate(lines) if line.startswith("sig ")])
            lines[i] = lines[i][:-2] + ("-1" if lines[i].endswith("+1") else "+1")
        elif kind == 3:  # two lines swapped
            other = rng.randrange(1, len(lines))
            lines[at], lines[other] = lines[other], lines[at]
        elif kind == 4:  # a blank line
            lines.insert(at, rng.choice(["", "  ", "\t"]))
        elif kind == 5:  # a bad token inside a Y rot or sig line
            sig = rng.randrange(len(lines) - 20, len(lines))
            i = _y_line(lines, rng) if rng.random() < 0.5 else sig
            words = lines[i].split(" ")
            words[rng.randrange(len(words))] = rng.choice(["x", "0", "e{1,2,3}#9", "+2", ""])
            lines[i] = " ".join(words)
        elif kind == 6:  # the last lines, or the last characters, cut off
            text = "\n".join(lines) + "\n"
            lines = text[: len(text) - rng.randrange(1, 200)].split("\n")
        elif kind == 7:  # a line given twice, or missing
            if rng.random() < 0.5:
                lines.insert(rng.randrange(1, len(lines)), lines[at])
            else:
                del lines[at]
        elif kind == 8:  # spaces around a line or its words
            lines[at] = rng.choice([" ", "", "\t"]) + lines[at].replace(" ", "  ", 1) + " "
        elif kind == 9:  # two tokens of an X rotation swapped: another scheme
            x = rng.randrange(1, 5)
            words = lines[x].split(" ")
            if len(words) > 3:
                i, j = rng.sample(range(2, len(words)), 2)
                words[i], words[j] = words[j], words[i]
            lines[x] = " ".join(words)
        else:  # another header
            lines[0] = rng.choice(["# kn3-scheme v2", " # kn3-scheme v1", ""])
    text = "\n".join(lines) + "\n"
    return text.replace("\n", "\r\n") if rng.random() < 0.1 else text


def test_fast_reader_takes_the_writers_layout(written):
    sch = fileio._read_as_written(written, None)
    assert sch is not None and format_scheme(sch) == written
    # A Y line of the last chunk reversed, or from another start, and a sign
    # flipped keep the fast path.
    lines = written.split("\n")
    y_at = max(i for i, line in enumerate(lines) if line.startswith("rot e"))
    sig_at = y_at + 7
    head, _, body = lines[y_at].partition(": ")
    a, b, c = body.split()
    for y_line in (f"{head}: {c} {b} {a}", f"{head}: {b} {c} {a}"):
        lines[y_at] = y_line
        lines[sig_at] = lines[sig_at][:-2] + ("-1" if lines[sig_at].endswith("+1") else "+1")
        text = "\n".join(lines)
        sch = fileio._read_as_written(text, None)
        assert sch is not None and sch == fileio._read_in_any_order(text, None)


def _blot(line: str, k: int) -> str:
    """line with its k-th word written as as many "x"s."""
    words = line.split(" ")
    words[k] = "x" * len(words[k])
    return " ".join(words)


# Edits of the line before the last of its kind, each keeping its length so
# that the batches stay aligned: (kind, the edited line from the lines and
# its index).
LINE_EDITS = {
    "y-token": ("rot e", lambda ls, i: _blot(ls[i], -1)),
    "y-head": ("rot e", lambda ls, i: ls[i].replace("rot e{", "rot f{", 1)),
    "y-line-twice": ("rot e", lambda ls, i: ls[i + 1]),
    "sig-value": ("sig ", lambda ls, i: ls[i][:-2] + "+2"),
    "sig-vertex": ("sig ", lambda ls, i: _blot(ls[i], 1)),
}


@pytest.mark.parametrize("edit", LINE_EDITS)
def test_fast_reader_leaves_a_bad_line_in_a_batch_to_the_general_reader(written, edit):
    kind, change = LINE_EDITS[edit]
    lines = written.split("\n")
    at = max(i for i, line in enumerate(lines) if line.startswith(kind)) - 1
    lines[at] = change(lines, at)
    text = "\n".join(lines)
    assert len(text) == len(written)
    with pytest.raises(FormatError) as general:
        fileio._read_in_any_order(text, None)
    with pytest.raises(FormatError) as err:
        parse_scheme(text)
    assert (str(err.value), err.value.line) == (str(general.value), general.value.line)


def test_fast_reader_leaves_a_batch_that_ends_inside_a_line_to_the_general_reader(written):
    # The last two Y lines lose a space each, and a blank line and an "x"
    # that starts the first sig line follow them: the batch keeps its
    # length but ends inside a line.
    lines = written.split("\n")
    at = max(i for i, line in enumerate(lines) if line.startswith("rot e"))
    lines[at - 1] = lines[at - 1].replace(": ", ":", 1)
    lines[at : at + 2] = [lines[at].replace(": ", ":", 1) + "\n\nx" + lines[at + 1]]
    text = "\n".join(lines)
    assert len(text) == len(written)
    with pytest.raises(FormatError) as err:
        parse_scheme(text)
    assert err.value.reason.startswith("unexpected line 'xsig 1 ")


@pytest.mark.parametrize("seed", range(40))
def test_fast_and_general_readers_agree_on_mutated_files(written, seed):
    rng = random.Random(f"{len(written)}:{seed}")
    text = _mutate(written, rng)
    general = _outcome(fileio._read_in_any_order, text, None)
    assert _outcome(parse_scheme, text) == general
    assert _outcome(parse_scheme, io.StringIO(text)) == general


@pytest.mark.parametrize("seed", range(8))
def test_fast_and_general_readers_agree_on_an_open_file(written, tmp_path, seed):
    rng = random.Random(f"file:{len(written)}:{seed}")
    text = written if seed == 0 else _mutate(written, rng)
    path = tmp_path / "mutated.kn3scheme"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as file:
        general = _outcome(fileio._read_in_any_order, file, 0)
    with open(path, encoding="utf-8") as file:
        assert _outcome(parse_scheme, file) == general
    if seed == 0:
        with open(path, encoding="utf-8") as file:
            assert fileio._read_as_written(file, 0) == general
