import tracemalloc
from importlib import resources

import pytest

from kn3genus import (
    Circuit,
    CopyResolutionError,
    EmbeddingScheme,
    EmbeddingSet,
    FormatError,
    GraphMismatch,
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
from kn3genus.circuits import canonical_set_key
from kn3genus.fileio import format_scheme_ids, parse_scheme_ids
from kn3genus.levi import levi_edges


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
    # Labels in range that give one pair a copy twice parse, and are refused
    # when the family is read as a scheme.
    repeated = parse_set(text.replace("L 1: 0 0 1 1 0 1", "L 1: 0 0 0 0 0 0"))
    with pytest.raises(CopyResolutionError) as err:
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


def test_parse_set_rejects_corrupted_line(strong6):
    lines = format_set(strong6).splitlines()
    lines[3] = "T 2: 4 3 oops 6"
    with pytest.raises(FormatError) as err:
        parse_set("\n".join(lines))
    assert "line 4" in str(err.value)


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
    for broken in (
        EmbeddingScheme(sch.graph, rotation, sch.signature),  # no rotation at 3
        EmbeddingScheme(sch.graph, sch.rotation, signature),  # an edge without a sign
        # A rotation that misses one edge and repeats another, and one that
        # repeats an edge and misses none:
        EmbeddingScheme(sch.graph, {**sch.rotation, 1: (rot[1],) + rot[1:]}, sch.signature),
        EmbeddingScheme(sch.graph, {**sch.rotation, 1: rot + rot[:1]}, sch.signature),
    ):
        with pytest.raises(GraphMismatch):
            format_scheme(broken)


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


def test_census_rejects_unknown_version():
    with pytest.raises(FormatError):
        parse_census("# kn3-census v9\n")


def test_parse_scheme_reads_copy_zero_suffixes_at_m1(strong6):
    text = format_scheme(set_to_scheme(strong6))
    suffixed = text.replace("}", "}#0")
    assert suffixed.count("#0") == 20 + 2 * 60  # rot e{..} lines, rot 1..6 lines, sig lines
    assert parse_scheme(suffixed) == parse_scheme(text)


@pytest.mark.parametrize(
    "kind,bad",
    [("rot", "{line} e{{1,2,x}}"), ("sig", "sig 1 e{{1,2,x}}: +1")],
    ids=["rot-line", "sig-line"],
)
def test_parse_scheme_names_the_line_of_an_unknown_token(strong6, kind, bad):
    lines = format_scheme(set_to_scheme(strong6)).splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(f"{kind} 1"))
    lines[at] = bad.format(line=lines[at])
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert str(err.value) == f"line {at + 1}: bad vertex token 'e{{1,2,x}}'"


def test_parse_scheme_refuses_a_copy_index_its_rot_lines_cannot_hold(strong6):
    # The copy index sets the size of the Levi graph: it is checked against
    # the number of rot lines before the graph's edge table is built.
    text = format_scheme(set_to_scheme(strong6)) + "rot e{1,2,3}#999: 1 2 3\n"
    tables = levi_edges.cache_info().currsize
    with pytest.raises(FormatError) as err:
        parse_scheme(text)
    assert str(err.value) == "rot lines do not match the Levi graph of the inferred (n, m)"
    assert levi_edges.cache_info().currsize == tables


def _blocks(text):
    """The header, X rot lines, Y rot lines and sig lines of a written scheme."""
    header, *body = text.splitlines()
    y_rot = [l for l in body if l.startswith("rot e")]
    x_rot = [l for l in body if l.startswith("rot ") and l not in y_rot]
    return header, x_rot, y_rot, [l for l in body if l.startswith("sig ")]


@pytest.mark.parametrize("name", ["strong_6", "klein_4x2"])
def test_parse_scheme_ids_reads_lines_in_any_order(name):
    text = format_scheme(set_to_scheme(fixture_set(name)))
    header, x_rot, y_rot, sig = _blocks(text)
    moved = "\n".join([header, *sig, "", *y_rot, " ", "", *x_rot, ""])
    written, back = parse_scheme_ids(text), parse_scheme_ids(moved)
    assert back.y_rotations is None and written.y_rotations is None
    assert back.x_rotations == written.x_rotations
    assert back.negative == written.negative
    assert format_scheme_ids(back) == text


def test_parse_scheme_reports_a_bad_rot_line_before_an_earlier_bad_sig_line(strong6):
    header, x_rot, y_rot, sig = _blocks(format_scheme(set_to_scheme(strong6)))
    sig[0] = "sig 1 e{2,3,4}: +1"  # not a Levi edge
    x_rot[0] += " " + x_rot[0].split()[2]  # an edge listed twice
    lines = [header, *sig, *x_rot, *y_rot]
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert str(err.value) == f"line {len(sig) + 2}: rotation at 1 must list its 10 edges once each"


def test_parse_scheme_ids_keeps_sorted_y_rotations_implicit(strong6):
    text = format_scheme(set_to_scheme(strong6))
    assert parse_scheme_ids(text).y_rotations is None
    turned = text.replace("rot e{1,2,3}: 1 2 3", "rot e{1,2,3}: 3 2 1")
    ids = parse_scheme_ids(turned)
    assert ids.y_rotations == [[2, 1, 0]] + [[k, k + 1, k + 2] for k in range(3, 60, 3)]
    assert format_scheme_ids(ids) == turned
    assert parse_scheme(turned) != parse_scheme(text)


@pytest.mark.parametrize("new", ["rot x1:", "rot 2"], ids=["letter", "no-colon"])
def test_parse_scheme_names_the_line_of_a_bad_rot_head(strong6, new):
    lines = format_scheme(set_to_scheme(strong6)).splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith("rot 2:"))
    lines[at] = lines[at].replace("rot 2:", new, 1)
    with pytest.raises(FormatError) as err:
        parse_scheme("\n".join(lines))
    assert err.value.line == at + 1
    assert str(err.value).startswith(f"line {at + 1}: bad vertex name: invalid literal for int()")


def test_parse_scheme_ids_keeps_no_tokens_per_line():
    # Formatting builds the (20, 1) edge and name tables the parser reads.
    text = format_scheme(set_to_scheme(build_multi(20, 1, seed=1)))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        parse_scheme_ids(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 10 * len(text)
