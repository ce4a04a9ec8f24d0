import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kn3genus
from kn3genus import FormatError, build_multi, fileio, fixture_set, set_to_scheme, trace_faces
from kn3genus.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_formula_even(capsys):
    code, out, _ = run(capsys, "formula", "--n", "6")
    assert code == 0
    assert "orientable genus: 3" in out
    assert "non-orientable genus: 6" in out


def test_formula_odd(capsys):
    code, out, _ = run(capsys, "formula", "--n", "7")
    assert code == 0
    assert "lower bound: 13" in out
    assert "out of scope (odd" in out


def test_formula_planar_case(capsys):
    code, out, _ = run(capsys, "formula", "--n", "4")
    assert code == 0
    assert "undefined (planar)" in out


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--n", "12", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["orientable_genus"] == 50
    assert data["nonorientable_genus"] == 100


def test_build_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "k8.kn3set"
    code, out, _ = run(capsys, "build", "--n", "8", "--out", str(path))
    assert code == 0
    assert "orientable genus 11" in out
    code, out, _ = run(capsys, "verify", str(path), "--strict-strong")
    assert code == 0
    assert "result: PASS" in out


def test_build_multi_json(capsys):
    code, out, _ = run(
        capsys, "build", "--n", "4", "--multiplicity", "2", "--nonorientable", "--json"
    )
    data = json.loads(out)
    assert code == 0
    assert data["crosscap"] == 2
    assert data["euler_genus"] == 2


def test_build_rejects_odd_order(capsys):
    code, _, err = run(capsys, "build", "--n", "7")
    assert code == 1
    assert "even" in err


def test_verify_strict_strong_fails_on_nonorientable(tmp_path, capsys):
    path = tmp_path / "n6.kn3set"
    path.write_text(fileio.format_set(fixture_set("nonorientable_6")))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "strong: FAIL" in out
    code, out, _ = run(capsys, "verify", str(path), "--strict-strong")
    assert code == 1
    assert "result: FAIL" in out
    assert "pair" in out


def test_verify_reports_genus(tmp_path, capsys):
    path = tmp_path / "s6.kn3set"
    path.write_text(fileio.format_set(fixture_set("strong_6")))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "euler genus 6" in out and "orientable" in out


def test_verify_incompatible_family_fails(tmp_path, capsys):
    s = fixture_set("strong_6")
    lines = fileio.format_set(s).splitlines()
    # swap two values inside one circuit: parses fine, fails verification
    parts = lines[3].split()
    parts[2], parts[6] = parts[6], parts[2]
    lines[3] = " ".join(parts)
    path = tmp_path / "broken.kn3set"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "FAIL" in out


def test_verify_names_the_incompatible_pair(tmp_path, capsys):
    lines = fileio.format_set(fixture_set("strong_6")).splitlines()
    # swap the values 2 and 4 in T_1: still Eulerian, no longer compatible
    label, values = lines[2].split(": ")
    swap = {"2": "4", "4": "2"}
    lines[2] = label + ": " + " ".join(swap.get(v, v) for v in values.split())
    path = tmp_path / "swapped.kn3set"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert out.splitlines()[:3] == [
        "eulerian: PASS",
        "compatible: FAIL (pair (1,2) not compatible)",
        "strong: FAIL (skipped)",
    ]


# Its passes pair up when their copies are left out, but the copies leave
# the corners of T_3 and T_4 unpaired: not compatible, and its scheme has a
# face of length 8.
UNPAIRED_COPIES = """\
# kn3-embedding-set v1
n=4 m=2 orientable=1
T 1: 2 3 4 3 2 4
T 2: 1 3 4 1 3 4
T 3: 1 2 4 1 2 4
T 4: 1 2 3 1 3 2
L 1: 0 1 0 1 0 1
L 2: 1 1 1 0 0 0
L 3: 1 1 1 0 0 0
L 4: 1 1 0 1 0 0
"""

# STRONG_WITHOUT_PARITY of tests/test_family_properties.py: quadrilateral
# and non-orientable, strong only when the copies are left out.
STRONG_WITHOUT_COPIES = """\
# kn3-embedding-set v1
n=4 m=2 orientable=0
T 1: 2 3 2 4 3 4
T 2: 1 4 1 3 4 3
T 3: 4 2 1 2 4 1
T 4: 3 1 2 1 3 2
L 1: 0 1 1 0 1 0
L 2: 1 0 0 0 1 1
L 3: 0 0 1 1 1 0
L 4: 0 1 0 1 1 0
"""


def test_verify_fails_copies_that_leave_corners_unpaired(tmp_path, capsys):
    path = tmp_path / "unpaired.kn3set"
    path.write_text(UNPAIRED_COPIES)
    assert run(capsys, "verify", str(path)) == (1, (
        "eulerian: PASS\n"
        "compatible: FAIL (pair (3,4) not compatible)\n"
        "strong: FAIL (skipped)\n"
        "quadrilateral: FAIL (skipped)\n"
        "genus: FAIL (skipped)\n"
        "result: FAIL\n"
    ), "")
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 1
    assert json.loads(out) == {
        "eulerian": True, "compatible": False, "strong": False, "quadrilateral": False,
        "genus": False, "euler_genus": None, "orientable": None, "pass": False,
    }


def test_verify_strict_strong_fails_a_family_strong_only_without_copies(tmp_path, capsys):
    path = tmp_path / "strong-without-copies.kn3set"
    path.write_text(STRONG_WITHOUT_COPIES)
    code, out, _ = run(capsys, "verify", str(path), "--strict-strong")
    assert code == 1
    assert out.splitlines() == [
        "eulerian: PASS",
        "compatible: PASS",
        "strong: FAIL (pair (1,2) not strongly compatible at transition (4,2,3))",
        "quadrilateral: PASS (12 faces, lengths {4: 12})",
        "genus: PASS (euler genus 2, lower bound 2, non-orientable)",
        "result: FAIL",
    ]
    code, out, _ = run(capsys, "verify", str(path), "--strict-strong", "--json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["strong"], payload["orientable"], payload["pass"]) == (False, False, False)
    # Without --strict-strong the non-orientable family verifies.
    assert run(capsys, "verify", str(path))[0] == 0


@pytest.mark.parametrize(
    "meta,key",
    [("n=8 n=6 m=1 orientable=1", "n"), ("n=6 m=1 orientable=0 orientable=1", "orientable")],
)
def test_verify_refuses_a_repeated_metadata_key(tmp_path, capsys, meta, key):
    lines = fileio.format_set(fixture_set("strong_6")).splitlines(keepends=True)
    lines[1] = meta + "\n"
    path = tmp_path / "repeated.kn3set"
    path.write_text("".join(lines))
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: line 2: metadata key '{key}' given twice\n"
    )


def test_verify_refuses_an_unknown_metadata_key(tmp_path, capsys):
    lines = fileio.format_set(fixture_set("strong_6")).splitlines(keepends=True)
    lines[1] = "n=6 m=1 orientable=1 colour=red =5\n"
    path = tmp_path / "unknown.kn3set"
    path.write_text("".join(lines))
    assert run(capsys, "verify", str(path)) == (
        2, "", "error: line 2: unknown metadata key 'colour'\n"
    )


def test_verify_corrupted_file(tmp_path, capsys):
    path = tmp_path / "bad.kn3set"
    path.write_text("# kn3-embedding-set v1\nn=4 m=1 orientable=1\nT 1: 2 zz 4\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize(
    "argv",
    [("--n", "4", "--multiplicity", "2", "--nonorientable"), ("--n", "6", "--multiplicity", "2")],
    ids=["4x2-nonorientable", "6x2-orientable"],
)
def test_verify_refuses_multi_build_without_label_lines(tmp_path, capsys, argv):
    path = tmp_path / "multi.kn3set"
    code, _, _ = run(capsys, "build", *argv, "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith("L ")))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert err == "error: line 2: m=2 needs L lines, the copy label of every traversed edge\n"


@pytest.mark.parametrize(
    "labels,code,out,err",
    [
        ("0 0 1 1 0 5", 2, "", "error: line 7: L 1: copy label 5 outside 0..1\n"),
        (
            "0 0 0 0 0 0",
            1,
            "eulerian: FAIL (circuit 1: pair {2,4} takes copy 0 twice)\n"
            "compatible: FAIL (skipped)\n"
            "strong: FAIL (skipped)\n"
            "quadrilateral: FAIL (skipped)\n"
            "genus: FAIL (skipped)\n"
            "result: FAIL\n",
            "",
        ),
    ],
    ids=["out-of-range", "repeated"],
)
def test_verify_refuses_bad_copy_labels(tmp_path, capsys, labels, code, out, err):
    path = tmp_path / "multi.kn3set"
    argv = ("--n", "4", "--multiplicity", "2", "--nonorientable", "--out", str(path))
    assert run(capsys, "build", *argv)[0] == 0
    text = path.read_text()
    assert "\nL 1: 0 0 1 1 0 1\n" in text
    path.write_text(text.replace("L 1: 0 0 1 1 0 1", f"L 1: {labels}"))
    assert run(capsys, "verify", str(path)) == (code, out, err)


def test_verify_checks_lengths_before_building_a_levi_graph_of_size_m(tmp_path, capsys):
    # A few bytes may claim any m; the Levi graph, of size m, must not be built
    # for circuits whose lengths already fail.
    from kn3genus.levi import build_levi

    path = tmp_path / "huge_m.kn3set"
    circuits = ["2 3 4", "1 3 4", "1 2 4", "1 2 3"]
    path.write_text(
        "# kn3-embedding-set v1\nn=4 m=400000 orientable=1\n"
        + "".join(f"T {i}: {seq}\n" for i, seq in enumerate(circuits, 1))
        + "".join(f"L {i}: 0 0 0\n" for i in range(1, 5))
    )
    graphs = build_levi.cache_info().currsize
    assert run(capsys, "verify", str(path)) == (
        1,
        "eulerian: FAIL (circuit 1: length 3 != expected 1200000 (m*C(n-1,2) with n=4, m=400000))\n"
        "compatible: FAIL (skipped)\n"
        "strong: FAIL (skipped)\n"
        "quadrilateral: FAIL (skipped)\n"
        "genus: FAIL (skipped)\n"
        "result: FAIL\n",
        "",
    )
    assert build_levi.cache_info().currsize == graphs


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/does/not/exist.kn3set")
    assert code == 2


def test_genus_command(tmp_path, capsys):
    scheme_path = tmp_path / "k6.kn3scheme"
    code, out, _ = run(
        capsys, "build", "--n", "6", "--nonorientable",
        "--out", str(tmp_path / "k6.kn3set"), "--scheme-out", str(scheme_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "genus", str(scheme_path))
    assert code == 0
    assert "euler genus: 6" in out
    assert "orientable: no" in out
    assert "{4: 30}" in out


def test_genus_histogram_reflects_mixed_lengths(tmp_path, capsys):
    import random

    from kn3genus import set_to_scheme, trace_faces
    from test_scheme import perturb

    sch = set_to_scheme(fixture_set("strong_6"))
    rng = random.Random(4)
    while trace_faces(sch).all_quadrilateral:
        sch = perturb(sch, rng)
    path = tmp_path / "mixed.kn3scheme"
    path.write_text(fileio.format_scheme(sch))
    code, out, _ = run(capsys, "genus", str(path))
    assert code == 0
    hist = trace_faces(sch).length_histogram()
    assert len(hist) > 1
    assert str(dict(sorted(hist.items()))) in out


def test_enumerate_writes_census(tmp_path, capsys):
    out_path = tmp_path / "census.txt"
    code, out, _ = run(
        capsys, "enumerate", "--n", "6", "--count", "6", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    assert "found 6" in out
    families = fileio.parse_census(out_path.read_text())
    assert len(families) == 6
    # records are written rotation-canonically and still verify strongly
    from kn3genus import is_embedding_set

    for s in families:
        assert is_embedding_set(s, require_strong=True).ok
        for c in s.circuits:
            assert all(c.seq <= c.rotated(off).seq for off in range(len(c.seq)))


def test_enumerate_json_counts_attempts_duplicates_and_rejections(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "6", "--count", "6", "--seed", "1", "--json")
    payload = json.loads(out)
    assert code == 0
    counts = [payload[key] for key in ("found", "attempts", "duplicates", "rejected")]
    assert counts == [6, 9, 3, 0]


def test_enumerate_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(capsys, "enumerate", "--n", "6", "--count", "5", "--seed", "9", "--out", str(a))
    run(capsys, "enumerate", "--n", "6", "--count", "5", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["build", "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "old,new",
    [
        ("rot e{1,2,3}: 1 2 3", "rot e{1,2,3}: x 2 3"),  # not a vertex label
        ("rot 1: ", "rot 1: e{2,3,4} "),  # an edge that does not meet vertex 1
        ("rot 1: ", "rot x1: "),  # a head that names no vertex
        ("rot 1: ", "rot 1 "),  # a head without its colon
    ],
    ids=["bad-label", "extra-edge", "bad-head", "no-colon"],
)
def test_genus_rejects_rotation_off_graph(tmp_path, capsys, old, new):
    from kn3genus import set_to_scheme

    text = fileio.format_scheme(set_to_scheme(fixture_set("strong_6")))
    assert old in text
    path = tmp_path / "bad.kn3scheme"
    path.write_text(text.replace(old, new, 1))
    code, _, err = run(capsys, "genus", str(path))
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize(
    "extra",
    ["sig 1 e{2,3,4}: -1", "sig 1 e{1,2,3}: -1", "sig 01 e{1,2,3}: -1"],
    ids=["not-a-levi-edge", "second-sig-line", "leading-zero"],
)
def test_genus_rejects_bad_sig_line(tmp_path, capsys, extra):
    from kn3genus import set_to_scheme

    text = fileio.format_scheme(set_to_scheme(fixture_set("strong_6")))
    path = tmp_path / "bad.kn3scheme"
    path.write_text(text + extra + "\n")
    code, _, err = run(capsys, "genus", str(path))
    assert code == 2
    assert f"line {len(text.splitlines()) + 1}" in err


def test_genus_refuses_a_digit_run_too_long_for_an_int(tmp_path, capsys):
    from kn3genus import set_to_scheme

    text = fileio.format_scheme(set_to_scheme(fixture_set("strong_6")))
    at = text.splitlines().index("sig 1 e{1,2,3}: +1") + 1
    path = tmp_path / "long.kn3scheme"
    path.write_text(text.replace("sig 1 e{1,2,3}:", "sig 1 e{1,2,3}#" + "9" * 5000 + ":"))
    code, _, err = run(capsys, "genus", str(path))
    assert code == 2
    assert err == f"error: line {at}: bad vertex token 'e{{1,2,3}}#{'9' * 5000}'\n"


def test_genus_refuses_order_below_4(tmp_path, capsys):
    path = tmp_path / "k3.kn3scheme"
    path.write_text(
        "# kn3-scheme v1\nrot 1: e{1,2,3}\nrot 2: e{1,2,3}\nrot 3: e{1,2,3}\n"
        "rot e{1,2,3}: 1 2 3\nsig 1 e{1,2,3}: +1\nsig 2 e{1,2,3}: +1\nsig 3 e{1,2,3}: +1\n"
    )
    code, _, err = run(capsys, "genus", str(path))
    assert code == 2
    assert "n >= 4" in err


@pytest.mark.parametrize("meta", ["n=6 m=0 orientable=1", "n=2 m=1 orientable=1"])
def test_verify_rejects_degenerate_order_or_multiplicity(tmp_path, capsys, meta):
    lines = fileio.format_set(fixture_set("strong_6")).splitlines()
    lines[1] = meta
    path = tmp_path / "bad.kn3set"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("argv", [(), ("--strict-strong",), ("--json",)])
def test_verify_refuses_an_orientable_flag_other_than_0_or_1(tmp_path, capsys, argv):
    lines = fileio.format_set(fixture_set("strong_6")).splitlines()
    lines[1] = "n=6 m=1 orientable=7"
    path = tmp_path / "bad.kn3set"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "verify", *argv, str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: orientable must be 0 or 1, got 7\n"


def _scheme_with_a_late_byte(refused: bool) -> bytes:
    """A (16, 1) scheme file whose only byte that is not UTF-8 ends its last
    line, past the first chunk the reader reads; with `refused`, its second
    line is malformed too."""
    lines = fileio.format_scheme(set_to_scheme(build_multi(16, 1, seed=1))).splitlines()
    if refused:
        lines[1] = "bogus"
    data = "\n".join(lines).encode() + b"\xff\n"
    assert len(data) > 2 * fileio._READ_CHARS
    return data


@pytest.mark.parametrize(
    "command,late",
    [("genus", None), ("verify", None), ("genus", "valid"), ("genus", "refused")],
    ids=["genus", "verify", "genus-late-byte", "genus-late-byte-after-a-bad-line"],
)
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command, late):
    # A scheme file is read a chunk at a time, and still read to its end
    # when a line is refused, so a decoding fault anywhere is reported.
    path = tmp_path / "binary"
    if late is None:
        path.write_bytes(b"\xff\xfe\x00")
    else:
        path.write_bytes(_scheme_with_a_late_byte(refused=late == "refused"))
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith(f"error: {path} is not UTF-8 text: ")


@pytest.mark.parametrize(
    "command,line,refusal",
    [("genus", "rot 1:", "rot line for '1\\xe9'"), ("verify", "T 1:", "bad circuit line")],
    ids=["genus", "verify"],
)
def test_files_are_read_as_utf8_in_any_locale(tmp_path, command, line, refusal):
    # In the C locale, with UTF-8 mode and locale coercion off, the locale's
    # encoding is ASCII: a file read in it would refuse the "é" below as
    # not UTF-8, where the head that holds it is what is wrong.
    if command == "genus":
        text = fileio.format_scheme(set_to_scheme(fixture_set("strong_6")))
    else:
        text = fileio.format_set(fixture_set("strong_6"))
    lines = text.splitlines()
    at = next(i for i, l in enumerate(lines) if l.startswith(line))
    lines[at] = lines[at].replace(line, line[:-1] + "\u00e9:", 1)
    path = tmp_path / "accented"
    path.write_bytes("\n".join(lines).encode())
    src = str(Path(kn3genus.__file__).parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "kn3genus", command, str(path)],
        env=env, capture_output=True, text=True, encoding="ascii", errors="replace",
    )
    assert proc.returncode == 2
    # The ASCII stderr of the C locale escapes the "é" of the head.
    assert proc.stderr.startswith(f"error: line {at + 1}: {refusal}")
    assert "UTF-8" not in proc.stderr


@pytest.mark.parametrize("ending", ["\r\n", "\r", "\f", "\u2028"], ids=["crlf", "cr", "ff", "ls"])
def test_genus_on_a_file_splits_lines_as_parse_scheme_does(tmp_path, capsys, ending):
    # Lines end at "\n", "\r\n" and "\r", in a text as in a file: the form
    # feed and the line separator end no line, so the text is one line.
    text = ending.join(fileio.format_scheme(set_to_scheme(fixture_set("strong_6"))).splitlines())
    path = tmp_path / "scheme"
    path.write_bytes(text.encode())
    code, out, err = run(capsys, "genus", "--json", str(path))
    try:
        report = trace_faces(fileio.parse_scheme(text))
    except FormatError as exc:
        assert (code, out, err) == (2, "", f"error: {exc}\n")
        assert ending in ("\f", "\u2028")
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["face_count"] == report.face_count
        assert ending in ("\r\n", "\r")


@pytest.mark.parametrize(
    "argv",
    [
        ("genus", "{dir}"),
        ("build", "--n", "6", "--out", "{dir}"),
        ("build", "--n", "6", "--scheme-out", "{dir}"),
    ],
    ids=["genus", "build", "build-scheme-out"],
)
def test_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    code, _, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert err.startswith("error: ")


def test_enumerate_refuses_a_negative_count(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--n", "6", "--count", "-1"])
    assert err.value.code == 2
    assert "--count" in capsys.readouterr().err


SMALL = st.integers(min_value=-3, max_value=12).map(str)
# Digit runs past Python's 4300-digit int limit included; only `formula` gets them.
MANY_DIGITS = st.builds(
    lambda sign, digit, length: sign + digit * length,
    st.sampled_from(["", "-"]),
    st.sampled_from("123456789"),
    st.integers(min_value=1, max_value=5000),
)


@st.composite
def integer_argvs(draw):
    command = draw(st.sampled_from(["build", "enumerate", "formula"]))
    if command == "formula":
        number = st.one_of(SMALL, MANY_DIGITS)
        argv = ["formula", "--n", draw(number), "--multiplicity", draw(number)]
    else:
        argv = [command, "--n", draw(SMALL), draw(st.sampled_from(["--orientable", "--nonorientable"]))]
        option = "--multiplicity" if command == "build" else "--count"
        argv += [option, str(draw(st.integers(min_value=-2, max_value=3)))]
        seed = draw(st.none() | st.integers(min_value=-5, max_value=5))
        if seed is not None:
            argv += ["--seed", str(seed)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=60, deadline=None)
@given(integer_argvs())
def test_main_exits_0_1_or_2_on_any_integer_arguments(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a value it cannot read
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
