import json

import pytest

from kn3genus import fileio, fixture_set
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
    "labels,code,err",
    [
        ("0 0 1 1 0 5", 2, "error: line 7: L 1: copy label 5 outside 0..1\n"),
        ("0 0 0 0 0 0", 1, "error: circuit 1: pair {2,4} takes copy 0 twice\n"),
    ],
    ids=["out-of-range", "repeated"],
)
def test_verify_refuses_bad_copy_labels(tmp_path, capsys, labels, code, err):
    path = tmp_path / "multi.kn3set"
    argv = ("--n", "4", "--multiplicity", "2", "--nonorientable", "--out", str(path))
    assert run(capsys, "build", *argv)[0] == 0
    text = path.read_text()
    assert "\nL 1: 0 0 1 1 0 1\n" in text
    path.write_text(text.replace("L 1: 0 0 1 1 0 1", f"L 1: {labels}"))
    assert run(capsys, "verify", str(path))[::2] == (code, err)


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
    ["sig 1 e{2,3,4}: -1", "sig 1 e{1,2,3}: -1"],
    ids=["not-a-levi-edge", "second-sig-line"],
)
def test_genus_rejects_bad_sig_line(tmp_path, capsys, extra):
    from kn3genus import set_to_scheme

    text = fileio.format_scheme(set_to_scheme(fixture_set("strong_6")))
    path = tmp_path / "bad.kn3scheme"
    path.write_text(text + extra + "\n")
    code, _, err = run(capsys, "genus", str(path))
    assert code == 2
    assert f"line {len(text.splitlines()) + 1}" in err


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


@pytest.mark.parametrize("command", ["genus", "verify"])
def test_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "binary"
    path.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ") and "UTF-8" in err


@pytest.mark.parametrize(
    "argv", [("genus", "{dir}"), ("build", "--n", "6", "--out", "{dir}")], ids=["genus", "build"]
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
