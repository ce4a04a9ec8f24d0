"""The file boundary: every mutated file is accepted or refused cleanly.

Family, scheme and census files written by the library are mutated line-
and token-wise (dropped, duplicated, corrupted or shuffled); scheme files
also take edits that keep them valid, so that some of them parse.  The library
must read and check each one or refuse it with a `Kn3Error`.  Every family
file that parses gets a report: `verify_family` raises nothing, and `verify
--json` exits 0 or 1 and prints one JSON object whose `pass` matches the
exit code.  `verify` exits 2 for a file that `parse_set` refuses.  `genus`
must exit 0 for a scheme file that parses and 2 for one that `parse_scheme`
refuses.  `parse_census` refuses a census file with nothing but
`FormatError`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout, suppress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kn3genus import (
    FormatError,
    Kn3Error,
    build_even,
    build_multi,
    format_census,
    format_scheme,
    format_set,
    parse_census,
    parse_scheme,
    parse_set,
    scheme_to_set,
    set_to_scheme,
    trace_faces,
)
from kn3genus.cli import main
from kn3genus.scheme import verify_family

SEEDS = [
    format_set(build_multi(6, 1, seed=1)),
    format_set(build_multi(4, 2, orientable=False)),
    format_set(build_multi(6, 2, seed=1)),
]

TOKENS = [
    "", "0", "1", "2", "3", "-1", "7", "99", "x", "T", "L", ":", "1:", "n=4", "m=3", "orientable=2",
]

SCHEME_SEEDS = [
    format_scheme(set_to_scheme(build_multi(6, 1, seed=1))),
    format_scheme(set_to_scheme(build_multi(4, 2, orientable=False))),
    format_scheme(set_to_scheme(build_multi(6, 1, orientable=False, seed=1))),
]

SCHEME_TOKENS = [
    "", "0", "1", "4", "7", "-1", "+1", "x", "rot", "sig", ":", "1:", "e{1,2,3}", "e{1,2,3}#0",
    "e{1,2,3}#1", "e{1,2,3}#9", "e{3,2,1}", "e{1,2}", "e{1,2,99}", "e{1,2,3}:", "e{2,3,4}#1:",
    # spellings of written names that the writer does not write
    "01", "\u0661", "e{01,2,3}", "e{1,2,3}#00",
    # digit runs past Python's 4300-digit limit for int()
    "e{1,2,3}#" + "9" * 5000, "e{1,2,3}#" + "9" * 5000 + ":", "e{1,2," + "9" * 5000 + "}",
]

CENSUS_SEEDS = [format_census([build_even(6, True, seed=1), build_even(6, False, seed=2)])]

CENSUS_TOKENS = TOKENS + ["record", "sha256=0", "record sha256=" + "0" * 64]


@st.composite
def mutated(draw, seeds, pool, keeping=False):
    """A file of `seeds` with 1 to 4 line or token edits, new tokens from `pool`.

    With `keeping`, an edit may also be one that keeps a scheme file valid:
    permute the three vertices of a Y rot line, rotate the edges of an X rot
    line, or flip a sig value.  Half of those files take no other edit.
    """
    lines = [line.split(" ") for line in draw(st.sampled_from(seeds)).splitlines()]
    kinds = ["drop", "duplicate", "shuffle", "token"]
    if keeping:
        kinds = draw(st.sampled_from([["keep"], kinds + ["keep"]]))
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(kinds))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "keep":
            tokens = lines[at]
            if len(tokens) < 3:  # the header, or a line an earlier edit cut short
                continue
            if tokens[0] == "sig":
                tokens[-1] = {"+1": "-1", "-1": "+1"}.get(tokens[-1], tokens[-1])
            elif tokens[0] == "rot" and tokens[1].startswith("e{"):
                tokens[2:] = draw(st.permutations(tokens[2:]))
            elif tokens[0] == "rot":
                k = draw(st.integers(0, len(tokens) - 3))
                tokens[2:] = tokens[2 + k:] + tokens[2:2 + k]
        elif kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, list(lines[at]))
        elif kind == "shuffle":
            lines = draw(st.permutations(lines))
        else:
            tokens = lines[at]
            if not tokens:  # an earlier edit dropped this line's last token
                continue
            k = draw(st.integers(0, len(tokens) - 1))
            edit = draw(st.sampled_from(["drop", "duplicate", "corrupt", "shuffle"]))
            if edit == "drop":
                del tokens[k]
            elif edit == "duplicate":
                tokens.insert(k, tokens[k])
            elif edit == "corrupt":
                tokens[k] = draw(st.sampled_from(pool))
            else:
                lines[at] = draw(st.permutations(tokens))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@pytest.fixture(scope="module")
def file_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "mutated.txt"


def run_cli(*argv) -> tuple[int, str]:
    """Exit code and stdout of the CLI."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=60, deadline=None)
@given(text=mutated(SEEDS, TOKENS))
@example(text=SEEDS[1].replace("L 1: 0 0 1 1 0 1", "L 1: 0 0 0 0 0 0"))
def test_mutated_family_files_are_accepted_or_refused(file_path, text):
    try:
        s = parse_set(text)
    except FormatError:
        s = None
    file_path.write_text(text)
    if s is None:
        assert run_cli("verify", "--json", str(file_path)) == (2, "")
        return
    verify_family(s)
    code, out = run_cli("verify", "--json", str(file_path))
    assert code in (0, 1)
    assert json.loads(out)["pass"] == (code == 0)


@settings(max_examples=60, deadline=None)
@given(text=mutated(SCHEME_SEEDS, SCHEME_TOKENS, keeping=True))
@example(text=SCHEME_SEEDS[0].replace("rot e{1,2,3}: 1 2 3", "rot e{1,2,3}: 2 1 3"))
def test_mutated_scheme_files_are_accepted_or_refused(file_path, text):
    try:
        sch = parse_scheme(text)
    except FormatError:
        sch = None
    if sch is not None:
        trace_faces(sch)
        with suppress(Kn3Error):
            scheme_to_set(sch)
    file_path.write_text(text)
    assert run_cli("genus", str(file_path))[0] == (2 if sch is None else 0)


@settings(max_examples=60, deadline=None)
@given(text=mutated(CENSUS_SEEDS, CENSUS_TOKENS))
def test_mutated_census_files_are_accepted_or_refused(text):
    with suppress(FormatError):
        parse_census(text)
