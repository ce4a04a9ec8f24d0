"""The family-file boundary: every mutated file is accepted or refused cleanly.

Family files written by `build` are mutated line- and token-wise (dropped,
duplicated, corrupted or shuffled).  The library must read and check each
one or refuse it with a `Kn3Error`, and `verify` must exit 0 or 1 for a
file that parses, 2 for one that `parse_set` refuses with `FormatError`,
and 1 for any other refusal.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kn3genus import FormatError, Kn3Error, build_multi, format_set, parse_set
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


@st.composite
def mutated_families(draw):
    lines = [line.split(" ") for line in draw(st.sampled_from(SEEDS)).splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            break
        kind = draw(st.sampled_from(["drop", "duplicate", "shuffle", "token"]))
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, list(lines[at]))
        elif kind == "shuffle":
            lines = draw(st.permutations(lines))
        else:
            tokens = lines[at]
            k = draw(st.integers(0, len(tokens) - 1))
            edit = draw(st.sampled_from(["drop", "duplicate", "corrupt", "shuffle"]))
            if edit == "drop":
                del tokens[k]
            elif edit == "duplicate":
                tokens.insert(k, tokens[k])
            elif edit == "corrupt":
                tokens[k] = draw(st.sampled_from(TOKENS))
            else:
                lines[at] = draw(st.permutations(tokens))
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@pytest.fixture(scope="module")
def family_path(tmp_path_factory):
    return tmp_path_factory.mktemp("boundary") / "family.kn3set"


@settings(max_examples=60, deadline=None)
@given(text=mutated_families())
def test_mutated_family_files_are_accepted_or_refused(family_path, text):
    refused = None
    try:
        verify_family(parse_set(text))
    except FormatError:
        refused = FormatError
    except Kn3Error:
        refused = Kn3Error
    family_path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["verify", str(family_path)])
    assert code in {None: (0, 1), FormatError: (2,), Kn3Error: (1,)}[refused]
