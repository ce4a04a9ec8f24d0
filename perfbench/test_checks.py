"""Self-test of the benchmark's checker: wrong output must count as a failure.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

from dataclasses import replace
from functools import partial

import pytest

import checkout

checkout.load_kn3genus()

from kn3genus import HypergraphSpec, euler_genus_lower_bound  # noqa: E402

from checks import (  # noqa: E402
    Expect,
    Tally,
    check_build,
    check_genus,
    check_verify,
    cli_op,
    levi_edges,
)

N = 6
EDGES = levi_edges(N, 1)


@pytest.mark.parametrize("n,m", [(4, 2), (6, 1), (8, 3), (20, 3), (40, 1)])
def test_closed_form_matches_the_euler_bound(n, m):
    exp = Expect.of(n, m, True)
    assert exp.euler_genus == euler_genus_lower_bound(HypergraphSpec(n, m))
    assert 2 * exp.faces == levi_edges(n, m)


@pytest.fixture
def built(tmp_path):
    env = checkout.child_env()
    exp = Expect.of(N, 1, True)
    family, scheme = tmp_path / "f.kn3set", tmp_path / "s.kn3scheme"
    op = cli_op("build", ["build", "--n", str(N), "--seed", "5", "--out", str(family),
                          "--scheme-out", str(scheme)],
                partial(check_build, exp=exp), EDGES, tmp_path, env)
    assert op.ok, op.problems
    return exp, family, scheme, env


def _verify(exp, family, cwd, env):
    return cli_op("verify", ["verify", str(family), "--strict-strong"],
                  partial(check_verify, exp=exp), EDGES, cwd, env)


def test_corrupted_family_counts_as_failure(built, tmp_path):
    exp, family, _, env = built
    assert _verify(exp, family, tmp_path, env).ok

    lines = family.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("T 1:"))
    head, _, body = lines[row].partition(": ")
    seq = body.split()
    seq[0], seq[1] = seq[1], seq[0]
    lines[row] = f"{head}: {' '.join(seq)}"
    family.write_text("\n".join(lines) + "\n")

    op = _verify(exp, family, tmp_path, env)
    assert op.problems and op.problems[0].startswith("exit 1")
    tally = Tally([op])
    assert (tally.attempted, tally.failed, tally.edges) == (1, 1, 0)


def test_wrong_expected_genus_counts_as_failure(built, tmp_path):
    exp, _, scheme, env = built
    argv = ["genus", str(scheme)]
    right = cli_op("genus", argv, partial(check_genus, exp=exp), EDGES, tmp_path, env)
    wrong_exp = replace(exp, euler_genus=exp.euler_genus + 2)
    wrong = cli_op("genus", argv, partial(check_genus, exp=wrong_exp), EDGES, tmp_path, env)
    assert right.ok and not wrong.ok
    assert "euler genus" in wrong.problems[0]
    tally = Tally([right, wrong])
    assert (tally.attempted, tally.failed, tally.edges) == (2, 1, EDGES)
