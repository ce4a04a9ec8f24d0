"""Command-line interface: build, verify, genus, enumerate, formula.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage or
parse errors.  `--json` switches every command to machine-readable output.
"""

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .exceptions import FormatError, InvalidParameter, Kn3Error

# Each command imports the modules it runs, so `formula` loads only `levi`,
# `genus` and `verify` skip the builder and census, and `build` the census.


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def _add_orientability(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--orientable", dest="orientable", action="store_true", default=True)
    group.add_argument("--nonorientable", dest="orientable", action="store_false")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


@contextmanager
def _reading(path: str):
    """The file at path, open as UTF-8 text; a decoding fault while it is
    read is a FormatError."""
    try:
        with open(path, encoding="utf-8") as file:
            yield file
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from None


def _count(value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {count}")
    return count


def _genus_words(euler_genus: int, orientable: bool) -> str:
    if orientable:
        return f"orientable genus {euler_genus // 2} (euler genus {euler_genus})"
    return f"crosscap number {euler_genus} (euler genus {euler_genus})"


def cmd_build(args) -> int:
    from . import fileio
    from .builder import build_multi
    from .scheme import verify_family

    s = build_multi(args.n, args.multiplicity, orientable=args.orientable, seed=args.seed)
    verified = verify_family(s)
    if not verified.is_minimum(args.orientable):
        print("error: built family failed self-verification", file=sys.stderr)
        return 1
    report = verified.faces
    text = fileio.format_set(s)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.scheme_out:
        with open(args.scheme_out, "w", encoding="utf-8") as file:
            file.writelines(fileio.scheme_chunks(verified.scheme))
    payload = {
        "n": s.n,
        "m": s.m,
        "orientable": report.orientable,
        "face_count": report.face_count,
        "euler_genus": report.euler_genus,
        "genus": report.euler_genus // 2 if report.orientable else None,
        "crosscap": None if report.orientable else report.euler_genus,
        "out": args.out,
    }
    lines = [
        f"built n={s.n} m={s.m}: {report.face_count} faces, all quadrilateral",
        _genus_words(report.euler_genus, report.orientable),
    ]
    if args.out:
        lines.append(f"wrote {args.out}")
    if args.scheme_out:
        lines.append(f"wrote {args.scheme_out}")
    _emit(args, payload, lines)
    if not args.out and not args.scheme_out and not args.json:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    from . import fileio
    from .scheme import verify_family

    with _reading(args.path) as file:
        family = fileio.parse_set(file.read())
    verified = verify_family(family)
    faces, expected = verified.faces, verified.expected_genus
    passed = {
        "eulerian": verified.eulerian.ok,
        "compatible": bool(verified.compatible),
        "strong": verified.is_strong,
        "quadrilateral": faces is not None and faces.all_quadrilateral,
        "genus": faces is not None and faces.euler_genus == expected,
    }
    required = ["eulerian", "compatible", "quadrilateral", "genus"]
    if args.strict_strong:
        required.append("strong")
    ok = all(passed[name] for name in required)
    payload = {
        **passed,
        "euler_genus": faces.euler_genus if faces else None,
        "orientable": faces.orientable if faces else None,
        "pass": ok,
    }
    # The failure messages are worked out only for the text report.
    _emit(args, payload, [] if args.json else _verify_lines(verified, passed, ok))
    return 0 if ok else 1


def _verify_lines(verified, passed: dict[str, bool], ok: bool) -> list[str]:
    """The text report of `verify`: one line per check, then the result."""
    faces, expected = verified.faces, verified.expected_genus
    details = {
        name: report.first() if report is not None else "skipped"
        for name, report in (
            ("eulerian", verified.eulerian),
            ("compatible", verified.compatible),
            ("strong", verified.strong),
        )
    }
    details["quadrilateral"] = details["genus"] = "skipped"
    if faces is not None:
        hist = dict(sorted(faces.length_histogram().items()))
        details["quadrilateral"] = f"{faces.face_count} faces, lengths {hist}"
        details["genus"] = (
            f"euler genus {faces.euler_genus}, lower bound {expected}, "
            + ("orientable" if faces.orientable else "non-orientable")
        )
    lines = [
        f"{name}: {'PASS' if passed[name] else 'FAIL'}" + (f" ({detail})" if detail else "")
        for name, detail in details.items()
    ]
    lines.append(f"result: {'PASS' if ok else 'FAIL'}")
    return lines


def cmd_genus(args) -> int:
    from . import fileio
    from .scheme import trace_faces

    with _reading(args.path) as file:
        scheme = fileio.parse_scheme(file)
    report = trace_faces(scheme)
    hist = dict(sorted(report.length_histogram().items()))
    payload = {
        "face_count": report.face_count,
        "face_lengths": hist,
        "euler_genus": report.euler_genus,
        "orientable": report.orientable,
    }
    _emit(
        args,
        payload,
        [
            f"faces: {report.face_count}",
            f"face lengths: {hist}",
            f"euler genus: {report.euler_genus}",
            f"orientable: {'yes' if report.orientable else 'no'}",
        ],
    )
    return 0


def cmd_enumerate(args) -> int:
    from . import fileio
    from .census import count_lower_bound, count_upper_bound, enumerate_variants

    result = enumerate_variants(args.n, args.orientable, args.count, seed=args.seed)
    text = fileio.format_census(result.families)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    payload = {
        "requested": args.count,
        "found": len(result),
        "budget_exhausted": result.budget_exhausted,
        "attempts": result.attempts,
        "duplicates": result.duplicates,
        "rejected": result.rejected,
        "count_lower_bound": str(count_lower_bound(args.n)),
        "count_upper_bound": str(count_upper_bound(args.n)),
        "out": args.out,
    }
    lines = [
        f"found {len(result)} pairwise-inequivalent families (requested {args.count})",
        f"counting bounds for n={args.n}: >= {count_lower_bound(args.n)}, <= {count_upper_bound(args.n)}",
    ]
    if result.budget_exhausted:
        lines.append("warning: sampling budget exhausted before reaching the target")
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    if not args.out and not args.json:
        sys.stdout.write(text)
    return 0


def cmd_formula(args) -> int:
    from .levi import HypergraphSpec, euler_genus_lower_bound, genus_formula

    if max(abs(args.n), abs(args.multiplicity)) >= 10**1000:
        # Keeps every value it prints below Python's 4300-digit str limit.
        raise InvalidParameter("n and m must have at most 1000 digits")
    spec = HypergraphSpec(args.n, args.multiplicity)
    lower = euler_genus_lower_bound(spec)
    payload = {"n": args.n, "m": args.multiplicity, "euler_genus_lower_bound": lower}
    lines = [f"euler genus lower bound: {lower}"]
    if args.n % 2 == 0:
        orientable = genus_formula(spec, orientable=True)
        payload["orientable_genus"] = orientable
        lines.append(f"orientable genus: {orientable}")
        if args.n == 4 and args.multiplicity == 1:
            payload["nonorientable_genus"] = None
            lines.append("non-orientable genus: undefined (planar)")
        else:
            crosscap = genus_formula(spec, orientable=False)
            payload["nonorientable_genus"] = crosscap
            lines.append(f"non-orientable genus: {crosscap}")
    else:
        payload["orientable_genus"] = payload["nonorientable_genus"] = None
        lines.append("genus: out of scope (odd order); only the lower bound is reported")
    _emit(args, payload, lines)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kn3genus",
        description=(
            "Minimum-genus embeddings of complete 3-uniform hypergraphs, "
            "encoded as families of compatible Eulerian circuits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a verified minimum-genus family")
    p.add_argument("--n", type=int, required=True, help="vertex count (even, >= 4)")
    p.add_argument("--multiplicity", type=int, default=1, help="edge multiplicity m")
    _add_orientability(p)
    p.add_argument("--seed", type=int, default=None, help="randomize free choices")
    p.add_argument("--out", default=None, help="write the family file here")
    p.add_argument("--scheme-out", default=None, help="also write the scheme file")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="verify a family file")
    p.add_argument("path")
    p.add_argument("--strict-strong", action="store_true",
                   help="require strong compatibility to pass")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("genus", help="trace faces of a scheme file")
    p.add_argument("path")
    _add_common(p)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("enumerate", help="collect pairwise-inequivalent families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=_count, required=True)
    _add_orientability(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write a census file here")
    _add_common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("formula", help="print the closed-form genus values")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--multiplicity", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_formula)

    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Kn3Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
