"""Command line interface.

Exit codes: 0 success (and "valid" for validate), 1 for a failed check
(invalid document, oracle mismatch), 2 for malformed input of any kind.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import bz, polytope, primes, rep, serialize, sln
from .cartan import build_cartan
from .draw import render_svg
from .weyl import weyl_group


def _parse_coords(text: str, rank: int, what: str) -> tuple[int, ...]:
    coords = serialize.parse_coords_key(text, rank)
    for c in coords:
        # the tables and kernels hold coordinates in int64
        if not -(1 << 63) <= c < 1 << 63:
            raise ValueError(f"{what} {text}: coordinate {c} does not fit in 64 bits")
    return coords


def _check_simple(i: int, rank: int, what: str) -> None:
    if not 1 <= i <= rank:
        raise ValueError(f"{what} {i} is out of range 1..{rank}")


def _parse_word(text: str, rank: int, option: str) -> tuple[int, ...]:
    try:
        word = serialize.parse_word_key(text)
    except ValueError as e:
        raise ValueError(f"{option}: {e}") from None
    for i in word:
        _check_simple(i, rank, f"{option} {text}: letter")
    return word


def _group(args):
    return weyl_group(build_cartan(args.family, args.rank))


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    group = _group(args)
    mu = group.cartan.coweight(_parse_coords(args.coweight, group.rank, "--coweight"))
    if not mu.is_nonneg():
        raise ValueError(f"coweight {mu.coords} has a negative coordinate")
    words = [_parse_word(w, group.rank, "--word") for w in args.word or []]
    for w in words:
        group.word_data(w)  # reject bad words before any output
    docs = [
        serialize.datum_to_doc(group, d, words=words, subset_keys=args.subset_keys)
        for d in polytope.enumerate_mv(group, mu)
    ]
    if args.format == "jsonl":
        _emit(args, "".join(serialize.canonical_json(d) for d in docs))
    else:
        _emit(
            args,
            serialize.canonical_json(
                {
                    "group": serialize.group_doc(group),
                    "coweight": list(mu.coords),
                    "count": len(docs),
                    "polytopes": docs,
                }
            ),
        )
    return 0


def cmd_mult(args) -> int:
    group = _group(args)
    lam = group.cartan.coweight(_parse_coords(args.lam, group.rank, "LAMBDA"))
    mu = group.cartan.coweight(_parse_coords(args.mu, group.rank, "MU"))
    doc = {
        "group": serialize.group_doc(group),
        "lambda": list(lam.coords),
        "mu": list(mu.coords),
    }
    if args.kind == "weight":
        value = rep.weight_mult_mv(group, lam, mu)
        oracle = rep.kostant_weight_mult(group, lam, mu) if args.check_oracle else None
    else:
        nu = group.cartan.coweight(_parse_coords(args.nu, group.rank, "NU"))
        doc["nu"] = list(nu.coords)
        value = rep.tensor_mult_mv(group, lam, mu, nu)
        oracle = (
            rep.steinberg_tensor_mult(group, lam, mu, nu) if args.check_oracle else None
        )
    doc["multiplicity"] = value
    if args.check_oracle:
        if oracle != value:
            print(
                f"oracle mismatch: polytope count {value}, alternating sum {oracle}",
                file=sys.stderr,
            )
            return 1
        doc["oracle"] = oracle
    _emit(args, serialize.canonical_json(doc))
    return 0


def cmd_primes(args) -> int:
    group = _group(args)
    catalog = primes.build_catalog(group)
    _emit(args, serialize.canonical_json(serialize.catalog_to_doc(group, catalog)))
    return 0


def cmd_collapse(args) -> int:
    with open(args.picture, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"picture file is not valid JSON: {e}") from None
    if isinstance(doc, dict):
        if "n" not in doc or "entries" not in doc:
            raise ValueError('picture object needs "n" and "entries"')
        n, entries = doc["n"], doc["entries"]
        # bool is a subclass of int, but JSON true is not a number
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError(f"picture n must be an integer, got {n!r}")
    elif isinstance(doc, list):
        entries = doc
        if not entries:
            raise ValueError("cannot infer n from an empty picture list")
        n = None
    else:
        raise ValueError("picture must be a list or an object")
    if not isinstance(entries, list):
        raise ValueError("picture entries must be a list")
    picture = {}
    for e in entries:
        if not (
            isinstance(e, list)
            and len(e) == 3
            and all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ValueError(f"picture entry {e!r} is not [a, b, value] of integers")
        a, b, v = e
        picture[(a, b)] = picture.get((a, b), 0) + v
    if n is None:
        n = max(b for _, b in picture)
    out = sln.collapse(n, args.k, picture)
    _emit(
        args,
        serialize.canonical_json(
            {
                "n": n,
                "k": args.k,
                "entries": [[a, b, v] for (a, b), v in sorted(out.items())],
            }
        ),
    )
    return 0


def cmd_draw(args) -> int:
    with open(args.document, encoding="utf-8") as fh:
        group, datum = serialize.load_datum(fh.read())
    face = None
    if args.face_word is not None or args.face_i or args.face_j:
        if args.face_word is None or not args.face_i or not args.face_j:
            raise ValueError("a face needs --face-word, --face-i and --face-j")
        word = _parse_word(args.face_word, group.rank, "--face-word")
        _check_simple(args.face_i, group.rank, "--face-i")
        _check_simple(args.face_j, group.rank, "--face-j")
        if args.face_i == args.face_j:
            raise ValueError(f"--face-i and --face-j are both {args.face_i}; a face needs two")
        face = (word, args.face_i, args.face_j)
        w = group.from_word(word)
        for t in (args.face_i, args.face_j):
            if group.right(w, t).length < w.length:
                raise ValueError("face word must be minimal in its coset")
    svg = render_svg(group, datum, face=face, unit=args.unit)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


def cmd_validate(args) -> int:
    with open(args.document, encoding="utf-8") as fh:
        group, datum = serialize.load_datum(fh.read())
    report = bz.validate(group, datum)
    for line in report.lines():
        print(line)
    return 0 if report.is_valid else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # -1,0 is a value, not an option: argparse on Python 3.10 and 3.11 reads
        # only -N and -N.N as negative numbers
        self._negative_number_matcher = re.compile(r"^-\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mvpoly",
        description="Exact engine for Mirkovic-Vilonen polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p):
        p.add_argument("family", choices=["A", "B", "C", "D"], help="Cartan family")
        p.add_argument("rank", type=int, help="rank of the group")

    p = sub.add_parser("enumerate", help="all polytopes with a given total coweight")
    add_group_args(p)
    p.add_argument("--coweight", required=True, help="coordinates, e.g. 1,1")
    p.add_argument(
        "--word",
        action="append",
        help="also report Lusztig data along this reduced word (repeatable)",
    )
    p.add_argument(
        "--subset-keys",
        action="store_true",
        help="key values by subset strings (type A only)",
    )
    p.add_argument("--format", choices=["jsonl", "json"], default="jsonl")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mult", help="weight or tensor multiplicities")
    kind = p.add_subparsers(dest="kind", required=True)
    pw = kind.add_parser("weight", help="weight multiplicity")
    add_group_args(pw)
    pw.add_argument("lam", metavar="LAMBDA", help="dominant coweight, e.g. 1,1")
    pw.add_argument("mu", metavar="MU")
    pt = kind.add_parser("tensor", help="tensor product multiplicity")
    add_group_args(pt)
    pt.add_argument("lam", metavar="LAMBDA")
    pt.add_argument("mu", metavar="MU")
    pt.add_argument("nu", metavar="NU")
    for px in (pw, pt):
        px.add_argument(
            "--check-oracle",
            action="store_true",
            help="cross-check against the alternating-sum formula",
        )
        px.add_argument("-o", "--output")
        px.set_defaults(func=cmd_mult)

    p = sub.add_parser("primes", help="prime polytope catalog")
    add_group_args(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("collapse", help="delete an index from a type A picture")
    p.add_argument("picture", help="JSON file of [a, b, value] entries")
    p.add_argument("k", type=int, help="index to delete")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("draw", help="render a polytope document to SVG")
    p.add_argument("document")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--unit", action="store_true", help="draw the coroot basis arrows")
    p.add_argument("--face-word", help="minimal coset word of the 2-face")
    p.add_argument("--face-i", type=int, default=0)
    p.add_argument("--face-j", type=int, default=0)
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("validate", help="check a polytope document")
    p.add_argument("document")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
