"""Command-line surface.

Exit codes: 0 success, 1 failed verification or absent witness, 2 usage or
input errors, 3 exhausted search resources.  The only environment variable
read is BRANDT_SEARCH_BUDGET, an override for the step budget of the
homomorphism and isomorphism searches; it must be a positive integer in
ASCII digits, the rule ``.sgp`` indices follow.
"""

from __future__ import annotations

import argparse
import os
import sys

from .category import NotClassifiable, recover_triple
from .classify import classify
from .construct import brandt_extension, matrix_units_extension
from .core import AlgebraError, BudgetExceeded, Mismatch, NoIdentity, TrivialInput
from .fixtures import FIXTURES
from .homs import DEFAULT_BUDGET, enumerate_homs
from .search import iso_search
from .sgpfile import _number, parse_sgp, read_extension, write_extension


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_each(paths, parse):
    """``parse`` of the text of each path; a path given twice is loaded and
    parsed once.  Every file is loaded before any is parsed."""
    texts = {p: _load(p) for p in dict.fromkeys(paths)}
    parsed = {p: parse(text) for p, text in texts.items()}
    return [parsed[p] for p in paths]


def cmd_props(args, budget):
    S = parse_sgp(_load(args.file))
    report = classify(S, lambdas=(args.lam,))
    pairs = [
        ("order", S.order),
        ("monoid_with_zero", report.monoid_with_zero),
        ("regular", report.regular),
        ("inverse", report.inverse),
        ("clifford", report.clifford),
        ("idempotents_central", report.idempotents_central),
        ("primitive_inverse", report.primitive_inverse),
        ("congruence_free", report.congruence_free),
        ("b2_free", report.b2_free),
        (f"blambda_free[{args.lam}]", report.blambda_free[args.lam]),
        ("classifiable_target", report.classifiable_target),
    ]
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        # flags only: an order of 1 equals True but must print as 1
        if v is None or isinstance(v, bool):
            v = {True: "yes", False: "no", None: "unknown"}[v]
        print(f"{k.ljust(width)} : {v}")
    return 0


def cmd_units(args, budget):
    ext = matrix_units_extension(args.lam)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_extension(ext))
    print(f"wrote rank-{args.lam} matrix units ({ext.carrier.order} elements)")
    return 0


def cmd_extend(args, budget):
    S = parse_sgp(_load(args.file))
    ext = brandt_extension(S, args.lam)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_extension(ext))
    print(f"wrote extension of order {ext.carrier.order}")
    return 0


def cmd_homs(args, budget):
    def parse(text):
        # a legend-carrying file is parsed once, through its legend
        ext = read_extension(text) if args.classify else None
        return ext, (ext.carrier if ext else parse_sgp(text))

    (src_ext, S), (dst_ext, T) = _read_each((args.source, args.target), parse)
    legend_missing = None
    homs = enumerate_homs(S, T, nontrivial_only=args.nontrivial, budget=budget)
    if args.classify:
        if src_ext is None:
            legend_missing = f"no extension coordinates in {args.source}"
        elif dst_ext is None:
            legend_missing = f"no extension coordinates in {args.target}"
    for h in homs:
        line = " ".join(str(v) for v in h.mapping)
        if legend_missing:
            line += f"  NOT-CLASSIFIABLE({legend_missing})"
        elif args.classify:
            try:
                verdict = recover_triple(h, src_ext, dst_ext)
            except (TrivialInput, Mismatch, NoIdentity) as exc:
                verdict = NotClassifiable(str(exc))
            if isinstance(verdict, NotClassifiable):
                line += f"  NOT-CLASSIFIABLE({verdict.reason})"
            else:
                line += (
                    f"  triple h={list(verdict.base.mapping)}"
                    f" u={list(verdict.weights)} phi={list(verdict.index_map)}"
                )
        print(line)
    print(f"# {len(homs)} homomorphism(s)")
    return 0


def cmd_iso(args, budget):
    A, B = _read_each((args.a, args.b), parse_sgp)
    witness = iso_search(A, B, budget=budget)
    if witness is None:
        print("NOT-ISOMORPHIC")
        return 1
    print(" ".join(str(v) for v in witness))
    return 0


def cmd_verify(args, budget):
    result = FIXTURES[args.fixture]()
    for line in result.lines:
        print(line)
    print(("PASS: " if result.passed else "FAIL: ") + result.name)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brandt",
        description="Finite semigroups, their Brandt extensions, and the "
        "homomorphisms between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("props", help="classification flags of a .sgp table")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=int, default=2)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("units", help="write the rank-K matrix units")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_units)

    p = sub.add_parser("extend", help="write the Brandt extension of a table")
    p.add_argument("file")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("homs", help="enumerate homomorphisms between tables")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--nontrivial", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("iso", help="search for an isomorphism between tables")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("verify", help="run a named verification fixture")
    p.add_argument("fixture", choices=sorted(FIXTURES))
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = DEFAULT_BUDGET
    raw = os.environ.get("BRANDT_SEARCH_BUDGET")
    if raw:
        budget = _number(raw)
        if not budget:
            print(f"bad BRANDT_SEARCH_BUDGET value {raw!r}", file=sys.stderr)
            return 2
    try:
        return args.func(args, budget)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AlgebraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
