"""Command-line interface: every library operation as a scriptable command.

Commands
--------
classify P1 P2        isomorphism verdict for two multiprojective spaces
betti                 Betti numbers of Sym^n of a genus-g curve
dims                  dim H*(Sym^n C) vs dim Sym^n(H*(C)) comparison
factor                recover tensor factors from a character (or round-trip check)
lefschetz-check       bracket relations + irreducibility of the matrix modules
table                 bulk (g, n) table of Betti numbers and dimension comparisons

Each command takes ``--format {table,json,csv}`` (default: table) and
``--quiet`` (suppress stdout, keep the exit code).  Output is deterministic:
the same invocation always produces byte-identical stdout.

Exit codes: 0 = result computed (including NON_ISOMORPHIC verdicts -- the
answer to a question is not an error); 1 = domain failure (e.g. a character
with no factorization into nontrivial irreducibles, or a failed expectation
in lefschetz-check); 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import reduce
from typing import Sequence

from .classifier import classify, cohomology_character, parse_partition
from .exactalg import LaurentPoly
from .lefschetz import (
    build_cohomology_module,
    is_irreducible,
    module_character,
    tensor_modules,
    verify_brackets,
)
from .sl2rep import (
    Character,
    FactorizationError,
    factor_tensor_of_irreps,
    irrep_character,
    partitions,
    tensor_character,
)
from .symcurve import (
    betti_closed,
    compare_dimensions,
    poincare_genus_zero,
    poincare_via_series,
)


class _UsageError(Exception):
    """Bad arguments discovered after argparse: reported on stderr, exit 2."""


def _nonneg_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {text}")
    return value


def _parse_range(text: str, what: str, minimum: int) -> range:
    """Parse ``a..b`` (inclusive) or a single ``a`` into a range object."""
    lo_text, sep, hi_text = text.partition("..")
    try:
        lo = int(lo_text, 10)
        hi = int(hi_text, 10) if sep else lo
    except ValueError:
        raise _UsageError(f"bad {what} range {text!r}: expected N or N..M") from None
    if lo < minimum:
        raise _UsageError(f"{what} must be >= {minimum}, got {lo}")
    if hi < lo:
        raise _UsageError(f"empty {what} range {text!r}")
    return range(lo, hi + 1)


def _print(args: argparse.Namespace, text: str) -> None:
    if not args.quiet:
        sys.stdout.write(text + "\n")


def _print_json(args: argparse.Namespace, doc) -> None:
    _print(args, json.dumps(doc, indent=2))


def _print_csv(args: argparse.Namespace, header: Sequence[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    if not args.quiet:
        sys.stdout.write(buf.getvalue())


def _checked_poincare(g: int, n: int):
    """Series expansion, cross-checked coefficient-by-coefficient vs closed form."""
    pp = poincare_via_series(g, n)
    for r, b in enumerate(pp.betti):
        expected = betti_closed(g, n, r)
        if b != expected:
            raise RuntimeError(
                f"series/closed-form disagreement at g={g}, n={n}, r={r}: "
                f"{b} != {expected}"
            )
    return pp


def _poincare(g: int, n: int):
    return poincare_genus_zero(n) if g == 0 else _checked_poincare(g, n)


# ---------------------------------------------------------------- classify


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        p1 = parse_partition(args.partition1)
        p2 = parse_partition(args.partition2)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    verdict = classify(p1, p2)
    doc = verdict.to_json_dict()
    if args.format == "json":
        _print_json(args, doc)
    elif args.format == "csv":
        keys = list(doc)
        _print_csv(args, keys, [["" if doc[k] is None else doc[k] for k in keys]])
    else:
        lines = [f"{k}: {v}" for k, v in doc.items() if v is not None]
        _print(args, "\n".join(lines))
    return 0


# ------------------------------------------------------------------- betti


def _cmd_betti(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    pp = _poincare(args.genus, args.n)
    if args.format == "json":
        doc = {"g": args.genus, "n": args.n, "total": pp.total()}
        if not args.sum:
            doc["betti"] = list(pp.betti)
        _print_json(args, doc)
    elif args.format == "csv":
        if args.sum:
            _print_csv(args, ["g", "n", "total"], [[args.genus, args.n, pp.total()]])
        else:
            _print_csv(
                args,
                ["g", "n", "r", "betti"],
                [[args.genus, args.n, r, b] for r, b in enumerate(pp.betti)],
            )
    else:
        if args.sum:
            _print(args, str(pp.total()))
        else:
            _print(args, ",".join(str(b) for b in pp.betti))
    return 0


# -------------------------------------------------------------------- dims


def _cmd_dims(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise _UsageError(
            f"--n must be >= 2 (the comparison is trivial below that), got {args.n}"
        )
    dims = compare_dimensions(args.genus, args.n)
    total, sym, relation = dims.total_dim, dims.sym_dim, dims.relation.value
    if args.format == "json":
        _print_json(
            args,
            {
                "g": args.genus,
                "n": args.n,
                "total_dim": total,
                "sym_dim": sym,
                "relation": relation,
            },
        )
    elif args.format == "csv":
        _print_csv(
            args,
            ["g", "n", "total_dim", "sym_dim", "relation"],
            [[args.genus, args.n, total, sym, relation]],
        )
    else:
        _print(args, f"{total},{sym},{relation}")
    return 0


# ------------------------------------------------------------------ factor


def _cmd_factor(args: argparse.Namespace) -> int:
    if args.roundtrip is not None:
        return _factor_roundtrip(args)
    if args.partition is not None:
        try:
            p = parse_partition(args.partition)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        shown = str(p)
        character = cohomology_character(p)
    else:
        try:
            character = Character(LaurentPoly.parse(args.char))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        shown = args.char
    factors = factor_tensor_of_irreps(character)  # FactorizationError -> exit 1
    if args.format == "json":
        _print_json(
            args,
            {
                "input": shown,
                "character": str(character),
                "factorization": str(factors),
                "labels": list(factors),
            },
        )
    elif args.format == "csv":
        _print_csv(args, ["label", "multiplicity"], factors.counts())
    else:
        _print(args, str(factors))
    return 0


def _factor_roundtrip(args: argparse.Namespace) -> int:
    limit = args.roundtrip
    if limit < 1:
        raise _UsageError(f"--roundtrip bound must be >= 1, got {limit}")
    verified = 0
    for n in range(1, limit + 1):
        for labels in partitions(n):
            character = tensor_character([irrep_character(k) for k in labels])
            recovered = factor_tensor_of_irreps(character)
            if recovered.labels != labels:
                sys.stderr.write(
                    f"round-trip failure: {labels} factored as {recovered}\n"
                )
                return 1
            verified += 1
    if args.format == "json":
        _print_json(args, {"limit": limit, "verified": verified, "ok": True})
    elif args.format == "csv":
        _print_csv(args, ["limit", "verified", "ok"], [[limit, verified, True]])
    else:
        _print(args, f"verified {verified} factorizations with sum <= {limit}")
    return 0


# -------------------------------------------------------- lefschetz-check


def _cmd_lefschetz_check(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.partition is None):
        raise _UsageError("give either a dimension N or --partition, not both")
    if args.partition is not None:
        try:
            p = parse_partition(args.partition)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        shown = str(p)
        module = reduce(
            tensor_modules, (build_cohomology_module(k) for k in p.parts)
        )
        expected_char = cohomology_character(p)
        expect_irreducible = len(p) == 1
    else:
        if args.n < 0:
            raise _UsageError(f"dimension must be nonnegative, got {args.n}")
        shown = str(args.n)
        module = build_cohomology_module(args.n)
        expected_char = irrep_character(args.n)
        expect_irreducible = True
    report = verify_brackets(module)
    char = module_character(module)
    char_ok = char == expected_char
    irreducible = is_irreducible(module)
    ok = report.all_pass and char_ok and irreducible == expect_irreducible
    if args.format == "json":
        _print_json(
            args,
            {
                "input": shown,
                "dim": module.dim,
                "checks": [c.to_json_dict() for c in report.checks],
                "character": str(char),
                "character_matches": char_ok,
                "irreducible": irreducible,
                "expected_irreducible": expect_irreducible,
                "ok": ok,
            },
        )
    elif args.format == "csv":
        _print_csv(
            args,
            ["relation", "pass", "max_abs_discrepancy_numerator"],
            [
                [c.relation, c.passed, c.max_abs_discrepancy_numerator]
                for c in report.checks
            ],
        )
    else:
        lines = [
            f"{c.relation}: {'pass' if c.passed else 'FAIL'}" for c in report.checks
        ]
        lines.append(f"character: {char}")
        lines.append(f"character_matches: {str(char_ok).lower()}")
        lines.append(f"irreducible: {str(irreducible).lower()}")
        lines.append(f"expected_irreducible: {str(expect_irreducible).lower()}")
        _print(args, "\n".join(lines))
    return 0 if ok else 1


# ------------------------------------------------------------------- table


_TABLE_CELL_LIMIT = 10_000


def _cmd_table(args: argparse.Namespace) -> int:
    g_range = _parse_range(args.genus, "genus", 0)
    n_range = _parse_range(args.n, "n", 1)
    if len(g_range) * len(n_range) > _TABLE_CELL_LIMIT:
        raise _UsageError(
            f"table of {len(g_range)}x{len(n_range)} cells exceeds the "
            f"{_TABLE_CELL_LIMIT}-cell guard"
        )
    rows = []
    for g in g_range:
        for n in n_range:
            pp = _poincare(g, n)
            dims = compare_dimensions(g, n)
            if pp.total() != dims.total_dim:
                raise RuntimeError(
                    f"Betti sum {pp.total()} != dimension formula {dims.total_dim} "
                    f"at g={g}, n={n}"
                )
            rows.append(
                (g, n, pp.betti, dims.total_dim, dims.sym_dim, dims.relation.value)
            )
    header = ["g", "n", "betti", "total_dim", "sym_dim", "relation"]
    if args.format == "json":
        _print_json(
            args,
            [
                {
                    "g": g,
                    "n": n,
                    "betti": list(betti),
                    "total_dim": total,
                    "sym_dim": sym,
                    "relation": relation,
                }
                for g, n, betti, total, sym, relation in rows
            ],
        )
    elif args.format == "csv":
        _print_csv(
            args,
            header,
            [
                [g, n, ",".join(map(str, betti)), total, sym, relation]
                for g, n, betti, total, sym, relation in rows
            ],
        )
    else:
        text_rows = [
            [str(g), str(n), ",".join(map(str, betti)), str(total), str(sym), relation]
            for g, n, betti, total, sym, relation in rows
        ]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in text_rows))
            if text_rows
            else len(header[i])
            for i in range(len(header))
        ]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        for r in text_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        _print(args, "\n".join(lines))
    return 0


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress stdout; the exit code still carries the outcome",
    )

    parser = argparse.ArgumentParser(
        prog="multiproj",
        description="Classify multiprojective spaces and compute symmetric-product cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="decide whether P^{a_1}x...xP^{a_r} and P^{b_1}x...xP^{b_s} are isomorphic",
    )
    p.add_argument("partition1", help="first partition, e.g. 2,1")
    p.add_argument("partition2", help="second partition, e.g. 1,1,1")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser(
        "betti", parents=[common], help="Betti numbers of Sym^n of a genus-g curve"
    )
    p.add_argument("--genus", type=_nonneg_int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--sum", action="store_true", help="emit only the total dimension"
    )
    p.set_defaults(handler=_cmd_betti)

    p = sub.add_parser(
        "dims",
        parents=[common],
        help="compare dim H*(Sym^n C) with dim Sym^n(H*(C))",
    )
    p.add_argument("--genus", type=_nonneg_int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_dims)

    p = sub.add_parser(
        "factor",
        parents=[common],
        help="recover the irreducible tensor factors of a character",
    )
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--partition", help="build the character from a partition")
    group.add_argument(
        "--char", help='character text, e.g. "q^2 + 2 + q^-2"'
    )
    group.add_argument(
        "--roundtrip",
        type=int,
        metavar="N",
        help="verify factorization round-trips for every partition with sum <= N",
    )
    p.set_defaults(handler=_cmd_factor)

    p = sub.add_parser(
        "lefschetz-check",
        parents=[common],
        help="verify bracket relations, character, and irreducibility of the matrix module",
    )
    p.add_argument("n", nargs="?", type=int, help="projective-space dimension")
    p.add_argument("--partition", help="check the tensor module of a product instead")
    p.set_defaults(handler=_cmd_lefschetz_check)

    p = sub.add_parser(
        "table",
        parents=[common],
        help="bulk table of Betti numbers and dimension comparisons over (g, n) ranges",
    )
    p.add_argument("--genus", required=True, help="range a..b or single value")
    p.add_argument("--n", required=True, help="range a..b or single value")
    p.set_defaults(handler=_cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FactorizationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
