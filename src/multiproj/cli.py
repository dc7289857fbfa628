"""Command-line interface: every library operation as a scriptable command.

The commands are the entries of ``COMMANDS``, whose help texts say what each
does.  Each takes ``--format {table,json,csv}`` (default: table) and
``--quiet`` (suppress stdout, keep the exit code).  Output is deterministic:
the same invocation always produces byte-identical stdout.  A handler parses
its arguments, makes one library call for its result and formats it:
``classify``, ``poincare_polynomial`` (betti), ``compare_dimensions`` (dims),
``factor_tensor_of_irreps`` or ``verify_roundtrip`` (factor),
``lefschetz_check`` and ``dimension_table`` (table).

Exit codes: 0 = result computed (including NON_ISOMORPHIC verdicts -- the
answer to a question is not an error); 1 = domain failure (e.g. a character
with no factorization into nontrivial irreducibles, or a failed expectation
in lefschetz-check, after its report) or a failed write to stdout (a closed
pipe, a full disk, a closed stdout); 2 = usage or parse error.  Each error,
argparse's too, is one ``error: ...`` line on stderr of at most 200 bytes of
UTF-8 (``_cut`` keeps a longer message's start and end around ``...``, and
splits no character), and ``main`` alone returns the exit code; ``--help``
is written like a command's output.  Requests over a size limit are usage
errors, each sized by what it would print:

* ``table``: more than 10^4 cells;
* ``betti`` and every ``table`` cell: a Betti row of more than 4001 numbers
  (n > 2000), or of more than 10^5 digits;
* ``betti``, ``dims`` and every ``table`` cell: a number of more than 4000
  digits (Python's int-to-str conversion stops at 4300), as is the sum of
  every partition (which ``classify`` prints) and a ``factor --char``
  coefficient; a refusal shows a size of more as ``over 10^4000``;
* ``classify`` (of two equal dimensions) and ``factor``: a character of top
  degree over 2000 (4001 dense coefficients; for ``factor --char`` the
  largest |exponent|, checked before the character is built);
* ``factor --roundtrip``: a bound beyond 25.

Every number betti, dims and table print is at most dim Sym^n(H*(C)) =
C(2g+n+1, n) (the dims comparison), so the digit limits are checked on the
digits of that binomial, and on 2n + 1 times them for a row.  The digit rule
itself is ``exactalg``'s.  ``lefschetz-check`` reports the refusal of a
module over ``lefschetz``'s dimension guard as a usage error too.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from itertools import chain
from math import comb

from ._record import Record, _set
from .classifier import Partition, classify, cohomology_character, parse_partition
from .exactalg import _DIGIT_LIMIT, LaurentPoly, _all_int, _over_digits, _shown
from .lefschetz import lefschetz_check
from .sl2rep import Character, FactorizationError, factor_tensor_of_irreps, verify_roundtrip
from .symcurve import compare_dimensions, dimension_table, poincare_polynomial


class _UsageError(Exception):
    """Bad arguments, from argparse or a handler: reported on stderr, exit 2."""


class _CheckFailed(Exception):
    """A library report names a failed check: reported on stderr, exit 1."""


class _Help(Exception):
    """A ``--help`` request, whose text ``main`` writes as a command's output."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises its errors and its help instead of exiting."""

    def error(self, message: str):
        raise _UsageError(message)

    def print_help(self, file=None):
        raise _Help(self.format_help().removesuffix("\n"))


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


def _emit(args: argparse.Namespace, doc, rows: Iterable, text: str | None = None) -> None:
    """Write a command's result to stdout: ``doc``, ``rows`` or ``text``.

    JSON is ``doc`` (its keys str) as ``json.dumps(doc, indent=2)`` lays it
    out, written a piece at a time, with any iterator in it read as a list;
    CSV is ``rows`` under a header of the first row's keys, with ``None``
    written as empty; the table format is ``text``, or without it ``rows``
    padded into columns under their keys.  ``rows`` may be any iterable,
    read only by CSV and the table format; ``--quiet`` reads ``doc`` to its
    end and writes nothing, so a generator's checks still run.  The output
    is flushed at the end, so a write that fails raises OSError here, a
    closed stdout (``None``) included.
    """

    def layout(o, pad):
        inner = pad + "  "
        sep = ",\n" + inner
        if isinstance(o, (list, tuple)) and _all_int(o):
            yield f"[\n{inner}{sep.join(map(str, o))}\n{pad}]" if o else "[]"
            return
        if isinstance(o, dict):
            items, ends = ((json.dumps(k) + ": ", v) for k, v in o.items()), "{}"
        elif isinstance(o, (list, tuple, Iterator)):
            items, ends = (("", v) for v in o), "[]"
        else:
            yield json.dumps(o)
            return
        opening = ends[0] + "\n" + inner
        for key, v in items:
            yield opening + key
            yield from layout(v, inner)
            opening = sep
        yield "\n" + pad + ends[1] if opening == sep else ends

    out = sys.stdout
    if args.quiet:
        for _ in doc:
            pass
        return
    if out is None:
        raise OSError(errno.EBADF, "stdout is closed")
    if args.format == "json":
        import json  # loaded per format: the table format needs neither json nor csv

        out.writelines(layout(doc, ""))
        out.write("\n")
    elif args.format == "table" and text is not None:
        out.write(text + "\n")
    else:
        first = next(rows := iter(rows))
        rows = chain([first], rows)
        if args.format == "csv":
            import csv

            writer = csv.DictWriter(out, list(first), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        else:  # the column widths need every cell before the first line
            cells = [list(first), *([str(v) for v in row.values()] for row in rows)]
            widths = [max(map(len, column)) for column in zip(*cells)]
            out.writelines(
                "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n"
                for line in cells
            )
    out.flush()


def _partition(text: str) -> Partition:
    try:
        p = parse_partition(text)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if _over_digits(p.n, _DIGIT_LIMIT):  # classify prints the sum
        raise _UsageError(f"partition sums to a number of more than {_DIGIT_LIMIT} digits")
    return p


_CHARACTER_DEGREE_LIMIT = 2000


def _check_degree(top: int) -> None:
    """Refuse a character of top degree over the limit (2 top + 1 dense coefficients)."""
    if top > _CHARACTER_DEGREE_LIMIT:
        raise _UsageError(
            f"character of top degree {_shown(top)} exceeds the "
            f"{_CHARACTER_DEGREE_LIMIT}-degree limit"
        )


_ROW_LIMIT = 4001
_ROW_DIGIT_LIMIT = 100_000


def _more_digits(g: int, n: int, digits: int) -> bool:
    """Whether C(2g+n+1, n) has more than ``digits`` digits.

    With a = 2g+n+1 and k = min(n, 2g+1) >= 1, C(a, n) = C(a, k) and a >= 2k,
    so each factor (a-i)/(k-i) is at least a/k and C(a, k) >= (a//k)^k.  A
    bound past 2^(4 digits) > 10^digits answers yes; below it C(a, k) has
    fewer than about 14 * digits bits, and is formed.
    """
    a, k = 2 * g + n + 1, min(n, 2 * g + 1)
    if k * ((a // k).bit_length() - 1) > 4 * digits:
        return True
    return _over_digits(comb(a, k), digits)


def _check_size(g: int, n: int, row: bool) -> None:
    """Refuse a negative g, or (g, n) over the number, row or row-digit limit."""
    if g < 0:
        raise _UsageError(f"genus must be >= 0, got {g}")
    if row and 2 * n + 1 > _ROW_LIMIT:
        raise _UsageError(
            f"Betti row of {_shown(2 * n + 1)} numbers (n = {_shown(n)}) exceeds the "
            f"{_ROW_LIMIT}-number limit"
        )
    if _more_digits(g, n, _DIGIT_LIMIT):
        raise _UsageError(
            f"g = {_shown(g)}, n = {_shown(n)} needs numbers of more than "
            f"{_DIGIT_LIMIT} digits"
        )
    if row and _more_digits(g, n, _ROW_DIGIT_LIMIT // (2 * n + 1)):
        raise _UsageError(
            f"Betti row for g = {g}, n = {n} may exceed the "
            f"{_ROW_DIGIT_LIMIT}-digit limit"
        )


# ---------------------------------------------------------------- classify


def _cmd_classify(args: argparse.Namespace) -> None:
    p1, p2 = _partition(args.partition1), _partition(args.partition2)
    if p1.n == p2.n:  # distinct dimensions are answered without characters
        _check_degree(p1.n)
    doc = classify(p1, p2).to_json_dict()
    text = "\n".join(f"{k}: {v}" for k, v in doc.items() if v is not None)
    _emit(args, doc, [doc], text)


# ------------------------------------------------------------------- betti


def _cmd_betti(args: argparse.Namespace) -> None:
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    g, n = args.genus, args.n
    _check_size(g, n, row=True)
    pp = poincare_polynomial(g, n)
    doc = {"g": g, "n": n, "total": pp.total()}
    if args.sum:
        rows, text = [doc], str(pp.total())
    else:
        doc["betti"] = list(pp.betti)
        rows = [{"g": g, "n": n, "r": r, "betti": b} for r, b in enumerate(pp.betti)]
        text = ",".join(map(str, pp.betti))
    _emit(args, doc, rows, text)


# -------------------------------------------------------------------- dims


def _cmd_dims(args: argparse.Namespace) -> None:
    if args.n < 2:
        raise _UsageError(
            f"--n must be >= 2 (the comparison is trivial below that), got {args.n}"
        )
    _check_size(args.genus, args.n, row=False)
    dims = compare_dimensions(args.genus, args.n)
    doc = {"g": dims.g, "n": dims.n, "total_dim": dims.total_dim,
           "sym_dim": dims.sym_dim, "relation": dims.relation.value}
    _emit(args, doc, [doc], f"{dims.total_dim},{dims.sym_dim},{dims.relation.value}")


# ------------------------------------------------------------------ factor


_ROUNDTRIP_LIMIT = 25


def _cmd_factor(args: argparse.Namespace) -> None:
    if (limit := args.roundtrip) is not None:
        if limit < 1:
            raise _UsageError(f"--roundtrip bound must be >= 1, got {limit}")
        if limit > _ROUNDTRIP_LIMIT:
            raise _UsageError(
                f"--roundtrip bound {_shown(limit)} exceeds the limit of {_ROUNDTRIP_LIMIT}"
            )
        verified = verify_roundtrip(limit)  # a mismatch raises FactorizationError: exit 1
        doc = {"limit": limit, "verified": verified, "ok": True}
        _emit(args, doc, [doc], f"verified {verified} factorizations with sum <= {limit}")
        return
    if args.partition is not None:
        p = _partition(args.partition)
        _check_degree(p.n)
        shown = str(p)
        character = cohomology_character(p)
    else:
        try:
            poly = LaurentPoly.parse(args.char)
            if poly:  # the zero character has no degree; factor refuses it
                # before the character is built: it is dense from q^N to q^-N
                _check_degree(max(poly.degree, -poly.valuation))
            if any(_over_digits(abs(c), _DIGIT_LIMIT) for _, c in poly.terms()):
                raise _UsageError(f"coefficient of more than {_DIGIT_LIMIT} digits")
            character = Character(poly)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        shown = args.char
    factors = factor_tensor_of_irreps(character)  # FactorizationError -> exit 1
    doc = {
        "input": shown,
        "character": str(character),
        "factorization": str(factors),
        "labels": list(factors),
    }
    rows = [{"label": k, "multiplicity": m} for k, m in factors.counts()]
    _emit(args, doc, rows, str(factors))


# -------------------------------------------------------- lefschetz-check


def _cmd_lefschetz_check(args: argparse.Namespace) -> None:
    if args.partition is not None:
        parts = _partition(args.partition).parts
    elif args.n < 0:
        raise _UsageError(f"dimension must be nonnegative, got {args.n}")
    else:
        parts = (args.n,)
    try:
        report = lefschetz_check(parts)  # refuses a module over its dimension guard
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    doc = report.to_json_dict()
    lines = [f"{c['relation']}: {'pass' if c['pass'] else 'FAIL'}" for c in doc["checks"]]
    lines.append(f"character: {doc['character']}")
    for key in ("character_matches", "irreducible", "expected_irreducible"):
        lines.append(f"{key}: {str(doc[key]).lower()}")
    _emit(args, doc, doc["checks"], "\n".join(lines))
    if failed := report.failed:
        raise _CheckFailed(f"module {doc['input']} failed: {', '.join(failed)}")


# ------------------------------------------------------------------- table


_TABLE_CELL_LIMIT = 10_000


def _cmd_table(args: argparse.Namespace) -> None:
    g_range = _parse_range(args.genus, "genus", 0)
    n_range = _parse_range(args.n, "n", 1)
    g_span, n_span = g_range.stop - g_range.start, n_range.stop - n_range.start
    if g_span * n_span > _TABLE_CELL_LIMIT:
        raise _UsageError(
            f"table of {_shown(g_span)}x{_shown(n_span)} cells exceeds the "
            f"{_TABLE_CELL_LIMIT}-cell guard"
        )
    _check_size(g_range[-1], n_range[-1], row=True)  # the largest cell

    def cells():
        for pp, dims in dimension_table(g_range, n_range):
            yield {"g": dims.g, "n": dims.n, "betti": pp.betti, "total_dim": dims.total_dim,
                   "sym_dim": dims.sym_dim, "relation": dims.relation.value}

    # each generator computes the table as it is read, and _emit reads one
    rows = ({**c, "betti": ",".join(map(str, c["betti"]))} for c in cells())
    _emit(args, cells(), rows)


# ------------------------------------------------------------------ parser


class _Command(Record):
    """A subcommand; each argument is a name or flag and its add_argument keywords.

    ``usage``, if given, is the usage text, which then reads the same under
    every argparse (3.13's wraps a long usage line at another place).
    """

    __slots__ = ("name", "handler", "help", "arguments", "exclusive", "usage")

    def __init__(
        self,
        name: str,
        handler: Callable[[argparse.Namespace], None],
        help: str,
        arguments: Sequence[tuple[str, dict]] = (),
        exclusive: Sequence[tuple[str, dict]] = (),  # a required mutually exclusive group
        usage: str | None = None,
    ):
        _set(self, "name", name)
        _set(self, "handler", handler)
        _set(self, "help", help)
        _set(self, "arguments", arguments)
        _set(self, "exclusive", exclusive)
        _set(self, "usage", usage)


_INT = {"type": int, "required": True}
_RANGE = {"required": True, "help": "range a..b or single value"}
# betti's and table's usage, wrapped where argparse 3.10 to 3.12 wraps it
_USAGE = ("%(prog)s [-h] [--format {table,json,csv}] [--quiet] --genus\n"
          "                       GENUS --n N")

COMMANDS = (
    _Command("classify", _cmd_classify,
             "decide whether P^{a_1}x...xP^{a_r} and P^{b_1}x...xP^{b_s} are isomorphic",
             [("partition1", {"help": "first partition, e.g. 2,1"}),
              ("partition2", {"help": "second partition, e.g. 1,1,1"})]),
    _Command("betti", _cmd_betti, "Betti numbers of Sym^n of a genus-g curve",
             [("--genus", _INT), ("--n", _INT),
              ("--sum", {"action": "store_true", "help": "emit only the total dimension"})],
             usage=_USAGE + " [--sum]"),
    _Command("dims", _cmd_dims, "compare dim H*(Sym^n C) with dim Sym^n(H*(C))",
             [("--genus", _INT), ("--n", _INT)]),
    _Command("factor", _cmd_factor, "recover the irreducible tensor factors of a character",
             exclusive=[
                 ("--partition", {"help": "build the character from a partition"}),
                 ("--char", {"help": 'character text, e.g. "q^2 + 2 + q^-2"'}),
                 ("--roundtrip", {"type": int, "metavar": "N", "help": "verify factorization "
                                  "round-trips for every partition with sum <= N"})]),
    _Command("lefschetz-check", _cmd_lefschetz_check,
             "verify bracket relations, character, and irreducibility of the matrix module",
             exclusive=[
                 ("n", {"nargs": "?", "type": int, "help": "projective-space dimension"}),
                 ("--partition", {"help": "check the tensor module of a product instead"})]),
    _Command("table", _cmd_table,
             "bulk table of Betti numbers and dimension comparisons over (g, n) ranges",
             [("--genus", _RANGE), ("--n", _RANGE)], usage=_USAGE),
)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json", "csv"), default="table",
                        help="output format (default: table)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout; the exit code still carries the outcome")
    parser = _Parser(
        prog="multiproj",
        description="Classify multiprojective spaces and compute symmetric-product cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, parents=[common], help=command.help,
                           usage=command.usage)
        p.set_defaults(handler=command.handler)
        for flag, keywords in command.arguments:
            p.add_argument(flag, **keywords)
        if command.exclusive:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in command.exclusive:
                group.add_argument(flag, **keywords)
    return parser


def _cut(message: str) -> str:  # "error: " + 192 bytes + "\n" = 200 bytes
    # A character the byte cuts split is dropped; a lone surrogate counts as
    # the escape that stderr writes for it.
    data = message.encode(errors="backslashreplace")
    if len(data) <= 192:
        return message
    return f"{data[:120].decode(errors='ignore')}...{data[-69:].decode(errors='ignore')}"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except _Help as exc:
            _emit(argparse.Namespace(format="table", quiet=False), (), (), str(exc))
            return 0
        args.handler(args)
        return 0
    except (_UsageError, FactorizationError, _CheckFailed) as exc:
        message, code = str(exc), 2 if isinstance(exc, _UsageError) else 1
    except OSError as exc:  # stdout failed; what it took stays written
        # fd 1 on os.devnull: the interpreter's flush at exit drops the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        message, code = f"cannot write output: {exc.strerror or exc}", 1
    if sys.stderr is not None:
        sys.stderr.write(f"error: {_cut(message)}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
