"""Command-line verification workflows with machine-readable reports.

Exit codes are a stable contract: 0 means success / no violations,
1 means violations were found, 2 means a usage or parse error,
130 an interrupt and 141 a stdout closed by its reader.
All numeric output is exact-fraction first; decimal renderings are
display-only and marked as such.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from typing import Callable, Iterator

from .bounds import (
    BoundSpec,
    NotConnectedError,
    ScaledBounds,
    TripleInPError,
    _certified,
    _certified_member,
    _violated_member,
    bound_by_name,
    graph_row,
    scale_bounds,
    sharp_bounds,
    valid_constant,
)
from .enumeration import _HARD_MAX_N, EnumerationConfig, enumerate_subcubic, random_subcubic
from .families import FAMILY_IDS, FamilySpec, buildable_order, closed_nu, generate
from .graphs import (
    MAX_GRAPH6_ORDER,
    Graph,
    NotSubcubicError,
    check_graph6_order,
    emit_graph6,
    iter_graph6_lines,
    read_graph6_line,
)
from .polytope import (
    CoefficientTriple,
    contains,
    parse_fraction,
    polyhedron_P,
    polyhedron_P_plus,
    project_to_Pplus,
    shift_transform,
    vertices,
)
from .structure import _ge_properties, gallai_edmonds

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def _approx(num: int, den: int) -> str:
    """Display-only 6-place decimal rendering of num/den, for a positive
    ``den``: the float's, and beyond the float range the exact value's,
    rounded half to even."""
    try:
        # Int true division is correctly rounded: num / den == float(Fraction(num, den)).
        return f"{num / den:.6f}"
    except OverflowError:
        units, micros = divmod(round(Fraction(abs(num) * 10 ** 6, den)), 10 ** 6)
        return f"{'-' if num < 0 else ''}{units}.{micros:06d}"


def _int_in(low: int, high: int | None = None, hint: str = "") -> Callable[[str], int]:
    """An argparse type: an integer in low..high, unbounded above when
    ``high`` is None.  ``hint`` ends the message for a value above ``high``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}{hint}")
        return value

    return integer


def _corpus(args) -> tuple[str, Iterator[Graph | bytes]]:
    """Resolve the graph source flags into (description, stream); a
    ``--file`` stream holds graph6 lines, for ``_decode``."""
    if args.enumerate is not None:
        cfg = EnumerationConfig(max_n=args.enumerate)
        return f"enumerate<={args.enumerate}", enumerate_subcubic(cfg)
    if args.file is not None:
        def stream() -> Iterator[bytes]:
            with open(args.file, "rb") as fh:
                yield from iter_graph6_lines(fh)
        return args.file, stream()

    def rand_stream() -> Iterator[Graph]:
        for i in range(args.random):
            yield random_subcubic(args.size, args.seed + i)
    return f"random x{args.random} n={args.size} seed={args.seed}", rand_stream()


def _decode(item: Graph | bytes) -> tuple[Graph, bytes | None]:
    """A corpus item as its graph and, for a graph6 line, the text
    ``emit_graph6`` writes for that graph (``read_graph6_line``)."""
    return (item, None) if isinstance(item, Graph) else read_graph6_line(item)


def _graph6_text(g: Graph, line: bytes | None) -> str:
    return (emit_graph6(g) if line is None else line).decode("ascii")


@contextmanager
def _sweep(args, command: str, config: dict, count_names: tuple[str, ...]):
    """Run one corpus sweep under its manifest, a JSON object written to
    ``--manifest PATH``, or else to stderr.

    Yields ``(corpus stream, counts)``; the caller adds to ``counts``, which
    the manifest holds.  Any exception, ``KeyboardInterrupt`` included,
    marks the manifest partial, as does a stdout closed before the sweep's
    output is flushed; it is written either way."""
    started = time.perf_counter()
    corpus, stream = _corpus(args)
    manifest = {"command": command, "config": config, "corpus": corpus,
                "counts": dict.fromkeys(count_names, 0), "wall_time_s": 0.0, "partial": False}
    try:
        yield stream, manifest["counts"]
        sys.stdout.flush()
    except BaseException:
        manifest["partial"] = True
        raise
    finally:
        manifest["wall_time_s"] = round(time.perf_counter() - started, 3)
        payload = json.dumps(manifest)
        if args.manifest:
            with open(args.manifest, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload, file=sys.stderr)


def _selected_bounds(args) -> list[BoundSpec]:
    """The bounds ``--bounds`` names: by default all five, or none when
    ``--triple`` is given; then the ``--triple`` bound, if any."""
    if args.bounds is None:
        specs = [] if args.triple else sharp_bounds()
    elif args.bounds == "all":
        specs = sharp_bounds()
    else:
        specs = [bound_by_name(name.strip()) for name in args.bounds.split(",")]
    if args.triple:
        specs.append(BoundSpec(triple=args.triple, k_const=args.k,
                               per_component=False, name="custom"))
    return specs


def _report_tail(bound: str, lhs: int, rhs: int, slack: int, den: int) -> str:
    """A text report line after its graph field ``graph=G6``."""
    return (
        f" bound={bound} nu={lhs} "
        f"rhs={fraction_text(rhs, den)} slack={fraction_text(slack, den)} "
        f"(~{_approx(slack, den)}) tight={'yes' if slack == 0 else 'no'}"
    )


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, without building
    the Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def report_json_tail(bound_json: str, lhs: int, rhs: int, slack: int, den: int) -> str:
    """The stable JSON schema for one evaluated bound, from its rhs and
    slack over the denominator ``den``, after its graph field:
    ``'{"graph": ' + json.dumps(graph6)`` followed by this is the text of
    ``json.dumps`` of the object with keys graph, bound, nu, rhs, slack,
    tight.  The bound name comes already escaped, as ``json.dumps`` of it,
    so a caller escapes it once however many lines repeat it; a
    fraction's text never needs escaping."""
    return (
        f', "bound": {bound_json}, "nu": {lhs}, '
        f'"rhs": "{fraction_text(rhs, den)}", "slack": "{fraction_text(slack, den)}", '
        f'"tight": {"true" if slack == 0 else "false"}}}'
    )


def _verify_one(
    item: Graph | bytes, *, scaled: ScaledBounds, tight_only: bool
) -> tuple[str | None, tuple[int, int, int, int, int]] | str | ValueError:
    """The facts of one corpus item, a graph or a ``--file`` line decoded
    here (in a worker under ``--jobs``), from which ``cmd_verify`` writes
    its reports: its graph6 text and its row ``(n1, n2, n3, c, nu)``
    (``bounds.graph_row``).  The text, as read or encoded (``_decode``),
    is None when none of the graph's reports will print: under
    ``tight_only``, when no bound's slack is 0, so a graph is encoded only
    when a line prints it.

    Otherwise returns the line to print when the graph is not subcubic,
    or is disconnected under a flat K; or the error of a malformed line,
    for the caller to raise in stream order, so that a pool task does not
    lose the results before it."""
    try:
        g, line = _decode(item)
    except ValueError as exc:
        return exc
    try:
        row = graph_row(g, scaled)
    except (NotSubcubicError, NotConnectedError) as exc:
        return f"skipped {_graph6_text(g, line)}: {exc}"
    shown = not tight_only or any(slack == 0 for _, slack in scaled.values(*row))
    return (_graph6_text(g, line) if shown else None), row


# Corpus items per pool task under --jobs.  A task's results cross the pipe
# as one message of about 70 bytes a graph (its graph6 text and row).
# CPython 3.11's Pool wakes its worker-handler thread whenever result bytes
# wait in the pipe (``Pool._get_sentinels`` includes ``outqueue._reader``),
# and each wake-up checks every worker's exit code, on CPU time that the
# workers could use.  On 5 000 graphs of order 13-40 at --jobs 2 (2 vCPUs,
# medians of 26-42 passes at the bench's reference speed), tasks of 64,
# 256 and 1 024 items took 0.177, 0.157 and 0.167 s; with the run pinned
# to one CPU, 0.339, 0.306 and 0.305 s.
POOL_CHUNK = 256

# Rows whose reports cmd_verify keeps, in a least-recently-used cache, so
# the table's size is bounded whatever the corpus.  Rows repeat:
# --enumerate 11 has 179 distinct rows among its 8 095 graphs.
ROW_TABLE_SIZE = 4096


def cmd_verify(args) -> int:
    """Check the selected bounds on every graph of the corpus, in input
    order.  ``_verify_one`` gives each graph's facts, in pool workers under
    ``--jobs``; this process writes every report.  A report line is the
    graph's field followed by a tail that depends on the row alone, so
    each row's tails, with its numbers of violated and of tight bounds,
    are made once and kept in an LRU cache of at most ``ROW_TABLE_SIZE``
    rows."""
    specs = _selected_bounds(args)
    config = {
        "bounds": [s.name for s in specs],
        "tight_only": args.tight_only,
        "skip_invalid": args.skip_invalid,
        "jobs": args.jobs,
    }
    scaled = scale_bounds(specs)
    if args.json:
        field, quote, report = '{"graph": ', json.dumps, report_json_tail
    else:
        field, quote, report = "graph=", str, _report_tail
    names = [quote(s.name) for s in specs]
    den = scaled.denominator

    @lru_cache(maxsize=ROW_TABLE_SIZE)
    def row_reports(row: tuple[int, ...]) -> tuple[list[str], int, int]:
        values = scaled.values(*row)
        tails = [report(name, row[4], rhs, slack, den) for name, (rhs, slack) in zip(names, values)
                 if slack == 0 or not args.tight_only]
        return tails, sum(slack < 0 for _, slack in values), sum(slack == 0 for _, slack in values)

    check = partial(_verify_one, scaled=scaled, tight_only=args.tight_only)
    counted = ("graphs", "violations", "tight", "invalid")
    with _sweep(args, "verify", config, counted) as (stream, counts), ExitStack() as stack:
        if args.jobs > 1:
            from multiprocessing import Pool  # only a pool run pays for the module

            pool = stack.enter_context(Pool(args.jobs))
            results = pool.imap(check, stream, chunksize=POOL_CHUNK)
        else:
            results = map(check, stream)
        for result in results:
            if isinstance(result, tuple):
                g6, row = result
                tails, violations, tight = row_reports(row)
                counts["graphs"] += 1
                counts["violations"] += violations
                counts["tight"] += tight
                if tails:
                    first = field + quote(g6)
                    print(first + ("\n" + first).join(tails))
            elif isinstance(result, str):
                counts["invalid"] += 1
                print(result, file=sys.stderr)
            else:
                raise result
    if counts["violations"] or (counts["invalid"] and not args.skip_invalid):
        return EXIT_VIOLATIONS
    return EXIT_OK


def _pairs(record: dict) -> str:
    """The record's ``key=value`` pairs, with booleans as yes and no."""
    return " ".join(f"{key}={('yes' if value else 'no') if isinstance(value, bool) else value}"
                    for key, value in record.items())


def _show(args, record: dict, text: str | None = None) -> None:
    """Print one result: ``record`` as one JSON object under ``--json``,
    otherwise ``text``, by default ``_pairs(record)``."""
    print(json.dumps(record) if args.json else _pairs(record) if text is None else text)


def cmd_polytope(args) -> int:
    if args.subcommand == "vertices":
        vs = [str(v) for v in sorted(vertices(polyhedron_P_plus()))]
        _show(args, {"vertices": vs}, "\n".join(vs))
        return EXIT_OK
    x = args.triple
    p = polyhedron_P()
    if args.subcommand == "contains":
        verdict = contains(p, x)
        if verdict.inside:
            const = valid_constant(x)
            _show(args, {"triple": str(x), "inside": True, "constant": str(const)},
                  f"inside (valid constant K={const})")
            return EXIT_OK
        labels = [p.halfspaces[i].label for i in verdict.violated]
        _show(args, {"triple": str(x), "inside": False, "violated": labels},
              "violated: " + ", ".join(labels))
        return EXIT_VIOLATIONS
    if args.subcommand == "project":
        y = project_to_Pplus(x)
        _show(args, {"triple": str(x), "projected": str(y)}, str(y))
        return EXIT_OK
    # shift
    y = shift_transform(x, args.lam)
    inside = contains(p, y).inside
    _show(args, {"shifted": str(y), "in_P": inside}, f"{y} in P: {'yes' if inside else 'no'}")
    return EXIT_OK


def cmd_family(args) -> int:
    spec = FamilySpec(args.family, args.t)
    if args.stats:
        g, prof, lhs = _certified_member(spec)
        stats = {"family": spec.family_id, "t": spec.t, "n": g.n,
                 "n1": prof.n1, "n2": prof.n2, "n3": prof.n3,
                 "nu_closed": closed_nu(spec), "nu_certified": lhs}
        _show(args, {**stats, "nu_status": "certified"}, _pairs(stats) + " (certified)")
        return EXIT_OK
    check_graph6_order(buildable_order(spec))
    g6 = emit_graph6(generate(spec)).decode("ascii")
    _show(args, {"family": spec.family_id, "t": spec.t, "graph": g6}, g6)
    return EXIT_OK


def cmd_counterexample(args) -> int:
    x, k = args.triple, args.k
    try:
        spec = _violated_member(x, k)
    except TripleInPError:
        const = valid_constant(x)
        if k < const:
            raise ValueError(f"{x} is inside the polyhedron; no counterexample exists "
                             f"for K >= {const}, its valid constant, got K={k}") from None
        _show(args, {"triple": str(x), "inside": True},
              "triple is inside the polyhedron; no counterexample exists")
        return EXIT_OK
    check_graph6_order(buildable_order(spec))
    g, rep = _certified(spec, x, k)
    g6 = emit_graph6(g).decode("ascii")
    _show(args, {"family": spec.family_id, "t": spec.t, "graph": g6,
                 "nu": rep.lhs, "rhs": str(rep.rhs), "slack": str(rep.slack)},
          f"family={spec.family_id} t={spec.t} n={g.n} graph6={g6} "
          f"nu={rep.lhs} rhs={rep.rhs} slack={rep.slack} "
          f"(~{_approx(*rep.slack.as_integer_ratio())})")
    return EXIT_VIOLATIONS


def cmd_ge(args) -> int:
    with _sweep(args, "ge", {}, ("graphs", "violations")) as (stream, counts):
        for item in stream:
            g, line = _decode(item)
            d = gallai_edmonds(g)
            rep = _ge_properties(g, d)
            counts["graphs"] += 1
            if not rep.all_true():
                counts["violations"] += 1
            _show(args, {"graph": _graph6_text(g, line),
                         "A": len(d.A), "B": len(d.B), "C": len(d.C),
                         "hypomatchable": rep.a_components_hypomatchable,
                         "perfect": rep.c_components_perfectly_matched,
                         "surplus": rep.b_neighborhood_surplus})
    return EXIT_VIOLATIONS if counts["violations"] else EXIT_OK


def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--enumerate", metavar="N",
                        type=_int_in(1, _HARD_MAX_N, "; use --file for larger sweeps"),
                        help="exhaustive corpus of connected subcubic graphs, "
                             f"n <= N (1 <= N <= {_HARD_MAX_N})")
    source.add_argument("--file", metavar="PATH", help="graph6 file, one graph per line")
    source.add_argument("--random", type=_int_in(1), metavar="COUNT",
                        help="seeded random connected subcubic graphs")
    sub.add_argument("--size", type=_int_in(1, MAX_GRAPH6_ORDER),
                     help=f"order of random graphs, 1 to {MAX_GRAPH6_ORDER} (default 16)")
    sub.add_argument("--seed", type=int, help="base seed for --random (default 0)")
    sub.add_argument("--manifest", metavar="PATH",
                     help="write the run manifest to PATH instead of stderr")


# argparse reads a token that starts with "-" as an option unless it
# matches the private ``ArgumentParser._negative_number_matcher``, which
# by default covers -3 and -.5 but not -1/3.  The parsers that take
# fractions get this one, which adds -p/q.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")

# Flags that only qualify another flag: (flag, the flag it needs, the
# value it takes when left out).  Each is parsed with default None, so
# that one given without the flag it needs can be told from one left out.
_QUALIFIERS = (("size", "random", 16), ("seed", "random", 0), ("k", "triple", Fraction(0)))


def _qualify(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a qualifier given without the flag it needs; fill in the
    default of each one left out."""
    for flag, needed, default in _QUALIFIERS:
        if not hasattr(args, flag):
            continue
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif getattr(args, needed) is None:
            parser.error(f"argument --{flag}: requires --{needed}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchbounds",
        description="Exact verification of linear lower bounds on the "
                    "matching number of subcubic graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    subs = parser.add_subparsers(dest="command", required=True)

    poly = subs.add_parser("polytope", help="coefficient polyhedron queries")
    poly.set_defaults(run=cmd_polytope)
    poly_subs = poly.add_subparsers(dest="subcommand", required=True)
    poly_subs.add_parser("vertices", parents=[common],
                         help="the 13 extreme points of the bounded part")
    for name, extra in (("contains", None), ("project", None), ("shift", "lam")):
        sp = poly_subs.add_parser(name, parents=[common])
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        # A tuple metavar breaks argparse's help and missing-argument
        # messages for a positional (CPython 3.11).
        sp.add_argument("triple", nargs=3, metavar="X",
                        help="x3 x2 x1: exact fractions, p/q syntax")
        if extra:
            sp.add_argument("--lambda", dest="lam", type=parse_fraction,
                            required=True, help="shift amount (fraction, >= 0)")

    ver = subs.add_parser("verify", parents=[common],
                          help="evaluate bounds over a graph corpus")
    ver.set_defaults(run=cmd_verify)
    ver._negative_number_matcher = _NEGATIVE_NUMBER
    _add_corpus_flags(ver)
    ver.add_argument("--bounds", metavar="LIST",
                     help="'all' or comma list from b1..b5 (default: all)")
    ver.add_argument("--triple", nargs=3, metavar=("X3", "X2", "X1"),
                     help="custom coefficients (flat constant K)")
    ver.add_argument("--k", type=parse_fraction, help="constant for --triple (default 0)")
    ver.add_argument("--tight-only", action="store_true",
                     help="only print reports with slack exactly 0")
    ver.add_argument("--skip-invalid", action="store_true",
                     help="do not fail on non-subcubic input lines")
    ver.add_argument("--jobs", type=_int_in(1, os.cpu_count() or 1), default=1,
                     help="parallel workers, 1 to the CPU count (default 1)")

    fam = subs.add_parser("family", parents=[common],
                          help="generate an extremal family member")
    fam.set_defaults(run=cmd_family)
    fam.add_argument("family", choices=FAMILY_IDS)
    fam.add_argument("t", type=int)
    fam.add_argument("--stats", action="store_true",
                     help="closed-form profile and matching number")

    ctr = subs.add_parser("counterexample", parents=[common],
                          help="certified violation for a triple outside the polyhedron")
    ctr.set_defaults(run=cmd_counterexample)
    ctr._negative_number_matcher = _NEGATIVE_NUMBER
    ctr.add_argument("--triple", nargs=3, required=True, metavar=("X3", "X2", "X1"))
    ctr.add_argument("--k", type=parse_fraction, help="constant K (default 0)")

    ge = subs.add_parser("ge", parents=[common],
                         help="decomposition property reports")
    ge.set_defaults(run=cmd_ge)
    _add_corpus_flags(ge)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Every number is read from ``argv`` under Python's
    limit on the digits of an int converted from text (4 300 by default);
    a command then prints every number it derives from them in full."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _qualify(parser, args)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    digits = sys.get_int_max_str_digits()
    try:
        if getattr(args, "triple", None):
            args.triple = CoefficientTriple(*map(parse_fraction, args.triple))
        sys.set_int_max_str_digits(0)
        code = args.run(args)
        sys.stdout.flush()  # meet a closed stdout here, not at exit
        return code
    except BrokenPipeError:  # the reader stopped early; silence the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return 130
    finally:
        sys.set_int_max_str_digits(digits)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
