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
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd
from multiprocessing import Pool
from typing import Callable, Iterator

from .bounds import (
    BoundSpec,
    NotConnectedError,
    ScaledBounds,
    TripleInPError,
    bound_by_name,
    valid_constant,
    counterexample,
    evaluate_scaled,
    scale_bounds,
    sharp_bounds,
)
from .enumeration import _HARD_MAX_N, EnumerationConfig, enumerate_subcubic, random_subcubic
from .families import FAMILY_IDS, MAX_CERTIFIED_ORDER, FamilySpec, closed_nu, generate
from .graphs import (
    MAX_GRAPH6_ORDER,
    Graph,
    NotSubcubicError,
    degree_profile,
    emit_graph6,
    iter_graph6_lines,
    read_graph6_line,
)
from .matching import nu
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


@dataclass
class RunManifest:
    """Summary of one harness run; written to stderr (or --manifest PATH)
    even when the run is interrupted."""

    command: str
    config: dict
    corpus: str
    counts: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    partial: bool = False


def _approx(x: float) -> str:
    """Display-only 6-place decimal rendering."""
    return f"{x:.6f}"


def _write_manifest(manifest: RunManifest, path: str | None) -> None:
    payload = json.dumps(asdict(manifest))
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload, file=sys.stderr)


def _triple_type(parts: list[str]) -> CoefficientTriple:
    x3, x2, x1 = (parse_fraction(p) for p in parts)
    return CoefficientTriple(x3, x2, x1)


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

    size = 16 if args.size is None else args.size
    seed = 0 if args.seed is None else args.seed

    def rand_stream() -> Iterator[Graph]:
        for i in range(args.random):
            yield random_subcubic(size, seed + i)
    return f"random x{args.random} n={size} seed={seed}", rand_stream()


def _decode(item: Graph | bytes) -> tuple[Graph, bytes | None]:
    """A corpus item as its graph and, for a graph6 line, the text
    ``emit_graph6`` writes for that graph (``read_graph6_line``)."""
    return (item, None) if isinstance(item, Graph) else read_graph6_line(item)


def _graph6_text(g: Graph, line: bytes | None) -> str:
    return (emit_graph6(g) if line is None else line).decode("ascii")


@contextmanager
def _sweep(args, command: str, config: dict, count_names: tuple[str, ...]):
    """Run one corpus sweep under its manifest.

    Yields ``(corpus stream, counts)``; the caller adds to ``counts``, which
    the manifest holds.  Any exception, ``KeyboardInterrupt`` included,
    marks the manifest partial, as does a stdout closed before the sweep's
    output is flushed; it is written either way."""
    started = time.perf_counter()
    corpus, stream = _corpus(args)
    manifest = RunManifest(command, config, corpus, counts=dict.fromkeys(count_names, 0))
    try:
        yield stream, manifest.counts
        sys.stdout.flush()
    except BaseException:
        manifest.partial = True
        raise
    finally:
        manifest.wall_time_s = round(time.perf_counter() - started, 3)
        _write_manifest(manifest, args.manifest)


def _selected_bounds(args) -> list[BoundSpec]:
    specs: list[BoundSpec] = []
    if args.bounds:
        if args.bounds == "all":
            specs.extend(sharp_bounds())
        else:
            for name in args.bounds.split(","):
                specs.append(bound_by_name(name.strip()))
    if args.triple:
        specs.append(
            BoundSpec(
                triple=_triple_type(args.triple),
                k_const=args.k if args.k is not None else Fraction(0),
                per_component=False,
                name="custom",
            )
        )
    if not specs:
        specs.extend(sharp_bounds())
    return specs


def _report_line(g6: str, bound: str, lhs: int, rhs: int, slack: int, den: int) -> str:
    # Int true division is correctly rounded: slack / den == float(Fraction(slack, den)).
    return (
        f"graph={g6} bound={bound} nu={lhs} "
        f"rhs={fraction_text(rhs, den)} slack={fraction_text(slack, den)} "
        f"(~{_approx(slack / den)}) tight={'yes' if slack == 0 else 'no'}"
    )


def fraction_text(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``, without building
    the Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def report_json(graph_json: str, bound_json: str, lhs: int, rhs: int, slack: int,
                den: int) -> str:
    """The stable JSON schema for one evaluated bound, from its rhs and
    slack over the denominator ``den``: the text of ``json.dumps`` of the
    object with keys graph, bound, nu, rhs, slack, tight.  The graph6 text
    and the bound name come already escaped, as ``json.dumps`` of each, so
    a caller escapes each once however many lines repeat it; a fraction's
    text never needs escaping."""
    return (
        f'{{"graph": {graph_json}, "bound": {bound_json}, "nu": {lhs}, '
        f'"rhs": "{fraction_text(rhs, den)}", "slack": "{fraction_text(slack, den)}", '
        f'"tight": {"true" if slack == 0 else "false"}}}'
    )


def _verify_one(
    item: Graph | bytes, *, scaled: ScaledBounds, names: list[str], as_json: bool,
    tight_only: bool,
) -> tuple[str, int, int] | str | ValueError:
    """Check one corpus item, a graph or a ``--file`` line decoded here
    (in a worker under ``--jobs``), against each scaled bound, named by
    ``names`` (under ``as_json``, names already JSON-escaped).

    Returns the output lines as one text, with the number of violated and
    of tight bounds; or the line to print when the graph is not subcubic,
    or is disconnected under a flat K; or the error of a malformed line,
    for the caller to raise in stream order, so that a pool task does not
    lose the results before it.  All work is in integers over the common
    denominator; the graph6 text, as read or encoded (``_decode``), is
    made and escaped once per graph and only when a line is printed."""
    try:
        g, line = _decode(item)
    except ValueError as exc:
        return exc
    try:
        lhs, values = evaluate_scaled(g, scaled)
    except (NotSubcubicError, NotConnectedError) as exc:
        return f"skipped {_graph6_text(g, line)}: {exc}"
    shown = [(name, rhs, slack) for name, (rhs, slack) in zip(names, values)
             if slack == 0 or not tight_only]
    text = _graph6_text(g, line) if shown else ""
    report = _report_line
    if as_json and shown:
        text, report = json.dumps(text), report_json
    den = scaled.denominator
    lines = [report(text, name, lhs, rhs, slack, den) for name, rhs, slack in shown]
    violations = sum(slack < 0 for _, slack in values)
    return "\n".join(lines), violations, sum(slack == 0 for _, slack in values)


# Corpus items per pool task under --jobs.  The parent's cost follows the
# number of tasks, not the work in them: CPython 3.11's Pool wakes its
# worker-handler thread on every result waiting in the pipe
# (``Pool._get_sentinels`` includes ``outqueue._reader``), and each wake-up
# checks every worker's exit code.  On 5 000 graphs of order 13-40 at
# --jobs 2 (2 vCPUs), the parent used 0.15 s of CPU time at 64 items and
# 0.08 s at 256 (medians of 20 runs); 128 and 512 ran slower than 256.
POOL_CHUNK = 256


def cmd_verify(args) -> int:
    specs = _selected_bounds(args)
    config = {
        "bounds": [s.name for s in specs],
        "tight_only": args.tight_only,
        "skip_invalid": args.skip_invalid,
        "jobs": args.jobs,
    }
    names = [json.dumps(s.name) if args.json else s.name for s in specs]
    check = partial(_verify_one, scaled=scale_bounds(specs), names=names,
                    as_json=args.json, tight_only=args.tight_only)
    counted = ("graphs", "violations", "tight", "invalid")
    with _sweep(args, "verify", config, counted) as (stream, counts), ExitStack() as stack:
        if args.jobs > 1:
            pool = stack.enter_context(Pool(args.jobs))
            results = pool.imap(check, stream, chunksize=POOL_CHUNK)
        else:
            results = map(check, stream)
        for result in results:
            if isinstance(result, tuple):
                text, violations, tight = result
                counts["graphs"] += 1
                counts["violations"] += violations
                counts["tight"] += tight
                if text:
                    print(text)
            elif isinstance(result, str):
                counts["invalid"] += 1
                print(result, file=sys.stderr)
            else:
                raise result
    if counts["violations"] or (counts["invalid"] and not args.skip_invalid):
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_polytope(args) -> int:
    if args.subcommand == "vertices":
        vs = sorted(vertices(polyhedron_P_plus()), key=lambda v: v.as_tuple())
        if args.json:
            print(json.dumps({"vertices": [str(v) for v in vs]}))
        else:
            for v in vs:
                print(v)
        return EXIT_OK
    x = _triple_type(args.triple)
    p = polyhedron_P()
    if args.subcommand == "contains":
        verdict = contains(p, x)
        if verdict.inside:
            const = valid_constant(x)
            if args.json:
                print(json.dumps({"triple": str(x), "inside": True, "constant": str(const)}))
            else:
                print(f"inside (valid constant K={const})")
            return EXIT_OK
        labels = [p.halfspaces[i].label for i in verdict.violated]
        if args.json:
            print(json.dumps({"triple": str(x), "inside": False, "violated": labels}))
        else:
            print("violated: " + ", ".join(labels))
        return EXIT_VIOLATIONS
    if args.subcommand == "project":
        y = project_to_Pplus(x)
        if args.json:
            print(json.dumps({"triple": str(x), "projected": str(y)}))
        else:
            print(y)
        return EXIT_OK
    # shift
    y = shift_transform(x, args.lam)
    inside = contains(p, y).inside
    if args.json:
        print(json.dumps({"shifted": str(y), "in_P": inside}))
    else:
        print(f"{y} in P: {'yes' if inside else 'no'}")
    return EXIT_OK


def cmd_family(args) -> int:
    spec = FamilySpec(args.family, args.t)
    g = generate(spec)
    if args.stats:
        prof = degree_profile(g)
        certified = nu(g) if g.n <= MAX_CERTIFIED_ORDER else None
        status = "certified" if certified is not None else "extrapolated"
        if args.json:
            print(json.dumps({
                "family": spec.family_id, "t": spec.t, "n": g.n,
                "n1": prof.n1, "n2": prof.n2, "n3": prof.n3,
                "nu_closed": closed_nu(spec),
                "nu_certified": certified,
                "nu_status": status,
            }))
        else:
            certified_txt = "-" if certified is None else str(certified)
            print(
                f"family={spec.family_id} t={spec.t} n={g.n} "
                f"n1={prof.n1} n2={prof.n2} n3={prof.n3} "
                f"nu_closed={closed_nu(spec)} nu_certified={certified_txt} "
                f"({status})"
            )
    else:
        sys.stdout.write(emit_graph6(g).decode("ascii") + "\n")
    return EXIT_OK


def cmd_counterexample(args) -> int:
    x = _triple_type(args.triple)
    k = args.k if args.k is not None else Fraction(0)
    try:
        spec, g, rep = counterexample(x, k)
    except TripleInPError:
        if args.json:
            print(json.dumps({"triple": str(x), "inside": True}))
        else:
            print("triple is inside the polyhedron; no counterexample exists")
        return EXIT_OK
    g6 = emit_graph6(g).decode("ascii")
    if args.json:
        print(json.dumps({
            "family": spec.family_id, "t": spec.t, "graph": g6,
            "nu": rep.lhs, "rhs": str(rep.rhs), "slack": str(rep.slack),
        }))
    else:
        print(
            f"family={spec.family_id} t={spec.t} n={g.n} graph6={g6} "
            f"nu={rep.lhs} rhs={rep.rhs} slack={rep.slack} (~{_approx(float(rep.slack))})"
        )
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
            g6 = _graph6_text(g, line)
            if args.json:
                print(json.dumps({
                    "graph": g6,
                    "A": len(d.A), "B": len(d.B), "C": len(d.C),
                    "hypomatchable": rep.a_components_hypomatchable,
                    "perfect": rep.c_components_perfectly_matched,
                    "surplus": rep.b_neighborhood_surplus,
                }))
            else:
                print(
                    f"graph={g6} A={len(d.A)} B={len(d.B)} C={len(d.C)} "
                    f"hypomatchable={'yes' if rep.a_components_hypomatchable else 'no'} "
                    f"perfect={'yes' if rep.c_components_perfectly_matched else 'no'} "
                    f"surplus={'yes' if rep.b_neighborhood_surplus else 'no'}"
                )
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

# Flags that only qualify another flag: (flag, the flag it needs).
_QUALIFIERS = (("size", "random"), ("seed", "random"), ("k", "triple"))


def _reject_lone_qualifiers(parser: argparse.ArgumentParser, args) -> None:
    for flag, needed in _QUALIFIERS:
        if getattr(args, flag, None) is not None and getattr(args, needed, None) is None:
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _reject_lone_qualifiers(parser, args)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
