"""Command-line verification workflows with machine-readable reports.

Exit codes are a stable contract: 0 means success / no violations,
1 means violations were found, 2 means a usage or parse error.
All numeric output is exact-fraction first; decimal renderings are
display-only and marked as such.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterable, Iterator

from .bounds import (
    BoundSpec,
    NotConnectedError,
    TripleInPError,
    bound_by_name,
    valid_constant,
    counterexample,
    evaluate_bounds,
    report_dict,
    sharp_bounds,
)
from .enumeration import (
    EnumerationConfig,
    LimitExceededError,
    enumerate_subcubic,
    random_subcubic,
)
from .families import FAMILY_IDS, FamilySpec, InvalidParameterError, closed_nu, generate
from .graphs import (
    Graph,
    MalformedGraph6Error,
    NotSubcubicError,
    degree_profile,
    emit_graph6,
    iter_graph6_lines,
    parse_graph6,
)
from .matching import nu
from .polytope import (
    CoefficientTriple,
    NegativeLambdaError,
    NotInPError,
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


def _approx(x: Fraction) -> str:
    """Display-only 6-place decimal rendering."""
    return f"{float(x):.6f}"


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


def _jobs_type(text: str) -> int:
    jobs = int(text)
    limit = os.cpu_count() or 1
    if not 1 <= jobs <= limit:
        raise argparse.ArgumentTypeError(f"must be between 1 and {limit}, got {jobs}")
    return jobs


def _corpus(args) -> tuple[str, Iterator[Graph]]:
    """Resolve the graph source flags into (description, graph stream)."""
    if args.enumerate is not None:
        cfg = EnumerationConfig(max_n=args.enumerate)
        return f"enumerate<={args.enumerate}", enumerate_subcubic(cfg)
    if args.file is not None:
        def stream() -> Iterator[Graph]:
            with open(args.file, "rb") as fh:
                yield from iter_graph6_lines(fh)
        return args.file, stream()
    if args.random is not None:
        def rand_stream() -> Iterator[Graph]:
            for i in range(args.random):
                yield random_subcubic(args.size, args.seed + i)
        return (
            f"random x{args.random} n={args.size} seed={args.seed}",
            rand_stream(),
        )
    raise argparse.ArgumentTypeError(
        "one of --enumerate/--file/--random is required"
    )


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


def _verify_one(g: Graph, g6: str, specs: list[BoundSpec]) -> list[dict] | str:
    """The reports of ``g`` (graph6 ``g6``) for each spec, or the line to
    print when ``g`` is not subcubic, or is disconnected under a flat K."""
    try:
        reports = evaluate_bounds(g, specs)
    except (NotSubcubicError, NotConnectedError) as exc:
        return f"skipped {g6}: {exc}"
    return [report_dict(g6, spec.name, rep) for spec, rep in zip(specs, reports)]


_POOL_SPECS: list[BoundSpec] = []


def _pool_init(specs: list[BoundSpec]) -> None:
    global _POOL_SPECS
    _POOL_SPECS = specs


def _pool_worker(g6: bytes) -> list[dict] | str:
    return _verify_one(parse_graph6(g6), g6.decode("ascii"), _POOL_SPECS)


def _report_line(rep: dict) -> str:
    slack = Fraction(rep["slack"])
    return (
        f"graph={rep['graph']} bound={rep['bound']} nu={rep['nu']} "
        f"rhs={rep['rhs']} slack={rep['slack']} (~{_approx(slack)}) "
        f"tight={'yes' if rep['tight'] else 'no'}"
    )


def cmd_verify(args) -> int:
    started = time.time()
    specs = _selected_bounds(args)
    manifest = RunManifest(
        command="verify",
        config={
            "bounds": [s.name for s in specs],
            "tight_only": args.tight_only,
            "skip_invalid": args.skip_invalid,
            "jobs": args.jobs,
        },
        corpus="",
    )
    graphs_checked = violations = tight = invalid = 0
    try:
        corpus_name, stream = _corpus(args)
        manifest.corpus = corpus_name

        def consume(results: Iterable[list[dict] | str]) -> None:
            nonlocal graphs_checked, violations, tight, invalid
            for result in results:
                if isinstance(result, str):
                    invalid += 1
                    print(result, file=sys.stderr)
                    continue
                graphs_checked += 1
                for rep in result:
                    if Fraction(rep["slack"]) < 0:
                        violations += 1
                    if rep["tight"]:
                        tight += 1
                    if args.tight_only and not rep["tight"]:
                        continue
                    print(json.dumps(rep) if args.json else _report_line(rep))

        if args.jobs > 1:
            with Pool(args.jobs, initializer=_pool_init, initargs=(specs,)) as pool:
                consume(pool.imap(_pool_worker, (emit_graph6(g) for g in stream),
                                  chunksize=64))
        else:
            consume(_verify_one(g, emit_graph6(g).decode("ascii"), specs) for g in stream)
        manifest.partial = False
    except BaseException:
        manifest.partial = True
        raise
    finally:
        manifest.counts = {
            "graphs": graphs_checked,
            "violations": violations,
            "tight": tight,
            "invalid": invalid,
        }
        manifest.wall_time_s = round(time.time() - started, 3)
        _write_manifest(manifest, args.manifest)
    if violations or (invalid and not args.skip_invalid):
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
        certified = nu(g) if g.n <= 60 else None
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
            f"nu={rep.lhs} rhs={rep.rhs} slack={rep.slack} (~{_approx(rep.slack)})"
        )
    return EXIT_VIOLATIONS


def cmd_ge(args) -> int:
    started = time.time()
    manifest = RunManifest(command="ge", config={}, corpus="")
    checked = failures = 0
    try:
        corpus_name, stream = _corpus(args)
        manifest.corpus = corpus_name
        for g in stream:
            d = gallai_edmonds(g)
            rep = _ge_properties(g, d)
            checked += 1
            if not rep.all_true():
                failures += 1
            g6 = emit_graph6(g).decode("ascii")
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
    except BaseException:
        manifest.partial = True
        raise
    finally:
        manifest.counts = {"graphs": checked, "violations": failures}
        manifest.wall_time_s = round(time.time() - started, 3)
        _write_manifest(manifest, args.manifest)
    return EXIT_VIOLATIONS if failures else EXIT_OK


def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--enumerate", type=int, metavar="N",
                     help="exhaustive corpus of connected subcubic graphs, n <= N (N <= 12)")
    sub.add_argument("--file", metavar="PATH", help="graph6 file, one graph per line")
    sub.add_argument("--random", type=int, metavar="COUNT",
                     help="seeded random connected subcubic graphs")
    sub.add_argument("--size", type=int, default=16, help="order of random graphs")
    sub.add_argument("--seed", type=int, default=0, help="base seed for --random")
    sub.add_argument("--manifest", metavar="PATH",
                     help="write the run manifest to PATH instead of stderr")


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
    poly_subs = poly.add_subparsers(dest="subcommand", required=True)
    poly_subs.add_parser("vertices", parents=[common],
                         help="the 13 extreme points of the bounded part")
    for name, extra in (("contains", None), ("project", None), ("shift", "lam")):
        sp = poly_subs.add_parser(name, parents=[common])
        sp.add_argument("triple", nargs=3, metavar=("X3", "X2", "X1"),
                        help="exact fractions, p/q syntax")
        if extra:
            sp.add_argument("--lambda", dest="lam", type=parse_fraction,
                            required=True, help="shift amount (fraction, >= 0)")

    ver = subs.add_parser("verify", parents=[common],
                          help="evaluate bounds over a graph corpus")
    _add_corpus_flags(ver)
    ver.add_argument("--bounds", metavar="LIST",
                     help="'all' or comma list from b1..b5 (default: all)")
    ver.add_argument("--triple", nargs=3, metavar=("X3", "X2", "X1"),
                     help="custom coefficients (flat constant K)")
    ver.add_argument("--k", type=parse_fraction, help="constant for --triple")
    ver.add_argument("--tight-only", action="store_true",
                     help="only print reports with slack exactly 0")
    ver.add_argument("--skip-invalid", action="store_true",
                     help="do not fail on non-subcubic input lines")
    ver.add_argument("--jobs", type=_jobs_type, default=1,
                     help="parallel workers, 1 to the CPU count (default 1)")

    fam = subs.add_parser("family", parents=[common],
                          help="generate an extremal family member")
    fam.add_argument("family", choices=FAMILY_IDS)
    fam.add_argument("t", type=int)
    fam.add_argument("--stats", action="store_true",
                     help="closed-form profile and matching number")

    ctr = subs.add_parser("counterexample", parents=[common],
                          help="certified violation for a triple outside the polyhedron")
    ctr.add_argument("--triple", nargs=3, required=True, metavar=("X3", "X2", "X1"))
    ctr.add_argument("--k", type=parse_fraction, help="constant K (default 0)")

    ge = subs.add_parser("ge", parents=[common],
                         help="decomposition property reports")
    _add_corpus_flags(ge)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        if args.command == "polytope":
            return cmd_polytope(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "family":
            return cmd_family(args)
        if args.command == "counterexample":
            return cmd_counterexample(args)
        if args.command == "ge":
            return cmd_ge(args)
        parser.error(f"unknown command {args.command}")
    except (
        ValueError,
        NotInPError,
        NegativeLambdaError,
        InvalidParameterError,
        LimitExceededError,
        MalformedGraph6Error,
        argparse.ArgumentTypeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return 130
    return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
