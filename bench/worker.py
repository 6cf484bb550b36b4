"""One pass of one workload, in a fresh process.

    python3 bench/worker.py WORKLOAD WORKDIR TRACE

``run.py`` starts it from the repository root after writing the inputs to
WORKDIR.  It imports the package from ``src/``, runs the workload's legs
through ``matchbounds.cli.main`` and the public API with standard output
sent to a sink, checks every output against pinned values and the
benchmark's own decoder, and prints one JSON object: leg seconds at the
reference speed (``speed.Meter``) and as elapsed, checks, peak RSS and,
with TRACE=1, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import speed  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
BOUNDS = tuple(PINS["bounds"])
# (family, t): nu of large members, checked against the closed form.
FAMILIES = (("G3", 2000), ("G4", 800), ("G2", 7))
SAMPLE_GRAPHS, SAMPLE_ORDER = 2, 800


class Checks:
    """Named pass/fail results; each is one operation of the run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, actual, expected) -> None:
        ok = actual == expected
        self.results.append((name, ok, "" if ok else f"got {actual!r}, want {expected!r}"))

    @property
    def failed(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def parse_reports(checks: Checks, leg: str, text: str, types: dict) -> list[dict]:
    """JSON objects, one a line, whose keys have the given types; any other
    line fails the leg's parse check."""
    reports, bad = [], 0
    for line in text.splitlines():
        try:
            rep = json.loads(line)
            ok = all(isinstance(rep[key], kind) for key, kind in types.items())
        except (ValueError, KeyError, TypeError):
            ok = False
        if ok:
            reports.append(rep)
        bad += not ok
    checks.expect(f"{leg}: reports parse", bad, 0)
    return reports


BOUND_REPORT = {"graph": str, "bound": str, "nu": int, "rhs": str, "slack": str, "tight": bool}
GE_REPORT = {"graph": str, "A": int, "B": int, "C": int, "hypomatchable": bool,
             "perfect": bool, "surplus": bool}


def check_bound_reports(checks: Checks, leg: str, reports: list[dict], graphs: int,
                        nu_of=None) -> dict[str, tuple]:
    """Each graph gets b1..b5 once; rhs follows from the benchmark's own
    degree counts (inputs are connected, so c = 1); slack = nu - rhs;
    tight iff slack = 0; no slack is negative.  ``nu_of`` maps a graph6
    line to its pinned matching number; with it, every nu must match, so
    every slack is the pinned nu minus the benchmark's own rhs (which
    covers each bound's minimum slack).  Returns the decoded
    ``(n, n1, n2, n3)`` of each graph."""
    per_graph: dict[str, list[str]] = {}
    bad_rhs = bad_slack = bad_nu = negative = 0
    degrees: dict[str, tuple] = {}
    for rep in reports:
        g6, bound = rep["graph"], rep["bound"]
        per_graph.setdefault(g6, []).append(bound)
        try:
            if g6 not in degrees:
                degrees[g6] = inputs.decode_degrees(g6)
            _, n1, n2, n3 = degrees[g6]
            x3, x2, x1, k = map(Fraction, PINS["bounds"][bound])
            rhs, slack = Fraction(rep["rhs"]), Fraction(rep["slack"])
        except (KeyError, IndexError, ValueError, ZeroDivisionError):
            bad_rhs += 1
            continue
        own_rhs = x3 * n3 + x2 * n2 + x1 * n1 - k
        bad_rhs += rhs != own_rhs
        bad_slack += slack != rep["nu"] - rhs or rep["tight"] != (slack == 0)
        negative += slack < 0
        if nu_of is not None:
            bad_nu += rep["nu"] != nu_of(g6)
    checks.expect(f"{leg}: graphs reported", len(per_graph), graphs)
    checks.expect(f"{leg}: graphs without exactly b1..b5",
                  sum(sorted(b) != list(BOUNDS) for b in per_graph.values()), 0)
    checks.expect(f"{leg}: rhs differs from own degree counts", bad_rhs, 0)
    checks.expect(f"{leg}: slack or tight inconsistent", bad_slack, 0)
    checks.expect(f"{leg}: violations", negative, 0)
    if nu_of is not None:
        checks.expect(f"{leg}: nu differs from pinned", bad_nu, 0)
    return degrees


def check_exhaustive(checks: Checks, out: dict) -> None:
    pins = PINS["exhaustive"]
    reports = parse_reports(checks, "verify", out["verify"], BOUND_REPORT)
    degrees = check_bound_reports(checks, "verify", reports, sum(pins["classes_per_order"]))
    orders = Counter(n for n, *_ in degrees.values())
    for n, count in enumerate(pins["classes_per_order"], start=1):
        checks.expect(f"classes with n={n}", orders[n], count)
    tight = Counter(r["bound"] for r in reports if r["tight"])
    for b in BOUNDS:
        checks.expect(f"tight {b}", tight[b], pins["tight"][b])


def check_corpus(checks: Checks, out: dict, lines: list[str], picks: list[int]) -> None:
    pinned = dict(zip(lines, (ord(PINS["corpus_nu"][i]) - 48 for i in picks)))
    reports = parse_reports(checks, "jobs1", out["jobs1"], BOUND_REPORT)
    check_bound_reports(checks, "jobs1", reports, len(lines), pinned.get)
    checks.expect("jobs1: reports follow the input order",
                  [r["graph"] for r in reports[::len(BOUNDS)]], lines)
    if "jobs2" in out:  # checked through jobs1
        checks.expect("jobs2: same multiset of reports as jobs1",
                      Counter(out["jobs2"].splitlines()) == Counter(out["jobs1"].splitlines()), True)


def check_large(checks: Checks, out: dict, lines: list[str], picks: list[int]) -> None:
    reports = parse_reports(checks, "ge", out["ge"], GE_REPORT)
    checks.expect("ge: graphs reported", [r["graph"] for r in reports], lines)
    for rep, i in zip(reports, picks):
        checks.expect(f"ge pool {i}: properties",
                      [rep[k] for k in ("hypomatchable", "perfect", "surplus")], [True] * 3)
        checks.expect(f"ge pool {i}: |A|,|B|,|C|",
                      [rep[k] for k in ("A", "B", "C")], PINS["ge_pool"][str(i)])
    for (fid, t), (got, want) in zip(FAMILIES, out["nu"]):
        checks.expect(f"nu {fid}({t}) = closed form", got, want)
    reports = parse_reports(checks, "sample", out["sample"], BOUND_REPORT)
    check_bound_reports(checks, "sample", reports, SAMPLE_GRAPHS)


def main(argv: list[str]) -> int:
    workload, workdir, trace = argv[0], Path(argv[1]), argv[2] == "1"
    sys.path.insert(0, str(BENCH.parent / "src"))
    import matchbounds
    import matchbounds.cli

    meta = json.loads((workdir / "inputs.json").read_text())
    lines, picks = meta["lines"], meta["picks"]
    checks = Checks()
    legs: dict[str, float] = {}
    elapsed: dict[str, float] = {}
    out: dict = {}

    def cli_leg(leg: str, args: list[str]) -> None:
        manifest = workdir / f"{leg}.manifest.json"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), speed.Meter() as meter:
            code = matchbounds.cli.main(args + ["--json", "--manifest", str(manifest)])
        legs[leg], elapsed[leg] = meter.scaled_s, meter.elapsed_s
        out[leg] = sink.getvalue()
        checks.expect(f"{leg}: exit code", code, 0)
        counts = json.loads(manifest.read_text())["counts"] if manifest.exists() else {}
        checks.expect(f"{leg}: manifest violations", counts.get("violations"), 0)

    def run_legs() -> None:
        if workload == "exhaustive":
            cli_leg("verify", ["verify", "--enumerate", str(PINS["exhaustive"]["max_n"]),
                               "--bounds", "all"])
        elif workload == "corpus":
            for jobs in (1,) if trace else (1, 2):
                cli_leg(f"jobs{jobs}", ["verify", "--file", str(workdir / "corpus.g6"),
                                        "--bounds", "all", "--jobs", str(jobs)])
        else:
            cli_leg("ge", ["ge", "--file", str(workdir / "ge.g6")])
            with speed.Meter() as meter:
                values = [matchbounds.nu(matchbounds.generate(matchbounds.FamilySpec(fid, t)))
                          for fid, t in FAMILIES]
            legs["nu"], elapsed["nu"] = meter.scaled_s, meter.elapsed_s
            out["nu"] = [(v, matchbounds.closed_nu(matchbounds.FamilySpec(fid, t)))
                         for v, (fid, t) in zip(values, FAMILIES)]
            # The sampler keeps the CLI's default seed: its cost varies several-fold
            # with the seed (rejection rounds), which would swamp the run-to-run spread.
            cli_leg("sample", ["verify", "--random", str(SAMPLE_GRAPHS), "--size",
                               str(SAMPLE_ORDER), "--bounds", "all"])

    tracer = None
    if trace:
        from tracer import Tracer
        with Tracer() as tracer:
            run_legs()
    else:
        run_legs()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    if workload == "exhaustive":
        check_exhaustive(checks, out)
        graphs = sum(PINS["exhaustive"]["classes_per_order"])
    elif workload == "corpus":
        check_corpus(checks, out, lines, picks)
        graphs = len(lines)
    else:
        check_large(checks, out, lines, picks)
        graphs = len(lines) + len(FAMILIES) + SAMPLE_GRAPHS
    result = {"legs": legs, "elapsed": elapsed, "graphs": graphs, "peak_rss_mb": rss_kb / 1024,
              "checks": len(checks.results), "failed": checks.failed}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(str(workdir / "spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
