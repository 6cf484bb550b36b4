"""Benchmark of matchbounds: three workloads, end-to-end metrics, and a
traced run for per-layer metrics.  See bench/README.md.

    python3 bench/run.py --workload {exhaustive,corpus,large} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; everything it writes stays inside it.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each measured pass runs in a
fresh process (``worker.py``), so no cache survives from one pass, or
one run, to the next.  Times are taken at the machine's reference speed
(``speed.py``); the plain elapsed times are printed beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("exhaustive", "corpus", "large")
# The machine's speed shifts for seconds at a time, so set-up is sampled in
# rounds spread over the run: before each pass and after the last.
IMPORTS_PER_ROUND = 3
# A run must end within 180 s; a pass that would overrun is killed.
RUN_BUDGET_S = 170.0
IMPORT_PROBE = ("import sys; sys.path[:0] = ['src', 'bench']; import speed\n"
                "with speed.Meter() as m: import matchbounds.cli\n"
                "print(m.scaled_s)")
EXHAUSTIVE_MAX_N = json.loads((BENCH / "pins.json").read_text())["exhaustive"]["max_n"]
STEP_LEGS = {"ge_s": "ge", "nu_s": "nu", "sample_s": "sample"}


class PassError(RuntimeError):
    """A worker process failed or printed no result."""


def environment(seed: int) -> dict:
    git = None
    try:  # only when the checkout itself is a git work tree
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        git = head if Path(top).resolve() == ROOT else None
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git": git,
            "src_sha256": digest.hexdigest(), "seed": seed, "loadavg": os.getloadavg()}


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """The workload's input files and ``inputs.json`` (pool picks and lines)."""
    picks, lines = [], []
    if workload == "corpus":
        picks = inputs.pick("corpus", seed, inputs.CORPUS_POOL, inputs.CORPUS_SIZE)
        lines = inputs.write_graph6(workdir / "corpus.g6", map(inputs.corpus_graph, picks))
    elif workload == "large":
        picks = inputs.pick("ge", seed, inputs.GE_POOL, inputs.GE_GRAPHS)
        lines = inputs.write_graph6(workdir / "ge.g6", map(inputs.ge_graph, picks))
    meta = {"seed": seed, "picks": picks, "lines": [line.decode("ascii") for line in lines]}
    (workdir / "inputs.json").write_text(json.dumps(meta))


def set_up(workload: str, seed: int, workdir: Path, imports: list, writes: list) -> None:
    """One set-up round: package imports in fresh interpreters, then writing
    the inputs; appends the seconds of each, at the reference speed, to
    ``imports`` and ``writes``."""
    for _ in range(IMPORTS_PER_ROUND):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise PassError(f"package import failed: {probe.stderr.strip()[-500:]}")
        imports.append(float(probe.stdout))
    with speed.Meter() as meter:
        write_inputs(workload, seed, workdir)
    writes.append(meter.scaled_s)


def finished(trace: bool, seconds: float, passes: list[dict], elapsed: float) -> bool:
    """A traced run makes one untraced and one traced pass; otherwise passes
    repeat while another one still fits in ``seconds`` (at least one)."""
    if trace:
        return len(passes) == 2
    return bool(passes) and elapsed + passes[-1]["process_s"] > seconds


def run_pass(workload: str, workdir: Path, trace: bool, deadline: float) -> dict:
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), workload, str(workdir),
             "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded the run budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["process_s"] = time.perf_counter() - start
    return result


def serial_legs(result: dict) -> dict:
    return {leg: s for leg, s in result["legs"].items() if leg != "jobs2"}


def end_to_end(setup_s: float, passes: list[dict]) -> dict:
    def median(f):
        return statistics.median(f(p) for p in passes)

    return {
        "setup_s": (setup_s, "s"),
        "wall_ref_s": (median(lambda p: sum(p["legs"].values())), "s"),
        "graphs_per_s": (median(lambda p: p["graphs"] / sum(serial_legs(p).values())), "1/s"),
        "peak_rss_mb": (median(lambda p: p["peak_rss_mb"]), "MB"),
    }


def per_layer(import_s: float, plain: dict, traced: dict) -> dict:
    """Layer metrics from a traced pass, with the untraced pass of the same
    run for the steps, the pool speed-up and the tracing overhead, and the
    import part of set-up."""
    tr = traced["trace"]
    spans = tr["spans"]
    graphs = traced["graphs"]
    legs = plain["legs"]
    traced_s = sum(traced["legs"].values())

    def span(name: str) -> dict:
        return spans.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "children": {}})

    m = {"import_s": (import_s, "s")}

    def calls_self(name: str, per_graph: bool = False) -> None:
        m[f"{name}.calls"] = (span(name)["calls"], "count")
        m[f"{name}.self_s"] = (span(name)["self_s"], "s")
        if per_graph:
            m[f"{name}.per_graph"] = (span(name)["calls"] / graphs, "count")

    # enumeration
    calls_self("canonical_key")
    calls_self("canonical_form")
    keys = span("canonical_key")["calls"]
    m["kept_ratio"] = (graphs / keys if keys else 0.0, "ratio")
    for k in range(2, EXHAUSTIVE_MAX_N + 1):
        level = span(f"level.n{k}")
        m[f"level.n{k}.s"] = (level["total_s"], "s")
        m[f"level.n{k}.attempts"] = (level["children"].get("canonical_key", 0), "count")
    calls_self("random_subcubic")
    # graphs
    calls_self("parse_graph6", per_graph=True)
    calls_self("emit_graph6")
    calls_self("degree_profile", per_graph=True)
    m["Graph.calls"] = (tr["graph_inits"], "count")
    # matching, structure, bounds, families, cli
    calls_self("nu", per_graph=True)
    calls_self("is_hypomatchable")
    calls_self("gallai_edmonds")
    calls_self("verify_ge_properties")
    calls_self("evaluate_bound")
    calls_self("generate")
    calls_self("cmd_verify")
    calls_self("cmd_ge")
    # untraced steps of the same run
    jobs2 = legs.get("jobs2")
    m["jobs2_graphs_per_s"] = (plain["graphs"] / jobs2 if jobs2 else 0.0, "1/s")
    m["jobs2_speedup"] = (legs["jobs1"] / jobs2 if jobs2 else 0.0, "ratio")
    for metric, leg in STEP_LEGS.items():
        m[metric] = (legs.get(leg, 0.0), "s")
    m["trace.overhead_s"] = (traced_s - sum(serial_legs(plain).values()), "s")
    m["trace.uncovered_share"] = (1 - tr["top_level_s"] / sum(traced["elapsed"].values()),
                                  "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    if not (ROOT / "src" / "matchbounds" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'matchbounds'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        imports, writes, passes = [], [], []
        measure_start = time.perf_counter()
        set_up(args.workload, args.seed, workdir, imports, writes)
        while not finished(args.trace, args.seconds, passes,
                           time.perf_counter() - measure_start):
            passes.append(run_pass(args.workload, workdir, args.trace and bool(passes),
                                   deadline))
            set_up(args.workload, args.seed, workdir, imports, writes)
        import_s = statistics.median(imports)
        if args.trace:
            metrics = per_layer(import_s, *passes)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            shutil.move(str(workdir / "spans.json"), spans)
            print(f"spans written to {spans.relative_to(ROOT)}")
        else:
            metrics = end_to_end(import_s + statistics.median(writes), passes)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [f for p in passes for f in p["failed"]]
    for failure in failed:
        print(f"FAILED {failure}", file=sys.stderr)
    env["pass_legs_s"] = [p["legs"] for p in passes]
    env["pass_legs_elapsed_s"] = [p["elapsed"] for p in passes]
    print(json.dumps({"env": env}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>10}  {name:<26} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(p["checks"] for p in passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
