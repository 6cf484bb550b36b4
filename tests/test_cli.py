"""Harness contract: output formats, exit codes, manifests, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import matchbounds.bounds
import matchbounds.cli
import matchbounds.structure
from matchbounds.cli import main
from matchbounds.enumeration import random_subcubic
from matchbounds.families import FamilySpec, generate
from matchbounds.graphs import Graph, emit_graph6

TRIANGLE_G6 = "Bw"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polytope_vertices(capsys):
    code, out, _ = run(capsys, "polytope", "vertices")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 13
    assert lines == sorted(lines, key=_fraction_sort_key)
    assert "4/9,1/3,2/9" in lines


def _fraction_sort_key(line):
    return tuple(Fraction(p) for p in line.split(","))


def test_polytope_contains(capsys):
    code, out, _ = run(capsys, "polytope", "contains", "1/3", "4/9", "1/3")
    assert code == 1
    assert out.strip() == "violated: x3+x2+x1<=1"
    code, out, _ = run(capsys, "polytope", "contains", "4/9", "1/3", "2/9")
    assert code == 0
    assert out.strip() == "inside (valid constant K=1)"


def test_polytope_shift_and_project(capsys):
    code, out, _ = run(capsys, "polytope", "shift", "0/1", "0/1", "2/3",
                       "--lambda", "1/1")
    assert code == 0
    assert out.strip() == "-1,0,5/3 in P: yes"
    code, out, _ = run(capsys, "polytope", "project", "-1", "0", "5/3")
    assert code == 0
    assert out.strip() == "0,0,2/3"


def test_rejects_decimal_fractions(capsys):
    code, _, err = run(capsys, "polytope", "contains", "0.5", "0", "0")
    assert code == 2


def test_verify_enumerate_all_bounds(capsys):
    code, out, err = run(capsys, "verify", "--enumerate", "6", "--bounds", "all")
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["violations"] == 0
    assert manifest["counts"]["graphs"] == 49
    assert manifest["partial"] is False


def test_verify_tight_only_includes_triangle(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "6",
                       "--bounds", "b4", "--tight-only")
    assert code == 0
    assert any(line.startswith(f"graph={TRIANGLE_G6} ") for line in out.splitlines())


def test_verify_custom_triple_finds_violation(capsys, tmp_path):
    path = tmp_path / "g3_9.g6"
    path.write_bytes(emit_graph6(generate(FamilySpec("G3", 9))) + b"\n")
    code, out, err = run(capsys, "verify", "--file", str(path),
                         "--triple", "1/3", "4/9", "1/3", "--k", "0/1")
    assert code == 1
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["violations"] == 1
    assert "slack=-1" in out


def test_verify_json_reports(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "4",
                       "--bounds", "b5", "--json")
    assert code == 0
    for line in out.strip().splitlines():
        rep = json.loads(line)
        assert set(rep) == {"graph", "bound", "nu", "rhs", "slack", "tight"}


# sha256 of stdout, with the exit code and line count, for runs whose output
# must not change byte for byte: every bound in text and JSON, the tight
# lines, a violated flat-K triple (negative slacks, exit 1), and `ge`.
_OUTPUT_PINS = [
    (["verify", "--enumerate", "9", "--bounds", "all"], 0, 4190,
     "0136b87aaddca8c21392f67700d34c167e68cb1b66f3263a6449e91670a9fa36"),
    (["verify", "--enumerate", "9", "--bounds", "all", "--json"], 0, 4190,
     "410e186778abe95d93349bed3de5f1ec39cff662ca1a1e178dc4db694be77ba6"),
    (["verify", "--enumerate", "9", "--tight-only"], 0, 27,
     "890c9f4795f8dc2cd8cf186b3e0052006ba1e0fde41c72038a361f473eadbe6c"),
    (["verify", "--enumerate", "8", "--triple", "-1", "1", "1", "--k", "1"], 1, 307,
     "0caedac78d472a053df2b1c8c7a0f31a81c8a23d6a5f56d730c3e2d90ee1964e"),
    (["ge", "--enumerate", "9"], 0, 838,
     "9410f2903ba490071fa7b9da2a45fbef244ffb22fafba1841c5aa974a612db49"),
    (["ge", "--random", "4", "--size", "300", "--seed", "4", "--json"], 0, 4,
     "00a9c437467ceb791f7e89c4fae3ca6506b02ae472048409adc339895a1ace4c"),
]


@pytest.mark.parametrize("argv, exit_code, lines, digest", _OUTPUT_PINS,
                         ids=[" ".join(argv) for argv, *_ in _OUTPUT_PINS])
def test_output_is_pinned(capsys, argv, exit_code, lines, digest):
    code, out, _ = run(capsys, *argv)
    assert (code, len(out.splitlines())) == (exit_code, lines)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if exit_code:
        assert " slack=-" in out


def test_verify_skip_invalid(capsys, tmp_path):
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    path = tmp_path / "mixed.g6"
    path.write_bytes(emit_graph6(k5) + b"\n" + TRIANGLE_G6.encode() + b"\n")
    code, _, err = run(capsys, "verify", "--file", str(path), "--bounds", "b1")
    assert code == 1
    assert "skipped" in err
    code, _, _ = run(capsys, "verify", "--file", str(path), "--bounds", "b1",
                     "--skip-invalid")
    assert code == 0


def test_verify_random_corpus(capsys):
    code, _, err = run(capsys, "verify", "--random", "25", "--size", "14",
                       "--seed", "3", "--bounds", "all")
    assert code == 0
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"]["graphs"] == 25


def test_verify_jobs_deterministic(capsys, tmp_path):
    code1, out1, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all")
    code2, out2, _ = run(capsys, "verify", "--enumerate", "5", "--bounds", "all",
                         "--jobs", "2")
    assert (code1, out1) == (code2, out2)
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    g6 = [emit_graph6(generate(FamilySpec("G3", t))) for t in range(2, 7)]
    path = tmp_path / "corpus.g6"
    path.write_bytes(b"\n".join([b">>graph6<<", *g6[:2], b"", emit_graph6(k5), *g6[2:]]) + b"\n")
    runs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "all",
                             "--skip-invalid", "--jobs", jobs)
        runs.append((code, out, json.loads(err.strip().splitlines()[-1])["counts"]))
    assert runs[0] == runs[1]
    assert runs[0][2]["graphs"] == 5 and runs[0][2]["invalid"] == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_file_prints_each_graph_in_canonical_form(capsys, tmp_path, jobs):
    # A triangle with a glued header, with each long size prefix and as
    # read; K5 with a long prefix.  Each is printed as emit_graph6 writes it.
    path = tmp_path / "forms.g6"
    path.write_bytes(b">>graph6<<\n>>graph6<<Bw\n~??Bw\n\n~~?????Bw\nBw\n~??D~{\n")
    code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "b1",
                         "--skip-invalid", "--jobs", jobs)
    assert code == 0
    assert out == "graph=Bw bound=b1 nu=1 rhs=1 slack=0 (~0.000000) tight=yes\n" * 4
    skipped, manifest = err.splitlines()
    assert skipped == "skipped D~{: vertex 0 has degree 4 > 3"
    counts = json.loads(manifest)["counts"]
    assert counts == {"graphs": 4, "violations": 0, "tight": 4, "invalid": 1}


_SCRIPT_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))


def _start_script(*argv: str, **kwargs) -> subprocess.Popen:
    """Start the CLI in a fresh interpreter, in its own process group."""
    return subprocess.Popen([sys.executable, "-m", "matchbounds.cli", *argv], env=_SCRIPT_ENV,
                            start_new_session=True, **kwargs)


def _wait(proc: subprocess.Popen, timeout: float = 60) -> int:
    """Exit code of ``proc``; fails the test, rather than hanging it, if the
    run outlives ``timeout``, and then kills its worker processes too."""
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        pytest.fail(f"still running after {timeout} s: {proc.args}")


def _run_script(tmp_path, *argv: str) -> tuple[int, str, str]:
    with open(tmp_path / "stdout", "w+") as out, open(tmp_path / "stderr", "w+") as err:
        code = _wait(_start_script(*argv, stdout=out, stderr=err))
        out.seek(0)
        err.seek(0)
        return code, out.read(), err.read()


def test_verify_jobs_stops_at_malformed_line(tmp_path):
    # Under --jobs a worker decodes each line, and the parse error comes
    # back from it to the parent, so the error must survive pickling or
    # the run never ends.
    path = tmp_path / "corpus.g6"
    good = [emit_graph6(generate(FamilySpec("G3", t % 5 + 2))) for t in range(200)]
    path.write_bytes(b"\n".join([*good, b"Bo!"]) + b"\n")
    runs = []
    for jobs in ("1", "2"):
        manifest = tmp_path / f"manifest{jobs}.json"
        code, out, err = _run_script(tmp_path, "verify", "--file", str(path), "--jobs", jobs,
                                     "--manifest", str(manifest))
        assert code == 2
        assert json.loads(manifest.read_text())["partial"] is True
        runs.append((out, err))
    error = "error: trailing bytes after adjacency data (byte offset 2)\n"
    assert runs[0][1] == runs[1][1] == error
    # The chunk being built when the error came is not reported.
    assert runs[0][0].startswith(runs[1][0])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_quietly(tmp_path, jobs):
    manifest = tmp_path / "manifest.json"
    with open(tmp_path / "stderr", "wb+") as err:
        proc = _start_script("verify", "--enumerate", "8", "--jobs", jobs,
                             "--manifest", str(manifest), stdout=subprocess.PIPE, stderr=err)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = _wait(proc)
        err.seek(0)
        stderr = err.read()
    assert first.startswith(b"graph=") and code == 141
    assert b"error:" not in stderr and b"Exception ignored" not in stderr
    assert json.loads(manifest.read_text())["partial"] is True


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_skips_disconnected_under_flat_constant(capsys, tmp_path, jobs):
    # (0, 0, 2/3) is in P with valid constant 1, but only for connected
    # graphs: three disjoint claws would read slack -2.
    claws = emit_graph6(Graph(12, [(c, c + i) for c in (0, 4, 8) for i in (1, 2, 3)]))
    path = tmp_path / "claws.g6"
    path.write_bytes(claws + b"\n" + TRIANGLE_G6.encode() + b"\n")
    flat = ["verify", "--file", str(path), "--triple", "0", "0", "2/3", "--k", "1",
            "--jobs", jobs]
    code, out, err = run(capsys, *flat)
    assert code == 1
    assert f"skipped {claws.decode()}: " in err
    assert out == f"graph={TRIANGLE_G6} bound=custom nu=1 rhs=-1 slack=2 (~2.000000) tight=no\n"
    counts = json.loads(err.strip().splitlines()[-1])["counts"]
    assert counts == {"graphs": 1, "violations": 0, "tight": 0, "invalid": 1}
    code, skipped_out, _ = run(capsys, *flat, "--skip-invalid")
    assert code == 0 and skipped_out == out
    # The per-component bounds still cover disconnected graphs.
    code, out, _ = run(capsys, "verify", "--file", str(path), "--bounds", "all",
                       "--jobs", jobs)
    assert code == 0 and out.count(f"graph={claws.decode()} ") == 5


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
def test_verify_rejects_jobs_out_of_range(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(matchbounds.cli, "Pool", no_pool)
    code, out, err = run(capsys, "verify", "--enumerate", "3", "--jobs", jobs)
    assert code == 2
    assert out == "" and "--jobs" in err


def _count_calls(monkeypatch, fn, *modules):
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_verify_computes_nu_once_per_graph(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, matchbounds.bounds.nu, matchbounds.bounds)
    code, _, err = run(capsys, "verify", "--enumerate", "5", "--bounds", "all")
    assert code == 0
    assert json.loads(err.strip().splitlines()[-1])["counts"]["graphs"] == 20
    assert len(calls) == 20


def test_verify_builds_no_fraction_per_graph(capsys, monkeypatch):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    counts = []
    for max_n in ("6", "8"):
        built.clear()
        code, out, _ = run(capsys, "verify", "--enumerate", max_n, "--bounds", "all")
        assert code == 0 and " slack=1/2 " in out
        counts.append(len(built))
    assert counts[0] == counts[1]


def test_verify_validates_no_graph(capsys, monkeypatch, tmp_path):
    # graph6 lines and enumerated classes become Graphs through the trusted
    # constructor; the validating Graph.__init__ is for other input.
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"".join(
        emit_graph6(random_subcubic(13 + seed % 28, seed)) + b"\n" for seed in range(40)
    ))
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    for argv in (("--enumerate", "8", "--bounds", "all", "--json"),
                 ("--file", str(corpus), "--bounds", "all")):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0 and out
    assert built == []


def test_ge_validates_only_incidence_graphs(capsys, monkeypatch, tmp_path):
    # The Gallai-Edmonds checks take their component subgraphs through the
    # trusted constructor; the one validated Graph per graph is the
    # incidence graph of B and the A-components, built when B is nonempty.
    corpus = tmp_path / "corpus.g6"
    corpus.write_bytes(b"".join(
        emit_graph6(random_subcubic(13 + seed % 28, seed)) + b"\n" for seed in range(40)
    ))
    built = []
    init = Graph.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Graph, "__init__", counted)
    code, out, _ = run(capsys, "ge", "--file", str(corpus), "--json")
    assert code == 0
    with_b = sum(json.loads(line)["B"] > 0 for line in out.splitlines())
    assert 0 < with_b < 40
    assert len(built) == with_b


def test_ge_decomposes_once_per_graph(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, matchbounds.structure.gallai_edmonds,
                         matchbounds.cli, matchbounds.structure)
    code, out, _ = run(capsys, "ge", "--random", "10", "--size", "9", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    assert len(calls) == 10


def test_verify_encodes_only_printed_graphs(capsys, monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, emit_graph6, matchbounds.cli)
    code, out, _ = run(capsys, "verify", "--enumerate", "8", "--bounds", "b4", "--tight-only")
    assert code == 0
    assert len(out.splitlines()) == 2
    assert len(calls) == 2
    # A --file line already in canonical form is printed as read.
    lines = [emit_graph6(random_subcubic(n, n)) for n in (1, 2, 13, 62, 63, 100)]
    path = tmp_path / "canonical.g6"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    calls.clear()
    code, out, _ = run(capsys, "verify", "--file", str(path), "--bounds", "b4")
    assert code == 0
    assert [report.split()[0] for report in out.splitlines()] == [
        f"graph={line.decode()}" for line in lines]
    assert calls == []


def test_verify_file_encodes_no_graph(capsys, monkeypatch, tmp_path):
    # A line with a long size prefix or a glued header, a skipped K5 among
    # them, is printed in emitted form without encoding its graph.
    k5 = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    graphs = [*(random_subcubic(n, n) for n in (1, 2, 13, 62, 63, 100)), k5]
    emitted = [emit_graph6(g) for g in graphs]
    path = tmp_path / "forms.g6"
    with open(path, "wb") as fh:
        for g, line in zip(graphs, emitted):
            body = line[len(line) - (g.n * (g.n - 1) // 2 + 5) // 6:]
            long_prefix = b"~~" + bytes(63 + (g.n >> s & 63) for s in range(30, -1, -6))
            fh.write(long_prefix + body + b"\n" + b">>graph6<<" + line + b"\n")
    calls = _count_calls(monkeypatch, emit_graph6, matchbounds.cli)
    code, out, err = run(capsys, "verify", "--file", str(path), "--bounds", "b4",
                         "--skip-invalid")
    assert code == 0
    assert [report.split()[0] for report in out.splitlines()] == [
        f"graph={line.decode()}" for line in emitted[:-1] for _ in range(2)]
    skipped = f"skipped {emitted[-1].decode()}: vertex 0 has degree 4 > 3"
    assert err.splitlines()[:2] == [skipped] * 2
    assert calls == []


def test_cli_module_runs_as_script(tmp_path):
    code, out, _ = _run_script(tmp_path, "polytope", "vertices")
    assert code == 0
    assert len(out.strip().splitlines()) == 13


def test_verify_enumerate_cap(capsys):
    code, _, _ = run(capsys, "verify", "--enumerate", "13")
    assert code == 2


def test_manifest_file(capsys, tmp_path):
    path = tmp_path / "manifest.json"
    code, _, err = run(capsys, "verify", "--enumerate", "4", "--bounds", "b1",
                       "--manifest", str(path))
    assert code == 0
    assert err == ""
    manifest = json.loads(path.read_text())
    assert manifest["command"] == "verify"
    assert manifest["corpus"] == "enumerate<=4"


def test_manifest_wall_time_ignores_wall_clock_steps(capsys, monkeypatch, tmp_path):
    # The wall clock can step backwards during a run (an NTP correction);
    # the run's duration must not.
    steps = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(matchbounds.cli.time, "time", lambda: float(next(steps)))
    path = tmp_path / "manifest.json"
    code, _, _ = run(capsys, "verify", "--enumerate", "3", "--manifest", str(path))
    monkeypatch.undo()
    assert code == 0
    assert json.loads(path.read_text())["wall_time_s"] >= 0


def test_family_stats(capsys):
    code, out, _ = run(capsys, "family", "G2", "1", "--stats")
    assert code == 0
    assert "n3=34" in out and "nu_closed=15" in out and "nu_certified=15" in out


def test_family_emit_graph6(capsys):
    code, out, _ = run(capsys, "family", "G6", "5")
    assert code == 0
    assert out.strip() == emit_graph6(generate(FamilySpec("G6", 5))).decode()


def test_family_invalid_parameter(capsys):
    code, _, err = run(capsys, "family", "G5", "3")
    assert code == 2
    assert "even" in err


@pytest.mark.parametrize("argv", [["family", "G3", "6667"],
                                  ["counterexample", "--triple", "0", "1/2", "51/100", "--k", "1000"]])
def test_graph6_output_is_capped(capsys, argv):
    # G3(6667) has 20 001 vertices; the counterexample is G3(100001).
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and "graph too large for graph6" in err


@pytest.mark.parametrize("family, t", [("G1", "25"), ("G1", "1000000001"), ("G3", "1000000")])
def test_family_refuses_members_too_large_to_build(capsys, family, t):
    code, out, err = run(capsys, "family", family, t)
    assert code == 2
    assert out == "" and "too large to build" in err


def test_family_stats_extrapolated(capsys):
    code, out, _ = run(capsys, "family", "G3", "33", "--stats")
    assert code == 0
    assert "nu_certified=- (extrapolated)" in out


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample", "--triple", "1/3", "4/9", "1/3",
                       "--k", "0/1")
    assert code == 1
    assert "family=G3 t=2" in out
    assert "slack=-2/9" in out and "(~-0.222222)" in out
    code, out, _ = run(capsys, "counterexample", "--triple", "4/9", "1/3", "2/9")
    assert code == 0
    assert "no counterexample" in out


def test_ge_reports(capsys):
    code, out, _ = run(capsys, "ge", "--enumerate", "6")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("graph=@ A=1 B=0 C=0")
    code, out, _ = run(capsys, "ge", "--enumerate", "5", "--json")
    assert code == 0
    rep = json.loads(out.splitlines()[0])
    assert set(rep) == {"graph", "A", "B", "C", "hypomatchable", "perfect", "surplus"}


def test_usage_error_without_corpus(capsys):
    code, _, err = run(capsys, "verify", "--bounds", "all")
    assert code == 2


@pytest.mark.parametrize("command", ["verify", "ge"])
def test_usage_error_with_two_corpora(capsys, command):
    code, out, err = run(capsys, command, "--enumerate", "3", "--random", "2", "--size", "5")
    assert code == 2
    assert out == "" and "not allowed with" in err


@pytest.mark.parametrize("command", ["verify", "ge"])
@pytest.mark.parametrize("flags", [["--random", "-5"], ["--random", "0"],
                                   ["--random", "2", "--size", "0"],
                                   ["--random", "2", "--size", "-3"]])
def test_rejects_counts_below_one(capsys, tmp_path, command, flags):
    manifest = tmp_path / "manifest.json"
    code, out, err = run(capsys, command, *flags, "--manifest", str(manifest))
    assert code == 2
    assert out == "" and flags[-2] in err
    assert not manifest.exists()


_PARSE_TIME_REJECTIONS = [
    (["verify", "--enumerate", "0"], "argument --enumerate: must be at least 1"),
    (["ge", "--enumerate", "0"], "argument --enumerate: must be at least 1"),
    (["verify", "--enumerate", "13"], "argument --enumerate: must be at most 12, got 13; use --file"),
    (["ge", "--enumerate", "13"], "argument --enumerate: must be at most 12, got 13; use --file"),
    (["verify", "--enumerate", "3", "--size", "5"], "argument --size: requires --random"),
    (["ge", "--enumerate", "3", "--size", "5"], "argument --size: requires --random"),
    (["verify", "--file", "X", "--seed", "1"], "argument --seed: requires --random"),
    (["ge", "--file", "X", "--seed", "1"], "argument --seed: requires --random"),
    (["verify", "--enumerate", "3", "--k", "1"], "argument --k: requires --triple"),
    (["verify", "--random", "1", "--size", "20001"], "argument --size: must be at most 20000"),
]


@pytest.mark.parametrize("argv, message", _PARSE_TIME_REJECTIONS,
                         ids=[" ".join(argv) for argv, _ in _PARSE_TIME_REJECTIONS])
def test_rejects_flags_at_parse_time(capsys, tmp_path, argv, message):
    manifest = tmp_path / "manifest.json"
    code, out, err = run(capsys, *argv, "--manifest", str(manifest))
    assert code == 2
    assert out == "" and message in err
    assert not manifest.exists()


def test_bound_list_selection(capsys):
    code, out, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b2,b4")
    assert code == 0
    names = {line.split("bound=")[1].split()[0] for line in out.splitlines()}
    assert names == {"b2", "b4"}
    code, _, _ = run(capsys, "verify", "--enumerate", "3", "--bounds", "b9")
    assert code == 2


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "verify", "--help")[0] == 0


def test_ge_random_corpus(capsys):
    code, out, err = run(capsys, "ge", "--random", "10", "--size", "9", "--seed", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    manifest = json.loads(err.strip().splitlines()[-1])
    assert manifest["counts"] == {"graphs": 10, "violations": 0}


def test_polytope_vertices_json(capsys):
    code, out, _ = run(capsys, "polytope", "vertices", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 13
    assert "4/9,1/3,2/9" in payload["vertices"]
